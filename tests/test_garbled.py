"""Garbled comparator, gate encryption, and oblivious transfer."""
import hashlib
import random
import secrets
import struct

import pytest

from pous.errors import (
    ConfigurationError,
    CorruptedCircuitError,
    RejectedInputError,
)
from pous.garbled import (
    DEFAULT_GROUP,
    FAST_GROUP,
    GATE_KINDS,
    LABEL_BYTES,
    ROW_BYTES,
    ComparatorTemplate,
    DiffieHellmanOT,
    FixedPoint,
    GarbledCircuit,
    GarbledCompareBackend,
    KeyStream,
    PlainCompareBackend,
    TrustedDealerOT,
    comparator_size,
    decode_output,
    eval_circuit,
    garble_comparator,
    gen_gate,
    plain_within_theta,
    secure_compare,
    select_input_labels,
)

TRUTH = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "XNOR": lambda a, b: 1 - (a ^ b),
    "ANDNOT": lambda a, b: a & (1 - b),
}


def decrypt_row(row, ka, kb, gate_index, slot):
    """Independent re-derivation of the row cipher: pad = H(ka||kb||tweak)."""
    pad = hashlib.sha256(ka + kb + struct.pack("<IB", gate_index, slot)).digest()
    plain = bytes(x ^ y for x, y in zip(row, pad[:ROW_BYTES]))
    label, tag = plain[:LABEL_BYTES], plain[LABEL_BYTES:]
    return label, tag == b"\x00" * 4


class RecordingOT(DiffieHellmanOT):
    """DH transfer that keeps the transcript of every exchange."""

    def __init__(self, group, rng=None):
        super().__init__(group, rng=rng)
        self.transcripts = []

    def exchange(self, m0, m1, bit):
        label, transcript = super().exchange(m0, m1, bit)
        self.transcripts.append(transcript)
        return label, transcript


def fresh_keys(stream, count=3):
    return [
        (stream.randbytes(LABEL_BYTES), stream.randbytes(LABEL_BYTES))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# key stream


def test_keystream_deterministic():
    assert KeyStream(42).randbytes(64) == KeyStream(42).randbytes(64)
    assert KeyStream(42).randbytes(64) != KeyStream(43).randbytes(64)


def test_keystream_domain_separation():
    assert KeyStream(1, b"x").randbytes(32) != KeyStream(1, b"y").randbytes(32)


def test_keystream_randint_bounds():
    s = KeyStream(7)
    vals = [s.randint(10) for _ in range(500)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10


def test_keystream_shuffle4_is_permutation():
    s = KeyStream(3)
    seen = set()
    for _ in range(200):
        order = s.shuffle4()
        assert sorted(order) == [0, 1, 2, 3]
        seen.add(order)
    assert len(seen) == 24


# ---------------------------------------------------------------------------
# fixed point


def test_fixed_point_roundtrip_error_bound():
    rng = random.Random(1)
    for w in (4, 8, 16, 32):
        for _ in range(200):
            v = rng.random()
            fp = FixedPoint.encode(v, w)
            assert 0 <= fp.raw < (1 << w)
            assert abs(fp.decode() - v) <= 2.0 ** -w


def test_fixed_point_endpoints():
    assert FixedPoint.encode(0.0, 8).raw == 0
    assert FixedPoint.encode(1.0, 8).raw == 255
    assert FixedPoint.encode(1.0, 8).decode() == 1.0


def test_fixed_point_bits_lsb():
    fp = FixedPoint(raw=0b1011, bitwidth=4)
    assert fp.bits_lsb() == (1, 1, 0, 1)


def test_fixed_point_rejects_bad_inputs():
    with pytest.raises(RejectedInputError):
        FixedPoint.encode(1.5, 8)
    with pytest.raises(RejectedInputError):
        FixedPoint.encode(-0.1, 8)
    with pytest.raises(RejectedInputError):
        FixedPoint.encode(0.5, 1)
    with pytest.raises(RejectedInputError):
        FixedPoint(raw=256, bitwidth=8)


# ---------------------------------------------------------------------------
# single gates


def test_and_gate_label_selection():
    stream = KeyStream(10)
    k1, k2, k3 = fresh_keys(stream)
    gate = gen_gate("AND", k1, k2, k3, 0, 0, 1, 2, stream)
    for a in (0, 1):
        for b in (0, 1):
            hits = [
                decrypt_row(gate.rows[s], k1[a], k2[b], 0, s)
                for s in range(4)
            ]
            labels = [lab for lab, ok in hits if ok]
            assert len(labels) == 1
            want = k3[1] if (a, b) == (1, 1) else k3[0]
            assert labels[0] == want


def test_every_kind_matches_truth_table():
    stream = KeyStream(11)
    for gi, kind in enumerate(GATE_KINDS):
        k1, k2, k3 = fresh_keys(stream)
        gate = gen_gate(kind, k1, k2, k3, gi, 0, 1, 2, stream)
        for a in (0, 1):
            for b in (0, 1):
                labels = [
                    lab
                    for s in range(4)
                    for lab, ok in [decrypt_row(gate.rows[s], k1[a], k2[b], gi, s)]
                    if ok
                ]
                assert len(labels) == 1
                assert labels[0] == k3[TRUTH[kind](a, b)]


def test_gate_rows_are_permuted_per_gate():
    # same keys, different gate index -> different ciphertext bytes
    stream_a = KeyStream(12)
    keys = fresh_keys(stream_a)
    g0 = gen_gate("AND", *keys, 0, 0, 1, 2, KeyStream(12, b"p0"))
    g1 = gen_gate("AND", *keys, 1, 0, 1, 2, KeyStream(12, b"p1"))
    assert g0.rows != g1.rows


# ---------------------------------------------------------------------------
# comparator template


def test_gate_count_closed_form():
    for w in (4, 8, 16, 24, 32):
        t = garble_comparator(w, 0.4, seed=1)
        assert len(t.circuit.gates) == 19 * w - 8


def test_comparator_size_reads_a_real_circuit():
    for w in (4, 8, 16):
        for theta, seed in ((0.0, 3), (0.4, 1), (1.0, 9)):
            c = garble_comparator(w, theta, seed).circuit
            assert comparator_size(w) == (len(c.gates), len(c.serialize()))


def test_comparator_rejects_unsupported_bitwidth():
    for w in (0, 3, 33, 64):
        with pytest.raises(ConfigurationError):
            garble_comparator(w, 0.4, seed=1)


def test_comparator_deterministic_bytes():
    a = garble_comparator(8, 0.4, seed=5).circuit.serialize()
    b = garble_comparator(8, 0.4, seed=5).circuit.serialize()
    c = garble_comparator(8, 0.4, seed=6).circuit.serialize()
    assert a == b
    assert a != c


def test_comparator_constants_cover_threshold_wires():
    t = garble_comparator(8, 0.4, seed=2)
    assert len(t.circuit.const_wires) == 8
    assert len(t.circuit.output_map) == 2
    assert sorted(t.circuit.output_map.values()) == [0, 1]


def test_circuit_holds_no_plaintext_values():
    t = garble_comparator(8, 0.4, seed=2)
    for v in vars(t.circuit).values():
        assert not isinstance(v, float)


def run_template(template, a_raw, b_raw):
    w = template.circuit.bitwidth
    ga = select_input_labels(template.gen_keys, FixedPoint(a_raw, w))
    gb = select_input_labels(template.eval_keys, FixedPoint(b_raw, w))
    return decode_output(template.circuit, eval_circuit(template.circuit, ga, gb))


def test_equal_inputs_always_within_threshold():
    for theta in (0.0, 0.2, 0.9):
        t = garble_comparator(8, theta, seed=3)
        assert run_template(t, 200, 200) == 1


def test_point_nine_vs_point_three_outside_point_four():
    t = garble_comparator(8, 0.4, seed=4)
    a = FixedPoint.encode(0.9, 8)
    b = FixedPoint.encode(0.3, 8)
    assert run_template(t, a.raw, b.raw) == 0


def test_exhaustive_four_bit_comparator():
    t = garble_comparator(4, 0.4, seed=9)
    theta_raw = t.theta.raw
    for a in range(16):
        for b in range(16):
            assert run_template(t, a, b) == plain_within_theta(a, b, theta_raw)


def test_eight_bit_sample_matches_plaintext():
    t = garble_comparator(8, 0.4, seed=13)
    rng = random.Random(13)
    for _ in range(1500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert run_template(t, a, b) == plain_within_theta(a, b, t.theta.raw)


def test_wrong_label_count_rejected():
    t = garble_comparator(8, 0.4, seed=1)
    labels = select_input_labels(t.gen_keys, FixedPoint(5, 8))
    with pytest.raises(RejectedInputError):
        eval_circuit(t.circuit, labels[:-1], labels)


# ---------------------------------------------------------------------------
# tampering


def active_slot(template, gate_index, ka, kb):
    gate = template.circuit.gates[gate_index]
    for s in range(4):
        _lab, ok = decrypt_row(gate.rows[s], ka, kb, gate_index, s)
        if ok:
            return s
    raise AssertionError("no valid row")


def test_tampered_row_detected():
    t = garble_comparator(8, 0.4, seed=21)
    a = FixedPoint.encode(0.5, 8)
    b = FixedPoint.encode(0.5, 8)
    # gate 0 compares the low bits of the two inputs directly
    g0 = t.circuit.gates[0]
    assert (g0.in1, g0.in2) == (0, 8)
    ka = t.gen_keys[0][a.bits_lsb()[0]]
    kb = t.eval_keys[0][b.bits_lsb()[0]]
    slot = active_slot(t, 0, ka, kb)
    rows = list(g0.rows)
    rows[slot] = rows[slot][:-1] + bytes([rows[slot][-1] ^ 0xFF])
    bad_gates = (GarbledGate_replace(g0, tuple(rows)),) + t.circuit.gates[1:]
    bad = GarbledCircuit(
        t.circuit.bitwidth, t.circuit.n_wires, t.circuit.gen_input_wires,
        t.circuit.eval_input_wires, t.circuit.const_wires, bad_gates,
        t.circuit.output_wire, t.circuit.output_map,
    )
    ga = select_input_labels(t.gen_keys, a)
    gb = select_input_labels(t.eval_keys, b)
    with pytest.raises(CorruptedCircuitError):
        eval_circuit(bad, ga, gb)


def GarbledGate_replace(gate, rows):
    from pous.garbled import GarbledGate

    return GarbledGate(gate.kind, gate.in1, gate.in2, gate.out, rows)


def test_unknown_output_label_detected():
    t = garble_comparator(8, 0.4, seed=22)
    with pytest.raises(CorruptedCircuitError):
        decode_output(t.circuit, b"\x00" * LABEL_BYTES)


# ---------------------------------------------------------------------------
# serialization


def test_circuit_serialization_roundtrip():
    t = garble_comparator(8, 0.4, seed=30)
    raw = t.circuit.serialize()
    back = GarbledCircuit.deserialize(raw)
    assert back.serialize() == raw
    a = FixedPoint.encode(0.25, 8)
    b = FixedPoint.encode(0.30, 8)
    ga = select_input_labels(t.gen_keys, a)
    gb = select_input_labels(t.eval_keys, b)
    assert decode_output(back, eval_circuit(back, ga, gb)) == 1


def test_bad_magic_rejected():
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    with pytest.raises(CorruptedCircuitError):
        GarbledCircuit.deserialize(b"XXXX" + raw[4:])


# ---------------------------------------------------------------------------
# oblivious transfer


def test_ot_returns_chosen_label():
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(1))
    m0, m1 = bytes(range(16)), bytes(range(16, 32))
    out0, _ = ot.exchange(m0, m1, 0)
    out1, _ = ot.exchange(m0, m1, 1)
    assert out0 == m0
    assert out1 == m1


def test_ot_default_rng_is_cryptographic():
    ot = DiffieHellmanOT(FAST_GROUP)
    assert isinstance(ot._rng, secrets.SystemRandom)
    m0, m1 = bytes(range(16)), bytes(range(16, 32))
    assert ot.exchange(m0, m1, 1)[0] == m1


def test_ot_default_group_works():
    ot = DiffieHellmanOT(DEFAULT_GROUP, rng=random.Random(2))
    m0, m1 = b"a" * 16, b"b" * 16
    assert ot.exchange(m0, m1, 1)[0] == m1


def test_ot_groups_are_safe_prime():
    for grp in (DEFAULT_GROUP, FAST_GROUP):
        assert grp.p == 2 * grp.q + 1
        assert pow(grp.g, grp.q, grp.p) == 1
        assert pow(grp.g, 2, grp.p) != 1


def test_ot_many_runs_never_leak_other_label():
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(3))
    rng = random.Random(4)
    for _ in range(300):
        m0 = rng.randbytes(16)
        m1 = rng.randbytes(16)
        bit = rng.randrange(2)
        out, _ = ot.exchange(m0, m1, bit)
        assert out == (m0, m1)[bit]
        assert out != (m1, m0)[bit]


def test_ot_transcript_bytes_match_analytic():
    for grp in (DEFAULT_GROUP, FAST_GROUP):
        ot = DiffieHellmanOT(grp, rng=random.Random(5))
        _, tr = ot.exchange(b"x" * 16, b"y" * 16, 0)
        e = grp.element_bytes
        assert ot.transfer_bytes() == 4 * e + 2 * LABEL_BYTES
        assert tr.total_bytes() == ot.transfer_bytes()


def test_ot_receiver_message_independent_of_bit():
    from scipy.stats import chi2_contingency

    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(6))
    counts = [[0] * 8, [0] * 8]
    for bit in (0, 1):
        for _ in range(800):
            _, tr = ot.exchange(b"m" * 16, b"n" * 16, bit)
            counts[bit][tr.receiver_message()[0] >> 5] += 1
    _, p, _, _ = chi2_contingency(counts)
    assert p > 0.01


def test_dealer_ot_same_interface():
    ot = TrustedDealerOT()
    out, tr = ot.exchange(b"p" * 16, b"q" * 16, 1)
    assert out == b"q" * 16
    assert ot.transfer_bytes() == 1
    assert tr.total_bytes() == 1


def test_ot_rejects_bad_bit_and_payload():
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(7))
    with pytest.raises(RejectedInputError):
        ot.exchange(b"x" * 16, b"y" * 16, 2)
    with pytest.raises(RejectedInputError):
        ot.exchange(b"short", b"y" * 16, 0)


# ---------------------------------------------------------------------------
# end to end


def test_secure_compare_equal_values():
    assert secure_compare(0.5, 0.5, 0.4) == 1


def test_secure_compare_wide_gap():
    assert secure_compare(0.9, 0.3, 0.4) == 0


def test_secure_compare_with_real_ot():
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(8))
    assert secure_compare(0.7, 0.65, 0.1, bitwidth=8, ot=ot) == 1
    assert secure_compare(0.7, 0.2, 0.1, bitwidth=8, ot=ot) == 0


def test_secure_compare_random_triples_match_plaintext():
    rng = random.Random(99)
    for trial in range(10_000):
        if trial % 200 == 0:
            theta = rng.random()
            tmpl = garble_comparator(8, theta, seed=trial)
        a, b = rng.random(), rng.random()
        got = secure_compare(a, b, theta, template=tmpl)
        fa = FixedPoint.encode(a, 8)
        fb = FixedPoint.encode(b, 8)
        assert got == plain_within_theta(fa.raw, fb.raw, tmpl.theta.raw)


def test_backends_agree():
    plain = PlainCompareBackend(0.4, bitwidth=8)
    garb = GarbledCompareBackend(0.4, bitwidth=8, seed=17)
    rng = random.Random(17)
    start_bytes = garb.bytes_moved
    for _ in range(300):
        a, b = rng.random(), rng.random()
        assert plain.compare(a, b) == garb.compare(a, b)
    assert plain.comparisons == garb.comparisons == 300
    assert garb.bytes_moved > start_bytes


def test_backend_bytes_are_the_circuit_plus_measured_transcripts():
    w, n = 8, 5
    ot = RecordingOT(FAST_GROUP, rng=random.Random(21))
    garb = GarbledCompareBackend(0.4, bitwidth=w, seed=21, ot=ot)
    rng = random.Random(21)
    for _ in range(n):
        garb.compare(rng.random(), rng.random())
    assert len(ot.transcripts) == n * w
    measured = [
        w * LABEL_BYTES + sum(t.total_bytes() for t in ot.transcripts[i * w:(i + 1) * w])
        for i in range(n)
    ]
    assert len(set(measured)) == 1
    assert garb.bytes_moved == len(garb.template.circuit.serialize()) + n * measured[0]
