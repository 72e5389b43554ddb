"""Garbled comparator, gate encryption, and oblivious transfer."""
import dataclasses
import hashlib
import os
import random
import secrets
import struct
import subprocess
import sys

import pytest

from pous import garbled
from pous.errors import (
    ConfigurationError,
    CorruptedCircuitError,
    RejectedInputError,
)
from pous.garbled import (
    BITWIDTHS,
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
    PlainCompareBackend,
    TrustedDealerOT,
    comparator_size,
    decode_output,
    eval_circuit,
    garble_comparator,
    gen_gate,
    label_bytes,
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


def permute_bit(label):
    return label[-1] & 1


def fresh_keys(seed, count=3):
    """Random key pairs whose two labels carry opposite permute bits."""
    raw = label_bytes(seed, 2 * LABEL_BYTES * count)
    keys = []
    for off in range(0, len(raw), 2 * LABEL_BYTES):
        k0, k1 = raw[off:off + LABEL_BYTES], raw[off + LABEL_BYTES:off + 2 * LABEL_BYTES]
        keys.append((k0, k1[:-1] + bytes([(k1[-1] & 0xFE) | (1 - permute_bit(k0))])))
    return keys


# ---------------------------------------------------------------------------
# label bytes


def test_keystream_deterministic():
    assert label_bytes(42, 64) == label_bytes(42, 64)
    assert label_bytes(42, 64) != label_bytes(43, 64)


def test_keystream_is_sha256_in_counter_mode():
    state = hashlib.sha256(b"pous-gc" + (9).to_bytes(16, "big", signed=True)).digest()
    want = b"".join(hashlib.sha256(state + c.to_bytes(8, "big")).digest() for c in range(3))
    assert label_bytes(9, 96) == want
    # a length off the 32-byte digest boundary is a prefix of the stream
    assert [label_bytes(9, n) for n in (0, 1, 33, 95)] == [want[:n] for n in (0, 1, 33, 95)]


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
    with pytest.raises(RejectedInputError, match="bitwidth 3"):
        FixedPoint(raw=0, bitwidth=3)


# ---------------------------------------------------------------------------
# single gates


def test_and_gate_label_selection():
    k1, k2, k3 = fresh_keys(10)
    gate = gen_gate("AND", k1, k2, k3, 0, 0, 1, 2)
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
    keys = fresh_keys(11, 3 * len(GATE_KINDS))
    for gi, kind in enumerate(GATE_KINDS):
        k1, k2, k3 = keys[3 * gi:3 * gi + 3]
        gate = gen_gate(kind, k1, k2, k3, gi, 0, 1, 2)
        for a in (0, 1):
            for b in (0, 1):
                hits = [
                    (s, lab)
                    for s in range(4)
                    for lab, ok in [decrypt_row(gate.rows[s], k1[a], k2[b], gi, s)]
                    if ok
                ]
                assert len(hits) == 1
                # the one valid row sits at the slot the permute bits name
                slot = 2 * permute_bit(k1[a]) + permute_bit(k2[b])
                assert hits[0] == (slot, k3[TRUTH[kind](a, b)])


def test_gate_rows_are_permuted_per_gate():
    # same keys, different gate index -> different ciphertext bytes
    keys = fresh_keys(12)
    g0 = gen_gate("AND", *keys, 0, 0, 1, 2)
    g1 = gen_gate("AND", *keys, 1, 0, 1, 2)
    assert all(r0 != r1 for r0, r1 in zip(g0.rows, g1.rows))


def test_gate_rejects_key_pair_with_equal_permute_bits():
    k1, k2, k3 = fresh_keys(14)
    same = (k2[0], k2[1][:-1] + bytes([(k2[1][-1] & 0xFE) | permute_bit(k2[0])]))
    for in1, in2 in ((k1, same), (same, k1)):
        with pytest.raises(RejectedInputError, match="permute bit"):
            gen_gate("AND", in1, in2, k3, 0, 0, 1, 2)


# ---------------------------------------------------------------------------
# comparator template


def test_gate_count_closed_form():
    for w in (4, 8, 16, 24, 32):
        t = garble_comparator(w, 0.4, seed=1)
        assert len(t.circuit.gates) == 19 * w - 8
    # four 20-byte rows per gate: 25 header + 28 per input bit + 93 per gate + 38 trailer
    for w in BITWIDTHS:
        assert comparator_size(w) == (19 * w - 8, 25 + 28 * w + 93 * (19 * w - 8) + 38)


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


def test_garbled_bytes_are_pinned():
    """sha256 over the serialized comparators of widths 4, 8, 16 and 32
    under three thetas and three seeds, each followed by the output labels
    of three seeded evaluations: any change to the labels, the wiring or
    the row cipher moves it."""
    h = hashlib.sha256()
    inputs = random.Random(18)
    for w in (4, 8, 16, 32):
        for theta in (0.0, 0.4, 1.0):
            for seed in (0, 5, 2**127 - 1):
                t = garble_comparator(w, theta, seed)
                h.update(t.circuit.serialize())
                for _ in range(3):
                    ga = select_input_labels(t.gen_keys, FixedPoint(inputs.getrandbits(w), w))
                    gb = select_input_labels(t.eval_keys, FixedPoint(inputs.getrandbits(w), w))
                    h.update(eval_circuit(t.circuit, ga, gb))
    assert h.hexdigest() == "c1de10da991137bbd7e82c7f4a615206b2c4df0a0ff838922f3973ed73d50dcb"


def test_comparator_wiring_is_built_once_per_width():
    # every garbling of a width shares the cached wiring, so none of it may be mutable
    for w in (4, 8, 16, 32):
        n_wires, *inputs, gates, out = garbled._skeleton(w)
        assert type(gates) is tuple and all(type(g) is tuple for g in gates)
        assert all(type(wires) is tuple for wires in inputs)
        for theta, seed in ((0.0, 1), (0.7, 2)):
            c = garble_comparator(w, theta, seed).circuit
            assert [(g.kind, g.in1, g.in2, g.out) for g in c.gates] == list(gates)
            assert (c.n_wires, c.output_wire) == (n_wires, out)
            assert (c.gen_input_wires, c.eval_input_wires) == tuple(inputs[:2])


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 2**128, 1.5, "7", None])
def test_seed_outside_the_label_stream_range_rejected(seed):
    with pytest.raises(ConfigurationError, match=r"seed .* -2\*\*127 \.\. 2\*\*127 - 1"):
        garble_comparator(8, 0.4, seed)


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


def test_every_wire_has_opposite_permute_bits(monkeypatch):
    pairs = {}
    real_gen_gate = garbled.gen_gate

    def recording_gen_gate(kind, k1, k2, k3, gi, in1, in2, out):
        pairs.update({in1: k1, in2: k2, out: k3})
        return real_gen_gate(kind, k1, k2, k3, gi, in1, in2, out)

    monkeypatch.setattr(garbled, "gen_gate", recording_gen_gate)
    for w, seed in ((4, 1), (16, 2)):
        pairs.clear()
        t = garble_comparator(w, 0.4, seed)
        assert sorted(pairs) == list(range(t.circuit.n_wires))
        for k0, k1 in pairs.values():
            assert permute_bit(k0) != permute_bit(k1)
        assert pairs[t.circuit.output_wire] == tuple(sorted(
            t.circuit.output_map, key=t.circuit.output_map.get))
    # the false label's permute bit is not fixed: it varies across wires
    assert {permute_bit(k0) for k0, _ in pairs.values()} == {0, 1}


def opened_slots(monkeypatch, template, ga, gb):
    """Run the evaluator and record the (gate, slot) of every pad it computes."""
    opened = []
    real_row_pad = garbled._row_pad

    def counting_row_pad(outer, inner, gate_index, slot):
        opened.append((gate_index, slot))
        return real_row_pad(outer, inner, gate_index, slot)

    with monkeypatch.context() as m:
        m.setattr(garbled, "_row_pad", counting_row_pad)
        out = eval_circuit(template.circuit, ga, gb)
    return opened, decode_output(template.circuit, out)


def test_evaluator_opens_one_row_per_gate(monkeypatch):
    assert garbled.ROW_TRIES == 1
    for w in (4, 16):
        t = garble_comparator(w, 0.4, seed=w)
        rng = random.Random(w)
        for _ in range(20):
            a, b = rng.randrange(1 << w), rng.randrange(1 << w)
            ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
            gb = select_input_labels(t.eval_keys, FixedPoint(b, w))
            opened, bit = opened_slots(monkeypatch, t, ga, gb)
            assert [gi for gi, _ in opened] == list(range(len(t.circuit.gates)))
            assert bit == plain_within_theta(a, b, t.theta.raw)


def with_row(circuit, gate_index, slot, flip_at):
    """Copy of the circuit with one byte of one row flipped."""
    gate = circuit.gates[gate_index]
    rows = list(gate.rows)
    row = rows[slot]
    rows[slot] = row[:flip_at] + bytes([row[flip_at] ^ 0xFF]) + row[flip_at + 1:]
    gates = list(circuit.gates)
    gates[gate_index] = GarbledGate_replace(gate, tuple(rows))
    return dataclasses.replace(circuit, gates=tuple(gates))


def test_tampered_active_tag_raises_and_inactive_rows_are_ignored(monkeypatch):
    w = 4
    t = garble_comparator(w, 0.4, seed=23)
    for a, b in ((3, 5), (12, 2)):
        ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
        gb = select_input_labels(t.eval_keys, FixedPoint(b, w))
        opened, want = opened_slots(monkeypatch, t, ga, gb)
        assert want == plain_within_theta(a, b, t.theta.raw)
        for gi, slot in opened:
            with pytest.raises(CorruptedCircuitError, match=f"gate {gi} "):
                eval_circuit(with_row(t.circuit, gi, slot, ROW_BYTES - 1), ga, gb)
            for other in set(range(4)) - {slot}:
                for flip_at in (0, ROW_BYTES - 1):
                    bad = with_row(t.circuit, gi, other, flip_at)
                    assert decode_output(bad, eval_circuit(bad, ga, gb)) == want


def test_wrong_label_count_rejected():
    t = garble_comparator(8, 0.4, seed=1)
    labels = select_input_labels(t.gen_keys, FixedPoint(5, 8))
    with pytest.raises(RejectedInputError, match="generator"):
        eval_circuit(t.circuit, labels[:-1], labels)
    with pytest.raises(RejectedInputError, match="evaluator"):
        eval_circuit(t.circuit, labels, labels[:-1])
    with pytest.raises(RejectedInputError, match="width"):
        select_input_labels(t.gen_keys, FixedPoint(5, 4))


def test_gate_that_reads_an_unset_wire_rejected():
    t = garble_comparator(4, 0.4, seed=1)
    c = t.circuit
    # gate 0 reads the output wire, which only the last gate sets
    early = dataclasses.replace(c.gates[0], in1=c.output_wire)
    bad = dataclasses.replace(c, gates=(early, *c.gates[1:]))
    ga = select_input_labels(t.gen_keys, FixedPoint(5, 4))
    gb = select_input_labels(t.eval_keys, FixedPoint(6, 4))
    with pytest.raises(CorruptedCircuitError, match="gate 0 evaluated before its inputs"):
        eval_circuit(bad, ga, gb)


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


@pytest.mark.parametrize("cut", ["10", "30", "3249", "len-17", "len-1", "extra byte"])
def test_wrong_length_rejected(cut):
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    assert len(raw) == 6499
    if cut == "extra byte":
        bad = raw + b"\x00"
    elif cut.startswith("len-"):
        bad = raw[:len(raw) - int(cut[4:])]
    else:
        bad = raw[:int(cut)]
    with pytest.raises(CorruptedCircuitError):
        GarbledCircuit.deserialize(bad)


def test_output_map_with_one_label_rejected():
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    entry = LABEL_BYTES + 1
    # both entries carry the first label, so the map names one label twice
    doubled = raw[:-entry] + raw[-2 * entry:-entry - 1] + raw[-1:]
    assert len(doubled) == len(raw)
    with pytest.raises(CorruptedCircuitError, match="two distinct labels"):
        GarbledCircuit.deserialize(doubled)


@pytest.mark.parametrize("claim", [79, 81, 10**7])
def test_wire_count_other_than_the_wires_set_rejected(claim):
    c = garble_comparator(4, 0.4, seed=1).circuit
    assert c.n_wires == 80
    raw = bytearray(c.serialize())
    struct.pack_into("<I", raw, 5, claim)  # n_wires follows the magic and bitwidth
    with pytest.raises(CorruptedCircuitError, match=f"claims {claim} wires, .* set 80"):
        GarbledCircuit.deserialize(bytes(raw))


@pytest.mark.parametrize("bits", [(7, 7), (1, 1), (0, 0), (0, 2)])
def test_output_map_bits_other_than_0_and_1_rejected(bits):
    raw = bytearray(garble_comparator(4, 0.4, seed=1).circuit.serialize())
    entry = LABEL_BYTES + 1
    # each output-map entry ends in its bit
    raw[-entry - 1], raw[-1] = bits
    with pytest.raises(CorruptedCircuitError, match="decodes to"):
        GarbledCircuit.deserialize(bytes(raw))


@pytest.mark.parametrize("far", ["n_wires", 10**6])
@pytest.mark.parametrize("where", ["gate input", "gate output", "generator input",
                                   "evaluator input", "constant", "output wire"])
def test_wire_beyond_the_circuit_rejected(where, far):
    c = garble_comparator(4, 0.4, seed=1).circuit
    far = c.n_wires if far == "n_wires" else far
    g0 = c.gates[0]
    change = {
        "gate input": {"gates": (dataclasses.replace(g0, in2=far), *c.gates[1:])},
        "gate output": {"gates": (dataclasses.replace(g0, out=far), *c.gates[1:])},
        "generator input": {"gen_input_wires": (far, *c.gen_input_wires[1:])},
        "evaluator input": {"eval_input_wires": (*c.eval_input_wires[:-1], far)},
        "constant": {"const_wires": ((far, c.const_wires[0][1]), *c.const_wires[1:])},
        "output wire": {"output_wire": far},
    }[where]
    raw = dataclasses.replace(c, **change).serialize()
    with pytest.raises(CorruptedCircuitError, match=f"names wire {far} of {c.n_wires}"):
        GarbledCircuit.deserialize(raw)


def test_unknown_gate_kind_rejected():
    circuit = garble_comparator(4, 0.4, seed=1).circuit
    raw = circuit.serialize()
    # the first gate's kind byte follows the header, the input wires and the constants
    inputs = len(circuit.gen_input_wires) + len(circuit.eval_input_wires)
    first_gate = (4 + struct.calcsize("<BIIIII") + 4 * inputs
                  + len(circuit.const_wires) * (4 + LABEL_BYTES))
    bad = raw[:first_gate] + bytes([len(garbled.GATE_KINDS)]) + raw[first_gate + 1:]
    with pytest.raises(CorruptedCircuitError, match="unknown gate kind"):
        GarbledCircuit.deserialize(bad)


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
        assert ot.transfer_bytes() == 3 * e + 2 * LABEL_BYTES
        assert tr.total_bytes() == ot.transfer_bytes()


@pytest.mark.parametrize("bit", [0, 1])
def test_ot_transcript_layout(bit):
    for grp in (DEFAULT_GROUP, FAST_GROUP):
        _, tr = DiffieHellmanOT(grp, rng=random.Random(5)).exchange(b"x" * 16, b"y" * 16, bit)
        e = grp.element_bytes
        assert [(who, len(payload)) for who, payload in tr.messages] == [
            ("sender", e), ("receiver", e), ("sender", e + 2 * LABEL_BYTES)]


@pytest.mark.parametrize("grp", [FAST_GROUP, DEFAULT_GROUP], ids=["fast", "default"])
def test_ot_second_key_needs_no_inverse(grp):
    # the sender's (B/C)^r, from B^r and a power of g it can compute because it knows z
    rng = random.Random(41)
    p = grp.p
    for _ in range(50):
        z, r = rng.randrange(1, grp.q), rng.randrange(1, grp.q)
        c = pow(grp.g, z, p)
        for b in (pow(grp.g, rng.randrange(1, grp.q), p), rng.randrange(1, p)):
            s0 = pow(b, r, p)
            assert s0 * grp.pow_g(-z * r) % p == pow(b * pow(c, -1, p), r, p)


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


@pytest.mark.parametrize("grp", [FAST_GROUP, DEFAULT_GROUP], ids=["fast", "default"])
def test_pow_g_matches_builtin_pow(grp):
    digits = (grp.q.bit_length() + 7) // 8
    boundaries = [(1 << (8 * k)) + d for k in range(1, digits + 1) for d in (-1, 1)]
    rng = random.Random(31)
    exponents = ([0, 1, 255, 256, grp.q - 1, grp.q, grp.q + 1] + boundaries
                 + [rng.randrange(1, grp.q) for _ in range(200)])
    for e in exponents:
        assert grp.pow_g(e) == pow(grp.g, e, grp.p), e
    table = vars(grp)["_g_table"]
    assert len(table) == digits
    assert all(len(row) == 255 for row in table)


def reference_exchange(grp, rng, m0, m1, bit):
    """The shared-randomness transfer re-derived slowly: builtin pow for
    every power, a Fermat inverse for the second key, the same three rng
    draws in the same order. Returns the wire messages."""
    p, g, e = grp.p, grp.g, grp.element_bytes

    def key(s, slot):
        return hashlib.sha256(s.to_bytes(e, "big") + bytes([slot])).digest()[:LABEL_BYTES]

    def xor(a, b):
        return bytes(x ^ y for x, y in zip(a, b))

    z = rng.randrange(1, grp.q)
    c = pow(g, z, p)
    x = rng.randrange(1, grp.q)
    b = pow(g, x, p) * pow(c, bit, p) % p
    r = rng.randrange(1, grp.q)
    u = pow(g, r, p)
    k0, k1 = key(pow(b, r, p), 0), key(pow(b * pow(c, p - 2, p) % p, r, p), 1)
    assert key(pow(u, x, p), bit) == (k0, k1)[bit]
    return [("sender", c.to_bytes(e, "big")), ("receiver", b.to_bytes(e, "big")),
            ("sender", u.to_bytes(e, "big") + xor(m0, k0) + xor(m1, k1))]


def test_ot_transcripts_are_pinned():
    """Every message of seeded exchanges, 200 on FAST_GROUP then 20 on
    DEFAULT_GROUP, each with fresh rngs, equals the reference transfer's;
    the digest is sha256 over who + payload of all of them."""
    h = hashlib.sha256()
    for grp, n in ((FAST_GROUP, 200), (DEFAULT_GROUP, 20)):
        ot = DiffieHellmanOT(grp, rng=random.Random(11))
        reference_rng = random.Random(11)
        payloads = random.Random(12)
        for i in range(n):
            m0, m1 = payloads.randbytes(16), payloads.randbytes(16)
            out, transcript = ot.exchange(m0, m1, i & 1)
            assert out == (m0, m1)[i & 1]
            assert transcript.messages == reference_exchange(grp, reference_rng, m0, m1, i & 1)
            for who, payload in transcript.messages:
                h.update(who.encode() + payload)
    assert h.hexdigest() == "98c3ec3a620c556ab38b7dda70362213d4582c2de2985638d7d98f0ddc8c8ae6"


LAZY_TABLE_SCRIPT = """
import pous.cli
from pous import garbled
from pous.simnet import SimConfig, run_pous

groups = (garbled.DEFAULT_GROUP, garbled.FAST_GROUP)
built = lambda: [g for g in groups if "_g_table" in vars(g)]
assert not built(), "import"
garbled.comparison_bytes(16, garbled.DiffieHellmanOT(garbled.DEFAULT_GROUP))
assert not built(), "comparison_bytes"
run_pous(SimConfig(n_nodes=8, sim_time=430.0, block_interval=100.0, tx_epoch=100.0))
assert not built(), "run_pous"
garbled.DiffieHellmanOT(garbled.FAST_GROUP).exchange(bytes(16), bytes(16), 0)
assert built() == [garbled.FAST_GROUP], "exchange"
"""


def test_generator_table_is_built_by_the_first_exchange_only():
    # a fresh interpreter, since any earlier exchange in this one built it
    src = os.path.dirname(os.path.dirname(garbled.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", LAZY_TABLE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_dealer_ot_same_interface():
    ot = TrustedDealerOT()
    out, tr = ot.exchange(b"p" * 16, b"q" * 16, 1)
    assert out == b"q" * 16
    assert ot.transfer_bytes() == 1
    assert tr.total_bytes() == 1
    assert tr.receiver_message() == b""  # the dealer's transcript has no receiver
    with pytest.raises(RejectedInputError, match="choice bit"):
        ot.exchange(b"p" * 16, b"q" * 16, 2)


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
    # a fresh circuit per call, so every call's theta is honoured
    rng = random.Random(99)
    for trial in range(200):
        theta, a, b = rng.random(), rng.random(), rng.random()
        got = secure_compare(a, b, theta, bitwidth=8, seed=trial)
        want = plain_within_theta(*(FixedPoint.encode(v, 8).raw for v in (a, b, theta)))
        assert got == want


def test_backend_random_triples_match_plaintext():
    rng = random.Random(99)
    for trial in range(10_000):
        if trial % 200 == 0:
            theta = rng.random()
            backend = GarbledCompareBackend(theta, 8, seed=trial)
        a, b = rng.random(), rng.random()
        got = backend.compare(a, b)
        fa = FixedPoint.encode(a, 8)
        fb = FixedPoint.encode(b, 8)
        assert got == plain_within_theta(fa.raw, fb.raw, backend.template.theta.raw)


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
