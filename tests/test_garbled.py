"""Garbled comparator, gate encryption, and oblivious transfer."""
import dataclasses
import hashlib
import itertools
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
    SubgroupError,
)
from pous.garbled import (
    BITWIDTHS,
    DEFAULT_GROUP,
    FAST_GROUP,
    LABEL_BYTES,
    DiffieHellmanOT,
    FixedPoint,
    GarbledCircuit,
    GarbledCompareBackend,
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

ROW_BYTES = LABEL_BYTES + 4  # a one-output row: the label, then the 4-byte tag
PAIR_ROW = 2 * LABEL_BYTES + 4  # a two-output row: d_i, the borrow out, the tag

# each kind's output bits as one number, first output most significant
TRUTH = {
    "HSUB": lambda a, b: 2 * (a ^ b) + int(a < b),
    "SUB": lambda a, b, c: 2 * (a ^ b ^ c) + int(a < b + c),
    "SELECT": lambda a, b, c: 1 - c if a else b,
}
OUTPUTS = {"HSUB": 2, "SUB": 2, "SELECT": 1}
AND = (0, 0, 0, 1)


def decrypt_row(row, labels, gate_index, slot):
    """Independent re-derivation of the row cipher: the pad is the first
    len(row) bytes of BLAKE2b(labels || tweak). Returns the output labels,
    joined, and whether the tag decrypted to zero."""
    pad = hashlib.blake2b(b"".join(labels) + struct.pack("<IB", gate_index, slot)).digest()
    plain = bytes(x ^ y for x, y in zip(row, pad))
    return plain[:-4], plain[-4:] == b"\x00" * 4


def gate_outputs(w):
    """The wires each gate of the width-w wiring writes: from wire 2w on,
    in gate order, a gate's outputs consecutive."""
    wires, out = [], 2 * w
    for kind, *_ in garbled._skeleton(w):
        n = garbled._OUTPUTS.get(kind, 1)
        wires.append(tuple(range(out, out + n)))
        out += n
    return wires


class RecordingOT(DiffieHellmanOT):
    """DH transfer that keeps the transcript of every batch."""

    def __init__(self, group, rng=None):
        super().__init__(group, rng=rng)
        self.transcripts = []

    def exchange(self, pairs, bits):
        labels, transcript = super().exchange(pairs, bits)
        self.transcripts.append(transcript)
        return labels, transcript


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


def test_keystream_is_blake2b_in_counter_mode():
    state = hashlib.blake2b(b"pous-gc" + (9).to_bytes(16, "big", signed=True)).digest()
    want = b"".join(hashlib.blake2b(state + c.to_bytes(8, "big")).digest() for c in range(3))
    assert label_bytes(9, 192) == want
    # a length off the 64-byte digest boundary is a prefix of the stream
    assert [label_bytes(9, n) for n in (0, 1, 65, 191)] == [want[:n] for n in (0, 1, 65, 191)]


# ---------------------------------------------------------------------------
# fixed point


def test_fixed_point_roundtrip_error_bound():
    rng = random.Random(1)
    for w in (4, 8, 16, 32):
        for _ in range(200):
            v = rng.random()
            fp = FixedPoint.encode(v, w)
            assert 0 <= fp.raw < (1 << w)
            assert abs(fp.raw / ((1 << w) - 1) - v) <= 2.0 ** -w


def test_fixed_point_endpoints():
    assert FixedPoint.encode(0.0, 8).raw == 0
    assert FixedPoint.encode(1.0, 8).raw == 255


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
    rows = gen_gate(AND, (k1, k2), (k3,), 0)
    for a in (0, 1):
        for b in (0, 1):
            hits = [
                decrypt_row(rows[s], (k1[a], k2[b]), 0, s)
                for s in range(4)
            ]
            labels = [lab for lab, ok in hits if ok]
            assert len(labels) == 1
            want = k3[1] if (a, b) == (1, 1) else k3[0]
            assert labels[0] == want


def assert_gate_decrypts_to(table, ins, outs, gi):
    """Garble the table and check that every input combination opens
    exactly one row, at the slot its labels' permute bits name (the first
    input's most significant), and that the row holds the output labels
    the table's entry names, first output most significant."""
    rows = gen_gate(table, tuple(ins), tuple(outs), gi)
    assert len(rows) == len(table)
    assert {len(r) for r in rows} == {len(outs) * LABEL_BYTES + 4}
    for combo, bits in enumerate(itertools.product((0, 1), repeat=len(ins))):
        labels = [k[bit] for k, bit in zip(ins, bits)]
        hits = [
            (s, lab)
            for s in range(len(rows))
            for lab, ok in [decrypt_row(rows[s], labels, gi, s)]
            if ok
        ]
        assert len(hits) == 1
        slot = int("".join(str(permute_bit(lab)) for lab in labels), 2)
        want = b"".join(k[table[combo] >> (len(outs) - 1 - j) & 1] for j, k in enumerate(outs))
        assert hits[0] == (slot, want)


def test_every_kind_matches_truth_table():
    # the named kinds are the tables they say, with the output counts
    # _OUTPUTS gives them, and gen_gate garbles any of the 16 two-input
    # tables, indexed 2*a + b, and any of the 256 three-input tables,
    # indexed 4*a + 2*b + c, of one output
    for kind, f in TRUTH.items():
        fan_in = f.__code__.co_argcount
        assert garbled._TABLES[kind] == tuple(
            f(*bits) for bits in itertools.product((0, 1), repeat=fan_in))
        assert garbled._OUTPUTS.get(kind, 1) == OUTPUTS[kind]
    assert set(garbled._TABLES) == set(TRUTH)
    tables = [tuple(n >> s & 1 for s in range(4)) for n in range(16)]
    tables += [tuple(n >> s & 1 for s in range(8)) for n in range(256)]
    keys = fresh_keys(11, 4 * len(tables))
    for gi, table in enumerate(tables):
        fan_in = len(table).bit_length() - 1
        assert_gate_decrypts_to(table, keys[4 * gi:4 * gi + fan_in], [keys[4 * gi + 3]], gi)


def test_gen_gate_garbles_two_output_tables():
    """Every two-input table of two outputs (4**4 of them) and a sample of
    the 4**8 three-input ones open to the labels they name, and so do the
    subtractor's HSUB and SUB."""
    rng = random.Random(15)
    tables = list(itertools.product(range(4), repeat=4))
    tables += [tuple(rng.randrange(4) for _ in range(8)) for _ in range(128)]
    tables += [garbled._TABLES["HSUB"], garbled._TABLES["SUB"]]
    keys = fresh_keys(15, 5 * len(tables))
    for gi, table in enumerate(tables):
        fan_in = len(table).bit_length() - 1
        at = 5 * gi
        assert_gate_decrypts_to(table, keys[at:at + fan_in], keys[at + 3:at + 5], gi)


def test_gate_rows_are_permuted_per_gate():
    # same keys, different gate index -> different ciphertext bytes
    k1, k2, k3 = fresh_keys(12)
    g0 = gen_gate(AND, (k1, k2), (k3,), 0)
    g1 = gen_gate(AND, (k1, k2), (k3,), 1)
    assert all(r0 != r1 for r0, r1 in zip(g0, g1))
    k1, k2, k3, k4, k5 = fresh_keys(13, 5)
    g0 = gen_gate(garbled._TABLES["SUB"], (k1, k2, k3), (k4, k5), 0)
    g1 = gen_gate(garbled._TABLES["SUB"], (k1, k2, k3), (k4, k5), 1)
    assert all(r0 != r1 for r0, r1 in zip(g0, g1))


def test_gate_rejects_key_pair_with_equal_permute_bits():
    k1, k2, k3 = fresh_keys(14)
    same = (k2[0], k2[1][:-1] + bytes([(k2[1][-1] & 0xFE) | permute_bit(k2[0])]))
    for ins in ((k1, same), (same, k1)):
        with pytest.raises(RejectedInputError, match="permute bit"):
            gen_gate(AND, ins, (k3,), 0)
    for ins in ((same, k1, k1), (k1, same, k1), (k1, k1, same)):
        with pytest.raises(RejectedInputError, match="permute bit"):
            gen_gate(garbled._TABLES["SUB"], ins, (k3, k1), 0)


# ---------------------------------------------------------------------------
# comparator template


def test_gate_count_closed_form():
    for w in (4, 8, 16, 24, 32):
        t = garble_comparator(w, 0.4, seed=1)
        assert len(t.circuit.gates) == 3 * w - 1
        assert sum(map(len, t.circuit.gates)) == 16 * w - 4
    # 5 head bytes + 36 per subtractor row (8w - 4 rows) + 20 per ripple
    # and select row (8w rows) + two 17-byte map entries
    for w in BITWIDTHS:
        assert comparator_size(w) == (3 * w - 1, 448 * w - 105)
    assert [comparator_size(w)[1] for w in (4, 8, 16, 32)] == [1687, 3479, 7063, 14231]


def test_comparator_size_reads_a_real_circuit():
    for w in (4, 8, 16):
        for theta, seed in ((0.0, 3), (0.4, 1), (1.0, 9)):
            c = garble_comparator(w, theta, seed).circuit
            assert comparator_size(w) == (len(c.gates), len(c.serialize()))


def test_comparator_rejects_unsupported_bitwidth():
    for w in (0, 3, 33, 64):
        with pytest.raises(ConfigurationError, match=f"unsupported bitwidth {w}"):
            garble_comparator(w, 0.4, seed=1)
        with pytest.raises(ConfigurationError, match=f"unsupported bitwidth {w}"):
            comparator_size(w)


def test_comparator_deterministic_bytes():
    a = garble_comparator(8, 0.4, seed=5).circuit.serialize()
    b = garble_comparator(8, 0.4, seed=5).circuit.serialize()
    c = garble_comparator(8, 0.4, seed=6).circuit.serialize()
    assert a == b
    assert a != c


def test_garbled_bytes_are_pinned():
    """sha256 over the serialized comparators of widths 4, 8, 16 and 32
    under three thetas and three seeds, each followed by the output labels
    of three seeded evaluations: any change to the labels, the row cipher,
    the wire format or the wiring (which decides every row) moves it."""
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
    assert h.hexdigest() == "dd581c09be936ecb22d267b6caf7db95be91f4473ee8edc423f174b278bd993f"


def test_comparator_wiring_is_built_once_per_width():
    # every garbling and evaluation of a width shares the cached wiring,
    # so none of it may be mutable, and a circuit carries none of it
    for w in (4, 8, 16, 32):
        gates = garbled._skeleton(w)
        assert garbled._skeleton(w) is garbled._skeleton(w)
        assert type(gates) is tuple and all(type(g) is tuple for g in gates)
        assert all(len(g) in (3, 4) and all(type(i) is int for i in g[1:]) for g in gates)
        # every gate reads wires set before it, so evaluation needs no order check
        for (_kind, *ins), outs in zip(gates, gate_outputs(w)):
            assert max(ins) < outs[0]
        for theta, seed in ((0.0, 1), (0.7, 2)):
            c = garble_comparator(w, theta, seed).circuit
            assert set(vars(c)) == {"bitwidth", "gates", "output_map"}
            assert len(c.gates) == len(gates)
            # 2**fan-in rows per gate, each its output labels and the tag
            assert all(len(rows) == 1 << (len(g) - 1)
                       and {len(r) for r in rows} == {len(outs) * LABEL_BYTES + 4}
                       for rows, g, outs in zip(c.gates, gates, gate_outputs(w)))


@pytest.mark.parametrize("w", BITWIDTHS)
def test_gate_list_follows_the_fixed_wire_layout(w):
    """Inputs are wires 0 .. 2w - 1, and the gates write wires 2w .. 6w - 2
    in order, a gate's outputs consecutive: each gate reads only wires
    below its own, every input wire and every gate output but the last
    (the comparator's output) is read, so no gate is dead, and there are
    3w - 1 gates: w in the subtractor (bit 0's two-input gate, then one
    three-input gate per bit, each with two outputs, d_i then the borrow
    out), 2(w - 1) two-input ripple gates and one three-input select."""
    gates = garbled._skeleton(w)
    assert len(gates) == 3 * w - 1
    fan_in = [len(ins) for _kind, *ins in gates]
    assert fan_in == [2] + [3] * (w - 1) + [2] * (2 * w - 2) + [3]
    outs = gate_outputs(w)
    assert [len(o) for o in outs] == [2] * w + [1] * (2 * w - 1)
    assert [o[0] for o in outs[:w]] == [2 * w + 2 * i for i in range(w)]
    assert outs[w][0] == 4 * w and outs[-1] == (6 * w - 2,)
    # each subtractor bit reads a_i, b_i and the borrow out of the bit below
    assert [ins for _kind, *ins in gates[1:w]] == [
        [i, w + i, 2 * w + 2 * i - 1] for i in range(1, w)]
    read = set()
    for (_kind, *ins), out in zip(gates, outs):
        assert all(0 <= i < out[0] for i in ins)
        read.update(ins)
    assert read == set(range(6 * w - 2))


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 2**128, 1.5, "7", None])
def test_seed_outside_the_label_stream_range_rejected(seed):
    with pytest.raises(ConfigurationError, match=r"seed .* -2\*\*127 \.\. 2\*\*127 - 1"):
        garble_comparator(8, 0.4, seed)


def test_threshold_picks_only_the_ripple_tables(monkeypatch):
    """Garbling under any theta runs gen_gate on the same wires with the
    same keys; theta changes only the tables of the 2(w - 1) ripple gates."""
    calls = {}
    honest_gen_gate = garbled.gen_gate

    def recording_gen_gate(table, ins, out, gi):
        calls[gi] = (table, ins, out)
        return honest_gen_gate(table, ins, out, gi)

    monkeypatch.setattr(garbled, "gen_gate", recording_gen_gate)
    for w in (4, 8, 16):
        gates = garbled._skeleton(w)
        ripple = {gi for gi, (kind, *_) in enumerate(gates) if not isinstance(kind, str)}
        assert len(ripple) == 2 * (w - 1)
        runs = []
        for raw in (0, 1, 0b0101 << (w - 4), (1 << w) - 1):
            calls.clear()
            t = garble_comparator(w, raw / ((1 << w) - 1), seed=2)
            assert t.theta.raw == raw and len(t.circuit.output_map) == 2
            runs.append(dict(calls))
        assert all(run[gi][1:] == runs[0][gi][1:] for run in runs for gi in run)
        varied = {gi for gi in runs[0] if len({run[gi][0] for run in runs}) > 1}
        assert varied == ripple


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


def garble_at(w, theta_raw, seed):
    """The width-w comparator whose threshold encodes to ``theta_raw``."""
    t = garble_comparator(w, theta_raw / ((1 << w) - 1), seed)
    assert t.theta.raw == theta_raw
    return t


def assert_every_pair(t):
    w = t.circuit.bitwidth
    eval_labels = [select_input_labels(t.eval_keys, FixedPoint(b, w)) for b in range(1 << w)]
    for a in range(1 << w):
        ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
        for b, gb in enumerate(eval_labels):
            got = decode_output(t.circuit, eval_circuit(t.circuit, ga, gb))
            assert got == plain_within_theta(a, b, t.theta.raw), (a, b, t.theta.raw)


def test_exhaustive_four_bit_comparator():
    # every threshold and every pair
    for theta_raw in range(16):
        assert_every_pair(garble_at(4, theta_raw, seed=theta_raw))


@pytest.mark.parametrize("w", [5, 6])
def test_every_pair_at_edge_thresholds(w):
    top = (1 << w) - 1
    alternating = int(("01" * w)[:w], 2)  # 0b0101...
    for theta_raw in (0, 1, top - 1, top, alternating, alternating ^ top):
        assert_every_pair(garble_at(w, theta_raw, seed=theta_raw))


@pytest.mark.parametrize("w", [16, 32])
def test_gaps_next_to_the_threshold_at_wide_widths(w):
    # |a - b| of theta - 1, theta and theta + 1, with a above b and below it
    top = (1 << w) - 1
    rng = random.Random(w)
    for theta_raw in (1, top - 1, *(rng.randrange(1, top) for _ in range(4))):
        t = garble_at(w, theta_raw, seed=theta_raw)
        for gap in (theta_raw - 1, theta_raw, theta_raw + 1):
            for _ in range(3):
                lo = rng.randrange(top - gap + 1)
                for a, b in ((lo + gap, lo), (lo, lo + gap)):
                    assert run_template(t, a, b) == (gap <= theta_raw), (a, b, theta_raw)


def test_eight_bit_sample_matches_plaintext():
    t = garble_comparator(8, 0.4, seed=13)
    rng = random.Random(13)
    for _ in range(1500):
        a, b = rng.randrange(256), rng.randrange(256)
        assert run_template(t, a, b) == plain_within_theta(a, b, t.theta.raw)


def test_every_wire_has_opposite_permute_bits(monkeypatch):
    pairs = {}
    real_gen_gate = garbled.gen_gate
    wiring = {}

    def recording_gen_gate(kind, in_keys, out_keys, gi):
        ins, outs = wiring[gi]
        pairs.update({**dict(zip(ins, in_keys)), **dict(zip(outs, out_keys))})
        return real_gen_gate(kind, in_keys, out_keys, gi)

    monkeypatch.setattr(garbled, "gen_gate", recording_gen_gate)
    for w, seed in ((4, 1), (16, 2)):
        pairs.clear()
        wiring = {gi: (ins, outs) for gi, ((_kind, *ins), outs)
                  in enumerate(zip(garbled._skeleton(w), gate_outputs(w)))}
        t = garble_comparator(w, 0.4, seed)
        assert sorted(pairs) == list(range(6 * w - 1))
        for k0, k1 in pairs.values():
            assert permute_bit(k0) != permute_bit(k1)
        assert pairs[6 * w - 2] == tuple(sorted(
            t.circuit.output_map, key=t.circuit.output_map.get))
    # the false label's permute bit is not fixed: it varies across wires
    assert {permute_bit(k0) for k0, _ in pairs.values()} == {0, 1}


def opened_slots(monkeypatch, template, ga, gb):
    """Run the evaluator and record the (gate, slot) of every pad it
    computes, read off the tweak that ends each hashed row input."""
    opened = []
    real_blake2b = hashlib.blake2b

    def counting_blake2b(data):
        opened.append(struct.unpack("<IB", data[-5:]))
        return real_blake2b(data)

    with monkeypatch.context() as m:
        m.setattr(hashlib, "blake2b", counting_blake2b)
        out = eval_circuit(template.circuit, ga, gb)
    return opened, decode_output(template.circuit, out)


def test_evaluator_opens_one_row_per_gate(monkeypatch):
    # each gate once, in order: the per-comparison gate count
    # comparator_size states is the pad count the simulator charges
    for w in (4, 5, 16, 32):
        gates = list(range(comparator_size(w)[0]))
        t = garble_comparator(w, 0.4, seed=w)
        rng = random.Random(w)
        for _ in range(20):
            a, b = rng.randrange(1 << w), rng.randrange(1 << w)
            ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
            gb = select_input_labels(t.eval_keys, FixedPoint(b, w))
            opened, bit = opened_slots(monkeypatch, t, ga, gb)
            assert [gi for gi, _ in opened] == gates
            assert bit == plain_within_theta(a, b, t.theta.raw)


def test_width_16_hash_work_is_one_compression_per_gate_and_row(monkeypatch):
    """At width 16 one evaluation hashes once per gate, 47 times, and one
    garbling once per row, 252 times, besides the label stream's state and
    blocks. The longest message, the stream's 72-byte block input, and
    the longest row-pad message, three labels and a tweak (53 bytes), fit
    one 128-byte BLAKE2b block, so each is one compression, and the
    simulator's per-gate pad cost keeps its meaning."""
    messages = []
    real_blake2b = hashlib.blake2b
    monkeypatch.setattr(hashlib, "blake2b",
                        lambda data: messages.append(data) or real_blake2b(data))
    w, (gates, _) = 16, comparator_size(16)
    assert gates == 47
    t = garble_comparator(w, 0.4, seed=3)
    # two labels for each of the 6w - 1 wires, in label_bytes' 64-byte blocks
    stream = -(-2 * LABEL_BYTES * (6 * w - 1) // 64)
    assert stream == 48
    assert len(messages) == 1 + stream + 252
    pads = messages[1 + stream:]
    # 31 two-input gates of four rows (HSUB and the ripples), 16
    # three-input gates of eight (the SUBs and the select)
    assert sorted(map(len, pads)) == [2 * LABEL_BYTES + 5] * 124 + [3 * LABEL_BYTES + 5] * 128
    assert max(map(len, pads)) == 53 and max(map(len, messages)) == 72 <= 128
    messages.clear()
    ga = select_input_labels(t.gen_keys, FixedPoint(12345, w))
    gb = select_input_labels(t.eval_keys, FixedPoint(54321, w))
    eval_circuit(t.circuit, ga, gb)
    assert len(messages) == 47
    assert max(map(len, messages)) == 53


def with_row(circuit, gate_index, slot, flip_at):
    """Copy of the circuit with one byte of one row flipped; a negative
    ``flip_at`` counts from the row's end, -1 its tag's last byte."""
    rows = list(circuit.gates[gate_index])
    row = rows[slot]
    flip_at %= len(row)
    rows[slot] = row[:flip_at] + bytes([row[flip_at] ^ 0xFF]) + row[flip_at + 1:]
    gates = list(circuit.gates)
    gates[gate_index] = tuple(rows)
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
                eval_circuit(with_row(t.circuit, gi, slot, -1), ga, gb)
            for other in set(range(len(t.circuit.gates[gi]))) - {slot}:
                for flip_at in (0, -1):
                    bad = with_row(t.circuit, gi, other, flip_at)
                    assert decode_output(bad, eval_circuit(bad, ga, gb)) == want


@pytest.mark.parametrize("fault", ["gate missing", "gate extra", "width 3", "width 33",
                                   "width 4", "three rows", "seven rows"])
def test_malformed_circuit_object_raises_corrupted(fault):
    # a circuit object that deserialize never checked: eval_circuit names the fault
    t = garble_comparator(8, 0.4, seed=1)
    c = t.circuit
    bad = {
        "gate missing": dataclasses.replace(c, gates=c.gates[:-1]),
        "gate extra": dataclasses.replace(c, gates=c.gates + c.gates[:1]),
        "width 3": dataclasses.replace(c, bitwidth=3),
        "width 33": dataclasses.replace(c, bitwidth=33),
        "width 4": dataclasses.replace(c, bitwidth=4),  # 23 gates, a width-4 comparator has 11
        # every gate loses row 3, so the first gate whose active row it is fails
        "three rows": dataclasses.replace(c, gates=tuple(rows[:3] for rows in c.gates)),
        # every three-input gate loses row 7, likewise
        "seven rows": dataclasses.replace(c, gates=tuple(rows[:7] for rows in c.gates)),
    }[fault]
    ga = select_input_labels(t.gen_keys, FixedPoint(5, 8))
    gb = select_input_labels(t.eval_keys, FixedPoint(9, 8))
    match = {"width 3": "outside 4..32", "width 33": "outside 4..32",
             "three rows": r"gate \d+ has an empty input label or lacks the row",
             "seven rows": r"gate \d+ has an empty input label or lacks the row",
             }.get(fault, r"circuit has \d+ gates")
    with pytest.raises(CorruptedCircuitError, match=match):
        eval_circuit(bad, ga, gb)


def test_empty_input_label_raises_corrupted():
    # gate 0 reads generator label 0 before any row, so the fault is named there
    t = garble_comparator(8, 0.4, seed=1)
    ga = select_input_labels(t.gen_keys, FixedPoint(5, 8))
    gb = select_input_labels(t.eval_keys, FixedPoint(9, 8))
    with pytest.raises(CorruptedCircuitError, match="gate 0 has an empty input label"):
        eval_circuit(t.circuit, [b"", *ga[1:]], gb)


def test_wrong_label_count_rejected():
    t = garble_comparator(8, 0.4, seed=1)
    labels = select_input_labels(t.gen_keys, FixedPoint(5, 8))
    with pytest.raises(RejectedInputError, match="generator"):
        eval_circuit(t.circuit, labels[:-1], labels)
    with pytest.raises(RejectedInputError, match="evaluator"):
        eval_circuit(t.circuit, labels, labels[:-1])
    with pytest.raises(RejectedInputError, match="width"):
        select_input_labels(t.gen_keys, FixedPoint(5, 4))


# ---------------------------------------------------------------------------
# tampering


def active_slot(template, gate_index, labels):
    rows = template.circuit.gates[gate_index]
    for s in range(len(rows)):
        _lab, ok = decrypt_row(rows[s], labels, gate_index, s)
        if ok:
            return s
    raise AssertionError("no valid row")


def active_wires(template, ga, gb):
    """Every wire's active label, found without eval_circuit: each gate's
    rows are tried in turn with decrypt_row, and the one whose tag holds
    gives the gate's output labels."""
    wires = [*ga, *gb]
    for gi, ((_kind, *ins), rows) in enumerate(zip(
            garbled._skeleton(template.circuit.bitwidth), template.circuit.gates)):
        labels = [wires[i] for i in ins]
        (plain,) = [lab for s, row in enumerate(rows)
                    for lab, ok in [decrypt_row(row, labels, gi, s)] if ok]
        wires += [plain[o:o + LABEL_BYTES] for o in range(0, len(plain), LABEL_BYTES)]
    return wires


def test_tampered_row_detected():
    t = garble_comparator(8, 0.4, seed=21)
    a = FixedPoint.encode(0.5, 8)
    b = FixedPoint.encode(0.5, 8)
    # gate 0 compares the low bits of the two inputs directly
    assert garbled._skeleton(8)[0] == ("HSUB", 0, 8)
    ka = t.gen_keys[0][a.bits_lsb()[0]]
    kb = t.eval_keys[0][b.bits_lsb()[0]]
    bad = with_row(t.circuit, 0, active_slot(t, 0, (ka, kb)), -1)
    ga = select_input_labels(t.gen_keys, a)
    gb = select_input_labels(t.eval_keys, b)
    with pytest.raises(CorruptedCircuitError):
        eval_circuit(bad, ga, gb)


def test_unknown_output_label_detected():
    t = garble_comparator(8, 0.4, seed=22)
    with pytest.raises(CorruptedCircuitError):
        decode_output(t.circuit, b"\x00" * LABEL_BYTES)


# ---------------------------------------------------------------------------
# serialization


def with_width(raw, w):
    """The serialized circuit with its width byte, the one after the magic, set to w."""
    return raw[:4] + bytes([w]) + raw[5:]


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


def test_circuit_serialization_roundtrip_at_every_width():
    rng = random.Random(19)
    for w in BITWIDTHS:
        t = garble_comparator(w, rng.random(), seed=w)
        raw = t.circuit.serialize()
        assert len(raw) == comparator_size(w)[1]
        back = GarbledCircuit.deserialize(raw)
        assert back == t.circuit
        assert back.serialize() == raw
        a, b = rng.getrandbits(w), rng.getrandbits(w)
        ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
        gb = select_input_labels(t.eval_keys, FixedPoint(b, w))
        assert decode_output(back, eval_circuit(back, ga, gb)) == plain_within_theta(
            a, b, t.theta.raw)


def test_bad_magic_rejected():
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    # PGC1 named the format that also carried the wiring, PGC2 the one
    # that carried the threshold's labels
    for magic in (b"XXXX", b"PGC1", b"PGC2"):
        with pytest.raises(CorruptedCircuitError, match="bad circuit magic"):
            GarbledCircuit.deserialize(magic + raw[4:])


@pytest.mark.parametrize("width", [0, 3, 33, 255, None])
def test_width_outside_bitwidths_rejected(width):
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    bad = raw[:4] if width is None else with_width(raw, width)
    with pytest.raises(CorruptedCircuitError, match=f"circuit width {width} outside 4..32"):
        GarbledCircuit.deserialize(bad)


def test_width_other_than_the_circuits_rejected():
    raw = garble_comparator(8, 0.4, seed=1).circuit.serialize()
    for w in (4, 16):
        with pytest.raises(CorruptedCircuitError,
                           match=f"{len(raw)} bytes, a width-{w} comparator is "
                                 f"{comparator_size(w)[1]}"):
            GarbledCircuit.deserialize(with_width(raw, w))


@pytest.mark.parametrize("cut", ["10", "30", "3249", "len-17", "len-1", "extra byte"])
def test_wrong_length_rejected(cut):
    raw = garble_comparator(8, 0.4, seed=1).circuit.serialize()
    assert len(raw) == 3479
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


def test_output_map_out_of_label_order_rejected():
    # serialize writes the two entries sorted by label
    raw = garble_comparator(4, 0.4, seed=1).circuit.serialize()
    entry = LABEL_BYTES + 1
    swapped = raw[:-2 * entry] + raw[-entry:] + raw[-2 * entry:-entry]
    with pytest.raises(CorruptedCircuitError, match="not in label order"):
        GarbledCircuit.deserialize(swapped)


@pytest.mark.parametrize("bits", [(7, 7), (1, 1), (0, 0), (0, 2)])
def test_output_map_bits_other_than_0_and_1_rejected(bits):
    raw = bytearray(garble_comparator(4, 0.4, seed=1).circuit.serialize())
    entry = LABEL_BYTES + 1
    # each output-map entry ends in its bit
    raw[-entry - 1], raw[-1] = bits
    with pytest.raises(CorruptedCircuitError, match="decodes to"):
        GarbledCircuit.deserialize(bytes(raw))


def test_flipped_row_byte_in_the_bytes_fails_its_tag():
    # the bytes cannot tell a flipped row from a fresh one; the evaluator's tag check can
    w = 4
    t = garble_comparator(w, 0.4, seed=24)
    raw = bytearray(t.circuit.serialize())
    gate0 = 5  # the magic and the width byte, then gate 0's rows
    for slot in range(4):
        raw[gate0 + (slot + 1) * PAIR_ROW - 1] ^= 0x01
    bad = GarbledCircuit.deserialize(bytes(raw))
    ga = select_input_labels(t.gen_keys, FixedPoint(3, w))
    gb = select_input_labels(t.eval_keys, FixedPoint(5, w))
    with pytest.raises(CorruptedCircuitError, match="of gate 0 fails its tag check"):
        eval_circuit(bad, ga, gb)


def test_flipped_byte_in_a_three_input_row_fails_its_tag():
    w = 4
    t = garble_comparator(w, 0.4, seed=25)
    gates = garbled._skeleton(w)
    assert len(gates[1]) == 4  # gate 1, bit 1's subtractor, is the first three-input gate
    raw = bytearray(t.circuit.serialize())
    gate1 = 5 + 4 * PAIR_ROW  # the head, then gate 0's four rows
    for slot in range(8):
        raw[gate1 + (slot + 1) * PAIR_ROW - 1] ^= 0x01
    bad = GarbledCircuit.deserialize(bytes(raw))
    assert bad.gates[1] != t.circuit.gates[1] and bad.gates[2] == t.circuit.gates[2]
    ga = select_input_labels(t.gen_keys, FixedPoint(3, w))
    gb = select_input_labels(t.eval_keys, FixedPoint(5, w))
    with pytest.raises(CorruptedCircuitError, match="of gate 1 fails its tag check"):
        eval_circuit(bad, ga, gb)


@pytest.mark.parametrize("w", [4, 16])
def test_flipped_byte_of_a_two_output_row_fails_a_tag(w):
    """A byte flipped in the tag of a subtractor gate's active row fails
    that gate's tag check. One flipped in either of its two labels fails
    the tag check of the first gate that reads that label's wire: the tag
    covers only itself, and the wrong label opens a wrong pad one gate on."""
    t = garble_comparator(w, 0.4, seed=26)
    gates, outs = garbled._skeleton(w), gate_outputs(w)
    rng = random.Random(w)
    ga = select_input_labels(t.gen_keys, FixedPoint(rng.getrandbits(w), w))
    gb = select_input_labels(t.eval_keys, FixedPoint(rng.getrandbits(w), w))
    wires = active_wires(t, ga, gb)

    def first_reader(wire):
        return next(gi for gi, (_kind, *ins) in enumerate(gates) if wire in ins)

    for gi in (0, 1, w - 1):  # HSUB, the first SUB, the last SUB
        kind, *ins = gates[gi]
        assert garbled._OUTPUTS[kind] == 2
        slot = active_slot(t, gi, [wires[i] for i in ins])
        d, borrow = outs[gi]
        for flip_at, fails in ((0, first_reader(d)), (LABEL_BYTES - 1, first_reader(d)),
                               (LABEL_BYTES, first_reader(borrow)),
                               (2 * LABEL_BYTES - 1, first_reader(borrow)),
                               (-4, gi), (-1, gi)):
            with pytest.raises(CorruptedCircuitError, match=f"of gate {fails} fails its tag"):
                eval_circuit(with_row(t.circuit, gi, slot, flip_at), ga, gb)


def test_old_two_input_circuit_bytes_rejected():
    """A width-16 circuit in the PGC3 format (110 four-row gates, 8,839
    bytes) is refused by its magic, and with the magic rewritten by its
    length; neither reaches the row split."""
    old = b"PGC3" + bytes([16]) + bytes(random.Random(3).getrandbits(8) for _ in range(8834))
    assert len(old) == 5 + 110 * 4 * ROW_BYTES + 2 * (LABEL_BYTES + 1) == 8839
    with pytest.raises(CorruptedCircuitError, match="bad circuit magic"):
        GarbledCircuit.deserialize(old)
    with pytest.raises(CorruptedCircuitError, match="8839 bytes, a width-16 comparator is 7063"):
        GarbledCircuit.deserialize(b"PGC5" + old[4:])


def test_one_output_subtractor_circuit_bytes_rejected():
    """A width-16 circuit in the PGC4 format (63 one-output gates: 32 of
    four rows, 31 of eight; 7,559 bytes) is refused by its magic, and with
    the magic rewritten by its length."""
    old = b"PGC4" + bytes([16]) + bytes(random.Random(4).getrandbits(8) for _ in range(7554))
    assert len(old) == 5 + (32 * 4 + 31 * 8) * ROW_BYTES + 2 * (LABEL_BYTES + 1) == 7559
    with pytest.raises(CorruptedCircuitError, match="bad circuit magic"):
        GarbledCircuit.deserialize(old)
    with pytest.raises(CorruptedCircuitError, match="7559 bytes, a width-16 comparator is 7063"):
        GarbledCircuit.deserialize(b"PGC5" + old[4:])


def path_to_output(w, bit):
    """Gate index -> (which of its inputs, which of its outputs) lies on a
    path in the width-w wiring from evaluator input ``bit`` (wire w + bit)
    to the output wire (the last gate's only output)."""
    gates, outs = garbled._skeleton(w), gate_outputs(w)
    writer = {wire: (gi, k) for gi, wires in enumerate(outs) for k, wire in enumerate(wires)}
    reached = {w + bit}
    for (_kind, *ins), wires in zip(gates, outs):
        if reached.intersection(ins):
            reached.update(wires)
    path, wire = {}, outs[-1][0]
    while wire != w + bit:
        gi, k = writer[wire]
        _kind, *ins = gates[gi]
        j = next(j for j, i in enumerate(ins) if i in reached)
        path[gi] = (j, k)
        wire = ins[j]
    return path


@pytest.mark.parametrize("w, bit", [(4, 0), (4, 3), (8, 0), (8, 7), (16, 0), (16, 15)])
def test_generator_garbling_copy_gates_reads_the_voters_bit(monkeypatch, w, bit):
    """The comparator is semi-honest. A generator that keeps the public
    wiring but garbles every gate on a path from the voter's input bit to
    the output so that the gate's output on the path copies that input
    learns the bit from the vote, and the bytes it ships are well formed:
    nothing the evaluator can check tells its rows from honest ones. On
    a subtractor gate the path runs through one of its two outputs, and
    the other output stays honest."""
    path = path_to_output(w, bit)
    assert any(len(outs) == 2 for gi, outs in enumerate(gate_outputs(w)) if gi in path)
    honest_gen_gate = garbled.gen_gate

    def copying_gen_gate(table, ins, outs, gi):
        # input j's bit at each entry is c >> (n - 1 - j) & 1, (0, 0, 1, 1)
        # for the first of two inputs; it replaces output k's bit, which
        # sits at 1 << (m - 1 - k) of each entry
        if gi in path:
            (j, k), n, m = path[gi], len(ins), len(outs)
            at = m - 1 - k
            table = tuple(entry & ~(1 << at) | (c >> (n - 1 - j) & 1) << at
                          for c, entry in enumerate(table))
        return honest_gen_gate(table, ins, outs, gi)

    monkeypatch.setattr(garbled, "gen_gate", copying_gen_gate)
    t = garble_comparator(w, 0.4, seed=bit)
    back = GarbledCircuit.deserialize(t.circuit.serialize())
    assert back == t.circuit
    rng = random.Random(w + bit)
    for _ in range(32):
        a, b = rng.getrandbits(w), rng.getrandbits(w)
        ga = select_input_labels(t.gen_keys, FixedPoint(a, w))
        gb = select_input_labels(t.eval_keys, FixedPoint(b, w))
        assert decode_output(back, eval_circuit(back, ga, gb)) == (b >> bit) & 1


def forged_template(theta, seed, w=16):
    """A template that is honest except for its output gate, which gen_gate
    garbles under the template's own keys with the constant-1 table: the
    circuit approves whatever it is fed."""
    last = len(garbled._skeleton(w)) - 1
    assert gate_outputs(w)[last] == (6 * w - 2,)  # the one-output select writes the output
    honest_gen_gate = garbled.gen_gate

    def forging_gen_gate(table, ins, out, gi):
        return honest_gen_gate((1,) * len(table) if gi == last else table, ins, out, gi)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(garbled, "gen_gate", forging_gen_gate)
        return garble_comparator(w, theta, seed)


def test_generator_forging_the_output_gate_approves_every_pair():
    """The candidate garbles the comparator its voters evaluate. Its
    forged output gate yields well-formed bytes that approve every pair."""
    rng = random.Random(16)
    for w, pairs in ((4, [(a, b) for a in range(16) for b in range(16)]),
                     (16, [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(200)])):
        t = forged_template(0.05, seed=w, w=w)
        back = GarbledCircuit.deserialize(t.circuit.serialize())
        assert back == t.circuit
        assert all(run_template(t, a, b) == 1 for a, b in pairs)
        honest = garble_comparator(w, 0.05, seed=w)
        assert sum(run_template(honest, a, b) for a, b in pairs) < len(pairs) / 4


def test_forged_output_gates_lead_the_tally(monkeypatch):
    """A 5-miner, 8-user round with dealer OT: miners 1-4 mine honestly on
    budgets of 28, 20, 15 and 10 of the 28 pairs; miner 5 fills all 56
    entries with random values. When miner 5 forges its output gate it
    leads the tally and its values become the round's best matrix; with
    honest circuits miner 1 leads."""
    import numpy as np

    from pous.round import vote
    from pous.similarity import SimilarityMatrix, compute_usm, unflatten_index

    n, theta = 8, 0.05
    users = np.random.default_rng(5)
    vecs = users.integers(0, 8, size=(n, 6))
    mats = {i: compute_usm(vecs, budget=b, owner=i) for i, b in enumerate((28, 20, 15, 10), 1)}
    mats[5] = SimilarityMatrix(owner=5, n_users=n)
    values = random.Random(5)
    for j in range(1, n * n + 1):
        if len(set(unflatten_index(j, n))) == 2:
            mats[5].set_entry(j, values.random())

    seeds = {c: c for c in mats}
    honest = vote(mats, theta, seeds)[1]

    def garble(w, theta, seed):  # miner 5 garbles from seed 5, the others honestly
        return forged_template(theta, seed, w) if seed == 5 else garble_comparator(w, theta, seed)

    monkeypatch.setattr(garbled, "garble_comparator", garble)
    forged = vote(mats, theta, seeds)[1]
    assert honest.leader == 1 and honest.totals[5] < honest.totals[1] / 2
    # every voter that holds an entry approves miner 5's copy: (56 + 40 + 30 + 20) / 4
    assert forged.leader == 5 and forged.totals[5] == 36.5 > 1.4 * forged.totals[1]
    # miner 5's random value is the best copy of every entry, save ties,
    # which go to the lowest id
    lost = {e: c for e, (c, _) in forged.global_best.items() if c != 5}
    assert len(lost) < len(forged.global_best) / 4
    assert all(forged.mean_approvals[(c, e)] == forged.mean_approvals[(5, e)]
               for e, c in lost.items())


# ---------------------------------------------------------------------------
# oblivious transfer


def one(ot, m0, m1, bit):
    """A batch of one transfer: the received label and the transcript."""
    (out,), transcript = ot.exchange([(m0, m1)], [bit])
    return out, transcript


def test_ot_returns_chosen_label():
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(1))
    m0, m1 = bytes(range(16)), bytes(range(16, 32))
    assert one(ot, m0, m1, 0)[0] == m0
    assert one(ot, m0, m1, 1)[0] == m1
    assert ot.exchange([(m0, m1)] * 8, [0, 1] * 4)[0] == [m0, m1] * 4


def minus_one_sender():
    """FAST_GROUP whose every power of g is p - 1, an element of order 2:
    as the sender's ``A`` it would reveal the low bit of every choice,
    since ``B_j`` is then a quadratic residue exactly when that bit is 0.
    Returns the group and the list of exponents it is asked for."""
    calls = []

    class MinusOne(garbled.OTGroup):
        def pow_g(self, e):
            calls.append(e)
            return self.p - 1

    return MinusOne(FAST_GROUP.p, FAST_GROUP.q, FAST_GROUP.g), calls


def test_ot_receiver_refuses_a_sender_element_outside_the_subgroup():
    grp, calls = minus_one_sender()
    with pytest.raises(SubgroupError, match="A is outside the order-q subgroup"):
        DiffieHellmanOT(grp, rng=random.Random(9)).exchange([(b"m" * 16, b"n" * 16)] * 16,
                                                            [0, 1] * 8)
    assert len(calls) == 1  # A alone: no B_j was computed
    assert issubclass(SubgroupError, RejectedInputError)


def test_ot_default_rng_is_cryptographic():
    ot = DiffieHellmanOT(FAST_GROUP)
    assert isinstance(ot._rng, secrets.SystemRandom)
    m0, m1 = bytes(range(16)), bytes(range(16, 32))
    assert one(ot, m0, m1, 1)[0] == m1


def test_ot_default_group_works():
    ot = DiffieHellmanOT(DEFAULT_GROUP, rng=random.Random(2))
    m0, m1 = b"a" * 16, b"b" * 16
    assert one(ot, m0, m1, 1)[0] == m1
    assert ot.exchange([(m0, m1)] * 8, [1, 0] * 4)[0] == [m1, m0] * 4


def test_ot_groups_are_safe_prime():
    for grp in (DEFAULT_GROUP, FAST_GROUP):
        assert grp.p == 2 * grp.q + 1
        assert pow(grp.g, grp.q, grp.p) == 1
        assert pow(grp.g, 2, grp.p) != 1


def test_ot_many_runs_never_leak_other_label():
    # batch lengths 1..16 cover odd batches, whose last bit travels alone
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(3))
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(1, 17)
        pairs = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(n)]
        bits = [rng.randrange(2) for _ in range(n)]
        out, _ = ot.exchange(pairs, bits)
        assert out == [pair[bit] for pair, bit in zip(pairs, bits)]
        assert all(label != pair[1 - bit] for label, pair, bit in zip(out, pairs, bits))


OT_BATCH_SIZES = (1, 2, 7, 8, 16)


def test_ot_transcript_bytes_match_analytic():
    # A, then one B_j and four two-label slots per bit pair, one B_j and two
    # labels for a lone last bit; the dealer's one byte per transfer
    cases = [(DiffieHellmanOT(grp, rng=random.Random(5)),
              lambda n, e=grp.element_bytes: e + n // 2 * (e + 128) + n % 2 * (e + 32))
             for grp in (DEFAULT_GROUP, FAST_GROUP)] + [(TrustedDealerOT(), lambda n: n)]
    for ot, analytic in cases:
        for n in OT_BATCH_SIZES:
            _, tr = ot.exchange([(b"x" * 16, b"y" * 16)] * n, [0] * n)
            assert tr.total_bytes() == ot.transfer_bytes(n) == analytic(n)


@pytest.mark.parametrize("bit", [0, 1])
def test_ot_transcript_layout(bit):
    for grp in (DEFAULT_GROUP, FAST_GROUP):
        for n in OT_BATCH_SIZES:
            _, tr = DiffieHellmanOT(grp, rng=random.Random(5)).exchange(
                [(b"x" * 16, b"y" * 16)] * n, [bit] * n)
            e = grp.element_bytes
            assert [(who, len(payload)) for who, payload in tr.messages] == [
                ("sender", e), ("receiver", (n + 1) // 2 * e),
                ("sender", n // 2 * 8 * LABEL_BYTES + n % 2 * 2 * LABEL_BYTES)]


@pytest.mark.parametrize("grp", [FAST_GROUP, DEFAULT_GROUP], ids=["fast", "default"])
def test_ot_second_key_needs_no_inverse(grp):
    # the sender's (B/A)^a, from B^a and a power of g it can compute because it knows a
    rng = random.Random(41)
    p = grp.p
    for _ in range(50):
        a = rng.randrange(1, grp.q)
        big_a = pow(grp.g, a, p)
        for b in (pow(grp.g, rng.randrange(1, grp.q), p), rng.randrange(1, p)):
            s0 = pow(b, a, p)
            assert s0 * grp.pow_g(-a * a) % p == pow(b * pow(big_a, -1, p), a, p)


class Scripted:
    """An rng that hands out the given exponents in order."""

    def __init__(self, *exponents):
        self._next = iter(exponents).__next__

    def randrange(self, *args):
        return self._next()


def sealed_slots(transcript, n):
    """The sender's last message cut into its slots: four two-label
    slots per bit pair, then two one-label slots for a lone last bit."""
    cts = transcript.messages[-1][1]
    sizes = [2 * LABEL_BYTES] * (4 * (n // 2)) + [LABEL_BYTES] * (2 * (n % 2))
    assert len(cts) == sum(sizes)
    ends = list(itertools.accumulate(sizes))
    return [cts[end - size:end] for size, end in zip(sizes, ends)]


def test_ot_identical_pairs_encrypt_differently_at_each_index():
    # one sender exponent serves the batch; with one receiver exponent
    # repeated, every bit pair's B_j is equal, so only the index in H
    # keeps the positions' keys apart
    m0, m1 = b"m" * 16, b"n" * 16
    for n in (4, 7, 8):
        ot = DiffieHellmanOT(FAST_GROUP, rng=Scripted(12345, *[678] * ((n + 1) // 2)))
        out, tr = ot.exchange([(m0, m1)] * n, [1] * n)
        assert out == [m1] * n
        bs, e = tr.messages[1][1], FAST_GROUP.element_bytes
        assert len(set(bs[o:o + e] for o in range(0, n // 2 * e, e))) == 1
        blocks = sealed_slots(tr, n)
        assert len(set(blocks)) == len(blocks) == 4 * (n // 2) + 2 * (n % 2)
        cts = tr.messages[-1][1]
        chunks = [cts[o:o + LABEL_BYTES] for o in range(0, len(cts), LABEL_BYTES)]
        assert len(set(chunks)) == len(chunks) == 8 * (n // 2) + 2 * (n % 2)


def test_ot_receiver_message_independent_of_bit():
    # every B_j of 200 batches of 16 transfers (8 bit pairs each), by its
    # top three bits: the four choices' counts agree with each other and
    # with a uniform element of [1, p)
    from scipy.stats import chi2_contingency, chisquare

    p, rows = FAST_GROUP.p, 8
    e = FAST_GROUP.element_bytes
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(6))
    bit_rng = random.Random(7)
    counts = [[0] * rows for _ in range(4)]
    for _ in range(200):
        bits = [bit_rng.randrange(2) for _ in range(16)]
        _, tr = ot.exchange([(b"m" * 16, b"n" * 16)] * 16, bits)
        msg = tr.messages[1][1]
        for j in range(8):
            counts[bits[2 * j] + 2 * bits[2 * j + 1]][msg[j * e] >> 5] += 1
    width = 1 << (8 * e - 3)
    share = [(min(p, (k + 1) * width) - k * width) / p for k in range(rows)]
    for row in counts:
        assert chisquare(row, [s * sum(row) for s in share]).pvalue > 0.01
    assert chi2_contingency(counts)[1] > 0.01


@pytest.mark.parametrize("grp", [FAST_GROUP, DEFAULT_GROUP], ids=["fast", "default"])
def test_pow_g_matches_builtin_pow(grp):
    digits = (grp.q.bit_length() + 7) // 8
    boundaries = [(1 << (8 * k)) + d for k in range(1, digits + 1) for d in (-1, 1)]
    rng = random.Random(31)
    exponents = ([0, 1, 15, 16, 255, 256, grp.q - 1, grp.q, grp.q + 1] + boundaries
                 + [rng.randrange(1, grp.q) for _ in range(200)])
    for e in exponents:
        assert grp.pow_g(e) == pow(grp.g, e, grp.p), e
    table = vars(grp)["_g_table"]
    assert len(table) == digits
    assert all(len(row) == 255 for row in table)
    # the receiver's radix-4 table of A, from the same _power_table, read by
    # radix-4 digit; its row 0 is A, A^2 and A^3, the powers a choice needs
    base = grp.pow_g(rng.randrange(1, grp.q))
    rows = -(-grp.q.bit_length() // 2)
    table4 = garbled._power_table(base, grp.p, rows, 4)
    assert len(table4) == rows and all(len(row) == 3 for row in table4)
    assert table4[0] == tuple(pow(base, c, grp.p) for c in (1, 2, 3))
    for e in (e for e in exponents if e < 4 ** rows):
        quads = garbled._quad_digits(e)
        assert sum(d << 2 * i for i, d in enumerate(quads)) == e and max(quads, default=0) < 4
        assert garbled._table_pow(table4, quads, grp.p) == pow(base, e, grp.p), e


def ot_pad(grp, key, index, slot, size):
    """H(key, index, slot): SHA-256 of the key's bytes, the 4-byte index
    and the slot byte, cut to ``size`` bytes."""
    return hashlib.sha256(key.to_bytes(grp.element_bytes, "big") + index.to_bytes(4, "big")
                          + bytes([slot])).digest()[:size]


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def reference_exchange(grp, rng, pairs, bits):
    """The shared-randomness batch re-derived slowly, bit pairs first and
    then a lone last bit: builtin pow for every power, a Fermat inverse of
    A^s for slot s's key, the same rng draws in the same order (a, then
    one x per transfer). Returns the wire messages."""
    p, g, e = grp.p, grp.g, grp.element_bytes
    a = rng.randrange(1, grp.q)
    big_a = pow(g, a, p)
    # a transfer: its labels' pairs, its choice and its slots' plaintexts
    transfers = []
    for i in range(0, len(bits) - 1, 2):
        (m0, m1), (n0, n1) = pairs[i], pairs[i + 1]
        slots = [m0 + n0, m1 + n0, m0 + n1, m1 + n1]
        transfers.append((bits[i] + 2 * bits[i + 1], slots))
    if len(bits) % 2:
        transfers.append((bits[-1], list(pairs[-1])))
    xs = [rng.randrange(1, grp.q) for _ in transfers]
    bs = [pow(g, x, p) * pow(big_a, c, p) % p for x, (c, _) in zip(xs, transfers)]
    cts = b""
    for j, ((c, slots), b, x) in enumerate(zip(transfers, bs, xs)):
        keys = [pow(b * pow(pow(big_a, s, p), p - 2, p) % p, a, p) for s in range(len(slots))]
        assert pow(big_a, x, p) == keys[c]
        cts += b"".join(xor(m, ot_pad(grp, k, j, s, len(m)))
                        for s, (m, k) in enumerate(zip(slots, keys)))
    return [("sender", big_a.to_bytes(e, "big")),
            ("receiver", b"".join(b.to_bytes(e, "big") for b in bs)), ("sender", cts)]


def test_ot_transcripts_are_pinned():
    """Every message of seeded batches, of 1, 2, 7, 8 and 16 transfers
    ten times over on FAST_GROUP then twice over on DEFAULT_GROUP, equals
    the reference batch's; the digest is sha256 over who + payload of
    all of them."""
    h = hashlib.sha256()
    for grp, rounds in ((FAST_GROUP, 10), (DEFAULT_GROUP, 2)):
        ot = DiffieHellmanOT(grp, rng=random.Random(11))
        reference_rng = random.Random(11)
        payloads = random.Random(12)
        for n in OT_BATCH_SIZES * rounds:
            pairs = [(payloads.randbytes(16), payloads.randbytes(16)) for _ in range(n)]
            bits = [payloads.randrange(2) for _ in range(n)]
            out, transcript = ot.exchange(pairs, bits)
            assert out == [pair[bit] for pair, bit in zip(pairs, bits)]
            assert transcript.messages == reference_exchange(grp, reference_rng, pairs, bits)
            for who, payload in transcript.messages:
                h.update(who.encode() + payload)
    assert h.hexdigest() == "8635e8d800416ad9e12f102d0671effb10b77784c8d54b8bf9be248d0af27bf7"


@pytest.mark.parametrize("n", [2, 7, 16])
def test_ot_receiver_key_opens_only_the_chosen_slot(n):
    # the receiver's key A^x_j decrypts its chosen slot to its two labels
    # (or its lone label); under that key every other slot decrypts to
    # bytes that hold no label of the batch
    grp, p = FAST_GROUP, FAST_GROUP.p
    payloads = random.Random(n)
    for _ in range(10):
        # a, then one x per transfer
        draws = [payloads.randrange(1, grp.q) for _ in range(1 + (n + 1) // 2)]
        pairs = [(payloads.randbytes(16), payloads.randbytes(16)) for _ in range(n)]
        bits = [payloads.randrange(2) for _ in range(n)]
        out, tr = DiffieHellmanOT(grp, rng=Scripted(*draws)).exchange(pairs, bits)
        assert out == [pair[bit] for pair, bit in zip(pairs, bits)]
        big_a = int.from_bytes(tr.messages[0][1], "big")
        labels = {m for pair in pairs for m in pair}
        slots = sealed_slots(tr, n)
        for j, x in enumerate(draws[1:]):
            key = pow(big_a, x, p)
            chosen = bits[2 * j:2 * j + 2]  # one bit for a lone last bit
            choice = sum(bit << k for k, bit in enumerate(chosen))
            for s, sealed in enumerate(slots[4 * j:4 * j + 4]):  # or its two slots
                plain = xor(sealed, ot_pad(grp, key, j, s, len(sealed)))
                halves = {plain[o:o + LABEL_BYTES] for o in range(0, len(plain), LABEL_BYTES)}
                if s == choice:
                    assert plain == b"".join(pairs[2 * j + k][bit] for k, bit in enumerate(chosen))
                else:
                    assert not halves & labels, (j, s)


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
garbled.DiffieHellmanOT(garbled.FAST_GROUP).exchange([(bytes(16), bytes(16))], [0])
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
    out, tr = ot.exchange([(b"p" * 16, b"q" * 16), (b"r" * 16, b"s" * 16)], [1, 0])
    assert out == [b"q" * 16, b"r" * 16]
    assert ot.transfer_bytes(2) == tr.total_bytes() == 2
    assert [who for who, _ in tr.messages] == ["dealer"]  # and no receiver message
    with pytest.raises(RejectedInputError, match="choice bit"):
        ot.exchange([(b"p" * 16, b"q" * 16)], [2])


def test_ot_rejects_bad_bit_and_payload():
    label = b"x" * 16
    cases = [
        ([(label, label)], [2], "choice bit 2 at transfer 0"),
        ([(label, label), (label, label)], [0, -1], "choice bit -1 at transfer 1"),
        ([(b"short", label)], [0], "at transfer 0 must be two wire labels"),
        ([(label, label + b"y")], [1], "at transfer 0 must be two wire labels"),
        ([(label, label, label)], [1], "at transfer 0 must be two wire labels"),
        ([(label, label)] * 2, [0], "2 label pairs but 1 choice bits"),
        ([(label, label)], [0, 1], "1 label pairs but 2 choice bits"),
        ([], [], "at least one transfer"),
    ]
    # an rng with no exponent to hand out: a draw before the refusal fails
    for ot in (DiffieHellmanOT(FAST_GROUP, rng=Scripted()), TrustedDealerOT()):
        for pairs, bits, message in cases:
            with pytest.raises(RejectedInputError, match=message):
                ot.exchange(pairs, bits)


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
    garb = GarbledCompareBackend(0.4, bitwidth=8, seed=17)
    rng = random.Random(17)
    for _ in range(300):
        a, b = rng.random(), rng.random()
        plain = plain_within_theta(*(FixedPoint.encode(v, 8).raw for v in (a, b, 0.4)))
        assert plain == garb.compare(a, b)


def test_backend_bytes_are_the_circuit_plus_measured_transcripts():
    # the model's circuit and per-comparison bytes are what crosses
    w = 8
    ot = RecordingOT(FAST_GROUP, rng=random.Random(21))
    template = garble_comparator(w, 0.4, 21)
    assert len(template.circuit.serialize()) == comparator_size(w)[1]
    rng = random.Random(21)
    for _ in range(5):
        _, transcript = garbled._compare(template, rng.random(), rng.random(), ot)
        measured = w * LABEL_BYTES + transcript.total_bytes()
        assert measured == garbled.comparison_bytes(w, ot)
    assert len(ot.transcripts) == 5  # one batch per comparison
