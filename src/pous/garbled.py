"""Garbled-circuit two-party comparison of similarity entries.

Voting on someone else's similarity matrix must not reveal either side's
values. The candidate (generator) garbles a fixed comparator circuit
that answers one question: is ``|a - b| <= theta``? Values are encoded
as unsigned fixed-point integers; the public threshold is folded into
the truth tables of the gates that compare against it. When both sides
follow the protocol, the voter (evaluator) learns one bit and nothing
else and the generator learns nothing.

Construction notes:

* Every wire carries two random 128-bit labels (one per truth value).
  The low bit of a label is its permute bit, and a wire's two labels
  always carry opposite permute bits (point-and-permute: Beaver, Micali
  and Rogaway, STOC 1990). The bit of the false label is uniform and
  known only to the generator, so the bit the evaluator sees on a wire
  says nothing about the wire's value.
* A gate has two or three inputs, one or two outputs, and one row per
  input combination: four or eight. A row is the output labels plus a
  32-bit all-zero tag, 20 or 36 bytes, encrypted under all of the
  matching input labels, and it sits at the slot the input labels'
  permute bits name, read as a binary number with the first input's bit
  most significant. The evaluator reads that slot off its active labels
  and decrypts one row per gate. The tag stays as a tamper check: a row
  that fails it raises CorruptedCircuitError, and a forged row passes it
  with probability 2**-32.
* "Encryption" is one BLAKE2b (Aumasson, Neves, Wilcox-O'Hearn and
  Winnerlein, ACNS 2013; RFC 7693) and one integer XOR per row: the pad
  is the first row-width bytes of the 64-byte digest of the input labels
  plus a per-gate, per-row tweak, taken as an integer. Three labels and
  the 5-byte tweak are 53 bytes, well inside one 128-byte BLAKE2b block,
  so a row costs one compression at either fan-in and either output
  count. The tweak keeps pads unique even though wire labels feed many
  gates; each gate's eight tweaks are packed once, and the evaluator
  reads them with the gate's input wires and output count from one
  cached plan per width (``_plan``).
* The comparator's wiring depends only on its width and is public, as
  a circuit's topology is in Yao's protocol (Lindell and Pinkas, J.
  Cryptology 2009). ``_skeleton`` lists its gates once per width, and
  its docstring states the fixed wire layout they read and write; a
  :class:`GarbledCircuit` and its serialized bytes carry only each
  gate's rows and the output decode map. The threshold picks only the
  truth tables of the gates that compare against it, at garbling time.
* The comparator is secure against a semi-honest generator only. The
  evaluator cannot see which table a garbled gate computes, so a
  generator that garbles copy gates along the public wiring from an
  evaluator input bit to the output reads that bit off the vote, one
  that garbles the output gate as the constant 1 approves every pair,
  and no check on the bytes can tell. Stopping them takes a construction
  secure against a malicious generator, such as cut-and-choose (Lindell
  and Pinkas, EUROCRYPT 2007).
* The evaluator's input labels travel through oblivious transfer, one
  batch per comparison that hands over one label of each input wire's
  pair: either a Diffie-Hellman transfer over a safe-prime group, or a
  trusted dealer stand-in with the same interface. The dealer is the
  default OT of :func:`secure_compare` and :class:`GarbledCompareBackend`,
  so their default path runs no real transfer (ROADMAP.md plans to make
  the DH transfer that default); the simulator runs no transfer and
  charges the DH transfer's bytes. The DH transfer is Chou and Orlandi's
  "simplest OT" (LATINCRYPT 2015) with one sender element per batch,
  run as 1-of-4 on each pair of evaluator bits, so a width-16 comparison
  makes 8 transfers. A batch costs two fixed-base powers of g, one
  element on the wire and a short-lived fixed-base table of that
  element. Each transfer costs a power of g, one variable-base
  exponentiation and three products, the receiver's key off that table,
  one element and four two-label slots on the wire, and no inverse; the
  last bit of an odd batch goes alone, one element and two labels. Like
  the comparator it is secure against a semi-honest party only, and none
  of it is constant-time. Neither group is at a modern security level:
  ``DEFAULT_GROUP`` is RFC 2409's 768-bit group, within reach of number
  field sieve precomputation (Adrian et al., CCS 2015), and the 256-bit
  ``FAST_GROUP`` serves test batteries and benchmarks only.
* :func:`secure_compare` garbles a fresh circuit for its one
  comparison. :class:`GarbledCompareBackend` reuses one template across
  many comparisons, as the simulator's per-epoch cost model assumes, and
  :func:`pous.round.vote` reuses each candidate's template across the
  round's voters and user pairs (a matrix holds each pair once, so a
  voter compares each pair once and both of its slots carry the verdict);
  an evaluator that sees a reused circuit under several inputs learns
  more than one bit (Lindell and Pinkas, J. Cryptology 2009).

The comparator's gates, 3w - 1 at width w with 16w - 4 rows and
448w - 105 serialized bytes, come from blocks in the style of
Kolesnikov, Sadeghi and Schneider (CANS 2009), built from gates of two
and three inputs and one and two outputs, since Yao's garbled tables
take any fan-in and a row may carry any number of output labels: a
borrow subtractor d = a - b mod 2**w (w gates: a half subtractor at
bit 0, then one three-input, two-output gate per bit that writes
d_i = a_i ^ b_i ^ c and the borrow out MAJ(~a_i, b_i, c)) whose last
borrow s is set iff a < b; two ripples of one gate per bit against
public constants, d <= theta and d <= ~theta (w - 1 gates each, bit 0
folded into bit 1's gate); and one three-input select,
s ? ~(d <= ~theta) : d <= theta. |a - b| is d when a >= b, and 2**w - d
when a < b, which is within theta iff d > ~theta.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import secrets
import struct
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigurationError, CorruptedCircuitError, RejectedInputError, SubgroupError

LABEL_BYTES = 16
TAG = b"\x00\x00\x00\x00"
# a row is (labels << _TAG_BITS) ^ pad, so an intact row decrypts to zero under _TAG_MASK
_TAG_BITS = 8 * len(TAG)
_TAG_MASK = (1 << _TAG_BITS) - 1
_DIGEST_BYTES = 64  # a BLAKE2b digest, cut to each row's width

# truth tables indexed by the input bits as a binary number, first input
# most significant: 2*a + b, or 4*a + 2*b + c; an entry holds the output
# bits the same way, first output most significant
_TABLES = {
    # (a XOR b, a < b): bit 0's difference and borrow out
    "HSUB": (0, 3, 2, 0),
    # (a XOR b XOR c, MAJ(NOT a, b, c)): bit i's difference and borrow
    # out, the borrow set iff a < b + c
    "SUB": (0, 3, 3, 1, 2, 0, 0, 3),
    "SELECT": (0, 0, 1, 1, 1, 0, 1, 0),  # a ? NOT c : b
}
_OUTPUTS = {"HSUB": 2, "SUB": 2}  # every other gate has one output


def _row_bytes(outputs: int) -> int:
    """A row's width: its gate's output labels, then the tag."""
    return outputs * LABEL_BYTES + len(TAG)


def label_bytes(seed: int, n: int) -> bytes:
    """The first ``n`` bytes of BLAKE2b in counter mode under ``seed``,
    64 bytes per call.

    Wire labels are read from here, so one integer seed reproduces a
    garbled circuit byte for byte. The seed enters as 16 signed bytes.
    """
    if not isinstance(seed, int) or not -2**127 <= seed < 2**127:
        raise ConfigurationError(f"seed {seed!r} is not an integer in -2**127 .. 2**127 - 1")
    state = hashlib.blake2b(b"pous-gc" + seed.to_bytes(16, "big", signed=True)).digest()
    return b"".join(hashlib.blake2b(state + c.to_bytes(8, "big")).digest()
                    for c in range(-(-n // _DIGEST_BYTES)))[:n]


# ---------------------------------------------------------------------------
# fixed point encoding

BITWIDTHS = range(4, 33)  # the comparator's input widths; every width check tests this
DEFAULT_BITWIDTH = 16  # the width of every comparison not given its own, the simulator's too


@dataclass(frozen=True)
class FixedPoint:
    """Unsigned fixed-point scalar: value = raw / (2**bitwidth - 1)."""

    raw: int
    bitwidth: int

    def __post_init__(self):
        if self.bitwidth not in BITWIDTHS:
            raise RejectedInputError(f"bitwidth {self.bitwidth} outside 4..32")
        if not 0 <= self.raw < (1 << self.bitwidth):
            raise RejectedInputError(f"raw {self.raw} overflows {self.bitwidth} bits")

    @classmethod
    def encode(cls, value: float, bitwidth: int) -> "FixedPoint":
        if not 0.0 <= value <= 1.0:
            raise RejectedInputError(f"value {value} outside [0, 1]")
        if bitwidth not in BITWIDTHS:
            raise RejectedInputError(f"bitwidth {bitwidth} outside 4..32")
        return cls(raw=round(value * ((1 << bitwidth) - 1)), bitwidth=bitwidth)

    def bits_lsb(self) -> tuple[int, ...]:
        return tuple((self.raw >> i) & 1 for i in range(self.bitwidth))


def plain_within_theta(a_raw: int, b_raw: int, theta_raw: int) -> int:
    """Cleartext comparator semantics on fixed-point raws: the reference
    that the garbled comparator and the simulator's voting are tested against."""
    return 1 if abs(a_raw - b_raw) <= theta_raw else 0


# ---------------------------------------------------------------------------
# circuit skeleton and garbling


_MAGIC = b"PGC5"
_HEAD = len(_MAGIC) + 1  # the magic, then the width byte
_MAP_ENTRY = LABEL_BYTES + 1  # a decode-map entry: the label, then its bit


@dataclass
class GarbledCircuit:
    """Everything the evaluator receives besides the public wiring: the
    rows of each gate of ``_skeleton(bitwidth)``, in its order (four for a
    two-input gate, eight for a three-input one, each as wide as
    ``_row_bytes`` of the gate's output count), and the output decode map.

    Both sides know the width's gate list and wire layout. Holds only
    labels and ciphertexts; no similarity value ever appears here.
    """

    bitwidth: int
    gates: tuple[tuple[bytes, ...], ...]  # 2**fan-in rows per gate
    output_map: dict[bytes, int]

    def serialize(self) -> bytes:
        """The magic, the width byte, every gate's rows in wiring order,
        and the two decode-map entries in label order."""
        omap = sorted(self.output_map.items())
        return b"".join([_MAGIC, bytes([self.bitwidth]),
                         *(row for rows in self.gates for row in rows),
                         *(label + bytes([bit]) for label, bit in omap)])

    @classmethod
    def deserialize(cls, raw: bytes) -> "GarbledCircuit":
        """Inverse of :meth:`serialize`. A magic other than ``PGC5``, a
        width outside ``BITWIDTHS``, a length other than that width's
        comparator, and a decode map that is not two distinct labels
        decoding to 0 and 1 in label order raise CorruptedCircuitError."""
        if raw[:4] != _MAGIC:
            raise CorruptedCircuitError("bad circuit magic")
        bitwidth = raw[4] if len(raw) > 4 else None
        if bitwidth not in BITWIDTHS:
            raise CorruptedCircuitError(f"circuit width {bitwidth} outside 4..32")
        size = comparator_size(bitwidth)[1]
        if len(raw) != size:
            raise CorruptedCircuitError(
                f"circuit is {len(raw)} bytes, a width-{bitwidth} comparator is {size}")
        gates, at = [], _HEAD  # each gate's rows by its fan-in and output count
        for kind, *ins in _skeleton(bitwidth):
            width = _row_bytes(_OUTPUTS.get(kind, 1))
            end = at + (width << len(ins))
            gates.append(tuple(raw[r:r + width] for r in range(at, end, width)))
            at = end
        omap = {raw[o:o + LABEL_BYTES]: raw[o + LABEL_BYTES] for o in (at, at + _MAP_ENTRY)}
        if len(omap) != 2:
            raise CorruptedCircuitError("output map needs two distinct labels")
        if sorted(omap.values()) != [0, 1]:
            raise CorruptedCircuitError(
                f"output map decodes to {sorted(omap.values())}, not 0 and 1")
        if list(omap) != sorted(omap):  # serialize() writes the map in label order
            raise CorruptedCircuitError("output map is not in label order")
        return cls(bitwidth, tuple(gates), omap)


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@functools.cache  # gate indices stop at the widest comparator's 95 gates
def _tweaks(gate_index: int) -> tuple[bytes, ...]:
    """Gate ``gate_index``'s row tweaks, one per slot of a three-input
    gate; a two-input gate uses the first four. A row's pad is the first
    row-width bytes of the 64-byte BLAKE2b of its input labels and its
    tweak, as an integer: the digest shifted right by 8 * (64 - width)
    bits."""
    return tuple(struct.pack("<IB", gate_index, slot) for slot in range(8))


def _permute_bit(label: bytes) -> int:
    """The label's low bit, which names its row slot in every gate it feeds."""
    return label[-1] & 1


def gen_gate(
    table: Sequence[int],
    in_keys: tuple[tuple[bytes, bytes], ...],
    out_keys: tuple[tuple[bytes, bytes], ...],
    gate_index: int,
) -> tuple[bytes, ...]:
    """Garble one gate of two or three inputs and one key pair per output
    in ``out_keys``, into its 2**fan-in rows. The truth table is indexed
    by the input bits as a binary number (2*a + b, or 4*a + 2*b + c), and
    each entry holds the output bits the same way, first output most
    significant.

    Each input combination encrypts the matching output labels, in output
    order with the tag appended, under all of its input labels, into the
    slot their permute bits name. Every input key pair must carry
    opposite permute bits.
    """
    flips = 0  # the false labels' permute bits, first input most significant
    for k0, k1 in in_keys:
        bit = _permute_bit(k0)
        if bit == _permute_bit(k1):
            raise RejectedInputError(f"gate {gate_index}: a key pair shares its permute bit")
        flips = 2 * flips + bit
    # labels + TAG per table entry; product() walks entries in bit order too
    plains = [int.from_bytes(b"".join(labels), "big") << _TAG_BITS
              for labels in itertools.product(*out_keys)]
    width = _row_bytes(len(out_keys))
    shift = 8 * (_DIGEST_BYTES - width)
    tweaks, blake2b, from_bytes = _tweaks(gate_index), hashlib.blake2b, int.from_bytes
    rows: list[bytes] = [b""] * len(table)
    # product() walks the input combinations in table order
    for combo, labels in enumerate(itertools.product(*in_keys)):
        slot = combo ^ flips  # a label's permute bit is its bit ^ the false label's
        pad = from_bytes(blake2b(b"".join(labels) + tweaks[slot]).digest(), "big") >> shift
        rows[slot] = (plains[table[combo]] ^ pad).to_bytes(width, "big")
    return tuple(rows)


def _ripple_table(c: int, i: int) -> tuple[int, int, int, int]:
    """Bit i's table in the ripple ``d <= c`` against the public c, indexed
    2*d_i + p. p is the verdict v on the bits below, save at bit 1, whose
    gate reads d_0 and folds in v = (d_0 <= c_0). d_i = 0 holds if c_i or
    v, d_i = 1 needs both."""
    ci = c >> i & 1
    below = (1, c & 1) if i == 1 else (0, 1)  # the verdict on the bits below, by p
    return tuple(ci & v if di else ci | v for di in (0, 1) for v in below)


@functools.cache
def _skeleton(bitwidth: int) -> tuple[tuple, ...]:
    """The comparator's public wiring, which only its width w decides:
    its gates, each as (kind, in1, in2) or (kind, in1, in2, in3). A kind
    is a ``_TABLES`` name, or (constant, bit) for a two-input ripple gate
    whose table the threshold picks. ``_OUTPUTS`` names the two-output
    kinds; every other gate has one output.

    The wire layout is fixed. The generator's inputs are wires
    0 .. w - 1 and the evaluator's are wires w .. 2w - 1, least
    significant bit first. Gates write the wires from 2w on in gate
    order, a gate with k outputs k consecutive wires in output order: the
    subtractor's bit i writes d_i to wire 2w + 2i and its borrow out to
    2w + 2i + 1, the ripple gates write one wire each from 4w on, and
    the select writes the output, the last wire, 6w - 2. Every gate reads
    only wires set before it."""
    if bitwidth not in BITWIDTHS:
        raise ConfigurationError(f"unsupported bitwidth {bitwidth}, need 4..32")
    gates, free = [], 2 * bitwidth  # free: the next wire a gate writes

    def gate(kind: str | tuple[str, int], *ins: int) -> int:
        """Append a gate; returns its first output wire."""
        nonlocal free
        gates.append((kind, *ins))
        first, free = free, free + _OUTPUTS.get(kind, 1)
        return first

    # borrow subtractor d = a - b mod 2**w: a half subtractor at bit 0,
    # then a full one per bit, each one gate that writes d_i, then its
    # borrow out; the last borrow out is set iff a < b
    diff = [gate("HSUB", 0, bitwidth)]
    borrow = diff[0] + 1
    for a, b in zip(range(1, bitwidth), range(bitwidth + 1, 2 * bitwidth)):
        diff.append(gate("SUB", a, b, borrow))
        borrow = diff[-1] + 1
    # ripples d <= theta and d <= ~theta, one gate per bit from bit 1 up;
    # each gate's table is _ripple_table's
    ripples = []
    for const in ("theta", "~theta"):
        le = diff[0]
        for i in range(1, bitwidth):
            le = gate((const, i), diff[i], le)
        ripples.append(le)
    # le_theta if a >= b, else NOT le_not_theta
    gate("SELECT", borrow, *ripples)
    return tuple(gates)


@functools.lru_cache(maxsize=64)
def _tables(bitwidth: int, theta_raw: int) -> tuple[tuple[int, ...], ...]:
    """The truth table of each gate of ``_skeleton(bitwidth)`` under the
    threshold ``theta_raw``, which picks only the ripple gates' tables."""
    consts = {"theta": theta_raw, "~theta": theta_raw ^ ((1 << bitwidth) - 1)}
    return tuple(_TABLES[kind] if isinstance(kind, str) else _ripple_table(consts[kind[0]], kind[1])
                 for kind, *_ in _skeleton(bitwidth))


@functools.cache
def _plan(bitwidth: int) -> tuple[tuple[int, int, int | None, int, int, tuple[bytes, ...]], ...]:
    """What the evaluator reads per gate of ``_skeleton(bitwidth)``: its
    input wires, the third None on a two-input gate, its output count,
    the right shift that cuts a digest to its row width, and its row
    tweaks."""
    plan = []
    for gi, (kind, in1, in2, *in3) in enumerate(_skeleton(bitwidth)):
        outs = _OUTPUTS.get(kind, 1)
        plan.append((in1, in2, in3[0] if in3 else None, outs,
                     8 * (_DIGEST_BYTES - _row_bytes(outs)), _tweaks(gi)))
    return tuple(plan)


@dataclass
class ComparatorTemplate:
    """A garbled comparator plus the generator's private key tables.

    The circuit part ships to the evaluator; the key tables stay with
    the generator (evaluator keys leave only through oblivious
    transfer). One template may serve many comparisons within an epoch.
    """

    circuit: GarbledCircuit
    gen_keys: tuple[tuple[bytes, bytes], ...]
    eval_keys: tuple[tuple[bytes, bytes], ...]
    theta: FixedPoint


def garble_comparator(bitwidth: int, theta: float, seed: int) -> ComparatorTemplate:
    """Build and garble the |a - b| <= theta comparator.

    The threshold is public and picks the tables of the ripple gates;
    the wiring is the width's alone. Same seed, same bytes.
    """
    gates, plan = _skeleton(bitwidth), _plan(bitwidth)
    theta_fp = FixedPoint.encode(theta, bitwidth)
    # each wire's false label, then its true label, off one stream
    wires = 2 * bitwidth + sum(outs for _, _, _, outs, _, _ in plan)
    raw = bytearray(label_bytes(seed, 2 * LABEL_BYTES * wires))
    # the true label's permute bit is the complement of the false label's
    last = 2 * LABEL_BYTES - 1
    raw[last::2 * LABEL_BYTES] = bytes((b1 & 0xFE) | (~b0 & 1) for b0, b1 in zip(
        raw[LABEL_BYTES - 1::2 * LABEL_BYTES], raw[last::2 * LABEL_BYTES]))
    raw = bytes(raw)
    labels = [raw[off:off + LABEL_BYTES] for off in range(0, len(raw), LABEL_BYTES)]
    keys = list(zip(labels[::2], labels[1::2]))
    rows, out = [], 2 * bitwidth  # out: the gate's first output wire
    for gi, (table, (_, *ins), (*_, outs, _, _)) in enumerate(
            zip(_tables(bitwidth, theta_fp.raw), gates, plan)):
        rows.append(gen_gate(table, tuple([keys[i] for i in ins]), tuple(keys[out:out + outs]), gi))
        out += outs
    circuit = GarbledCircuit(
        bitwidth=bitwidth, gates=tuple(rows), output_map={keys[-1][0]: 0, keys[-1][1]: 1})
    return ComparatorTemplate(
        circuit=circuit,
        gen_keys=tuple(keys[:bitwidth]),
        eval_keys=tuple(keys[bitwidth:2 * bitwidth]),
        theta=theta_fp,
    )


def comparator_size(bitwidth: int) -> tuple[int, int]:
    """Gate count and serialized bytes of the width-``bitwidth`` comparator:
    the magic and width byte, 2**fan-in rows per gate as wide as its
    output count makes them, and two map entries."""
    gates = _skeleton(bitwidth)
    rows = sum(_row_bytes(_OUTPUTS.get(kind, 1)) << len(ins) for kind, *ins in gates)
    return len(gates), _HEAD + rows + 2 * _MAP_ENTRY


def select_input_labels(keys: tuple[tuple[bytes, bytes], ...], value: FixedPoint) -> list[bytes]:
    """Pick the label per input wire matching the value's bits."""
    bits = value.bits_lsb()
    if len(bits) != len(keys):
        raise RejectedInputError("value width does not match circuit inputs")
    return [keys[i][bit] for i, bit in enumerate(bits)]


def eval_circuit(
    circuit: GarbledCircuit,
    gen_labels: list[bytes],
    eval_labels: list[bytes],
) -> bytes:
    """Run the garbled circuit on active labels; returns the output label.

    The wiring comes from ``_skeleton(circuit.bitwidth)``: the labels
    list holds the input wires, generator then evaluator, and every gate
    appends its output wires' labels. For every gate the evaluator
    decrypts the one row its active labels' permute bits select. A width
    outside ``BITWIDTHS``, a gate count other than that width's
    comparator, an empty input label, a gate that lacks the row its
    labels select, and a tag that does not decrypt to zero (the circuit
    or a label was tampered with) raise CorruptedCircuitError.
    """
    w = circuit.bitwidth
    if w not in BITWIDTHS:
        raise CorruptedCircuitError(f"circuit width {w} outside 4..32")
    plan = _plan(w)
    if len(circuit.gates) != len(plan):
        raise CorruptedCircuitError(
            f"circuit has {len(circuit.gates)} gates, a width-{w} comparator has {len(plan)}")
    if len(gen_labels) != w:
        raise RejectedInputError("wrong generator label count")
    if len(eval_labels) != w:
        raise RejectedInputError("wrong evaluator label count")
    labels = [*gen_labels, *eval_labels]
    blake2b, from_bytes = hashlib.blake2b, int.from_bytes
    for gi, ((in1, in2, in3, outs, shift, tweaks), rows) in enumerate(zip(plan, circuit.gates)):
        ka, kb = labels[in1], labels[in2]
        try:  # free on the happy path, unlike a length check per gate
            if in3 is None:
                slot = 2 * (ka[-1] & 1) + (kb[-1] & 1)  # _permute_bit, inlined
                keys = ka + kb
            else:
                kc = labels[in3]
                slot = 4 * (ka[-1] & 1) + 2 * (kb[-1] & 1) + (kc[-1] & 1)
                keys = ka + kb + kc
            row = rows[slot]
        except IndexError:
            raise CorruptedCircuitError(
                f"gate {gi} has an empty input label or lacks the row they select") from None
        plain = from_bytes(row, "big") ^ (
            from_bytes(blake2b(keys + tweaks[slot]).digest(), "big") >> shift)
        if plain & _TAG_MASK:
            raise CorruptedCircuitError(f"row {slot} of gate {gi} fails its tag check")
        if outs == 1:
            labels.append((plain >> _TAG_BITS).to_bytes(LABEL_BYTES, "big"))
        else:  # the subtractor's two outputs
            pair = (plain >> _TAG_BITS).to_bytes(2 * LABEL_BYTES, "big")
            labels += (pair[:LABEL_BYTES], pair[LABEL_BYTES:])
    return labels[-1]


def decode_output(circuit: GarbledCircuit, label: bytes) -> int:
    """Map the output label to its cleartext bit via the published map."""
    try:
        return circuit.output_map[label]
    except KeyError:
        raise CorruptedCircuitError("output label not in decode map") from None


# ---------------------------------------------------------------------------
# oblivious transfer


def _power_table(base: int, p: int, rows: int, radix: int) -> tuple[tuple[int, ...], ...]:
    """Fixed-base table mod ``p``: row i holds base**(d * radix**i) for
    d = 1 .. radix - 1, so a power of ``base`` with ``rows`` radix digits
    costs one modular product per nonzero digit (Brickell, Gordon,
    McCurley and Wilson, EUROCRYPT 1992; Lim and Lee, CRYPTO 1994)."""
    table = []
    for _ in range(rows):
        row = [base]
        for _ in range(radix - 2):
            row.append(row[-1] * base % p)
        table.append(tuple(row))
        base = row[-1] * base % p  # this row's base to the radix: the next row's
    return tuple(table)


def _table_pow(table: tuple[tuple[int, ...], ...], digits: bytes, p: int) -> int:
    """The power whose radix digits, least significant first, are ``digits``."""
    acc = 1
    for row, digit in zip(table, digits):
        if digit:
            acc = acc * row[digit - 1] % p
    return acc


# a hex character to the low and to the high radix-4 digit of its value
_LOW_QUADS = bytes.maketrans(b"0123456789abcdef", bytes(d & 3 for d in range(16)))
_HIGH_QUADS = bytes.maketrans(b"0123456789abcdef", bytes(d >> 2 for d in range(16)))


def _quad_digits(e: int) -> bytes:
    """The radix-4 digits of ``e``, least significant first, read two
    per hex digit of ``format(e, "x")``."""
    hex_lsb = format(e, "x")[::-1].encode()
    digits = bytearray(2 * len(hex_lsb))
    digits[0::2] = hex_lsb.translate(_LOW_QUADS)
    digits[1::2] = hex_lsb.translate(_HIGH_QUADS)
    return bytes(digits)


@dataclass(frozen=True)
class OTGroup:
    """Prime-order subgroup of Z_p* (p safe prime, g generates order q).

    :meth:`pow_g` reads powers of the fixed generator off a radix-256
    :func:`_power_table`, one row per byte of q. The table is built on
    the first call and kept for the group's lifetime.
    """

    p: int
    q: int
    g: int

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode(self, x: int) -> bytes:
        return x.to_bytes(self.element_bytes, "big")

    @functools.cached_property
    def _g_table(self) -> tuple[tuple[int, ...], ...]:
        return _power_table(self.g, self.p, (self.q.bit_length() + 7) // 8, 256)

    def pow_g(self, e: int) -> int:
        """``pow(g, e, p)``: one modular product per nonzero byte of
        ``e mod q``, which names the same power because g has order q."""
        table = self._g_table
        return _table_pow(table, (e % self.q).to_bytes(len(table), "little"), self.p)


# 768-bit MODP safe-prime group (RFC 2409 section 6.1); g=2 generates
# the prime-order-q quadratic-residue subgroup since p = 7 mod 8. Its
# discrete logarithms are within reach of number field sieve
# precomputation (Adrian et al., CCS 2015), well short of the 112-bit
# level NIST SP 800-57 Part 1 puts at a 2048-bit modulus (ROADMAP item 18).
DEFAULT_GROUP = OTGroup(
    p=int(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a63a3620ffffffffffffffff",
        16,
    ),
    q=int(
        "7fffffffffffffffe487ed5110b4611a62633145c06e0e68948127044533e63a"
        "0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1b"
        "a7f09ab6b6a8e122f242dabb312f3f637a262174d31d1b107fffffffffffffff",
        16,
    ),
    g=2,
)

# 256-bit safe-prime group: fast enough for statistical test batteries,
# and far too small to protect anything; tests and benchmarks only.
FAST_GROUP = OTGroup(
    p=int("fb086b0a2b206362c4104abd2b29008cd2cd100c087baee29648b18123651cc7", 16),
    q=int("7d843585159031b16208255e9594804669668806043dd7714b2458c091b28e63", 16),
    g=4,
)


@dataclass
class OTTranscript:
    """Wire messages of one batch of transfers, as (sender_tag, payload) pairs."""

    messages: list[tuple[str, bytes]] = field(default_factory=list)

    def total_bytes(self) -> int:
        return sum(len(p) for _, p in self.messages)


def _check_batch(pairs: Sequence[tuple[bytes, bytes]], bits: Sequence[int]) -> None:
    """Refuse a batch that is empty, whose pairs and bits differ in
    number, or that holds a bit other than 0 and 1 or a payload that is
    not a wire label."""
    if not bits:
        raise RejectedInputError("an OT batch needs at least one transfer")
    if len(pairs) != len(bits):
        raise RejectedInputError(f"{len(pairs)} label pairs but {len(bits)} choice bits")
    for i, (pair, bit) in enumerate(zip(pairs, bits)):
        if bit not in (0, 1):
            raise RejectedInputError(f"choice bit {bit!r} at transfer {i}")
        if len(pair) != 2 or any(len(m) != LABEL_BYTES for m in pair):
            raise RejectedInputError(f"OT payloads at transfer {i} must be two wire labels")


def _ot_pad(group: OTGroup, key: int, index: int, slot: int, size: int) -> bytes:
    """The first ``size`` bytes (at most 32) of the SHA-256 of a transfer
    key, the transfer's index in its batch and the slot it encrypts."""
    return hashlib.sha256(group.encode(key) + struct.pack(">IB", index, slot)).digest()[:size]


class DiffieHellmanOT:
    """Batched 1-of-2 oblivious transfer over a prime-order group, two
    transfers at a time: the "simplest OT" of Chou and Orlandi
    (LATINCRYPT 2015), 1-of-4 on bit pairs, with one sender element for
    the whole batch.

    The sender draws ``a`` and sends ``A = g^a``. The receiver joins
    transfers 2j and 2j + 1 into transfer j of the batch, with choice
    ``c_j = bits[2j] + 2*bits[2j + 1]``; the last bit of an odd batch is
    a transfer of its own, with ``c_j`` that bit. It draws ``x_j`` and
    sends ``B_j = g^x_j * A^c_j``, multiplying by a power of ``A`` from
    0 to 3 (``A^0 = 1``), so every choice takes the same operations. Slot
    s of a pair holds ``pairs[2j][s & 1] + pairs[2j + 1][s >> 1]``, and
    the sender encrypts it under ``B_j^a * T^s``, where ``T = A^-a`` is
    ``g^(-a*a)``: one power of g per batch, one exponentiation and three
    products per bit pair, and no inverse. The receiver's key ``A^x_j`` is
    the key of slot ``c_j``. A slot's pad is ``H(key, j, s)``, all 32
    bytes of SHA-256 for two labels and the first 16 for a lone one.

    * The choice is hidden: ``B_j`` is uniform in the group for every
      ``c_j``, so the sender learns nothing from it.
    * The other slots are hidden: each other slot's key is the
      receiver's key times ``A^(a*d)`` for some d in -3..3 other than 0,
      and ``A^a = g^(a*a)`` is what the receiver cannot compute from
      ``A`` (computational Diffie-Hellman, in the random-oracle model
      for H).
    * The index j inside H keeps the transfers of one batch apart, so
      equal pairs at two positions encrypt under different keys.
    * The receiver checks the sender's element: before it computes any
      ``B_j`` it refuses an ``A`` with ``A^q != 1``, outside the order-q
      subgroup, with :class:`~pous.errors.SubgroupError`. A sender whose
      ``A`` is ``p - 1`` would otherwise read every choice's low bit off
      whether ``B_j`` is a quadratic residue.
    * The sender still does not check each ``B_j``, which would cost one
      builtin power per transfer, so the transfer is secure against a
      semi-honest receiver only.

    Per batch: one exponent draw, two powers of g (``A`` and ``T``), one
    group element on the wire, and one radix-4 :func:`_power_table` of
    ``A`` that lives only for the batch (384 products on ``FAST_GROUP``,
    1,152 on ``DEFAULT_GROUP``). The receiver reads ``A^q`` off that
    table, one product per nonzero radix-4 digit of q. Per bit pair: one
    exponent draw, one power of g, one product by ``A^c`` off the table's
    row 0, one variable-base exponentiation (``B_j^a``) and three
    products for the four slot keys, the receiver key ``A^x_j`` (one
    product per nonzero radix-4 digit of ``x_j`` off the table), five
    hashes, and one group element and four 32-byte slots on the wire. A
    lone last bit costs the same but for one product for its second slot
    key, three hashes and two 16-byte slots. A batch of 16 makes 8
    builtin exponentiations and reads 9 powers of ``A`` off the table:
    the 8 keys and ``A^q``. Built and read for those 9, a radix-4 table
    took 0.49-0.52 ms on ``FAST_GROUP``, radix 8 the same within noise,
    radix 16 0.58 ms and 9 builtin ``pow`` calls 0.87-0.95 ms (6.5-6.9,
    6.5-6.6, 7.7-7.9 and 12-13 ms on ``DEFAULT_GROUP``); radix 4 also
    holds exactly ``A``, ``A^2`` and ``A^3`` in row 0. A batch of 16
    bits (8 transfers) takes 1.84 ms on ``FAST_GROUP`` and 23 ms on
    ``DEFAULT_GROUP`` (medians, 2-core x86-64, Python 3.11).
    Exponents come from the operating system's cryptographic source
    unless a (seeded, reproducible) ``rng`` is injected. Powers of g come
    from the group's fixed-base table (:meth:`OTGroup.pow_g`), built on
    the first exchange: 0.5 MiB for ``FAST_GROUP`` and 3.2 MiB for
    ``DEFAULT_GROUP``. Neither the table lookups nor the builtin ``pow``
    is constant-time.
    """

    def __init__(self, group: OTGroup = DEFAULT_GROUP, rng=None):
        self.group = group
        self._rng = rng if rng is not None else secrets.SystemRandom()

    def _rand_exp(self) -> int:
        return self._rng.randrange(1, self.group.q)

    def exchange(
        self, pairs: Sequence[tuple[bytes, bytes]], bits: Sequence[int]
    ) -> tuple[list[bytes], OTTranscript]:
        """Transfer ``pairs[i][bits[i]]`` for every i, in one batch.
        Returns the received labels and the batch's wire messages."""
        _check_batch(pairs, bits)
        grp, p = self.group, self.group.p
        t = OTTranscript()
        # sender: one element of unknown dlog to the receiver for the batch
        a = self._rand_exp()
        big_a = grp.pow_g(a)
        t.messages.append(("sender", grp.encode(big_a)))
        # receiver: a radix-4 table of A for its keys, which first checks A^q = 1
        table = _power_table(big_a, p, -(-grp.q.bit_length() // 2), 4)
        if _table_pow(table, _quad_digits(grp.q), p) != 1:
            raise SubgroupError("the sender's A is outside the order-q subgroup: A^q != 1")
        # receiver: one choice per bit pair, g^x shifted by A^c, with A^c off row 0
        choices = [bits[i] + 2 * bits[i + 1] for i in range(0, len(bits) - 1, 2)]
        choices += bits[len(choices) * 2:]  # the lone last bit of an odd batch
        xs = [self._rand_exp() for _ in choices]
        a_powers = (1, *table[0])
        bs = [grp.pow_g(x) * a_powers[c] % p for x, c in zip(xs, choices)]
        t.messages.append(("receiver", b"".join(map(grp.encode, bs))))
        # sender: slot s's key is B^a * T^s, with T = g^(-a*a)
        big_t = grp.pow_g(-a * a)
        cts = []
        for j, b in enumerate(bs):
            if 2 * j + 1 < len(pairs):
                (m0, m1), (n0, n1) = pairs[2 * j:2 * j + 2]
                slots = (m0 + n0, m1 + n0, m0 + n1, m1 + n1)
            else:
                slots = pairs[2 * j]
            key, sealed = pow(b, a, p), []
            for s, plain in enumerate(slots):
                if s:
                    key = key * big_t % p
                sealed.append(_xor(plain, _ot_pad(grp, key, j, s, len(plain))))
            cts.append(sealed)
        t.messages.append(("sender", b"".join(c for sealed in cts for c in sealed)))
        # receiver: its key A^x, then the slot its choice names, split into labels
        out = []
        for j, (x, c, sealed) in enumerate(zip(xs, choices, cts)):
            key = _table_pow(table, _quad_digits(x), p)
            plain = _xor(sealed[c], _ot_pad(grp, key, j, c, len(sealed[c])))
            out += (plain[o:o + LABEL_BYTES] for o in range(0, len(plain), LABEL_BYTES))
        return out, t

    def transfer_bytes(self, n: int) -> int:
        """Bytes a batch of ``n`` transfers moves: ``A``, then one ``B_j``
        and four two-label slots per bit pair, and one ``B_j`` and two
        labels for the lone last bit of an odd batch."""
        e = self.group.element_bytes
        return e + n // 2 * (e + 8 * LABEL_BYTES) + n % 2 * (e + 2 * LABEL_BYTES)


class TrustedDealerOT:
    """Dealer stand-in with the same interface: it hands over the chosen
    messages and moves one byte per transfer. It is the default OT of
    :func:`secure_compare` and :class:`GarbledCompareBackend`, which
    therefore hide no choice bit unless given a :class:`DiffieHellmanOT`."""

    def exchange(
        self, pairs: Sequence[tuple[bytes, bytes]], bits: Sequence[int]
    ) -> tuple[list[bytes], OTTranscript]:
        _check_batch(pairs, bits)
        out = [pair[bit] for pair, bit in zip(pairs, bits)]
        return out, OTTranscript(messages=[("dealer", bytes(len(bits)))])

    def transfer_bytes(self, n: int) -> int:
        return n


# ---------------------------------------------------------------------------
# end-to-end comparison


def comparison_bytes(bitwidth: int, ot) -> int:
    """Bytes one comparison moves besides the circuit: the generator's
    active labels plus one batch that transfers the evaluator's bits."""
    return bitwidth * LABEL_BYTES + ot.transfer_bytes(bitwidth)


def _compare(template: ComparatorTemplate, gen_value: float, eval_value: float,
             ot) -> tuple[int, OTTranscript]:
    """Encode both values at the template's width (not the circuit's,
    which :func:`eval_circuit` checks), fetch the evaluator's labels in
    one OT batch (it never sees the generator's key table), evaluate and
    decode. Returns the bit and the batch's transcript. An ``ot`` of
    None, every entry point's default, is the :class:`TrustedDealerOT`."""
    ot = TrustedDealerOT() if ot is None else ot
    circuit = template.circuit
    a, b = (FixedPoint.encode(v, template.theta.bitwidth) for v in (gen_value, eval_value))
    eval_labels, transcript = ot.exchange(template.eval_keys, b.bits_lsb())
    out = eval_circuit(circuit, select_input_labels(template.gen_keys, a), eval_labels)
    return decode_output(circuit, out), transcript


def secure_compare(
    gen_value: float,
    eval_value: float,
    theta: float,
    bitwidth: int = DEFAULT_BITWIDTH,
    seed: int = 0,
    ot=None,
) -> int:
    """One-time two-party comparison: returns 1 iff |a - b| <= theta.

    Garbles a fresh comparator from ``seed`` for this one comparison;
    :class:`GarbledCompareBackend` is the way to reuse one template.
    """
    template = garble_comparator(bitwidth, theta, seed)
    return _compare(template, gen_value, eval_value, ot)[0]


class GarbledCompareBackend:
    """Comparison backend that actually garbles and evaluates.

    The template is garbled once (per epoch) and serves every compare,
    as :func:`pous.round.vote` reuses each candidate's template across
    that candidate's voters and user pairs. Each compare ships fresh
    active labels and runs one OT batch for the evaluator's bits.
    """

    def __init__(self, theta: float, bitwidth: int = DEFAULT_BITWIDTH, seed: int = 0, ot=None):
        self.template = garble_comparator(bitwidth, theta, seed)
        self.ot = ot

    def compare(self, gen_value: float, eval_value: float) -> int:
        return _compare(self.template, gen_value, eval_value, self.ot)[0]
