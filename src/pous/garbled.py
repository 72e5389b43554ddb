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
* A gate row is the output label plus a 32-bit all-zero tag, encrypted
  under both matching input labels, and it sits at the slot the two
  input labels' permute bits name. The evaluator reads that slot off
  its active labels and decrypts one row per gate. The tag stays as a
  tamper check: a row that fails it raises CorruptedCircuitError, and a
  forged row passes it with probability 2**-32.
* "Encryption" is one SHA-256 and one integer XOR per row: the pad is
  the first 20 bytes of the digest of the two input labels plus a
  per-gate, per-row tweak, taken as an integer. The tweak keeps pads
  unique even though wire labels feed many gates; each gate's four
  tweaks are packed once, and the evaluator reads them with the gate's
  input wires from one cached plan per width (``_plan``).
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
* The evaluator's input labels travel through 1-of-2 oblivious transfer,
  one batch per comparison: either a Diffie-Hellman transfer over a
  safe-prime group, or a trusted dealer stand-in with the same
  interface. The dealer is the default OT of :func:`secure_compare` and
  :class:`GarbledCompareBackend`, so their default path runs no real
  transfer (ROADMAP.md plans to make the DH transfer that default); the
  simulator runs no transfer and charges the DH transfer's bytes. The DH
  transfer is Chou and Orlandi's "simplest OT" (LATINCRYPT 2015) with
  one sender element per batch. A batch costs two fixed-base powers of
  g, one element on the wire and a short-lived fixed-base table of that
  element. Each transfer costs a power of g, one variable-base
  exponentiation, the receiver's key off that table, one element and
  two labels on the wire, and no inverse. Like the comparator it is
  secure against a semi-honest party only, and none of it is
  constant-time.
* :func:`secure_compare` garbles a fresh circuit for its one
  comparison. :class:`GarbledCompareBackend` reuses one template across
  many comparisons, as the simulator's per-epoch cost model assumes, and
  :func:`pous.round.vote` reuses each candidate's template across the
  round's voters and user pairs (a voter compares each pair once and
  reuses the verdict on its mirror slot, so the mirror runs no circuit);
  an evaluator that sees a reused circuit under several inputs learns
  more than one bit (Lindell and Pinkas, J. Cryptology 2009).

The comparator's gates, 7w - 2 at width w, come from blocks in the style
of Kolesnikov, Sadeghi and Schneider (CANS 2009): a borrow subtractor
d = a - b mod 2**w (5w - 3 gates) whose borrow out s is set iff a < b;
two ripples of one gate per bit against public constants, d <= theta and
d <= ~theta (w - 1 gates each, bit 0 folded into bit 1's gate); and a
3-gate select on s. |a - b| is d when a >= b, and 2**w - d when a < b,
which is within theta iff d > ~theta.
"""
from __future__ import annotations

import functools
import hashlib
import secrets
import struct
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConfigurationError, CorruptedCircuitError, RejectedInputError, SubgroupError

LABEL_BYTES = 16
TAG = b"\x00\x00\x00\x00"
ROW_BYTES = LABEL_BYTES + len(TAG)
# a row is (label << _TAG_BITS) ^ pad, so an intact row decrypts to zero under _TAG_MASK
_TAG_BITS = 8 * len(TAG)
_TAG_MASK = (1 << _TAG_BITS) - 1

# truth tables indexed by 2*a + b; ANDNOT(a, b) = a AND (NOT b)
_TABLES = {
    "AND": (0, 0, 0, 1),
    "OR": (0, 1, 1, 1),
    "XOR": (0, 1, 1, 0),
    "XNOR": (1, 0, 0, 1),
    "ANDNOT": (0, 0, 1, 0),
}


def label_bytes(seed: int, n: int) -> bytes:
    """The first ``n`` bytes of SHA256 in counter mode under ``seed``.

    Wire labels are read from here, so one integer seed reproduces a
    garbled circuit byte for byte. The seed enters as 16 signed bytes.
    """
    if not isinstance(seed, int) or not -2**127 <= seed < 2**127:
        raise ConfigurationError(f"seed {seed!r} is not an integer in -2**127 .. 2**127 - 1")
    state = hashlib.sha256(b"pous-gc" + seed.to_bytes(16, "big", signed=True)).digest()
    return b"".join(hashlib.sha256(state + c.to_bytes(8, "big")).digest()
                    for c in range(-(-n // 32)))[:n]


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
    """Cleartext comparator semantics shared by mock backends."""
    return 1 if abs(a_raw - b_raw) <= theta_raw else 0


# ---------------------------------------------------------------------------
# circuit skeleton and garbling


_MAGIC = b"PGC3"
_HEAD = len(_MAGIC) + 1  # the magic, then the width byte
_MAP_ENTRY = LABEL_BYTES + 1  # a decode-map entry: the label, then its bit


@dataclass
class GarbledCircuit:
    """Everything the evaluator receives besides the public wiring: the
    four rows of each gate of ``_skeleton(bitwidth)``, in its order, and
    the output decode map.

    Both sides know the width's gate list and wire layout. Holds only
    labels and ciphertexts; no similarity value ever appears here.
    """

    bitwidth: int
    gates: tuple[tuple[bytes, bytes, bytes, bytes], ...]  # four rows per gate
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
        """Inverse of :meth:`serialize`. A magic other than ``PGC3``, a
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
        omap_at = size - 2 * _MAP_ENTRY
        gates = tuple(tuple(raw[r:r + ROW_BYTES] for r in range(g, g + 4 * ROW_BYTES, ROW_BYTES))
                      for g in range(_HEAD, omap_at, 4 * ROW_BYTES))
        omap = {raw[o:o + LABEL_BYTES]: raw[o + LABEL_BYTES]
                for o in (omap_at, omap_at + _MAP_ENTRY)}
        if len(omap) != 2:
            raise CorruptedCircuitError("output map needs two distinct labels")
        if sorted(omap.values()) != [0, 1]:
            raise CorruptedCircuitError(
                f"output map decodes to {sorted(omap.values())}, not 0 and 1")
        circuit = cls(bitwidth, gates, omap)
        if circuit.serialize() != raw:
            raise CorruptedCircuitError("output map is not in label order")
        return circuit


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@functools.cache  # gate indices stop at the widest comparator's 222 gates
def _tweaks(gate_index: int) -> tuple[bytes, ...]:
    """Gate ``gate_index``'s four row tweaks. A row's pad is the first
    ROW_BYTES (20) of the SHA-256 of its two input labels and its tweak,
    as an integer: the digest shifted right by 96 bits."""
    return tuple(struct.pack("<IB", gate_index, slot) for slot in range(4))


def _permute_bit(label: bytes) -> int:
    """The label's low bit, which names its row slot in every gate it feeds."""
    return label[-1] & 1


def gen_gate(
    table: Sequence[int],
    in1_keys: tuple[bytes, bytes],
    in2_keys: tuple[bytes, bytes],
    out_keys: tuple[bytes, bytes],
    gate_index: int,
) -> tuple[bytes, bytes, bytes, bytes]:
    """Garble one two-input gate, whose truth table is indexed by
    2*a + b, into its four rows.

    Each of the four input combinations double-encrypts the matching
    output label (tag appended) into the slot its input labels' permute
    bits name. Both input key pairs must carry opposite permute bits.
    """
    p1, p2 = _permute_bit(in1_keys[0]), _permute_bit(in2_keys[0])
    if _permute_bit(in1_keys[1]) == p1 or _permute_bit(in2_keys[1]) == p2:
        raise RejectedInputError(f"gate {gate_index}: a key pair shares its permute bit")
    plains = [int.from_bytes(k, "big") << _TAG_BITS for k in out_keys]  # label + TAG
    tweaks, sha256 = _tweaks(gate_index), hashlib.sha256
    rows: list[bytes] = [b""] * 4
    for a, ka in enumerate(in1_keys):
        for b, kb in enumerate(in2_keys):
            slot = 2 * (p1 ^ a) + (p2 ^ b)  # ka's permute bit is p1 ^ a
            pad = int.from_bytes(sha256(ka + kb + tweaks[slot]).digest(), "big") >> 96
            rows[slot] = (plains[table[2 * a + b]] ^ pad).to_bytes(ROW_BYTES, "big")
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
def _skeleton(bitwidth: int) -> tuple[tuple[str | tuple[str, int], int, int], ...]:
    """The comparator's public wiring, which only its width w decides:
    its gates, each as (kind, in1, in2). A kind is a ``_TABLES`` name, or
    (constant, bit) for a ripple gate whose table the threshold picks.

    The wire layout is fixed. The generator's inputs are wires
    0 .. w - 1 and the evaluator's are wires w .. 2w - 1, least
    significant bit first; gate gi writes wire 2w + gi, and the output is
    the last gate's wire. Every gate reads only wires set before it."""
    if bitwidth not in BITWIDTHS:
        raise ConfigurationError(f"unsupported bitwidth {bitwidth}, need 4..32")
    gates = []

    def gate(kind: str | tuple[str, int], in1: int, in2: int) -> int:
        gates.append((kind, in1, in2))
        return 2 * bitwidth + len(gates) - 1

    # borrow subtractor d = a - b mod 2**w; the borrow out is set iff a < b
    diff, borrow = [], None
    for a, b in zip(range(bitwidth), range(bitwidth, 2 * bitwidth)):
        t = gate("XOR", a, b)
        u = gate("ANDNOT", b, a)
        if borrow is None:
            diff.append(t)
            borrow = u
        else:
            diff.append(gate("XOR", t, borrow))
            v = gate("ANDNOT", borrow, t)
            borrow = gate("OR", u, v)
    # ripples d <= theta and d <= ~theta, one gate per bit from bit 1 up;
    # each gate's table is _ripple_table's
    ripples = []
    for const in ("theta", "~theta"):
        le = diff[0]
        for i in range(1, bitwidth):
            le = gate((const, i), diff[i], le)
        ripples.append(le)
    le_theta, le_not_theta = ripples
    # le_theta if a >= b, else NOT le_not_theta: le_theta ^ (a_below_b & XNOR(both))
    flip = gate("AND", borrow, gate("XNOR", le_theta, le_not_theta))
    gate("XOR", le_theta, flip)
    return tuple(gates)


@functools.cache
def _plan(bitwidth: int) -> tuple[tuple[int, int, tuple[bytes, ...]], ...]:
    """What the evaluator reads per gate of ``_skeleton(bitwidth)``: its
    two input wires and its four row tweaks."""
    return tuple((in1, in2, _tweaks(gi))
                 for gi, (_, in1, in2) in enumerate(_skeleton(bitwidth)))


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
    gates = _skeleton(bitwidth)
    theta_fp = FixedPoint.encode(theta, bitwidth)
    consts = {"theta": theta_fp.raw, "~theta": theta_fp.raw ^ ((1 << bitwidth) - 1)}
    raw = label_bytes(seed, 2 * LABEL_BYTES * (2 * bitwidth + len(gates)))
    keys = []
    for off in range(0, len(raw), 2 * LABEL_BYTES):
        label0 = raw[off:off + LABEL_BYTES]
        label1 = raw[off + LABEL_BYTES:off + 2 * LABEL_BYTES]
        # label1's permute bit is the complement of label0's
        flipped = (label1[-1] & 0xFE) | (1 - _permute_bit(label0))
        keys.append((label0, label1[:-1] + bytes([flipped])))
    tables = [_TABLES[kind] if isinstance(kind, str) else _ripple_table(consts[kind[0]], kind[1])
              for kind, *_ in gates]
    circuit = GarbledCircuit(
        bitwidth=bitwidth,
        gates=tuple(gen_gate(table, keys[i1], keys[i2], out_keys, gi)
                    for gi, (table, (_, i1, i2), out_keys)
                    in enumerate(zip(tables, gates, keys[2 * bitwidth:]))),
        output_map={keys[-1][0]: 0, keys[-1][1]: 1},
    )
    return ComparatorTemplate(
        circuit=circuit,
        gen_keys=tuple(keys[:bitwidth]),
        eval_keys=tuple(keys[bitwidth:2 * bitwidth]),
        theta=theta_fp,
    )


def comparator_size(bitwidth: int) -> tuple[int, int]:
    """Gate count and serialized bytes of the width-``bitwidth`` comparator:
    the magic and width byte, four rows per gate, two map entries."""
    gates = len(_skeleton(bitwidth))
    return gates, _HEAD + gates * 4 * ROW_BYTES + 2 * _MAP_ENTRY


def select_input_labels(keys: tuple[tuple[bytes, bytes], ...], value: FixedPoint) -> list[bytes]:
    """Pick the label per input wire matching the value's bits."""
    bits = value.bits_lsb()
    if len(bits) != len(keys):
        raise RejectedInputError("value width does not match circuit inputs")
    return [keys[i][bit] for i, bit in enumerate(bits)]


# rows eval_circuit decrypts per gate: the input labels' permute bits
# name the one row to open
ROW_TRIES = 1.0


def eval_circuit(
    circuit: GarbledCircuit,
    gen_labels: list[bytes],
    eval_labels: list[bytes],
) -> bytes:
    """Run the garbled circuit on active labels; returns the output label.

    The wiring comes from ``_skeleton(circuit.bitwidth)``: the labels
    list holds the input wires, generator then evaluator, and every gate
    appends its output wire's label. For every gate the evaluator
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
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    for gi, ((in1, in2, tweaks), rows) in enumerate(zip(plan, circuit.gates)):
        ka, kb = labels[in1], labels[in2]
        try:  # free on the happy path, unlike a length check per gate
            slot = 2 * (ka[-1] & 1) + (kb[-1] & 1)  # _permute_bit, inlined
            row = rows[slot]
        except IndexError:
            raise CorruptedCircuitError(
                f"gate {gi} has an empty input label or lacks the row they select") from None
        plain = from_bytes(row, "big") ^ (
            from_bytes(sha256(ka + kb + tweaks[slot]).digest(), "big") >> 96)
        if plain & _TAG_MASK:
            raise CorruptedCircuitError(f"row {slot} of gate {gi} fails its tag check")
        labels.append((plain >> _TAG_BITS).to_bytes(LABEL_BYTES, "big"))
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


# hex characters to their values, so format(e, "x") yields radix-16 digits
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _hex_digits(e: int) -> bytes:
    """The radix-16 digits of ``e``, least significant first."""
    return format(e, "x")[::-1].encode().translate(_HEX_DIGITS)


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
# the prime-order-q quadratic-residue subgroup since p = 7 mod 8.
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

# 256-bit safe-prime group: fast enough for statistical test batteries.
FAST_GROUP = OTGroup(
    p=int("fb086b0a2b206362c4104abd2b29008cd2cd100c087baee29648b18123651cc7", 16),
    q=int("7d843585159031b16208255e9594804669668806043dd7714b2458c091b28e63", 16),
    g=4,
)


@dataclass
class OTTranscript:
    """Wire messages of one batch of transfers, as (sender_tag, payload) pairs."""

    messages: list[tuple[str, bytes]] = field(default_factory=list)

    def receiver_message(self) -> bytes:
        for who, payload in self.messages:
            if who == "receiver":
                return payload
        return b""

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


def _hash_to_key(group: OTGroup, x: int, index: int, slot: int) -> bytes:
    return hashlib.sha256(group.encode(x) + struct.pack(">IB", index, slot)).digest()[:LABEL_BYTES]


class DiffieHellmanOT:
    """Batched 1-of-2 oblivious transfer over a prime-order group: the
    "simplest OT" of Chou and Orlandi (LATINCRYPT 2015), with one sender
    element for the whole batch.

    The sender draws ``a`` and sends ``A = g^a``. For transfer i the
    receiver draws ``x_i`` and sends ``B_i = g^x_i * A^c_i``, computed as
    ``g^x_i`` times 1 or ``A``, so both bits take the same operations.
    The sender sends ``m0 ^ H(B_i^a, i, 0)`` and ``m1 ^ H(B_i^a * T, i, 1)``,
    where ``T = A^-a`` is ``g^(-a*a)``: one power of g per batch and no
    inverse. The receiver's key ``A^x_i`` is the chosen side's key.

    * The choice bit is hidden: ``B_i`` is uniform in the group for
      either bit, so the sender learns nothing from it.
    * The other label is hidden: the other key is the receiver's key
      times ``A^a`` or ``A^-a``, and ``A^a = g^(a*a)`` is what the
      receiver cannot compute from ``A`` (computational Diffie-Hellman,
      in the random-oracle model for H).
    * The index i inside H keeps the transfers of one batch apart, so
      equal pairs at two positions encrypt under different keys.
    * The receiver checks the sender's element: before it computes any
      ``B_i`` it refuses an ``A`` with ``A^q != 1``, outside the order-q
      subgroup, with :class:`~pous.errors.SubgroupError`. A sender whose
      ``A`` is ``p - 1`` would otherwise read every choice bit off
      whether ``B_i`` is a quadratic residue.
    * The sender still does not check each ``B_i``, which would cost 16
      builtin powers per batch of 16, so the transfer is secure against
      a semi-honest receiver only.

    Per batch: one exponent draw, two powers of g (``A`` and ``T``), one
    group element on the wire, and one radix-16 :func:`_power_table` of
    ``A`` that lives only for the batch (960 products on ``FAST_GROUP``,
    2,880 on ``DEFAULT_GROUP``). The receiver reads ``A^q`` off that
    table, one product per nonzero hex digit of q: 36 µs on
    ``FAST_GROUP`` against 152 µs for builtin ``pow``, in a 16-transfer
    batch of 4.2 ms (2-core x86-64, Python 3.11). Per transfer: one
    exponent draw, one power of g, one variable-base exponentiation
    (``B_i^a``), the receiver key ``A^x_i`` (one product per nonzero hex
    digit of ``x_i`` off the table), three hashes, and one group element
    and two labels on the wire. The receiver's table pays for itself: in 10 alternating
    pairs of 25 s ``private-compare`` runs (batches of 16, 2-core x86-64,
    Python 3.11), reading the keys off it rather than builtin ``pow``
    raised throughput 16%. Exponents come from the operating system's
    cryptographic source unless a (seeded, reproducible) ``rng`` is
    injected. Powers of g come from the group's fixed-base table
    (:meth:`OTGroup.pow_g`), built on the first exchange: 0.5 MiB for
    ``FAST_GROUP`` and 3.2 MiB for ``DEFAULT_GROUP``. Neither the table
    lookups nor the builtin ``pow`` is constant-time.
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
        # receiver: a table of A for its keys, which first checks A^q = 1
        table = _power_table(big_a, p, -(-grp.q.bit_length() // 4), 16)
        if _table_pow(table, _hex_digits(grp.q), p) != 1:
            raise SubgroupError("the sender's A is outside the order-q subgroup: A^q != 1")
        # receiver: g^x on the chosen side, shifted by A when the bit is 1
        xs = [self._rand_exp() for _ in bits]
        bs = [grp.pow_g(x) * (1, big_a)[bit] % p for x, bit in zip(xs, bits)]
        t.messages.append(("receiver", b"".join(map(grp.encode, bs))))
        # sender: B^a and (B/A)^a = B^a * T per transfer, with T = g^(-a*a)
        big_t = grp.pow_g(-a * a)
        cts = []
        for i, ((m0, m1), b) in enumerate(zip(pairs, bs)):
            s = pow(b, a, p)
            cts.append((_xor(m0, _hash_to_key(grp, s, i, 0)),
                        _xor(m1, _hash_to_key(grp, s * big_t % p, i, 1))))
        t.messages.append(("sender", b"".join(c for pair in cts for c in pair)))
        # receiver: its key A^x, then the side its bit chose
        keys = [_table_pow(table, _hex_digits(x), p) for x in xs]
        out = [_xor(cts[i][bit], _hash_to_key(grp, k, i, bit))
               for i, (k, bit) in enumerate(zip(keys, bits))]
        return out, t

    def transfer_bytes(self, n: int) -> int:
        """Bytes a batch of ``n`` transfers moves: ``A``, then one ``B_i``
        and two ciphertexts per transfer."""
        e = self.group.element_bytes
        return e + n * (e + 2 * LABEL_BYTES)


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
    active labels plus one batch of transfers, one per evaluator bit."""
    return bitwidth * LABEL_BYTES + ot.transfer_bytes(bitwidth)


def _compare(template: ComparatorTemplate, gen_value: float, eval_value: float,
             ot) -> tuple[int, OTTranscript]:
    """Encode both values at the template's width (not the circuit's,
    which :func:`eval_circuit` checks), fetch the evaluator's labels in
    one OT batch (it never sees the generator's key table), evaluate and
    decode. Returns the bit and the batch's transcript."""
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
    return _compare(template, gen_value, eval_value,
                    ot if ot is not None else TrustedDealerOT())[0]


class PlainCompareBackend:
    """Threshold compare without cryptography; same fixed-point semantics.

    The cleartext reference that the garbled path and the simulator's
    voting shortcut are tested against. Neither backend counts bytes:
    :func:`pous.round.vote` measures a round's, and the simulator, which
    runs no comparison, models them with :func:`comparator_size` and
    :func:`comparison_bytes`.
    """

    def __init__(self, theta: float, bitwidth: int = DEFAULT_BITWIDTH):
        self.theta = FixedPoint.encode(theta, bitwidth)
        self.bitwidth = bitwidth

    def compare(self, gen_value: float, eval_value: float) -> int:
        a = FixedPoint.encode(gen_value, self.bitwidth)
        b = FixedPoint.encode(eval_value, self.bitwidth)
        return plain_within_theta(a.raw, b.raw, self.theta.raw)


class GarbledCompareBackend:
    """Comparison backend that actually garbles and evaluates.

    The template is garbled once (per epoch) and serves every compare:
    the library's one place that reuses a garbled circuit. Each compare
    ships fresh active labels and runs one OT batch for the evaluator's bits.
    """

    def __init__(self, theta: float, bitwidth: int = DEFAULT_BITWIDTH, seed: int = 0, ot=None):
        self.template = garble_comparator(bitwidth, theta, seed)
        self.ot = ot if ot is not None else TrustedDealerOT()

    def compare(self, gen_value: float, eval_value: float) -> int:
        return _compare(self.template, gen_value, eval_value, self.ot)[0]
