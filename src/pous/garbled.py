"""Garbled-circuit two-party comparison of similarity entries.

Voting on someone else's similarity matrix must not reveal either side's
values. The candidate (generator) garbles a fixed comparator circuit
that answers one question: is ``|a - b| <= theta``? Values are encoded
as unsigned fixed-point integers; the public threshold is baked into the
circuit as constant wires. The voter (evaluator) learns one bit and
nothing else; the generator learns nothing.

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
  tweaks are packed once and cached.
* The comparator's wiring depends only on its width, so it is built
  once per width and each seed draws only labels and rows.
* The evaluator's input labels travel through 1-of-2 oblivious transfer:
  either a Diffie-Hellman transfer over a safe-prime group, or a trusted
  dealer stand-in with the same interface. The dealer is the default
  OT of :func:`secure_compare` and :class:`GarbledCompareBackend`, so
  their default path runs no real transfer (ROADMAP.md plans to make
  the DH transfer that default); the simulator runs no transfer and
  charges the DH transfer's bytes. The DH transfer uses one sender
  exponent for both ciphertexts (Naor and Pinkas, SODA 2001) and an
  inverse-free receiver key ``g^x * C^bit`` (Chou and Orlandi,
  LATINCRYPT 2015). It costs two variable-base exponentiations, four
  fixed-base powers of g and no inverse, and it sends three group
  elements; none of it is constant-time.
* :func:`secure_compare` garbles a fresh circuit for its one
  comparison. :class:`GarbledCompareBackend` reuses one template across
  many comparisons, as the simulator's per-epoch cost model assumes; an
  evaluator that sees a reused circuit under several inputs learns more
  than one bit (Lindell and Pinkas, J. Cryptology 2009), so reuse is
  confined to that class.

The comparator layout: a greater-or-equal ripple over the two inputs
drives two multiplexer banks that route max and min into a borrow
subtractor, and a final ripple compares the difference against the
threshold constants.
"""
from __future__ import annotations

import functools
import hashlib
import secrets
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigurationError, CorruptedCircuitError, RejectedInputError

LABEL_BYTES = 16
TAG = b"\x00\x00\x00\x00"
ROW_BYTES = LABEL_BYTES + len(TAG)
# a row is (label << _TAG_BITS) ^ pad, so an intact row decrypts to zero under _TAG_MASK
_TAG_BITS = 8 * len(TAG)
_TAG_MASK = (1 << _TAG_BITS) - 1

GATE_KINDS = ("AND", "OR", "XOR", "XNOR", "ANDNOT")
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

    def decode(self) -> float:
        return self.raw / ((1 << self.bitwidth) - 1)

    def bits_lsb(self) -> tuple[int, ...]:
        return tuple((self.raw >> i) & 1 for i in range(self.bitwidth))


def plain_within_theta(a_raw: int, b_raw: int, theta_raw: int) -> int:
    """Cleartext comparator semantics shared by mock backends."""
    return 1 if abs(a_raw - b_raw) <= theta_raw else 0


# ---------------------------------------------------------------------------
# circuit skeleton and garbling


@dataclass(frozen=True)
class GarbledGate:
    kind: str
    in1: int
    in2: int
    out: int
    rows: tuple[bytes, bytes, bytes, bytes]


# serialized layout: the header after the magic, and each gate's fields before its rows
_HEADER = "<BIIIII"  # bitwidth, wires, generator inputs, evaluator inputs, constants, gates
_GATE_HEADER = "<BIII"  # kind, in1, in2, out


@dataclass
class GarbledCircuit:
    """Everything the evaluator receives: gates, wiring, constants, decode map.

    Holds only labels and ciphertexts; no similarity value ever appears
    here.
    """

    bitwidth: int
    n_wires: int
    gen_input_wires: tuple[int, ...]
    eval_input_wires: tuple[int, ...]
    const_wires: tuple[tuple[int, bytes], ...]  # (wire, active label)
    gates: tuple[GarbledGate, ...]
    output_wire: int
    output_map: dict[bytes, int]

    def serialize(self) -> bytes:
        parts = [b"PGC1", struct.pack(_HEADER, self.bitwidth, self.n_wires,
                                      len(self.gen_input_wires), len(self.eval_input_wires),
                                      len(self.const_wires), len(self.gates))]
        parts.append(struct.pack(f"<{len(self.gen_input_wires)}I", *self.gen_input_wires))
        parts.append(struct.pack(f"<{len(self.eval_input_wires)}I", *self.eval_input_wires))
        for wire, label in self.const_wires:
            parts.append(struct.pack("<I", wire) + label)
        for g in self.gates:
            parts.append(struct.pack(_GATE_HEADER, GATE_KINDS.index(g.kind), g.in1, g.in2, g.out))
            parts.extend(g.rows)
        parts.append(struct.pack("<I", self.output_wire))
        for label in sorted(self.output_map):
            parts.append(label + struct.pack("<B", self.output_map[label]))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "GarbledCircuit":
        """Inverse of :meth:`serialize`. The bytes must be exactly as long
        as their header says, with one wire per input, constant and gate,
        every wire id below ``n_wires``, and an output map of two labels
        decoding to 0 and 1; anything else raises CorruptedCircuitError."""
        if raw[:4] != b"PGC1":
            raise CorruptedCircuitError("bad circuit magic")
        off = 4 + struct.calcsize(_HEADER)
        if len(raw) < off:
            raise CorruptedCircuitError(f"circuit of {len(raw)} bytes ends inside its header")
        bitwidth, n_wires, n_gen, n_eval, n_const, n_gates = struct.unpack_from(_HEADER, raw, 4)
        # each wire is set once, so a larger count only inflates evaluation
        if n_wires != n_gen + n_eval + n_const + n_gates:
            raise CorruptedCircuitError(
                f"circuit claims {n_wires} wires, its inputs, constants and gates set "
                f"{n_gen + n_eval + n_const + n_gates}")
        expected = (off + 4 * (n_gen + n_eval) + n_const * (4 + LABEL_BYTES)
                    + n_gates * (struct.calcsize(_GATE_HEADER) + 4 * ROW_BYTES)
                    + 4 + 2 * (LABEL_BYTES + 1))
        if len(raw) != expected:
            raise CorruptedCircuitError(
                f"circuit is {len(raw)} bytes, its header implies {expected}")
        gen = struct.unpack_from(f"<{n_gen}I", raw, off)
        off += 4 * n_gen
        ev = struct.unpack_from(f"<{n_eval}I", raw, off)
        off += 4 * n_eval
        consts = []
        for _ in range(n_const):
            (w,) = struct.unpack_from("<I", raw, off)
            off += 4
            consts.append((w, raw[off:off + LABEL_BYTES]))
            off += LABEL_BYTES
        gates = []
        for _ in range(n_gates):
            kid, i1, i2, o = struct.unpack_from(_GATE_HEADER, raw, off)
            off += struct.calcsize(_GATE_HEADER)
            if kid >= len(GATE_KINDS):
                raise CorruptedCircuitError(f"unknown gate kind {kid}")
            rows = []
            for _ in range(4):
                rows.append(raw[off:off + ROW_BYTES])
                off += ROW_BYTES
            gates.append(GarbledGate(GATE_KINDS[kid], i1, i2, o, tuple(rows)))
        (out_wire,) = struct.unpack_from("<I", raw, off)
        off += 4
        omap = {raw[o:o + LABEL_BYTES]: raw[o + LABEL_BYTES]
                for o in (off, off + LABEL_BYTES + 1)}
        if len(omap) != 2:
            raise CorruptedCircuitError("output map needs two distinct labels")
        if sorted(omap.values()) != [0, 1]:
            raise CorruptedCircuitError(
                f"output map decodes to {sorted(omap.values())}, not 0 and 1")
        # a wire beyond n_wires would fail evaluation with an IndexError
        wires = [*gen, *ev, *(w for w, _ in consts), out_wire,
                 *(w for g in gates for w in (g.in1, g.in2, g.out))]
        if max(wires) >= n_wires:
            raise CorruptedCircuitError(f"circuit names wire {max(wires)} of {n_wires}")
        return cls(bitwidth, n_wires, tuple(gen), tuple(ev), tuple(consts),
                   tuple(gates), out_wire, omap)


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# bounded, since a deserialized circuit may name any number of gates;
# 1024 holds every gate index of the widest comparator (600 gates)
@functools.lru_cache(maxsize=1024)
def _tweaks(gate_index: int) -> tuple[bytes, ...]:
    return tuple(struct.pack("<IB", gate_index, slot) for slot in range(4))


def _row_pad(outer: bytes, inner: bytes, gate_index: int, slot: int) -> int:
    """The first ROW_BYTES (20) of the row's 32-byte digest, as an integer."""
    digest = hashlib.sha256(outer + inner + _tweaks(gate_index)[slot]).digest()
    return int.from_bytes(digest, "big") >> 96


def _permute_bit(label: bytes) -> int:
    """The label's low bit, which names its row slot in every gate it feeds."""
    return label[-1] & 1


def gen_gate(
    kind: str,
    in1_keys: tuple[bytes, bytes],
    in2_keys: tuple[bytes, bytes],
    out_keys: tuple[bytes, bytes],
    gate_index: int,
    in1: int,
    in2: int,
    out: int,
) -> GarbledGate:
    """Garble one two-input gate.

    Each of the four input combinations double-encrypts the matching
    output label (tag appended) into the slot its input labels' permute
    bits name. Both input key pairs must carry opposite permute bits.
    """
    p1, p2 = _permute_bit(in1_keys[0]), _permute_bit(in2_keys[0])
    if _permute_bit(in1_keys[1]) == p1 or _permute_bit(in2_keys[1]) == p2:
        raise RejectedInputError(f"gate {gate_index}: a key pair shares its permute bit")
    table = _TABLES[kind]
    plains = [int.from_bytes(k, "big") << _TAG_BITS for k in out_keys]  # label + TAG
    rows: list[bytes] = [b""] * 4
    for a, ka in enumerate(in1_keys):
        for b, kb in enumerate(in2_keys):
            slot = 2 * (p1 ^ a) + (p2 ^ b)  # ka's permute bit is p1 ^ a
            pad = _row_pad(ka, kb, gate_index, slot)
            rows[slot] = (plains[table[2 * a + b]] ^ pad).to_bytes(ROW_BYTES, "big")
    return GarbledGate(kind, in1, in2, out, tuple(rows))


class _Builder:
    """Accumulates wires/gates for the comparator before garbling."""

    def __init__(self):
        self.n_wires = 0
        self.gates: list[tuple[str, int, int, int]] = []

    def wire(self) -> int:
        self.n_wires += 1
        return self.n_wires - 1

    def gate(self, kind: str, a: int, b: int) -> int:
        out = self.wire()
        self.gates.append((kind, a, b, out))
        return out

    def ge(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Ripple x >= y over LSB-first bit wires."""
        ge = None
        for i, (x, y) in enumerate(zip(xs, ys)):
            gt = self.gate("ANDNOT", x, y)
            eq = self.gate("XNOR", x, y)
            if ge is None:
                ge = self.gate("OR", gt, eq)
            else:
                keep = self.gate("AND", eq, ge)
                ge = self.gate("OR", gt, keep)
        return ge

    def mux(self, sel: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """Bitwise sel ? x : y."""
        out = []
        for x, y in zip(xs, ys):
            t = self.gate("XOR", x, y)
            u = self.gate("AND", sel, t)
            out.append(self.gate("XOR", y, u))
        return out

    def sub(self, xs: list[int], ys: list[int]) -> list[int]:
        """Borrow subtractor x - y, assuming x >= y; returns LSB-first."""
        diff = []
        borrow = None
        w = len(xs)
        for i, (x, y) in enumerate(zip(xs, ys)):
            t = self.gate("XOR", x, y)
            if borrow is None:
                diff.append(t)
                if i < w - 1:
                    borrow = self.gate("ANDNOT", y, x)
            else:
                diff.append(self.gate("XOR", t, borrow))
                if i < w - 1:
                    u = self.gate("ANDNOT", y, x)
                    v = self.gate("ANDNOT", borrow, t)
                    borrow = self.gate("OR", u, v)
        return diff


@functools.cache
def _skeleton(bitwidth: int):
    """The comparator's wiring, which only its width decides: the wire
    count, the generator, evaluator and threshold input wires, the gates
    as (kind, in1, in2, out) and the output wire."""
    b = _Builder()
    a_wires, b_wires, t_wires = (tuple(b.wire() for _ in range(bitwidth)) for _ in range(3))
    sel = b.ge(a_wires, b_wires)
    diff = b.sub(b.mux(sel, a_wires, b_wires), b.mux(sel, b_wires, a_wires))
    out = b.ge(t_wires, diff)
    return b.n_wires, a_wires, b_wires, t_wires, tuple(b.gates), out


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

    The threshold is public and baked in: its bit wires ship with only
    the label matching the actual constant bit. Same seed, same bytes.
    """
    if bitwidth not in BITWIDTHS:
        raise ConfigurationError(f"unsupported bitwidth {bitwidth}, need 4..32")
    theta_fp = FixedPoint.encode(theta, bitwidth)
    n_wires, a_wires, b_wires, t_wires, gates, out = _skeleton(bitwidth)
    raw = label_bytes(seed, 2 * LABEL_BYTES * n_wires)
    keys = []
    for off in range(0, len(raw), 2 * LABEL_BYTES):
        label0 = raw[off:off + LABEL_BYTES]
        label1 = raw[off + LABEL_BYTES:off + 2 * LABEL_BYTES]
        # label1's permute bit is the complement of label0's
        flipped = (label1[-1] & 0xFE) | (1 - _permute_bit(label0))
        keys.append((label0, label1[:-1] + bytes([flipped])))
    garbled = tuple(
        gen_gate(kind, keys[i1], keys[i2], keys[o], gi, i1, i2, o)
        for gi, (kind, i1, i2, o) in enumerate(gates)
    )
    theta_bits = theta_fp.bits_lsb()
    consts = tuple((w, keys[w][bit]) for w, bit in zip(t_wires, theta_bits))
    circuit = GarbledCircuit(
        bitwidth=bitwidth,
        n_wires=n_wires,
        gen_input_wires=a_wires,
        eval_input_wires=b_wires,
        const_wires=consts,
        gates=garbled,
        output_wire=out,
        output_map={keys[out][0]: 0, keys[out][1]: 1},
    )
    return ComparatorTemplate(
        circuit=circuit,
        gen_keys=tuple(keys[w] for w in a_wires),
        eval_keys=tuple(keys[w] for w in b_wires),
        theta=theta_fp,
    )


@functools.cache
def comparator_size(bitwidth: int) -> tuple[int, int]:
    """Gate count and serialized bytes of the width-``bitwidth``
    comparator, read off one real garbled circuit; neither depends on
    theta or the seed."""
    circuit = garble_comparator(bitwidth, 0.5, seed=0).circuit
    return len(circuit.gates), len(circuit.serialize())


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

    For every gate the evaluator decrypts the one row its active labels'
    permute bits select. A tag that does not decrypt to zero means the
    circuit or a label was tampered with.
    """
    if len(gen_labels) != len(circuit.gen_input_wires):
        raise RejectedInputError("wrong generator label count")
    if len(eval_labels) != len(circuit.eval_input_wires):
        raise RejectedInputError("wrong evaluator label count")
    labels: list[Optional[bytes]] = [None] * circuit.n_wires
    for w, lab in zip(circuit.gen_input_wires, gen_labels):
        labels[w] = lab
    for w, lab in zip(circuit.eval_input_wires, eval_labels):
        labels[w] = lab
    for w, lab in circuit.const_wires:
        labels[w] = lab

    for gi, gate in enumerate(circuit.gates):
        ka = labels[gate.in1]
        kb = labels[gate.in2]
        if ka is None or kb is None:
            raise CorruptedCircuitError(f"gate {gi} evaluated before its inputs")
        slot = 2 * (ka[-1] & 1) + (kb[-1] & 1)  # _permute_bit, inlined
        plain = int.from_bytes(gate.rows[slot], "big") ^ _row_pad(ka, kb, gi, slot)
        if plain & _TAG_MASK:
            raise CorruptedCircuitError(f"row {slot} of gate {gi} fails its tag check")
        labels[gate.out] = (plain >> _TAG_BITS).to_bytes(LABEL_BYTES, "big")
    return labels[circuit.output_wire]


def decode_output(circuit: GarbledCircuit, label: bytes) -> int:
    """Map the output label to its cleartext bit via the published map."""
    try:
        return circuit.output_map[label]
    except KeyError:
        raise CorruptedCircuitError("output label not in decode map") from None


# ---------------------------------------------------------------------------
# oblivious transfer


@dataclass(frozen=True)
class OTGroup:
    """Prime-order subgroup of Z_p* (p safe prime, g generates order q).

    :meth:`pow_g` reads powers of the fixed generator off a radix-256
    table (Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992; Lim
    and Lee, CRYPTO 1994): row i holds g**(d * 256**i) for d = 1..255,
    one row per byte of q. The table is built on the first call and
    kept for the group's lifetime.
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
        p, base, rows = self.p, self.g, []
        for _ in range((self.q.bit_length() + 7) // 8):
            row = [base]
            for _ in range(254):
                row.append(row[-1] * base % p)
            rows.append(tuple(row))
            base = row[-1] * base % p  # this row's base to the 256th: the next row's
        return tuple(rows)

    def pow_g(self, e: int) -> int:
        """``pow(g, e, p)``: one modular product per nonzero byte of
        ``e mod q``, which names the same power because g has order q."""
        table, p, acc = self._g_table, self.p, 1
        for row, digit in zip(table, (e % self.q).to_bytes(len(table), "little")):
            if digit:
                acc = acc * row[digit - 1] % p
        return acc


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
    """Wire messages of one transfer, as (sender_tag, payload) pairs."""

    messages: list[tuple[str, bytes]] = field(default_factory=list)

    def receiver_message(self) -> bytes:
        for who, payload in self.messages:
            if who == "receiver":
                return payload
        return b""

    def total_bytes(self) -> int:
        return sum(len(p) for _, p in self.messages)


def _hash_to_key(group: OTGroup, x: int, slot: int) -> bytes:
    return hashlib.sha256(group.encode(x) + bytes([slot])).digest()[:LABEL_BYTES]


class DiffieHellmanOT:
    """1-of-2 oblivious transfer over a prime-order group, with one
    sender exponent for both ciphertexts (Naor and Pinkas, SODA 2001)
    and an inverse-free receiver key (Chou and Orlandi, LATINCRYPT 2015).

    The sender sends ``C = g^z``. The receiver sends ``B = g^x * C^bit``,
    computed as ``g^x`` times 1 or ``C``, so both bits take the same
    operations. The sender draws one ``r`` and sends ``u = g^r`` with
    ``m0 ^ H(B^r, 0)`` and ``m1 ^ H((B/C)^r, 1)``; it gets the second key
    as ``B^r * g^(-z*r)`` without inverting anything, because it knows
    ``z``. The receiver's own key is ``u^x = g^(x*r)``.

    * The choice bit is hidden: ``B`` is uniform in the group for either
      bit, so the sender learns nothing from it.
    * The other label is hidden: the other key differs from ``u^x`` by a
      factor of ``C^r`` or ``C^-r``, and ``C^r`` is the Diffie-Hellman
      value of ``C`` and ``u``, which the receiver cannot compute
      (computational Diffie-Hellman, in the random-oracle model for H).

    Per transfer: two variable-base exponentiations (``B^r``, ``u^x``),
    four powers of g, no inverse, three exponent draws and three group
    elements on the wire. Exponents come from the operating system's
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

    def exchange(self, m0: bytes, m1: bytes, bit: int) -> tuple[bytes, OTTranscript]:
        if bit not in (0, 1):
            raise RejectedInputError(f"choice bit {bit}")
        if len(m0) != LABEL_BYTES or len(m1) != LABEL_BYTES:
            raise RejectedInputError("OT payloads must be wire labels")
        p, grp = self.group.p, self.group
        t = OTTranscript()
        # sender: random element of unknown dlog to the receiver
        z = self._rand_exp()
        c = grp.pow_g(z)
        t.messages.append(("sender", grp.encode(c)))
        # receiver: g^x on the chosen side, shifted by c when bit is 1
        x = self._rand_exp()
        b = grp.pow_g(x) * (1, c)[bit] % p
        t.messages.append(("receiver", grp.encode(b)))
        # sender: one r for both keys, b^r and (b/c)^r = b^r * g^(-z*r)
        r = self._rand_exp()
        u = grp.pow_g(r)
        s0 = pow(b, r, p)
        s1 = s0 * grp.pow_g(-z * r) % p
        cts = (_xor(m0, _hash_to_key(grp, s0, 0)), _xor(m1, _hash_to_key(grp, s1, 1)))
        t.messages.append(("sender", grp.encode(u) + cts[0] + cts[1]))
        # receiver decrypts its side
        out = _xor(cts[bit], _hash_to_key(grp, pow(u, x, p), bit))
        return out, t

    def transfer_bytes(self) -> int:
        e = self.group.element_bytes
        return 3 * e + 2 * LABEL_BYTES


class TrustedDealerOT:
    """Dealer stand-in with the same interface: it hands over the chosen
    message and moves one byte. It is the default OT of
    :func:`secure_compare` and :class:`GarbledCompareBackend`, which
    therefore hide no choice bit unless given a :class:`DiffieHellmanOT`."""

    def exchange(self, m0: bytes, m1: bytes, bit: int) -> tuple[bytes, OTTranscript]:
        if bit not in (0, 1):
            raise RejectedInputError(f"choice bit {bit}")
        t = OTTranscript(messages=[("dealer", b"\x00")])
        return (m0, m1)[bit], t

    def transfer_bytes(self) -> int:
        return 1


# ---------------------------------------------------------------------------
# end-to-end comparison


def comparison_bytes(bitwidth: int, ot) -> int:
    """Bytes one comparison moves besides the circuit: the generator's
    active labels plus one transfer per evaluator bit."""
    return bitwidth * (LABEL_BYTES + ot.transfer_bytes())


def _compare(template: ComparatorTemplate, gen_value: float, eval_value: float, ot) -> int:
    """Encode both values, fetch the evaluator's labels bit by bit through
    OT (it never sees the generator's key table), evaluate and decode."""
    circuit = template.circuit
    a, b = (FixedPoint.encode(v, circuit.bitwidth) for v in (gen_value, eval_value))
    eval_labels = [ot.exchange(*k, bit)[0] for k, bit in zip(template.eval_keys, b.bits_lsb())]
    out = eval_circuit(circuit, select_input_labels(template.gen_keys, a), eval_labels)
    return decode_output(circuit, out)


def secure_compare(
    gen_value: float,
    eval_value: float,
    theta: float,
    bitwidth: int = 16,
    seed: int = 0,
    ot=None,
) -> int:
    """One-time two-party comparison: returns 1 iff |a - b| <= theta.

    Garbles a fresh comparator from ``seed`` for this one comparison;
    :class:`GarbledCompareBackend` is the way to reuse one template.
    """
    template = garble_comparator(bitwidth, theta, seed)
    return _compare(template, gen_value, eval_value,
                    ot if ot is not None else TrustedDealerOT())


class PlainCompareBackend:
    """Threshold compare without cryptography; same fixed-point semantics.

    The cleartext reference that the garbled path and the simulator's
    voting shortcut are tested against. It reports no bytes. The
    simulator runs no comparison; it accounts their cost through
    :func:`comparator_size` and :func:`comparison_bytes`.
    """

    def __init__(self, theta: float, bitwidth: int = 16):
        self.theta = FixedPoint.encode(theta, bitwidth)
        self.bitwidth = bitwidth
        self.comparisons = 0

    def compare(self, gen_value: float, eval_value: float) -> int:
        a = FixedPoint.encode(gen_value, self.bitwidth)
        b = FixedPoint.encode(eval_value, self.bitwidth)
        self.comparisons += 1
        return plain_within_theta(a.raw, b.raw, self.theta.raw)


class GarbledCompareBackend:
    """Comparison backend that actually garbles and evaluates.

    The template is garbled once (per epoch) and serves every compare:
    the library's one place that reuses a garbled circuit. Each compare
    ships fresh active labels and runs OT per evaluator bit.
    """

    def __init__(self, theta: float, bitwidth: int = 16, seed: int = 0, ot=None):
        self.template = garble_comparator(bitwidth, theta, seed)
        self.ot = ot if ot is not None else TrustedDealerOT()
        self.bitwidth = bitwidth
        self.comparisons = 0
        self.bytes_moved = comparator_size(bitwidth)[1]

    def compare(self, gen_value: float, eval_value: float) -> int:
        bit = _compare(self.template, gen_value, eval_value, self.ot)
        self.comparisons += 1
        self.bytes_moved += comparison_bytes(self.bitwidth, self.ot)
        return bit
