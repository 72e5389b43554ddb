"""Garbled-circuit two-party comparison of similarity entries.

Voting on someone else's similarity matrix must not reveal either side's
values. The candidate (generator) garbles a fixed comparator circuit
that answers one question: is ``|a - b| <= theta``? Values are encoded
as unsigned fixed-point integers; the public threshold is baked into the
circuit as constant wires. The voter (evaluator) learns one bit and
nothing else; the generator learns nothing.

Construction notes:

* Every wire carries two random 128-bit labels (one per truth value).
  A gate row is the output label plus a 32-bit all-zero tag, encrypted
  under both matching input labels; the four rows are shuffled by a
  seeded permutation. The evaluator simply tries rows until the tag
  checks out, so no row-pointer bits leak. A forged row passes the tag
  check with probability 2**-32.
* "Encryption" is a SHA256-keyed stream: the pad is the digest of the
  two input labels plus a per-gate, per-row tweak, which keeps pads
  unique even though wire labels feed many gates.
* The evaluator's input labels travel through 1-of-2 oblivious transfer
  (a Diffie-Hellman construction over a safe-prime group, or a trusted
  dealer stand-in with the same interface for large simulations).

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
from typing import Optional

from .errors import ConfigurationError, CorruptedCircuitError, RejectedInputError

LABEL_BYTES = 16
TAG = b"\x00\x00\x00\x00"
ROW_BYTES = LABEL_BYTES + len(TAG)

GATE_KINDS = ("AND", "OR", "XOR", "XNOR", "ANDNOT")
# truth tables indexed by 2*a + b; ANDNOT(a, b) = a AND (NOT b)
_TABLES = {
    "AND": (0, 0, 0, 1),
    "OR": (0, 1, 1, 1),
    "XOR": (0, 1, 1, 0),
    "XNOR": (1, 0, 0, 1),
    "ANDNOT": (0, 0, 1, 0),
}


class KeyStream:
    """Deterministic byte stream from SHA256 in counter mode.

    Used for wire labels and row permutations so that one integer seed
    reproduces a garbled circuit byte for byte.
    """

    def __init__(self, seed: int, domain: bytes = b"pous-gc"):
        self._state = hashlib.sha256(domain + seed.to_bytes(16, "big", signed=True)).digest()
        self._counter = 0
        self._buf = b""

    def randbytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.sha256(
                self._state + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def randint(self, upper: int) -> int:
        """Uniform int in [0, upper) via rejection sampling."""
        nbytes = (upper.bit_length() + 7) // 8 + 1
        while True:
            v = int.from_bytes(self.randbytes(nbytes), "big")
            lim = (1 << (8 * nbytes)) // upper * upper
            if v < lim:
                return v % upper

    def shuffle4(self) -> tuple[int, int, int, int]:
        order = [0, 1, 2, 3]
        for i in range(3, 0, -1):
            j = self.randint(i + 1)
            order[i], order[j] = order[j], order[i]
        return tuple(order)


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
        parts = [b"PGC1", struct.pack("<BIII I I", self.bitwidth, self.n_wires,
                                      len(self.gen_input_wires), len(self.eval_input_wires),
                                      len(self.const_wires), len(self.gates))]
        parts.append(struct.pack(f"<{len(self.gen_input_wires)}I", *self.gen_input_wires))
        parts.append(struct.pack(f"<{len(self.eval_input_wires)}I", *self.eval_input_wires))
        for wire, label in self.const_wires:
            parts.append(struct.pack("<I", wire) + label)
        for g in self.gates:
            parts.append(struct.pack("<BIII", GATE_KINDS.index(g.kind), g.in1, g.in2, g.out))
            parts.extend(g.rows)
        parts.append(struct.pack("<I", self.output_wire))
        for label in sorted(self.output_map):
            parts.append(label + struct.pack("<B", self.output_map[label]))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "GarbledCircuit":
        if raw[:4] != b"PGC1":
            raise CorruptedCircuitError("bad circuit magic")
        off = 4
        bitwidth, n_wires, n_gen, n_eval, n_const, n_gates = struct.unpack_from("<BIIIII", raw, off)
        off += struct.calcsize("<BIIIII")
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
            kid, i1, i2, o = struct.unpack_from("<BIII", raw, off)
            off += struct.calcsize("<BIII")
            rows = []
            for _ in range(4):
                rows.append(raw[off:off + ROW_BYTES])
                off += ROW_BYTES
            gates.append(GarbledGate(GATE_KINDS[kid], i1, i2, o, tuple(rows)))
        (out_wire,) = struct.unpack_from("<I", raw, off)
        off += 4
        omap = {}
        while off < len(raw):
            label = raw[off:off + LABEL_BYTES]
            off += LABEL_BYTES
            (bit,) = struct.unpack_from("<B", raw, off)
            off += 1
            omap[label] = bit
        return cls(bitwidth, n_wires, tuple(gen), tuple(ev), tuple(consts),
                   tuple(gates), out_wire, omap)


def _row_pad(outer: bytes, inner: bytes, gate_index: int, slot: int) -> bytes:
    tweak = struct.pack("<IB", gate_index, slot)
    return hashlib.sha256(outer + inner + tweak).digest()[:ROW_BYTES]


def gen_gate(
    kind: str,
    in1_keys: tuple[bytes, bytes],
    in2_keys: tuple[bytes, bytes],
    out_keys: tuple[bytes, bytes],
    gate_index: int,
    in1: int,
    in2: int,
    out: int,
    stream: KeyStream,
) -> GarbledGate:
    """Garble one two-input gate.

    Each of the four input combinations double-encrypts the matching
    output label (tag appended); the row order is a fresh seeded
    permutation.
    """
    table = _TABLES[kind]
    combos = [(a, b) for a in (0, 1) for b in (0, 1)]
    order = stream.shuffle4()
    rows: list[bytes] = [b""] * 4
    for slot, combo_idx in enumerate(order):
        a, b = combos[combo_idx]
        plain = out_keys[table[2 * a + b]] + TAG
        pad = _row_pad(in1_keys[a], in2_keys[b], gate_index, slot)
        rows[slot] = bytes(x ^ y for x, y in zip(plain, pad))
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

    def ge(self, xs: list[int], ys: list[int]) -> int:
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

    def mux(self, sel: int, xs: list[int], ys: list[int]) -> list[int]:
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
    b = _Builder()
    a_wires = [b.wire() for _ in range(bitwidth)]
    b_wires = [b.wire() for _ in range(bitwidth)]
    t_wires = [b.wire() for _ in range(bitwidth)]
    sel = b.ge(a_wires, b_wires)
    hi = b.mux(sel, a_wires, b_wires)
    lo = b.mux(sel, b_wires, a_wires)
    diff = b.sub(hi, lo)
    out = b.ge(t_wires, diff)

    stream = KeyStream(seed)
    keys = [(stream.randbytes(LABEL_BYTES), stream.randbytes(LABEL_BYTES))
            for _ in range(b.n_wires)]
    garbled = tuple(
        gen_gate(kind, keys[i1], keys[i2], keys[o], gi, i1, i2, o, stream)
        for gi, (kind, i1, i2, o) in enumerate(b.gates)
    )
    theta_bits = theta_fp.bits_lsb()
    consts = tuple((w, keys[w][bit]) for w, bit in zip(t_wires, theta_bits))
    circuit = GarbledCircuit(
        bitwidth=bitwidth,
        n_wires=b.n_wires,
        gen_input_wires=tuple(a_wires),
        eval_input_wires=tuple(b_wires),
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


# rows eval_circuit decrypts per gate on average: the valid row sits at a
# uniformly shuffled slot among four, so (1 + 2 + 3 + 4) / 4
ROW_TRIES = 2.5


def eval_circuit(
    circuit: GarbledCircuit,
    gen_labels: list[bytes],
    eval_labels: list[bytes],
) -> bytes:
    """Run the garbled circuit on active labels; returns the output label.

    For every gate the evaluator tries the four rows and keeps the
    single one whose tag decrypts to zero. Anything else means the
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

    sha = hashlib.sha256
    tweaks = [struct.pack("<IB", gi, s) for gi in range(len(circuit.gates)) for s in range(4)]
    for gi, gate in enumerate(circuit.gates):
        ka = labels[gate.in1]
        kb = labels[gate.in2]
        if ka is None or kb is None:
            raise CorruptedCircuitError(f"gate {gi} evaluated before its inputs")
        base = ka + kb
        found = None
        toff = 4 * gi
        for slot in range(4):
            pad = sha(base + tweaks[toff + slot]).digest()
            row = gate.rows[slot]
            tag = bytes(row[i] ^ pad[i] for i in range(LABEL_BYTES, ROW_BYTES))
            if tag == TAG:
                found = bytes(row[i] ^ pad[i] for i in range(LABEL_BYTES))
                break
        if found is None:
            raise CorruptedCircuitError(f"no row of gate {gi} carries a valid tag")
        labels[gate.out] = found
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
    """Prime-order subgroup of Z_p* (p safe prime, g generates order q)."""

    p: int
    q: int
    g: int

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode(self, x: int) -> bytes:
        return x.to_bytes(self.element_bytes, "big")


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


def _hash_to_key(group: OTGroup, x: int) -> bytes:
    return hashlib.sha256(group.encode(x)).digest()[:LABEL_BYTES]


class DiffieHellmanOT:
    """1-of-2 oblivious transfer over a prime-order group.

    The receiver builds two public keys whose product is a group element
    of unknown discrete log, so it can decrypt exactly one ciphertext;
    the key it sends is uniform either way, so the sender learns nothing
    about the choice bit. Exponents come from the operating system's
    cryptographic source unless a (seeded, reproducible) ``rng`` is
    injected.
    """

    name = "dh"

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
        g, p, grp = self.group.g, self.group.p, self.group
        t = OTTranscript()
        # sender: random element of unknown dlog to the receiver
        z = self._rand_exp()
        c = pow(g, z, p)
        t.messages.append(("sender", grp.encode(c)))
        # receiver: key pair with the trapdoor on the chosen side
        x = self._rand_exp()
        pk_b = pow(g, x, p)
        pk_other = (c * pow(pk_b, p - 2, p)) % p
        pk0 = pk_b if bit == 0 else pk_other
        t.messages.append(("receiver", grp.encode(pk0)))
        # sender: hashed-ElGamal under both keys
        pk1 = (c * pow(pk0, p - 2, p)) % p
        cts = []
        for pk, m in ((pk0, m0), (pk1, m1)):
            r = self._rand_exp()
            u = pow(g, r, p)
            key = _hash_to_key(grp, pow(pk, r, p))
            ct = bytes(a ^ b for a, b in zip(m, key))
            cts.append((u, ct))
            t.messages.append(("sender", grp.encode(u) + ct))
        # receiver decrypts its side
        u, ct = cts[bit]
        key = _hash_to_key(grp, pow(u, x, p))
        out = bytes(a ^ b for a, b in zip(ct, key))
        return out, t

    def transfer_bytes(self) -> int:
        e = self.group.element_bytes
        return e + e + 2 * (e + LABEL_BYTES)


class TrustedDealerOT:
    """Dealer stand-in with the same interface, for large simulations."""

    name = "dealer"

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
    template: Optional[ComparatorTemplate] = None,
) -> int:
    """Full two-party comparison: returns 1 iff |a - b| <= theta.

    ``template`` allows reusing one epoch circuit across many rounds;
    otherwise a fresh one is garbled from ``seed``.
    """
    if template is None:
        template = garble_comparator(bitwidth, theta, seed)
    return _compare(template, gen_value, eval_value,
                    ot if ot is not None else TrustedDealerOT())


class PlainCompareBackend:
    """Threshold compare without cryptography; same fixed-point semantics.

    Large network simulations swap this in for the garbled path; it
    reports no bytes, and the simulator accounts them through
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

    The template is garbled once (per epoch); each compare ships fresh
    active labels and runs OT per evaluator bit.
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
