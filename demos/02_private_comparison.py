"""
Comparing similarity entries without revealing them
===================================================

Two miners hold private similarity values a and b and want one bit:
is |a - b| within the tolerance theta? The generator garbles a
fixed-point comparator once per epoch; the evaluator fetches its input
labels through oblivious transfer, one batch per comparison and two input
bits per transfer, and evaluates blind. A one-off comparison garbles its own circuit with
secure_compare.

The wiring is public and the threshold only picks gate tables, so the
circuit's bytes are its rows and decode map. Each bit of the subtractor
is one gate with two outputs, the difference bit and the borrow, so a
row carries two labels there; the evaluator opens one row per gate. The comparator is
semi-honest: a generator that garbled other tables on the same wiring
could read the voter's bits or approve every pair, and the evaluator
could not tell. What the evaluator does catch is a row that
was altered after garbling.
"""
import random

from pous.garbled import (
    FAST_GROUP,
    CorruptedCircuitError,
    DiffieHellmanOT,
    GarbledCompareBackend,
    secure_compare,
)

ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(7))
epoch = GarbledCompareBackend(theta=0.05, bitwidth=16, seed=2024, ot=ot)
circuit = epoch.template.circuit
print(f"comparator at width 16: {len(circuit.gates)} gates of",
      f"{sum(map(len, circuit.gates))} rows, {len(circuit.serialize())} bytes on the wire")

cases = [(0.41, 0.44), (0.41, 0.50), (0.97, 0.93), (0.10, 0.80)]
for a, b in cases:
    verdict = "approve" if epoch.compare(a, b) else "reject"
    print(f"  |{a:.2f} - {b:.2f}| <= 0.05 ? {verdict}")
print("one-off comparison, fresh circuit: |0.30 - 0.90| <= 0.7 ?",
      "approve" if secure_compare(0.30, 0.90, theta=0.7, ot=ot) else "reject")

# one batch carries a comparison's 16 evaluator input bits, two per transfer
_, transcript = ot.exchange([(bytes(16), bytes(range(16)))] * 16, [0, 1] * 8)
print("\noblivious transfer moves", transcript.total_bytes(),
      "bytes per width-16 comparison in 8 transfers",
      f"({ot.transfer_bytes(1)} for a batch of one bit)")

# one flipped ciphertext byte and the evaluator notices: the byte is in
# gate 0's first label, so the gate that reads that label fails its check
broken = GarbledCompareBackend(theta=0.4, bitwidth=8, seed=3)
gates = broken.template.circuit.gates
first = tuple(bytes([r[0] ^ 0xFF]) + r[1:] for r in gates[0])
broken.template.circuit.gates = (first, *gates[1:])
try:
    broken.compare(0.5, 0.5)
    print("tampering went unnoticed (should never happen)")
except CorruptedCircuitError as exc:
    print("tampered circuit rejected:", exc)
