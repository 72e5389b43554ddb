"""
Comparing similarity entries without revealing them
===================================================

Two miners hold private similarity values a and b and want one bit:
is |a - b| within the tolerance theta? The generator garbles a
fixed-point comparator once per epoch; the evaluator fetches its input
labels through 1-of-2 oblivious transfer and evaluates blind. A
one-off comparison garbles its own circuit with secure_compare.
"""
import dataclasses
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
print(f"comparator at width 16: {len(circuit.gates)} gates,",
      f"{len(circuit.serialize())} bytes on the wire")

cases = [(0.41, 0.44), (0.41, 0.50), (0.97, 0.93), (0.10, 0.80)]
for a, b in cases:
    verdict = "approve" if epoch.compare(a, b) else "reject"
    print(f"  |{a:.2f} - {b:.2f}| <= 0.05 ? {verdict}")
print("one-off comparison, fresh circuit: |0.30 - 0.90| <= 0.7 ?",
      "approve" if secure_compare(0.30, 0.90, theta=0.7, ot=ot) else "reject")

_, transcript = ot.exchange(bytes(16), bytes(range(16)), 0)
print("\noblivious transfer moves", transcript.total_bytes(),
      "bytes per evaluator input bit")

# one flipped ciphertext byte and the evaluator notices
broken = GarbledCompareBackend(theta=0.4, bitwidth=8, seed=3)
gates = list(broken.template.circuit.gates)
gates[0] = dataclasses.replace(gates[0], rows=tuple(
    bytes([r[0] ^ 0xFF]) + r[1:] for r in gates[0].rows
))
broken.template.circuit.gates = tuple(gates)
try:
    broken.compare(0.5, 0.5)
    print("tampering went unnoticed (should never happen)")
except CorruptedCircuitError as exc:
    print("tampered circuit rejected:", exc)
