"""
Mining user similarity under a work budget
==========================================

Two miners tally six users' transactions into per-class count vectors
and each fills a similarity matrix pair by pair until its budget runs
out. Entries a miner never reached stay null; the matrix ships as
compressed row triples of the entries it did fill.
"""
import numpy as np

from pous.similarity import (
    DataView,
    Transaction,
    build_user_vectors,
    compute_usm,
    similarity,
    unflatten_index,
)

rng = np.random.default_rng(1)

# a day of traffic: users favor different transaction classes
classes = "ABCDEF"
history = [
    Transaction(id=i, source_user=int(rng.integers(1, 7)),
                tx_class=classes[int(rng.integers(0, 6))], fee=0.0001)
    for i in range(1, 120)
]
view = DataView(history=history, mempool=[])
vectors = build_user_vectors(view, n_users=6)
for v in vectors:
    print(f"user {v.user}: class counts {v.counts.astype(int)}")

print("\npairwise similarity of users 1 and 2:",
      round(similarity(vectors[0], vectors[1]), 4))

# a rich miner computes every pair; a poor one only the first five
rich = compute_usm(vectors, budget=None, owner=1)
poor = compute_usm(vectors, budget=5, owner=2)
print("\nrich miner filled", len(rich.computed_indices), "entries")
print("poor miner filled", len(poor.computed_indices), "entries; the rest stay null")
print("poor miner's pairs, each stored both ways, plus a diagonal 1 per user seen:")
for j in poor.computed_indices:
    k, l = unflatten_index(j, 6)
    if k < l:
        print(f"  users {k} and {l}: {poor.get(j):.3f}")

blob = poor.crs_bytes()
print("\ncompressed row storage:", len(blob), "bytes for",
      len(poor.computed_indices), "entries")
