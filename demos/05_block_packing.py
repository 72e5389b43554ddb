"""
Clustered block packing and the flag field
==========================================

The leader clusters the mempool by user similarity, ranks transactions
by waiting time, fee, and distance to the cluster center, and packs
the top R as contiguous cluster segments. One flag bit per slot marks
where segments begin, so verifiers recover the layout from the header
alone.
"""
import numpy as np

from pous.packing import (
    PriorityWeights,
    cluster_mempool,
    cluster_sizes,
    decode_flag,
    pack_block,
    pca_project,
    tx_priority,
)
from pous.similarity import Transaction

rng = np.random.default_rng(12)

# three behavioral archetypes, seven users each
archetypes = np.array([
    [9.0, 1.0, 0.5, 0.2, 0.1, 0.1],
    [0.5, 8.0, 6.0, 0.3, 0.2, 0.0],
    [0.2, 0.3, 0.5, 7.0, 5.0, 2.0],
])
vectors = {}
for u in range(1, 22):
    vectors[u] = archetypes[(u - 1) % 3] + rng.normal(0, 0.4, 6)

# one batch submitted together: with equal waiting time the
# distance-to-center term decides the ranking
mempool = [
    Transaction(id=i, source_user=(i - 1) % 21 + 1, tx_class="A",
                fee=float(rng.uniform(0, 0.001)), submit_time=0.0)
    for i in range(1, 85)
]
lookup = {t.id: t for t in mempool}

clusters = cluster_mempool(mempool, vectors, k=3, seed=4)
for cl in clusters:
    print(f"cluster {cl.id}: {len(cl.tx_ids)} txs from users "
          f"{list(cl.users)}")

weights = PriorityWeights(a=0.5, b=2.0, c=1.0)
now = 600.0
sample = clusters[0].tx_ids[0]
print(f"\npriority of tx {sample}:",
      round(tx_priority(lookup[sample], now, clusters[0], weights), 3))

block = pack_block(clusters, weights, capacity=24, now=now,
                   prev_hash=bytes(32), tx_lookup=lookup)
offsets = decode_flag(block.header)
sizes = cluster_sizes(offsets, len(block.body))
bits = "".join(f"{byte:08b}" for byte in block.header.flag)
print(f"\npacked {len(block.body)} of {len(mempool)} txs")
print("flag bits:", bits[:block.header.capacity])
print("segment offsets", offsets, "-> sizes", sizes)

coords = pca_project(np.stack(list(vectors.values())))
spread = coords.var(axis=0)
print("\n2-D projection variance per axis:", np.round(spread, 2),
      "(first axis dominates)" if spread[0] >= spread[1] else "")
