"""
Committee agreement and block verification
==========================================

A rotating committee collects tally submissions inside a timing
window, commits when a two-thirds quorum agrees, and re-verifies the
leader's block: producer, flag layout, merkle root, membership, and
priority order inside every cluster segment.
"""
import numpy as np

from pous.committee import (
    CommitteeConfig,
    RoundTimers,
    agree,
    quorum_threshold,
    select_committee,
    verify_block,
)
from pous.packing import PriorityWeights, cluster_mempool, pack_block, tx_priority
from pous.similarity import Transaction

miners = list(range(1, 21))
cfg = CommitteeConfig(size=5, selection_seed=11, rotation_period=5)

for r in (0, 4, 5):
    print(f"round {r}: committee {select_committee(miners, cfg, r)}")
print("quorum threshold at size 5:", quorum_threshold(5))

timers = RoundTimers.split_interval(start=0.0, interval=600.0)
print(f"windows: mine until {timers.mining_deadline}, vote until "
      f"{timers.voting_deadline}, count at {timers.result_waiting_deadline}")

# four members report the honest tally; one equivocates
committee = select_committee(miners, cfg, 0)
honest = (7, "a1b2c3")
submissions = {m: honest for m in committee[:-1]}
submissions[committee[-1]] = (13, "ffffff")
decision = agree(submissions, cfg.size, round_index=0)
print(f"round 0 decided: leader {decision.leader}, "
      f"{decision.quorum_count} of {cfg.size} members agree")

# the decided leader packs a block; anyone can re-check it
rng = np.random.default_rng(3)
vectors = {u: rng.normal(size=4) for u in range(1, 9)}
mempool = [
    Transaction(id=i, source_user=int(rng.integers(1, 9)),
                tx_class="A", fee=float(rng.uniform(0, 0.001)),
                submit_time=float(rng.uniform(0, 500)))
    for i in range(1, 40)
]
lookup = {t.id: t for t in mempool}
clusters = cluster_mempool(mempool, vectors, k=3, seed=0)
weights = PriorityWeights()
block = pack_block(clusters, weights, capacity=12, now=600.0,
                   prev_hash=bytes(32), tx_lookup=lookup, producer=decision.leader)

snapshot = {}
for cl in clusters:
    for tid in cl.tx_ids:
        snapshot[tid] = tx_priority(lookup[tid], 600.0, cl, weights)

ok, reason = verify_block(block, decision, snapshot)
print("honest block verifies:", ok, f"({reason})")

forged = pack_block(clusters, weights, capacity=12, now=600.0,
                    prev_hash=bytes(32), tx_lookup=lookup, producer=13)
ok, reason = verify_block(forged, decision, snapshot)
print("forged producer rejected:", not ok, f"({reason})")
