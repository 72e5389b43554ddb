"""
Committee agreement and block verification
==========================================

One library round among six miners: each mines the shared mempool at
its own budget, all vote on each other's matrices over garbled
comparators, a rotating committee commits when a two-thirds quorum
agrees on the tally, the leader packs a block of clustered
transactions, and a committee member re-verifies it against the
priorities it computes itself: producer, flag layout, merkle root,
membership, and priority order inside every cluster segment.
"""
import numpy as np

from pous.committee import CommitteeConfig, RoundTimers, agree, quorum_threshold, select_committee
from pous.round import run_round
from pous.similarity import DataView, Transaction

miners = range(1, 7)
cfg = CommitteeConfig(size=4, selection_seed=11, rotation_period=5)

for r in (0, 4, 5):
    print(f"round {r}: committee {select_committee(list(miners), cfg, r)}")
print("quorum threshold at size 4:", quorum_threshold(4))

timers = RoundTimers.split_interval(start=0.0, interval=600.0)
print(f"windows: mine until {timers.mining_deadline}, vote until "
      f"{timers.voting_deadline}, count at {timers.result_waiting_deadline}")

# every miner sees the whole mempool and has its own budget of the 28 pairs
rng = np.random.default_rng(3)
mempool = [
    Transaction(id=i, source_user=int(rng.integers(1, 9)),
                tx_class="ABCDEF"[int(rng.integers(6))], fee=float(rng.uniform(0, 0.001)),
                submit_time=float(rng.uniform(0, 500)))
    for i in range(1, 40)
]
views = dict.fromkeys(miners, DataView((), tuple(mempool)))
budgets = dict(zip(miners, (int(b) for b in rng.permutation([3, 6, 10, 15, 20, 28]))))
print("budgets:", budgets)

out = run_round(views, 8, budgets, seeds={m: 100 + m for m in miners}, theta=0.05,
                committee=cfg, capacity=12, now=timers.result_waiting_deadline)
decision = out.decision
print(f"round 0 decided: leader {decision.leader}, "
      f"{decision.quorum_count} of {cfg.size} members agree")
print("bytes moved:", ", ".join(f"{kind} {size}" for kind, size in out.sent.items()))
print(f"block of {len(out.block.body)} transactions verifies: {out.verdict}")

# one member equivocates; the other three still reach the quorum
members = select_committee(list(miners), cfg, 0)
submissions = dict.fromkeys(members, out.tally)
submissions[members[-1]] = (13, "ffffff")
again = agree(submissions, cfg.size)
print(f"with one equivocating member: leader {again.leader}, "
      f"{again.quorum_count} of {cfg.size} members agree")
