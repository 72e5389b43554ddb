"""
Approval voting with truth-serum rewards
========================================

Five miners vote on each other's similarity matrices entry by entry,
reporting an approval bit and a prediction of how often others will
approve. Each comparison is a garbled circuit the candidate ships as
bytes, and the votes reach the tally as bytes too. Honest agreement
earns information plus prediction score; one miner submits a corrupted
matrix and collects approvals near zero.
"""
import numpy as np

from pous.bts import score_sheet
from pous.round import vote
from pous.similarity import Transaction, DataView, build_user_vectors, compute_usm

rng = np.random.default_rng(5)
n_users, m_miners = 8, 5

history = [
    Transaction(id=i, source_user=int(rng.integers(1, n_users + 1)),
                tx_class="ABCDEF"[int(rng.integers(0, 6))], fee=0.0)
    for i in range(1, 200)
]
vectors = build_user_vectors(DataView(history=history, mempool=[]), n_users)

# four honest miners compute the same full matrix; miner 5 garbles tens
# of entries before publishing
matrices = {m: compute_usm(vectors, owner=m) for m in range(1, m_miners + 1)}
for j in list(matrices[5].computed_indices)[::3]:
    matrices[5].set_entry(j, 0.999)

records, result, sent = vote(matrices, theta=0.05, seeds={m: m for m in matrices})
print("vote records cast:", len(records))
print("bytes moved:", ", ".join(f"{kind} {size}" for kind, size in sent.items()))

for cand in range(1, m_miners + 1):
    print(f"  miner {cand}: approval mass {result.totals[cand]:.2f}")
wins = np.bincount(
    [owner for owner, _ in result.global_best.values()], minlength=m_miners + 1
)
print("round leader:", result.leader,
      "| per-entry best copies won:", dict(enumerate(wins.tolist())))

print("\ntruth-serum scores (information + prediction):")
for voter in range(1, m_miners + 1):
    sheet = score_sheet(voter, records, m_miners, n_users)
    print(f"  miner {voter}: {sheet.information:8.2f} + {sheet.prediction:8.2f}"
          f" = {sheet.total:8.2f}")
