"""Approval voting over similarity matrices, scored as a truth serum.

Each miner votes on every other miner's matrix: entry by entry, a
two-party comparison checks whether the two independently computed
values agree within a public threshold. Votes come with a prediction
(how often will others approve this entry?), and rewards combine an
information score on a shifted prediction with a plain prediction
score. Truthful voting maximizes the expected reward whenever the
voter's posterior is more extreme than the population prediction, so
rational miners neither flip votes nor copy-paste approvals.

Abstentions (entries one side never computed) are recorded explicitly:
they count toward the voter population in mean approvals but earn
nothing.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Optional

from .errors import CorruptedCircuitError, ProtocolAbortError, RejectedInputError
from .similarity import SimilarityMatrix, unflatten_index

log = logging.getLogger(__name__)

# the belief each vote reports: approvals expect agreement, rejections expect
# disagreement, abstentions carry an uninformed prior
APPROVE_BELIEF = 0.9
REJECT_BELIEF = 0.1
ABSTAIN_BELIEF = 0.5


@dataclass(frozen=True)
class VoteRecord:
    """One voter's verdict on one entry of one candidate's matrix.

    ``valid=False`` marks an abstention: the pair could not be compared
    (missing entry on either side, or an aborted comparison). Abstention
    approvals are forced to zero.
    """

    voter: int
    candidate: int
    entry: int
    x: int
    y: float
    valid: bool = True

    def __post_init__(self):
        if self.voter < 1 or self.candidate < 1:
            raise RejectedInputError("miner ids are 1-based")
        if self.voter == self.candidate:
            raise RejectedInputError("no self-votes")
        if self.entry < 1:
            raise RejectedInputError("entry index is 1-based")
        if self.x not in (0, 1):
            raise RejectedInputError(f"approval must be 0 or 1, got {self.x}")
        if not 0.0 <= self.y <= 1.0:
            raise RejectedInputError(f"prediction {self.y} outside [0, 1]")
        if not self.valid and self.x != 0:
            raise RejectedInputError("abstentions cannot approve")


def cast_votes(
    voter_matrix: SimilarityMatrix,
    candidate_matrix: SimilarityMatrix,
    compare: Callable[[float, float], int],
) -> list[VoteRecord]:
    """Vote on every off-diagonal entry of the candidate's matrix.

    ``compare(candidate_value, voter_value)`` is the two-party
    comparison; the candidate plays generator, the voter evaluator. A
    comparison abort is logged and becomes an abstention rather than a
    protocol failure, since one bad pair must not sink the whole vote.
    """
    if voter_matrix.n_users != candidate_matrix.n_users:
        raise RejectedInputError("matrices cover different user counts")
    n = voter_matrix.n_users
    records = []
    for j in range(1, n * n + 1):
        k, l = unflatten_index(j, n)
        if k == l:
            continue
        cand_val = candidate_matrix.get(j)
        own_val = voter_matrix.get(j)
        if cand_val is None or own_val is None:
            x, valid = 0, False
        else:
            try:
                x = compare(cand_val, own_val)
                valid = True
            except (ProtocolAbortError, CorruptedCircuitError) as exc:
                log.warning(
                    "comparison aborted for entry %d of miner %d: %s",
                    j, candidate_matrix.owner, exc,
                )
                x, valid = 0, False
        records.append(
            VoteRecord(
                voter=voter_matrix.owner,
                candidate=candidate_matrix.owner,
                entry=j,
                x=x,
                y=(APPROVE_BELIEF if x == 1 else REJECT_BELIEF) if valid else ABSTAIN_BELIEF,
                valid=valid,
            )
        )
    return records


# ---------------------------------------------------------------------------
# tallying


@dataclass
class TallyResult:
    """Aggregate view of a voting round.

    ``mean_approvals`` holds x-bar per (candidate, entry) with the
    fixed denominator m - 1; ``totals`` is its per-candidate sum;
    ``global_best`` maps each entry to the candidate whose copy won the
    approval vote (ties to the lowest miner id) plus that value when
    matrices were supplied.
    """

    m: int
    n: int
    mean_approvals: dict[tuple[int, int], float]
    totals: dict[int, float]
    leader: int
    global_best: dict[int, tuple[int, Optional[float]]]

    def digest(self) -> str:
        h = sha256()
        h.update(struct.pack("<II", self.m, self.n))
        for entry in sorted(self.global_best):
            owner, value = self.global_best[entry]
            h.update(struct.pack("<II", entry, owner))
            h.update(struct.pack("<d", -1.0 if value is None else value))
        return h.hexdigest()


def tally(
    records: list[VoteRecord],
    m: int,
    n: int,
    matrices: Optional[dict[int, SimilarityMatrix]] = None,
) -> TallyResult:
    """Fold vote records into mean approvals, totals, leader, and the
    entry-wise best matrix.

    The denominator of every mean is m - 1: abstainers are voters too.
    Duplicate (voter, candidate, entry) triples are rejected.
    """
    if m < 2:
        raise RejectedInputError("tally needs at least two miners")
    seen: set[tuple[int, int, int]] = set()
    sums: dict[tuple[int, int], float] = {}
    valid_by_entry: dict[tuple[int, int], int] = {}
    for r in records:
        if r.voter > m or r.candidate > m:
            raise RejectedInputError(f"miner id beyond population {m}")
        if r.entry > n * n:
            raise RejectedInputError(f"entry {r.entry} beyond {n}x{n} matrix")
        k, l = unflatten_index(r.entry, n)
        if k == l:
            raise RejectedInputError("diagonal entries are not voted on")
        key = (r.voter, r.candidate, r.entry)
        if key in seen:
            raise RejectedInputError(f"duplicate vote {key}")
        seen.add(key)
        sums[(r.candidate, r.entry)] = sums.get((r.candidate, r.entry), 0.0) + r.x
        if r.valid:
            valid_by_entry[(r.candidate, r.entry)] = (
                valid_by_entry.get((r.candidate, r.entry), 0) + 1
            )

    mean_approvals = {key: s / (m - 1) for key, s in sums.items()}
    totals: dict[int, float] = {}
    for (cand, _entry), xbar in mean_approvals.items():
        totals[cand] = totals.get(cand, 0.0) + xbar
    leader = min(
        (cand for cand in totals),
        key=lambda c: (-totals[c], c),
        default=1,
    )

    global_best: dict[int, tuple[int, Optional[float]]] = {}
    entries = {e for (_c, e) in sums}
    for entry in entries:
        if matrices is not None:
            holders = [c for c, mat in matrices.items() if mat.get(entry) is not None]
        else:
            holders = [c for (c, e) in valid_by_entry if e == entry]
        if not holders:
            continue
        best = min(holders, key=lambda c: (-mean_approvals.get((c, entry), 0.0), c))
        value = matrices[best].get(entry) if matrices is not None else None
        global_best[entry] = (best, value)

    return TallyResult(
        m=m,
        n=n,
        mean_approvals=mean_approvals,
        totals=totals,
        leader=leader,
        global_best=global_best,
    )


# ---------------------------------------------------------------------------
# scoring


def quadratic_score(y: float, x: int) -> float:
    """Proper quadratic score of prediction y against outcome x."""
    if not 0.0 <= y <= 1.0:
        raise RejectedInputError(f"prediction {y} outside [0, 1]")
    if x not in (0, 1):
        raise RejectedInputError(f"outcome must be 0 or 1, got {x}")
    return 2.0 * y - y * y if x == 1 else 1.0 - y * y

def shifted_prediction(own_x: int, y_ref: float) -> float:
    """Push the reference prediction toward the voter's own verdict.

    The shift is the largest symmetric step that keeps both directions
    inside [0, 1], so the transform stays well defined at the ends.
    """
    if not 0.0 <= y_ref <= 1.0:
        raise RejectedInputError(f"prediction {y_ref} outside [0, 1]")
    delta = min(y_ref, 1.0 - y_ref)
    return y_ref + delta if own_x == 1 else y_ref - delta


@dataclass(frozen=True)
class ScoreSheet:
    """Per-voter payout split into its two components."""

    voter: int
    information: float
    prediction: float

    @property
    def total(self) -> float:
        return self.information + self.prediction


def score_sheet(voter: int, records: list[VoteRecord], m: int, n: int) -> ScoreSheet:
    """Itemized payout for one voter in one round.

    The reference miner supplies the prediction to shift; the peer
    miner's actual approvals are the outcomes being scored. Both roles
    are fixed cyclic successors of the voter, so nobody scores
    themselves. Only entries where the voter and the peer both voted
    validly pay out.
    """
    if m < 3:
        raise RejectedInputError("rewards need at least three miners")
    if not 1 <= voter <= m:
        raise RejectedInputError(f"voter {voter} outside 1..{m}")
    ref = voter % m + 1
    peer = (voter + 1) % m + 1
    by_key: dict[tuple[int, int, int], VoteRecord] = {}
    for r in records:
        by_key[(r.voter, r.candidate, r.entry)] = r

    info = 0.0
    pred = 0.0
    for cand in range(1, m + 1):
        if cand == voter:
            continue
        for j in range(1, n * n + 1):
            own = by_key.get((voter, cand, j))
            pr = by_key.get((peer, cand, j))
            if own is None or pr is None or not own.valid or not pr.valid:
                continue
            ref_rec = by_key.get((ref, cand, j))
            if ref_rec is None:
                log.debug("no reference report for candidate %d entry %d", cand, j)
                continue
            y_shift = shifted_prediction(own.x, ref_rec.y)
            info += quadratic_score(y_shift, pr.x)
            pred += quadratic_score(own.y, pr.x)
    return ScoreSheet(voter=voter, information=info, prediction=pred)


def reward(voter: int, records: list[VoteRecord], m: int, n: int) -> float:
    """Total payout for one voter in one round."""
    return score_sheet(voter, records, m, n).total


def expected_quadratic(q: float, p: float) -> float:
    """Expected quadratic score of reporting q when the outcome is
    Bernoulli(p)."""
    return p * quadratic_score(q, 1) + (1.0 - p) * quadratic_score(q, 0)


def expected_scores(p: float, y: float) -> tuple[float, float, float]:
    """Expected score of reporting the true belief p versus reporting y.

    Returns (E[p], E[y], loss) with the expectation under Bernoulli(p).
    The loss is exactly (p - y) squared, so any deviation from the
    honest report costs a strictly positive amount.
    """
    for name, v in (("p", p), ("y", y)):
        if not 0.0 <= v <= 1.0:
            raise RejectedInputError(f"{name}={v} outside [0, 1]")
    e_p = expected_quadratic(p, p)
    e_y = expected_quadratic(y, p)
    return e_p, e_y, e_p - e_y


def strategy_scores(p0: float, p1: float, y: float) -> dict[str, float]:
    """Expected information scores for truthful and flipped voting.

    A voter with a positive signal holds posterior p1 and shifts the
    population prediction y up when truthful; a negative signal holds
    p0 and shifts down. Whenever p0 < y < p1 the truthful column
    strictly dominates, which is what makes honest voting rational.
    """
    for name, v in (("p0", p0), ("p1", p1), ("y", y)):
        if not 0.0 <= v <= 1.0:
            raise RejectedInputError(f"{name}={v} outside [0, 1]")
    if p0 > p1:
        raise RejectedInputError("positive posterior must dominate negative")
    up = shifted_prediction(1, y)
    down = shifted_prediction(0, y)
    return {
        "truthful_pos": expected_quadratic(up, p1),
        "flipped_pos": expected_quadratic(down, p1),
        "truthful_neg": expected_quadratic(down, p0),
        "flipped_neg": expected_quadratic(up, p0),
    }


# ---------------------------------------------------------------------------
# serialization


def votes_to_crs(records: list[VoteRecord], n: int) -> bytes:
    """Compact bytes for one voter's votes on one candidate.

    Only valid votes are stored, as (row, col, x) triples after a small
    header, mirroring the sparse matrix wire format.
    """
    if not records:
        raise RejectedInputError("no records to serialize")
    voter = records[0].voter
    cand = records[0].candidate
    valid = []
    for r in records:
        if r.voter != voter or r.candidate != cand:
            raise RejectedInputError("records span multiple voter-candidate pairs")
        if r.valid:
            valid.append(r)
    valid.sort(key=lambda r: r.entry)
    parts = [struct.pack("<IIII", voter, cand, n, len(valid))]
    for r in valid:
        row, col = unflatten_index(r.entry, n)
        parts.append(struct.pack("<IIB", row, col, r.x))
    return b"".join(parts)


def votes_from_crs(raw: bytes) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """Inverse of votes_to_crs: (voter, candidate, n, [(row, col, x)])."""
    if len(raw) < 16:
        raise RejectedInputError("vote blob too short")
    voter, cand, n, count = struct.unpack_from("<IIII", raw, 0)
    off = 16
    triples = []
    for _ in range(count):
        if off + 9 > len(raw):
            raise RejectedInputError("vote blob truncated")
        row, col, x = struct.unpack_from("<IIB", raw, off)
        off += 9
        triples.append((row, col, x))
    return voter, cand, n, triples
