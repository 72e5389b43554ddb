"""Approval voting over similarity matrices, scored as a truth serum.

Each miner votes on every other miner's matrix: entry by entry, a
two-party comparison checks whether the two independently computed
values agree within a public threshold. Votes come with a prediction
(how often will others approve this entry?), and rewards combine an
information score on a shifted prediction with a plain prediction
score. Truthful voting maximizes the expected reward whenever the
voter's posterior is more extreme than the population prediction, so
rational miners neither flip votes nor copy-paste approvals.

A voter votes on the entries its candidate computed, and on no other,
and runs one comparison per user pair: where both slots of a pair hold
the same values on each side, as ``compute_usm`` writes them, the
mirror slot reuses the first slot's verdict. Where the voter never
computed the entry, or the comparison aborts (an aborted pair is
compared again on its mirror slot), it abstains, and the abstention is
recorded explicitly: it counts toward the voter population in mean
approvals but earns nothing. An entry the candidate never computed gets
no record at all; every voter would abstain on it, so it would add 0 to
the candidate's total and pay no one. The tally takes the miners'
matrices: an entry's best copy is picked among the miners that computed
it, and its value goes into the digest the committee agrees on.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable

from .errors import CorruptedCircuitError, RejectedInputError, SubgroupError
from .similarity import SimilarityMatrix, flat_index, unflatten_index

log = logging.getLogger(__name__)

# the belief each vote reports: approvals expect agreement, rejections expect
# disagreement, abstentions carry an uninformed prior
APPROVE_BELIEF = 0.9
REJECT_BELIEF = 0.1
ABSTAIN_BELIEF = 0.5
# a vote's belief by its approval, None for an abstention
_BELIEFS = {1: APPROVE_BELIEF, 0: REJECT_BELIEF, None: ABSTAIN_BELIEF}


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


def _voted_entries(candidate_matrix: SimilarityMatrix) -> list[int]:
    """The candidate's computed off-diagonal entries, in entry order: the
    ones its voters vote on. Slot j is on the diagonal iff n + 1 divides
    j - 1."""
    n = candidate_matrix.n_users
    return [j for j in candidate_matrix.computed_indices if (j - 1) % (n + 1)]


def cast_votes(
    voter_matrix: SimilarityMatrix,
    candidate_matrix: SimilarityMatrix,
    compare: Callable[[float, float], int],
) -> list[VoteRecord]:
    """Vote on every off-diagonal entry the candidate computed, in entry
    order; the voter abstains on one it never computed.

    ``compare(candidate_value, voter_value)`` is the two-party
    comparison; the candidate plays generator, the voter evaluator. It
    runs once per user pair: the mirror slot (l, k) reuses the valid
    verdict of (k, l) when both matrices hold the same values there, as
    ``compute_usm`` writes them. A mirror whose value differs on either
    side is compared on its own. A comparison abort (a corrupted
    circuit, or an OT sender element outside its group) is logged and
    becomes an abstention rather than a protocol failure, since one bad
    pair must not sink the whole vote; the mirror of an aborted slot is
    compared again.
    """
    n = candidate_matrix.n_users
    if voter_matrix.n_users != n:
        raise RejectedInputError("matrices cover different user counts")
    # valid verdicts by (unordered user pair, candidate value, voter value)
    verdicts: dict[tuple[int, int, float, float], int] = {}
    records = []
    for j in _voted_entries(candidate_matrix):
        own_val = voter_matrix.get(j)
        if own_val is None:
            x, valid = 0, False
        else:
            cand_val = candidate_matrix.get(j)
            k, l = divmod(j - 1, n)
            key = (min(k, l), max(k, l), cand_val, own_val)
            x, valid = verdicts.get(key), True
            if x is None:
                try:
                    x = verdicts[key] = compare(cand_val, own_val)
                except (CorruptedCircuitError, SubgroupError) as exc:
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
                y=_BELIEFS[x if valid else None],
                valid=valid,
            )
        )
    return records


# ---------------------------------------------------------------------------
# tallying


@dataclass
class TallyResult:
    """Aggregate view of a voting round.

    ``mean_approvals`` holds x-bar per (candidate, entry) voted on, with
    the fixed denominator m - 1; ``totals`` is its per-candidate sum;
    ``global_best`` maps each entry to the candidate whose copy won the
    approval vote (ties to the lowest miner id) and that copy's value.
    """

    m: int
    n: int
    mean_approvals: dict[tuple[int, int], float]
    totals: dict[int, float]
    leader: int
    global_best: dict[int, tuple[int, float]]

    def digest(self) -> str:
        h = sha256()
        h.update(struct.pack("<II", self.m, self.n))
        for entry in sorted(self.global_best):
            owner, value = self.global_best[entry]
            h.update(struct.pack("<II", entry, owner))
            h.update(struct.pack("<d", value))
        return h.hexdigest()


def tally(
    records: list[VoteRecord],
    m: int,
    n: int,
    matrices: dict[int, SimilarityMatrix],
) -> TallyResult:
    """Fold vote records into mean approvals, totals, leader, and the
    entry-wise best matrix.

    The denominator of every mean is m - 1: abstainers are voters too.
    Duplicate (voter, candidate, entry) triples are rejected. Every miner
    of ``matrices`` has a total, 0.0 when it has no record (a matrix with
    no off-diagonal entry gets no vote), so it can still lead a round
    nobody else scores in. An entry's best copy is chosen among the
    ``matrices`` that computed it.
    """
    if m < 2:
        raise RejectedInputError("tally needs at least two miners")
    seen: set[tuple[int, int, int]] = set()
    sums: dict[tuple[int, int], float] = {}
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

    mean_approvals = {key: s / (m - 1) for key, s in sums.items()}
    totals = dict.fromkeys(matrices, 0.0)
    for (cand, _entry), xbar in mean_approvals.items():
        totals[cand] = totals.get(cand, 0.0) + xbar
    leader = min(totals, key=lambda c: (-totals[c], c), default=1)

    global_best: dict[int, tuple[int, float]] = {}
    entries = {e for (_c, e) in sums}
    for entry in entries:
        holders = [c for c, mat in matrices.items() if mat.get(entry) is not None]
        if not holders:
            continue
        best = min(holders, key=lambda c: (-mean_approvals.get((c, entry), 0.0), c))
        global_best[entry] = (best, matrices[best].get(entry))

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
    validly pay out; the voter's valid records are walked in (candidate,
    entry) order, and records beyond the m miners or the n x n matrix
    are ignored.
    """
    if m < 3:
        raise RejectedInputError("rewards need at least three miners")
    if not 1 <= voter <= m:
        raise RejectedInputError(f"voter {voter} outside 1..{m}")
    ref = voter % m + 1
    peer = (voter + 1) % m + 1
    by_key = {(r.voter, r.candidate, r.entry): r for r in records}
    mine = sorted((r.candidate, r.entry) for r in by_key.values()
                  if r.voter == voter and r.valid and r.candidate <= m and r.entry <= n * n)

    info = 0.0
    pred = 0.0
    for cand, j in mine:
        pr = by_key.get((peer, cand, j))
        if pr is None or not pr.valid:
            continue
        ref_rec = by_key.get((ref, cand, j))
        if ref_rec is None:
            log.debug("no reference report for candidate %d entry %d", cand, j)
            continue
        own = by_key[(voter, cand, j)]
        y_shift = shifted_prediction(own.x, ref_rec.y)
        info += quadratic_score(y_shift, pr.x)
        pred += quadratic_score(own.y, pr.x)
    return ScoreSheet(voter=voter, information=info, prediction=pred)


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


def votes_from_crs(raw: bytes, candidate: SimilarityMatrix) -> list[VoteRecord]:
    """Inverse of votes_to_crs, read against the ``candidate`` matrix as
    the reader holds it: one record per off-diagonal entry the candidate
    computed, in entry order, as cast_votes writes them. Each stored
    (row, col, x) is a valid vote; every other such entry is an
    abstention.

    Refuses what votes_to_crs never writes over that matrix: a voter id
    of 0, a self-vote, a candidate id or user count other than the
    matrix's (so a short blob cannot make the reader build n(n - 1)
    records for a huge n), a length other than the header's count of
    triples, a vote other than 0 or 1, a row or column outside 1..n, a
    diagonal entry, an entry the candidate never computed, and entries
    that repeat or are out of order.
    """
    if len(raw) < 16:
        raise RejectedInputError("vote blob too short")
    voter, cand, n, count = struct.unpack_from("<IIII", raw, 0)
    if voter < 1 or voter == cand or cand != candidate.owner or n != candidate.n_users:
        raise RejectedInputError(
            f"vote blob of voter {voter} on candidate {cand} over {n} users: ids are "
            f"1-based and distinct, the candidate is {candidate.owner} and n is "
            f"{candidate.n_users}")
    if len(raw) != 16 + 9 * count:
        raise RejectedInputError(
            f"vote blob is {len(raw)} bytes, its {count} votes take {16 + 9 * count}")
    triples = [struct.unpack_from("<IIB", raw, 16 + 9 * i) for i in range(count)]
    for row, col, x in triples:
        if x not in (0, 1) or not (1 <= row <= n and 1 <= col <= n) or row == col:
            raise RejectedInputError(
                f"vote ({row}, {col}, {x}) outside 1..{n}, on the diagonal, or not 0/1")
        if candidate.get(flat_index(row, col, n)) is None:
            raise RejectedInputError(
                f"vote ({row}, {col}, {x}) on an entry candidate {cand} never computed")
    for before, after in zip(triples, triples[1:]):
        if after[:2] <= before[:2]:
            raise RejectedInputError(f"vote {after} does not come after {before}: "
                                     "each entry is written once, in order")
    votes = {flat_index(row, col, n): x for row, col, x in triples}
    return [VoteRecord(voter, cand, j, votes.get(j, 0), _BELIEFS[votes.get(j)], valid=j in votes)
            for j in _voted_entries(candidate)]
