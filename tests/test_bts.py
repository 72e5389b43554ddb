"""Vote casting, tallying, and truth-serum scoring."""
import logging
import random
import struct

import numpy as np
import pytest

from pous.bts import (
    ABSTAIN_BELIEF,
    APPROVE_BELIEF,
    REJECT_BELIEF,
    ScoreSheet,
    VoteRecord,
    cast_votes,
    expected_quadratic,
    expected_scores,
    quadratic_score,
    score_sheet,
    shifted_prediction,
    strategy_scores,
    tally,
    votes_from_crs,
    votes_to_crs,
)
from pous.errors import CorruptedCircuitError, RejectedInputError
from pous.garbled import FixedPoint, PlainCompareBackend
from pous.similarity import UserVector, compute_usm, flat_index, unflatten_index


def matrices_for(m, n, budgets=None, seed=0):
    """One full-or-partial matrix per miner over a shared user population."""
    rng = np.random.default_rng(seed)
    vecs = [
        UserVector(u, rng.integers(0, 8, size=6)) for u in range(1, n + 1)
    ]
    budgets = budgets or [None] * m
    return {
        i: compute_usm(vecs, budget=budgets[i - 1], owner=i)
        for i in range(1, m + 1)
    }


def plain_compare(theta=0.4, bitwidth=16):
    return PlainCompareBackend(theta, bitwidth).compare


# ---------------------------------------------------------------------------
# records


def test_record_validation():
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=1, candidate=1, entry=2, x=1, y=0.5)
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=0, candidate=2, entry=2, x=1, y=0.5)
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=1, candidate=2, entry=0, x=1, y=0.5)
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=1, candidate=2, entry=2, x=2, y=0.5)
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=1, candidate=2, entry=2, x=1, y=1.5)


def test_abstentions_cannot_approve():
    with pytest.raises(RejectedInputError):
        VoteRecord(voter=1, candidate=2, entry=2, x=1, y=0.5, valid=False)
    r = VoteRecord(voter=1, candidate=2, entry=2, x=0, y=0.5, valid=False)
    assert r.x == 0


# ---------------------------------------------------------------------------
# casting


def test_identical_matrices_all_approved():
    mats = matrices_for(2, 3)
    recs = cast_votes(mats[1], mats[2], plain_compare())
    assert len(recs) == 6  # 3*3 minus diagonal
    assert all(r.valid and r.x == 1 for r in recs)
    assert all(r.y == APPROVE_BELIEF for r in recs)


def test_partial_voter_three_of_six_pairs():
    mats = matrices_for(2, 4, budgets=[3, None])
    recs = cast_votes(mats[1], mats[2], plain_compare())
    assert len(recs) == 12  # every off-diagonal slot gets a record
    valid = [r for r in recs if r.valid]
    abst = [r for r in recs if not r.valid]
    assert len(valid) == 6  # 3 pairs, both orders
    assert len(abst) == 6
    assert all(r.x == 0 and r.y == ABSTAIN_BELIEF for r in abst)


def test_cast_matches_plaintext_predicate():
    from pous.similarity import SimilarityMatrix

    theta, w = 0.05, 16
    mine = SimilarityMatrix(owner=1, n_users=3)
    theirs = SimilarityMatrix(owner=2, n_users=3)
    deltas = {2: 0.0, 3: 0.04, 4: -0.04, 6: 0.06, 7: 0.2, 8: -0.3}
    for j, d in deltas.items():
        mine.set_entry(j, 0.5)
        theirs.set_entry(j, 0.5 + d)
    recs = cast_votes(mine, theirs, plain_compare(theta, w))
    traw = FixedPoint.encode(theta, w).raw
    for r in recs:
        want = int(
            abs(
                FixedPoint.encode(theirs.get(r.entry), w).raw
                - FixedPoint.encode(mine.get(r.entry), w).raw
            )
            <= traw
        )
        assert r.x == want
    assert {r.x for r in recs} == {0, 1}


def test_comparison_abort_becomes_abstention(caplog):
    mats = matrices_for(2, 3)

    def flaky(cand_val, own_val):
        if flaky.calls == 2:
            flaky.calls += 1
            raise CorruptedCircuitError("injected")
        flaky.calls += 1
        return 1

    flaky.calls = 0
    with caplog.at_level(logging.WARNING, logger="pous.bts"):
        recs = cast_votes(mats[1], mats[2], flaky)
    assert sum(not r.valid for r in recs) == 1
    assert any("aborted" in rec.message for rec in caplog.records)


def test_cast_rejects_mismatched_sizes():
    a = matrices_for(1, 3)[1]
    b = matrices_for(2, 4)[2]
    with pytest.raises(RejectedInputError):
        cast_votes(a, b, plain_compare())


# ---------------------------------------------------------------------------
# tally


def rec(voter, cand, entry, x, y=0.5, valid=True):
    return VoteRecord(voter, cand, entry, x, y, valid)


def test_unanimous_two_voters():
    # m=3: voters 2 and 3 both approve entry 2 of candidate 1
    res = tally([rec(2, 1, 2, 1), rec(3, 1, 2, 1)], m=3, n=2,
                matrices=matrices_for(3, 2))
    assert res.mean_approvals[(1, 2)] == 1.0
    assert res.totals[1] == 1.0
    assert res.leader == 1


def test_two_of_three_approvals():
    recs = [rec(2, 1, 2, 1), rec(3, 1, 2, 1), rec(4, 1, 2, 0)]
    res = tally(recs, m=4, n=2, matrices=matrices_for(4, 2))
    assert res.mean_approvals[(1, 2)] == pytest.approx(2 / 3)


def test_tally_matches_brute_force():
    rng = random.Random(0)
    m, n = 5, 3
    recs = []
    for voter in range(1, m + 1):
        for cand in range(1, m + 1):
            if cand == voter:
                continue
            for j in range(1, n * n + 1):
                k, l = unflatten_index(j, n)
                if k == l:
                    continue
                recs.append(rec(voter, cand, j, rng.randrange(2), rng.random()))
    res = tally(recs, m, n, matrices=matrices_for(m, n))
    for cand in range(1, m + 1):
        want_total = 0.0
        for j in range(1, n * n + 1):
            k, l = unflatten_index(j, n)
            if k == l:
                continue
            votes = [r.x for r in recs if r.candidate == cand and r.entry == j]
            xbar = sum(votes) / (m - 1)
            assert res.mean_approvals[(cand, j)] == pytest.approx(xbar, abs=1e-15)
            want_total += xbar
        assert res.totals[cand] == pytest.approx(want_total, abs=1e-12)
    brute_leader = min(
        res.totals, key=lambda c: (-res.totals[c], c)
    )
    assert res.leader == brute_leader


def test_totals_are_row_sums_exactly():
    mats = matrices_for(4, 4, budgets=[None, 4, 3, 2], seed=3)
    recs = []
    for v in range(1, 5):
        for c in range(1, 5):
            if v != c:
                recs.extend(cast_votes(mats[v], mats[c], plain_compare()))
    res = tally(recs, 4, 4, matrices=mats)
    for cand, total in res.totals.items():
        assert total == sum(
            xbar for (c, _j), xbar in res.mean_approvals.items() if c == cand
        )


def test_leader_tie_goes_to_lowest_index():
    recs = [rec(3, 1, 2, 1), rec(3, 2, 2, 1)]
    assert tally(recs, m=3, n=2, matrices=matrices_for(3, 2)).leader == 1


def test_global_best_tie_goes_to_lowest_index():
    mats = matrices_for(3, 2, seed=1)
    recs = [rec(2, 1, 2, 1), rec(1, 2, 2, 1), rec(3, 1, 2, 1), rec(3, 2, 2, 1)]
    res = tally(recs, 3, 2, matrices=mats)
    owner, value = res.global_best[2]
    assert owner == 1
    assert value == mats[1].get(2)


def test_global_best_skips_uncomputed_entries():
    mats = matrices_for(2, 3, budgets=[1, 1], seed=2)
    recs = []
    for v, c in ((1, 2), (2, 1)):
        recs.extend(cast_votes(mats[v], mats[c], plain_compare()))
    res = tally(recs, 2, 3, matrices=mats)
    computed = set(mats[1].computed_indices) | set(mats[2].computed_indices)
    for entry in res.global_best:
        k, l = unflatten_index(entry, 3)
        assert k != l
        assert entry in computed


def test_duplicate_votes_rejected():
    with pytest.raises(RejectedInputError):
        tally([rec(2, 1, 2, 1), rec(2, 1, 2, 0)], m=3, n=2, matrices=matrices_for(3, 2))


def test_diagonal_votes_rejected():
    with pytest.raises(RejectedInputError):
        tally([rec(2, 1, 1, 1)], m=3, n=2, matrices=matrices_for(3, 2))


def test_out_of_range_votes_rejected():
    with pytest.raises(RejectedInputError, match="two miners"):
        tally([], m=1, n=2, matrices=matrices_for(1, 2))
    with pytest.raises(RejectedInputError):
        tally([rec(2, 1, 5, 1)], m=3, n=2, matrices=matrices_for(3, 2))
    with pytest.raises(RejectedInputError):
        tally([rec(9, 1, 2, 1)], m=3, n=2, matrices=matrices_for(3, 2))


def test_selections_invariant_under_voter_duplication():
    rng = random.Random(5)
    m, n = 4, 3
    recs = []
    for voter in range(1, m + 1):
        for cand in range(1, m + 1):
            if cand != voter:
                for j in (2, 3, 6):
                    recs.append(rec(voter, cand, j, rng.randrange(2)))
    # both tallies see the same candidates' matrices; only the voters double
    mats = matrices_for(m, n)
    base = tally(recs, m, n, matrices=mats)
    doubled = recs + [
        VoteRecord(r.voter + m, r.candidate, r.entry, r.x, r.y, r.valid)
        for r in recs
    ]
    res = tally(doubled, 2 * m, n, matrices=mats)
    assert res.leader == base.leader
    assert {e: o for e, (o, _v) in res.global_best.items()} == {
        e: o for e, (o, _v) in base.global_best.items()
    }
    # means scale by a single factor, so every argmax survives
    factor = (m - 1) / (2 * m - 1) * 2
    for key, xbar in base.mean_approvals.items():
        assert res.mean_approvals[key] == pytest.approx(xbar * factor)


def test_selections_invariant_under_record_order():
    rng = random.Random(6)
    mats = matrices_for(3, 3, seed=6)
    recs = []
    for v in range(1, 4):
        for c in range(1, 4):
            if v != c:
                recs.extend(cast_votes(mats[v], mats[c], plain_compare()))
    res_a = tally(recs, 3, 3, matrices=mats)
    shuffled = recs[:]
    rng.shuffle(shuffled)
    res_b = tally(shuffled, 3, 3, matrices=mats)
    assert res_a.leader == res_b.leader
    assert res_a.global_best == res_b.global_best
    assert res_a.digest() == res_b.digest()


def test_digest_tracks_global_best():
    mats = matrices_for(3, 3, seed=7)
    recs = []
    for v in range(1, 4):
        for c in range(1, 4):
            if v != c:
                recs.extend(cast_votes(mats[v], mats[c], plain_compare()))
    a = tally(recs, 3, 3, matrices=mats)
    b = tally(recs, 3, 3, matrices=mats)
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64


# ---------------------------------------------------------------------------
# scoring primitives


def test_quadratic_score_values():
    assert quadratic_score(1.0, 1) == 1.0
    assert quadratic_score(0.0, 0) == 1.0
    assert quadratic_score(0.5, 1) == 0.75
    assert quadratic_score(0.5, 0) == 0.75
    with pytest.raises(RejectedInputError):
        quadratic_score(1.2, 1)
    with pytest.raises(RejectedInputError):
        quadratic_score(0.5, 2)


def test_quadratic_score_stays_in_unit_interval():
    for y in np.linspace(0, 1, 101):
        assert 0.0 <= quadratic_score(float(y), 1) <= 1.0
        assert 0.0 <= quadratic_score(float(y), 0) <= 1.0


def test_shifted_prediction_examples():
    assert shifted_prediction(1, 0.3) == pytest.approx(0.6)
    assert shifted_prediction(0, 0.3) == pytest.approx(0.0)
    assert shifted_prediction(1, 0.8) == pytest.approx(1.0)
    for y in (-0.1, 1.5):
        with pytest.raises(RejectedInputError):
            shifted_prediction(1, y)


def test_shifted_prediction_bounded_and_directional():
    rng = random.Random(7)
    for _ in range(300):
        y = rng.random()
        up = shifted_prediction(1, y)
        down = shifted_prediction(0, y)
        assert 0.0 <= down <= y <= up <= 1.0


# ---------------------------------------------------------------------------
# rewards


def full_round_records(m, n, seed=0, flip=None):
    """All-pairs voting with approvals drawn at random; flip inverts one voter."""
    rng = random.Random(seed)
    recs = []
    for voter in range(1, m + 1):
        for cand in range(1, m + 1):
            if cand == voter:
                continue
            for j in range(1, n * n + 1):
                k, l = unflatten_index(j, n)
                if k == l:
                    continue
                x = rng.randrange(2)
                if flip == voter:
                    x = 1 - x
                y = rng.random()
                recs.append(rec(voter, cand, j, x, y))
    return recs


def test_uniform_truthful_round_reduces_to_count():
    m, n = 5, 3
    mats = matrices_for(m, n, seed=4)
    recs = []
    for v in range(1, m + 1):
        for c in range(1, m + 1):
            if v != c:
                recs.extend(cast_votes(mats[v], mats[c], plain_compare()))
    # identical matrices: every vote is 1 with belief APPROVE_BELIEF.
    # Scorable candidates exclude the voter and also its reference and
    # peer, who never vote on themselves.
    entries = n * n - n
    scored = (m - 3) * entries
    y = APPROVE_BELIEF
    want = scored * (quadratic_score(shifted_prediction(1, y), 1) + quadratic_score(y, 1))
    for voter in range(1, m + 1):
        assert score_sheet(voter, recs, m, n).total == pytest.approx(want)


def test_reward_matches_direct_double_loop():
    m, n = 5, 3
    recs = full_round_records(m, n, seed=11)
    by_key = {(r.voter, r.candidate, r.entry): r for r in recs}
    for voter in range(1, m + 1):
        ref = voter % m + 1
        peer = (voter + 1) % m + 1
        want = 0.0
        for cand in range(1, m + 1):
            if cand == voter:
                continue
            for j in range(1, n * n + 1):
                own = by_key.get((voter, cand, j))
                pr = by_key.get((peer, cand, j))
                rf = by_key.get((ref, cand, j))
                if own and pr and rf and own.valid and pr.valid:
                    want += quadratic_score(shifted_prediction(own.x, rf.y), pr.x)
                    want += quadratic_score(own.y, pr.x)
        assert score_sheet(voter, recs, m, n).total == pytest.approx(want, abs=1e-12)


def test_reference_and_peer_are_distinct_neighbors():
    for m in (3, 4, 7):
        for voter in range(1, m + 1):
            ref = voter % m + 1
            peer = (voter + 1) % m + 1
            assert len({voter, ref, peer}) == 3


def test_score_sheet_splits_total():
    m, n = 4, 3
    recs = full_round_records(m, n, seed=12)
    sheet = score_sheet(2, recs, m, n)
    assert isinstance(sheet, ScoreSheet)
    assert sheet.total == sheet.information + sheet.prediction


def test_reward_skips_invalid_missing_and_self_referees():
    m, n = 5, 2
    recs = [
        rec(1, 4, 2, 1, 0.9),                # scored against ref 2 / peer 3
        rec(1, 4, 3, 0, 0.1, valid=False),   # abstention: never scored
        rec(2, 4, 2, 1, 0.5),                # reference report, y=0.5
        rec(3, 4, 2, 1, 0.8),                # peer outcome x=1
        rec(3, 4, 3, 1, 0.8),                # peer valid but voter abstained
        rec(1, 2, 2, 1, 0.6),                # candidate IS the reference
        rec(3, 2, 2, 1, 0.6),
        rec(1, 3, 2, 1, 0.7),                # candidate IS the peer
        rec(2, 3, 2, 1, 0.7),
        rec(1, 5, 2, 1, 0.4),                # no peer record on candidate 5
    ]
    want = quadratic_score(shifted_prediction(1, 0.5), 1) + quadratic_score(0.9, 1)
    assert score_sheet(1, recs, m, n).total == pytest.approx(want)


def test_reward_is_zero_at_three_miners():
    # with three miners the reference and peer are exactly the two
    # candidates, and neither votes on itself, so nothing is scorable
    recs = full_round_records(3, 2, seed=20)
    for voter in (1, 2, 3):
        assert score_sheet(voter, recs, 3, 2).total == 0.0


def test_reward_needs_three_miners():
    with pytest.raises(RejectedInputError):
        score_sheet(1, [], 2, 3)
    with pytest.raises(RejectedInputError):
        score_sheet(5, [], 4, 3)


# ---------------------------------------------------------------------------
# expected scores and incentives


def test_expected_scores_examples():
    e_p, e_y, loss = expected_scores(0.7, 0.7)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert e_p == e_y
    _, _, loss = expected_scores(0.8, 0.5)
    assert loss == pytest.approx(0.09)
    with pytest.raises(RejectedInputError):
        expected_scores(1.2, 0.5)


def test_expected_loss_identity_many_pairs():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(10_000):
        p, y = rng.random(), rng.random()
        _, _, loss = expected_scores(p, y)
        worst = max(worst, abs(loss - (p - y) ** 2))
    assert worst <= 1e-12


def test_honest_prediction_maximizes_expected_score():
    ys = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    for p in np.arange(0.0, 1.0 + 1e-9, 0.05):
        scores = [expected_quadratic(float(y), float(p)) for y in ys]
        best = ys[int(np.argmax(scores))]
        assert abs(best - p) < 1e-9


def test_truthful_voting_beats_flipping():
    rng = random.Random(14)
    for _ in range(1000):
        p0 = rng.uniform(0.01, 0.98)
        p1 = rng.uniform(p0 + 0.01, 0.99)
        y = rng.uniform(p0 + 1e-6, p1 - 1e-6)
        s = strategy_scores(p0, p1, y)
        assert s["truthful_pos"] > s["flipped_pos"]
        assert s["truthful_neg"] > s["flipped_neg"]


@pytest.mark.parametrize("p0, p1, y, message", [
    (-0.1, 0.5, 0.5, "p0"), (0.2, 1.5, 0.5, "p1"), (0.2, 0.8, 1.1, "y"),
    (0.8, 0.2, 0.5, "dominate"),
])
def test_strategy_scores_reject_bad_beliefs(p0, p1, y, message):
    with pytest.raises(RejectedInputError, match=message):
        strategy_scores(p0, p1, y)


# ---------------------------------------------------------------------------
# serialization


def test_crs_votes_roundtrip():
    mats = matrices_for(2, 4, budgets=[3, None], seed=16)
    recs = cast_votes(mats[1], mats[2], plain_compare())
    blob = votes_to_crs(recs, n=4)
    voter, cand, n, triples = votes_from_crs(blob)
    assert (voter, cand, n) == (1, 2, 4)
    valid = sorted((r for r in recs if r.valid), key=lambda r: r.entry)
    assert len(triples) == len(valid)
    for (row, col, x), r in zip(triples, valid):
        assert flat_index(row, col, 4) == r.entry
        assert x == r.x
    assert len(blob) == 16 + 9 * len(valid)


def test_crs_votes_reject_mixed_pairs():
    recs = [rec(1, 2, 2, 1), rec(1, 3, 2, 1)]
    with pytest.raises(RejectedInputError):
        votes_to_crs(recs, n=2)


def test_crs_votes_reject_truncation():
    mats = matrices_for(2, 3, seed=17)
    blob = votes_to_crs(cast_votes(mats[1], mats[2], plain_compare()), n=3)
    with pytest.raises(RejectedInputError):
        votes_from_crs(blob[:-2])
    with pytest.raises(RejectedInputError, match="too short"):
        votes_from_crs(blob[:15])
    with pytest.raises(RejectedInputError, match="no records"):
        votes_to_crs([], n=3)


def crs_blob(triples, n=3, count=None, ids=(1, 2)):
    """A vote blob as votes_to_crs lays it out, with any triples."""
    head = struct.pack("<IIII", *ids, n, len(triples) if count is None else count)
    return head + b"".join(struct.pack("<IIB", *t) for t in triples)


@pytest.mark.parametrize("blob, reason", [
    (crs_blob([(1, 2, 1)]) + b"\x00" * 4, "its 1 votes take 25"),
    (crs_blob([(1, 2, 1)], count=0), "its 0 votes take 16"),
    (crs_blob([(1, 2, 9)]), r"vote \(1, 2, 9\)"),
    (crs_blob([(0, 2, 1)]), r"vote \(0, 2, 1\)"),
    (crs_blob([(1, 4, 0)]), r"vote \(1, 4, 0\)"),
    (crs_blob([(1, 2, 1), (1, 2, 0)]), r"vote \(1, 2, 0\) does not come after \(1, 2, 1\)"),
    (crs_blob([(2, 1, 1), (1, 2, 0)]), r"vote \(1, 2, 0\) does not come after \(2, 1, 1\)"),
    (crs_blob([(1, 2, 1)], ids=(1, 1)), "voter 1 on candidate 1"),
    (crs_blob([(1, 2, 1)], ids=(0, 2)), "voter 0 on candidate 2"),
    (crs_blob([(1, 2, 1)], ids=(1, 0)), "voter 1 on candidate 0"),
    (crs_blob([], n=0), "over 0 users"),
], ids=["trailing-bytes", "count-short", "x-9", "row-0", "col-past-n",
        "repeated-entry", "out-of-order", "self-vote", "voter-0", "candidate-0", "no-users"])
def test_crs_votes_reject_what_the_writer_never_writes(blob, reason):
    with pytest.raises(RejectedInputError, match=reason):
        votes_from_crs(blob)


def test_crs_votes_accept_rows_and_columns_1_to_n():
    assert votes_from_crs(crs_blob([(1, 1, 1), (3, 3, 0)])) == (
        1, 2, 3, [(1, 1, 1), (3, 3, 0)])
