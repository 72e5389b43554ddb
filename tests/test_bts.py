"""Vote casting, tallying, and truth-serum scoring."""
import dataclasses
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
from pous.errors import CorruptedCircuitError, RejectedInputError, SubgroupError
from pous.garbled import (
    FixedPoint,
    GarbledCompareBackend,
    TrustedDealerOT,
    comparator_size,
    plain_within_theta,
)
from pous.round import vote
from pous.similarity import compute_usm, unflatten_index


def matrices_for(m, n, budgets=None, seed=0):
    """One full-or-partial matrix per miner over a shared user population."""
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, 8, size=(n, 6))
    budgets = budgets or [None] * m
    return {
        i: compute_usm(vecs, budget=budgets[i - 1], owner=i)
        for i in range(1, m + 1)
    }


def plain_compare(theta=0.4, bitwidth=16):
    """The cleartext comparator: both values and theta as fixed-point raws."""
    def compare(a, b):
        return plain_within_theta(*(FixedPoint.encode(v, bitwidth).raw for v in (a, b, theta)))
    return compare


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


def test_partial_candidate_gets_votes_on_its_entries_only():
    mats = matrices_for(2, 4, budgets=[None, 3])
    recs = cast_votes(mats[1], mats[2], plain_compare())
    assert [r.entry for r in recs] == [2, 3, 4, 5, 9, 13]  # (1, 2..4) both ways
    assert all(r.valid for r in recs)
    assert cast_votes(mats[2], matrices_for(1, 4, budgets=[0])[1], plain_compare()) == []


def test_vote_costs_what_each_candidate_computed():
    """Four miners over 200 users with a few pairs each: for every voter
    and candidate the round holds exactly as many records as the
    candidate has off-diagonal entries, not 200 * 199."""
    n = 200
    rng = np.random.default_rng(9)
    vecs = rng.integers(0, 8, size=(n, 6))
    mats = {i: compute_usm(vecs, budget=b, owner=i) for i, b in enumerate((3, 5, 0, 8), 1)}
    records, result, sent = vote(mats, 0.05, seeds={c: c for c in mats})
    counts = {}
    for r in records:
        counts[(r.voter, r.candidate)] = counts.get((r.voter, r.candidate), 0) + 1
    assert counts == {(v, c): 2 * b for v in mats for c, b in ((1, 3), (2, 5), (4, 8)) if v != c}
    # miner 3 abstains on all; miner 1 lacks 2 and 5 of the others' pairs,
    # miner 2 lacks 3 of miner 4's
    assert sum(not r.valid for r in records) == 2 * (3 + 5 + 8) + 2 * (2 + 5) + 2 * 3
    assert result.totals[3] == 0.0 and len(result.mean_approvals) == 2 * (3 + 5 + 8)
    # miner 3 computed no entry, so it garbles and ships no circuit: three
    # candidates, each to three voters
    assert sent["circuit"] == 9 * comparator_size(16)[1]


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
    # the third pair's comparison aborts: both of its slots abstain, and
    # its mirror slot is not compared again
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
    assert flaky.calls == 3
    assert [r.entry for r in recs if not r.valid] == [6, 8]  # the pair (2, 3)
    assert any("aborted" in rec.message for rec in caplog.records)


def test_only_a_foreign_ot_element_among_refusals_becomes_abstention():
    # the OT receiver's refusal of the sender's element aborts the
    # comparison; any other refusal still stops the vote
    mats = matrices_for(2, 3)

    def refuse(error):
        def compare(cand_val, own_val):
            raise error("injected")
        return compare

    recs = cast_votes(mats[1], mats[2], refuse(SubgroupError))
    assert len(recs) == 6 and all(not r.valid and r.x == 0 for r in recs)
    with pytest.raises(RejectedInputError, match="injected"):
        cast_votes(mats[1], mats[2], refuse(RejectedInputError))


@pytest.mark.parametrize("fault", ["gate missing", "gate extra", "width 33", "three rows"])
def test_malformed_circuit_becomes_abstention(caplog, fault):
    # a candidate whose circuit lost or gained a gate, or names a width no
    # comparator has, gets abstentions rather than stopping the vote
    mats = matrices_for(2, 3)
    backend = GarbledCompareBackend(0.4, 8, seed=1)
    c = backend.template.circuit
    backend.template.circuit = {
        "gate missing": dataclasses.replace(c, gates=c.gates[:-1]),
        "gate extra": dataclasses.replace(c, gates=c.gates + c.gates[:1]),
        "width 33": dataclasses.replace(c, bitwidth=33),
        "three rows": dataclasses.replace(c, gates=tuple(rows[:3] for rows in c.gates)),
    }[fault]
    with caplog.at_level(logging.WARNING, logger="pous.bts"):
        recs = cast_votes(mats[1], mats[2], backend.compare)
    assert len(recs) == 6
    assert all(not r.valid and r.x == 0 for r in recs)
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


def test_a_miner_without_entries_still_counts():
    # miner 1 computed nothing, so nobody votes on it; its total is 0.0,
    # and with every other copy rejected it leads as the lowest id
    mats = matrices_for(3, 3, budgets=[0, 2, 2])
    recs = [r for v in mats for c in mats if v != c
            for r in cast_votes(mats[v], mats[c], lambda a, b: 0)]
    res = tally(recs, 3, 3, matrices=mats)
    assert not any(r.candidate == 1 for r in recs)
    assert res.totals == {1: 0.0, 2: 0.0, 3: 0.0}
    assert res.leader == 1


def test_a_vote_on_an_entry_the_candidate_lacks_is_refused():
    # miner 1 computed nothing: two approvals on its entry 2 would make it lead
    mats = matrices_for(3, 2, budgets=[0, 1, 1])
    with pytest.raises(RejectedInputError, match="entry 2 of miner 1, whose matrix lacks it"):
        tally([rec(2, 1, 2, 1), rec(3, 1, 2, 1)], m=3, n=2, matrices=mats)
    # a rejection there counts nothing, so it stands
    assert tally([rec(2, 1, 2, 0), rec(3, 2, 2, 1)], m=3, n=2, matrices=mats).leader == 2
    # a candidate with no matrix at all lacks every entry
    with pytest.raises(RejectedInputError, match="entry 2 of miner 3, whose matrix lacks it"):
        tally([rec(1, 3, 2, 1)], m=3, n=2, matrices={1: mats[1], 2: mats[2]})


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
    # the blob holds two bits per pair; the reader rebuilds a record per
    # slot, abstentions included
    mats = matrices_for(2, 4, budgets=[3, None], seed=16)
    recs = cast_votes(mats[1], mats[2], plain_compare())
    blob = votes_to_crs(recs, n=4)
    assert votes_from_crs(blob, mats[2]) == recs
    assert sum(not r.valid for r in recs) == 6
    assert len(blob) == 16 + 2 * 1  # six pairs: a byte per bitmap
    assert blob[16] == 0b000111  # the voter computed the first three pairs
    wide = matrices_for(2, 5, budgets=[None, 9], seed=3)
    recs = cast_votes(wide[1], wide[2], plain_compare())
    assert len(votes_to_crs(recs, n=5)) == 16 + 2 * 2
    assert votes_from_crs(votes_to_crs(recs, n=5), wide[2]) == recs


def test_crs_votes_reject_mixed_pairs():
    recs = [rec(1, 2, 2, 1), rec(1, 3, 2, 1)]
    with pytest.raises(RejectedInputError):
        votes_to_crs(recs, n=2)


def test_crs_votes_reject_truncation():
    mats = matrices_for(2, 3, seed=17)
    blob = votes_to_crs(cast_votes(mats[1], mats[2], plain_compare()), n=3)
    with pytest.raises(RejectedInputError):
        votes_from_crs(blob[:-2], mats[2])
    with pytest.raises(RejectedInputError, match="too short"):
        votes_from_crs(blob[:15], mats[2])
    with pytest.raises(RejectedInputError, match="no records"):
        votes_to_crs([], n=3)


def full_matrix():
    """Miner 2's matrix over 3 users, every entry computed: what the
    reader tests read a blob against."""
    return matrices_for(2, 3)[2]


def crs_blob(valid, approved, n=3, count=3, ids=(1, 2)):
    """A vote blob as votes_to_crs lays it out: the header, then the two
    bitmaps given as bytes."""
    return struct.pack("<IIII", *ids, n, count) + bytes(valid) + bytes(approved)


@pytest.mark.parametrize("blob, reason", [
    (crs_blob([7], [1]) + b"\x00" * 4, "is 22 bytes, its 3 pairs take 18"),
    (crs_blob([7], [1], count=2), "covers 2 pairs, candidate 2 computed 3"),
    (crs_blob([7, 0], [1, 0], count=9), "covers 9 pairs, candidate 2 computed 3"),
    (crs_blob([7], []), "is 17 bytes, its 3 pairs take 18"),
    (crs_blob([0b1111], [1]), "sets a bit past its last pair, 3"),
    (crs_blob([7], [0b1001]), "sets a bit past its last pair, 3"),
    (crs_blob([0b101], [0b010]), "approves a pair its vote is not valid on"),
    (crs_blob([7], [1], ids=(1, 1)), "voter 1 on candidate 1"),
    (crs_blob([7], [1], ids=(0, 2)), "voter 0 on candidate 2"),
    (crs_blob([7], [1], ids=(1, 0)), "voter 1 on candidate 0"),
    (crs_blob([], [], n=0, count=0), "over 0 users"),
    # 16 bytes that would expand to n(n - 1) abstentions
    (crs_blob([], [], n=2**32 - 1, count=0), "over 4294967295 users: .* n is 3"),
    (crs_blob([7], [1], ids=(1, 3)), "on candidate 3 over 3 users: .* candidate is 2"),
    (crs_blob([7], [1], n=4), "over 4 users: .* n is 3"),
], ids=["trailing-bytes", "count-short", "count-long", "bitmap-short", "valid-past-last-pair",
        "approval-past-last-pair", "approval-not-valid", "self-vote", "voter-0", "candidate-0",
        "no-users", "huge-n", "other-candidate", "other-n"])
def test_crs_votes_reject_what_the_writer_never_writes(blob, reason):
    with pytest.raises(RejectedInputError, match=reason):
        votes_from_crs(blob, full_matrix())


def test_crs_votes_accept_rows_and_columns_1_to_n():
    # pairs (1, 2), (1, 3) and (2, 3): an abstention, an approval and a
    # rejection, each on both slots
    recs = votes_from_crs(crs_blob([0b110], [0b010]), full_matrix())
    assert [(r.entry, r.x, r.y, r.valid) for r in recs if r.valid] == [
        (3, 1, APPROVE_BELIEF, True), (6, 0, REJECT_BELIEF, True),
        (7, 1, APPROVE_BELIEF, True), (8, 0, REJECT_BELIEF, True)]
    assert [r.entry for r in recs] == [2, 3, 4, 6, 7, 8]
    assert all((r.voter, r.candidate) == (1, 2) for r in recs)
    assert all((r.x, r.y) == (0, ABSTAIN_BELIEF) for r in recs if not r.valid)


def test_crs_votes_cover_the_entries_the_candidate_computed():
    partial = matrices_for(2, 3, budgets=[None, 1])[2]  # the pair (1, 2) only
    recs = votes_from_crs(crs_blob([1], [0], count=1), partial)
    assert [(r.entry, r.x, r.valid) for r in recs] == [(2, 0, True), (4, 0, True)]
    # a bit for the pair (1, 3), which the candidate never computed
    with pytest.raises(RejectedInputError, match="sets a bit past its last pair, 1"):
        votes_from_crs(crs_blob([0b11], [0b11], count=1), partial)
    with pytest.raises(RejectedInputError, match="covers 3 pairs, candidate 2 computed 1"):
        votes_from_crs(crs_blob([0b111], [0b111]), partial)
    # a candidate that computed nothing gets a bare header and no record
    empty = matrices_for(2, 3, budgets=[None, 0])[2]
    assert votes_from_crs(crs_blob([], [], count=0), empty) == []


# ---------------------------------------------------------------------------
# the vote against a reference that records every off-diagonal entry


def reference_records(mats, compare):
    """Every voter's records on every other miner's matrix, one per
    off-diagonal entry whether or not the candidate computed it."""
    recs = []
    for v, mine in mats.items():
        for c, theirs in mats.items():
            if v == c:
                continue
            n = theirs.n_users
            for j in range(1, n * n + 1):
                k, l = unflatten_index(j, n)
                if k == l:
                    continue
                cand_val, own_val = theirs.get(j), mine.get(j)
                if cand_val is None or own_val is None:
                    recs.append(rec(v, c, j, 0, ABSTAIN_BELIEF, valid=False))
                else:
                    x = compare(cand_val, own_val)
                    recs.append(rec(v, c, j, x, APPROVE_BELIEF if x else REJECT_BELIEF))
    return recs


def reference_sheet(voter, recs, m, n):
    """The score sheet as a loop over every candidate and every slot."""
    by_key = {(r.voter, r.candidate, r.entry): r for r in recs}
    ref, peer = voter % m + 1, (voter + 1) % m + 1
    info = pred = 0.0
    for cand in range(1, m + 1):
        for j in range(1, n * n + 1):
            own, pr = by_key.get((voter, cand, j)), by_key.get((peer, cand, j))
            rf = by_key.get((ref, cand, j))
            if own and pr and rf and own.valid and pr.valid:
                info += quadratic_score(shifted_prediction(own.x, rf.y), pr.x)
                pred += quadratic_score(own.y, pr.x)
    return ScoreSheet(voter, info, pred)


def test_votes_on_computed_entries_match_the_full_reference():
    """Seeded rounds of 3-6 miners over 2-7 users, budgets including 0 and
    None, θ in {0, 0.05, 0.3}, each miner's values jittered so approvals,
    rejections and abstentions all occur: the leader, totals, global
    best, digest and every score sheet equal those of the reference
    records, bit for bit, and every mean approval the new tally drops
    was 0.0."""
    rng = random.Random(27)
    dropped = 0
    for _ in range(150):
        m, n, theta = rng.randint(3, 6), rng.randint(2, 7), rng.choice((0.0, 0.05, 0.3))
        pairs = n * (n - 1) // 2
        mats = matrices_for(m, n, budgets=[rng.choice((0, None, *range(1, pairs + 1)))
                                           for _ in range(m)], seed=rng.randrange(2**31))
        for mat in mats.values():
            for j in mat.computed_indices:
                if rng.random() < 0.5:
                    mat.set_entry(j, min(1.0, max(0.0, mat.get(j) + rng.gauss(0, 0.1))))
        compare = plain_compare(theta)
        recs = [r for v in mats for c in mats if v != c
                for r in cast_votes(mats[v], mats[c], compare)]
        want_recs = reference_records(mats, compare)
        got, want = tally(recs, m, n, mats), tally(want_recs, m, n, mats)
        assert (got.leader, got.totals, got.global_best) == (
            want.leader, want.totals, want.global_best)
        assert got.digest() == want.digest()
        for key, xbar in want.mean_approvals.items():
            assert got.mean_approvals.get(key, 0.0) == xbar
        dropped += len(want.mean_approvals) - len(got.mean_approvals)
        assert set(got.mean_approvals) <= set(want.mean_approvals)
        for voter in mats:
            sheet = score_sheet(voter, recs, m, n)
            assert sheet == score_sheet(voter, want_recs, m, n)
            assert sheet == reference_sheet(voter, want_recs, m, n)
    assert dropped > 0


# ---------------------------------------------------------------------------
# one comparison per user pair


def unshared_records(mine, theirs, compare):
    """cast_votes as a compare per slot: each slot of a pair runs its own
    comparison."""
    recs = []
    for j in theirs.computed_indices:
        own_val = mine.get(j)
        x, valid = 0, False
        if own_val is not None:
            try:
                x, valid = compare(theirs.get(j), own_val), True
            except CorruptedCircuitError:
                pass
        recs.append(rec(mine.owner, theirs.owner, j, x,
                        (APPROVE_BELIEF if x else REJECT_BELIEF) if valid else ABSTAIN_BELIEF,
                        valid))
    return recs


def aborting_compare(theta, seed, rate=0.2):
    """A plain compare that counts its calls and aborts on a seeded share
    of value pairs: the same two values always abort or always answer."""
    plain = plain_compare(theta)

    def compare(cand_val, own_val):
        compare.calls += 1
        if random.Random(f"{seed}:{cand_val!r}:{own_val!r}").random() < rate:
            raise CorruptedCircuitError("injected")
        return plain(cand_val, own_val)

    compare.calls = 0
    return compare


def test_verdict_reuse_matches_a_compare_per_slot():
    """One compare per pair, both slots carry its verdict. Seeded rounds
    of 3-5 miners over 3-7 users, budgets including 0 and None, values
    jittered through either slot of a pair, and a compare that aborts on
    a fifth of its value pairs: every record equals the one a compare
    per slot writes. cast_votes calls compare exactly once per pair that
    both sides computed, aborted or not, so an aborted pair abstains on
    both slots without a second try. Tally, digest and score sheets
    match."""
    rng = random.Random(28)
    calls = slots = aborted = 0
    for round_seed in range(120):
        m, n, theta = rng.randint(3, 5), rng.randint(3, 7), rng.choice((0.0, 0.05, 0.3))
        pairs = n * (n - 1) // 2
        mats = matrices_for(m, n, budgets=[rng.choice((0, None, *range(1, pairs + 1)))
                                           for _ in range(m)], seed=rng.randrange(2**31))
        for mat in mats.values():
            for j in mat.computed_indices:
                if rng.random() < 0.3:  # the pair, through whichever slot
                    mat.set_entry(j, min(1.0, max(0.0, mat.get(j) + rng.gauss(0, 0.1))))
        recs, want_recs = [], []
        for v in mats:
            for c in mats:
                if v == c:
                    continue
                compare = aborting_compare(theta, round_seed)
                got = cast_votes(mats[v], mats[c], compare)
                want = unshared_records(mats[v], mats[c], aborting_compare(theta, round_seed))
                assert got == want
                shared = [j for j in mats[c].pair_slots if mats[v].get(j) is not None]
                assert compare.calls == len(shared)
                compared = [r for r in want if mats[v].get(r.entry) is not None]
                assert len(compared) == 2 * len(shared)
                calls += compare.calls
                slots += len(compared)
                aborted += sum(not r.valid for r in compared)
                recs.extend(got)
                want_recs.extend(want)
        got_tally, want_tally = tally(recs, m, n, mats), tally(want_recs, m, n, mats)
        assert got_tally == want_tally
        assert got_tally.digest() == want_tally.digest()
        for voter in mats:
            assert score_sheet(voter, recs, m, n) == score_sheet(voter, want_recs, m, n)
    # comparisons ran, half as many as slots, and some of them aborted
    assert 0 < 2 * calls == slots and aborted > 0


def test_a_round_compares_each_shared_user_pair_once(monkeypatch):
    """A round of four miners over compute_usm matrices with budgets 1-4
    runs one OT batch per comparison and exactly sum over v != c of
    min(b_v, b_c) comparisons: 20, where a comparison per slot runs 40.
    Each verdict covers both slots of its user pair."""
    batches = []
    exchange = TrustedDealerOT.exchange
    monkeypatch.setattr(TrustedDealerOT, "exchange",
                        lambda ot, pairs, bits: batches.append(bits) or exchange(ot, pairs, bits))
    for order in ((1, 2, 3, 4), (4, 1, 3, 2)):
        mats = matrices_for(4, 6, budgets=list(order), seed=sum(order[:2]))
        batches.clear()
        records, _, _ = vote(mats, 0.05, seeds={c: c for c in mats})
        want = sum(min(order[v - 1], order[c - 1]) for v in mats for c in mats if v != c)
        assert len(batches) == want == 20
        assert sum(r.valid for r in records) == 2 * want
