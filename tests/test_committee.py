"""Committee sampling, submission window, quorum agreement, verification."""
import itertools
import logging
import math
import random

import numpy as np
import pytest

from pous.committee import (
    CommitteeConfig,
    Decision,
    RoundTimers,
    accept_vote_submission,
    agree,
    decision_log_line,
    quorum_threshold,
    select_committee,
    verify_block,
)
from pous.errors import ConfigurationError, RejectedInputError
from pous.packing import (
    Block,
    BlockHeader,
    PriorityWeights,
    cluster_mempool,
    encode_flag,
    merkle_root,
    pack_block,
    tx_priority,
)
from pous.similarity import Transaction


# ---------------------------------------------------------------------------
# config and timers


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CommitteeConfig(size=3)
    with pytest.raises(ConfigurationError):
        CommitteeConfig(size=4, rotation_period=0)
    with pytest.raises(ConfigurationError):
        CommitteeConfig(size=4, honest_fraction=1.5)
    CommitteeConfig(size=4)


def test_timers_must_increase():
    with pytest.raises(ConfigurationError):
        RoundTimers(10.0, 10.0, 20.0)
    with pytest.raises(ConfigurationError):
        RoundTimers(10.0, 5.0, 20.0)


def test_split_interval_defaults():
    t = RoundTimers.split_interval(100.0, 100.0)
    assert t.mining_deadline == pytest.approx(160.0)
    assert t.voting_deadline == pytest.approx(185.0)
    assert t.result_waiting_deadline == pytest.approx(200.0)


def test_split_interval_validation():
    with pytest.raises(ConfigurationError):
        RoundTimers.split_interval(0.0, -5.0)


def test_quorum_threshold_strictly_over_two_thirds():
    assert quorum_threshold(4) == 3
    assert quorum_threshold(5) == 4
    assert quorum_threshold(6) == 5
    assert quorum_threshold(7) == 5
    for s in range(4, 40):
        q = quorum_threshold(s)
        assert q > 2 * s / 3
        assert q - 1 <= 2 * s / 3
        assert 2 * q > s  # two disjoint quorums can never coexist


# ---------------------------------------------------------------------------
# selection


def test_full_population_committee():
    miners = list(range(1, 5))
    cfg = CommitteeConfig(size=4, selection_seed=1)
    assert select_committee(miners, cfg, 0) == (1, 2, 3, 4)


def test_selection_deterministic():
    miners = list(range(1, 31))
    cfg = CommitteeConfig(size=5, selection_seed=9)
    a = select_committee(miners, cfg, 3)
    b = select_committee(miners, cfg, 3)
    assert a == b
    assert len(set(a)) == 5
    assert all(m in miners for m in a)


def test_selection_stable_within_rotation_period():
    miners = list(range(1, 31))
    cfg = CommitteeConfig(size=5, selection_seed=2, rotation_period=5)
    first = select_committee(miners, cfg, 0)
    assert all(select_committee(miners, cfg, r) == first for r in range(5))
    assert select_committee(miners, cfg, 5) != first


def test_selection_rejects_oversized():
    with pytest.raises(ConfigurationError):
        select_committee([1, 2, 3], CommitteeConfig(size=4), 0)


def test_membership_frequency_binomial():
    from scipy.stats import chisquare

    miners = list(range(1, 21))
    cfg = CommitteeConfig(size=5, selection_seed=3)
    rounds = 10_000
    hits = {m: 0 for m in miners}
    for r in range(rounds):
        for m in select_committee(miners, cfg, r):
            hits[m] += 1
    p = cfg.size / len(miners)
    mean = rounds * p
    sigma = math.sqrt(rounds * p * (1 - p))
    for m, h in hits.items():
        assert abs(h - mean) < 3 * sigma, f"miner {m}: {h} vs {mean}"
    _, pval = chisquare(list(hits.values()))
    assert pval > 0.01


# ---------------------------------------------------------------------------
# submission window


WINDOW = RoundTimers(mining_deadline=60.0, voting_deadline=85.0,
                     result_waiting_deadline=100.0)


def test_submission_before_window_rejected(caplog):
    with caplog.at_level(logging.INFO, logger="pous.committee"):
        assert not accept_vote_submission(object(), 84.9, WINDOW)
    assert any("dropping" in r.message for r in caplog.records)


def test_submission_inside_window_accepted():
    assert accept_vote_submission(object(), 85.0, WINDOW)
    assert accept_vote_submission(object(), 92.0, WINDOW)
    assert accept_vote_submission(object(), 99.999, WINDOW)


def test_submission_after_window_rejected():
    assert not accept_vote_submission(object(), 100.0, WINDOW)
    assert not accept_vote_submission(object(), 130.0, WINDOW)


# ---------------------------------------------------------------------------
# agreement


def subs(pairs):
    """members 1..k submitting (leader, digest) tuples."""
    return {i + 1: pair for i, pair in enumerate(pairs)}


def test_unanimous_commit():
    d = agree(subs([(3, "h")] * 6), size=6, round_index=2)
    assert d is not None
    assert d.leader == 3
    assert d.quorum_count == 6
    assert d.round_index == 2


def test_minority_faults_cannot_block():
    rng = random.Random(1)
    for size in (4, 5, 6, 7):
        f = math.ceil(size / 3) - 1
        for _ in range(50):
            honest = [(2, "good")] * (size - f)
            byz = [(rng.randrange(90), str(rng.random())) for _ in range(f)]
            d = agree(subs(honest + byz), size=size)
            assert d is not None
            assert (d.leader, d.digest) == (2, "good")
            assert d.quorum_count >= quorum_threshold(size) - 0


def test_no_two_values_can_both_commit():
    # Byzantine members all push one forged value while honest members
    # split; does any pair of values ever reach quorum together?
    for size in (4, 5, 6, 7):
        q = quorum_threshold(size)
        for f in range(math.ceil(size / 3), size + 1):
            for h1 in range(0, size - f + 1):
                h2 = size - f - h1
                counts = {"F": f, "A": h1, "B": h2}
                reached = [v for v, c in counts.items() if c >= q]
                assert len(reached) <= 1
                sub = subs(
                    [(9, "F")] * f + [(1, "A")] * h1 + [(2, "B")] * h2
                )
                d = agree(sub, size=size)
                if reached:
                    assert d is not None
                    assert d.digest == reached[0]
                else:
                    assert d is None


def test_honest_supermajority_consistent_across_views():
    # fewer than a third Byzantine, equivocating per view: every honest
    # view still commits the same honest value
    palette = [(1, "H"), (8, "F1"), (9, "F2")]
    for size in (4, 5, 6, 7):
        f = math.ceil(size / 3) - 1
        honest = [(1, "H")] * (size - f)
        for view_a in itertools.product(palette, repeat=f):
            for view_b in itertools.product(palette, repeat=f):
                da = agree(subs(honest + list(view_a)), size=size)
                db = agree(subs(honest + list(view_b)), size=size)
                assert da is not None and db is not None
                assert (da.leader, da.digest) == (db.leader, db.digest) == (1, "H")


def test_rounds_always_terminate():
    rng = random.Random(3)
    outcomes = {"commit": 0, "abort": 0}
    for _ in range(2000):
        size = rng.randrange(4, 8)
        values = [(rng.randrange(3), str(rng.randrange(3))) for _ in range(size)]
        d = agree(subs(values), size=size)
        outcomes["commit" if d is not None else "abort"] += 1
    assert outcomes["commit"] > 0
    assert outcomes["abort"] > 0


def test_agree_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        agree(subs([(1, "x")] * 3), size=3)
    with pytest.raises(RejectedInputError):
        agree(subs([(1, "x")] * 5), size=4)
    with pytest.raises(RejectedInputError):
        agree({1: "not-a-sub", 2: (1, "x"), 3: (1, "x"), 4: (1, "x")}, size=4)


def test_decision_log_lines():
    d = Decision(round_index=4, leader=2, global_best=None, quorum_count=5, digest="z")
    assert decision_log_line(4, d) == "round=4 leader=2 quorum=5 aborted=0"
    assert decision_log_line(9, None) == "round=9 leader=- quorum=0 aborted=1"


# ---------------------------------------------------------------------------
# block verification


def make_round(seed=0, n_users=6, n_tx=40, capacity=12, k=3):
    rng = np.random.default_rng(seed)
    vecs = {u: rng.integers(0, 9, size=6).astype(float) for u in range(1, n_users + 1)}
    mempool = [
        Transaction(
            id=i,
            source_user=int(rng.integers(1, n_users + 1)),
            tx_class="ABCDEF"[rng.integers(6)],
            fee=float(rng.uniform(0, 0.002)),
            submit_time=float(rng.uniform(0, 50)),
        )
        for i in range(1, n_tx + 1)
    ]
    clusters = cluster_mempool(mempool, vecs, k=k, seed=seed)
    weights = PriorityWeights()
    now = 60.0
    lookup = {tx.id: tx for tx in mempool}
    block = pack_block(
        clusters, weights, capacity, now, b"\x00" * 32, lookup,
        round_index=1, producer=4,
    )
    prios = {}
    for cl in clusters:
        for tid in cl.tx_ids:
            prios[tid] = tx_priority(lookup[tid], now, cl, weights)
    decision = Decision(
        round_index=1, leader=4, global_best=None, quorum_count=4, digest="d",
    )
    return block, decision, prios


def test_verify_accepts_honest_block():
    block, decision, prios = make_round()
    ok, reason = verify_block(block, decision, prios)
    assert ok, reason


def test_verify_rejects_non_leader():
    block, decision, prios = make_round()
    fake = BlockHeader(
        block.header.prev_hash, block.header.merkle_root, block.header.flag,
        block.header.capacity, block.header.round_index, producer=9,
    )
    ok, reason = verify_block(Block(fake, block.body), decision, prios)
    assert not ok
    assert "leader" in reason


def test_verify_rejects_cleared_first_bit():
    block, decision, prios = make_round()
    flag = bytearray(block.header.flag)
    flag[0] &= 0x7F
    bad = BlockHeader(
        block.header.prev_hash, block.header.merkle_root, bytes(flag),
        block.header.capacity, block.header.round_index, block.header.producer,
    )
    ok, reason = verify_block(Block(bad, block.body), decision, prios)
    assert not ok
    assert "flag" in reason


def test_verify_rejects_merkle_mismatch():
    block, decision, prios = make_round()
    bad = BlockHeader(
        block.header.prev_hash, b"\x13" * 32, block.header.flag,
        block.header.capacity, block.header.round_index, block.header.producer,
    )
    ok, reason = verify_block(Block(bad, block.body), decision, prios)
    assert not ok
    assert "merkle" in reason


def test_verify_rejects_foreign_transaction():
    block, decision, prios = make_round()
    victim = block.body[0].id
    pruned = {tid: p for tid, p in prios.items() if tid != victim}
    ok, reason = verify_block(block, decision, pruned)
    assert not ok
    assert "snapshot" in reason


def find_reorderable_segment(block, prios):
    from pous.packing import cluster_sizes, decode_flag

    sizes = cluster_sizes(decode_flag(block.header), len(block.body))
    pos = 0
    for seg in sizes:
        seg_txs = block.body[pos:pos + seg]
        if len(seg_txs) >= 2 and prios[seg_txs[0].id] > prios[seg_txs[-1].id] + 1e-6:
            return pos, pos + seg - 1
        pos += seg
    raise AssertionError("no segment with distinct priorities")


def test_verify_rejects_reordered_segment():
    block, decision, prios = make_round(seed=5)
    i, j = find_reorderable_segment(block, prios)
    body = list(block.body)
    body[i], body[j] = body[j], body[i]
    hdr = BlockHeader(
        block.header.prev_hash, merkle_root(body), block.header.flag,
        block.header.capacity, block.header.round_index, block.header.producer,
    )
    ok, reason = verify_block(Block(hdr, tuple(body)), decision, prios)
    assert not ok
    assert "priorities increase" in reason


def test_verify_rejects_swapped_cluster_segments():
    from pous.packing import cluster_sizes, decode_flag

    block, decision, prios = make_round(seed=7)
    sizes = cluster_sizes(decode_flag(block.header), len(block.body))
    assert len(sizes) >= 2
    first, rest = block.body[:sizes[0]], block.body[sizes[0]:]
    body = tuple(rest) + tuple(first)
    offsets = [1, len(rest) + 1]
    for extra in np.cumsum(sizes[1:-1]):
        offsets.insert(1, 1 + int(extra))
    hdr = BlockHeader(
        block.header.prev_hash, merkle_root(body),
        encode_flag(sorted(offsets), block.header.capacity),
        block.header.capacity, block.header.round_index, block.header.producer,
    )
    ok, reason = verify_block(Block(hdr, body), decision, prios)
    assert not ok
    assert "out of priority order" in reason or "priorities increase" in reason
