"""Configuration, workload generation, both protocol runners, traces."""
import csv
import dataclasses
import io
import json
import math
import weakref
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from pous import simnet
from pous.committee import CommitteeConfig, RoundTimers, select_committee
from pous.errors import ConfigurationError, RejectedInputError
from pous.garbled import (
    DEFAULT_GROUP,
    LABEL_BYTES,
    DiffieHellmanOT,
    FixedPoint,
    GarbledCompareBackend,
    TrustedDealerOT,
)
from pous.cli import main
from pous.packing import PriorityWeights, rank
from pous.simnet import (
    Metrics,
    SimConfig,
    _crypto_round_costs,
    _rng_streams,
    config_from_trace_header,
    gen_workload,
    replay_trace,
    run_pous,
    run_pow,
    trace_lines,
)
from pous.round import run_round
from pous.similarity import DEFAULT_CLASSES, DataView, Transaction, build_user_vectors


def cfg(**kw):
    return SimConfig(**kw)


def leaders(m):
    """Round leaders from the round log: every decided pous round, and
    every pow round that packed a block."""
    if m.protocol == "pous":
        return [e["leader"] for e in m.round_log if not e["aborted"]]
    return [e["leader"] for e in m.round_log if e["packed"] > 0]


# ---------------------------------------------------------------------------
# configuration


def test_default_capacity():
    assert cfg().capacity() == 4194  # 1 MiB of 250-byte transactions


def test_capacity_scales_with_block_size():
    assert cfg(block_size_mb=2.0).capacity() == 2 * 4194
    assert cfg(tx_size=500).capacity() == 2097


def test_capacity_requires_room_for_one_tx():
    with pytest.raises(ConfigurationError):
        cfg(block_size_mb=1e-5, tx_size=250).capacity()


def test_config_validation():
    bad = [
        dict(n_nodes=0),
        dict(sim_time=0),
        dict(power_low=10, power_high=5),
        dict(committee_size=3),
        dict(committee_size=31),
        dict(rotation_period=0),
        dict(honest_fraction=1.2),
        dict(k_clusters=0),
        dict(bitwidth=1),
        dict(bitwidth=3),  # the comparator starts at 4 bits
        dict(tx_epoch=0.0),
        dict(sigma=-1),
        dict(seed=-1),  # numpy's SeedSequence takes no negative entropy
    ]
    for kw in bad:
        with pytest.raises(ConfigurationError):
            cfg(**kw)


FLOAT_FIELDS = [name for name, kind in get_type_hints(SimConfig).items()
                if kind in (float, Optional[float])]


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in FLOAT_FIELDS for value in (math.nan, math.inf)),
    ("k_clusters", 2.5),
    ("seed", True),
    ("sim_time", "600"),
    ("block_size_mb", 1e-5),  # too small for one 250-byte transaction
])
def test_config_checks_every_value_on_construction_and_replace(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        cfg(**{name: value})
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        dataclasses.replace(cfg(), **{name: value})


def test_weights_are_the_ones_built_and_checked_by_priority_weights():
    assert cfg(weight_a=0.25, weight_b=3, weight_c=1.5).weights() == PriorityWeights(0.25, 3, 1.5)
    assert cfg().weights() == PriorityWeights()
    for bad in (dict(weight_c=-1.0), dict(weight_a=0.0, weight_b=0.0, weight_c=0.0)):
        with pytest.raises(ConfigurationError, match="^weight_a, weight_b, weight_c: "):
            cfg(**bad)


def test_committee_is_the_one_built_and_checked_by_committee_config():
    config = cfg(committee_size=5, rotation_period=3, honest_fraction=0.75, seed=9)
    assert config.committee() == CommitteeConfig(size=5, selection_seed=9, rotation_period=3)
    with pytest.raises(ConfigurationError, match="rotation_period"):
        cfg(rotation_period=0)


def test_honest_fraction_is_checked_by_sim_config():
    for value in (-0.5, 1.2):
        with pytest.raises(ConfigurationError, match="^honest_fraction must lie in"):
            cfg(honest_fraction=value)


# ---------------------------------------------------------------------------
# workload


def test_workload_deterministic_and_shared_between_protocols():
    c = cfg(n_nodes=10, sim_time=500.0, seed=42)
    wl_a = gen_workload(c, _rng_streams(c, "pous")["workload"])
    wl_b = gen_workload(c, _rng_streams(c, "pow")["workload"])
    for f in ("source", "tx_class", "fee", "submit", "arrival"):
        assert np.array_equal(getattr(wl_a, f), getattr(wl_b, f))
    assert len(wl_a) > 0


def test_workload_protocol_streams_differ():
    c = cfg(seed=42)
    p_a = _rng_streams(c, "pous")["powers"].uniform(0, 1, 8)
    p_b = _rng_streams(c, "pow")["powers"].uniform(0, 1, 8)
    assert not np.allclose(p_a, p_b)


def test_workload_exact_counts_at_zero_sigma():
    c = cfg(n_nodes=6, sim_time=100.0, sigma=0.0, tx_count_mean=30.0, seed=1)
    wl = gen_workload(c, np.random.default_rng(0))
    assert len(wl) == 6 * 30
    assert np.all(wl.fee == c.fee_mean)
    counts = np.bincount(wl.source, minlength=7)[1:]
    assert (counts == 30).all()


def test_workload_shape_invariants():
    c = cfg(n_nodes=8, sim_time=400.0, tx_epoch=100.0, seed=9)
    wl = gen_workload(c, np.random.default_rng(3))
    assert (np.diff(wl.submit) >= 0).all()
    assert (wl.submit >= 0).all() and (wl.submit <= c.sim_time).all()
    assert (wl.arrival >= wl.submit + 0.001).all()
    assert (wl.fee >= 0).all()
    assert wl.source.min() >= 1 and wl.source.max() <= 8
    assert wl.tx_class.min() >= 0 and wl.tx_class.max() <= 5


def test_workload_total_near_mean():
    c = cfg(n_nodes=30, sim_time=900.0, tx_epoch=300.0, sigma=1.0, seed=5)
    wl = gen_workload(c, np.random.default_rng(5))
    # 3 epochs x 30 nodes x 30 expected; sd of the sum is sqrt(90)
    assert abs(len(wl) - 2700) < 4 * math.sqrt(90) + 10


def test_workload_empty_when_demand_is_zero():
    c = cfg(tx_count_mean=0.0, sigma=0.0)
    wl = gen_workload(c, np.random.default_rng(0))
    assert len(wl) == 0


# ---------------------------------------------------------------------------
# crypto accounting


def test_round_costs_match_pairwise_prefix_oracle():
    rng = np.random.default_rng(12)
    c = cfg(bitwidth=8)
    for _ in range(30):
        budgets = rng.integers(0, 40, size=rng.integers(2, 12))
        comparisons, seconds, nbytes = _crypto_round_costs(budgets, c)
        want = sum(
            min(budgets[i], budgets[j])
            for i in range(len(budgets)) for j in range(len(budgets))
            if i != j
        )
        assert comparisons == want
        assert (seconds > 0) == (want > 0)
        assert (nbytes > 0) == (want > 0)


def test_round_costs_zero_budgets():
    assert _crypto_round_costs(np.zeros(5, dtype=int), cfg()) == (0, 0.0, 0)


class CountingDealerOT(TrustedDealerOT):
    """Dealer transfer that counts its batches: one per comparison run."""

    def __init__(self):
        self.batches = 0

    def exchange(self, pairs, bits):
        self.batches += 1
        return super().exchange(pairs, bits)


class RecordingOT(DiffieHellmanOT):
    """DH transfer that keeps the transcript of every batch."""

    def __init__(self, group):
        super().__init__(group)
        self.transcripts = []

    def exchange(self, pairs, bits):
        labels, transcript = super().exchange(pairs, bits)
        self.transcripts.append(transcript)
        return labels, transcript


def test_round_costs_match_a_real_comparison():
    # two miners with budget 1: each compares its one pair once, and each
    # ships its circuit to the other once per epoch
    w = 8
    ot = RecordingOT(DEFAULT_GROUP)
    backend = GarbledCompareBackend(0.4, w, seed=3, ot=ot)
    backend.compare(0.3, 0.6)
    assert len(ot.transcripts) == 1  # one batch per comparison
    one = w * LABEL_BYTES + ot.transcripts[0].total_bytes()
    circuit = backend.template.circuit
    comparisons, seconds, nbytes = _crypto_round_costs(
        np.array([1, 1]), cfg(bitwidth=w, rotation_period=1))
    assert comparisons == 2
    assert nbytes == 2 * one + 2 * len(circuit.serialize())
    assert seconds == 2 * len(circuit.gates) * simnet._PAD_SECONDS


def test_width_checks_share_one_range():
    for w in (4, 32):
        GarbledCompareBackend(0.4, bitwidth=w)
        FixedPoint.encode(0.4, w)
        cfg(bitwidth=w)
    for w in (3, 33):
        with pytest.raises(ConfigurationError):
            GarbledCompareBackend(0.4, bitwidth=w)
        with pytest.raises(RejectedInputError):
            FixedPoint.encode(0.4, w)
        with pytest.raises(ConfigurationError):
            cfg(bitwidth=w)


# ---------------------------------------------------------------------------
# proof-of-work runner


def test_pow_no_transactions():
    m = run_pow(cfg(tx_count_mean=0.0, sigma=0.0, seed=3))
    assert m.total_tx_count == 0
    assert m.confirmed_tx_count == 0
    assert m.tps == 0.0
    assert math.isnan(m.mean_latency)


def test_pow_deterministic():
    c = cfg(n_nodes=10, sim_time=3000.0, block_interval=100.0, seed=8)
    a, b = run_pow(c), run_pow(c)
    assert a.tps == b.tps
    assert a.confirmed_tx_count == b.confirmed_tx_count
    assert a.round_log == b.round_log
    assert np.array_equal(a.latencies, b.latencies)


def test_pow_latency_accounting():
    c = cfg(n_nodes=10, sim_time=5000.0, block_interval=300.0, seed=4)
    m = run_pow(c)
    assert m.confirmed_tx_count == int(sum(r["packed"] for r in m.round_log))
    assert m.tps == pytest.approx(m.confirmed_tx_count / c.sim_time)
    lat = m.latencies
    assert len(lat) == m.confirmed_tx_count
    assert (lat >= c.block_delay).all()
    assert m.mean_latency == pytest.approx(float(lat.mean()))
    assert m.p50_latency <= m.p90_latency
    assert m.blocks_committed == len(leaders(m))


def test_pow_respects_capacity():
    # roughly 41 tx fit per block, far fewer than the backlog
    c = cfg(n_nodes=10, sim_time=1000.0, block_interval=100.0,
            block_size_mb=0.01, tx_epoch=100.0, seed=6)
    m = run_pow(c)
    capacity = c.capacity()
    assert capacity == 41
    assert all(r["packed"] <= capacity for r in m.round_log)
    assert m.confirmed_tx_count < m.total_tx_count


def test_pow_leader_frequency_tracks_power():
    c = cfg(n_nodes=5, sim_time=4000.0, block_interval=0.5, power_low=1.0,
            tx_epoch=1.0, tx_count_mean=2.0, sigma=0.0, block_size_mb=0.001,
            seed=2)
    m = run_pow(c)
    won = leaders(m)
    assert len(won) > 5000
    powers = _rng_streams(c, "pow")["powers"].uniform(
        c.power_low, c.power_high, c.n_nodes
    )
    expected = powers / powers.sum() * len(won)
    observed = np.bincount(np.array(won) - 1, minlength=c.n_nodes)
    assert stats.chisquare(observed, expected).pvalue > 0.01


# ---------------------------------------------------------------------------
# similarity-consensus runner


def small_pous_cfg(**kw):
    base = dict(n_nodes=12, sim_time=1030.0, block_interval=100.0,
                tx_epoch=100.0, seed=15)
    base.update(kw)
    return cfg(**base)


def pous_budgets(c):
    """Pairs each simulated miner computes per round, from the run's power stream."""
    powers = _rng_streams(c, "pous")["powers"].uniform(c.power_low, c.power_high, c.n_nodes)
    return np.minimum(np.rint(powers * c.budget_scale).astype(int),
                      c.n_nodes * (c.n_nodes - 1) // 2)


def test_pous_round_count_and_leader():
    c = small_pous_cfg()
    m = run_pous(c)
    assert m.rounds == 10
    budgets = pous_budgets(c)
    # only the top budget reaches pairs nobody else computed, and those
    # earn no approvals: the lowest id reaching the second-highest leads
    want_leader = int(np.flatnonzero(budgets >= np.sort(budgets)[-2])[0]) + 1
    assert m.aborts == 0
    assert leaders(m) == [want_leader] * m.rounds


@pytest.mark.parametrize("n_nodes, budget_scale, seed, want_budgets", [
    (4, 0.05, 7, [1, 5, 3, 4]),
    (4, 0.05, 8, [1, 3, 4, 5]),  # top budget unique, a lower id holds the second
    (5, 0.1, 1, [9, 3, 1, 5, 7]),
    (6, 0.1, 29, [6, 5, 7, 2, 9, 4]),
])
def test_simulated_leader_and_comparisons_match_the_library_round(
        n_nodes, budget_scale, seed, want_budgets):
    c = cfg(n_nodes=n_nodes, budget_scale=budget_scale, seed=seed, sim_time=200.0,
            block_interval=100.0)
    budgets = pous_budgets(c)
    # distinct and below the cap, so the tally separates every miner
    assert budgets.tolist() == want_budgets
    assert budgets.max() < n_nodes * (n_nodes - 1) // 2

    # round 0 through the library round, with garbled comparators and dealer
    # OT: every miner sees the transactions that arrived by the count
    # deadline, mines at its budget, and votes
    wl = simnet._workload(c)
    now = RoundTimers.split_interval(0.0, c.block_interval).result_waiting_deadline
    arrived = tuple(
        Transaction(id=int(i) + 1, source_user=int(wl.source[i]),
                    tx_class=DEFAULT_CLASSES[wl.tx_class[i]], fee=float(wl.fee[i]),
                    submit_time=float(wl.submit[i]))
        for i in np.flatnonzero(wl.arrival <= now)
    )
    # the library counts users as the simulator does: row u - 1 of the
    # library's matrix is row u of the simulator's round-0 view
    pool = simnet._Chain(wl).admit(now)
    view = np.zeros((n_nodes + 1, len(DEFAULT_CLASSES)))
    np.add.at(view, (wl.source[pool], wl.tx_class[pool]), 1.0)
    assert np.array_equal(build_user_vectors(DataView((), arrived), n_nodes), view[1:])
    miners = range(1, n_nodes + 1)
    ot = CountingDealerOT()
    out = run_round(dict.fromkeys(miners, DataView((), arrived)), n_nodes,
                    {m: int(budgets[m - 1]) for m in miners}, seeds={m: m for m in miners},
                    theta=0.01, committee=c.committee(), capacity=c.capacity(), now=now, ot=ot)

    assert out.decision.leader == run_pous(c).round_log[0]["leader"]
    # the model charges the comparisons the round ran; each valid verdict
    # covers both slots of its user pair
    assert ot.batches == _crypto_round_costs(budgets, c)[0]
    assert sum(r.valid for r in out.records) == 2 * ot.batches


def test_pous_deterministic():
    c = small_pous_cfg(seed=21)
    a, b = run_pous(c), run_pous(c)
    assert a.tps == b.tps
    assert a.confirmed_tx_count == b.confirmed_tx_count
    assert a.round_log == b.round_log
    assert a.crypto == b.crypto
    assert np.array_equal(a.latencies, b.latencies)


def test_pous_commit_timing():
    c = small_pous_cfg()
    m = run_pous(c)
    for entry in m.round_log:
        if entry["packed"]:
            round_end = (entry["round"] + 1) * c.block_interval
            assert entry["commit_time"] == pytest.approx(round_end + c.block_delay)
    assert (m.latencies > 0).all()
    assert m.confirmed_tx_count == int(sum(r["packed"] for r in m.round_log))


def test_pous_all_faulty_committee_aborts_every_round():
    m = run_pous(small_pous_cfg(honest_fraction=0.0))
    assert m.aborts == m.rounds
    assert m.blocks_committed == 0
    assert m.confirmed_tx_count == 0
    assert leaders(m) == []


def test_pous_crypto_is_the_cost_model_per_round():
    """A run's crypto figures are the cost model's for the cell's budgets,
    per round, so a longer run moves only its round count."""
    c = small_pous_cfg()
    a, b = run_pous(c), run_pous(small_pous_cfg(sim_time=2030.0))
    assert a.crypto == _crypto_round_costs(pous_budgets(c), c)
    assert all(x > 0 for x in a.crypto)
    assert (b.rounds, b.crypto) == (2 * a.rounds, a.crypto)
    assert run_pow(c).crypto == (0, 0.0, 0)


def test_pous_packs_whole_pool_when_capacity_allows():
    # default block size swallows the round's arrivals: selected set is
    # the pool itself, so its mean distance can never exceed the pool's
    c = small_pous_cfg(n_nodes=20)
    m = run_pous(c)
    assert m.rounds_with_block >= 8
    assert m.functionality_wins == m.rounds_with_block


def test_pous_similarity_term_steers_selection_under_pressure():
    # tight capacity plus distance-dominant weights: packed txs sit
    # closer to their cluster centers than the pool average
    c = small_pous_cfg(n_nodes=20, block_size_mb=0.01,
                       weight_a=0.001, weight_b=2.0, weight_c=5.0)
    m = run_pous(c)
    assert m.rounds_with_block >= 8
    assert m.confirmed_tx_count < m.total_tx_count
    assert m.functionality_wins >= 0.9 * m.rounds_with_block


@pytest.mark.parametrize("period", [1, 3, 5])
def test_committee_is_the_rotations_in_every_round(period, monkeypatch):
    # drawn once per rotation period, it is still every round's draw
    seen = []
    real = simnet.agree

    def recording(submissions, size, round_index=0):
        seen.append(tuple(submissions))
        return real(submissions, size, round_index=round_index)

    monkeypatch.setattr(simnet, "agree", recording)
    c = small_pous_cfg(sim_time=1330.0, rotation_period=period)  # 13 rounds
    assert run_pous(c).rounds == 13
    miners = list(range(1, c.n_nodes + 1))
    assert seen == [select_committee(miners, c.committee(), r) for r in range(13)]
    assert len(set(seen)) > 1


def test_pous_and_pow_share_tx_stream():
    c = small_pous_cfg(seed=33)
    assert run_pous(c).total_tx_count == run_pow(c).total_tx_count


def test_pous_no_transactions():
    m = run_pous(small_pous_cfg(tx_count_mean=0.0, sigma=0.0))
    assert m.total_tx_count == 0
    assert m.blocks_committed == 0
    assert m.aborts == 0
    assert len(leaders(m)) == m.rounds


# ---------------------------------------------------------------------------
# the ledger both runners share


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_round_that_packs_nothing_commits_nothing(run):
    # one transaction per node over ten rounds: most rounds find an
    # empty pool
    c = cfg(n_nodes=6, sim_time=1000.0, block_interval=100.0, tx_epoch=1000.0,
            tx_count_mean=1.0, sigma=0.0, seed=3)
    m = run(c)
    empty = [e for e in m.round_log if e["packed"] == 0]
    assert empty and len(empty) < len(m.round_log)
    for entry in empty:
        assert entry["commit_time"] == -1.0
    traced = [json.loads(line) for line in trace_lines(c, m.protocol, m)][1:-1]
    assert [e for e in traced if e["packed"] == 0] == [
        {"kind": "round", **entry, "sum_latency": 0.0} for entry in empty]


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_committed_transactions_arrived_in_time_and_commit_once(run, monkeypatch):
    blocks = []

    class RecordingChain(simnet._Chain):
        def commit(self, r, leader, chosen, commit_at):
            # reference: rebuild the pool from the admitted arrival prefix
            prefix = np.argsort(self.wl.arrival, kind="stable")[:self._seen]
            assert np.array_equal(self.pool, prefix[self.commit_time[prefix] == 0])
            # the whole pool, not only the packed part, must have arrived
            blocks.append((commit_at, self.pool[chosen] + 1,
                           self.wl.arrival[self.pool]))
            super().commit(r, leader, chosen, commit_at)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    c = small_pous_cfg(n_nodes=20, block_size_mb=0.01)
    m = run(c)
    assert any(len(ids) == c.capacity() for _, ids, _ in blocks)
    assert m.confirmed_tx_count < m.total_tx_count
    for commit_at, _, arrival in blocks:
        assert (commit_at - c.block_delay >= arrival).all()
    ids = np.concatenate([ids for _, ids, _ in blocks])
    assert len(np.unique(ids)) == len(ids) == m.confirmed_tx_count
    packed = [e["packed"] for e in m.round_log if e["packed"]]
    assert packed == [len(block) for _, block, _ in blocks]


@settings(max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(4, 12),
    sim_time=st.floats(100.0, 2000.0),
    block_interval=st.floats(100.0, 600.0),
    # 4..200 transactions per block against 30 per node: some blocks bind
    block_size_mb=st.floats(0.001, 0.05),
    block_delay=st.floats(0.1, 10.0),
    honest_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_runners_keep_their_accounting(**fields):
    c = cfg(**fields)
    for run in (run_pous, run_pow):
        m = run(c)
        assert m.confirmed_tx_count <= m.total_tx_count
        assert all(e["packed"] <= c.capacity() for e in m.round_log)
        assert sum(e["packed"] for e in m.round_log) == m.confirmed_tx_count
        # commit_at - submit rounds once, so allow an ulp below the delay
        assert (m.latencies >= c.block_delay - 1e-9).all()
        assert math.isclose(m.tps * c.sim_time, m.confirmed_tx_count, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# ranking only when the block binds


def _no_ranking(*_args):
    raise AssertionError("ranked a pool that fits in one block")


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_pool_that_fits_is_packed_without_ranking(run, monkeypatch):
    monkeypatch.setattr(simnet, "rank_pool", _no_ranking)
    monkeypatch.setattr(simnet, "rank", _no_ranking)
    c = small_pous_cfg(n_nodes=20)
    m = run(c)
    assert m.blocks_committed > 0
    assert all(e["packed"] < c.capacity() for e in m.round_log)
    if run is run_pous:
        assert m.functionality_wins == m.rounds_with_block == m.blocks_committed


def _forbidden(*_args):
    raise AssertionError("work a run without a trace does not need")


def test_pool_that_fits_is_never_counted(monkeypatch):
    # only ranking reads the users' counts
    monkeypatch.setattr(simnet._Chain, "counts", _forbidden)
    c = small_pous_cfg(n_nodes=20)
    m = run_pous(c)
    assert m.blocks_committed > 0
    assert all(e["packed"] < c.capacity() for e in m.round_log)


@pytest.mark.parametrize("honest_fraction", [1.0, 0.8])
def test_ranking_reads_the_counts_of_every_admitted_transaction(honest_fraction,
                                                                monkeypatch):
    # the counts catch up only when a round ranks, over every round since
    real = simnet.rank_pool
    ranked = []

    def checking(view, wl, idx, now, config, seed):
        admitted = wl.arrival <= now
        expected = np.zeros_like(view)
        np.add.at(expected, (wl.source[admitted], wl.tx_class[admitted]), 1.0)
        assert np.array_equal(view, expected)
        ranked.append(now)
        return real(view, wl, idx, now, config, seed)

    monkeypatch.setattr(simnet, "rank_pool", checking)
    c = small_pous_cfg(block_size_mb=0.09, sigma=10.0, honest_fraction=honest_fraction)
    m = run_pous(c)
    assert 2 <= len(ranked) < m.rounds


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_untraced_binding_run_sums_no_latencies(run, monkeypatch):
    # only trace_lines reads a round's latency sum
    monkeypatch.setattr(math, "fsum", _forbidden)
    c = small_pous_cfg(block_size_mb=0.01)
    m = run(c)
    assert any(e["packed"] == c.capacity() for e in m.round_log)


def test_binding_pow_block_sorts_no_pool(monkeypatch):
    monkeypatch.setattr(simnet, "rank", _forbidden)
    c = small_pous_cfg(block_size_mb=0.01)
    assert any(e["packed"] == c.capacity() for e in run_pow(c).round_log)


def test_rounds_that_bind_keep_their_round_seeds(monkeypatch):
    # about 360 arrivals a round against a capacity of 377: some rounds bind
    pools, seeds = [], []
    real = simnet.rank_pool

    class RecordingChain(simnet._Chain):
        def admit(self, now):
            fresh = super().admit(now)
            pools.append(len(self.pool))
            return fresh

    def recording(view, wl, idx, now, config, seed):
        seeds.append(seed)
        return real(view, wl, idx, now, config, seed)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    monkeypatch.setattr(simnet, "rank_pool", recording)
    c = small_pous_cfg(block_size_mb=0.09, sigma=10.0)
    m = run_pous(c)
    # every round is decided and finds a pool, so every round draws
    assert len(pools) == m.rounds and all(pools)
    rounds = _rng_streams(c, "pous")["rounds"]
    draws = [int(rounds.integers(2**63)) for _ in pools]
    binding = [d for d, n in zip(draws, pools) if n > c.capacity()]
    assert 0 < len(binding) < len(draws)
    assert c.capacity() in pools  # a pool of exactly one block is not ranked
    assert seeds == binding


def test_binding_pow_block_packs_the_top_fees(monkeypatch):
    c = cfg(n_nodes=10, sim_time=1000.0, block_interval=100.0,
            block_size_mb=0.01, tx_epoch=100.0, seed=6)
    capacity = c.capacity()
    blocks = []

    class RecordingChain(simnet._Chain):
        def commit(self, r, leader, chosen, commit_at):
            wl, pool = self.wl, self.pool
            # highest fee first, ties to the earlier submit, then the lower id
            by_fee = np.lexsort((pool + 1, wl.submit[pool], -wl.fee[pool]))
            blocks.append((len(pool), np.sort(pool[chosen]),
                           np.sort(pool[by_fee[:capacity]])))
            super().commit(r, leader, chosen, commit_at)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    run_pow(c)
    binding = [(packed, top) for n, packed, top in blocks if n > capacity]
    assert binding
    for packed, top in binding:
        assert np.array_equal(packed, top)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 60), fees=st.sampled_from(["half zero", "all equal", "distinct"]),
       data=st.data())
def test_top_fees_is_the_ranked_block(n, fees, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.permutation(3 * n)[:n]  # a pool in arrival order, not row order
    # rows are in submit order: submit times that never fall with the row,
    # with ties among them
    submit = np.floor(rows / 3.0)
    fee = {"half zero": np.maximum(rng.normal(0.0, 1.0, n), 0.0),  # the workload's draw
           "all equal": np.full(n, 0.25),
           "distinct": rng.random(n)}[fees]
    k = data.draw(st.sampled_from([1, n - 1, data.draw(st.integers(1, n - 1))]))
    chosen = simnet._top_fees(fee, rows, k)
    assert len(chosen) == len(set(chosen.tolist())) == k
    assert set(chosen.tolist()) == set(rank(fee, submit, rows + 1)[:k].tolist())


@pytest.mark.parametrize("n, zero_share, seed", [
    (40_000, 0.85, 1), (57_000, 0.93, 2), (80_000, 0.98, 3)])
def test_top_fees_cuts_inside_a_long_run_of_zero_fees(n, zero_share, seed):
    # the shape of a backlogged pow pool: tens of thousands of entries,
    # nearly all of them zero fee, the block's cut among the zeros
    rng = np.random.default_rng(seed)
    rows = rng.permutation(3 * n)[:n]  # a pool in arrival order, not row order
    submit = np.floor(rows / 3.0)
    fee = np.where(rng.random(n) < zero_share, 0.0, rng.exponential(1.0, n))
    zeros = np.flatnonzero(fee == 0.0)
    fee[zeros[len(zeros) // 2]] = -0.0
    paid = n - len(zeros)
    # highest fee first, ties to the earlier submit, then the lower id
    by_fee = np.lexsort((rows + 1, submit, -fee))
    for k in (paid + 1, paid + len(zeros) // 2, n - 1):
        chosen = simnet._top_fees(fee, rows, k)
        assert np.array_equal(np.sort(chosen), np.sort(by_fee[:k]))


# ---------------------------------------------------------------------------
# one workload per workload key


def test_pous_then_pow_generate_one_workload(monkeypatch):
    calls = []
    real = simnet.gen_workload

    def counting(config, rng):
        calls.append(config)
        return real(config, rng)

    monkeypatch.setattr(simnet, "gen_workload", counting)
    monkeypatch.setattr(simnet, "_held", None)
    c = small_pous_cfg(seed=51)
    assert run_pous(c).total_tx_count == run_pow(c).total_tx_count > 0
    assert calls == [c]


def test_new_config_drops_the_held_workload_before_generating(monkeypatch):
    monkeypatch.setattr(simnet, "_held", None)
    a, b = small_pous_cfg(seed=52), small_pous_cfg(seed=53)
    held = weakref.ref(simnet._workload(a))
    real = simnet.gen_workload

    def generate(config, rng):
        assert held() is None, "two workloads alive at once"
        return real(config, rng)

    monkeypatch.setattr(simnet, "gen_workload", generate)
    wl_b = simnet._workload(b)
    assert simnet._workload(b) is wl_b
    assert simnet._held[0] == simnet.workload_key(b) and simnet._held[1] is wl_b


# a second valid value of every SimConfig field, each one that the
# transaction stream reads far enough from the base to move it
PERTURBED = dict(
    n_nodes=9, sim_time=520.0, tx_size=300, tx_delay_mean=0.7, block_size_mb=0.02,
    block_interval=150.0, block_delay=0.5, tx_count_mean=25.0, fee_mean=0.5, sigma=0.5,
    weight_a=1.0, weight_b=1.0, weight_c=2.0, power_low=5.0, power_high=50.0,
    budget_scale=6.0, committee_size=5, rotation_period=3, honest_fraction=0.5,
    k_clusters=2, bitwidth=8, tx_epoch=130.0, seed=8, workload_seed=12,
)


def test_the_workload_key_holds_every_field_the_workload_reads():
    """Moving one field changes gen_workload's stream exactly when it
    changes the workload key, so a field gen_workload starts to read
    fails here by name until WORKLOAD_FIELDS lists it. ``seed`` moves
    nothing under a set ``workload_seed``."""
    assert set(PERTURBED) == {f.name for f in dataclasses.fields(SimConfig)}
    base = small_pous_cfg(n_nodes=8, sim_time=430.0, block_size_mb=0.01, seed=7,
                          workload_seed=11)

    def stream(config):
        return gen_workload(config, _rng_streams(config, "pous")["workload"])

    want = stream(base)
    for name, value in PERTURBED.items():
        config = dataclasses.replace(base, **{name: value})
        got = stream(config)
        moved = not all(np.array_equal(getattr(got, f.name), getattr(want, f.name))
                        for f in dataclasses.fields(got))
        keyed = simnet.workload_key(config) != simnet.workload_key(base)
        assert moved == keyed, f"{name}: stream moved {moved}, key moved {keyed}"


def test_the_workload_seed_moves_only_the_workload_stream():
    c = cfg(seed=42)

    def draws(config):
        return {name: g.random(4) for name, g in _rng_streams(config, "pous").items()}

    unset, same, other = (draws(dataclasses.replace(c, workload_seed=w))
                          for w in (None, 42, 5))
    for name in unset:
        assert np.array_equal(unset[name], same[name])
        assert np.array_equal(unset[name], other[name]) == (name != "workload"), name


@pytest.mark.parametrize("value", [-1, 2.5, True, "3"])
def test_workload_seed_is_unset_or_a_nonnegative_integer(value):
    with pytest.raises(ConfigurationError, match="^workload_seed must be"):
        cfg(workload_seed=value)


def test_workload_arrays_are_read_only():
    wl = simnet._workload(small_pous_cfg(seed=54))
    assert len(wl) > 0
    for name in [f.name for f in dataclasses.fields(wl)] + ["arrival_order"]:
        with pytest.raises(ValueError):
            getattr(wl, name)[0] = 0
    # sorted once per workload, stably, and shared by every run that reads it
    assert wl.arrival_order is wl.arrival_order
    assert np.array_equal(wl.arrival_order, np.argsort(wl.arrival, kind="stable"))


# few distinct keys, so runs of ties are long; both zeros, both
# infinities and NaN among them
_TIED_KEYS = st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.one_of(_TIED_KEYS, st.floats()), max_size=80))
@example(keys=[math.nan, 1.0, math.nan, 0.0, math.nan])  # NaNs only tie with each other
@example(keys=[0.0, -0.0, 0.0, -0.0])
@example(keys=[3.0, 2.0, 1.0])  # no ties: the second sort is skipped
# NaNs the only run among distinct keys, too many for an insertion sort
@example(keys=np.where(np.arange(64) % 3 == 0, math.nan,
                       np.random.default_rng(5).random(64)).tolist())
def test_stable_argsort_is_the_stable_permutation(keys):
    x = np.array(keys, dtype=float)
    assert np.array_equal(simnet._stable_argsort(x), np.argsort(x, kind="stable"))


# ---------------------------------------------------------------------------
# metrics plumbing


def test_metrics_csv_row_uses_repr_floats():
    # a cells.csv row: the summary through csv.writer, in field order
    m = run_pow(cfg(n_nodes=5, sim_time=500.0, block_interval=100.0, seed=1))
    summary = m.summary()
    fields = list(summary)
    assert fields == [f.name for f in dataclasses.fields(Metrics)
                      if f.name not in ("crypto", "latencies", "commit_rounds", "round_log")]
    assert fields[:3] == ["protocol", "seed", "sim_time"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(summary.values())
    row = buf.getvalue().rstrip("\n").split(",")
    assert row[fields.index("protocol")] == "pow"
    assert row[fields.index("tps")] == repr(m.tps)
    assert row[fields.index("confirmed_tx_count")] == str(m.confirmed_tx_count)


# ---------------------------------------------------------------------------
# traces


def test_trace_replay_roundtrip_pous():
    c = small_pous_cfg(seed=44)
    lines = list(trace_lines(c, "pous", run_pous(c)))
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    rebuilt, protocol = config_from_trace_header(header)
    assert protocol == "pous"
    assert rebuilt == c
    ok, msg = replay_trace(lines)
    assert ok, msg
    assert json.loads(lines[-1])["kind"] == "summary"


def test_trace_replay_roundtrip_pow():
    c = cfg(n_nodes=8, sim_time=700.0, block_interval=100.0, seed=45)
    lines = list(trace_lines(c, "pow", run_pow(c)))
    ok, msg = replay_trace(lines)
    assert ok, msg


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_trace_sums_each_rounds_latencies(run, monkeypatch):
    sums = {}

    class RecordingChain(simnet._Chain):
        def commit(self, r, leader, chosen, commit_at):
            packed = self.pool[chosen]
            sums[r] = math.fsum((commit_at - self.wl.submit[packed]).tolist())
            super().commit(r, leader, chosen, commit_at)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    c = small_pous_cfg(block_size_mb=0.01)
    m = run(c)
    traced = [json.loads(line) for line in trace_lines(c, m.protocol, m)][1:-1]
    assert any(e["packed"] == c.capacity() for e in traced)
    assert [e["sum_latency"] for e in traced] == [sums.get(r, 0.0) for r in range(m.rounds)]


@pytest.mark.parametrize("protocol", ["pous", "pow"])
def test_traces_from_round_logs_that_held_the_sum_still_replay(protocol):
    """Each file was written when a run's round log still carried
    ``sum_latency``; both pack full blocks."""
    trace = Path(__file__).parent / "data" / f"trace-{protocol}-binding.jsonl"
    assert main(["replay", str(trace)]) == 0


def test_trace_replay_flags_divergence():
    c = small_pous_cfg(seed=46)
    lines = list(trace_lines(c, "pous", run_pous(c)))
    doctored = lines[:]
    entry = json.loads(doctored[2])
    entry["packed"] = entry.get("packed", 0) + 1
    doctored[2] = json.dumps(entry, sort_keys=True)
    ok, msg = replay_trace(doctored)
    assert not ok
    assert "line 3" in msg


def test_trace_replay_rejects_garbage():
    assert replay_trace([]) == (False, "empty trace")
    ok, msg = replay_trace([json.dumps({"kind": "round"})])
    assert not ok and "header" in msg

