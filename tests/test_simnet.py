"""Configuration, workload generation, both protocol runners, traces."""
import dataclasses
import json
import math
import weakref
from typing import Optional, get_type_hints

import numpy as np
import pytest
from scipy import stats

from pous import cli, garbled, simnet
from pous.committee import CommitteeConfig
from pous.errors import ConfigurationError, RejectedInputError
from pous.garbled import (
    DEFAULT_GROUP,
    LABEL_BYTES,
    DiffieHellmanOT,
    FixedPoint,
    GarbledCompareBackend,
    PlainCompareBackend,
)
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
    ("weights", (0.5, 2.0, 1.0)),
])
def test_config_checks_every_value_on_construction_and_replace(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        cfg(**{name: value})
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        dataclasses.replace(cfg(), **{name: value})


def test_committee_is_the_one_built_and_checked_by_committee_config():
    config = cfg(committee_size=5, rotation_period=3, honest_fraction=0.75, seed=9)
    assert config.committee() == CommitteeConfig(
        size=5, selection_seed=9, rotation_period=3, honest_fraction=0.75)
    with pytest.raises(ConfigurationError, match="rotation_period"):
        cfg(rotation_period=0)
    with pytest.raises(ConfigurationError, match="honest_fraction"):
        cfg(honest_fraction=-0.5)


# ---------------------------------------------------------------------------
# workload


def test_workload_deterministic_and_shared_between_protocols():
    c = cfg(n_nodes=10, sim_time=500.0, seed=42)
    wl_a = gen_workload(c, _rng_streams(c, "pous")["workload"])
    wl_b = gen_workload(c, _rng_streams(c, "pow")["workload"])
    for f in ("ids", "source", "tx_class", "fee", "submit", "arrival"):
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
    assert np.array_equal(wl.ids, np.arange(1, len(wl) + 1))
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
        want = 2 * sum(
            min(budgets[i], budgets[j])
            for i in range(len(budgets)) for j in range(len(budgets))
            if i != j
        )
        assert comparisons == want
        assert (seconds > 0) == (want > 0)
        assert (nbytes > 0) == (want > 0)


def test_round_costs_zero_budgets():
    assert _crypto_round_costs(np.zeros(5, dtype=int), cfg()) == (0, 0.0, 0)


class RecordingOT(DiffieHellmanOT):
    """DH transfer that keeps the transcript of every exchange."""

    def __init__(self, group):
        super().__init__(group)
        self.transcripts = []

    def exchange(self, m0, m1, bit):
        label, transcript = super().exchange(m0, m1, bit)
        self.transcripts.append(transcript)
        return label, transcript


def test_round_costs_match_a_real_comparison():
    # two miners with budget 1: 4 comparisons, 2 circuits per epoch
    w = 8
    ot = RecordingOT(DEFAULT_GROUP)
    template = garbled.garble_comparator(w, 0.4, seed=3)
    garbled.secure_compare(0.3, 0.6, 0.4, template=template, ot=ot)
    assert len(ot.transcripts) == w
    one = w * LABEL_BYTES + sum(t.total_bytes() for t in ot.transcripts)
    circuit = template.circuit
    comparisons, seconds, nbytes = _crypto_round_costs(
        np.array([1, 1]), cfg(bitwidth=w, rotation_period=1))
    assert comparisons == 4
    assert nbytes == 4 * one + 2 * len(circuit.serialize())
    assert seconds == 4 * len(circuit.gates) * garbled.ROW_TRIES * simnet._SHA_SECONDS


def test_width_checks_share_one_range():
    for w in (4, 32):
        PlainCompareBackend(0.4, bitwidth=w)
        GarbledCompareBackend(0.4, bitwidth=w)
        FixedPoint.encode(0.4, w)
        cfg(bitwidth=w)
    for w in (3, 33):
        with pytest.raises(RejectedInputError):
            PlainCompareBackend(0.4, bitwidth=w)
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


def test_pous_round_count_and_leader():
    c = small_pous_cfg()
    m = run_pous(c)
    assert m.rounds == 10
    powers = _rng_streams(c, "pous")["powers"].uniform(
        c.power_low, c.power_high, c.n_nodes
    )
    budgets = np.minimum(
        np.rint(powers * c.budget_scale).astype(int),
        c.n_nodes * (c.n_nodes - 1) // 2,
    )
    want_leader = int(np.argmax(budgets)) + 1
    assert m.aborts == 0
    assert leaders(m) == [want_leader] * m.rounds


def test_pous_deterministic():
    c = small_pous_cfg(seed=21)
    a, b = run_pous(c), run_pous(c)
    assert a.tps == b.tps
    assert a.confirmed_tx_count == b.confirmed_tx_count
    assert a.round_log == b.round_log
    assert a.crypto_bytes == b.crypto_bytes
    assert a.crypto_time == b.crypto_time
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


def test_pous_crypto_cost_scales_with_rounds():
    a = run_pous(small_pous_cfg())
    b = run_pous(small_pous_cfg(sim_time=2030.0))
    assert a.crypto_bytes > 0 and a.crypto_time > 0
    assert b.rounds == 2 * a.rounds
    assert b.crypto_bytes == pytest.approx(2 * a.crypto_bytes, rel=1e-9)
    assert b.crypto_time == pytest.approx(2 * a.crypto_time, rel=1e-9)


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
    from pous.packing import PriorityWeights

    c = small_pous_cfg(
        n_nodes=20, block_size_mb=0.01,
        weights=PriorityWeights(a=0.001, b=2.0, c=5.0),
    )
    m = run_pous(c)
    assert m.rounds_with_block >= 8
    assert m.confirmed_tx_count < m.total_tx_count
    assert m.functionality_wins >= 0.9 * m.rounds_with_block


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
        assert entry["sum_latency"] == 0.0


@pytest.mark.parametrize("run", [run_pous, run_pow])
def test_committed_transactions_arrived_in_time_and_commit_once(run, monkeypatch):
    blocks = []

    class RecordingChain(simnet._Chain):
        def commit(self, r, leader, chosen, commit_at):
            # reference: rebuild the pool from the admitted arrival prefix
            prefix = np.argsort(self.wl.arrival, kind="stable")[:self._seen]
            assert np.array_equal(self.pool, prefix[self.commit_time[prefix] == 0])
            # the whole pool, not only the packed part, must have arrived
            blocks.append((commit_at, self.wl.ids[self.pool[chosen]],
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


def test_rounds_that_bind_keep_their_round_seeds(monkeypatch):
    # about 360 arrivals a round against a capacity of 377: some rounds bind
    pools, seeds = [], []
    real = simnet.rank_pool

    class RecordingChain(simnet._Chain):
        def select(self, capacity, ranker):
            pools.append(len(self.pool))
            return super().select(capacity, ranker)

    def recording(view, wl, idx, now, config, seed):
        seeds.append(seed)
        return real(view, wl, idx, now, config, seed)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    monkeypatch.setattr(simnet, "rank_pool", recording)
    c = small_pous_cfg(block_size_mb=0.09, sigma=10.0)
    m = run_pous(c)
    # every round is decided and finds a pool, so every round draws
    assert len(pools) == m.rounds
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
            by_fee = np.lexsort((wl.ids[pool], wl.submit[pool], -wl.fee[pool]))
            blocks.append((len(pool), np.sort(pool[chosen]),
                           np.sort(pool[by_fee[:capacity]])))
            super().commit(r, leader, chosen, commit_at)

    monkeypatch.setattr(simnet, "_Chain", RecordingChain)
    run_pow(c)
    binding = [(packed, top) for n, packed, top in blocks if n > capacity]
    assert binding
    for packed, top in binding:
        assert np.array_equal(packed, top)


# ---------------------------------------------------------------------------
# one workload per cell


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
    assert simnet._held[0] == b and simnet._held[1] is wl_b


def test_workload_arrays_are_read_only():
    wl = simnet._workload(small_pous_cfg(seed=54))
    assert len(wl) > 0
    for name in [f.name for f in dataclasses.fields(wl)] + ["arrival_order"]:
        with pytest.raises(ValueError):
            getattr(wl, name)[0] = 0
    # sorted once per workload, stably, and shared by every run that reads it
    assert wl.arrival_order is wl.arrival_order
    assert np.array_equal(wl.arrival_order, np.argsort(wl.arrival, kind="stable"))


# ---------------------------------------------------------------------------
# metrics plumbing


def test_metrics_csv_row_uses_repr_floats():
    # a cells.csv row: cli._fmt over the summary, in CSV_FIELDS order
    m = run_pow(cfg(n_nodes=5, sim_time=500.0, block_interval=100.0, seed=1))
    fields = Metrics.CSV_FIELDS
    summary = m.summary()
    assert tuple(summary) == fields
    row = [cli._fmt(summary[f]) for f in fields]
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

