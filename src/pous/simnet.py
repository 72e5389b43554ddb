"""Round-loop simulation of the similarity consensus and a
proof-of-work baseline.

The similarity protocol runs as a plain loop over fixed-length rounds
(mining, voting, result waiting), each decided at its count deadline;
the baseline walks exponential block gaps. A cell's two runs read one
read-only workload, generated once per config and held until the next
config asks for its own (:func:`_workload`), so throughput comparisons
pair replicate by replicate. Both admit, commit and log transactions
through one ledger (:class:`_Chain`), so the two differ only in how a
round picks its leader and orders its pool; each round's leader is
read from the round log. Traffic is held in columnar arrays, which
keeps million-transaction runs fast.

A round ranks its pool only when the block binds: a pool that fits in
one block is packed whole, in arrival order (:meth:`_Chain.select`).
A pous round still draws its k-means seed then, so the rounds that do
bind keep their seeds. Packing order comes from
:func:`pous.packing.cluster_users`, :func:`pous.packing.priority` and
:func:`pous.packing.rank`, the same clustering step and rule the
library's block assembly uses.

Simulated miners all watch the same mempool, so their user vectors
agree and honest comparisons always approve shared entries. That
collapses the voting tally to budget arithmetic: the leader is the
miner that computed the longest prefix of the pair sequence. No test
yet checks this shortcut against the full record-level tally.
Cryptographic cost is accounted from the comparator facts that
:mod:`pous.garbled` publishes (:func:`~pous.garbled.comparator_size`,
:func:`~pous.garbled.comparison_bytes`, ``ROW_TRIES``); no comparison
is actually run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from hashlib import sha256
from typing import Iterator, Mapping, Optional, get_type_hints

import numpy as np

from . import garbled
from .committee import (
    CommitteeConfig,
    RoundTimers,
    agree,
    select_committee,
)
from .errors import ConfigurationError
# kmeans stays importable here: the benchmark's tracer patches simnet.kmeans
from .packing import PriorityWeights, cluster_users, kmeans, priority, rank
from .similarity import DEFAULT_CLASSES

# sha256 throughput measured on this class of hardware; only used to
# convert gate counts into simulated seconds
_SHA_SECONDS = 4.4e-7


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run. Times in seconds, sizes in bytes
    unless suffixed otherwise."""

    n_nodes: int = 30
    sim_time: float = 10000.0
    tx_size: int = 250
    tx_delay_mean: float = 0.5
    block_size_mb: float = 1.0
    block_interval: float = 600.0
    block_delay: float = 0.4
    tx_count_mean: float = 30.0
    fee_mean: float = 0.000062
    sigma: float = 1.0
    weights: PriorityWeights = field(default_factory=PriorityWeights)
    power_low: float = 0.0
    power_high: float = 100.0
    budget_scale: float = 12.0
    committee_size: int = 4
    rotation_period: int = 5
    honest_fraction: float = 1.0
    k_clusters: int = 3
    bitwidth: int = 16
    tx_epoch: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is PriorityWeights:
                if not isinstance(value, PriorityWeights):
                    raise ConfigurationError(f"weights must be PriorityWeights, got {value!r}")
            elif not (value is None and kind == Optional[float]):
                if isinstance(value, bool) or not isinstance(
                    value, int if kind is int else (int, float)
                ):
                    expected = "an integer" if kind is int else "a number"
                    raise ConfigurationError(f"{name} must be {expected}, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigurationError(f"{name} must be finite, got {value!r}")
        positive = {
            "n_nodes": self.n_nodes, "sim_time": self.sim_time,
            "tx_size": self.tx_size, "block_size_mb": self.block_size_mb,
            "block_interval": self.block_interval, "block_delay": self.block_delay,
            "tx_delay_mean": self.tx_delay_mean, "budget_scale": self.budget_scale,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")
        if not 0.0 <= self.power_low < self.power_high:
            raise ConfigurationError("power range must satisfy 0 <= low < high")
        self.committee()  # CommitteeConfig checks the committee's own ranges
        if self.committee_size > self.n_nodes:
            raise ConfigurationError(
                f"committee_size {self.committee_size} exceeds n_nodes {self.n_nodes}")
        if self.k_clusters < 1:
            raise ConfigurationError("k_clusters must be at least 1")
        if self.bitwidth not in garbled.BITWIDTHS:
            raise ConfigurationError("bitwidth outside 4..32, the comparator's range")
        if self.tx_epoch is not None and self.tx_epoch <= 0:
            raise ConfigurationError("tx_epoch must be positive when set")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")

    def committee(self) -> CommitteeConfig:
        """The vote-counting committee of this run; it checks its own ranges."""
        return CommitteeConfig(
            size=self.committee_size,
            selection_seed=self.seed,
            rotation_period=self.rotation_period,
            honest_fraction=self.honest_fraction,
        )

    def capacity(self) -> int:
        """Transactions per block: block size over transaction size."""
        r = int(self.block_size_mb * (1 << 20) // self.tx_size)
        if r < 1:
            raise ConfigurationError("block too small for a single transaction")
        return r


_FIELD_TYPES = get_type_hints(SimConfig)


# ---------------------------------------------------------------------------
# workload


@dataclass
class Workload:
    """Columnar transaction stream, sorted by submit time, ids 1-based."""

    ids: np.ndarray
    source: np.ndarray
    tx_class: np.ndarray
    fee: np.ndarray
    submit: np.ndarray
    arrival: np.ndarray

    def __post_init__(self):
        # both runners of a cell read one workload, so no run may write to it
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def arrival_order(self) -> np.ndarray:
        """Stable argsort of ``arrival``, sorted once per workload, read-only."""
        order = np.argsort(self.arrival, kind="stable")
        order.setflags(write=False)
        return order


def gen_workload(config: SimConfig, rng: np.random.Generator) -> Workload:
    """Sample the transaction stream.

    Per node and per generation epoch (default: the whole run), the
    transaction count is a rounded normal clamped at zero. Fees share
    the clamp; submit times are uniform inside the epoch; mempool
    arrival adds a clamped normal delay of at least one millisecond.
    """
    epoch = config.tx_epoch if config.tx_epoch is not None else config.sim_time
    n_epochs = max(1, math.ceil(config.sim_time / epoch))
    counts = np.rint(
        rng.normal(config.tx_count_mean, config.sigma, size=(n_epochs, config.n_nodes))
    ).astype(int)
    counts = np.maximum(counts, 0)

    total = int(counts.sum())
    epoch_node_counts = counts.reshape(-1)
    source = np.repeat(
        np.tile(np.arange(1, config.n_nodes + 1), n_epochs), epoch_node_counts
    )
    submit = (np.repeat(np.repeat(np.arange(n_epochs), config.n_nodes), epoch_node_counts)
              + rng.random(total)) * epoch
    # the kept transactions in submit order; each later column is drawn
    # whole, which fixes the stream, and then taken in this order
    kept = np.flatnonzero(submit <= config.sim_time)
    order = kept[np.argsort(submit[kept], kind="stable")]
    source, submit = source[order], submit[order]
    fee = np.maximum(rng.normal(config.fee_mean, config.sigma, total), 0.0)[order]
    tx_class = rng.integers(0, len(DEFAULT_CLASSES), total)[order]
    delay = np.maximum(rng.normal(config.tx_delay_mean, config.sigma, total), 0.001)[order]
    return Workload(
        ids=np.arange(1, len(order) + 1, dtype=np.int64),
        source=source.astype(np.int64, copy=False),
        tx_class=tx_class.astype(np.int64, copy=False),
        fee=fee,
        submit=submit,
        arrival=submit + delay,
    )


# the workload of the last config asked for; see _workload
_held: Optional[tuple[SimConfig, Workload]] = None


def _workload(config: SimConfig) -> Workload:
    """The transaction stream of ``config``, generated once per cell.

    Both runners and the scatter rows read their workload here, so a
    cell's pous and pow runs share one. At most one workload is held:
    the old one is dropped before a new one is generated, so two never
    live at once.
    """
    global _held
    if _held is None or _held[0] != config:
        _held = None
        # the workload stream is the same for every protocol
        _held = (config, gen_workload(config, _rng_streams(config, "pous")["workload"]))
    return _held[1]


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    protocol: str
    sim_time: float
    seed: int
    total_tx_count: int
    confirmed_tx_count: int
    tps: float
    mean_latency: float
    p50_latency: float
    p90_latency: float
    rounds: int
    blocks_committed: int
    aborts: int
    crypto_time: float
    crypto_bytes: int
    functionality_wins: int
    rounds_with_block: int
    latencies: np.ndarray
    round_log: list

    CSV_FIELDS = (
        "protocol", "seed", "sim_time", "total_tx_count", "confirmed_tx_count",
        "tps", "mean_latency", "p50_latency", "p90_latency", "rounds",
        "blocks_committed", "aborts", "crypto_time", "crypto_bytes",
        "functionality_wins", "rounds_with_block",
    )

    def summary(self) -> dict:
        return {f: getattr(self, f) for f in self.CSV_FIELDS}


# ---------------------------------------------------------------------------
# crypto cost accounting


def _crypto_round_costs(budgets: np.ndarray, config: SimConfig) -> tuple[int, float, int]:
    """Comparisons, simulated seconds, and transcript bytes per round.

    Every ordered (voter, candidate) pair compares the common prefix of
    their budgeted pair sequences, two matrix slots per user pair.
    Evaluation time is gates times rows tried per gate times the hash
    cost; bytes cover generator labels, the transfer transcript per evaluator
    bit, and the per-epoch circuit shipment amortized over the
    rotation period.
    """
    max_b = int(budgets.max()) if len(budgets) else 0
    if max_b == 0:
        return 0, 0.0, 0
    sorted_b = np.sort(budgets)
    ranks = np.arange(1, max_b + 1)
    cnt_ge = len(budgets) - np.searchsorted(sorted_b, ranks, side="left")
    comparisons = int(2 * (cnt_ge * (cnt_ge - 1)).sum())
    gates, circuit_bytes = garbled.comparator_size(config.bitwidth)
    eval_seconds = comparisons * gates * garbled.ROW_TRIES * _SHA_SECONDS
    per_cmp_bytes = garbled.comparison_bytes(
        config.bitwidth, garbled.DiffieHellmanOT(garbled.DEFAULT_GROUP))
    m = len(budgets)
    circuit_share = circuit_bytes * m * (m - 1) / config.rotation_period
    total_bytes = int(comparisons * per_cmp_bytes + circuit_share)
    return comparisons, eval_seconds, total_bytes


# ---------------------------------------------------------------------------
# shared run helpers


def _rng_streams(config: SimConfig, protocol: str) -> dict[str, np.random.Generator]:
    """Independent generators per purpose.

    The workload stream depends only on the seed, never the protocol,
    so both protocols consume the identical transaction stream and
    replicate-level comparisons are paired.
    """
    root = np.random.SeedSequence(config.seed)
    wl_seq, proto_seq = root.spawn(2)
    streams = {"workload": np.random.default_rng(wl_seq)}
    material = sha256(f"{protocol}".encode()).digest()
    proto_root = np.random.SeedSequence(
        entropy=proto_seq.entropy,
        spawn_key=proto_seq.spawn_key + (int.from_bytes(material[:4], "big"),),
    )
    for name, seq in zip(("powers", "rounds", "faults"), proto_root.spawn(3)):
        streams[name] = np.random.default_rng(seq)
    return streams


# ---------------------------------------------------------------------------
# the shared ledger


class _Chain:
    """Mempool and commit ledger that both runners account through.

    The pool holds the transactions that have arrived and are not yet
    committed, in arrival order: newcomers are appended as time
    advances and committed entries are filtered out, so no round
    rescans the arrival prefix. Every round record is written by
    :meth:`log`.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self._order = wl.arrival_order
        self._arrivals = wl.arrival[self._order]
        self._seen = 0
        self.pool = self._order[:0]
        self.commit_time = np.zeros(len(wl))
        self.blocks = 0
        self.round_log: list[dict] = []

    def admit(self, now: float) -> np.ndarray:
        """Append the transactions arrived by ``now``; returns them."""
        hi = int(np.searchsorted(self._arrivals, now, side="right"))
        fresh = self._order[self._seen:hi]
        self._seen = hi
        self.pool = np.concatenate((self.pool, fresh))
        return fresh

    def select(self, capacity: int, ranker) -> tuple[np.ndarray, Optional[tuple]]:
        """Pool positions of the next block, and the ranking that chose them.

        A pool that fits in one block is packed whole without calling
        ``ranker``, and the ranking is None. Otherwise ``ranker(pool)``
        returns a tuple whose first item orders the pool, and the block
        is the first ``capacity`` positions of that order.
        """
        if len(self.pool) <= capacity:
            return np.arange(len(self.pool)), None
        ranking = ranker(self.pool)
        return ranking[0][:capacity], ranking

    def commit(self, r: int, leader: int, chosen: np.ndarray, commit_at: float) -> None:
        """Commit the pool entries at positions ``chosen`` as round r's block."""
        keep = np.ones(len(self.pool), dtype=bool)
        keep[chosen] = False
        packed = self.pool[chosen]
        self.pool = self.pool[keep]
        self.commit_time[packed] = commit_at
        self.blocks += 1
        self.log(r, leader, packed, commit_at)

    def log(self, r: int, leader: int, packed=(), commit_at: float = -1.0,
            aborted: int = 0) -> None:
        """Round r's record; a round that packs nothing commits at -1.

        ``sum_latency`` is exactly rounded (``math.fsum``), so it does not
        depend on the order in which the block lists its transactions.
        """
        n = len(packed)
        self.round_log.append({
            "round": r, "aborted": aborted, "leader": leader, "packed": n,
            "commit_time": commit_at if n else -1.0,
            "sum_latency": math.fsum((commit_at - self.wl.submit[packed]).tolist()) if n else 0.0,
        })

    def metrics(self, protocol: str, config: SimConfig, wins: int, rounds_with_block: int,
                crypto_time: float = 0.0, crypto_bytes: int = 0) -> Metrics:
        committed = self.commit_time > 0
        latencies = self.commit_time[committed] - self.wl.submit[committed]
        count = int(committed.sum())
        return Metrics(
            protocol=protocol,
            sim_time=config.sim_time,
            seed=config.seed,
            total_tx_count=len(self.wl),
            confirmed_tx_count=count,
            tps=count / config.sim_time,
            mean_latency=float(latencies.mean()) if count else float("nan"),
            p50_latency=float(np.percentile(latencies, 50)) if count else float("nan"),
            p90_latency=float(np.percentile(latencies, 90)) if count else float("nan"),
            rounds=len(self.round_log),
            blocks_committed=self.blocks,
            aborts=sum(e["aborted"] for e in self.round_log),
            crypto_time=crypto_time,
            crypto_bytes=crypto_bytes,
            functionality_wins=wins,
            rounds_with_block=rounds_with_block,
            latencies=latencies,
            round_log=self.round_log,
        )


def rank_pool(view: np.ndarray, wl: Workload, idx: np.ndarray, now: float,
              config: SimConfig, seed: int):
    """One round's packing order over the pool ``idx``.

    The pool's source users are clustered on their rows of ``view`` by
    :func:`pous.packing.cluster_users`; each transaction's distance is
    its user's distance to the cluster centre, which feeds
    :func:`pous.packing.priority` and :func:`pous.packing.rank`. Returns
    (order, per-transaction distance, users, labels); ``order`` indexes
    into ``idx``.
    """
    src = wl.source[idx]
    users = np.unique(src)
    labels, _, dist = cluster_users(view[users], config.k_clusters, seed)
    dist_user = np.zeros(len(view))
    dist_user[users] = dist
    d_tx = dist_user[src]
    submit = wl.submit[idx]
    prio = priority(now, submit, wl.fee[idx], d_tx, config.weights)
    return rank(prio, submit, wl.ids[idx]), d_tx, users, labels


# ---------------------------------------------------------------------------
# the similarity protocol


def run_pous(config: SimConfig) -> Metrics:
    """Simulate the similarity consensus for config.sim_time seconds."""
    streams = _rng_streams(config, "pous")
    wl = _workload(config)
    capacity = config.capacity()
    interval = config.block_interval
    n = config.n_nodes

    powers = streams["powers"].uniform(config.power_low, config.power_high, n)
    total_pairs = n * (n - 1) // 2
    budgets = np.minimum(
        np.rint(powers * config.budget_scale).astype(int), total_pairs
    )
    # symmetric views: the longest verified prefix wins every tally
    leader = int(np.argmax(budgets)) + 1
    _, round_crypto_time, round_crypto_bytes = _crypto_round_costs(budgets, config)

    committee_cfg = config.committee()
    miners = list(range(1, n + 1))

    chain = _Chain(wl)
    view = np.zeros((n + 1, len(DEFAULT_CLASSES)))
    n_rounds = int(config.sim_time // interval)
    wins = 0
    rounds_with_block = 0
    crypto_time = 0.0
    fault_rng = streams["faults"]
    round_rng = streams["rounds"]

    for r in range(n_rounds):
        # the committee counts the votes at the end of the result window
        now = RoundTimers.split_interval(r * interval, interval).result_waiting_deadline
        committee = select_committee(miners, committee_cfg, r)
        digest = sha256(f"round{r}|leader{leader}|b{int(budgets[leader - 1])}".encode()).hexdigest()
        submissions = {}
        for member in committee:
            if fault_rng.random() < config.honest_fraction:
                submissions[member] = (leader, digest)
            else:
                submissions[member] = (0, f"garbled-view-{r}-{member}")
        decision = agree(submissions, committee_cfg.size, round_index=r)
        crypto_time += round_crypto_time

        if decision is None:
            chain.log(r, -1, aborted=1)
            continue

        fresh = chain.admit(now)
        np.add.at(view, (wl.source[fresh], wl.tx_class[fresh]), 1.0)
        if len(chain.pool) == 0:
            chain.log(r, decision.leader)
            continue

        # drawn even when the pool fits, so rounds that bind keep their seeds
        seed = int(round_rng.integers(2**63))
        chosen, ranking = chain.select(
            capacity, lambda pool: rank_pool(view, wl, pool, now, config, seed))
        if ranking is None:  # the whole pool: as near its clusters as itself
            wins += 1
        else:
            d_tx = ranking[1]
            wins += float(d_tx[chosen].mean()) <= float(d_tx.mean()) + 1e-12
        rounds_with_block += 1

        commit_at = now + config.block_delay
        if commit_at <= config.sim_time:
            chain.commit(r, decision.leader, chosen, commit_at)
        else:
            chain.log(r, decision.leader)

    return chain.metrics("pous", config, wins, rounds_with_block,
                         crypto_time, round_crypto_bytes * n_rounds)


# ---------------------------------------------------------------------------
# proof-of-work baseline


def run_pow(config: SimConfig) -> Metrics:
    """Work baseline: exponential block times, power-weighted leader,
    fee-descending packing, identical confirmation accounting."""
    streams = _rng_streams(config, "pow")
    wl = _workload(config)
    capacity = config.capacity()

    powers = streams["powers"].uniform(config.power_low, config.power_high, config.n_nodes)
    pweights = powers / powers.sum()
    rng = streams["rounds"]

    chain = _Chain(wl)
    now = 0.0
    while True:
        now += rng.exponential(config.block_interval)
        commit_at = now + config.block_delay
        if commit_at > config.sim_time:
            break
        leader = int(rng.choice(config.n_nodes, p=pweights)) + 1
        r = len(chain.round_log)
        chain.admit(now)
        if len(chain.pool) == 0:
            chain.log(r, leader)
            continue
        chosen, _ = chain.select(
            capacity, lambda pool: (rank(wl.fee[pool], wl.submit[pool], wl.ids[pool]),))
        chain.commit(r, leader, chosen, commit_at)

    return chain.metrics("pow", config, wins=0, rounds_with_block=chain.blocks)


# ---------------------------------------------------------------------------
# run trace


def trace_lines(config: SimConfig, protocol: str, metrics: Metrics) -> Iterator[str]:
    """Replayable line-delimited run log: header, rounds, summary."""
    cfg = {f.name: getattr(config, f.name) for f in fields(config)}
    cfg["weights"] = [config.weights.a, config.weights.b, config.weights.c]
    yield json.dumps({"kind": "header", "protocol": protocol, "config": cfg},
                     sort_keys=True)
    for entry in metrics.round_log:
        yield json.dumps({"kind": "round", **entry}, sort_keys=True)
    yield json.dumps({
        "kind": "summary",
        "confirmed_tx_count": metrics.confirmed_tx_count,
        "tps": metrics.tps,
        "mean_latency": None if math.isnan(metrics.mean_latency) else metrics.mean_latency,
        "blocks_committed": metrics.blocks_committed,
        "aborts": metrics.aborts,
    }, sort_keys=True)


def config_from_fields(values: Mapping) -> SimConfig:
    """SimConfig from field values; ``weights`` may be given as an
    (a, b, c) sequence.

    Unknown fields raise ConfigurationError naming them; SimConfig
    checks every value.
    """
    unknown = sorted(set(values) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigurationError(f"unknown config fields: {unknown}")
    values = dict(values)
    weights = values.get("weights")
    if weights is not None and not isinstance(weights, PriorityWeights):
        try:
            values["weights"] = PriorityWeights(*weights)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"weights {weights!r}: {exc}") from None
    return SimConfig(**values)


def config_from_trace_header(header: dict) -> tuple[SimConfig, str]:
    """The configuration and protocol a trace header records.

    Every SimConfig field must be present and no other; anything else
    raises ConfigurationError.
    """
    protocol = header.get("protocol")
    if protocol not in ("pous", "pow"):
        raise ConfigurationError(f"trace header names unknown protocol {protocol!r}")
    cfg = header.get("config")
    if not isinstance(cfg, dict):
        raise ConfigurationError("trace header carries no config object")
    missing = sorted(set(_FIELD_TYPES) - set(cfg))
    if missing:
        raise ConfigurationError(f"trace header lacks config fields: {missing}")
    return config_from_fields(cfg), protocol


def replay_trace(lines: list[str]) -> tuple[bool, str]:
    """Re-run a trace's configuration and diff every logged line.

    Returns (ok, message); any divergence names the first offending
    line. A header that cannot be read raises ConfigurationError.
    """
    if not lines:
        return False, "empty trace"
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"trace line 1 is not JSON: {exc.msg}") from None
    if not isinstance(header, dict) or header.get("kind") != "header":
        return False, "first line is not a trace header"
    config, protocol = config_from_trace_header(header)
    runner = run_pous if protocol == "pous" else run_pow
    metrics = runner(config)
    fresh = list(trace_lines(config, protocol, metrics))
    if len(fresh) != len(lines):
        return False, f"trace length {len(lines)} != replayed {len(fresh)}"
    for i, (old, new) in enumerate(zip(lines, fresh)):
        if old.strip() != new.strip():
            return False, f"line {i + 1} diverged:\n  trace:  {old.strip()}\n  replay: {new.strip()}"
    return True, f"replayed {len(lines)} lines, all identical"
