"""Round-loop simulation of the similarity consensus and a
proof-of-work baseline.

The similarity protocol runs as a plain loop over fixed-length rounds
(mining, voting, result waiting), each decided at its count deadline;
the baseline walks exponential block gaps. A cell's two runs read one
read-only workload, generated once per workload key (the fields
:func:`gen_workload` reads and the workload seed, :func:`workload_key`)
and held until a config with another key asks for its own
(:func:`_workload`), so throughput comparisons pair replicate by
replicate. The traffic has its own seed, ``workload_seed``, which
defaults to ``seed``; the protocol streams (powers, rounds, faults)
always draw from ``seed``, so configs that differ only in fields the
traffic does not read, or only in ``seed`` under one ``workload_seed``,
share one workload. Both admit, commit and log transactions
through one ledger (:class:`_Chain`), so the two differ only in how a
round picks its leader and orders its pool; each round's leader is
read from the round log. ``RUNNERS`` names the two protocols and maps
each to its runner. Traffic is held in columnar arrays, which keeps
million-transaction runs fast. A run keeps each committed transaction's
latency and commit round; only :func:`trace_lines` sums a round's
latencies, so a run that writes no trace pays nothing for them.

A round ranks its pool only when the block binds: each runner packs a
pool that fits in one block whole, in arrival order, and ranks only a
larger one. A pous round still draws its k-means seed before that test,
so the rounds that do bind keep their seeds. Only ranking reads the
users' per-class counts, so they are brought up to date only in a round
that ranks (:meth:`_Chain.counts`), and the committee, fixed for a
rotation period, is drawn once per period. Packing order comes from
:func:`pous.packing.cluster_users`, :func:`pous.packing.priority` and
:func:`pous.packing.rank`, the same clustering step and rule the
library's block assembly uses.

Simulated miners all watch the same mempool, so their user vectors
agree and honest comparisons always approve shared entries. That
collapses the voting tally to budget arithmetic. An entry that only one
miner computed earns no approval, so every miner whose budget reaches
the second-highest budget ties on approvals, and the lowest id among
them leads. A differential test checks this shortcut against the
record-level pipeline of :mod:`pous.similarity` and :mod:`pous.bts`.
Cryptographic cost is accounted from the comparator facts that
:mod:`pous.garbled` publishes (:func:`~pous.garbled.comparator_size`,
:func:`~pous.garbled.comparison_bytes`); no comparison is actually run.
The cost feeds no other figure: ``Metrics.crypto`` holds it per round,
and it goes to ``crypto.csv``, not ``cells.csv``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from hashlib import sha256
from typing import Iterator, Mapping, Optional, get_args, get_type_hints

import numpy as np

from . import garbled
from .committee import (
    CommitteeConfig,
    RoundTimers,
    agree,
    select_committee,
)
from .errors import ConfigurationError, RejectedInputError
# kmeans stays importable here: the benchmark's tracer patches simnet.kmeans
from .packing import (
    DEFAULT_CLUSTERS, PriorityWeights, cluster_users, kmeans, pca_project, priority, rank,
)
from .similarity import DEFAULT_CLASSES, Transaction

# simulated seconds per garbled gate evaluated. The model charges one
# row pad per gate: point-and-permute names the one row the evaluator
# opens, and its pad is the only hash it computes per gate, whatever the
# gate's fan-in or output count. A pad is one BLAKE2b call, but 4.4e-7 s
# is the earlier SHA-256 pad's figure, not a BLAKE2b measurement; it
# stays until ROADMAP item 6 calibrates it. The library evaluator runs
# slower, since it pays interpreter overhead this constant leaves out:
# about 1.2 us per gate, 53-57 us per evaluation of the 47-gate width-16
# comparator (untraced medians, shared 2-core x86-64, Python 3.11).
# Changing the value moves only crypto.csv's pinned digest
_PAD_SECONDS = 4.4e-7


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run. Times in seconds, sizes in bytes
    unless suffixed otherwise."""

    n_nodes: int = 30
    sim_time: float = 10000.0
    tx_size: int = Transaction.size_bytes
    tx_delay_mean: float = 0.5
    block_size_mb: float = 1.0
    block_interval: float = 600.0
    block_delay: float = 0.4
    tx_count_mean: float = 30.0
    fee_mean: float = 0.000062
    sigma: float = 1.0
    weight_a: float = PriorityWeights.a
    weight_b: float = PriorityWeights.b
    weight_c: float = PriorityWeights.c
    power_low: float = 0.0
    power_high: float = 100.0
    budget_scale: float = 12.0
    committee_size: int = 4
    rotation_period: int = 5
    honest_fraction: float = 1.0
    k_clusters: int = DEFAULT_CLUSTERS
    bitwidth: int = garbled.DEFAULT_BITWIDTH
    tx_epoch: Optional[float] = None
    seed: int = 0
    workload_seed: Optional[int] = None  # the traffic's seed; None reads seed

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not (value is None and type(None) in get_args(kind)):
                integral = int in (kind, *get_args(kind))
                if isinstance(value, bool) or not isinstance(
                    value, int if integral else (int, float)
                ):
                    expected = "an integer" if integral else "a number"
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
        if not 0.0 <= self.honest_fraction <= 1.0:
            raise ConfigurationError(
                f"honest_fraction must lie in [0, 1], got {self.honest_fraction}")
        self.committee()  # CommitteeConfig checks the committee's own ranges
        try:
            self.weights()
        except RejectedInputError as exc:
            raise ConfigurationError(f"weight_a, weight_b, weight_c: {exc}") from None
        if self.committee_size > self.n_nodes:
            raise ConfigurationError(
                f"committee_size {self.committee_size} exceeds n_nodes {self.n_nodes}")
        if self.k_clusters < 1:
            raise ConfigurationError("k_clusters must be at least 1")
        if self.bitwidth not in garbled.BITWIDTHS:
            raise ConfigurationError("bitwidth outside 4..32, the comparator's range")
        if self.tx_epoch is not None and self.tx_epoch <= 0:
            raise ConfigurationError("tx_epoch must be positive when set")
        for name in ("seed", "workload_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {value}")
        if self.capacity() < 1:
            raise ConfigurationError(f"block_size_mb must be at least one tx_size "
                                     f"({self.tx_size} bytes), got {self.block_size_mb}")

    def committee(self) -> CommitteeConfig:
        """The vote-counting committee of this run; it checks its own ranges."""
        return CommitteeConfig(
            size=self.committee_size,
            selection_seed=self.seed,
            rotation_period=self.rotation_period,
        )

    def weights(self) -> PriorityWeights:
        """The packing rule's weights a, b and c; they check their own ranges."""
        return PriorityWeights(self.weight_a, self.weight_b, self.weight_c)

    def capacity(self) -> int:
        """Transactions per block: block size over transaction size."""
        return int(self.block_size_mb * (1 << 20) // self.tx_size)


_FIELD_TYPES = get_type_hints(SimConfig)


# ---------------------------------------------------------------------------
# workload


@dataclass
class Workload:
    """Columnar transaction stream, sorted by submit time; a transaction's
    id is its row plus one."""

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
        return len(self.submit)

    @cached_property
    def arrival_order(self) -> np.ndarray:
        """Stable argsort of ``arrival``, sorted once per workload, read-only."""
        order = _stable_argsort(self.arrival)
        order.setflags(write=False)
        return order


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` by way of the faster default sort.

    Equal keys, NaNs among them, are put back in index order by a second
    sort, which runs only when the sorted keys hold such a run; NaNs sort
    last, so two of them leave one second from the end.
    """
    order = np.argsort(x)
    xs = x[order]
    if len(xs) > 1 and ((xs[1:] == xs[:-1]).any() or np.isnan(xs[-2])):
        order = order[np.lexsort((order, xs))]
    return order


# the SimConfig fields gen_workload reads: a field it starts to read goes here
WORKLOAD_FIELDS = ("n_nodes", "sim_time", "tx_epoch", "tx_count_mean", "sigma",
                   "fee_mean", "tx_delay_mean")


def _workload_seed(config: SimConfig) -> int:
    """The seed the traffic is drawn from: ``workload_seed``, else ``seed``."""
    return config.seed if config.workload_seed is None else config.workload_seed


def workload_key(config: SimConfig) -> tuple:
    """What fixes ``config``'s transaction stream: the fields
    :func:`gen_workload` reads and the workload seed."""
    return (*(getattr(config, name) for name in WORKLOAD_FIELDS), _workload_seed(config))


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
    order = kept[_stable_argsort(submit[kept])]
    source, submit = source[order], submit[order]
    fee = np.maximum(rng.normal(config.fee_mean, config.sigma, total), 0.0)[order]
    tx_class = rng.integers(0, len(DEFAULT_CLASSES), total)[order]
    delay = np.maximum(rng.normal(config.tx_delay_mean, config.sigma, total), 0.001)[order]
    return Workload(
        source=source.astype(np.int64, copy=False),
        tx_class=tx_class.astype(np.int64, copy=False),
        fee=fee,
        submit=submit,
        arrival=submit + delay,
    )


# the workload of the last key asked for, with that key; see _workload
_held: Optional[tuple[tuple, Workload]] = None


def _workload(config: SimConfig) -> Workload:
    """The transaction stream of ``config``, generated once per workload key.

    Both runners and :func:`pca_scatter_rows` read their workload here, so a
    cell's pous and pow runs share one, and so do the cells of a sweep
    whose swept field the traffic does not read, when they share a
    workload seed. At most one workload is held: the old one is dropped
    before a new one is generated, so two never live at once.
    """
    global _held
    key = workload_key(config)
    if _held is None or _held[0] != key:
        _held = None
        # the workload stream is the same for every protocol
        _held = (key, gen_workload(config, _rng_streams(config, "pous")["workload"]))
    return _held[1]


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    """One run: ``summary()`` is its ``cells.csv`` row, ``crypto`` its ``crypto.csv`` figures."""

    protocol: str
    seed: int
    sim_time: float
    total_tx_count: int
    confirmed_tx_count: int
    tps: float
    mean_latency: float
    p50_latency: float
    p90_latency: float
    rounds: int
    blocks_committed: int
    aborts: int
    functionality_wins: int
    rounds_with_block: int
    crypto: tuple[int, float, int]  # per round: comparisons, seconds, bytes
    latencies: np.ndarray
    commit_rounds: np.ndarray  # the round that committed each entry of latencies
    round_log: list

    def summary(self) -> dict:
        """Every field in order but the cost and the per-transaction and per-round ones."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("crypto", "latencies", "commit_rounds", "round_log")}


# ---------------------------------------------------------------------------
# crypto cost accounting


def _crypto_round_costs(budgets: np.ndarray, config: SimConfig) -> tuple[int, float, int]:
    """Comparisons, simulated seconds, and transcript bytes per round:
    a pous run's ``Metrics.crypto``, which ``crypto.csv`` writes.

    Every ordered (voter, candidate) pair compares the common prefix of
    their budgeted pair sequences, one comparison per user pair, whose
    verdict both slots of the pair carry (``bts.cast_votes``). Evaluation
    time is gates times the cost of one row pad, opened per gate; bytes
    cover generator labels, one transfer batch per comparison (a transfer
    per two evaluator bits), and the per-epoch circuit shipment, one per voter
    of each candidate with a nonzero budget, amortized over the rotation
    period.

    The matrices and vote blobs a round also moves (``round.vote``'s
    ``matrix`` and ``votes``: 8 + 16 B per matrix and pair to each other
    miner, 16 + 2 * ceil(b / 8) B per blob on a candidate of budget b)
    are left out, and should stay out until the matrix's wire form
    settles: on each fig7 preset's base they come to 5.3 MB, 0.38 GB
    and 10 GB per round at n = 30, 200 and 1000, 0.9% to 1.1% of the
    0.61 GB, 34 GB and 0.90 TB charged here.
    """
    max_b = int(budgets.max()) if len(budgets) else 0
    if max_b == 0:
        return 0, 0.0, 0
    sorted_b = np.sort(budgets)
    ranks = np.arange(1, max_b + 1)
    cnt_ge = len(budgets) - np.searchsorted(sorted_b, ranks, side="left")
    comparisons = int((cnt_ge * (cnt_ge - 1)).sum())
    gates, circuit_bytes = garbled.comparator_size(config.bitwidth)
    eval_seconds = comparisons * gates * _PAD_SECONDS
    per_cmp_bytes = garbled.comparison_bytes(
        config.bitwidth, garbled.DiffieHellmanOT(garbled.DEFAULT_GROUP))
    active = int(np.count_nonzero(budgets))
    circuit_share = circuit_bytes * active * (len(budgets) - 1) / config.rotation_period
    total_bytes = int(comparisons * per_cmp_bytes + circuit_share)
    return comparisons, eval_seconds, total_bytes


# ---------------------------------------------------------------------------
# shared run helpers


def _rng_streams(config: SimConfig, protocol: str) -> dict[str, np.random.Generator]:
    """Independent generators per purpose.

    The workload stream depends only on the workload seed, never the
    protocol, so both protocols consume the identical transaction stream
    and replicate-level comparisons are paired. It is the first child of
    the workload seed's sequence and the protocol streams descend from
    the second child of ``seed``'s, so with no ``workload_seed`` both
    come from one sequence, and a ``workload_seed`` moves no protocol
    stream.
    """
    wl_seq = np.random.SeedSequence(_workload_seed(config)).spawn(2)[0]
    proto_seq = np.random.SeedSequence(config.seed).spawn(2)[1]
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
        self._counted = 0
        self.pool = self._order[:0]
        self.commit_time = np.zeros(len(wl))
        self.commit_round = np.zeros(len(wl), dtype=np.int32)
        self.blocks = 0
        self.round_log: list[dict] = []

    def admit(self, now: float) -> np.ndarray:
        """Append the transactions arrived by ``now``; returns them."""
        hi = int(np.searchsorted(self._arrivals, now, side="right"))
        fresh = self._order[self._seen:hi]
        self._seen = hi
        self.pool = np.concatenate((self.pool, fresh))
        return fresh

    def counts(self, view: np.ndarray) -> np.ndarray:
        """Add to ``view`` (users by classes) one per transaction admitted
        since the last call, in one ``bincount``; returns ``view``."""
        fresh = self._order[self._counted:self._seen]
        self._counted = self._seen
        cells = self.wl.source[fresh] * view.shape[1] + self.wl.tx_class[fresh]
        view += np.bincount(cells, minlength=view.size).reshape(view.shape)
        return view

    def commit(self, r: int, leader: int, chosen: np.ndarray, commit_at: float) -> None:
        """Commit the pool entries at distinct positions ``chosen`` as round
        r's block; a block of the whole pool needs no mask."""
        if len(chosen) == len(self.pool):
            packed, self.pool = self.pool, self.pool[:0]
        else:
            keep = np.ones(len(self.pool), dtype=bool)
            keep[chosen] = False
            packed = self.pool[chosen]
            self.pool = self.pool[keep]
        self.commit_time[packed] = commit_at
        self.commit_round[packed] = r
        self.blocks += 1
        self.log(r, leader, len(packed), commit_at)

    def log(self, r: int, leader: int, packed: int = 0, commit_at: float = -1.0,
            aborted: int = 0) -> None:
        """Round r's record; a round that packs nothing commits at -1.

        The record holds no latency sum: :func:`trace_lines` adds each
        round's ``sum_latency`` from the run's latencies and commit rounds.
        """
        self.round_log.append({
            "round": r, "aborted": aborted, "leader": leader, "packed": packed,
            "commit_time": commit_at,
        })

    def metrics(self, protocol: str, config: SimConfig, wins: int, rounds_with_block: int,
                crypto: tuple[int, float, int] = (0, 0.0, 0)) -> Metrics:
        committed = self.commit_time > 0
        latencies = self.commit_time[committed] - self.wl.submit[committed]
        count = len(latencies)
        p50, p90 = (np.percentile(latencies, [50, 90]) if count
                    else (float("nan"), float("nan")))
        return Metrics(
            protocol=protocol,
            sim_time=config.sim_time,
            seed=config.seed,
            total_tx_count=len(self.wl),
            confirmed_tx_count=count,
            tps=count / config.sim_time,
            mean_latency=float(latencies.mean()) if count else float("nan"),
            p50_latency=float(p50),
            p90_latency=float(p90),
            rounds=len(self.round_log),
            blocks_committed=self.blocks,
            aborts=sum(e["aborted"] for e in self.round_log),
            functionality_wins=wins,
            rounds_with_block=rounds_with_block,
            crypto=crypto,
            latencies=latencies,
            commit_rounds=self.commit_round[committed],
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
    prio = priority(now, submit, wl.fee[idx], d_tx, config.weights())
    # workload rows break ties as the transaction ids (row + 1) would
    return rank(prio, submit, idx), d_tx, users, labels


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
    # symmetric views: approvals stop growing past the second-highest
    # budget, so every miner that reaches it ties and the lowest id leads
    leader = int(np.flatnonzero(budgets >= np.sort(budgets)[-2])[0]) + 1

    committee_cfg = config.committee()
    miners = list(range(1, n + 1))

    chain = _Chain(wl)
    view = np.zeros((n + 1, len(DEFAULT_CLASSES)))
    n_rounds = int(config.sim_time // interval)
    wins = 0
    rounds_with_block = 0
    fault_rng = streams["faults"]
    round_rng = streams["rounds"]

    for r in range(n_rounds):
        # the committee counts the votes at the end of the result window
        now = RoundTimers.split_interval(r * interval, interval).result_waiting_deadline
        if r % config.rotation_period == 0:  # a committee serves its whole rotation
            committee = select_committee(miners, committee_cfg, r)
        # honest members hold the same tally, so one digest stands for it;
        # a faulty member's view matches no other, so it can never count
        honest = [m for m in committee if fault_rng.random() < config.honest_fraction]
        decision = agree(dict.fromkeys(honest, (leader, "tally")),
                         committee_cfg.size, round_index=r)

        if decision is None:
            chain.log(r, -1, aborted=1)
            continue

        chain.admit(now)
        if len(chain.pool) == 0:
            chain.log(r, decision.leader)
            continue

        # drawn even when the pool fits, so rounds that bind keep their seeds
        seed = int(round_rng.integers(2**63))
        if len(chain.pool) <= capacity:  # the whole pool: as near its clusters as itself
            chosen = np.arange(len(chain.pool))
            wins += 1
        else:
            order, d_tx, _, _ = rank_pool(chain.counts(view), wl, chain.pool, now, config, seed)
            chosen = order[:capacity]
            wins += float(d_tx[chosen].mean()) <= float(d_tx.mean()) + 1e-12
        rounds_with_block += 1

        commit_at = now + config.block_delay
        if commit_at <= config.sim_time:
            chain.commit(r, decision.leader, chosen, commit_at)
        else:
            chain.log(r, decision.leader)

    return chain.metrics("pous", config, wins, rounds_with_block,
                         _crypto_round_costs(budgets, config))


def pca_scatter_rows(config: SimConfig) -> list[dict]:
    """fig10: round 0's pool at its count deadline, ranked (k-means seeded
    by ``config.seed``) even when it fits the block; each user's vector is
    projected to 2-D and marked when the block packs one of its transactions."""
    wl = _workload(config)
    now = RoundTimers.split_interval(0.0, config.block_interval).result_waiting_deadline
    chain = _Chain(wl)
    pool = chain.admit(now)
    if len(pool) == 0:
        return []
    view = chain.counts(np.zeros((config.n_nodes + 1, len(DEFAULT_CLASSES))))

    order, _, users, labels = rank_pool(view, wl, pool, now, config, seed=config.seed)
    coords = pca_project(view[users]) if len(users) >= 2 else np.zeros((len(users), 2))
    chosen = set(wl.source[pool[order[:config.capacity()]]].tolist())
    return [
        {"user": int(user), "x": float(x), "y": float(y), "cluster": int(label),
         "selected": int(user in chosen)}
        for user, (x, y), label in zip(users, coords, labels)
    ]


# ---------------------------------------------------------------------------
# proof-of-work baseline


def _top_fees(fee: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first ``k`` of ``rank(fee, submit[rows], rows + 1)``,
    as a set, for ``k < len(fee)``, without sorting every entry.

    Workload rows are in submit order, so rank orders by fee, then row.
    A partition finds the k-th highest fee: every higher fee is taken, and
    the entries that tie with it fill the rest, lowest rows first. It
    partitions the negated fees at k - 1, the same cut up to a zero's sign:
    on fig9b's pow pools (38-56k entries, 76-99.8% zero fee) that takes
    0.06-0.10 ms, and the fees at len - k 0.65-2.0 ms (shared 2-core x86-64).
    """
    cut = -np.partition(-fee, k - 1)[k - 1]
    above = np.flatnonzero(fee > cut)
    tied = np.flatnonzero(fee == cut)
    need = k - len(above)
    if need < len(tied):
        tied = tied[np.argpartition(rows[tied], need - 1)[:need]]
    return np.concatenate((above, tied))


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
        pool = chain.pool
        if len(pool) == 0:
            chain.log(r, leader)
            continue
        chosen = (np.arange(len(pool)) if len(pool) <= capacity
                  else _top_fees(wl.fee[pool], pool, capacity))
        chain.commit(r, leader, chosen, commit_at)

    return chain.metrics("pow", config, wins=0, rounds_with_block=chain.blocks)


RUNNERS = {"pous": run_pous, "pow": run_pow}  # every protocol a scenario or trace names


# ---------------------------------------------------------------------------
# run trace


def trace_lines(config: SimConfig, protocol: str, metrics: Metrics) -> Iterator[str]:
    """Replayable line-delimited run log: header, rounds, summary.

    Each round line carries its ``sum_latency``, summed here from the
    latencies of the transactions that round committed. ``math.fsum`` is
    exactly rounded, so the sum does not depend on their order.
    """
    cfg = {f.name: getattr(config, f.name) for f in fields(config)}
    yield json.dumps({"kind": "header", "protocol": protocol, "config": cfg},
                     sort_keys=True)
    # rounds are logged in commit-round order, each with its packed count
    by_round = np.split(metrics.latencies[np.argsort(metrics.commit_rounds)],
                        np.cumsum([e["packed"] for e in metrics.round_log])[:-1])
    for entry, latencies in zip(metrics.round_log, by_round):
        yield json.dumps({"kind": "round", **entry, "sum_latency": math.fsum(latencies.tolist())},
                         sort_keys=True)
    yield json.dumps({
        "kind": "summary",
        "confirmed_tx_count": metrics.confirmed_tx_count,
        "tps": metrics.tps,
        "mean_latency": None if math.isnan(metrics.mean_latency) else metrics.mean_latency,
        "blocks_committed": metrics.blocks_committed,
        "aborts": metrics.aborts,
    }, sort_keys=True)


def config_from_fields(values: Mapping) -> SimConfig:
    """SimConfig from field values. Unknown fields raise
    ConfigurationError naming them; SimConfig checks every value."""
    unknown = sorted(set(values) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigurationError(f"unknown config fields: {unknown}")
    return SimConfig(**values)


def config_from_trace_header(header: dict) -> tuple[SimConfig, str]:
    """The configuration and protocol a trace header records.

    Every SimConfig field must be present and no other; anything else
    raises ConfigurationError.
    """
    protocol = header.get("protocol")
    if protocol not in RUNNERS:
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
    line and the first key on it whose value differs. A header that
    cannot be read raises ConfigurationError.
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
    metrics = RUNNERS[protocol](config)
    fresh = list(trace_lines(config, protocol, metrics))
    if len(fresh) != len(lines):
        return False, f"trace length {len(lines)} != replayed {len(fresh)}"
    for i, (old, new) in enumerate(zip(lines, fresh)):
        if old.strip() != new.strip():
            return False, f"line {i + 1} diverged{_first_difference(old, new)}"
    return True, f"replayed {len(lines)} lines, all identical"


def _first_difference(traced: str, replayed: str) -> str:
    """The first key, in replayed order then any the trace adds, whose
    value differs between two trace lines, with both values; both whole
    lines when the traced one is not a JSON object or no key differs."""
    try:
        old = json.loads(traced)
    except json.JSONDecodeError:
        old = None
    if isinstance(old, dict):
        new = json.loads(replayed)
        for key in [*new, *(k for k in old if k not in new)]:
            a, b = (json.dumps(d[key]) if key in d else "(absent)" for d in (old, new))
            if a != b:
                return f" at {key!r}: trace {a}, replay {b}"
    return f":\n  trace:  {traced.strip()}\n  replay: {replayed.strip()}"
