"""The four benchmark workloads.

Each workload turns ``(seed, step index)`` into inputs, runs one step
through the library's public API and then checks every operation's
output. A step is the unit ``run.py`` repeats until its time is up: a
whole preset sweep for the simulator workloads, one protocol round, or
one secure comparison. Operations are what failures are counted over: a
sweep cell, a round, a comparison. Latency samples are rounds and
comparisons, and for the simulator workloads sweep points (the pous and
the pow cell of one sweep value).

``prepare`` and ``check`` are outside the timed region; ``op`` is the
timed region and calls only the library.
"""
from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pous import bts, cli, committee, garbled, packing
from pous.similarity import DEFAULT_CLASSES, DataView, Transaction

# the package exports a function under the submodule's name
similarity = importlib.import_module("pous.similarity")


# step index of the warm-up input; a run never gets this far
WARMUP = 2**40


def step_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


@dataclass
class Outcome:
    ops: int
    failed: int
    items: int  # simulated transactions or secure comparisons
    op_s: list  # wall time of each operation
    fingerprint: bytes = b""
    mismatches: int = 0


# ---------------------------------------------------------------------------
# simulator sweeps


@dataclass
class SimOutput:
    report: object
    cells: list = field(default_factory=list)  # (cell seed, seconds, simulated tx, ok)
    cells_csv: bytes = b""


class SimSweep:
    """One preset sweep per step, both protocols, one replicate per point,
    through ``cli.run_scenario`` and ``cli.emit``."""

    items_name = "sim_tx_per_s"
    op_name = "sweep point"
    fingerprint_steps = 1  # the first sweep's cells.csv

    def __init__(self, preset: str, out_dir: Path, warmup_overrides: dict):
        self.preset = preset
        self.out_dir = out_dir
        self.warmup_overrides = warmup_overrides

    def _scenario(self, master: int, **overrides):
        scenario, _, _ = cli.scenario_from_preset(
            self.preset, fast=True, seed=master, overrides=dict(replicates=1, **overrides)
        )
        return scenario

    def setup(self) -> None:
        """Scenario build plus one short sweep, which fills the simulator's
        circuit-size cache and numpy's first-call paths."""
        self.op(self._scenario(0, **self.warmup_overrides))

    def prepare(self, seed: int, index: int):
        return self._scenario(int(step_rng(seed, index).integers(2**62)))

    def ops_in(self, scenario) -> int:
        return len(scenario.sweep_values) * len(scenario.protocols)

    def op(self, scenario) -> SimOutput:
        out = SimOutput(report=None)
        runners = dict(cli._RUNNERS)

        def checked(run):
            def cell(config):
                start = perf_counter()
                m = run(config)
                seconds = perf_counter() - start
                ok = (
                    m.confirmed_tx_count <= m.total_tx_count
                    # tps is confirmed / sim_time, so only rounding may differ
                    and math.isclose(m.tps * m.sim_time, m.confirmed_tx_count,
                                     rel_tol=1e-12)
                    and (len(m.latencies) == 0
                         or float(m.latencies.min()) >= config.block_delay)
                )
                out.cells.append((config.seed, seconds, m.total_tx_count, ok))
                return m
            return cell

        for proto, run in runners.items():
            cli._RUNNERS[proto] = checked(run)
        try:
            out.report = cli.run_scenario(scenario)
            cli.emit(out.report, str(self.out_dir))
        finally:
            cli._RUNNERS.update(runners)
        out.cells_csv = (self.out_dir / "cells.csv").read_bytes()
        return out

    def check(self, scenario, out: SimOutput, wall: float) -> Outcome:
        expected = self.ops_in(scenario)
        bad = sum(not ok for _seed, _s, _tx, ok in out.cells)
        bad += expected - len(out.cells) + abs(len(out.report.cells) - expected)
        # both protocols run each sweep point on the same workload; the
        # pair is the latency sample, because pous and pow cells differ
        # several-fold in cost and would make a two-peaked distribution
        pairs: dict[int, float] = {}
        for seed, seconds, _tx, _ok in out.cells:
            pairs[seed] = pairs.get(seed, 0.0) + seconds
        return Outcome(
            ops=expected,
            failed=min(expected, bad),
            items=sum(tx for _seed, _s, tx, _ok in out.cells),
            op_s=list(pairs.values()),
            fingerprint=out.cells_csv,
        )


# ---------------------------------------------------------------------------
# protocol rounds

MINERS = (1, 2, 3, 4)
N_USERS = 12
N_TX = 180
MISS_SHARE = 0.05  # share of the mempool each miner fails to see
# per-miner similarity budgets in user pairs, dealt out in a fresh order
# each round: every round then runs the same number of comparisons
BUDGETS = (1, 2, 3, 4)
THETA = 0.004
BITWIDTH = 16
K_CLUSTERS = 3
CAPACITY = 40
NOW = 600.0
WEIGHTS = packing.PriorityWeights()
COMMITTEE_SIZE = 4


@dataclass
class RoundInput:
    index: int
    views: dict  # miner -> its mempool view
    budgets: dict
    template_seeds: dict
    committee_seed: int
    cluster_seed: int


@dataclass
class RoundOutput:
    matrices: dict
    records: list
    tally: object
    decision: object
    block: object = None
    verified: bool = False


class ProtocolRound:
    """Back-to-back library rounds: mining, garbled voting, scoring,
    committee agreement, packing and verification."""

    items_name = "compares_per_s"
    op_name = "round"
    fingerprint_steps = 32  # leader and packed ids of the first rounds

    def setup(self) -> None:
        inp = self.prepare(0, WARMUP)
        self.check(inp, self.op(inp), 0.0)

    def prepare(self, seed: int, index: int) -> RoundInput:
        rng = step_rng(seed, index)
        prefs = rng.dirichlet(np.full(len(DEFAULT_CLASSES), 0.5), size=N_USERS)
        source = rng.integers(1, N_USERS + 1, N_TX)
        mempool = [
            Transaction(
                id=i + 1,
                source_user=int(u),
                tx_class=DEFAULT_CLASSES[int(rng.choice(len(DEFAULT_CLASSES), p=prefs[u - 1]))],
                fee=float(rng.uniform(0.0, 1e-3)),
                submit_time=float(rng.uniform(0.0, NOW)),
            )
            for i, u in enumerate(source)
        ]
        views = {}
        for miner in MINERS:
            seen = rng.random(N_TX) >= MISS_SHARE
            views[miner] = tuple(tx for tx, keep in zip(mempool, seen) if keep)
        return RoundInput(
            index=index,
            views=views,
            budgets=dict(zip(MINERS, (int(b) for b in rng.permutation(BUDGETS)))),
            template_seeds={m: int(rng.integers(2**31)) for m in MINERS},
            committee_seed=int(rng.integers(2**31)),
            cluster_seed=int(rng.integers(2**31)),
        )

    def ops_in(self, inp) -> int:
        return 1

    def op(self, inp: RoundInput) -> RoundOutput:
        m = len(MINERS)
        vectors = {
            miner: similarity.build_user_vectors(DataView((), view), N_USERS)
            for miner, view in inp.views.items()
        }
        matrices = {
            miner: similarity.compute_usm(vectors[miner], budget=inp.budgets[miner],
                                          owner=miner)
            for miner in MINERS
        }
        # the candidate garbles; one template per candidate per round
        backends = {
            c: garbled.GarbledCompareBackend(THETA, BITWIDTH, seed=inp.template_seeds[c])
            for c in MINERS
        }
        records = []
        for voter in MINERS:
            for cand in MINERS:
                if voter != cand:
                    records.extend(bts.cast_votes(matrices[voter], matrices[cand],
                                                  backends[cand].compare))
        result = bts.tally(records, m, N_USERS, matrices=matrices)
        for voter in MINERS:
            bts.score_sheet(voter, records, m, N_USERS)

        cfg = committee.CommitteeConfig(size=COMMITTEE_SIZE,
                                        selection_seed=inp.committee_seed)
        members = committee.select_committee(list(MINERS), cfg, inp.index)
        decision = committee.agree({member: result for member in members}, cfg.size,
                                   round_index=inp.index)
        out = RoundOutput(matrices, records, result, decision)
        if decision is None:
            return out

        view = inp.views[decision.leader]
        lookup = {tx.id: tx for tx in view}
        clusters = packing.cluster_mempool(view, vectors[decision.leader], k=K_CLUSTERS,
                                           seed=inp.cluster_seed)
        out.block = packing.pack_block(clusters, WEIGHTS, CAPACITY, NOW, bytes(32), lookup,
                                       round_index=inp.index, producer=decision.leader)
        snapshot = {
            tid: packing.tx_priority(lookup[tid], NOW, cl, WEIGHTS)
            for cl in clusters for tid in cl.tx_ids
        }
        out.verified, _reason = committee.verify_block(out.block, decision, snapshot)
        return out

    def check(self, inp: RoundInput, out: RoundOutput, wall: float) -> Outcome:
        theta = garbled.FixedPoint.encode(THETA, BITWIDTH).raw
        mismatches = 0
        compares = 0
        for r in out.records:
            cand = out.matrices[r.candidate].get(r.entry)
            own = out.matrices[r.voter].get(r.entry)
            if cand is None or own is None:
                mismatches += r.valid  # an abstention must come from a missing entry
                continue
            compares += 1
            expected = garbled.plain_within_theta(
                garbled.FixedPoint.encode(cand, BITWIDTH).raw,
                garbled.FixedPoint.encode(own, BITWIDTH).raw, theta)
            mismatches += (not r.valid) or r.x != expected
        d = out.decision
        ok = (mismatches == 0 and d is not None and d.leader == out.tally.leader
              and out.block is not None and out.verified)
        fingerprint = b""
        if out.block is not None:
            ids = ",".join(str(tx.id) for tx in out.block.body)
            fingerprint = f"{d.leader}:{ids}".encode()
        return Outcome(ops=1, failed=int(not ok), items=compares, op_s=[wall],
                       fingerprint=fingerprint, mismatches=mismatches)


# ---------------------------------------------------------------------------
# one-time private comparisons

COMPARE_THETA = 0.4
LSB = 1.0 / ((1 << BITWIDTH) - 1)


@dataclass
class CompareInput:
    a: float
    b: float
    template_seed: int
    ot_seed: int


class PrivateCompare:
    """Fresh width-16 comparator per comparison, real DH OT on the
    256-bit group per evaluator bit, then evaluation."""

    items_name = "compares_per_s"
    op_name = "compare"
    fingerprint_steps = 32  # verdicts of the first comparisons

    def setup(self) -> None:
        inp = self.prepare(0, WARMUP)
        self.check(inp, self.op(inp), 0.0)

    def prepare(self, seed: int, index: int) -> CompareInput:
        rng = step_rng(seed, index)
        a = float(rng.random())
        if index % 2:  # near the threshold, within three fixed-point steps
            gap = COMPARE_THETA + int(rng.integers(-3, 4)) * LSB
        else:
            gap = float(rng.random())
        b = a + gap if rng.random() < 0.5 else a - gap
        if not 0.0 <= b <= 1.0:
            b = 2 * a - b
        if not 0.0 <= b <= 1.0:
            b = float(rng.random())
        return CompareInput(a, b, int(rng.integers(2**31)), int(rng.integers(2**31)))

    def ops_in(self, inp) -> int:
        return 1

    def op(self, inp: CompareInput) -> int:
        ot = garbled.DiffieHellmanOT(garbled.FAST_GROUP, rng=random.Random(inp.ot_seed))
        return garbled.secure_compare(inp.a, inp.b, COMPARE_THETA, bitwidth=BITWIDTH,
                                      seed=inp.template_seed, ot=ot)

    def check(self, inp: CompareInput, out: int, wall: float) -> Outcome:
        expected = garbled.plain_within_theta(
            garbled.FixedPoint.encode(inp.a, BITWIDTH).raw,
            garbled.FixedPoint.encode(inp.b, BITWIDTH).raw,
            garbled.FixedPoint.encode(COMPARE_THETA, BITWIDTH).raw,
        )
        bad = int(out != expected)
        return Outcome(ops=1, failed=bad, items=1, op_s=[wall],
                       fingerprint=str(out).encode(), mismatches=bad)


def make(name: str, out_dir: Path):
    if name == "sim-longrun":
        return SimSweep("fig9b", out_dir, {"sim_time": 2030.0})
    if name == "sim-wide":
        return SimSweep("fig7-n1000", out_dir, {"sim_time": 2430.0})
    if name == "protocol-round":
        return ProtocolRound()
    if name == "private-compare":
        return PrivateCompare()
    raise ValueError(name)


WORKLOADS = ("sim-longrun", "sim-wide", "protocol-round", "private-compare")
