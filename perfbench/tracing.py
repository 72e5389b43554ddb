"""In-memory span tracing around calls into the pous modules.

The benchmark never edits the library. A traced run replaces module
attributes (and a few class methods) with wrappers that record one span
per call: name, start, end, parent span and the benchmark operation it
belongs to. Counters are added at the same boundaries. Everything stays
in memory until the run ends, then becomes per-layer metrics, a self-time
table and a span file.

A span's self time is its duration minus the durations of its direct
children. Every call is synchronous in one thread, so children never
overlap and no layer has a queue to wait in.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from pous import bts, cli, committee, garbled, packing, simnet

# the package exports a function under the submodule's name
similarity = importlib.import_module("pous.similarity")

ROOT_SPAN = "bench.step"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counts, args, result)``
        runs after the span closes."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def counted(self, key, fn):
        """Count calls without a span, for calls too small to time."""

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# counters attached to span boundaries


def _runner_count(c, args, m):
    c["simnet.rounds"] += m.rounds


def _workload_count(c, args, wl):
    c["simnet.tx_generated"] += len(wl)


def _kmeans_count(c, args, result):
    c["packing.kmeans.points"] += len(args[0])


def _agree_count(c, args, decision):
    c["committee.agree.decisions"] += decision is not None


def _verify_count(c, args, result):
    c["committee.verify_block.accepted"] += bool(result[0])


def _eval_count(c, args, result):
    c["garbled.gates"] += len(args[0].gates)


def _ot_count(c, args, result):
    c["garbled.ot_bytes"] += result[1].total_bytes()


def _usm_count(c, args, matrix):
    c["similarity.pairs_computed"] += matrix.off_diagonal_pair_count()


def _votes_count(c, args, records):
    c["bts.records"] += len(records)
    c["bts.valid"] += sum(r.valid for r in records)
    c["bts.approvals"] += sum(r.x for r in records)


def _scenario_count(c, args, report):
    c["cli.cells"] += len(report.cells)


@contextmanager
def installed(tracer: Tracer):
    """Route the library's public entry points through ``tracer``.

    Names are patched where callers look them up: ``simnet`` imported
    ``kmeans``, ``select_committee``, ``agree`` and ``gen_workload`` into
    its own namespace, and ``cli.run_scenario`` reaches the runners
    through ``cli._RUNNERS``.
    """
    w = tracer.wrap
    targets = [
        (cli, "run_scenario", w("cli.run_scenario", cli.run_scenario, _scenario_count)),
        (cli, "emit", w("cli.emit", cli.emit)),
        (simnet, "gen_workload", w("simnet.gen_workload", simnet.gen_workload,
                                   _workload_count)),
        (simnet, "select_committee", w("committee.select_committee",
                                       simnet.select_committee)),
        (simnet, "agree", w("committee.agree", simnet.agree, _agree_count)),
        (simnet, "kmeans", w("packing.kmeans", simnet.kmeans, _kmeans_count)),
        (packing, "kmeans", w("packing.kmeans", packing.kmeans, _kmeans_count)),
        (packing, "cluster_mempool", w("packing.cluster_mempool", packing.cluster_mempool)),
        (packing, "pack_block", w("packing.pack_block", packing.pack_block)),
        (packing, "tx_priority", tracer.counted("packing.tx_priority.calls",
                                                packing.tx_priority)),
        (committee, "select_committee", w("committee.select_committee",
                                          committee.select_committee)),
        (committee, "agree", w("committee.agree", committee.agree, _agree_count)),
        (committee, "verify_block", w("committee.verify_block", committee.verify_block,
                                      _verify_count)),
        (similarity, "build_user_vectors", w("similarity.build_user_vectors",
                                             similarity.build_user_vectors)),
        (similarity, "compute_usm", w("similarity.compute_usm", similarity.compute_usm,
                                      _usm_count)),
        (bts, "cast_votes", w("bts.cast_votes", bts.cast_votes, _votes_count)),
        (bts, "tally", w("bts.tally", bts.tally)),
        (bts, "score_sheet", w("bts.score_sheet", bts.score_sheet)),
        (garbled, "garble_comparator", w("garbled.garble_comparator",
                                         garbled.garble_comparator)),
        (garbled, "eval_circuit", w("garbled.eval_circuit", garbled.eval_circuit,
                                    _eval_count)),
        (garbled, "secure_compare", w("garbled.compare", garbled.secure_compare)),
        (garbled.GarbledCompareBackend, "compare",
         w("garbled.compare", garbled.GarbledCompareBackend.compare)),
        (garbled.DiffieHellmanOT, "exchange",
         w("garbled.ot_exchange", garbled.DiffieHellmanOT.exchange, _ot_count)),
        (garbled.TrustedDealerOT, "exchange",
         w("garbled.ot_exchange", garbled.TrustedDealerOT.exchange, _ot_count)),
    ]
    runners = dict(cli._RUNNERS)
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    for obj, attr, fn in targets:
        setattr(obj, attr, fn)
    for proto, fn in runners.items():
        cli._RUNNERS[proto] = w(f"simnet.run_{proto}", fn, _runner_count)
    try:
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)
        cli._RUNNERS.update(runners)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit, in the order BENCHMARK.json lists them. Totals are divided
# by the operations traced (a cell, a round or a comparison), so a faster
# commit that fits more operations into the run does not inflate them.
LAYER_UNITS = {
    "simnet.run.self_s": "s/op",
    "simnet.rounds": "count/op",
    "simnet.us_per_round": "us",
    "simnet.gen_workload.s": "s/op",
    "simnet.tx_generated": "count/op",
    "packing.kmeans.calls": "count/op",
    "packing.kmeans.s": "s/op",
    "packing.kmeans.points": "count/op",
    "packing.kmeans.us_per_point": "us",
    "packing.cluster_mempool.s": "s/op",
    "packing.pack_block.s": "s/op",
    "packing.tx_priority.calls": "count/op",
    "committee.select_committee.calls": "count/op",
    "committee.select_committee.s": "s/op",
    "committee.agree.calls": "count/op",
    "committee.agree.s": "s/op",
    "committee.quorum_rate": "frac",
    "committee.verify_block.s": "s/op",
    "committee.verify_block.accept_rate": "frac",
    "garbled.eval_circuit.calls": "count/op",
    "garbled.eval_circuit.us_per_call": "us",
    "garbled.gates_per_s": "1/s",
    "garbled.garble_comparator.calls": "count/op",
    "garbled.garble_comparator.ms_per_call": "ms",
    "garbled.ot_exchange.calls": "count/op",
    "garbled.ot_exchange.ms_per_call": "ms",
    "garbled.ot_bytes_per_compare": "B",
    "garbled.mismatches": "count/op",
    "similarity.build_user_vectors.s": "s/op",
    "similarity.compute_usm.s": "s/op",
    "similarity.pairs_computed": "count/op",
    "bts.cast_votes.self_s": "s/op",
    "bts.records": "count/op",
    "bts.valid_frac": "frac",
    "bts.approve_frac": "frac",
    "bts.tally.s": "s/op",
    "bts.score_sheet.s": "s/op",
    "cli.run_scenario.self_s": "s/op",
    "cli.emit.s": "s/op",
    "cli.cells": "count",
    "trace.ops": "count",
    "trace.wall_s": "s",
    "trace.layer_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, mismatches: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer figures of a traced run; layers a workload never calls
    read 0. ``overhead`` is the traced run's time over the untraced
    run's, minus one."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    run_self = self_s("simnet.run_pous") + self_s("simnet.run_pow")
    wall = total(ROOT_SPAN)
    per_op = {
        "simnet.run.self_s": run_self,
        "simnet.rounds": c["simnet.rounds"],
        "simnet.gen_workload.s": total("simnet.gen_workload"),
        "simnet.tx_generated": c["simnet.tx_generated"],
        "packing.kmeans.calls": calls("packing.kmeans"),
        "packing.kmeans.s": total("packing.kmeans"),
        "packing.kmeans.points": c["packing.kmeans.points"],
        "packing.cluster_mempool.s": total("packing.cluster_mempool"),
        "packing.pack_block.s": total("packing.pack_block"),
        "packing.tx_priority.calls": c["packing.tx_priority.calls"],
        "committee.select_committee.calls": calls("committee.select_committee"),
        "committee.select_committee.s": total("committee.select_committee"),
        "committee.agree.calls": calls("committee.agree"),
        "committee.agree.s": total("committee.agree"),
        "committee.verify_block.s": total("committee.verify_block"),
        "garbled.eval_circuit.calls": calls("garbled.eval_circuit"),
        "garbled.garble_comparator.calls": calls("garbled.garble_comparator"),
        "garbled.ot_exchange.calls": calls("garbled.ot_exchange"),
        "garbled.mismatches": mismatches,
        "similarity.build_user_vectors.s": total("similarity.build_user_vectors"),
        "similarity.compute_usm.s": total("similarity.compute_usm"),
        "similarity.pairs_computed": c["similarity.pairs_computed"],
        "bts.cast_votes.self_s": self_s("bts.cast_votes"),
        "bts.records": c["bts.records"],
        "bts.tally.s": total("bts.tally"),
        "bts.score_sheet.s": total("bts.score_sheet"),
        "cli.run_scenario.self_s": self_s("cli.run_scenario"),
        "cli.emit.s": total("cli.emit"),
    }
    out = {name: _ratio(v, ops) for name, v in per_op.items()}
    out.update({
        "simnet.us_per_round": 1e6 * _ratio(run_self, c["simnet.rounds"]),
        "packing.kmeans.us_per_point": 1e6 * _ratio(total("packing.kmeans"),
                                                     c["packing.kmeans.points"]),
        "committee.quorum_rate": _ratio(c["committee.agree.decisions"],
                                        calls("committee.agree")),
        "committee.verify_block.accept_rate": _ratio(
            c["committee.verify_block.accepted"], calls("committee.verify_block")),
        "garbled.eval_circuit.us_per_call": 1e6 * _ratio(
            total("garbled.eval_circuit"), calls("garbled.eval_circuit")),
        "garbled.gates_per_s": _ratio(c["garbled.gates"], total("garbled.eval_circuit")),
        "garbled.garble_comparator.ms_per_call": 1e3 * _ratio(
            total("garbled.garble_comparator"), calls("garbled.garble_comparator")),
        "garbled.ot_exchange.ms_per_call": 1e3 * _ratio(
            total("garbled.ot_exchange"), calls("garbled.ot_exchange")),
        "garbled.ot_bytes_per_compare": _ratio(c["garbled.ot_bytes"],
                                               calls("garbled.compare")),
        "bts.valid_frac": _ratio(c["bts.valid"], c["bts.records"]),
        "bts.approve_frac": _ratio(c["bts.approvals"], c["bts.valid"]),
        "cli.cells": c["cli.cells"],
        "trace.ops": ops,
        "trace.wall_s": wall,
        "trace.layer_frac": _ratio(wall - self_s(ROOT_SPAN), wall),
        "trace.overhead_frac": overhead,
    })
    return {name: out[name] for name in LAYER_UNITS}


def self_time_table(tracer: Tracer) -> str:
    """Self time per span name and per layer; the rows sum to the wall
    time of the traced operations."""
    s = tracer.summary()
    wall = s.get(ROOT_SPAN, {}).get("total_s", 0.0)
    lines = [f"{'span':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}"]
    by_layer: dict[str, float] = defaultdict(float)
    for name, row in sorted(s.items(), key=lambda kv: -kv[1]["self_s"]):
        by_layer[name.split(".")[0]] += row["self_s"]
        lines.append(f"{name:34s} {row['calls']:8d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {100 * _ratio(row['self_s'], wall):6.2f}")
    lines.append("")
    lines.append(f"{'layer':34s} {'self_s':>10s} {'self%':>6s}")
    for layer, sec in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:34s} {sec:10.4f} {100 * _ratio(sec, wall):6.2f}")
    accounted = sum(by_layer.values())
    lines.append(f"{'sum of self times':34s} {accounted:10.4f} "
                 f"{100 * _ratio(accounted, wall):6.2f}  (traced wall {wall:.4f} s)")
    return "\n".join(lines) + "\n"
