"""Scenario orchestration and the ``pous`` command line.

Verbs:

* ``pous run <scenario> [--fast] [--seed S] [--out DIR] [--set k=v]...``
  runs a preset or a JSON scenario file and writes CSVs plus a text
  summary under --out.
* ``pous presets`` lists the shipped scenarios.
* ``pous replay <trace>`` re-executes a trace file and verifies every
  line.

Scenario cells (protocol, sweep point, replicate) get seeds derived by
hashing the master seed with the sweep value and replicate index, so
any cell can be reproduced in isolation; the two protocols share each
cell's workload stream, which makes the improvement percentages paired
rather than noise-on-noise.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import garbled
from .bts import APPROVE_BELIEF, VoteRecord, votes_to_crs
from .errors import ConfigurationError
from .similarity import flat_index, pair_sequence
from .simnet import (
    RUNNERS as _RUNNERS,
    SimConfig,
    config_from_fields,
    pca_scatter_rows,
    replay_trace,
    trace_lines,
)

_SWEEP_RANGES = {"block_size_mb": (0.5, 16.0), "block_interval": (200.0, 1000.0)}


@dataclass
class Scenario:
    name: str
    base: SimConfig
    sweep_param: str
    sweep_values: list
    protocols: tuple[str, ...] = tuple(_RUNNERS)
    replicates: int = 100
    kind: str = "sim"

    def __post_init__(self):
        if self.kind not in ("sim", "scatter", "cost"):
            raise ConfigurationError(f"unknown scenario kind {self.kind!r}")
        if type(self.replicates) is not int or self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be a positive integer, got {self.replicates!r}")
        # an unknown protocol or one listed twice, whose copies would mispair the gains
        if not self.protocols or len(set(self.protocols) & set(_RUNNERS)) < len(self.protocols):
            raise ConfigurationError(
                f"protocols must be distinct names from {list(_RUNNERS)}, got {self.protocols}")
        if self.sweep_param not in {f.name for f in dataclasses.fields(SimConfig)}:
            raise ConfigurationError(f"unknown sweep parameter {self.sweep_param!r}")
        if self.sweep_param == "seed":
            raise ConfigurationError(
                "seed cannot be swept: each cell's seed derives from the master seed")
        # each point as its cells run it, so SimConfig checks it
        for value in self.sweep_values:
            self.cell(value, 0)
        # a repeated point would share its aggregate row and trace files,
        # and points are ordered by their numeric value
        if (not self.sweep_values
                or len(set(self.sweep_values)) < len(self.sweep_values)
                or not all(isinstance(v, (int, float)) for v in self.sweep_values)):
            raise ConfigurationError(
                "sweep.values must list one or more distinct numbers, "
                f"got {self.sweep_values}")

    def cell(self, value, replicate: int) -> SimConfig:
        """The config of cell (sweep point ``value``, ``replicate``): the
        base with the swept field set and the cell's derived seed."""
        seed = cell_seed(self.base.seed, self.sweep_param, value, replicate)
        return dataclasses.replace(self.base, **{self.sweep_param: value, "seed": seed})


@dataclass
class RunReport:
    scenario: str
    master_seed: int
    cells: list = field(default_factory=list)
    crypto: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    improvements: list = field(default_factory=list)
    cost_series: list = field(default_factory=list)
    pca_scatter: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# presets


def _preset(
    name,
    desc,
    base,
    sweep_param,
    sweep_values,
    protocols=tuple(_RUNNERS),
    fast_replicates=20,
    replicates=100,
    kind="sim",
):
    """Register a preset: the scenario document a file would carry, plus
    its description and the replicate count ``--fast`` runs."""
    PRESETS[name] = {"description": desc, "fast_replicates": fast_replicates, "doc": {
        "name": name, "base": base,
        "sweep": {"param": sweep_param, "values": list(sweep_values)},
        "protocols": list(protocols), "replicates": replicates, "kind": kind,
    }}


def _lam_epoch(n_nodes: int, lam: float) -> float:
    """Generation epoch making the offered load lam tx/s. Each node
    draws ``SimConfig.tx_count_mean`` transactions per epoch: 30, the
    simulator's assumed per-node demand, which no preset overrides."""
    return n_nodes * SimConfig.tx_count_mean / lam

_SIZES = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

PRESETS = {}
_preset(
    "pow-anchor",
    "Work-baseline sanity point: 1 MB blocks, 600 s interval, 30 nodes",
    dict(n_nodes=30, sim_time=60030.0, block_size_mb=1.0, block_interval=600.0,
         block_delay=0.4, tx_epoch=_lam_epoch(30, 6.6)),
    "block_size_mb", [1.0], protocols=("pow",), fast_replicates=10,
)
for _n in (30, 200, 1000):
    _preset(
        f"fig7-n{_n}",
        f"Throughput vs block size, {_n} nodes",
        dict(n_nodes=_n, sim_time=7230.0, block_interval=600.0, block_delay=0.4,
             tx_epoch=_lam_epoch(_n, 3.2), committee_size=4 if _n == 30 else 7),
        "block_size_mb", _SIZES,
    )
    _preset(
        f"fig8-n{_n}",
        f"Throughput vs block interval, {_n} nodes",
        dict(n_nodes=_n, sim_time=2430.0, block_size_mb=2.0, block_delay=0.4,
             tx_epoch=_lam_epoch(_n, 3.2), committee_size=4 if _n == 30 else 7),
        "block_interval", [200.0, 300.0, 400.0, 600.0, 800.0],
    )
_preset(
    "fig9a",
    "Confirmation latency vs block size, 30 nodes",
    dict(n_nodes=30, sim_time=2430.0, block_interval=600.0, block_delay=0.4,
         tx_epoch=_lam_epoch(30, 3.2)),
    "block_size_mb", _SIZES,
)
# long horizon: the work baseline's queue only shows its saturation
# curvature near rho = offered load / (capacity/interval) ~ 0.95 once
# the backlog has had many block arrivals to build up
_preset(
    "fig9b",
    "Confirmation latency vs block interval, 30 nodes",
    dict(n_nodes=30, sim_time=48030.0, block_size_mb=2.0, block_delay=0.4,
         tx_epoch=_lam_epoch(30, 8.0)),
    "block_interval", [200.0, 400.0, 600.0, 800.0, 1000.0],
)
_preset(
    "fig10",
    "Clustering scatter: packed transactions vs mempool clusters",
    dict(n_nodes=30, sim_time=2430.0, block_size_mb=2.0, block_interval=600.0,
         block_delay=0.4, tx_epoch=_lam_epoch(30, 3.2)),
    "block_size_mb", [2.0], protocols=("pous",), fast_replicates=1, replicates=1,
    kind="scatter",
)
# a cost run reads only the seed, so its document names no sweep,
# protocols or replicates, and --fast leaves it as it is
PRESETS["cost-2pc"] = {
    "description": "Two-party comparison cost scaling and vote-matrix bytes",
    "doc": {"name": "cost-2pc", "base": {}, "kind": "cost"},
}


# ---------------------------------------------------------------------------
# configuration loading


def _parse_scalar(text: str):
    if text.lower() in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_overrides(pairs: Sequence[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = _parse_scalar(value.strip())
    return out


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _check_sweep(param: str, values: list, notes: list) -> None:
    if param in _SWEEP_RANGES:
        lo, hi = _SWEEP_RANGES[param]
        off = [v for v in values if not lo <= float(v) <= hi]
        if off:
            notes.append(
                f"sweep values {off} for {param} fall outside the usual "
                f"range [{lo}, {hi}]"
            )


def scenario_from_doc(doc, where: str, overrides: Optional[dict] = None) -> Scenario:
    """Scenario from a scenario document merged with base-config overrides.

    Presets and scenario files both load here. The document carries
    name, base config, sweep, protocols, replicates and kind; a cost
    document carries only name, a base of at most ``seed``, and kind.
    Unknown keys at either level are rejected by name, and errors start
    with ``where``.
    """
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(key, {}), dict) for key in ("base", "sweep")
    ):
        raise ConfigurationError(f"{where}: the scenario, its base and its sweep must be objects")
    allowed = {"name", "base", "sweep", "protocols", "replicates", "kind"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
    overrides = dict(overrides or {})
    # a cost run reads only the seed, so it refuses every other key and setting
    if doc.get("kind") == "cost":
        ignored = sorted({*doc, *doc.get("base", {}), *overrides}
                         - {"name", "base", "kind", "seed"})
        if ignored:
            raise ConfigurationError(f"{where}: a cost run reads only seed, not {ignored}")
    sweep = doc.get("sweep", {})
    if set(sweep) - {"param", "values"}:
        raise ConfigurationError(f"{where}: sweep takes only param and values")
    for key, value in (("sweep.values", sweep.get("values", [])),
                       ("protocols", doc.get("protocols", []))):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: {key} must be a list, got {value!r}")
    replicates = overrides.pop("replicates", doc.get("replicates", 100))
    base = config_from_fields({**doc.get("base", {}), **overrides})
    param = sweep.get("param", "block_size_mb")
    # each cell sets the swept field to its sweep value
    if "values" in sweep and param in overrides:
        raise ConfigurationError(
            f"{where}: {param} is swept over {sweep['values']} and cannot be overridden")
    return Scenario(
        name=doc.get("name", Path(where).stem),
        base=base,
        sweep_param=param,
        sweep_values=list(sweep.get("values", [getattr(base, param, None)])),
        protocols=tuple(doc.get("protocols", _RUNNERS)),
        replicates=replicates,
        kind=doc.get("kind", "sim"),
    )


def scenario_from_preset(
    name: str,
    fast: bool = False,
    seed: int = 7,
    overrides: Optional[dict] = None,
) -> tuple[Scenario, dict, list]:
    """(scenario, run metadata, notes) of a preset; ``seed`` enters as
    a base-config override, so a ``seed`` in ``overrides`` beats it. The
    notes stay empty, because :func:`run_scenario` adds the sweep-range
    note for every scenario."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; run 'pous presets' for the list"
        )
    spec = PRESETS[name]
    doc = spec["doc"]
    if fast and "fast_replicates" in spec:
        doc = dict(doc, replicates=spec["fast_replicates"])
    scenario = scenario_from_doc(doc, name, {"seed": seed, **(overrides or {})})
    return scenario, {"seed": scenario.base.seed, "fast": fast}, []


def load_config(path: str, overrides: Optional[dict] = None) -> Scenario:
    """Scenario from a JSON file merged with overrides; see
    :func:`scenario_from_doc`."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}: {exc.msg}") from None
    return scenario_from_doc(doc, path, overrides)


# ---------------------------------------------------------------------------
# scenario execution


def cell_seed(master: int, param: str, value, replicate: int) -> int:
    """Stable per-cell seed; both protocols share it so workloads pair."""
    material = f"{master}|{param}={value!r}|rep{replicate}"
    return int.from_bytes(sha256(material.encode()).digest()[:8], "big")


def run_scenario(scenario: Scenario, keep_traces: bool = False) -> RunReport:
    """Execute every (protocol, sweep point, replicate) cell.

    Failures abort with the cell named. Improvement rows are paired
    per replicate because both protocols consume the same workload for
    a given cell seed. Each pous cell adds a ``crypto.csv`` row.
    """
    report = RunReport(scenario=scenario.name, master_seed=scenario.base.seed)
    if scenario.kind == "cost":
        report.cost_series = run_cost_benchmark(scenario.base.seed)
        return report
    _check_sweep(scenario.sweep_param, scenario.sweep_values, report.notes)

    # per sweep point, the rows of its cells: a cell's latency array and
    # round log are dropped once its row and trace are written
    by_point: dict[tuple[str, object], list[dict]] = {}
    for value in scenario.sweep_values:
        for replicate in range(scenario.replicates):
            config = scenario.cell(value, replicate)
            for protocol in scenario.protocols:
                try:
                    metrics = _RUNNERS[protocol](config)
                except Exception as exc:
                    raise RuntimeError(
                        f"cell {protocol}/{scenario.sweep_param}={value}"
                        f"/rep{replicate} failed: {exc}"
                    ) from exc
                row = {"protocol": protocol, "param": scenario.sweep_param,
                       "value": value, "replicate": replicate, **metrics.summary()}
                by_point.setdefault((protocol, value), []).append(row)
                report.cells.append(row)
                if protocol == "pous":
                    comparisons, seconds, nbytes = metrics.crypto
                    report.crypto.append({
                        "param": scenario.sweep_param, "value": value, "replicate": replicate,
                        "comparisons_per_round": comparisons, "seconds_per_round": seconds,
                        "bytes_per_round": nbytes, "rounds": metrics.rounds,
                    })
                if keep_traces:
                    report.traces[(protocol, value, replicate)] = list(
                        trace_lines(config, protocol, metrics)
                    )

    for (protocol, value), runs in sorted(
        by_point.items(), key=lambda kv: (kv[0][0], float(kv[0][1]))
    ):
        tps = np.array([m["tps"] for m in runs])
        lat = np.array([m["mean_latency"] for m in runs])
        # nan, not a warning, when no replicate confirmed anything
        any_lat = not np.isnan(lat).all()
        report.aggregates.append({
            "protocol": protocol, "param": scenario.sweep_param, "value": value,
            "mean_tps": float(tps.mean()), "std_tps": float(tps.std()),
            "mean_latency": float(np.nanmean(lat)) if any_lat else float("nan"),
            "std_latency": float(np.nanstd(lat)) if any_lat else float("nan"),
            "replicates": len(runs),
        })

    if {"pous", "pow"} <= set(scenario.protocols):
        for value in scenario.sweep_values:
            pous_runs = by_point[("pous", value)]
            pow_runs = by_point[("pow", value)]
            tps_gain = [
                (a["tps"] - b["tps"]) / b["tps"] * 100.0
                for a, b in zip(pous_runs, pow_runs) if b["tps"] > 0
            ]
            lat_gain = [
                (b["mean_latency"] - a["mean_latency"]) / b["mean_latency"] * 100.0
                for a, b in zip(pous_runs, pow_runs)
                if np.isfinite(a["mean_latency"]) and np.isfinite(b["mean_latency"])
                and b["mean_latency"] > 0
            ]
            report.improvements.append({
                "param": scenario.sweep_param, "value": value,
                "tps_improvement_pct": float(np.mean(tps_gain)) if tps_gain else float("nan"),
                "latency_reduction_pct": float(np.mean(lat_gain)) if lat_gain else float("nan"),
            })

    if scenario.kind == "scatter":
        report.pca_scatter = pca_scatter_rows(scenario.cell(scenario.sweep_values[0], 0))
    return report


# ---------------------------------------------------------------------------
# crypto cost benchmark


def run_cost_benchmark(seed: int = 7) -> list[dict]:
    """Measure two-party comparison cost against data volume.

    Data volume maps to comparisons at eight bytes per similarity
    entry. The comparator template is garbled once (epoch semantics);
    each comparison selects fresh labels and evaluates the circuit.
    Beside the wall time, an ``eval`` row counts its work, which does not
    vary run to run: the gates evaluated, one row pad hashed per gate.
    The ``ot`` row times 64 real transfers on the small group as 8
    batches of 8, one batch per width-8 comparison; its ``comparisons``
    column counts the 64 transfers, not the 8 batches. Vote-matrix
    bytes are reported from actual serializations under the
    capability-bounded mining budget. Neither row evaluates gates.
    """
    rows = []
    backend = garbled.GarbledCompareBackend(0.4, 8, seed=seed)
    gates_per_cmp = garbled.comparator_size(8)[0]
    rng = np.random.default_rng(seed)
    for data_bytes in (1024, 2048, 4096, 8192, 16384, 32768):
        n_cmp = data_bytes // 8
        pairs = rng.random((n_cmp, 2))
        start = time.perf_counter()
        approvals = 0
        for a, b in pairs:
            approvals += backend.compare(float(a), float(b))
        elapsed = time.perf_counter() - start
        rows.append({
            "series": "eval", "data_bytes": data_bytes, "comparisons": n_cmp,
            "seconds": elapsed, "approvals": approvals, "gates": n_cmp * gates_per_cmp,
            "users": 0,
        })

    ot = garbled.DiffieHellmanOT(garbled.FAST_GROUP)
    pairs, bits = [(bytes(16), bytes(range(16)))] * 8, [i & 1 for i in range(8)]
    start = time.perf_counter()
    batches = 8
    for _ in range(batches):
        ot.exchange(pairs, bits)
    rows.append({
        "series": "ot", "data_bytes": 0, "comparisons": batches * len(bits),
        "seconds": time.perf_counter() - start, "approvals": 0, "gates": 0, "users": 0,
    })

    for n_users in (100, 500, 1000):
        budget = 1200
        records = []
        for rank, (k, l) in enumerate(pair_sequence(n_users)):
            if rank >= budget:
                break
            for entry in (flat_index(k, l, n_users), flat_index(l, k, n_users)):
                records.append(VoteRecord(voter=1, candidate=2, entry=entry, x=1,
                                          y=APPROVE_BELIEF))
        blob = votes_to_crs(records, n_users)
        rows.append({
            "series": "vote-crs", "data_bytes": len(blob),
            "comparisons": len(records), "seconds": 0.0, "approvals": 0,
            "gates": 0, "users": n_users,
        })
    return rows


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def linear_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the least-squares line."""
    x = np.asarray(xs, float)
    y = np.asarray(ys, float)
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# emission


def _write_csv(path: Path, rows: list[dict]) -> None:
    """The rows under a header of the first row's keys. A row that lacks
    one of them raises KeyError; floats are written as their repr."""
    header = list(rows[0])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[col] for col in header] for row in rows)


def emit(report: RunReport, out_dir: str) -> list[str]:
    """Write each table that holds rows, the traces and the summary;
    returns the file list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    tables = {"cells.csv": report.cells, "crypto.csv": report.crypto,
              "aggregate.csv": report.aggregates,
              "improvements.csv": report.improvements,
              "pca_scatter.csv": report.pca_scatter, "cost.csv": report.cost_series}
    for name, rows in tables.items():
        if rows:
            _write_csv(out / name, rows)
            written.append(name)
    for (protocol, value, replicate), lines in sorted(
        report.traces.items(), key=lambda kv: (kv[0][0], float(kv[0][1]), kv[0][2])
    ):
        name = f"trace-{protocol}-{value}-r{replicate}.jsonl"
        (out / name).write_text("\n".join(lines) + "\n")
        written.append(name)

    (out / "summary.txt").write_text(render_summary(report))
    written.append("summary.txt")
    return written


def render_summary(report: RunReport) -> str:
    lines = [f"scenario: {report.scenario}", f"master seed: {report.master_seed}"]
    for note in report.notes:
        lines.append(f"note: {note}")
    for agg in report.aggregates:
        lines.append(
            f"{agg['protocol']} {agg['param']}={agg['value']}: "
            f"tps {agg['mean_tps']:.4f} (sd {agg['std_tps']:.4f}), "
            f"latency {agg['mean_latency']:.2f}s over {agg['replicates']} replicates"
        )
    if report.improvements:
        gains = [r["tps_improvement_pct"] for r in report.improvements
                 if np.isfinite(r["tps_improvement_pct"])]
        # run_scenario leaves a replicate pair out of the gain when its pow cell confirmed nothing
        pow_tps = [c["tps"] for c in report.cells if c["protocol"] == "pow"]
        dropped = pow_tps.count(0)
        mean_gain = f"{np.mean(gains):.2f}%" if gains else "none"
        lines.append(f"mean throughput improvement: {mean_gain} over "
                     f"{len(pow_tps) - dropped} of {len(pow_tps)} replicate pairs "
                     f"({dropped} left out: pow tps 0)")
        lat = [r["latency_reduction_pct"] for r in report.improvements
               if np.isfinite(r["latency_reduction_pct"])]
        if lat:
            lines.append(f"mean latency reduction: {np.mean(lat):.2f}%")
        # aggregates come sorted by protocol, then by numeric sweep value
        by_param = {}
        for agg in report.aggregates:
            by_param.setdefault(agg["protocol"], []).append(
                (float(agg["value"]), agg["mean_latency"])
            )
        if report.improvements[0]["param"] == "block_interval":
            for proto, pts in by_param.items():
                xs = [p[0] for p in pts]
                ys = [p[1] for p in pts]
                if len(xs) >= 3 and all(np.isfinite(ys)):
                    lines.append(
                        f"{proto} latency-vs-interval linear fit R^2: "
                        f"{linear_r2(xs, ys):.4f}"
                    )
    if report.cost_series:
        evals = [r for r in report.cost_series if r["series"] == "eval"]
        if len(evals) >= 2:
            # the work, not the timed seconds, so the summary does not vary run to run
            sizes = [r["data_bytes"] for r in evals]
            gates = loglog_slope(sizes, [r["gates"] for r in evals])
            lines.append(f"2pc eval work log-log slope vs data size: gates {gates:.3f}")
        for r in report.cost_series:
            if r["series"] == "vote-crs":
                lines.append(
                    f"vote matrix bytes at {r['users']} users: {r['data_bytes']}"
                )
    if report.pca_scatter:
        sel = sum(r["selected"] for r in report.pca_scatter)
        lines.append(
            f"scatter: {len(report.pca_scatter)} users, {sel} with packed transactions"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args) -> int:
    overrides = parse_overrides(args.set or [])
    if args.seed is not None:
        overrides = {"seed": args.seed, **overrides}
    if Path(args.scenario).suffix == ".json":
        scenario = load_config(args.scenario, overrides)
    else:
        scenario, _, _ = scenario_from_preset(args.scenario, fast=args.fast,
                                              overrides=overrides)
    # an --out that cannot be a directory fails before any cell runs
    Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_scenario(scenario, keep_traces=args.trace)
    files = emit(report, args.out)
    sys.stdout.write(render_summary(report))
    sys.stdout.write(f"wrote {', '.join(files)} under {args.out}\n")
    return 0


def _cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        spec = PRESETS[name]
        doc = spec["doc"]
        shape = "cost; reads only the seed"
        if doc["kind"] != "cost":
            shape = (f"{'+'.join(doc['protocols'])}; {doc['sweep']['param']} "
                     f"x{len(doc['sweep']['values'])}; fast x{spec['fast_replicates']}")
        sys.stdout.write(f"{name:12s} {spec['description']} [{shape}]\n")
    return 0


def _cmd_replay(args) -> int:
    lines = _read_text(args.trace).splitlines()
    ok, message = replay_trace(lines)
    sys.stdout.write(message + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pous",
        description="User-similarity consensus simulator and baseline comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a preset or scenario file")
    run_p.add_argument("scenario", help="preset name or path to a scenario JSON")
    run_p.add_argument("--fast", action="store_true",
                       help="reduced replicate counts for quick runs")
    run_p.add_argument("--seed", type=int, default=None, help="master seed")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--set", action="append", metavar="key=value",
                       help="override a base config field")
    run_p.add_argument("--trace", action="store_true",
                       help="write replayable per-cell trace files")
    run_p.set_defaults(func=_cmd_run)

    presets_p = sub.add_parser("presets", help="list shipped scenarios")
    presets_p.set_defaults(func=_cmd_presets)

    replay_p = sub.add_parser("replay", help="re-run and verify a trace file")
    replay_p.add_argument("trace", help="path to a trace .jsonl file")
    replay_p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
