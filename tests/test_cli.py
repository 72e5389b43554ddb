"""Scenario presets, config files, orchestration, CSV emission, verbs."""
import csv
import dataclasses
import json
import math
import warnings
from hashlib import sha256
from typing import Optional, get_type_hints

import numpy as np
import pytest

from pous import cli, garbled, simnet
from pous.cli import (
    PRESETS,
    RunReport,
    Scenario,
    cell_seed,
    emit,
    linear_r2,
    load_config,
    loglog_slope,
    main,
    parse_overrides,
    render_summary,
    replicate_seed,
    run_cost_benchmark,
    run_scenario,
    scenario_from_preset,
)
from pous.errors import ConfigurationError
from pous.packing import PriorityWeights
from pous.simnet import SimConfig, pca_scatter_rows, replay_trace, run_pow

FLOAT_FIELDS = [name for name, kind in get_type_hints(SimConfig).items()
                if kind in (float, Optional[float])]


def tiny_scenario(replicates=2, protocols=("pous", "pow"), seed=7):
    base = SimConfig(n_nodes=8, sim_time=430.0, block_interval=100.0,
                     tx_epoch=100.0, seed=seed)
    return Scenario(
        name="tiny", base=base, sweep_param="block_size_mb",
        sweep_values=[0.5, 1.0], protocols=tuple(protocols),
        replicates=replicates,
    )


TINY_JSON = {
    "name": "tiny",
    "base": {"n_nodes": 8, "sim_time": 430.0, "block_interval": 100.0,
             "tx_epoch": 100.0, "weight_a": 0.5, "weight_b": 2.0, "weight_c": 1.0},
    "sweep": {"param": "block_size_mb", "values": [0.5, 1.0]},
    "protocols": ["pous", "pow"],
    "replicates": 2,
}


# ---------------------------------------------------------------------------
# presets


def test_preset_catalog_covers_experiments():
    names = set(PRESETS)
    assert {"pow-anchor", "fig9a", "fig9b", "fig10", "cost-2pc"} <= names
    for n in (30, 200, 1000):
        assert f"fig7-n{n}" in names and f"fig8-n{n}" in names


def test_fig7_preset_shape():
    sc, meta, notes = scenario_from_preset("fig7-n30", fast=False, seed=7)
    assert sc.sweep_param == "block_size_mb"
    assert sc.sweep_values == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    assert sc.protocols == ("pous", "pow")
    assert sc.replicates == 100
    assert sc.base.n_nodes == 30
    assert sc.base.committee_size == 4
    assert sc.base.seed == 7
    assert notes == []
    big, _, _ = scenario_from_preset("fig7-n200")
    assert big.base.committee_size == 7


def test_fast_flag_reduces_replicates():
    slow, _, _ = scenario_from_preset("fig8-n30")
    fast, _, _ = scenario_from_preset("fig8-n30", fast=True)
    assert fast.replicates < slow.replicates
    assert fast.sweep_values == slow.sweep_values


def test_preset_overrides():
    sc, _, _ = scenario_from_preset(
        "fig7-n30", fast=True, seed=3,
        overrides={"sim_time": 630.0, "replicates": 2},
    )
    assert sc.base.sim_time == 630.0
    assert sc.base.seed == 3
    assert sc.replicates == 2
    with pytest.raises(ConfigurationError, match="no_such_knob"):
        scenario_from_preset("fig7-n30", overrides={"no_such_knob": 1})


def test_unknown_preset_names_the_listing():
    with pytest.raises(ConfigurationError, match="presets"):
        scenario_from_preset("fig99")


def test_parse_overrides_scalars():
    got = parse_overrides(["a=3", "b=2.5", "c=true", "d=none", "e=mock"])
    # no setting takes a bool, so "true" stays text and SimConfig names it
    assert got == {"a": 3, "b": 2.5, "c": "true", "d": None, "e": "mock"}
    with pytest.raises(ConfigurationError):
        parse_overrides(["missing-equals"])


# ---------------------------------------------------------------------------
# scenario files


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    sc = load_config(str(path))
    assert sc.name == "tiny"
    assert sc.base.n_nodes == 8
    assert sc.base.weights() == PriorityWeights(0.5, 2.0, 1.0)
    assert sc.sweep_param == "block_size_mb"
    assert sc.sweep_values == [0.5, 1.0]
    assert sc.protocols == ("pous", "pow")
    assert sc.replicates == 2


def test_load_config_override_merge(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    sc = load_config(str(path), {"n_nodes": 12})
    assert sc.base.n_nodes == 12


def test_load_config_names_bad_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",,\n}\n')
    with pytest.raises(ConfigurationError, match=r"broken\.json:2"):
        load_config(str(path))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_JSON, extra=1)))
    with pytest.raises(ConfigurationError, match="extra"):
        load_config(str(path))
    path.write_text(json.dumps(
        dict(TINY_JSON, base={"n_nodes": 8, "warp_factor": 9})
    ))
    with pytest.raises(ConfigurationError, match="warp_factor"):
        load_config(str(path))
    path.write_text(json.dumps(
        dict(TINY_JSON, sweep={"param": "block_size_mb", "values": [1], "step": 2})
    ))
    with pytest.raises(ConfigurationError, match="sweep"):
        load_config(str(path))


@pytest.mark.parametrize("change, name", [
    ({"replicates": "abc"}, "replicates"),
    ({"sweep": {"param": "block_size_mb", "values": [0.5, "abc"]}}, "block_size_mb"),
    ({"kind": "bogus"}, "bogus"),
    ({"sweep": {"values": 5}}, "sweep.values"),
    ({"protocols": 5}, "protocols"),
    # a cost run reads neither key, so it refuses both by name
    ({"kind": "cost", "sweep": {"param": "warp", "values": ["x"]}}, "sweep"),
    ({"kind": "cost", "protocols": ["nope"]}, "protocols"),
    # the weights are three number fields; the old triple is no field
    ({"base": {**TINY_JSON["base"], "weights": [0.5, 2.0, 1.0]}}, "weights"),
    # no point to run, or a point run twice under one aggregate row and trace name
    ({"sweep": {"param": "block_size_mb", "values": []}}, "sweep.values"),
    ({"kind": "scatter", "sweep": {"param": "block_size_mb", "values": []}}, "sweep.values"),
    ({"sweep": {"param": "block_size_mb", "values": [2.0, 2.0]}}, "sweep.values"),
    ({"sweep": {"param": "block_size_mb", "values": [1.0, 1]}}, "sweep.values"),
    # an optional field takes null, but a sweep point must be a number
    ({"sweep": {"param": "tx_epoch", "values": [100.0, None]}}, "sweep.values"),
    # each cell runs the seed derived from the master seed, not a swept one
    ({"sweep": {"param": "seed", "values": [1, 2]}}, "seed"),
    # a repeated protocol would run each cell twice and mispair the gains
    ({"protocols": ["pous", "pous", "pow"]}, "protocols"),
    # a cost run reads only the seed, so a base field would be ignored
    ({"kind": "cost", "base": {"seed": 3, "n_nodes": 8}}, "n_nodes"),
])
def test_run_verb_rejects_bad_scenario_file(tmp_path, capsys, change, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_JSON, **change)))
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_weight_sweep_runs(tmp_path, capsys):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(dict(
        TINY_JSON, replicates=1, sweep={"param": "weight_c", "values": [0.0, 5.0]})))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--trace", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    with (out_dir / "cells.csv").open() as fh:
        assert [(c["param"], c["value"]) for c in csv.DictReader(fh)] == [
            ("weight_c", "0.0"), ("weight_c", "0.0"), ("weight_c", "5.0"), ("weight_c", "5.0")]
    for value in (0.0, 5.0):
        lines = (out_dir / f"trace-pous-{value}-r0.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["config"]["weight_c"] == value
        assert replay_trace(lines)[0]


@pytest.mark.parametrize("pairs", [["weight_a=-1"], ["weight_a=0", "weight_b=0", "weight_c=0"]])
def test_weights_out_of_range_exit_2_before_any_cell_runs(tmp_path, capsys, monkeypatch,
                                                          pairs):
    calls = []
    for protocol in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, protocol, calls.append)
    assert main(["run", "fig8-n30", "--fast", "--out", str(tmp_path / "out"),
                 *(arg for pair in pairs for arg in ("--set", pair))]) == 2
    assert "weight_a, weight_b, weight_c: " in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_too_small_block_exits_2_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    calls = []
    for protocol in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, protocol, calls.append)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(
        dict(TINY_JSON, sweep={"param": "block_size_mb", "values": [0.5, 0.0001]})))
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "block_size_mb must be at least one tx_size (250 bytes), got 0.0001" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, pair", [
    ("fig8-n30", "block_interval=300"),
    ("tiny.json", "block_size_mb=2"),
])
def test_run_verb_rejects_override_of_swept_field(tmp_path, capsys, scenario, pair):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    rc = main(["run", str(tmp_path / scenario) if scenario == path.name else scenario,
               "--fast", "--set", "replicates=1", "--set", pair,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{pair.partition('=')[0]} is swept over" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_without_values_runs_the_base_value(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(dict(
        TINY_JSON, base={**TINY_JSON["base"], "block_interval": 150.0},
        sweep={"param": "block_interval"})))
    assert load_config(str(path)).sweep_values == [150.0]
    # no values are listed, so an override sets the one point
    assert load_config(str(path), {"block_interval": 250.0}).sweep_values == [250.0]


def test_scenario_file_takes_replicates_override(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--set", "replicates=1"]) == 0
    capsys.readouterr()
    cells = (out_dir / "cells.csv").read_text().splitlines()
    assert len(cells) == 1 + 2 * 2  # protocols x values, one replicate
    with pytest.raises(ConfigurationError, match="replicates"):
        load_config(str(path), {"replicates": 2.5})


def test_scenario_file_sweep_out_of_range_is_noted(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(
        TINY_JSON, replicates=1, sweep={"param": "block_size_mb", "values": [40.0]})))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "note: sweep values [40.0] for block_size_mb fall outside" in summary


@pytest.mark.parametrize("text", ["5", '{"sweep": []}', '{"base": [1]}'])
def test_load_config_rejects_non_objects(tmp_path, text):
    path = tmp_path / "shape.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="objects"):
        load_config(str(path))


def test_cli_runs_the_simulator_registry():
    # perfbench wraps the runners by patching cli._RUNNERS in place
    assert cli._RUNNERS is simnet.RUNNERS
    assert simnet.RUNNERS == {"pous": simnet.run_pous, "pow": simnet.run_pow}


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        tiny = tiny_scenario()
        Scenario(name="x", base=tiny.base, sweep_param="definitely_not_a_field",
                 sweep_values=[1], protocols=("pous",), replicates=1)
    with pytest.raises(ConfigurationError):
        Scenario(name="x", base=tiny_scenario().base, sweep_param="block_size_mb",
                 sweep_values=[1], protocols=("pos",), replicates=1)


# ---------------------------------------------------------------------------
# cell seeds


def test_cell_seed_matches_hash_oracle():
    want = int.from_bytes(
        sha256(b"7|block_size_mb=0.5|rep3").digest()[:8], "big"
    )
    assert cell_seed(7, "block_size_mb", 0.5, 3) == want


def test_cell_sets_the_swept_field_and_the_cells_seed():
    """``seed`` is the cell's own; ``workload_seed`` is the replicate's,
    shared by every sweep point and distinct across replicates and
    master seeds."""
    sc = tiny_scenario()
    config = sc.cell(1.0, 3)
    assert config == dataclasses.replace(
        sc.base, block_size_mb=1.0, seed=cell_seed(7, "block_size_mb", 1.0, 3),
        workload_seed=replicate_seed(7, 3))
    assert replicate_seed(7, 3) == int.from_bytes(sha256(b"7|rep3").digest()[:8], "big")
    cells = {(m, v, r): tiny_scenario(seed=m).cell(v, r)
             for m in (7, 8) for v in (0.5, 1.0) for r in range(3)}
    assert len({c.seed for c in cells.values()}) == len(cells)
    by_replicate = {}
    for (m, _v, r), c in cells.items():
        by_replicate.setdefault((m, r), set()).add(c.workload_seed)
    assert all(len(seeds) == 1 for seeds in by_replicate.values())
    assert len(set.union(*by_replicate.values())) == len(by_replicate) == 6


def test_cell_seed_distinct_per_cell():
    seeds = {
        cell_seed(m, "block_size_mb", v, r)
        for m in (7, 8) for v in (0.5, 1.0) for r in range(5)
    }
    assert len(seeds) == 20


# ---------------------------------------------------------------------------
# scenario execution


def test_run_scenario_cell_and_aggregate_bookkeeping():
    sc = tiny_scenario()
    report = run_scenario(sc)
    assert len(report.cells) == 2 * 2 * 2  # protocols x values x replicates
    assert len(report.aggregates) == 4
    for agg in report.aggregates:
        mine = [c for c in report.cells
                if c["protocol"] == agg["protocol"] and c["value"] == agg["value"]]
        assert agg["replicates"] == len(mine) == 2
        assert agg["mean_tps"] == pytest.approx(np.mean([c["tps"] for c in mine]))
        assert agg["std_tps"] == pytest.approx(np.std([c["tps"] for c in mine]))


def test_run_scenario_improvements_are_paired():
    sc = tiny_scenario()
    report = run_scenario(sc)
    assert [row["value"] for row in report.improvements] == [0.5, 1.0]
    for row in report.improvements:
        pous = [c for c in report.cells
                if c["protocol"] == "pous" and c["value"] == row["value"]]
        pow_ = [c for c in report.cells
                if c["protocol"] == "pow" and c["value"] == row["value"]]
        gains = [
            (a["tps"] - b["tps"]) / b["tps"] * 100.0
            for a, b in zip(pous, pow_) if b["tps"] > 0
        ]
        if gains:
            assert row["tps_improvement_pct"] == pytest.approx(np.mean(gains))
        else:
            assert np.isnan(row["tps_improvement_pct"])
        # pairing holds because both protocols run the same cell seed
        for a, b in zip(pous, pow_):
            assert a["seed"] == b["seed"]
            assert a["total_tx_count"] == b["total_tx_count"]


@pytest.mark.parametrize("param, values, workloads", [
    ("block_interval", [100.0, 150.0, 200.0], 2),  # one per replicate
    ("sim_time", [330.0, 430.0, 530.0], 6),  # the traffic reads it: one per cell
])
def test_a_sweep_generates_one_workload_per_replicate_and_traffic(monkeypatch, param,
                                                                  values, workloads):
    generated = []
    real = simnet.gen_workload
    monkeypatch.setattr(simnet, "gen_workload",
                        lambda config, rng: generated.append(config) or real(config, rng))
    monkeypatch.setattr(simnet, "_held", None)
    sc = dataclasses.replace(tiny_scenario(), sweep_param=param, sweep_values=values)
    report = run_scenario(sc)
    assert len(generated) == workloads
    # rows still come in (sweep point, replicate, protocol) order
    assert [(c["value"], c["replicate"], c["protocol"]) for c in report.cells] == [
        (v, r, p) for v in values for r in range(2) for p in ("pous", "pow")]
    assert [(c["value"], c["replicate"]) for c in report.crypto] == [
        (v, r) for v in values for r in range(2)]


@pytest.mark.parametrize("change", [
    dict(sweep_param="workload_seed", sweep_values=[1, 2]),
    dict(base=dataclasses.replace(tiny_scenario().base, workload_seed=3)),
], ids=["swept", "in-base"])
def test_a_scenario_refuses_to_set_the_workload_seed(change):
    with pytest.raises(ConfigurationError, match="workload_seed cannot be"):
        dataclasses.replace(tiny_scenario(), **change)


def test_summary_counts_pairs_left_out_of_the_gain(monkeypatch):
    honest = run_scenario(tiny_scenario())
    assert all(c["tps"] > 0 for c in honest.cells)
    assert ("mean throughput improvement: "
            f"{np.mean([r['tps_improvement_pct'] for r in honest.improvements]):.2f}% "
            "over 4 of 4 replicate pairs (0 left out: pow tps 0)") in render_summary(honest)

    calls = []

    def pow_confirming_nothing_first(config):
        metrics = run_pow(config)
        first = config.block_size_mb == 0.5 and not calls
        calls.append(config.seed)
        return dataclasses.replace(metrics, tps=0.0) if first else metrics

    monkeypatch.setitem(cli._RUNNERS, "pow", pow_confirming_nothing_first)
    report = run_scenario(tiny_scenario())
    pous = [c for c in report.cells if c["protocol"] == "pous" and c["value"] == 0.5]
    pow_ = [c for c in report.cells if c["protocol"] == "pow" and c["value"] == 0.5]
    assert [c["tps"] == 0 for c in pow_] == [True, False]
    assert report.improvements[0]["tps_improvement_pct"] == pytest.approx(
        (pous[1]["tps"] - pow_[1]["tps"]) / pow_[1]["tps"] * 100.0)
    gains = [r["tps_improvement_pct"] for r in report.improvements]
    assert (f"mean throughput improvement: {np.mean(gains):.2f}% "
            "over 3 of 4 replicate pairs (1 left out: pow tps 0)") in render_summary(report)

    # every pair left out: no gain to report, the count still shows
    monkeypatch.setitem(cli._RUNNERS, "pow",
                        lambda config: dataclasses.replace(run_pow(config), tps=0.0))
    report = run_scenario(tiny_scenario())
    assert ("mean throughput improvement: none over 0 of 4 replicate pairs "
            "(4 left out: pow tps 0)") in render_summary(report)


def test_run_scenario_point_without_confirmations_is_nan_without_warnings():
    base = SimConfig(n_nodes=8, sim_time=430.0, block_interval=100.0,
                     tx_count_mean=0.0, sigma=0.0)
    idle = Scenario(name="idle", base=base, sweep_param="block_size_mb",
                    sweep_values=[1.0], replicates=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(idle)
    assert len(report.aggregates) == 2
    for agg in report.aggregates:
        assert math.isnan(agg["mean_latency"]) and math.isnan(agg["std_latency"])


def test_run_scenario_single_protocol_skips_improvements():
    report = run_scenario(tiny_scenario(protocols=("pow",)))
    assert report.improvements == []
    assert {c["protocol"] for c in report.cells} == {"pow"}


def test_run_scenario_traces_replay():
    sc = tiny_scenario(replicates=1)
    report = run_scenario(sc, keep_traces=True)
    assert set(report.traces) == {
        (p, v, 0) for p in ("pous", "pow") for v in (0.5, 1.0)
    }
    ok, msg = replay_trace(report.traces[("pous", 0.5, 0)])
    assert ok, msg


def test_scatter_rows_shape():
    config = SimConfig(n_nodes=12, sim_time=430.0, block_interval=100.0,
                       tx_epoch=100.0, seed=5)
    rows = pca_scatter_rows(config)
    assert 0 < len(rows) <= 12
    for row in rows:
        assert set(row) == {"user", "x", "y", "cluster", "selected"}
        assert 0 <= row["cluster"] < 3
        assert row["selected"] in (0, 1)
    assert any(r["selected"] for r in rows)


def test_fit_helpers():
    xs = [1024, 2048, 4096, 8192]
    assert loglog_slope(xs, [3e-4 * x for x in xs]) == pytest.approx(1.0)
    assert loglog_slope(xs, [5.0] * 4) == pytest.approx(0.0, abs=1e-9)
    assert linear_r2([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert linear_r2([1, 2, 3, 4], [5, 5, 5, 5]) == 1.0
    assert linear_r2([1, 2, 3, 4], [1, 4, 9, 16]) < 1.0


def test_cost_rows_count_gates(tmp_path, monkeypatch):
    # one real comparison hashes one row pad per gate, and over dealer OT
    # it hashes nothing else
    backend = garbled.GarbledCompareBackend(0.4, 8, seed=7, ot=garbled.TrustedDealerOT())
    gates = len(backend.template.circuit.gates)
    pads = []
    real_blake2b = garbled.hashlib.blake2b
    monkeypatch.setattr(garbled.hashlib, "blake2b",
                        lambda data: pads.append(data) or real_blake2b(data))
    backend.compare(0.3, 0.6)
    assert len(pads) == gates
    monkeypatch.undo()

    # the work column follows from the comparison count, so stubbed
    # comparisons leave it as it is
    monkeypatch.setattr(garbled.GarbledCompareBackend, "compare", lambda self, a, b: 1)
    rows = run_cost_benchmark(seed=7)
    assert [r["series"] for r in rows] == ["eval"] * 6 + ["ot"] + ["vote-crs"] * 3
    for r in rows:
        want = r["comparisons"] * gates if r["series"] == "eval" else 0
        assert r["gates"] == want
    emit(RunReport(scenario="cost-2pc", master_seed=7, cost_series=rows), str(tmp_path))
    cost = (tmp_path / "cost.csv").read_text().splitlines()
    assert cost[0] == "series,data_bytes,comparisons,seconds,approvals,gates,users"
    assert cost[1].endswith(f",{128 * gates},0")
    assert [line.split(",")[-1] for line in cost if line.startswith("vote-crs,")] == [
        "100", "500", "1000"]
    assert all(line.split(",")[4] == "0" for line in cost if line.startswith("vote-crs,"))
    assert "gates 1.000\n" in (tmp_path / "summary.txt").read_text()


def test_cost_summary_does_not_vary_with_the_timed_seconds():
    def summary(seconds):
        rows = [{"series": "eval", "data_bytes": size, "comparisons": size // 8,
                 "seconds": sec, "approvals": 0, "gates": size, "users": 0}
                for size, sec in zip((1024, 2048, 4096), seconds)]
        return render_summary(RunReport(scenario="cost-2pc", master_seed=7, cost_series=rows))

    assert summary([0.7, 1.4, 2.1]) == summary([0.01, 0.005, 0.003])
    assert "2pc eval work log-log slope vs data size: gates 1.000\n" in (
        summary([0.7, 1.4, 2.1]))


# ---------------------------------------------------------------------------
# emission


def test_emit_writes_expected_files(tmp_path):
    report = run_scenario(tiny_scenario())
    files = emit(report, str(tmp_path))
    assert files == ["cells.csv", "crypto.csv", "aggregate.csv", "improvements.csv",
                     "summary.txt"]
    cells = (tmp_path / "cells.csv").read_text().splitlines()
    assert cells[0].startswith("protocol,param,value,replicate,seed")
    assert len(cells) == 1 + len(report.cells)
    crypto = (tmp_path / "crypto.csv").read_text().splitlines()
    assert crypto[0] == ("param,value,replicate,comparisons_per_round,seconds_per_round,"
                         "bytes_per_round,rounds")
    assert len(crypto) == 1 + sum(c["protocol"] == "pous" for c in report.cells)
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.startswith("scenario: tiny\nmaster seed: 7\n")
    assert "mean throughput improvement" in summary


def test_emit_empty_report_writes_only_summary(tmp_path):
    report = RunReport(scenario="empty", master_seed=1)
    assert emit(report, str(tmp_path)) == ["summary.txt"]
    assert [p.name for p in tmp_path.iterdir()] == ["summary.txt"]


def test_emit_refuses_a_row_that_lacks_a_column(tmp_path):
    rows = [{"protocol": "pow", "seed": 1, "tps": 0.5}, {"protocol": "pow", "tps": 0.5}]
    with pytest.raises(KeyError, match="seed"):
        emit(RunReport(scenario="s", master_seed=1, cells=rows), str(tmp_path))


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    a_dir, b_dir, c_dir = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    emit(run_scenario(tiny_scenario(seed=7)), str(a_dir))
    emit(run_scenario(tiny_scenario(seed=7)), str(b_dir))
    emit(run_scenario(tiny_scenario(seed=8)), str(c_dir))
    for name in ("cells.csv", "crypto.csv", "aggregate.csv", "improvements.csv",
                 "summary.txt"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    assert (a_dir / "cells.csv").read_bytes() != (c_dir / "cells.csv").read_bytes()


def test_emit_trace_files(tmp_path):
    report = run_scenario(tiny_scenario(replicates=1), keep_traces=True)
    files = emit(report, str(tmp_path))
    traces = [f for f in files if f.startswith("trace-")]
    assert "trace-pous-0.5-r0.jsonl" in traces
    lines = (tmp_path / "trace-pous-0.5-r0.jsonl").read_text().splitlines()
    ok, msg = replay_trace(lines)
    assert ok, msg


def test_summary_mentions_scatter_and_notes():
    report = RunReport(scenario="s", master_seed=1)
    report.notes.append("sweep values [99] fall outside the usual range")
    report.pca_scatter = [{"user": 1, "x": 0.0, "y": 0.0, "cluster": 0,
                           "selected": 1}]
    text = render_summary(report)
    assert "note: sweep values" in text
    assert "scatter: 1 users, 1 with packed transactions" in text


# ---------------------------------------------------------------------------
# command line verbs


def test_presets_verb_lists_catalog(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out
    # a cost preset lists no sweep, protocols or --fast replicates, since it reads none
    assert ("cost-2pc     Two-party comparison cost scaling and vote-blob bytes "
            "[cost; reads only the seed]\n") in out
    # the listing is pinned byte for byte
    assert sha256(out.encode()).hexdigest() == (
        "f86db22b9ea2e86dfc7b37eaf1a34e996bbb8713ac35862b4db2f5c7c3c4b213")


def test_run_verb_on_scenario_file(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--seed", "3", "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "master seed: 3" in stdout
    assert "wrote" in stdout
    assert (out_dir / "cells.csv").exists()
    assert (out_dir / "summary.txt").exists()


def test_set_seed_beats_seed_flag_for_presets_and_files(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    for scenario in ("fig8-n30", str(path)):
        rc = main(["run", scenario, "--fast", "--seed", "3", "--set", "seed=5",
                   "--set", "replicates=1", "--set", "sim_time=630",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "master seed: 5\n" in capsys.readouterr().out


def test_run_verb_set_overrides(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--out", str(out_dir),
               "--set", "n_nodes=6", "--set", "sigma=0.5"])
    assert rc == 0
    capsys.readouterr()


def test_run_verb_unknown_preset_fails(tmp_path, capsys):
    rc = main(["run", "no-such-preset", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_verb_missing_json_file_fails(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "No such file" in err and "missing.json" in err
    assert "preset" not in err


def test_run_verb_out_that_is_a_file_exits_2_before_any_cell_runs(tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    for protocol in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, protocol, calls.append)
    out = tmp_path / "out"
    out.write_text("")
    assert main(["run", "fig10", "--fast", "--out", str(out)]) == 2
    assert f"File exists: '{out}'" in capsys.readouterr().err
    assert calls == []


def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.mkdir()
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert main(["replay", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("Is a directory") == 2
    assert not (tmp_path / "out").exists()


def test_run_verb_failing_cell_is_named(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise ValueError("boom")
    monkeypatch.setitem(cli._RUNNERS, "pow", broken)
    rc = main(["run", "pow-anchor", "--fast", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: cell pow/block_size_mb=1.0/rep0 failed: boom" in capsys.readouterr().err


def test_run_verb_cost_scenario(tmp_path, capsys, monkeypatch):
    rows = [
        {"series": "eval", "data_bytes": 1024, "comparisons": 128, "seconds": 0.5,
         "approvals": 70, "gates": 128, "users": 0},
        {"series": "eval", "data_bytes": 2048, "comparisons": 256, "seconds": 1.0,
         "approvals": 140, "gates": 256, "users": 0},
        {"series": "vote-crs", "data_bytes": 9000, "comparisons": 2400, "seconds": 0.0,
         "approvals": 0, "gates": 0, "users": 100},
    ]
    seeds = []
    monkeypatch.setattr(cli, "run_cost_benchmark", lambda seed: seeds.append(seed) or rows)
    out_dir = tmp_path / "out"
    assert main(["run", "cost-2pc", "--fast", "--seed", "5", "--out", str(out_dir)]) == 0
    assert seeds == [5]
    assert sorted(p.name for p in out_dir.iterdir()) == ["cost.csv", "summary.txt"]
    assert len((out_dir / "cost.csv").read_text().splitlines()) == 1 + len(rows)
    summary = (out_dir / "summary.txt").read_text()
    assert "2pc eval work log-log slope vs data size: gates 1.000\n" in summary
    assert "vote blob bytes at 100 users: 9000\n" in summary
    assert summary in capsys.readouterr().out


@pytest.mark.parametrize("pair", ["block_interval=5", "replicates=3", "n_nodes=30"])
def test_cost_run_refuses_settings_it_would_ignore(tmp_path, capsys, monkeypatch, pair):
    monkeypatch.setattr(cli, "run_cost_benchmark", lambda seed: pytest.fail("ran"))
    assert main(["run", "cost-2pc", "--fast", "--set", pair,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"a cost run reads only seed, not ['{pair.partition('=')[0]}']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("sweep", {"param": "block_interval", "values": [200.0, 400.0]}),
    ("protocols", ["pow"]),
    ("replicates", 5),
])
def test_cost_document_refuses_keys_it_would_ignore(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.setattr(cli, "run_cost_benchmark", lambda seed: pytest.fail("ran"))
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"name": "c", "kind": "cost", key: value}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"a cost run reads only seed, not ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cost_document_of_name_seed_and_kind_runs(tmp_path, capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "run_cost_benchmark", lambda seed: seeds.append(seed) or [])
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"name": "c", "kind": "cost", "base": {"seed": 3}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert seeds == [3]
    # the preset is the same document: --fast adds no replicates to it
    for fast in (False, True):
        assert scenario_from_preset("cost-2pc", fast=fast)[0].kind == "cost"
    assert PRESETS["cost-2pc"]["doc"] == {"name": "cost-2pc", "base": {}, "kind": "cost"}


def test_cost_run_seed_outside_the_label_seeds_exits_2(tmp_path, capsys):
    # the comparator's labels are read from the seed as 16 signed bytes
    assert main(["run", "cost-2pc", "--fast", "--set", f"seed={2**128}",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"seed {2**128} is not an integer in -2**127 .. 2**127 - 1" in capsys.readouterr().err


def test_run_verb_bad_file_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json:1" in err


def test_run_verb_rejects_negative_seed(tmp_path, capsys):
    rc = main(["run", "fig7-n30", "--fast", "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_verb_bad_override_fails(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    rc = main(["run", str(path), "--out", str(tmp_path / "out"),
               "--set", "bogus=1"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("pair, field", [
    ("sim_time=abc", "sim_time"),
    ("n_nodes=2.5", "n_nodes"),
    ("crypto_mode=real", "crypto_mode"),
    ("replicates=abc", "replicates"),
])
def test_run_verb_ill_typed_override_fails(tmp_path, capsys, pair, field):
    rc = main(["run", "fig7-n30", "--fast", "--out", str(tmp_path / "out"),
               "--set", pair])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _doctor_header(header):
    """Trace headers that replay must refuse, keyed by the name the
    error has to mention."""
    old = json.loads(json.dumps(header))
    old["config"]["block_reward"] = 6.25
    # as written before the weights became three fields
    old_weights = json.loads(json.dumps(header))
    old_weights["config"]["weights"] = [
        old_weights["config"].pop(name) for name in ("weight_a", "weight_b", "weight_c")]
    ill_typed = json.loads(json.dumps(header))
    ill_typed["config"]["n_nodes"] = "eight"
    alien = dict(header, protocol="pos")
    negative = json.loads(json.dumps(header))
    negative["config"]["seed"] = -1
    no_config = {key: value for key, value in header.items() if key != "config"}
    return {"block_reward": json.dumps(old), "weights": json.dumps(old_weights),
            "n_nodes": json.dumps(ill_typed), "pos": json.dumps(alien),
            "not JSON": "this is no trace header", "seed": json.dumps(negative),
            "config": json.dumps(no_config)}


@pytest.mark.parametrize("case", ["block_reward", "weights", "n_nodes", "pos", "not JSON",
                                  "seed", "config"])
def test_replay_verb_bad_header_fails(tmp_path, capsys, case):
    report = run_scenario(tiny_scenario(replicates=1), keep_traces=True)
    lines = report.traces[("pow", 0.5, 0)]
    lines[0] = _doctor_header(json.loads(lines[0]))[case]
    trace = tmp_path / "bad.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 2
    # a header with the old weights triple lacks the three fields that replace it
    named = {"weights": "['weight_a', 'weight_b', 'weight_c']"}.get(case, case)
    assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def pow_trace():
    return run_scenario(tiny_scenario(replicates=1), keep_traces=True).traces[("pow", 0.5, 0)]


def test_replay_verb_truncated_trace_exits_1(tmp_path, capsys, pow_trace):
    trace = tmp_path / "short.jsonl"
    trace.write_text("\n".join(pow_trace[:-1]) + "\n")
    assert main(["replay", str(trace)]) == 1
    assert (f"trace length {len(pow_trace) - 1} != replayed {len(pow_trace)}"
            in capsys.readouterr().out)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_value_exits_2_on_every_path(tmp_path, capsys, pow_trace, name, value):
    """--set, a scenario file's base and a trace header all refuse it,
    by name, before any cell runs."""
    assert main(["run", "fig7-n30", "--fast", "--out", str(tmp_path / "set"),
                 "--set", f"{name}={value}"]) == 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_JSON, base={**TINY_JSON["base"], name: float(value)})))
    assert main(["run", str(path), "--out", str(tmp_path / "file")]) == 2
    header = json.loads(pow_trace[0])
    header["config"][name] = float(value)
    trace = tmp_path / "bad.jsonl"
    trace.write_text("\n".join([json.dumps(header), *pow_trace[1:]]) + "\n")
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err.count(f"{name} must be finite") == 3
    assert not (tmp_path / "set").exists() and not (tmp_path / "file").exists()


def test_set_weights_takes_three_numbers(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_JSON))
    pairs = ["weight_a=0.25", "weight_b=3", "weight_c=1.5"]
    sc = load_config(str(path), parse_overrides(pairs))
    assert sc.base.weights() == PriorityWeights(0.25, 3.0, 1.5)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--set", "replicates=1",
                 *(arg for pair in pairs for arg in ("--set", pair))]) == 0
    capsys.readouterr()
    assert (out_dir / "cells.csv").exists()


@pytest.mark.parametrize("text", ["0.5,2", "0.5,2,1,4", "a,b,c", "0.5", "[0.5,2,1]",
                                  "nan,1,1", "0,0,0", "0.5,,1"])
def test_set_malformed_weights_exits_2(tmp_path, capsys, text):
    # the old weights triple is no field, whatever form its text takes
    assert main(["run", "fig8-n30", "--fast", "--out", str(tmp_path / "out"),
                 "--set", f"weights={text}"]) == 2
    assert "weights" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_replay_verb_rejects_non_utf8_file(tmp_path, capsys):
    trace = tmp_path / "utf16.jsonl"
    trace.write_bytes(b"\xff\xfe" + '{"kind": "header"}'.encode("utf-16-le"))
    assert main(["replay", str(trace)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_replay_verb(tmp_path, capsys):
    report = run_scenario(tiny_scenario(replicates=1), keep_traces=True)
    emit(report, str(tmp_path))
    trace = tmp_path / "trace-pous-0.5-r0.jsonl"
    assert main(["replay", str(trace)]) == 0
    assert "identical" in capsys.readouterr().out

    lines = trace.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["leader"] = 999
    lines[1] = json.dumps(entry, sort_keys=True)
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(doctored)]) == 1
    out = capsys.readouterr().out
    true_leader = json.loads(trace.read_text().splitlines()[1])["leader"]
    assert f"line 2 diverged at 'leader': trace 999, replay {true_leader}" in out


def test_replay_names_a_missing_key_or_shows_unparsable_lines():
    lines = run_scenario(tiny_scenario(replicates=1), keep_traces=True).traces[("pous", 0.5, 0)]
    entry = json.loads(lines[1])
    leader = entry.pop("leader")
    ok, msg = replay_trace([lines[0], json.dumps(entry, sort_keys=True), *lines[2:]])
    assert not ok
    assert msg == f"line 2 diverged at 'leader': trace (absent), replay {leader}"
    ok, msg = replay_trace([lines[0], "not json", *lines[2:]])
    assert not ok
    assert msg == f"line 2 diverged:\n  trace:  not json\n  replay: {lines[1]}"


def test_scatter_preset_writes_projection(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "fig10", "--fast", "--out", str(out_dir),
               "--set", "sim_time=630", "--set", "n_nodes=12"])
    assert rc == 0
    capsys.readouterr()
    scatter = (out_dir / "pca_scatter.csv").read_text().splitlines()
    assert scatter[0] == "user,x,y,cluster,selected"
    assert len(scatter) > 1


def test_scatter_of_an_empty_pool_writes_no_projection(tmp_path, capsys):
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(dict(
        TINY_JSON, kind="scatter", protocols=["pous"], replicates=1,
        base={**TINY_JSON["base"], "tx_count_mean": 0.0, "sigma": 0.0})))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    assert "scatter:" not in capsys.readouterr().out
    assert not (out_dir / "pca_scatter.csv").exists()
    assert pca_scatter_rows(load_config(str(path)).cell(0.5, 0)) == []


def test_scatter_ranks_the_first_cells_config(tmp_path):
    """The scatter is round 0 of cell (first sweep value, replicate 0),
    not the base's value of the swept field under that cell's seed."""
    path = tmp_path / "scatter.json"
    path.write_text(json.dumps(dict(
        TINY_JSON, kind="scatter", protocols=["pous"], replicates=1,
        sweep={"param": "block_size_mb", "values": [0.001]})))
    scenario = load_config(str(path))
    cell = scenario.cell(0.001, 0)
    assert (cell.capacity(), scenario.base.capacity()) == (4, 4194)
    rows = run_scenario(scenario).pca_scatter
    assert rows == pca_scatter_rows(cell)
    # at the base's 1 MB every user of round 0 would be marked selected
    assert rows != pca_scatter_rows(dataclasses.replace(scenario.base, seed=cell.seed))
    assert 0 < sum(r["selected"] for r in rows) < len(rows)


# ---------------------------------------------------------------------------
# golden outputs: simulator numbers pinned byte for byte


# 419-transaction blocks: the pending pool overflows every block, so the
# priority rule decides what is packed
SMALL_BLOCKS = ["--set", "block_size_mb=0.1"]

# the cost factors of crypto.csv's per-round columns, as its digest below was taken
GOLDEN_FACTORS = {
    "simnet._PAD_SECONDS": 4.4e-7,
    "comparator_size(16)": (47, 7063),
    "comparison_bytes(16, DEFAULT_GROUP)": 2144,
}

GOLDEN = [
    # (preset, extra, name, digest)
    ("fig8-n30", [], "cells.csv",
     "0021e79c3bfee9053f0af293900445dc95a91297dd7ff11c24125aad9cebc44e"),
    ("fig10", [], "pca_scatter.csv",
     "db694721363fd01d1f2f83bd87f3594e2a1773551f9e4ba86d5d58f9e791038d"),
    ("fig8-n30", SMALL_BLOCKS, "cells.csv",
     "c628c3574cc0c3551076d4f2e853ff8d09ea09637abcbbbb9969291d930dc391"),
    ("fig8-n30", [], "crypto.csv",
     "e7f319ce547eaff2cb30ce7ee2b7495c22a0460123ec8d002d2f0f60b90a617b"),
]


def test_golden_cost_factors_are_the_live_ones():
    """A cost factor that changes fails here by name. Only the digest of
    ``crypto.csv`` is then re-pinned: ``cells.csv`` does not move, as the
    last test of this file shows."""
    assert {
        "simnet._PAD_SECONDS": simnet._PAD_SECONDS,
        "comparator_size(16)": garbled.comparator_size(16),
        "comparison_bytes(16, DEFAULT_GROUP)": garbled.comparison_bytes(
            16, garbled.DiffieHellmanOT(garbled.DEFAULT_GROUP)),
    } == GOLDEN_FACTORS


@pytest.mark.parametrize("preset, extra, name, digest", [
    pytest.param(*case, id=f"{case[0]}-extra{i}-{case[2]}")
    for i, case in enumerate(GOLDEN)
])
def test_golden_output(tmp_path, capsys, preset, extra, name, digest):
    out_dir = tmp_path / "out"
    assert main(["run", preset, "--fast", "--set", "replicates=1", *extra,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert sha256((out_dir / name).read_bytes()).hexdigest() == digest


def test_faulty_committee_rounds_are_pinned():
    """Round lines of a cell whose committee aborts 5 of its 12 rounds;
    the header and summary stay out, so no cost factor re-pins this."""
    scenario, _, _ = scenario_from_preset(
        "fig8-n30", fast=True, overrides={"honest_fraction": 0.7})
    config = scenario.cell(200.0, 0)
    metrics = simnet.run_pous(config)
    assert (metrics.aborts, len(metrics.round_log)) == (5, 12)
    rounds = [line for line in simnet.trace_lines(config, "pous", metrics)
              if json.loads(line)["kind"] == "round"]
    assert sha256("\n".join(rounds).encode()).hexdigest() == (
        "2977314cbbede95f5d96a244857942b5bb9e76480b8443cf4628eaf669d85799")


def run_fig8(out_dir, capsys, extra=()):
    """``fig8-n30`` at one replicate under ``out_dir``; its cells.csv rows."""
    assert main(["run", "fig8-n30", "--fast", "--set", "replicates=1", *extra,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return read_rows(out_dir / "cells.csv")


def read_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_each_pous_cell_has_one_crypto_row(tmp_path, capsys):
    cells = run_fig8(tmp_path, capsys)
    crypto = read_rows(tmp_path / "crypto.csv")
    key = ("value", "replicate", "rounds")
    pous = [tuple(c[k] for k in key) for c in cells if c["protocol"] == "pous"]
    assert len(pous) == 5
    assert sorted(pous) == sorted(tuple(c[k] for k in key) for c in crypto)
    assert len(set(pous)) == len(pous)


def test_crypto_cost_factors_move_only_the_pous_crypto_columns(tmp_path, capsys,
                                                               monkeypatch):
    """A cost factor moves crypto.csv's three per-round columns and
    leaves cells.csv as it is, byte for byte."""
    run_fig8(tmp_path / "live", capsys, SMALL_BLOCKS)
    # a dearer row pad, and a batch that sends two group elements per
    # transfer
    monkeypatch.setattr(simnet, "_PAD_SECONDS", 2.5 * simnet._PAD_SECONDS)
    monkeypatch.setattr(garbled.DiffieHellmanOT, "transfer_bytes",
                        lambda ot, n: ot.group.element_bytes
                        + n * (2 * ot.group.element_bytes + 2 * garbled.LABEL_BYTES))
    run_fig8(tmp_path / "moved", capsys, SMALL_BLOCKS)
    live, moved = (tmp_path / d for d in ("live", "moved"))
    assert (live / "cells.csv").read_bytes() == (moved / "cells.csv").read_bytes()
    a_rows, b_rows = read_rows(live / "crypto.csv"), read_rows(moved / "crypto.csv")
    assert len(a_rows) == len(b_rows) == 5
    # of the three per-round columns the comparison count is no cost, so it stays
    for a, b in zip(a_rows, b_rows):
        assert {col for col in a if a[col] != b[col]} == {"seconds_per_round",
                                                          "bytes_per_round"}
