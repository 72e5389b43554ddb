"""Scenario presets, config files, orchestration, CSV emission, verbs."""
import dataclasses
import json
import math
import warnings
from hashlib import sha256
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import pytest

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
    pca_scatter_rows,
    render_summary,
    run_scenario,
    scenario_from_preset,
)
from pous.errors import ConfigurationError
from pous.simnet import SimConfig, replay_trace

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
             "tx_epoch": 100.0, "weights": [0.5, 2.0, 1.0]},
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
    assert sc.base.weights.b == 2.0
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
    # a cost scenario ignores both keys, and is checked all the same
    ({"kind": "cost", "sweep": {"param": "warp", "values": ["x"]}}, "warp"),
    ({"kind": "cost", "protocols": ["nope"]}, "protocols"),
    # a sweep point is built as run_scenario builds it, so weights cannot be swept
    ({"sweep": {"param": "weights", "values": [[0.5, 2.0, 1.0]]}}, "weights"),
])
def test_run_verb_rejects_bad_scenario_file(tmp_path, capsys, change, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(TINY_JSON, **change)))
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# ---------------------------------------------------------------------------
# emission


def test_emit_writes_expected_files(tmp_path):
    report = run_scenario(tiny_scenario())
    files = emit(report, str(tmp_path))
    assert files == ["cells.csv", "aggregate.csv", "improvements.csv", "summary.txt"]
    cells = (tmp_path / "cells.csv").read_text().splitlines()
    assert cells[0].startswith("protocol,param,value,replicate,seed")
    assert len(cells) == 1 + len(report.cells)
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.startswith("scenario: tiny\nmaster seed: 7\n")
    assert "mean throughput improvement" in summary


def test_emit_empty_report_headers_only(tmp_path):
    report = RunReport(scenario="empty", master_seed=1)
    files = emit(report, str(tmp_path))
    assert files == ["cells.csv", "aggregate.csv", "summary.txt"]
    assert (tmp_path / "cells.csv").read_text().count("\n") == 1
    assert (tmp_path / "aggregate.csv").read_text().count("\n") == 1


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    a_dir, b_dir, c_dir = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    emit(run_scenario(tiny_scenario(seed=7)), str(a_dir))
    emit(run_scenario(tiny_scenario(seed=7)), str(b_dir))
    emit(run_scenario(tiny_scenario(seed=8)), str(c_dir))
    for name in ("cells.csv", "aggregate.csv", "improvements.csv", "summary.txt"):
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
    # the listing is pinned byte for byte
    assert sha256(out.encode()).hexdigest() == (
        "daa687e1fde3c2919720506f03f940f054cf835bbbc709fb55166e7fcad9285b")


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
    no_weights = json.loads(json.dumps(header))
    del no_weights["config"]["weights"]
    ill_typed = json.loads(json.dumps(header))
    ill_typed["config"]["n_nodes"] = "eight"
    alien = dict(header, protocol="pos")
    negative = json.loads(json.dumps(header))
    negative["config"]["seed"] = -1
    return {"block_reward": json.dumps(old), "weights": json.dumps(no_weights),
            "n_nodes": json.dumps(ill_typed), "pos": json.dumps(alien),
            "not JSON": "this is no trace header", "seed": json.dumps(negative)}


@pytest.mark.parametrize("case", ["block_reward", "weights", "n_nodes", "pos", "not JSON",
                                  "seed"])
def test_replay_verb_bad_header_fails(tmp_path, capsys, case):
    report = run_scenario(tiny_scenario(replicates=1), keep_traces=True)
    lines = report.traces[("pow", 0.5, 0)]
    lines[0] = _doctor_header(json.loads(lines[0]))[case]
    trace = tmp_path / "bad.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 2
    assert case in capsys.readouterr().err


@pytest.fixture(scope="module")
def pow_trace():
    return run_scenario(tiny_scenario(replicates=1), keep_traces=True).traces[("pow", 0.5, 0)]


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
    assert "line 2" in capsys.readouterr().out


def test_scatter_preset_writes_projection(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "fig10", "--fast", "--out", str(out_dir),
               "--set", "sim_time=630", "--set", "n_nodes=12"])
    assert rc == 0
    capsys.readouterr()
    scatter = (out_dir / "pca_scatter.csv").read_text().splitlines()
    assert scatter[0] == "user,x,y,cluster,selected"
    assert len(scatter) > 1


# ---------------------------------------------------------------------------
# golden outputs: simulator numbers pinned byte for byte


@pytest.mark.parametrize("preset, extra, name, digest", [
    ("fig8-n30", [], "cells.csv",
     "bf03c1d80b9a58d8f21151829958df804c5c4af38391d47ddb6afcbf049e5aa4"),
    ("fig10", [], "pca_scatter.csv",
     "6f3ef7b8c3a2b13b9d2cd7f4dcd799e01487e0d953dbed0cf74bcd577333a31e"),
    # 419-transaction blocks: the pending pool overflows every block, so
    # the priority rule decides what is packed
    ("fig8-n30", ["--set", "block_size_mb=0.1"], "cells.csv",
     "fcc3b29d22a76137feabae44898da8cbd214b117253983f2d04889fc02f4e83a"),
])
def test_golden_output(tmp_path, capsys, preset, extra, name, digest):
    out_dir = tmp_path / "out"
    assert main(["run", preset, "--fast", "--set", "replicates=1", *extra,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert sha256((out_dir / name).read_bytes()).hexdigest() == digest
