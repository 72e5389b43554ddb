"""Acceptance gate: one test per shipped claim, one printed line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
pass/fail lines; the whole gate takes a few minutes, dominated by the
exhaustive comparator sweep and the transfer-protocol sessions.
"""
import csv
import dataclasses
import io
import itertools
import random
import time

import numpy as np
from scipy.stats import chi2_contingency

from pous.bts import expected_scores, strategy_scores
from pous.cli import (
    linear_r2,
    loglog_slope,
    run_cost_benchmark,
    run_scenario,
    scenario_from_preset,
)
from pous.committee import Decision, agree, quorum_threshold
from pous.garbled import (
    FAST_GROUP,
    DiffieHellmanOT,
    FixedPoint,
    decode_output,
    eval_circuit,
    garble_comparator,
    plain_within_theta,
    select_input_labels,
)
from pous.packing import decode_flag, encode_flag
from pous.simnet import RUNNERS, run_pous

MASTER_SEED = 7


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def preset_report(name, **kw):
    scenario, _, _ = scenario_from_preset(name, fast=True, seed=MASTER_SEED, **kw)
    return scenario, run_scenario(scenario)


def point_means(rep):
    return {(a["protocol"], a["value"]): a for a in rep.aggregates}


def test_criterion_1_work_baseline_anchor():
    start = time.perf_counter()
    _, rep = preset_report("pow-anchor")
    tps = rep.aggregates[0]["mean_tps"]
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (work-baseline throughput anchor)",
        5.6 <= tps <= 8.4 and elapsed < 120,
        f"PoW TPS {tps:.4f} in [5.6, 8.4], {elapsed:.1f}s < 120s",
    )


def test_criterion_2_throughput_improvement():
    start = time.perf_counter()
    worst_margin = float("inf")
    gains = []
    for n in (30, 200, 1000):
        for fig in ("fig7", "fig8"):
            scenario, rep = preset_report(f"{fig}-n{n}")
            means = point_means(rep)
            for value in scenario.sweep_values:
                margin = (means[("pous", value)]["mean_tps"]
                          - means[("pow", value)]["mean_tps"])
                worst_margin = min(worst_margin, margin)
            gains.extend(r["tps_improvement_pct"] for r in rep.improvements)
    mean_gain = float(np.mean(gains))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (throughput improvement, size and interval sweeps)",
        worst_margin >= 0 and 5.0 <= mean_gain <= 40.0 and elapsed < 900,
        f"min per-point margin {worst_margin:+.4f} tps, mean improvement "
        f"{mean_gain:.2f}% in [5, 40], {elapsed:.0f}s < 900s",
    )


def test_criterion_3_latency_shape():
    start = time.perf_counter()
    _, rep_a = preset_report("fig9a")
    means_a = point_means(rep_a)
    size_ok = all(
        means_a[("pous", v)]["mean_latency"] < means_a[("pow", v)]["mean_latency"]
        for v in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    )

    scenario_b, rep_b = preset_report("fig9b")
    means_b = point_means(rep_b)
    intervals = scenario_b.sweep_values
    interval_ok = all(
        means_b[("pous", v)]["mean_latency"] < means_b[("pow", v)]["mean_latency"]
        for v in intervals
    )
    r2_pous = linear_r2(intervals, [means_b[("pous", v)]["mean_latency"]
                                    for v in intervals])
    r2_pow = linear_r2(intervals, [means_b[("pow", v)]["mean_latency"]
                                   for v in intervals])
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (latency below baseline; linear vs super-linear growth)",
        size_ok and interval_ok and r2_pous >= 0.95
        and r2_pow <= r2_pous - 0.05 and elapsed < 600,
        f"per-point wins size={size_ok} interval={interval_ok}, "
        f"R2 pous {r2_pous:.4f} >= 0.95, pow {r2_pow:.4f} <= "
        f"{r2_pous - 0.05:.4f}, {elapsed:.0f}s < 600s",
    )


def test_criterion_4_comparator_exhaustive():
    start = time.perf_counter()
    template = garble_comparator(8, theta=0.4, seed=MASTER_SEED)
    theta_raw = template.theta.raw
    circuit = template.circuit
    gen_keys, eval_keys = template.gen_keys, template.eval_keys
    mismatches = 0
    for a in range(256):
        ga = select_input_labels(gen_keys, FixedPoint(a, 8))
        for b in range(256):
            gb = select_input_labels(eval_keys, FixedPoint(b, 8))
            got = decode_output(circuit, eval_circuit(circuit, ga, gb))
            if got != plain_within_theta(a, b, theta_raw):
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (garbled comparator exact on all 65536 pairs)",
        mismatches == 0 and elapsed < 300,
        f"{mismatches} mismatches over 65536 pairs at width 8, theta 0.4, "
        f"{elapsed:.0f}s < 300s",
    )


def test_criterion_5_oblivious_transfer():
    start = time.perf_counter()
    ot = DiffieHellmanOT(FAST_GROUP, rng=random.Random(MASTER_SEED))
    payload_rng = random.Random(MASTER_SEED + 1)
    wrong = 0
    counts = [[0] * 8, [0] * 8]
    for session in range(1000):
        m0, m1 = payload_rng.randbytes(16), payload_rng.randbytes(16)
        bit = session & 1
        (out,), transcript = ot.exchange([(m0, m1)], [bit])  # a batch of one
        if out != (m0, m1)[bit]:
            wrong += 1
        counts[bit][transcript.messages[1][1][0] >> 5] += 1
    _, p_value, _, _ = chi2_contingency(counts)
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (transfer correctness and choice-bit blindness)",
        wrong == 0 and p_value > 0.01,
        f"{wrong} wrong keys over 1000 sessions, receiver-message chi-square "
        f"p={p_value:.3f} > 0.01, {elapsed:.0f}s",
    )


def test_criterion_6_truthful_reporting_dominates():
    rng = np.random.default_rng(MASTER_SEED)
    failures = 0
    tested = 0
    while tested < 1000:
        p0, y, p1 = np.sort(rng.uniform(1e-6, 1 - 1e-6, 3))
        if not (p0 < y < p1):
            continue
        tested += 1
        scores = strategy_scores(float(p0), float(p1), float(y))
        if not (scores["truthful_pos"] > scores["flipped_pos"]
                and scores["truthful_neg"] > scores["flipped_neg"]):
            failures += 1

    worst_gap = 0.0
    for _ in range(10_000):
        p, y = rng.uniform(0, 1, 2)
        e_p, e_y, loss = expected_scores(float(p), float(y))
        worst_gap = max(worst_gap, abs(e_p - e_y - (p - y) ** 2), abs(loss - (p - y) ** 2))
    report(
        "criterion 6 (truthful reporting strictly dominates; score identity)",
        failures == 0 and worst_gap <= 1e-12,
        f"{failures} dominance violations over {tested} samples (need 0); "
        f"max identity residual {worst_gap:.2e} <= 1e-12 over 10000 pairs",
    )


def test_criterion_7_committee_safety_and_liveness():
    palette = [(5, "honest"), (8, "forge-a"), (9, "forge-b")]
    conflicts = 0
    rounds_checked = 0
    for size in (4, 5, 6, 7):
        members = list(range(1, size + 1))
        max_f = (size - 1) // 3  # strictly below one third
        for f in range(max_f + 1):
            for byz in itertools.combinations(members, f):
                honest = [m for m in members if m not in byz]
                # every per-view assignment of forged values to the
                # byzantine members, compared across all view pairs
                for assign_a in itertools.product(palette, repeat=f):
                    for assign_b in itertools.product(palette, repeat=f):
                        views = []
                        for assign in (assign_a, assign_b):
                            subs = {m: (5, "honest") for m in honest}
                            subs.update(dict(zip(byz, assign)))
                            views.append(agree(subs, size, round_index=0))
                        rounds_checked += 1
                        a, b = views
                        if a is not None and b is not None and (
                            (a.leader, a.digest) != (b.leader, b.digest)
                        ):
                            conflicts += 1
                        if a is not None and (a.leader, a.digest) != (5, "honest"):
                            conflicts += 1

    rng = random.Random(MASTER_SEED)
    commits = aborts = 0
    for _ in range(10_000):
        size = rng.randrange(4, 8)
        subs = {}
        for m in range(1, size + 1):
            if rng.random() < 0.2:
                continue  # withheld submission
            subs[m] = rng.choice(palette)
        decision = agree(subs, size, round_index=0)
        if decision is None:
            aborts += 1
        else:
            assert isinstance(decision, Decision)
            assert decision.quorum_count >= quorum_threshold(size)
            commits += 1
    report(
        "criterion 7 (committee safety under faults; every round terminates)",
        conflicts == 0 and commits > 0 and aborts > 0
        and commits + aborts == 10_000,
        f"0 conflicting honest decisions over {rounds_checked} adversarial "
        f"view pairs (sizes 4-7); 10000 randomized rounds -> "
        f"{commits} commits + {aborts} aborts",
    )


def test_criterion_8_flag_field():
    flag = encode_flag([1, 6, 9, 11], capacity=11)
    bits = "".join(f"{byte:08b}" for byte in flag)[:11]
    exact = bits == "10000100101"

    header = dataclasses.make_dataclass("H", ["flag", "capacity"])
    rng = random.Random(MASTER_SEED)
    failures = 0
    for _ in range(10_000):
        capacity = rng.randrange(1, 256)
        extra = rng.sample(range(2, capacity + 1),
                           k=rng.randrange(0, min(10, capacity)))
        offsets = tuple(sorted({1, *extra}))
        got = decode_flag(header(encode_flag(offsets, capacity), capacity))
        if got != offsets:
            failures += 1
    report(
        "criterion 8 (cluster flag encoding)",
        exact and failures == 0,
        f"sizes (5,3,2,1) at R=11 -> {bits} (want 10000100101); "
        f"{failures} roundtrip failures over 10000 random layouts",
    )


def test_criterion_9_functionality_property():
    scenario, rep = preset_report("fig10")
    cell = rep.cells[0]
    wins, rounds = cell["functionality_wins"], cell["rounds_with_block"]
    # a round whose pool fits in its block packs it whole and counts as
    # a win unmeasured; only the rounds that fill their block test the rule
    config = scenario.cell(cell["value"], cell["replicate"])
    filled = sum(r["packed"] == config.capacity() for r in run_pous(config).round_log)
    xs = np.array([r["x"] for r in rep.pca_scatter])
    ys = np.array([r["y"] for r in rep.pca_scatter])
    pc_ok = xs.var() >= ys.var()
    report(
        "criterion 9 (packed transactions stay near cluster centers)",
        rounds > 0 and wins >= 0.9 * rounds and pc_ok,
        f"selected-mean <= pool-mean in {wins}/{rounds} rounds (need 90%), "
        f"{filled} of them filled their block; "
        f"PC1 var {xs.var():.2f} >= PC2 var {ys.var():.2f}",
    )


def test_criterion_10_cost_envelope():
    start = time.perf_counter()
    rows = run_cost_benchmark(seed=MASTER_SEED)
    evals = [r for r in rows if r["series"] == "eval"]
    slope = loglog_slope([r["data_bytes"] for r in evals],
                         [r["seconds"] for r in evals])
    crs = [r for r in rows if r["series"] == "vote-crs"]
    max_crs = max(r["data_bytes"] for r in crs)
    elapsed = time.perf_counter() - start
    report(
        "criterion 10 (comparison cost scales sub-linearly; vote bytes bounded)",
        slope <= 1.2 and max_crs <= 25_000 and len(crs) == 3,
        f"log-log slope {slope:.3f} <= 1.2; vote matrix at most {max_crs} "
        f"bytes <= 25000 for up to 1000 users, {elapsed:.0f}s",
    )


def csv_line(values) -> str:
    """One row as cells.csv writes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


def test_criterion_11_cell_determinism():
    checked = 0
    identical = True
    samples = [
        ("pow-anchor", 1.0, 0),
        ("fig7-n30", 2.0, 3),
        ("fig8-n200", 400.0, 7),
    ]
    for preset, value, replicate in samples:
        scenario, _, _ = scenario_from_preset(preset, fast=True, seed=MASTER_SEED)
        config = scenario.cell(value, replicate)
        for protocol in scenario.protocols:
            runner = RUNNERS[protocol]
            first, second = (csv_line(runner(config).summary().values()) for _ in range(2))
            identical = identical and first == second
            checked += 1
    report(
        "criterion 11 (cell re-runs reproduce identical CSV rows)",
        identical and checked == 5,
        f"{checked} protocol cells re-run with their derived seeds, all rows "
        "byte-identical" if identical else "rows diverged",
    )
