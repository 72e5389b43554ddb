"""Benchmark runner for pous.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``. One process, one thread, closed loop: each step starts when
the previous one has finished and been checked. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Lines before it report the
environment, raw wall-clock figures, the output fingerprint and, for a
traced run, the self-time table. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPS = 7
# the child probes its own host speed after the import, since it may run
# on another core than this process
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import pous.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from run import HostProbe; p = HostProbe(); p.probe(); print(t / p.samples[-1])"
)
# how often, between steps, memory is released and the host speed probed
PROBE_INTERVAL_S = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import pous

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pous": pous.__version__,
        "commit": git_commit(),
    }


def import_ref() -> float:
    """Time to import the CLI module in a fresh interpreter, in that
    interpreter's reference units."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload, probe) -> list[float]:
    """Set-up times in reference units: a fresh import plus a scenario
    build and warm-up step, the latter divided by a probe taken just
    before it."""
    reps = []
    for _ in range(SETUP_REPS):
        imported = import_ref()
        probe.probe()
        start = perf_counter()
        workload.setup()
        reps.append(imported + (perf_counter() - start) / probe.samples[-1])
    return reps


def _libc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _libc_trim()


def release_free_memory() -> None:
    """Hand memory freed by the previous step back to the system, so the
    peak resident size depends on what one step holds at once rather than
    on what the allocator kept from earlier steps."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class HostProbe:
    """Wall time of a fixed reference kernel, re-measured as the run goes.

    The machines this runs on share cores with other tenants, and their
    speed drifts by a quarter within seconds. The kernel imitates what
    pous spends its time on (sha256 over short byte strings picked from a
    table, byte-wise XOR, an interpreted loop, a numpy sort) and does not
    touch pous. A step's time divided by the mean of the probes taken
    just before and just after it is steady across that drift and still
    moves with any change to pous.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._data = rng.random(20000)
        self._rows = [rng.bytes(20) for _ in range(4096)]
        self._at = float("-inf")
        self.samples: list[float] = []

    def _kernel(self) -> float:
        start = perf_counter()
        rows = self._rows
        sha = hashlib.sha256
        acc = 0
        for i in range(800):
            row = rows[(i * 2654435761) % 4096]
            pad = sha(row + rows[i]).digest()
            acc += bytes(a ^ b for a, b in zip(row, pad))[0]
        for i in range(5000):
            acc += i * i
        self._data.argsort(kind="stable")
        return perf_counter() - start

    def probe(self) -> None:
        release_free_memory()
        self.samples.append(statistics.median(self._kernel() for _ in range(3)))
        self._at = perf_counter()

    def between_steps(self) -> int:
        """Probe again once the last probe is older than PROBE_INTERVAL_S;
        returns the index of the probe the next step follows."""
        if perf_counter() - self._at >= PROBE_INTERVAL_S:
            self.probe()
        return len(self.samples) - 1

    def ref_s(self, index: int) -> float:
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return (self.samples[index] + after) / 2


class Totals:
    def __init__(self, fingerprint_steps: int):
        # the fingerprint covers a fixed number of steps, so it does not
        # depend on how many steps a run fits into its time
        self.fingerprint_limit = fingerprint_steps
        self.fingerprint = hashlib.sha256()
        self.fingerprint_steps = 0
        self.first_fingerprint = ""
        self.ops = 0
        self.failed = 0
        self.items = 0
        self.mismatches = 0
        self.wall = 0.0
        self.op_s: list[float] = []
        self.steps: list[tuple] = []  # (probe index, step wall, op times)

    def add(self, outcome, wall: float, probe_index: int) -> None:
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.items += outcome.items
        self.mismatches += outcome.mismatches
        self.wall += wall
        self.op_s.extend(outcome.op_s)
        self.steps.append((probe_index, wall, outcome.op_s))
        if self.fingerprint_steps < self.fingerprint_limit:
            digest = hashlib.sha256(outcome.fingerprint)
            self.first_fingerprint = self.first_fingerprint or digest.hexdigest()
            self.fingerprint.update(digest.digest())
            self.fingerprint_steps += 1

    def in_ref_units(self, probe: HostProbe) -> tuple[float, list[float]]:
        """Total step time and per-operation times in reference units."""
        wall_ref = 0.0
        op_ref = []
        for index, wall, op_s in self.steps:
            ref = probe.ref_s(index)
            wall_ref += wall / ref
            op_ref.extend(t / ref for t in op_s)
        return wall_ref, op_ref


def run_step(workload, inp, totals, probe, op=None):
    """Time one step, check it, and add it to ``totals``."""
    op = op or workload.op
    probe_index = probe.between_steps()
    start = perf_counter()
    try:
        out = op(inp)
    except Exception:
        traceback.print_exc()
        n = workload.ops_in(inp)
        totals.ops += n
        totals.failed += n
        return None
    wall = perf_counter() - start
    outcome = workload.check(inp, out, wall)
    totals.add(outcome, wall, probe_index)
    return outcome


def percentiles(values):
    """Median, p90 and the number of samples above p90."""
    ordered = sorted(values)
    p50 = statistics.median(ordered)
    p90 = (statistics.quantiles(ordered, n=10, method="inclusive")[8]
           if len(ordered) > 1 else ordered[0])
    return p50, p90, sum(t > p90 for t in ordered)


def untraced_run(workload, args, probe):
    totals = Totals(workload.fingerprint_steps)
    deadline = perf_counter() + args.seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        run_step(workload, workload.prepare(args.seed, index), totals, probe)
        index += 1
    probe.probe()
    return totals


def traced_run(workload, args, probe, out_dir):
    """Run every step twice on the same input, once untraced and once
    traced, alternating which goes first. The tracing overhead is the
    ratio of the two timed totals; the outputs of the two must match."""
    import tracing

    tracer = tracing.Tracer()
    plain = Totals(workload.fingerprint_steps)
    traced = Totals(workload.fingerprint_steps)
    root = tracer.wrap(tracing.ROOT_SPAN, workload.op)
    deadline = perf_counter() + args.seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        inp = workload.prepare(args.seed, index)
        results = {}
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op_id = index
                with tracing.installed(tracer):
                    results[True] = run_step(workload, inp, traced, probe, op=root)
            else:
                results[False] = run_step(workload, inp, plain, probe)
        if None in results.values() or \
                results[True].fingerprint != results[False].fingerprint:
            traced.failed += 1
        index += 1
    probe.probe()
    plain_ref, _ = plain.in_ref_units(probe)
    traced_ref, _ = traced.in_ref_units(probe)
    overhead = traced_ref / plain_ref - 1.0 if plain_ref else 0.0
    metrics = tracing.layer_metrics(tracer, traced.ops, traced.mismatches, overhead)
    table = tracing.self_time_table(tracer)
    tracer.write_spans(out_dir / "spans.jsonl")
    (out_dir / "layers.txt").write_text(table)
    (out_dir / "layers.json").write_text(json.dumps(
        {"metrics": metrics, "counts": tracer.counts, "spans": tracer.summary()},
        indent=1, sort_keys=True))
    return traced, metrics, table


def end_to_end(workload, totals, probe, setup_ref):
    """Gated metrics, in reference-kernel units where they are times, and
    the same figures in wall-clock units under the workload's own names.

    Set-up happens in the first seconds of a run, so it sees whatever
    speed the host has then; it is reported in seconds at the median
    host speed over the whole run instead.
    """
    wall_ref, op_ref = totals.in_ref_units(probe)
    setup_s = statistics.median(setup_ref) * statistics.median(probe.samples)
    p50, p90, beyond = percentiles(op_ref)
    raw50, raw90, _ = percentiles(totals.op_s)
    gated = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput_per_ref": (totals.items / wall_ref, "1/ref"),
        "op_p50_ref": (p50, "ref"),
        "op_p90_ref": (p90, "ref"),
    }
    named = {
        workload.items_name: (totals.items / totals.wall, "1/s"),
        "failed_frac": (totals.failed / totals.ops, "frac"),
    }
    if workload.op_name == "round":
        named.update(round_p50_s=(raw50, "s"), round_p90_s=(raw90, "s"))
    elif workload.op_name == "compare":
        named.update(compare_p50_ms=(1e3 * raw50, "ms"), compare_p90_ms=(1e3 * raw90, "ms"))
    else:
        named.update(point_p50_s=(raw50, "s"), point_p90_s=(raw90, "s"))
    samples = {"op": workload.op_name, "count": len(op_ref), "beyond_p90": beyond}
    return gated, named, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pous" / "__init__.py").is_file():
        sys.stderr.write(f"error: no pous sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import pous
    import tracing
    import workloads

    if Path(pous.__file__).resolve().parent != (SRC / "pous").resolve():
        sys.stderr.write(f"error: imported pous from {pous.__file__}, not {SRC}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, out_dir)
    probe = HostProbe()
    setup_ref = measure_setup(workload, probe)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment()}
    if args.trace:
        totals, layer, table = traced_run(workload, args, probe, out_dir)
        sys.stdout.write(table)
        metrics = {name: (layer[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    else:
        totals = untraced_run(workload, args, probe)
        if not totals.op_s:
            sys.stderr.write("error: every step failed; no timing to report\n")
            return 1
        metrics, named, info["samples"] = end_to_end(workload, totals, probe, setup_ref)
        info["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        for name, (value, unit) in {**metrics, **named}.items():
            sys.stdout.write(f"{name:20s} {value:.6g} {unit}\n")
    info["ref_ms_median"] = 1e3 * statistics.median(probe.samples)
    info["fingerprint"] = {"sha256": totals.fingerprint.hexdigest(),
                           "first_step_sha256": totals.first_fingerprint,
                           "steps": totals.fingerprint_steps}
    sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.ops,
        "failed": totals.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
