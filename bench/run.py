"""Verdict benchmark for timegolog.

    python3 bench/run.py --workload verify-corpus --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

A single-process, closed-loop benchmark: one client decides one instance at a
time through the command functions the `timegolog` command line uses
(`verify`, `synth`, `transform`), round-robin over the workload's instances
until `--seconds` have passed and every instance has been decided at least
once.  Every verdict then goes through the correctness gate in
`harness.py`, outside the timed region.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it decides every instance once untraced and once under the layer tracer of
`tracer.py`, and reports per-layer calls, self times and counts.  A
human-readable report comes first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"
MODULES = ("cli", "parsing", "plantrans", "golog", "mtl", "synthesis",
           "temporal", "ata", "timed_automata")
SETUP_REPEATS = 9
P90_MIN_INSTANCES = 100

sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms_p50": "ms",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}


def package_modules() -> SimpleNamespace:
    """The package and its modules, imported from the checkout's sources."""
    package = importlib.import_module("timegolog")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"timegolog comes from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"timegolog.{m}") for m in MODULES},
    )


def import_package() -> SimpleNamespace:
    """A fresh import: forget every loaded module of the package first."""
    for name in [m for m in sys.modules if m == "timegolog" or m.startswith("timegolog.")]:
        del sys.modules[name]
    return package_modules()


def traced_modules(tg) -> dict:
    return {"timegolog": tg.package, **{m: getattr(tg, m) for m in MODULES}}


def setup(workload: str, seed: int):
    """Import the package, generate the workload's inputs, write them and
    load them through the public loaders; returns (seconds, package, instances)."""
    start = perf_counter()
    tg = import_package()
    instances = workloads.generate(workload, seed)
    prepared = harness.prepare(tg, instances, WORKDIR / f"{workload}-{seed}")
    return perf_counter() - start, tg, prepared


def decide_all(tg, prepared, seconds: float):
    """Round-robin decisions until `seconds` have passed and every instance
    was decided at least once; per-instance times and first outcomes, plus
    the instances whose outcome changed between repetitions."""
    n = len(prepared)
    samples = [[] for _ in range(n)]
    outcomes = [None] * n
    unstable = set()
    start = perf_counter()
    i = 0
    while i < n or perf_counter() - start < seconds:
        k = i % n
        t0 = perf_counter()
        outcome = harness.decide(tg, prepared[k])
        samples[k].append(perf_counter() - t0)
        if outcomes[k] is None:
            outcomes[k] = outcome
        elif outcome.summary() != outcomes[k].summary():
            unstable.add(k)
        i += 1
    return samples, outcomes, unstable


def gate(tg, prepared, outcomes, unstable) -> list:
    results = []
    for k, (prep, outcome) in enumerate(zip(prepared, outcomes)):
        status, reason = harness.check(tg, prep, outcome)
        if k in unstable and status == harness.OK:
            status, reason = harness.FAIL, "outcome changed between repetitions"
        results.append((status, reason))
    return results


def environment(tg) -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, timegolog {tg.package.__version__}, "
            f"{platform.machine()}")


def report(workload, seed, tg, prepared, per_instance_ms, checks, extra_lines):
    """The human-readable part of the output."""
    print(f"# workload {workload}, seed {seed}: {len(prepared)} instances; {environment(tg)}")
    for prep, ms, (status, reason) in zip(prepared, per_instance_ms, checks):
        print(f"#   {prep.instance['id']:<24} {ms:10.2f} ms  {status:<5} {reason}")
    for line in extra_lines:
        print(f"# {line}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        elapsed, tg, prepared = setup(workload, seed)
        setups.append(elapsed)
        # free the previous set-up's modules now, not at a varying later time
        gc.collect()
    n = len(prepared)

    if not trace:
        samples, outcomes, unstable = decide_all(tg, prepared, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        samples, outcomes, unstable = decide_all(tg, prepared, 0)
        with tracer.Tracer(traced_modules(tg)) as tr:
            for k, prep in enumerate(prepared):
                with tr.root(k):
                    outcome = harness.decide(tg, prep)
                if outcome.summary() != outcomes[k].summary():
                    unstable.add(k)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        tr.save(WORKDIR / f"spans-{workload}-{seed}.npz")

    checks = gate(tg, prepared, outcomes, unstable)
    wrong = sum(status == harness.WRONG for status, _ in checks)
    failed = sum(status != harness.OK for status, _ in checks)
    per_instance_ms = [1000 * statistics.median(s) for s in samples]
    wall_s = sum(statistics.median(s) for s in samples)
    lines = [
        f"decisions: {sum(map(len, samples))} over {n} instances",
        f"wrong_verdicts {wrong} count",
        f"fail_frac {failed / n:.4f} frac",
    ]

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "verdict_ms_p50": statistics.median(per_instance_ms),
            "solved_frac": 1 - failed / n,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        if n >= P90_MIN_INSTANCES:
            p90 = statistics.quantiles(per_instance_ms, n=10)[-1]
            lines.append(f"verdict_ms_p90 {p90:.4f} ms (over {n} instance medians)")
        else:
            lines.append(f"verdict_ms_p90 not reported: {n} < {P90_MIN_INSTANCES} instances")
    else:
        metrics = tr.metrics(untraced_wall_s=wall_s)
        units = tracer.metric_units()
        lines.append(
            f"attribution: layer self times + unattributed = "
            f"{tracer.attributed_total(metrics):.6f} s, traced wall = "
            f"{metrics['trace.wall_s']:.6f} s, untraced wall = {wall_s:.6f} s")
        top = sorted((v, k) for k, v in metrics.items() if k.endswith(".self_s"))[::-1][:6]
        lines.append("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")

    report(workload, seed, tg, prepared, per_instance_ms, checks, lines)
    return {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that peak memory is each workload's own
        code = 0
        for name in workloads.WORKLOADS:
            done = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ], check=False)
            code = code or done.returncode
        return code
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
