"""Benchmark: time from a truncation to a verified verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--tiny]

Run from the repository root; the package is imported from ``src`` with no
install.  Each pass of a workload runs in a fresh interpreter
(``perfbench/worker.py``), so passes share no warm table and each has its own
peak memory.  Passes repeat until the next one would end past ``--seconds``
(at least three with ``--trace 0``).  ``setup_s`` is the median CPU time of
seven interpreters that only import ``pottsloop.cli`` and build the inputs,
after one untimed start that fills the bytecode cache.  Times are in
reference seconds (``perfbench/speed.py``): CPU seconds scaled by the host
speed measured while they ran, so a slow spell of the shared host moves
them less than it moves wall time.

``--trace 0`` prints the end-to-end metrics: medians over the passes.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (medians over the traced passes) plus ``trace.overhead_s``, the
traced minus the untraced median ``verify_s``; the spans of every traced
pass, with their self times, go to ``.perfbench_out/``.

The line before the last is a JSON record of the seed, the ``c`` it picked,
the per-pass times and any failed verdict; the last line is the result.
Every pass checks every verdict, expected failures included, and the result
is ``correct`` only if none differs.  ``--all`` runs every workload, prints
each metric with its unit and rewrites ``BENCHMARK.json`` from
``perfbench/spec.py``.  ``--tiny`` shrinks the truncations (self-test only).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from speed import host_factor

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SPAWNS = 7
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.base = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
        if tiny:
            self.base.append("--tiny")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + HARD_LIMIT_S

    def spawn(self, *extra: str) -> tuple[float, dict | None]:
        """Wall time of one worker and its JSON line; set-up mode gives its set-up time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left within {HARD_LIMIT_S:.0f} s")
        t0 = time.perf_counter()
        cpu0 = children_cpu_s()
        try:
            proc = subprocess.run(
                self.base + list(extra), cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
        wall = time.perf_counter() - t0
        cpu = children_cpu_s() - cpu0
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if "--setup-only" in extra:
            # the process's CPU time, less its reference samples, in reference seconds
            samples = out["ref_samples"]
            return (cpu - sum(samples)) * host_factor(samples), None
        return wall, out

    def setup_s(self) -> list[float]:
        """Set-up times of SETUP_SPAWNS processes, in reference seconds."""
        self.spawn("--setup-only")  # fills the bytecode cache; not timed
        return [self.spawn("--setup-only")[0] for _ in range(SETUP_SPAWNS)]


def children_cpu_s() -> float:
    """User plus system CPU time of all finished child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def module_lines() -> dict:
    return {
        f"{m}.lines": len((ROOT / "src" / "pottsloop" / f"{m}.py").read_text().splitlines())
        for m in ("ring", "freealg", "solver", "loopcat", "curve", "oracle", "cli")
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "pottsloop" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}; run from a full checkout")
    runner = Runner(workload, seed, tiny)

    setup = runner.setup_s()

    # untraced passes; with tracing on, every second pass is traced
    kinds = ((), ("--trace",)) if trace else ((),)
    min_passes = 2 if trace else 3
    passes: list[tuple[bool, dict]] = []
    walls: list[float] = []
    start = time.monotonic()
    while True:
        extra = kinds[len(passes) % len(kinds)]
        wall, res = runner.spawn(*extra)
        walls.append(wall)
        passes.append((bool(extra), res))
        next_end = time.monotonic() - start + statistics.median(walls)
        if len(passes) >= min_passes and len(passes) % len(kinds) == 0 and next_end > seconds:
            break

    untraced = [r for traced, r in passes if not traced]
    traced = [r for t, r in passes if t]
    attempted = sum(r["attempted"] for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]
    failed = sum(len(r["failures"]) for _, r in passes)
    verify = statistics.median(r["verify_s"] for r in untraced)

    if trace:
        metrics = {}
        for name, unit, _, _ in spec.PER_LAYER:
            if name in traced[0]["layer"]:
                median = statistics.median if unit == "s" else statistics.median_low
                metrics[name] = (median(r["layer"][name] for r in traced), unit)
        metrics["trace.overhead_s"] = (statistics.median(r["verify_s"] for r in traced) - verify, "s")
        for name, value in module_lines().items():
            metrics[name] = (value, "lines")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps([r["spans"] for r in traced], indent=1) + "\n")
    else:
        metrics = {
            "verify_s": (verify, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in untraced), "MiB"),
            "checks_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        trace_file = None

    missing = {n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)} - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    info = {
        "workload": workload,
        "seed": seed,
        "c": passes[0][1]["c"],
        "passes": len(passes),
        "verify_s_untraced": [r["verify_s"] for r in untraced],
        "verify_s_traced": [r["verify_s"] for r in traced],
        "setup_s_samples": setup,
        "host_factor": [r["host_factor"] for _, r in passes],
        "failures": failures[:20],
        "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    ok = True
    for workload, _ in spec.WORKLOADS:
        info, result = run_workload(workload, seed, seconds, False, tiny)
        ok = ok and result["correct"]
        print(f"{workload}  seed {seed}  c = {info['c']}  passes {info['passes']}  "
              f"verdicts {result['attempted']}  failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<18} {m['value']:>12.4f} {m['unit']}")
    print("layer metric -> end-to-end metric it should move")
    for name, unit, _, moves in spec.PER_LAYER:
        print(f"  {name:<28} [{unit}] -> {moves}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    ap.add_argument("--all", action="store_true", help="run every workload and rewrite BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test truncations")
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.tiny)
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
