"""Quick self-test of the benchmark at tiny truncations (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches ``perfbench/spec.py`` and the manifest's
format limits, that every workload prints every named metric with its unit
under ``--trace 0`` and ``--trace 1`` with all verdicts as expected, and that
the benchmark fails without printing a result when the package source is
missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_manifest(errors: list) -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = spec.manifest()
    if on_disk != m:
        errors.append("BENCHMARK.json differs from perfbench/spec.py; rerun run.py --all")
    if not 2 <= len(m["workloads"]) <= 8 or not 1 <= m["run_seconds"] <= 60:
        errors.append("workload count or run_seconds out of range")
    names = [w["name"] for w in m["workloads"]] + [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    for n in names:
        if not NAME.fullmatch(n):
            errors.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for w in m["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"why of {w['name']} is not one line of at most 200 characters")
    for x in m["end_to_end"] + m["per_layer"]:
        if not UNIT.fullmatch(x["unit"]) or x["better"] not in ("lower", "higher"):
            errors.append(f"bad unit or direction on {x['name']}")
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        errors.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s must carry the largest bound")


def check_workload(workload: str, trace: int, errors: list) -> None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: verdicts failed: {info['failures'][:3]}")
    wanted = {n: u for n, u, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} printed as {m}")
        else:
            print(f"  {where:<34} {name:<28} {value:>12.5g} {unit}")
    if info["seed"] != 7 or "c" not in info:
        errors.append(f"{where}: seed and c not recorded")


def check_bare_directory(errors: list) -> None:
    """Without src/, the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(RUN.parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", spec.WORKLOADS[0][0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("the benchmark did not fail in a directory without the package source")


def main() -> int:
    errors: list = []
    check_manifest(errors)
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace, errors)
    check_bare_directory(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
