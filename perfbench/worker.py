"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--tiny] [--setup-only]

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports ``pottsloop.cli``, builds the workload's inputs from the
seed, runs the workload's steps through the package's public functions,
checks every verdict against its expected value and prints one JSON line.
With ``--setup-only`` it stops after building the inputs and prints the CPU
times of ``SETUP_SAMPLES`` reference samples (``run.py`` turns the process's
CPU time into ``setup_s``).  ``verify_s`` is the CPU time of the main thread over
the workload, in reference seconds (``perfbench/speed.py``).  With
``--trace`` it records one span per call into the package and the per-layer
counters; the time spent on warm re-runs and counter scans is kept out of
``verify_s``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

import spec
from speed import Speedometer, host_factor, time_reference

SETUP_SAMPLES = 40  # reference samples a set-up process takes when it is done
_DIGIT_MASK = (1 << 64) - 1
_S3 = ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))


class Span:
    __slots__ = ("name", "start", "end", "parent", "lazy_fill", "excluded")

    def __init__(self, name, start, parent, excluded=False):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.lazy_fill = 0.0  # part of the span spent filling a lazy table
        self.excluded = excluded

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool, cpu_clock):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.cpu_clock = cpu_clock
        self.excluded_cpu_s = 0.0  # CPU time of excluded spans, by cpu_clock
        self._open: list[int] = []

    def span(self, name: str, excluded: bool = False):
        return self._span(name, excluded) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name, excluded):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent, excluded)
        cpu0 = self.cpu_clock()
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if excluded:
                self.excluded_cpu_s += self.cpu_clock() - cpu0

    def warm_rerun(self, cold: Span | None, fn, *args, **kwargs) -> None:
        """Repeat a call on a now-filled lazy table, outside the verify time.

        The cold call's excess over the warm one is the lazy fill it paid.
        """
        if not self.enabled:
            return
        with self.span(cold.name + ".warm", excluded=True) as warm:
            fn(*args, **kwargs)
        cold.lazy_fill = max(cold.duration - warm.duration, 0.0)

    def wrap(self, module, attr: str) -> None:
        """Record a span around every call of ``module.attr``."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)

    def records(self) -> list:
        self_s = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                self_s[s.parent] -= s.duration
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": self_s[i], "lazy_fill_s": s.lazy_fill, "excluded": s.excluded}
            for i, s in enumerate(self.spans)
        ]


class Verdicts:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int, scale: str) -> dict:
    """Truncations are fixed per workload; the seed picks c and sampled slots."""
    from pottsloop.freealg import Word

    trunc = dict(spec.TRUNCATIONS[workload][scale])
    rng = random.Random(f"{workload}:{seed}")
    c = rng.choice(spec.NUMERIC_C) if workload == "catalog-numeric" else "symbolic"
    if workload == "dense-symbolic":
        max_n, region = trunc["ng"], trunc["ng"] + trunc["ltarget"]
    else:
        # keep the sampled slots shallow so they add little to the lazy fill
        max_n, region = min(3, trunc["ng"]), trunc["max_len"]
    sample = []
    while len(sample) < trunc["sample"]:
        k = rng.randrange(1, 7)
        n = rng.randrange(0, max_n + 1)
        if k + n <= region:
            sample.append((Word(rng.randrange(3) for _ in range(k)), n))
    return {"c": c, "trunc": trunc, "sample": sample}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _symmetry_sample(table, sample, v: Verdicts) -> None:
    """Sampled slots are cyclic, reversal and S3 invariant, odd slots vanish."""
    for word, n in sample:
        ref = table.value_word(word, n)
        if (len(word) + n) % 2:
            v.expect(f"parity zero at {word} g^{n}", not ref, ref)
            continue
        images = [*word.rotations(), word.reverse(), *(word.relabel(p) for p in _S3)]
        bad = [str(w) for w in images if table.value_word(w, n) != ref]
        v.expect(f"symmetry of {word} g^{n}", not bad, bad)


def _oracle_count(max_len: int, max_n: int, nletters: int) -> int:
    """Coefficients compare_with_solver must check: words times parity-allowed orders."""
    return sum(nletters**k for k in range(max_len + 1) for n in range(max_n + 1) if (k + n) % 2 == 0)


def run_dense_symbolic(inp, tr: Tracer, v: Verdicts, layer: dict):
    from pottsloop.curve import check_curve, check_recurrences, compute_moments
    from pottsloop.freealg import all_words
    from pottsloop.oracle import compare_with_solver
    from pottsloop.solver import (
        ModelSpec,
        build_rhs_potts,
        generating_residual,
        solve_pure_gravity,
        solve_series,
    )

    t = inp["trunc"]
    ng = t["ng"]
    with tr.span("solver.solve_series"):
        table = solve_series(ModelSpec(kind="potts3", c="symbolic", ng=ng, ltarget=t["ltarget"]))

    with tr.span("solver.generating_residual"):
        rep = generating_residual(table, grade=t["residual_grade"])
    v.expect("generating residual, fixed-point form", not rep.fixed_point, rep.fixed_point[:1])
    v.expect("generating residual, recast form", not rep.recast, rep.recast[:1])

    with tr.span("curve.check_curve"):
        checks = {c.variant: c for c in check_curve(table, t["curve_nx"], t["curve_ng"], ("1202", "1212"))}
    v.expect("quintic residual, variant 1202", checks["1202"].passed, checks["1202"].line())
    fz = checks["1212"].first_nonzero
    slot = tuple(fz[:2]) if fz else None
    v.expect("quintic residual, variant 1212 witness", slot == t["w1212_slot"], checks["1212"].line())

    with tr.span("curve.compute_moments"):
        moments = compute_moments(table, ng)
    with tr.span("curve.check_recurrences"):
        recurrences = check_recurrences(moments)
    for r in recurrences:
        v.expect(f"recurrence {r.name}", r.passed, r.line())

    checked = mismatches = 0
    for kind, nlet, (max_len, max_n) in (("potts3", 3, t["oracle_potts"]), ("pure-gravity", 1, t["oracle_pure"])):
        if kind == "potts3":
            ref = table
        else:
            with tr.span("solver.solve_series"):
                ref = solve_series(ModelSpec(kind=kind, ng=max_n, ltarget=max_len))
        with tr.span("oracle.compare_with_solver"):
            cmp = compare_with_solver(ref, max_n, max_len)
        want_checked = _oracle_count(max_len, max_n, nlet)
        v.expect(f"oracle compare ({kind})", cmp.ok, cmp.mismatches[:1])
        v.expect(f"oracle coefficients checked ({kind})", cmp.checked == want_checked, (cmp.checked, want_checked))
        checked += cmp.checked
        mismatches += len(cmp.mismatches)
    layer["oracle.coeffs_checked"] = checked
    layer["oracle.mismatches"] = mismatches

    pg_ng, pg_lx = t["pure_gravity"]
    with tr.span("solver.solve_pure_gravity"):
        pg = solve_pure_gravity(pg_ng, pg_lx, check_variant=True)
    v.expect("pure gravity closed-form branch", (pg.branch - pg.phi).is_zero())
    mism = pg.variant_first_mismatch
    v.expect("pure gravity rejected variant witness at (|w|=0, g^1)",
             mism is not None and mism[:2] == (0, 1), mism)

    lmax, nc_ng = t["ncseries"]
    with tr.span("freealg.ncseries_rhs"):
        rhs = build_rhs_potts(table.to_ncseries(lmax + 1, nc_ng))
        target = table.to_ncseries(lmax, nc_ng)
        bad = [str(w) for k in range(lmax + 1) for w in all_words(k) if rhs.coefficient(w) != target.coefficient(w)]
    v.expect("NCSeries referee: one rhs application reproduces the table", not bad, bad[:3])

    with tr.span("bench.symmetry_sample"):
        _symmetry_sample(table, inp["sample"], v)
    return {"dense": table}


def run_catalog(inp, tr: Tracer, v: Verdicts, layer: dict):
    from pottsloop.loopcat import check_loops, check_sd
    from pottsloop.ring import Poly
    from pottsloop.solver import LazyTable, ModelSpec, recast_residual_rect

    t = inp["trunc"]
    nx, ng, c = t["nx"], t["ng"], inp["c"]
    lazy = LazyTable(ModelSpec(kind="potts3", c=c, ng=ng, ltarget=11), max_len=t["max_len"])

    with tr.span("loopcat.check_loops") as cold:
        loops = check_loops(lazy, nx, ng)
    tr.warm_rerun(cold, check_loops, lazy, nx, ng)
    for r in loops:
        v.expect(f"catalog entry {r.index}", r.passed, r.line())
    failed = sum(not r.passed for r in loops)

    with tr.span("solver.recast_residual_rect"):
        recast = recast_residual_rect(lazy, nx, ng)
    v.expect("catalog entry 24 (recast generating equation)", not recast, recast[:1])

    if t["sd"]:
        with tr.span("loopcat.check_sd") as cold:
            sd = check_sd(lazy, nx, ng)
        tr.warm_rerun(cold, check_sd, lazy, nx, ng)
        for r in sd:
            v.expect(f"reparameterisation {r.index}", r.passed, r.line())
        failed += sum(not r.passed for r in sd)

    # the printed transcription of entries 20 and 21 must fail at x g
    witness = Poly((0, 0, -2, -4, 8, -2))
    with tr.span("loopcat.check_loops"):
        printed = check_loops(lazy, nx, ng, variant="printed")
    for r in printed:
        if r.index in (20, 21):
            fz = r.first_nonzero
            want = str(witness) if c == "symbolic" else witness.evaluate(c)
            got = None if fz is None else (fz[2] if c == "symbolic" else Fraction(fz[2]))
            v.expect(f"printed entry {r.index} witness at x g",
                     fz is not None and fz[:2] == (1, 1) and got == want, r.line())
        else:
            v.expect(f"printed entry {r.index}", r.passed, r.line())
    layer["loopcat.failed"] = failed
    layer["solver.lazy_memo"] = len(lazy._memo)

    with tr.span("bench.symmetry_sample"):
        _symmetry_sample(lazy, inp["sample"], v)
    return {"lazy": lazy}


WORKLOAD_FN = {
    "dense-symbolic": run_dense_symbolic,
    "catalog-symbolic": run_catalog,
    "catalog-numeric": run_catalog,
}


# ---------------------------------------------------------------------------
# counters read off the finished tables
# ---------------------------------------------------------------------------


def _max_digit_bits(values) -> int:
    """Largest packed base-2**64 digit, in bits (the guard sits at 62)."""
    best = 0
    for v in values:
        while v:
            best = max(best, (v & _DIGIT_MASK).bit_length())
            v >>= 64
    return best


def table_counters(tables: dict) -> dict:
    out = {"solver.dense_slots": 0, "solver.max_digit_bits": 0}
    dense, lazy = tables.get("dense"), tables.get("lazy")
    if dense is not None:
        out["solver.dense_slots"] = sum(len(d) for d in dense.layers.values())
        out["solver.max_digit_bits"] = _max_digit_bits(v for d in dense.layers.values() for v in d.values())
    if lazy is not None and lazy.symbolic:
        out["solver.max_digit_bits"] = _max_digit_bits(lazy._memo.values())
    return out


def layer_times(records: list) -> dict:
    """Per-layer time metrics: summed self time of the spans of each layer."""
    out = {name: 0.0 for name in set(spec.SPAN_METRIC.values()) | {"solver.lazy_s"}}
    for r in records:
        metric = spec.SPAN_METRIC.get(r["name"])
        if r["excluded"] or metric is None:
            continue
        out[metric] += r["self_s"] - r["lazy_fill_s"]
        out["solver.lazy_s"] += r["lazy_fill_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(spec.TRUNCATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import pottsloop.cli  # noqa: F401  (the import every CLI command pays)

    import_s = time.perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(pottsloop.cli.__file__).resolve().parents:
        raise SystemExit(f"pottsloop was imported from {pottsloop.cli.__file__}, not from {src}")
    inputs = build_inputs(args.workload, args.seed, "tiny" if args.tiny else "full")
    if args.setup_only:
        print(json.dumps({"ref_samples": [time_reference() for _ in range(SETUP_SAMPLES)]}))
        return 0

    speed = Speedometer()
    tracer = Tracer(args.trace, speed.work_cpu)
    if args.trace:
        import pottsloop.curve

        tracer.wrap(pottsloop.curve, "build_shifted_resolvent")
        tracer.wrap(pottsloop.curve, "quintic_residual")
    verdicts = Verdicts()
    layer = dict.fromkeys(("oracle.coeffs_checked", "oracle.mismatches", "loopcat.failed", "solver.lazy_memo"), 0)
    with speed:
        cpu0 = speed.work_cpu()
        tables = WORKLOAD_FN[args.workload](inputs, tracer, verdicts, layer)
        verify_cpu_s = speed.work_cpu() - cpu0 - tracer.excluded_cpu_s
    factor = host_factor(speed.samples)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "c": str(inputs["c"]),
        "verify_s": verify_cpu_s * factor,
        "verify_cpu_s": verify_cpu_s,
        "host_factor": factor,
        "peak_rss_mib": peak_rss_mib,
        "attempted": verdicts.attempted,
        "failures": verdicts.failures,
    }
    if args.trace:
        records = tracer.records()
        layer.update(table_counters(tables))
        layer.update(layer_times(records))
        layer["cli.import_s"] = import_s
        out["layer"] = layer
        out["spans"] = records
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
