"""What the benchmark measures: workloads, truncations, metrics, layer map.

This file is the single source of the benchmark's contract.  ``BENCHMARK.json``
at the repository root is generated from it (``python3 perfbench/run.py --all``
rewrites it) and ``python3 perfbench/selftest.py`` fails when the two differ.
"""

from __future__ import annotations

from fractions import Fraction

RUN_SECONDS = 30

# Numeric spot values of c for catalog-numeric: denominator 7 keeps every
# choice at the same coefficient size, and none is a pole (c = 1, c = -1/2)
# or c = 0, where the printed-entry witness value vanishes.
NUMERIC_C = tuple(Fraction(a, 7) for a in range(-6, 7) if a)

# Truncations per workload.  "full" is what the benchmark measures; "tiny"
# is the self-test scale.  The 1212 moment variant first fails at x^6 g^6,
# so its witness is only pinned where the curve check reaches that slot.
TRUNCATIONS = {
    "dense-symbolic": {
        "full": {
            "ng": 6, "ltarget": 4,            # dense region |w| + n <= 10
            "residual_grade": 10,
            "curve_nx": 6, "curve_ng": 6, "w1212_slot": (6, 6),
            "oracle_potts": (4, 2),           # (max word length, max g order)
            "oracle_pure": (6, 2),
            "pure_gravity": (8, 8),           # (ng, x order)
            "ncseries": (4, 3),               # (word length compared, g order)
            "sample": 40,
        },
        "tiny": {
            "ng": 3, "ltarget": 4,
            "residual_grade": 6,
            "curve_nx": 3, "curve_ng": 3, "w1212_slot": None,
            "oracle_potts": (3, 1),
            "oracle_pure": (4, 1),
            "pure_gravity": (3, 3),
            "ncseries": (2, 1),
            "sample": 5,
        },
    },
    "catalog-symbolic": {
        "full": {"nx": 5, "ng": 5, "max_len": 18, "sd": True, "sample": 24},
        "tiny": {"nx": 2, "ng": 2, "max_len": 12, "sd": True, "sample": 5},
    },
    "catalog-numeric": {
        "full": {"nx": 5, "ng": 5, "max_len": 18, "sd": False, "sample": 24},
        "tiny": {"nx": 2, "ng": 2, "max_len": 12, "sd": False, "sample": 5},
    },
}

WORKLOADS = (
    ("dense-symbolic",
     "Dense solve, generating residual, quintic curve, oracle and pure-gravity checks at symbolic c;"
     " no lazy table is built, so a lazy-solver change should not move it."),
    ("catalog-symbolic",
     "One demand-driven LazyTable at symbolic c feeds the loop catalog, recast residual and SD"
     " identities; the dense solver, curve and oracle are unused."),
    ("catalog-numeric",
     "The same catalog and recast checks on a Fraction LazyTable at a seeded rational c, so a gain"
     " for one coefficient domain that costs the other shows."),
)

# (name, unit, better, bound): measured with tracing off.
END_TO_END = (
    ("verify_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("checks_ok_ratio", "ratio", "higher", 0.01),
)

_DENSE = "verify_s on dense-symbolic"
_CATALOG = "verify_s on catalog-symbolic and catalog-numeric"
_LINES = "no timing metric; the record for simplicity changes"

# (name, unit, better, the end-to-end metric it should move): traced run.
PER_LAYER = (
    ("solver.dense_s", "s", "lower", _DENSE),
    ("solver.residual_s", "s", "lower", _DENSE),
    ("solver.pure_gravity_s", "s", "lower", _DENSE),
    ("solver.dense_slots", "count", "lower", "peak_rss_mib and verify_s on dense-symbolic"),
    ("solver.max_digit_bits", "bits", "lower", "peak_rss_mib and verify_s on dense-symbolic"),
    ("solver.lazy_s", "s", "lower", _CATALOG),
    ("solver.recast_rect_s", "s", "lower", _CATALOG),
    ("solver.lazy_memo", "count", "lower", "verify_s and peak_rss_mib on catalog-symbolic and catalog-numeric"),
    ("loopcat.check_loops_s", "s", "lower", _CATALOG),
    ("loopcat.check_sd_s", "s", "lower", "verify_s on catalog-symbolic"),
    ("loopcat.failed", "count", "lower", _CATALOG),
    ("curve.check_curve_s", "s", "lower", _DENSE),
    ("curve.shifted_resolvent_s", "s", "lower", _DENSE),
    ("curve.quintic_residual_s", "s", "lower", _DENSE),
    ("oracle.compare_s", "s", "lower", _DENSE),
    ("oracle.coeffs_checked", "count", "higher", _DENSE),
    ("oracle.mismatches", "count", "lower", _DENSE),
    ("freealg.ncseries_rhs_s", "s", "lower", _DENSE),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none; traced minus untraced verify_s of the same run"),
) + tuple(
    (f"{module}.lines", "lines", "lower", _LINES)
    for module in ("ring", "freealg", "solver", "loopcat", "curve", "oracle", "cli")
)

# Span name -> per-layer time metric credited with the span's self time.
# A catalog call that fills a lazy table is re-run warm; its excess over the
# warm run goes to solver.lazy_s and the rest stays with the loopcat metric.
SPAN_METRIC = {
    "solver.solve_series": "solver.dense_s",
    "solver.generating_residual": "solver.residual_s",
    "solver.solve_pure_gravity": "solver.pure_gravity_s",
    "solver.recast_residual_rect": "solver.recast_rect_s",
    "loopcat.check_loops": "loopcat.check_loops_s",
    "loopcat.check_sd": "loopcat.check_sd_s",
    "curve.check_curve": "curve.check_curve_s",
    "curve.build_shifted_resolvent": "curve.shifted_resolvent_s",
    "curve.quintic_residual": "curve.quintic_residual_s",
    "oracle.compare_with_solver": "oracle.compare_s",
    "freealg.ncseries_rhs": "freealg.ncseries_rhs_s",
}


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
