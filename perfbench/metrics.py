"""Metric definitions and their computation from child results and reports.

END_TO_END metrics come from untraced runs only; PER_LAYER metrics from
the traced run.  Each per-layer metric names the end-to-end metric and
workload it should move ("none" marks a workload on which the prediction
is no change).

The host's speed wanders by tens of percent over seconds to minutes, so
wall and CPU time are reported in units of a reference run ("ref"): each
scenario execution is divided by the mean of the fixed reference runs
(child.reference) just before and after it.  The raw seconds are printed
beside them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

# name: (unit, better, regression bound)
END_TO_END = {
    "wall_ref": ("ref", "lower", 0.2),
    "cpu_ref": ("ref", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_NF = "wall_ref, cpu_ref on nf-quadratic and nf-rational; none on small-denominators"
_SCALAR = "wall_ref on nf-quadratic and the exact (diophantine) half of small-denominators; nf-rational only via Fraction"
_NORMALFORM = "wall_ref on nf-quadratic (and nf-rational); none on small-denominators"
_DIOPH = "wall_ref, cpu_ref, peak_rss_mb on small-denominators; none on nf-*"
_LIE = "wall_ref on small-denominators (regression guard only)"
_CLI = "wall_ref on nf-rational, and setup_s"

# name: (unit, better, what it should move)
PER_LAYER = {
    "series.bracket_calls": ("count", "lower", _NF),
    "series.bracket_pairs": ("count", "lower", _NF),
    "series.bracket_terms_out": ("count", "lower", _NF),
    "series.bracket_s": ("s", "lower", _NF),
    "series.product_pairs": ("count", "lower", _NF),
    "series.product_s": ("s", "lower", _NF),
    "series.flow_apply_calls": ("count", "lower", _NF),
    "series.flow_apply_self_s": ("s", "lower", _NF),
    "series.dropped_terms": ("count", "lower", _NF),
    "series.drops_per_pair": ("ratio", "lower", _NF),
    "series.to_json_s": ("s", "lower", _NF),
    "scalar.quad_ops": ("count", "lower", _SCALAR),
    "scalar.quad_s": ("s", "lower", _SCALAR),
    "scalar.max_coeff_bits": ("bits", "lower", _SCALAR),
    "scalar.muladd_us": ("us", "lower", _SCALAR),
    "normalform.calls": ("count", "lower", _NORMALFORM),
    "normalform.self_s": ("s", "lower", _NORMALFORM),
    "normalform.homological_solve_calls": ("count", "lower", _NORMALFORM),
    "normalform.homological_solve_s": ("s", "lower", _NORMALFORM),
    "normalform.generators": ("count", "lower", _NORMALFORM),
    "normalform.t_orders": ("count", "lower", _NORMALFORM),
    "normalform.resonances_s": ("s", "lower", _NORMALFORM),
    "diophantine.kolmogorov_constant_s": ("s", "lower", _DIOPH),
    "diophantine.dot_calls": ("count", "lower", _DIOPH),
    "diophantine.measure_s": ("s", "lower", _DIOPH),
    "diophantine.measure_samples_per_s": ("1/s", "higher", _DIOPH),
    "diophantine.measure_flops_computed": ("flop", "lower", _DIOPH),
    "diophantine.exact_rechecks": ("count", "lower", _DIOPH),
    "diophantine.hadamard_s": ("s", "lower", _DIOPH),
    "diophantine.liouville_s": ("s", "lower", _DIOPH),
    "lie.s": ("s", "lower", _LIE),
    "lie.steps": ("count", "lower", _LIE),
    "lie.matrix_exp_calls": ("count", "lower", _LIE),
    "cli.validate_s": ("s", "lower", _CLI),
    "cli.self_s": ("s", "lower", _CLI),
    "cli.report_bytes": ("bytes", "lower", _CLI),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing itself"),
}

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "series.bracket_pairs",
    "series.product_pairs",
    "series.bracket_terms_out",
    "scalar.quad_ops",
    "diophantine.dot_calls",
    "series.dropped_terms",
    "cli.report_bytes",
    "scalar.max_coeff_bits",
    "normalform.generators",
    "diophantine.exact_rechecks",
)


def _bits(literal) -> int:
    parts = literal[:2] if isinstance(literal, list) else [literal]
    out = 0
    for p in parts:
        f = Fraction(str(p))
        out = max(out, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return out


def report_literals(report) -> list:
    """(context json, literal) of every series coefficient and translation
    shift in a report's results."""
    ctx = report.get("scenario", {}).get("context")
    out = []

    def walk(obj):
        if isinstance(obj, dict):
            if "terms" in obj and "context" in obj:
                out.extend((obj["context"], t[3]) for t in obj["terms"])
            elif obj.get("kind") == "translation":
                out.extend((ctx, x) for x in obj["d"])
            else:
                for v in obj.values():
                    walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(report.get("results", {}))
    return out


def report_counters(reports: dict, report_bytes: int) -> dict:
    """Counters read from the reports themselves: {name: (scenario, report)}."""
    out = dict.fromkeys(
        ("series.dropped_terms", "scalar.max_coeff_bits", "normalform.generators",
         "normalform.t_orders", "diophantine.exact_rechecks", "lie.steps"), 0)
    out["cli.report_bytes"] = report_bytes
    for scen, rep in reports.values():
        res = rep.get("results", {})
        out["series.dropped_terms"] += rep.get("diagnostics", {}).get("dropped_terms", 0)
        for _, x in report_literals(rep):
            out["scalar.max_coeff_bits"] = max(out["scalar.max_coeff_bits"], _bits(x))
        if scen["kind"] in ("formal-nf", "kolmogorov-nf"):
            out["normalform.generators"] += len(res["generators"])
            out["normalform.t_orders"] += len(res["per_order"])
        elif scen["kind"] == "measure":
            out["diophantine.exact_rechecks"] += sum(r["exact_rechecks"] for r in res["per_C"])
        elif scen["kind"].startswith("lie-"):
            out["lie.steps"] += res["steps"]
    return out


def per_layer(trace: dict, counted: dict, muladd_us, overhead_frac: float) -> dict:
    """All PER_LAYER values from one traced pass."""
    calls, incl, selft = trace["calls"], trace["incl_s"], trace["self_s"]
    group, ctr = trace["group_incl_s"], trace["counters"]

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def layer_self(layer):
        return sum(v for k, v in selft.items() if k.split(".")[0] == layer)

    pairs = ctr.get("series.bracket_pairs", 0) + ctr.get("series.product_pairs", 0)
    measure_s = t("diophantine.measure_estimate")
    samples = ctr.get("diophantine.measure_samples", 0)
    out = {
        "series.bracket_calls": c("series.poisson_bracket"),
        "series.bracket_pairs": ctr.get("series.bracket_pairs", 0),
        "series.bracket_terms_out": ctr.get("series.bracket_terms_out", 0),
        "series.bracket_s": t("series.poisson_bracket"),
        "series.product_pairs": ctr.get("series.product_pairs", 0),
        "series.product_s": t("series.PoissonSeries.__mul__"),
        "series.flow_apply_calls": c("series.flow_apply"),
        "series.flow_apply_self_s": selft.get("series.flow_apply", 0.0),
        "series.dropped_terms": counted["series.dropped_terms"],
        "series.drops_per_pair": counted["series.dropped_terms"] / pairs if pairs else 0.0,
        "series.to_json_s": t("series.PoissonSeries.to_json"),
        "scalar.quad_ops": sum(v for k, v in calls.items() if k.startswith("scalar.QuadScalar.")),
        "scalar.quad_s": group.get("scalar.quad", 0.0),
        "scalar.max_coeff_bits": counted["scalar.max_coeff_bits"],
        "scalar.muladd_us": muladd_us if muladd_us is not None else 0.0,
        "normalform.calls": c("normalform.formal_normal_form") + c("normalform.kolmogorov_normal_form"),
        "normalform.self_s": layer_self("normalform"),
        "normalform.homological_solve_calls": c("normalform.homological_solve"),
        "normalform.homological_solve_s": t("normalform.homological_solve"),
        "normalform.generators": counted["normalform.generators"],
        "normalform.t_orders": counted["normalform.t_orders"],
        "normalform.resonances_s": t("normalform.resonances"),
        "diophantine.kolmogorov_constant_s": t("diophantine.kolmogorov_constant"),
        "diophantine.dot_calls": c("diophantine.FrequencyVector.dot"),
        "diophantine.measure_s": measure_s,
        "diophantine.measure_samples_per_s": samples / measure_s if measure_s else 0.0,
        "diophantine.measure_flops_computed": ctr.get("diophantine.measure_flops_computed", 0),
        "diophantine.exact_rechecks": counted["diophantine.exact_rechecks"],
        "diophantine.hadamard_s": sum(
            t(f"diophantine.{f}") for f in ("small_denominator_series", "hadamard_apply", "decay_fit")
        ),
        "diophantine.liouville_s": t("diophantine.liouville_witness"),
        "lie.s": group.get("lie", 0.0),
        "lie.steps": counted["lie.steps"],
        "lie.matrix_exp_calls": c("lie.matrix_exp"),
        "cli.validate_s": t("cli.validate_scenario"),
        "cli.self_s": layer_self("cli"),
        "cli.report_bytes": counted["cli.report_bytes"],
        "trace.overhead_frac": overhead_frac,
    }
    assert out.keys() == PER_LAYER.keys()
    return out


def ref_ratios(records, refs) -> dict:
    """{scenario: ([wall ratio, ...], [cpu ratio, ...])}, each execution
    divided by the mean of the reference runs around it."""
    out = {}
    for (name, wall, cpu, _rc, _same), (w0, c0), (w1, c1) in zip(records, refs, refs[1:]):
        walls, cpus = out.setdefault(name, ([], []))
        walls.append(2 * wall / (w0 + w1))
        cpus.append(2 * cpu / (c0 + c1))
    return out


def end_to_end(records, refs, setup_samples, peak_rss_mb) -> dict:
    """Per-scenario medians over the closed-loop run, summed over the set."""
    ratios = ref_ratios(records, refs)
    return {
        "wall_ref": sum(statistics.median(w) for w, _ in ratios.values()),
        "cpu_ref": sum(statistics.median(c) for _, c in ratios.values()),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def raw_seconds(records, refs) -> dict:
    """The same sums in seconds, and the reference run itself, for reading."""
    walls, cpus = {}, {}
    for name, wall, cpu, _rc, _same in records:
        walls.setdefault(name, []).append(wall)
        cpus.setdefault(name, []).append(cpu)
    return {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "reference_ms": statistics.median(w for w, _ in refs) * 1e3,
    }
