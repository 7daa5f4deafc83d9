"""The benchmark's metrics, with the prediction each per-layer metric makes.

BENCHMARK.json lists the same names, units and directions; this table adds,
for each per-layer metric, which end-to-end metric it should move, on which
workload, and which workload is predicted not to move.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("ref_ops_per_s", "ops/s", "higher", 0.25),
    ("ref_op_p50_ms", "ms", "lower", 0.25),
    ("ref_op_p90_ms", "ms", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

_DP_AND_ENVELOPE = "deep-dp, envelope-mix"
_GLOBAL_AND_FLOAT = "global-lp, float-sweep"

# (name, unit, should move, on, bypassed by)
PER_LAYER = (
    ("arbitrage.global_na.calls_per_op", "calls/op", "ref_ops_per_s, ref_op_p50_ms", _DP_AND_ENVELOPE, _GLOBAL_AND_FLOAT),
    ("arbitrage.global_na.repeat_frac", "ratio", "ref_ops_per_s, ref_op_p50_ms", _DP_AND_ENVELOPE, _GLOBAL_AND_FLOAT),
    ("arbitrage.node_na.calls_per_op", "calls/op", "ref_ops_per_s, ref_op_p50_ms", _DP_AND_ENVELOPE, _GLOBAL_AND_FLOAT),
    ("arbitrage.global_na.ms_per_op", "ms/op", "ref_ops_per_s, ref_op_p50_ms", _DP_AND_ENVELOPE, _GLOBAL_AND_FLOAT),
    ("lp.solve.onestep.calls_per_op", "calls/op", "ref_op_p50_ms", "deep-dp", "global-lp"),
    ("lp.solve.onestep.ms_per_call", "ms/call", "ref_op_p50_ms", "deep-dp", "global-lp"),
    ("lp.solve.global.calls_per_op", "calls/op", "ref_op_p50_ms, ref_op_p90_ms", "global-lp", "deep-dp; float-sweep must not worsen"),
    ("lp.solve.global.ms_per_call", "ms/call", "ref_op_p50_ms, ref_op_p90_ms", "global-lp", "deep-dp; float-sweep must not worsen"),
    ("lp.solve.global.rows_mean", "rows", "ref_op_p50_ms, ref_op_p90_ms", "global-lp", "deep-dp; float-sweep must not worsen"),
    ("lp.solve.global.cols_mean", "cols", "ref_op_p50_ms, ref_op_p90_ms", "global-lp", "deep-dp; float-sweep must not worsen"),
    ("lp.solve.global.nnz_mean", "nnz", "ref_op_p50_ms, ref_op_p90_ms", "global-lp", "deep-dp; float-sweep must not worsen"),
    ("lp.solve.infeasible_frac", "ratio", "ref_op_p90_ms", "envelope-mix", "deep-dp"),
    ("lp.solve.unbounded_frac", "ratio", "ref_op_p90_ms", "envelope-mix", "deep-dp"),
    ("superhedge.check_complete.ms_per_op", "ms/op", "ref_op_p90_ms", "envelope-mix", "deep-dp"),
    ("superhedge.check_replicable.ms_per_op", "ms/op", "ref_op_p90_ms", "envelope-mix", "deep-dp"),
    ("superhedge.price_interval.ms_per_op", "ms/op", "ref_op_p90_ms", "envelope-mix", "deep-dp"),
    ("superhedge.superhedge_semistatic.self_ms_per_op", "ms/op", "ref_op_p50_ms", "global-lp", "deep-dp"),
    ("superhedge.dual_price.ms_per_op", "ms/op", "ref_op_p50_ms", "global-lp", "deep-dp"),
    ("superhedge.superhedge_dynamic.self_ms_per_op", "ms/op", "ref_op_p50_ms", "deep-dp", "global-lp"),
    ("superhedge.node_price.calls_per_op", "calls/op", "ref_op_p50_ms", "deep-dp", "global-lp"),
    ("arbitrage.semistatic_na.ms_per_op", "ms/op", "ref_op_p90_ms", _GLOBAL_AND_FLOAT, "deep-dp"),
    ("arbitrage.find_dominating_mm.ms_per_op", "ms/op", "ref_op_p90_ms", _GLOBAL_AND_FLOAT, "deep-dp"),
    ("arbitrage.martingale_rows.ms_per_op", "ms/op", "ref_op_p90_ms", _GLOBAL_AND_FLOAT, "deep-dp"),
    ("arbitrage.verify_witness.ms_per_op", "ms/op", "ref_op_p90_ms", _GLOBAL_AND_FLOAT, "deep-dp"),
    ("decompose.check_supermartingale.ms_per_op", "ms/op", "ref_op_p50_ms", "deep-dp", "all others"),
    ("decompose.optional_decomposition.self_ms_per_op", "ms/op", "ref_op_p50_ms", "deep-dp", "all others"),
    ("decompose.verify_decomposition.ms_per_op", "ms/op", "ref_op_p50_ms", "deep-dp", "all others"),
    ("model.load_model.ms_per_op", "ms/op", "ref_op_p50_ms", "deep-dp (load), envelope-mix (load and re-checks)", "global-lp"),
    ("model.wealth.calls_per_op", "calls/op", "ref_op_p50_ms", "envelope-mix (re-checks)", "global-lp"),
    ("model.wealth.ms_per_op", "ms/op", "ref_op_p50_ms", "envelope-mix (re-checks)", "global-lp"),
    ("polar.compute_support.ms_per_op", "ms/op", "ref_op_p50_ms", "envelope-mix", "global-lp"),
    ("polar.reference_measure.ms_per_op", "ms/op", "ref_op_p50_ms", "envelope-mix", "global-lp"),
    ("cli.main.self_ms_per_op", "ms/op", "ref_op_p50_ms", "envelope-mix", "deep-dp, global-lp"),
    ("trace.overhead_frac", "ratio", "-", "every workload", "-"),
)


def benchmark_entries() -> tuple[list[dict], list[dict]]:
    """The end_to_end and per_layer lists of BENCHMARK.json."""
    end_to_end = [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    per_layer = [{"name": n, "unit": u, "better": "lower"} for n, u, *_ in PER_LAYER]
    return end_to_end, per_layer
