"""Every metric the benchmark prints: name, unit and which direction is
better.  Each per-layer metric also names the end-to-end metric it should
move and the workload where it does; BENCHMARK.json lists the same names
and units (a self-test checks that they agree).
"""

from workloads import ALGORITHMS

END_TO_END = (
    [("setup_s", "s", "lower")]
    + [(f"fit_s.{a}", "s", "lower") for a in ALGORITHMS]
    + [(f"query_ms.{a}", "ms", "lower") for a in ALGORITHMS]
    + [(f"rel_error.{a}", "1", "lower") for a in ALGORITHMS]
)

# name, unit, better, (span, statistic, scope), moves, on
# statistic: "s" inclusive seconds, "self_s", "calls", or an extra key
# ("mb", "iters", ...) summed; scope: op kind the spans must belong to.
LAYER_METRICS = (
    ("data.read_dataset.s", "s", "lower", ("data.read_dataset", "s", "setup"), "setup_s", "wide-state"),
    ("data.read_dataset.mb", "MB", "lower", ("data.read_dataset", "mb", "setup"), "setup_s", "wide-state"),
    ("pipeline.resolve_rank.s", "s", "lower", ("pipeline.resolve_rank", "s", "fit"), "fit_s.*", "wide-state"),
    ("pipeline.fit_surrogate.self_s", "s", "lower", ("pipeline.fit_surrogate", "self_s", "fit"), "fit_s.*", "wide-state"),
    ("pipeline.train_error.s", "s", "lower", None, "fit_s.mono, fit_s.part", "bagged-noisy"),
    ("pipeline.train_error.calls", "count", "lower", None, "fit_s.mono, fit_s.part", "bagged-noisy"),
    ("linalg.truncated_svd.s", "s", "lower", ("linalg.truncated_svd", "s", "fit"), "fit_s.*", "wide-state"),
    ("linalg.truncated_svd.calls", "count", "lower", ("linalg.truncated_svd", "calls", "fit"), "fit_s.*", "wide-state"),
    ("linalg.truncated_svd.mb", "MB", "lower", ("linalg.truncated_svd", "mb", "fit"), "fit_s.*", "wide-state"),
    ("linalg.eig.calls", "count", "lower", ("linalg.eig", "calls", "fit"), "fit_s.*", "wide-state"),
    ("reduction.stack_snapshots.calls", "count", "lower", ("reduction.stack_snapshots", "calls", "fit"), "fit_s.*", "wide-state"),
    ("reduction.stack_snapshots.mb", "MB", "lower", ("reduction.stack_snapshots", "mb", "fit"), "fit_s.*", "wide-state"),
    ("reduction.fit_global_basis.self_s", "s", "lower", ("reduction.fit_global_basis", "self_s", "fit"), "fit_s.*", "wide-state"),
    ("reduction.project.s", "s", "lower", ("reduction.project", "s", "fit"), "fit_s.*", "wide-state"),
    ("reduction.lift.s", "s", "lower", ("reduction.lift", "s", "query"), "query_ms.roi, query_ms.rkoi", "wide-state"),
    ("reduction.lift.calls", "count", "lower", ("reduction.lift", "calls", "query"), "query_ms.roi, query_ms.rkoi", "wide-state"),
    ("dmd.fit_dmd.calls", "count", "lower", ("dmd.fit_dmd", "calls", "fit"), "fit_s.roi, fit_s.part", "bagged-noisy"),
    ("dmd.fit_dmd.s", "s", "lower", ("dmd.fit_dmd", "s", "fit"), "fit_s.roi, fit_s.part", "bagged-noisy"),
    ("dmd.reconstruct.s", "s", "lower", ("dmd.reconstruct", "s", "fit"), "fit_s.roi, fit_s.part", "bagged-noisy"),
    ("dmd.advance.calls", "count", "lower", ("dmd.advance", "calls", "query"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("dmd.advance.s", "s", "lower", ("dmd.advance", "s", "query"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("optdmd.fit_optdmd.calls", "count", "lower", ("optdmd.fit_optdmd", "calls", "fit"), "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.fit_optdmd.s", "s", "lower", ("optdmd.fit_optdmd", "s", "fit"), "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.fit_optdmd.iters", "count", "lower", ("optdmd.fit_optdmd", "iters", "fit"), "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.fit_optdmd.converged_frac", "1", "higher", None, "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.fit_optdmd.objective_median", "1", "lower", None, "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.fit_bopdmd.s", "s", "lower", ("optdmd.fit_bopdmd", "s", "fit"), "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("optdmd.condense_ensemble.s", "s", "lower", ("optdmd.condense_ensemble", "s", "fit"), "fit_s.rkoi, rel_error.rkoi", "bagged-noisy"),
    ("rkoi.fit_rkoi.self_s", "s", "lower", ("rkoi.fit_rkoi", "self_s", "fit"), "fit_s.rkoi", "bagged-noisy"),
    ("rkoi.fit_rkoi.notes", "count", "lower", ("rkoi.fit_rkoi", "notes", "fit"), "fit_s.rkoi", "bagged-noisy"),
    ("rkoi.predict_rkoi.self_s", "s", "lower", ("rkoi.predict_rkoi", "self_s", "query"), "query_ms.rkoi", "bagged-noisy"),
    ("roi.fit_roi.self_s", "s", "lower", ("roi.fit_roi", "self_s", "fit"), "fit_s.roi", "bagged-noisy"),
    ("roi.synthesize_operator.s", "s", "lower", ("roi.synthesize_operator", "s", "query"), "query_ms.roi", "bagged-noisy"),
    ("roi.predict_roi.self_s", "s", "lower", ("roi.predict_roi", "self_s", "query"), "query_ms.roi", "bagged-noisy"),
    ("latent.fit_monolithic.s", "s", "lower", ("latent.fit_monolithic", "s", "fit"), "fit_s.mono", "bagged-noisy"),
    ("latent.fit_partitioned.s", "s", "lower", ("latent.fit_partitioned", "s", "fit"), "fit_s.part", "bagged-noisy"),
    ("latent.predict_latent.self_s", "s", "lower", ("latent.predict_latent", "self_s", "query"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("regression.fit.calls", "count", "lower", ("regression.fit", "calls", "all"), "query_ms.mono, query_ms.part, fit_s.rkoi", "bagged-noisy"),
    ("regression.fit.s", "s", "lower", ("regression.fit", "s", "all"), "query_ms.mono, query_ms.part, fit_s.rkoi", "bagged-noisy"),
    ("regression.fit.online_calls", "count", "lower", ("regression.fit", "calls", "query"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("regression.predict.calls", "count", "lower", ("regression.predict", "calls", "all"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("regression.predict.s", "s", "lower", ("regression.predict", "s", "all"), "query_ms.mono, query_ms.part", "bagged-noisy"),
    ("archive.save_model.s", "s", "lower", ("archive.save_model", "s", "fit"), "fit_s.*", "wide-state"),
    ("archive.load_model.s", "s", "lower", ("archive.load_model", "s", "fit"), "fit_s.*", "wide-state"),
    ("archive.bytes", "bytes", "lower", ("archive.save_model", "bytes", "fit"), "fit_s.*", "wide-state"),
    ("bench.peak_rss_mb", "MB", "lower", None, "setup_s", "all"),
    ("bench.import_s", "s", "lower", None, "setup_s", "all"),
    ("bench.trace_overhead_frac", "1", "lower", None, "none", "all"),
)
