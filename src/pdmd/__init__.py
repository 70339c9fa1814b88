"""Dynamic mode decomposition with parametric surrogate strategies.

Every name loads on first use (PEP 562): ``import pdmd`` imports no
submodule, NumPy or SciPy, and ``pdmd.read_dataset`` loads ``pdmd.data``
and ``pdmd.errors`` only.  ``from pdmd import X`` works for each name in
``__all__``, and ``pdmd.<submodule>`` for each submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# every submodule and the names it exports: the one list of the API
_EXPORTS = {
    "algorithms": (),
    "archive": ("ModelArchive", "load_model", "save_model"),
    "bench": ("BenchmarkSuite", "Scenario", "ScenarioResult", "default_suite",
              "parse_suite", "run_suite"),
    "cli": (),
    "data": ("ParametricDataset", "SnapshotMatrix", "TimeGrid", "read_dataset",
             "split_train_test", "write_dataset"),
    "dmd": ("DmdModel", "fit_dmd", "reconstruct"),
    "errors": ("ConvergenceWarning", "DataError", "ExtrapolationWarning",
               "IllConditionedWarning", "ImaginaryResidualWarning", "NumericalError",
               "PdmdError", "PdmdWarning", "RankDeficientError"),
    "latent": ("MonolithicModel", "PartitionedModel", "fit_monolithic",
               "fit_partitioned", "predict_latent"),
    "linalg": (),
    "metrics": ("EvalReport", "frobenius_rel_error", "report_from_line",
                "report_to_line", "rmse", "time_rel_error"),
    "optdmd": ("BaggedOptDmd", "OptDmdModel", "condense_ensemble", "fit_bopdmd",
               "fit_optdmd", "mean_omegas", "predict_optdmd"),
    "options": (),
    "pipeline": ("FitOptions", "FittedSurrogate", "evaluate_model", "fit_surrogate",
                 "predict_surrogate"),
    "reduction": ("GlobalBasis", "LatentDataset", "fit_global_basis", "lift", "project"),
    "regression": ("RegressorSpec",),
    "rkoi": ("RkoiModel", "fit_rkoi", "predict_rkoi"),
    "roi": ("RoiModel", "fit_roi", "predict_roi", "synthesize_operator"),
    "synth": ("ExpMode", "OracleHandle", "SynthSpec", "generate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # not cached in the package: pdmd.X is always the submodule's current X
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
