"""Dynamic mode decomposition with parametric surrogate strategies."""

from pdmd.archive import ModelArchive, load_model, save_model
from pdmd.bench import (
    BenchmarkSuite,
    Scenario,
    ScenarioResult,
    default_suite,
    parse_suite,
    run_suite,
)
from pdmd.data import (
    ParametricDataset,
    SnapshotMatrix,
    TimeGrid,
    read_dataset,
    split_train_test,
    write_dataset,
)
from pdmd.dmd import DmdModel, fit_dmd, reconstruct
from pdmd.errors import (
    ConvergenceWarning,
    DataError,
    ExtrapolationWarning,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NumericalError,
    PdmdError,
    PdmdWarning,
    RankDeficientError,
)
from pdmd.latent import (
    MonolithicModel,
    PartitionedModel,
    fit_monolithic,
    fit_partitioned,
    predict_latent,
)
from pdmd.metrics import (
    EvalReport,
    frobenius_rel_error,
    report_from_line,
    report_to_line,
    rmse,
    time_rel_error,
)
from pdmd.optdmd import (
    BaggedOptDmd,
    OptDmdModel,
    SolverOptions,
    condense_ensemble,
    fit_bopdmd,
    fit_optdmd,
    mean_omegas,
    predict_optdmd,
)
from pdmd.pipeline import (
    FitOptions,
    FittedSurrogate,
    evaluate_model,
    fit_surrogate,
    predict_surrogate,
)
from pdmd.reduction import GlobalBasis, LatentDataset, fit_global_basis, lift, project
from pdmd.regression import FittedRegressor, RegressorSpec
from pdmd.rkoi import RkoiModel, fit_rkoi, predict_rkoi
from pdmd.roi import RoiModel, fit_roi, predict_roi, synthesize_operator
from pdmd.synth import ExpMode, OracleHandle, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BaggedOptDmd",
    "BenchmarkSuite",
    "ConvergenceWarning",
    "DataError",
    "DmdModel",
    "EvalReport",
    "ExpMode",
    "ExtrapolationWarning",
    "FitOptions",
    "FittedRegressor",
    "FittedSurrogate",
    "GlobalBasis",
    "IllConditionedWarning",
    "ImaginaryResidualWarning",
    "LatentDataset",
    "ModelArchive",
    "MonolithicModel",
    "NumericalError",
    "OptDmdModel",
    "OracleHandle",
    "ParametricDataset",
    "PartitionedModel",
    "PdmdError",
    "PdmdWarning",
    "RankDeficientError",
    "RegressorSpec",
    "RkoiModel",
    "RoiModel",
    "Scenario",
    "ScenarioResult",
    "SnapshotMatrix",
    "SolverOptions",
    "SynthSpec",
    "TimeGrid",
    "condense_ensemble",
    "default_suite",
    "evaluate_model",
    "fit_bopdmd",
    "fit_dmd",
    "fit_global_basis",
    "fit_monolithic",
    "fit_optdmd",
    "fit_partitioned",
    "fit_rkoi",
    "fit_roi",
    "fit_surrogate",
    "frobenius_rel_error",
    "generate",
    "lift",
    "load_model",
    "mean_omegas",
    "parse_suite",
    "predict_latent",
    "predict_optdmd",
    "predict_rkoi",
    "predict_roi",
    "predict_surrogate",
    "project",
    "read_dataset",
    "reconstruct",
    "report_from_line",
    "report_to_line",
    "rmse",
    "run_suite",
    "save_model",
    "split_train_test",
    "synthesize_operator",
    "time_rel_error",
    "write_dataset",
]
