"""Skeleton-based human activity recognition.

A numpy library covering the full pipeline: canonical skeleton types,
dataset I/O and synthetic motion generation, head-referenced posture
feature extraction over coordinate/velocity/acceleration modalities, PCA
with explained-variance selection, six classical classifiers, and a
split/cross-validation evaluation harness with reproducible report bundles.

Importing the package runs BLAS on one thread per process, unless the user
set a thread count: the variables are set before anything imports numpy,
whose OpenBLAS reads them once, when it loads. An unset variable takes the
first count the user set, so that OpenBLAS, which reads its own variable
first, keeps a count given only as OMP_NUM_THREADS. The commands' worker
processes share the CPUs instead (skelhar.gridworker).
"""

import os

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_count = next((os.environ[name] for name in _BLAS_THREADS if name in os.environ), "1")
for _name in _BLAS_THREADS:
    os.environ.setdefault(_name, _count)

from .classifiers import (
    BaggedTreesSpec,
    ClassifierSpec,
    CubicSvmSpec,
    FineKnnSpec,
    FineTreeSpec,
    LinearDiscriminantSpec,
    MlpSpec,
    TrainedModel,
    mlp_loss_and_gradient,
    train,
    train_arrays,
)
from .dataset import (
    DatasetFormatError,
    DatasetManifest,
    FileIngest,
    SynthSpec,
    Synthetic,
    class_template,
    generate_depth_pair,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from .evaluation import (
    ClassMetrics,
    EvalReport,
    ExperimentResult,
    PcaConfig,
    PipelineConfig,
    SplitIndices,
    SplitPlan,
    StratifyBy,
    compute_report,
    cross_validate,
    run_experiment,
    run_matrix_experiment,
    split,
    write_bundle,
)
from .features import (
    FeatureMatrix,
    JointSubset,
    Modality,
    build_feature_matrix,
    derive_modality,
    normalize_posture,
    parse_subset,
    select_frames,
)
from .pca import PcaModel, pca_fit, pca_transform
from .skeleton import (
    ActivityClass,
    ActivityKind,
    ActivitySequence,
    JointId,
    ValidationResult,
    Violation,
    validate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityClass",
    "ActivityKind",
    "ActivitySequence",
    "BaggedTreesSpec",
    "ClassMetrics",
    "ClassifierSpec",
    "CubicSvmSpec",
    "DatasetFormatError",
    "DatasetManifest",
    "EvalReport",
    "ExperimentResult",
    "FeatureMatrix",
    "FileIngest",
    "FineKnnSpec",
    "FineTreeSpec",
    "JointId",
    "JointSubset",
    "LinearDiscriminantSpec",
    "MlpSpec",
    "Modality",
    "PcaConfig",
    "PcaModel",
    "PipelineConfig",
    "SplitIndices",
    "SplitPlan",
    "StratifyBy",
    "SynthSpec",
    "Synthetic",
    "TrainedModel",
    "ValidationResult",
    "Violation",
    "build_feature_matrix",
    "class_template",
    "compute_report",
    "cross_validate",
    "derive_modality",
    "generate_depth_pair",
    "generate_synthetic",
    "mlp_loss_and_gradient",
    "normalize_posture",
    "parse_subset",
    "pca_fit",
    "pca_transform",
    "read_dataset",
    "run_experiment",
    "run_matrix_experiment",
    "select_frames",
    "split",
    "train",
    "train_arrays",
    "validate_sequence",
    "write_bundle",
    "write_dataset",
]
