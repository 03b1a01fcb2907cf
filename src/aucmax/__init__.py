"""AUC maximization for large imbalanced datasets.

Pipeline: standardize, kernel feature embedding (clustered Nystroem or
random Fourier features), then a linear scorer trained on the pairwise
squared hinge objective with either a truncated Newton solver or a
scheduled stochastic solver.
"""

from .batch import BatchConfig, pairwise_objective, train_batch
from .dataio import (
    Dataset,
    SparseVector,
    Standardizer,
    binary_labels,
    parse_libsvm,
    split,
    standardize_apply,
    standardize_fit,
    to_libsvm,
)
from .embedding import (
    EmbeddedDataset,
    LandmarkSet,
    NystroemMap,
    RffMap,
    embed,
    embed_point,
    fit_nystroem,
    fit_rff,
    kmeans,
)
from .errors import AucmaxError, ConfigError, DataError, NumericalError, ParseError
from .kernels import GaussianKernelParams, bandwidth_heuristic, gaussian_kernel, kernel_matrix
from .metrics import AucResult, auc, auc_bruteforce
from .model import LinearModel, TrainedPipeline, load_model, save_model
from .sgd import SgdConfig, train_sgd

__version__ = "0.1.0"

__all__ = [
    "AucResult",
    "AucmaxError",
    "BatchConfig",
    "ConfigError",
    "DataError",
    "Dataset",
    "EmbeddedDataset",
    "GaussianKernelParams",
    "LandmarkSet",
    "LinearModel",
    "NumericalError",
    "NystroemMap",
    "ParseError",
    "RffMap",
    "SgdConfig",
    "SparseVector",
    "Standardizer",
    "TrainedPipeline",
    "auc",
    "auc_bruteforce",
    "bandwidth_heuristic",
    "binary_labels",
    "embed",
    "embed_point",
    "fit_nystroem",
    "fit_rff",
    "gaussian_kernel",
    "kernel_matrix",
    "kmeans",
    "load_model",
    "parse_libsvm",
    "pairwise_objective",
    "save_model",
    "split",
    "standardize_apply",
    "standardize_fit",
    "to_libsvm",
    "train_batch",
    "train_sgd",
]
