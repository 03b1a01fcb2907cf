"""AUC maximization for large imbalanced datasets.

Pipeline: standardize, kernel feature embedding (clustered Nystroem or
random Fourier features), then a linear scorer trained either by a
truncated Newton solver on the pairwise squared hinge objective or by a
scheduled stochastic solver on the pairwise hinge objective.
"""

from .batch import BatchConfig, train_batch
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

# the old name of Dataset, kept because benchmarks/run.py, its only user, imports it
EmbeddedDataset = Dataset

__version__ = "0.1.0"

__all__ = [
    "AucResult",
    "AucmaxError",
    "BatchConfig",
    "ConfigError",
    "DataError",
    "Dataset",
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
    "save_model",
    "split",
    "standardize_apply",
    "standardize_fit",
    "to_libsvm",
    "train_batch",
    "train_sgd",
]
