"""Multiclass classification of grid-observed functional data.

Pipeline: integrate samples observed on a midpoint grid over [0,1]^d (a
`Grid`, fixed by its shape) against the tensor Fourier basis, whose order
depends only on d; feed the truncated score vectors to a feedforward ReLU
network with shift activations and a softmax head trained under
cross-entropy; and choose hyperparameters by a stratified 70/30 data
split.  Synthetic benchmark generators, misclassification and truncated
Kullback-Leibler risk reporting, and binary dataset / JSON model
serialization round out the package; see the `cli` module for the
command-line surface.
"""

from .basis import Grid, gram_matrix
from .errors import AliasingWarning, DomainError, FdnetError, FormatError, NumericError
from .evaluation import benchmark, evaluate, predict, truncated_kl_risk
from .network import Architecture, NetworkParams, backward, classify, forward, initial_params
from .projection import Dataset, project_batch
from .simulation import SimModel, bayes_error_mc, bayes_posterior, default_test_size
from .simulation import generate_dataset, get_model
from .training import Chosen, Classifier, HyperGrid, SelectionResult, TrainConfig, select
from .training import split_70_30, train

__version__ = "0.1.0"
