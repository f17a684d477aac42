"""Synthetic generators for the benchmark suite.

Eight three-class models produce score vectors from Gaussian, shifted
Student-t, or exponential laws and map them to functional observations

    X(s) = sum_j xi_j * psi_j(s)

on grids over [0,1]^2 (five polynomial synthesis functions) or [0,1]^3
(nine).  The synthesis functions are plain monomials and are deliberately
not orthonormal; classifiers consume Fourier-projection scores of X, not
the latent xi.

Notes on the lineup, frozen here as the single source of truth:

* Student-t laws are standard-t draws with the stated per-coordinate
  degrees of freedom plus a location shift (the shift is a plain
  translation, not a noncentrality parameter).
* In the two "mixed 2" models the third class follows the t law with
  degrees of freedom 2j+1 and the third stated location vector, mirroring
  the structure of the other mixed models.
* The 3d-mixed1 third class uses the location 3 in every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Grid
from .errors import DomainError, as_count, check_array_size
from .network import predicted_class, softmax
from .projection import Dataset
from .rng import as_seed_sequence

# grid shapes addressable by total sampling frequency m
SUPPORTED_M = {
    2: {9: (3, 3), 25: (5, 5), 100: (10, 10), 400: (20, 20)},
    3: {8: (2, 2, 2), 27: (3, 3, 3), 64: (4, 4, 4), 125: (5, 5, 5)},
}

# training size per class -> test size per class
TEST_SIZES = {200: 100, 350: 150, 700: 300}


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    mean: np.ndarray
    sd: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal((n, self.dim))


@dataclass(frozen=True, eq=False)
class StudentTLaw:
    dof: np.ndarray
    shift: np.ndarray

    @property
    def dim(self) -> int:
        return self.dof.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_t(self.dof, size=(n, self.dim)) + self.shift


@dataclass(frozen=True, eq=False)
class ExponentialLaw:
    rate: np.ndarray

    @property
    def dim(self) -> int:
        return self.rate.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=(n, self.dim))


@dataclass(frozen=True, eq=False)
class SimModel:
    """One benchmark generator: three class laws plus a synthesis basis."""

    model_id: str
    d: int
    laws: tuple

    @property
    def n_classes(self) -> int:
        return len(self.laws)

    @property
    def score_dim(self) -> int:
        return self.laws[0].dim

    @property
    def is_gaussian(self) -> bool:
        return all(isinstance(law, GaussianLaw) for law in self.laws)

    def psi_matrix(self, grid: Grid) -> np.ndarray:
        """Synthesis functions evaluated at all grid nodes, shape (m, score_dim)."""
        if grid.d != self.d:
            raise DomainError(f"model {self.model_id} is {self.d}-dimensional, grid is {grid.d}-dimensional")
        if self.score_dim != (5 if self.d == 2 else 9):
            raise DomainError(
                f"model {self.model_id} has {self.score_dim}-dimensional laws; the "
                f"{self.d}-dimensional synthesis basis expects {5 if self.d == 2 else 9}"
            )
        pts = grid.node_matrix()
        if self.d == 2:
            s, t = pts[:, 0], pts[:, 1]
            cols = [s, t, s * t, s**2 * t, s * t**2]
        else:
            s1, s2, s3 = pts[:, 0], pts[:, 1], pts[:, 2]
            cols = [s1, s2, s3, s1 * s2, s1 * s3, s2 * s3, s1**2, s2**2, s3**2]
        return np.stack(cols, axis=1)


def _arr(*vals) -> np.ndarray:
    return np.array(vals, dtype=float)


_SD_2D_SMALL = _arr(2.5, 2, 1.5, 1, 0.5)
_SD_3D = _arr(4.5, 4, 3.5, 3, 2.5, 2, 1.5, 1, 0.5)
_DOF_2D_ODD = _arr(3, 5, 7, 9, 11)      # 2j+1, j = 1..5
_DOF_2D_SEQ = _arr(2, 3, 4, 5, 6)       # j+1,  j = 1..5
_DOF_3D_ODD = _arr(3, 5, 7, 9, 11, 13, 15, 17, 19)
_DOF_3D_SEQ = _arr(2, 3, 4, 5, 6, 7, 8, 9, 10)

MODELS = {
    m.model_id: m
    for m in (
        SimModel(
            "2d-gaussian",
            2,
            (
                GaussianLaw(_arr(4, 4, 3, 3, 3), _arr(8, 7, 6, 5, 4)),
                GaussianLaw(-np.ones(5), _arr(5, 4, 3, 2, 1)),
                GaussianLaw(np.zeros(5), _SD_2D_SMALL),
            ),
        ),
        SimModel(
            "2d-mixed1",
            2,
            (
                GaussianLaw(-np.ones(5), _arr(5, 4, 3, 2, 1)),
                GaussianLaw(np.zeros(5), _SD_2D_SMALL),
                StudentTLaw(_DOF_2D_ODD, 3.0 * np.ones(5)),
            ),
        ),
        SimModel(
            "2d-mixed2",
            2,
            (
                GaussianLaw(np.zeros(5), _SD_2D_SMALL),
                StudentTLaw(_DOF_2D_SEQ, np.ones(5)),
                StudentTLaw(_DOF_2D_ODD, 3.0 * np.ones(5)),
            ),
        ),
        SimModel(
            "2d-mixed3",
            2,
            (
                ExponentialLaw(_arr(0.1, 0.3, 0.5, 0.7, 0.9)),
                StudentTLaw(_DOF_2D_ODD, 3.0 * np.ones(5)),
                GaussianLaw(np.zeros(5), _SD_2D_SMALL),
            ),
        ),
        SimModel(
            "3d-gaussian",
            3,
            (
                GaussianLaw(2.0 * np.ones(9), _arr(9, 8, 7, 6, 5, 4, 3, 2, 1)),
                GaussianLaw(np.zeros(9), _arr(9, 8, 7, 6, 5, 4, 3, 2, 1)),
                GaussianLaw(np.zeros(9), _arr(9, 8, 7, 6, 5, 4, 3, 2, 1) / 3.0),
            ),
        ),
        SimModel(
            "3d-mixed1",
            3,
            (
                GaussianLaw(-np.ones(9), _arr(5.5, 5, 4.5, 4, 3.5, 3, 2.5, 2, 1.5)),
                GaussianLaw(np.zeros(9), _SD_3D),
                StudentTLaw(_DOF_3D_SEQ, 3.0 * np.ones(9)),
            ),
        ),
        SimModel(
            "3d-mixed2",
            3,
            (
                GaussianLaw(np.zeros(9), _SD_3D),
                StudentTLaw(_DOF_3D_SEQ, -np.ones(9)),
                StudentTLaw(_DOF_3D_ODD, 0.5 * np.ones(9)),
            ),
        ),
        SimModel(
            "3d-mixed3",
            3,
            (
                ExponentialLaw(0.1 * _arr(1, 3, 5, 7, 9, 11, 13, 15, 17)),
                StudentTLaw(_DOF_3D_SEQ, 0.6 * np.ones(9)),
                GaussianLaw(np.zeros(9), _SD_3D),
            ),
        ),
    )
}


def get_model(model_id: str) -> SimModel:
    key = model_id.strip().lower()
    if key not in MODELS:
        raise DomainError(
            f"unknown model {model_id!r}; available: {', '.join(sorted(MODELS))}"
        )
    return MODELS[key]


def resolve_grid(model: SimModel, m: int) -> Grid:
    """Grid for a model at the sampling frequency m (see SUPPORTED_M)."""
    table = SUPPORTED_M[model.d]
    if m not in table:
        raise DomainError(
            f"unsupported sampling frequency m={m} for a {model.d}-dimensional model; "
            f"supported: {sorted(table)}"
        )
    return Grid(table[m])


def dataset_grid(model: SimModel, n_per_class: int, m: int) -> Grid:
    """`resolve_grid(model, m)`, refused when no array can hold `n_per_class` samples per class."""
    grid = resolve_grid(model, m)
    check_array_size(model.n_classes * n_per_class * max(m, model.score_dim), f"{n_per_class} samples per class")
    return grid


def generate_dataset(
    model: SimModel,
    n_per_class: int,
    *,
    m: int,
    seed,
    subset: str = "train",
) -> Dataset:
    """Balanced labeled dataset with `n_per_class` samples per class.

    The train and test subsets of one master seed use disjoint derived
    streams, so requesting both yields independent data.  The returned
    dataset carries the latent score vectors in `latent`.
    """
    n_per_class = as_count(n_per_class, "n_per_class")
    if subset not in ("train", "test"):
        raise DomainError(f"subset must be 'train' or 'test', got {subset!r}")
    grid = dataset_grid(model, n_per_class, m)
    streams = as_seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(streams[0 if subset == "train" else 1])
    psi = model.psi_matrix(grid)
    blocks, labels, latents = [], [], []
    for k in range(1, model.n_classes + 1):
        xi = model.laws[k - 1].sample(n_per_class, rng)
        blocks.append(xi @ psi.T)
        latents.append(xi)
        labels.append(np.full(n_per_class, k, dtype=np.int64))
    return Dataset(
        values=np.concatenate(blocks, axis=0),
        grid=grid,
        labels=np.concatenate(labels),
        n_classes=model.n_classes,
        latent=np.concatenate(latents, axis=0),
    )


def default_test_size(n_per_class: int) -> int:
    """Companion test size for a training size, per the benchmark design."""
    return TEST_SIZES.get(n_per_class, max(1, n_per_class // 2))


def bayes_posterior(model: SimModel, scores: np.ndarray) -> np.ndarray:
    """Exact class posteriors (n, K) at a batch (n, score_dim) of latent
    scores, for all-Gaussian models.

    Assumes the balanced design (equal class priors): the softmax of the
    diagonal-Gaussian log densities.
    """
    if not model.is_gaussian:
        raise DomainError(
            f"model {model.model_id!r} has non-Gaussian classes; exact posteriors "
            "are only available for all-Gaussian models"
        )
    x = np.asarray(scores, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.score_dim:
        raise DomainError(f"scores must be a batch (n, {model.score_dim})")
    logdens = np.empty((x.shape[0], model.n_classes))
    for k, law in enumerate(model.laws):
        z = (x - law.mean) / law.sd
        logdens[:, k] = -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(law.sd))
    return softmax(logdens)


def bayes_error_mc(model: SimModel, n_draws: int, seed) -> float:
    """Monte-Carlo estimate of the Bayes misclassification error under
    equal priors, using `n_draws` >= 1 total latent draws split over
    classes."""
    n_draws = as_count(n_draws, "n_draws")
    rng = np.random.default_rng(as_seed_sequence(seed))
    n_per = -(-n_draws // model.n_classes)  # ceil
    check_array_size(n_per * model.score_dim, f"{n_draws} draws")
    wrong = 0
    for k in range(1, model.n_classes + 1):
        xi = model.laws[k - 1].sample(n_per, rng)
        pred = predicted_class(bayes_posterior(model, xi))
        wrong += int(np.sum(pred != k))
    return wrong / (n_per * model.n_classes)
