"""Constructor fuzzing of the library's public value types: every field of
TrainConfig, HyperGrid, Grid, Architecture, Classifier and Dataset gets
each junk value, 0 among them, the boundary of every count.  A constructor raises DomainError or builds an object whose field
holds a value of the field's kind, equal to what was given; any other
exception, or a value converted into another, is the failure."""

import math

import numpy as np

from fdnet import Architecture, Classifier, Dataset, DomainError, Grid, HyperGrid, TrainConfig
from fdnet import initial_params

JUNK = (math.inf, math.nan, -1, 0, 2.5, True, "x", None, np.int64(3), np.float64(0.5), 10**400)


def _holds(kind: str, value, given) -> bool:
    """Whether an accepted scalar `value` is of `kind` and equals `given`."""
    if kind == "count":
        ok = type(value) is int and value >= 1
    elif kind == "real":
        ok = type(value) is float and math.isfinite(value)
    else:  # a rate
        ok = type(value) is float and 0.0 <= value < 1.0
    return ok and value == given


def _crashes(build, fields: dict) -> list:
    """(field, input, outcome) of every junk input that `build(field, value)`
    neither refuses with DomainError nor stores as a valid value.  A field
    whose kind ends in "s" holds a sequence of that kind; it gets each junk
    value in place of the sequence and as its only entry."""
    crashes = []
    for field, kind in fields.items():
        many = kind.endswith("s")
        inputs = [*JUNK, *((v,) for v in JUNK)] if many else JUNK
        for given in inputs:
            try:
                obj = build(field, given)
            except DomainError:
                continue
            except Exception as exc:  # noqa: BLE001 - any other type is the failure
                crashes.append((field, given, repr(exc)))
                continue
            value = getattr(obj, field)
            if many:
                ok = (isinstance(given, tuple) and type(value) is tuple and len(value) == 1
                      and _holds(kind[:-1], value[0], given[0]))
            else:
                ok = kind != "params" and _holds(kind, value, given)
            if not ok:
                crashes.append((field, given, f"accepted as {value!r}"))
    return crashes


def test_train_config():
    fields = {"epochs": "count", "batch_size": "count", "learning_rate": "real"}
    assert _crashes(lambda f, v: TrainConfig(**{f: v}), fields) == []


def test_hyper_grid():
    valid = {"n_scores": (2,), "depths": (1,), "widths": (4,), "dropouts": (0.0,)}
    fields = {"n_scores": "counts", "depths": "counts", "widths": "counts", "dropouts": "rates"}
    assert _crashes(lambda f, v: HyperGrid(**{**valid, f: v}), fields) == []


def test_grid():
    assert _crashes(lambda f, v: Grid(v), {"shape": "counts"}) == []


def test_architecture():
    valid = {"input_dim": 2, "hidden_widths": (3,), "n_classes": 2}
    fields = {"input_dim": "count", "hidden_widths": "counts", "n_classes": "count"}
    assert _crashes(lambda f, v: Architecture(**{**valid, f: v}), fields) == []


def test_classifier():
    params = initial_params(Architecture(2, (3,), 2), np.random.default_rng(0))
    valid = {"params": params, "grid_shape": (3, 3)}
    fields = {"params": "params", "grid_shape": "counts"}
    assert _crashes(lambda f, v: Classifier(**{**valid, f: v}), fields) == []



def test_dataset():
    valid = {"values": np.zeros((2, 4)), "grid": Grid((2, 2)), "labels": [1, 1]}
    assert _crashes(lambda f, v: Dataset(**valid, **{f: v}), {"n_classes": "count"}) == []
