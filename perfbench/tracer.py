"""Spans around calls into fdnet's public functions, recorded from outside.

`Tracer.install` wraps each hooked function once and rebinds every name in
the loaded fdnet modules that refers to it, so a caller such as
`fdnet.training.select` (which looks up `train` in its own module) or
`fdnet.cli` (which imported `project_batch` by name) reaches the wrapper.
No library file changes.  Spans stay in memory; `Tracer.spans` is read
once the run ends.  All spans of one process share its trace; the traced
runs keep the whole workload in one process for that reason.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time


def _path_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _train_attrs(args, kwargs, result):
    scores, _, arch, cfg = args[:4]
    n = len(scores)
    return {
        "widths": list(arch.layer_widths()),
        "batch": min(cfg.batch_size, n),
        "steps": cfg.epochs * math.ceil(n / cfg.batch_size),
    }


# (span name, defining module, function name, attribute extractor or None)
HOOKS = (
    ("training.train", "fdnet.training", "train", _train_attrs),
    ("training.select", "fdnet.training", "select", lambda a, k, r: {"cells": a[2].n_cells}),
    ("training.split_70_30", "fdnet.training", "split_70_30", None),
    ("basis.design_matrix", "fdnet.basis", "design_matrix", None),
    ("projection.project_batch", "fdnet.projection", "project_batch", lambda a, k, r: {"rows": len(a[0])}),
    ("dataio.load_dataset", "fdnet.dataio", "load_dataset", lambda a, k, r: {"bytes": _path_bytes(a[0])}),
    ("dataio.load_model", "fdnet.dataio", "load_model", None),
    ("dataio.save_model", "fdnet.dataio", "save_model", None),
    (
        "dataio.write_predictions_csv",
        "fdnet.dataio",
        "write_predictions_csv",
        lambda a, k, r: {"bytes": _path_bytes(a[3])},
    ),
    ("dataio.write_benchmark_csv", "fdnet.dataio", "write_benchmark_csv", None),
    ("idx.load_idx", "fdnet.idx", "load_idx", None),
    ("simulation.generate_dataset", "fdnet.simulation", "generate_dataset", None),
    ("simulation.bayes_posterior", "fdnet.simulation", "bayes_posterior", None),
    ("evaluation.evaluate", "fdnet.evaluation", "evaluate", None),
    ("evaluation.truncated_kl_risk", "fdnet.evaluation", "truncated_kl_risk", None),
    ("evaluation.benchmark", "fdnet.evaluation", "benchmark", None),
    # one replicate of `benchmark`; private, but it is the only per-replicate boundary
    ("evaluation.replicate", "fdnet.evaluation", "_run_replicate", None),
)


class Tracer:
    """In-memory span recorder: [name, start_s, end_s, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self.unhooked = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fdnet" or n.startswith("fdnet.")]
        for name, module_name, attr, attrs in HOOKS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.unhooked.append(name)
                continue
            wrapper = self.wrap(name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
