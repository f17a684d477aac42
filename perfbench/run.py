"""fdnet benchmark: times the `fdnet` command line end to end and by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # all workloads, tiny sizes

Every timed `fdnet.cli.main` call runs in a fresh interpreter (child.py),
one at a time, against the package under `src/` of the checkout this file
sits in.  Inputs come from `--seed`; the same seed gives the same inputs and
the same output bytes.  Each run repeats the workload's commands until
`--seconds` have passed (at least MIN_ITERATIONS times), after one untimed
warm-up repetition where a repetition is shorter than a run, checks every
output, and prints as its last line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
untraced repetitions are followed by one traced repetition whose spans give
the per-layer metrics.  Lines before the last hold the details: the
environment, every sample, output digests, and which counts are computed.
See README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 3
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120.0  # per child, start to exit

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
    "samples_per_s": "1/s",
}

PER_LAYER = {
    "training.train.s": "s",
    "training.train.calls": "count",
    "training.train.steps": "count",
    "training.train.ms_per_step": "ms",
    "training.train.call_s_p50": "s",
    "training.train.call_s_max": "s",
    "training.select.s": "s",
    "training.select.self_s": "s",
    "training.select.cells": "count",
    "training.split_70_30.s": "s",
    "training.step_other_ms": "ms",
    "training.opt_bytes_per_step": "B",
    "network.forward_ms": "ms",
    "network.backward_ms": "ms",
    "network.param_count": "count",
    "network.flops_per_step": "FLOP",
    "basis.design_matrix.s": "s",
    "basis.design_matrix.calls": "count",
    "projection.project_batch.s": "s",
    "projection.project_batch.calls": "count",
    "projection.project_batch.rows": "count",
    "dataio.load_dataset.s": "s",
    "dataio.load_dataset.bytes": "B",
    "dataio.load_model.s": "s",
    "dataio.save_model.s": "s",
    "dataio.write_predictions_csv.s": "s",
    "dataio.write_predictions_csv.bytes": "B",
    "dataio.write_benchmark_csv.s": "s",
    "idx.load_idx.s": "s",
    "cli.self_s": "s",
    "simulation.generate_dataset.s": "s",
    "simulation.bayes_posterior.s": "s",
    "evaluation.evaluate.s": "s",
    "evaluation.truncated_kl_risk.s": "s",
    "evaluation.benchmark.s": "s",
    "evaluation.replicate_s_p50": "s",
    "trace.overhead_s": "s",
}

# Metrics derived from sizes, not measured; the detail output names them so.
COMPUTED = (
    "network.param_count",
    "network.flops_per_step",
    "training.opt_bytes_per_step",
    "dataio.load_dataset.bytes",
    "dataio.write_predictions_csv.bytes",
)

# Adam reads and writes parameters, gradients and both moments: about seven
# float64 passes over the parameters per step.
ADAM_PASSES = 7

SELECT_GRID_2D = {"J": [5, 10], "L": [2, 3], "width": [32, 64], "dropout": [0.01, 0.1]}
SELECT_GRID_3D = {"J": [9, 18], "L": [2, 3], "width": [32, 64], "dropout": [0.01, 0.1]}
MNIST_CELL = {"J": [500], "L": [3], "width": [1000], "dropout": [0.01]}
# c3 bands the mean of 10 replicates; one model on 3000 test samples can fall
# below its lower edge (0.10) by luck, the Bayes error being 0.093
C3_MAX_ERROR = 0.21  # acceptance criterion c3 (2d-gaussian error), upper edge
C5_BAND = (0.09, 0.20)  # acceptance criterion c5 (3d-gaussian error)
C8_MIN_ACCURACY = 0.90  # acceptance criterion c8 (digits accuracy)

SIZES = {
    "full": {
        "select-small": {"nk": 200, "m": 100, "test_nk": 1000, "epochs": 20, "grid": SELECT_GRID_2D},
        "select-wide": {"n_train": 6000, "n_test": 2000, "epochs": 1, "grid": MNIST_CELL},
        "predict-large": {
            "train_nk": 300,
            "test_nk": 33334,
            "m": 125,
            "epochs": 30,
            "grid": {"J": [18], "L": [2], "width": [64], "dropout": [0.01]},
        },
        "replicates": {"nk": 200, "m": 125, "reps": 2, "epochs": 20, "workers": 2, "grid": SELECT_GRID_3D},
    },
    "smoke": {
        "select-small": {
            "nk": 30,
            "m": 100,
            "test_nk": 100,
            "epochs": 2,
            "grid": {"J": [5], "L": [2], "width": [16], "dropout": [0.01, 0.1]},
        },
        "select-wide": {
            "n_train": 300,
            "n_test": 100,
            "epochs": 1,
            "grid": {"J": [50], "L": [2], "width": [64], "dropout": [0.01]},
        },
        "predict-large": {
            "train_nk": 30,
            "test_nk": 500,
            "m": 125,
            "epochs": 2,
            "grid": {"J": [9], "L": [2], "width": [16], "dropout": [0.01]},
        },
        "replicates": {
            "nk": 30,
            "m": 125,
            "reps": 2,
            "epochs": 2,
            "workers": 2,
            "grid": {"J": [9], "L": [2], "width": [16], "dropout": [0.01, 0.1]},
        },
    },
}


class BenchError(Exception):
    """The benchmark cannot run here: missing sources or a failed preparation step."""


# ---------------------------------------------------------------- children


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, code, setup_s, steal_s, result, stdout):
        self.code = code
        self.setup_s = setup_s
        self.steal_s = steal_s
        self.result = result
        self.stdout = stdout

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.result.get("exit", 0) == 0


class Workspace:
    """Scratch directory inside the checkout; every child runs with it as cwd."""

    def __init__(self):
        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=base))
        self.count = 0

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write_json(self, name: str, obj) -> str:
        (self.dir / name).write_text(json.dumps(obj))
        return self.path(name)

    def run(self, mode: str, args) -> Child:
        self.count += 1
        tag = f"c{self.count:04d}"
        result_file = self.dir / f"{tag}.json"
        out_file = self.dir / f"{tag}.out"
        read_fd, write_fd = os.pipe()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PERFBENCH_READY_FD": str(write_fd)}
        cmd = [sys.executable, str(HERE / "child.py"), str(result_file), mode, *map(str, args)]
        with open(out_file, "wb") as out, open(self.dir / f"{tag}.err", "wb") as err:
            steal0 = steal_seconds()
            t0 = time.perf_counter()
            # a session of its own, so a kill also reaches the child's pool workers
            proc = subprocess.Popen(
                cmd, cwd=self.dir, env=env, stdout=out, stderr=err, pass_fds=(write_fd,), start_new_session=True
            )
            os.close(write_fd)
            try:
                with os.fdopen(read_fd, "rb") as ready:
                    # the line arrives once fdnet.cli is imported; EOF if the child dies first
                    if select.select([ready], [], [], CHILD_TIMEOUT_S)[0]:
                        ready.readline()
                    setup_s = time.perf_counter() - t0
                proc.wait(timeout=max(0.0, t0 + CHILD_TIMEOUT_S - time.perf_counter()))
            except BaseException as exc:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
        steal_s = steal_seconds() - steal0
        result = json.loads(result_file.read_text()) if result_file.exists() else {}
        return Child(proc.returncode, setup_s, steal_s, result, out_file.read_text(errors="replace"))

    def prepare(self, mode: str, args) -> Child:
        child = self.run(mode, args)
        if not child.ok:
            raise BenchError(f"preparation step {mode} {' '.join(map(str, args))} failed (exit {child.code})")
        return child

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's virtual CPUs, summed."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _search(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None


# ---------------------------------------------------------------- workloads


def _gradient_evals(epochs: int, n: int, n_cells: int) -> int:
    """Per-sample gradient evaluations of one `select`: every cell trains on
    the 70% fold, then the winner retrains on all n samples."""
    return epochs * (n_cells * ((7 * n) // 10) + n)


def _n_cells(grid: dict) -> int:
    return math.prod(len(v) for v in grid.values())


class Workload:
    """Inputs, commands and output checks of one workload.

    `warmup` is the number of untimed (but checked) repetitions before timing
    starts; `prepare` writes the inputs; `commands(trace)` gives the `fdnet` argument
    lists of one repetition; `outputs` the files whose digests must repeat;
    `check(children)` returns (gate passed, gate message, test error).
    """

    name = ""
    warmup = 1

    def __init__(self, ws: Workspace, seed: int, smoke: bool):
        self.ws = ws
        self.seed = seed
        self.size = SIZES["smoke" if smoke else "full"][self.name]
        self.gated = not smoke  # smoke sizes are too small for the quality bands
        self.outputs = []
        self.samples = 0  # work of one repetition, the numerator of samples_per_s


class SelectSmall(Workload):
    name = "select-small"

    def prepare(self):
        z = self.size
        self.data = self.ws.path("data.mfd")
        self.ws.prepare(
            "cli", ["simulate", "--model", "2d-gaussian", "--nk", z["nk"], "--m", z["m"],
                    "--test-nk", z["test_nk"], "--seed", self.seed, "--out", self.data],
        )
        self.test = self.ws.path("data.test.mfd")
        self.grid = self.ws.write_json("grid.json", z["grid"])
        self.model = self.ws.path("model.json")
        self.outputs = [self.model]
        self.samples = _gradient_evals(z["epochs"], 3 * z["nk"], _n_cells(z["grid"]))
        self._errors = {}

    def commands(self, trace):
        z = self.size
        return [["train", "--data", self.data, "--grid", self.grid, "--epochs", z["epochs"],
                 "--batch", 32, "--seed", self.seed, "--out", self.model]]

    def check(self, children):
        digest = sha256(self.model)
        if digest not in self._errors:
            child = self.ws.run("cli", ["eval", "--model", self.model, "--data", self.test])
            self._errors[digest] = _search(r"error rate: ([0-9.]+)", child.stdout) if child.ok else None
        err = self._errors[digest]
        ok = err is not None and (err <= C3_MAX_ERROR or not self.gated)
        return ok, f"test error {err} <= c3 upper edge {C3_MAX_ERROR}", err


class SelectWide(Workload):
    name = "select-wide"
    warmup = 0  # one repetition already takes longer than --seconds

    def prepare(self):
        z = self.size
        train_dir, test_dir = self.ws.path("train"), self.ws.path("test")
        self.ws.prepare("digits", [train_dir, z["n_train"], 2 * self.seed])
        self.ws.prepare("digits", [test_dir, z["n_test"], 2 * self.seed + 1])
        self.images, self.labels = f"{train_dir}/images.idx", f"{train_dir}/labels.idx"
        self.test_images, self.test_labels = f"{test_dir}/images.idx", f"{test_dir}/labels.idx"
        self.grid = self.ws.write_json("cell.json", z["grid"])
        self.model = self.ws.path("digits.json")
        self.outputs = [self.model]
        self.samples = _gradient_evals(z["epochs"], z["n_train"], _n_cells(z["grid"]))

    def commands(self, trace):
        return [["mnist", "--images", self.images, "--labels", self.labels, "--grid", self.grid,
                 "--seed", self.seed, "--epochs", self.size["epochs"], "--batch", 128, "--out", self.model,
                 "--test-images", self.test_images, "--test-labels", self.test_labels]]

    def check(self, children):
        acc = _search(r"test accuracy: ([0-9.]+)", children[0].stdout)
        ok = acc is not None and (acc >= C8_MIN_ACCURACY or not self.gated)
        return ok, f"accuracy {acc} >= c8 minimum {C8_MIN_ACCURACY}", None if acc is None else 1.0 - acc


class PredictLarge(Workload):
    name = "predict-large"

    def prepare(self):
        z = self.size
        data = self.ws.path("fit.mfd")
        self.ws.prepare(
            "cli", ["simulate", "--model", "3d-gaussian", "--nk", z["train_nk"], "--m", z["m"],
                    "--test-nk", z["test_nk"], "--seed", self.seed, "--out", data],
        )
        self.data = self.ws.path("fit.test.mfd")
        self.model = self.ws.path("model.json")
        grid = self.ws.write_json("grid.json", z["grid"])
        self.ws.prepare(
            "cli", ["train", "--data", data, "--grid", grid, "--epochs", z["epochs"], "--batch", 32,
                    "--seed", self.seed, "--out", self.model],
        )
        self.pred = self.ws.path("pred.csv")
        self.outputs = [self.model, self.pred]
        self.n_test = 3 * z["test_nk"]
        self.samples = 2 * self.n_test  # scored once by `predict`, once by `eval`

    def commands(self, trace):
        return [["predict", "--model", self.model, "--data", self.data, "--out", self.pred],
                ["eval", "--model", self.model, "--data", self.data]]

    def check(self, children):
        with open(self.pred, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        err = _search(r"error rate: ([0-9.]+)", children[1].stdout)
        ok = rows == self.n_test and err is not None
        return ok, f"{rows} prediction rows for {self.n_test} samples", err


class Replicates(Workload):
    name = "replicates"

    def prepare(self):
        z = self.size
        self.grid = self.ws.write_json("grid.json", z["grid"])
        self.report = self.ws.path("report.csv")
        self.outputs = [self.report]
        self.samples = z["reps"] * _gradient_evals(z["epochs"], 3 * z["nk"], _n_cells(z["grid"]))

    def commands(self, trace):
        z = self.size
        # traced runs keep every replicate in one process, so all spans land in one trace
        workers = 1 if trace else z["workers"]
        return [["benchmark", "--model-id", "3d-gaussian", "--nk", z["nk"], "--m", z["m"], "--reps", z["reps"],
                 "--grid", self.grid, "--seed", self.seed, "--epochs", z["epochs"], "--workers", workers,
                 "--out", self.report]]

    def check(self, children):
        with open(self.report, encoding="utf-8", newline="") as fh:
            summary = next(csv.DictReader(fh))
        err = float(summary["mean_error"])
        ok = C5_BAND[0] <= err <= C5_BAND[1] or not self.gated
        return ok, f"mean error {err} within c5 band {C5_BAND}", err


WORKLOADS = {w.name: w for w in (SelectSmall, SelectWide, PredictLarge, Replicates)}


# ---------------------------------------------------------------- per-layer metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _flat_spans(traced_children):
    """(name, duration, self time, attrs) for every span of the traced repetition."""
    out = []
    for child in traced_children:
        spans = child.result["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        out += [(s[0], s[2] - s[1], s[2] - s[1] - covered[i], s[4]) for i, s in enumerate(spans)]
    return out


def _network_counts(widths, batch):
    """Parameters and matmul FLOPs of one training step (forward + backward)."""
    layers = [a * b for a, b in zip(widths[:-1], widths[1:])]
    params = sum(layers) + sum(widths[1:-1])
    flops = 2 * batch * sum(layers)  # forward
    flops += 2 * batch * sum(layers) + 2 * batch * sum(layers[1:])  # weight and input gradients
    return params, flops


def layer_metrics(traced_children, untraced_median_s, traced_wall_s) -> dict:
    spans = _flat_spans(traced_children)

    def select_named(name):
        return [s for s in spans if s[0] == name]

    m = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".s"):
            m[name] = sum(s[1] for s in select_named(name[:-2]))
        elif name.endswith(".calls"):
            m[name] = len(select_named(name[: -len(".calls")]))
    for name, key in (
        ("projection.project_batch.rows", "rows"),
        ("dataio.load_dataset.bytes", "bytes"),
        ("dataio.write_predictions_csv.bytes", "bytes"),
        ("training.select.cells", "cells"),
    ):
        m[name] = sum(s[3][key] for s in select_named(name.rsplit(".", 1)[0]))

    trains = select_named("training.train")
    steps = sum(s[3]["steps"] for s in trains)
    m["training.train.calls"] = len(trains)
    m["training.train.steps"] = steps
    m["training.train.ms_per_step"] = 1e3 * m["training.train.s"] / steps if steps else 0.0
    m["training.train.call_s_p50"] = _median([s[1] for s in trains])
    m["training.train.call_s_max"] = max((s[1] for s in trains), default=0.0)
    m["training.select.self_s"] = sum(s[2] for s in select_named("training.select"))
    m["cli.self_s"] = sum(s[2] for s in select_named("cli"))
    m["evaluation.replicate_s_p50"] = _median([s[1] for s in select_named("evaluation.replicate")])
    m["trace.overhead_s"] = traced_wall_s - untraced_median_s

    probe = {(tuple(p["widths"]), p["batch"]): p for c in traced_children for p in c.result["probe"]}
    fwd = bwd = params = flops = 0.0
    for s in trains:
        key = (tuple(s[3]["widths"]), s[3]["batch"])
        n_params, n_flops = _network_counts(*key)
        w = s[3]["steps"] / steps
        fwd += w * probe[key]["forward_s"]
        bwd += w * probe[key]["backward_s"]
        params += w * n_params
        flops += w * n_flops
    m["network.forward_ms"] = 1e3 * fwd
    m["network.backward_ms"] = 1e3 * bwd
    m["training.step_other_ms"] = m["training.train.ms_per_step"] - 1e3 * (fwd + bwd) if steps else 0.0
    m["network.param_count"] = params
    m["network.flops_per_step"] = flops
    m["training.opt_bytes_per_step"] = ADAM_PASSES * 8 * params
    return m


# ---------------------------------------------------------------- one run


def _environment(ws: Workspace) -> dict:
    env = ws.prepare("setup", []).result
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **env,
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None  # checkouts without git metadata
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (result object, detail dict)."""
    if not (ROOT / "src" / "fdnet" / "cli.py").is_file():
        raise BenchError(f"no fdnet sources under {ROOT / 'src'}")
    ws = Workspace()
    try:
        return _run(ws, WORKLOADS[name](ws, seed, smoke), seconds, trace, smoke)
    finally:
        ws.close()


def _run(ws: Workspace, wl: Workload, seconds: float, trace: bool, smoke: bool):
    detail = {"workload": wl.name, "seed": wl.seed, "sizes": wl.size, "trace": trace}
    detail["environment"] = _environment(ws)
    setups = [ws.prepare("setup", []).setup_s for _ in range(2 if smoke else SETUP_PROBES)]
    wl.prepare()

    walls, call_samples, throughputs, rss_kb, digests, gates = [], [], [], [], set(), []
    cpus, steals = [], []
    attempted = failed = 0
    test_errors = set()
    min_iterations = 1 if smoke else MIN_ITERATIONS

    def repeat(mode):
        nonlocal attempted, failed
        attempted += 1
        children = [ws.run(mode, args) for args in wl.commands(trace)]
        if not all(c.ok for c in children):
            failed += 1
            gates.append("exit status not 0: " + ", ".join(str(c.code) for c in children))
            return None
        passed, message, err = wl.check(children)
        digests.add(tuple((Path(p).name, sha256(p)) for p in wl.outputs))
        test_errors.add(err)
        gates.append(("pass: " if passed else "FAIL: ") + message)
        if not passed:
            failed += 1
            return None
        call_walls = [c.result["wall_s"] for c in children]
        rss_kb.append(max(c.result["peak_rss_kb"] for c in children))
        return children, call_walls

    for _ in range(0 if smoke else wl.warmup):
        repeat("cli")

    start = time.perf_counter()
    while len(walls) < min_iterations or time.perf_counter() - start < seconds:
        done = repeat("cli")
        if done is None:
            if time.perf_counter() - start >= seconds:
                break
            continue
        walls.append(sum(done[1]))
        call_samples.append(done[1])
        cpus.append(sum(c.result["cpu_s"] for c in done[0]))
        steals.append(sum(c.steal_s for c in done[0]))
        throughputs.append(wl.samples / walls[-1])
    untraced_median = _median(walls)

    traced = repeat("trace") if trace else None

    # reruns of one seed must give identical bytes and the same error
    deterministic = len(digests) <= 1 and len(test_errors) <= 1
    if not deterministic:
        failed += 1
        attempted += 1
    correct = failed == 0 and bool(walls) and (traced is not None or not trace)
    detail.update(
        {
            "iterations": len(walls),
            "warmup_repetitions": 0 if smoke else wl.warmup,
            "wall_s_samples": walls,
            "call_wall_s_samples": call_samples,
            "cpu_s_samples": cpus,
            "steal_s_samples": steals,
            "setup_s_samples": setups,
            "samples_per_iteration": wl.samples,
            "gates": sorted(set(gates)),
            "output_sha256": dict(next(iter(digests))) if len(digests) == 1 else [dict(d) for d in digests],
            "deterministic": deterministic,
            "test_error": sorted(test_errors, key=str),
        }
    )
    if trace:
        if traced is None:
            metrics = dict.fromkeys(PER_LAYER, 0.0)  # the run is reported incorrect
        else:
            children, call_walls = traced
            metrics = layer_metrics(children, untraced_median, sum(call_walls))
            detail["traced_wall_s"] = sum(call_walls)
            detail["unhooked"] = sorted({u for c in children for u in c.result["unhooked"]})
            detail["probe"] = [p for c in children for p in c.result["probe"]]
            if wl.name == "replicates":
                detail["note"] = "traced repetition ran with --workers 1, so every span is in one process"
        detail["computed_not_measured"] = list(COMPUTED)
        units = PER_LAYER
    else:
        (err,) = test_errors if len(test_errors) == 1 else (None,)
        metrics = {
            "wall_s": untraced_median,
            "setup_s": _median(setups),
            "peak_rss_mb": max(rss_kb, default=0) / 1024,
            # 1 - test error: steadier across seeds than the error, and never 0
            "test_accuracy": 1.0 - err if err is not None else 0.0,
            "samples_per_s": _median(throughputs),
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default 10, or 0 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; with --workload all, both traces")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 10.0
    # on SIGTERM unwind as on exit, so the running child's process group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload != "all":
        try:
            result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(detail, indent=1))
        print(json.dumps(result))
        return 0

    traces = (0, 1) if args.smoke else (args.trace,)
    combined = {}
    for name in WORKLOADS:
        for trace in traces:
            try:
                result, _ = run_workload(name, args.seed, args.seconds, bool(trace), args.smoke)
            except BenchError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 2
            combined[f"{name}/trace{trace}"] = result
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:<36} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
