"""One fresh interpreter of a benchmark run.

    python3 child.py RESULT MODE [ARG ...]

MODE is one of
  setup    import fdnet.cli and report the environment;
  cli      import fdnet.cli, run `fdnet.cli.main(ARG ...)` once and time it;
  trace    as `cli`, with spans recorded around fdnet's public functions and
           the forward/backward probe run after `main` returns;
  digits   write synthetic digit IDX files: ARG = directory count seed.

As soon as `fdnet.cli` is imported the child writes one line to the file
descriptor named by PERFBENCH_READY_FD, so the parent can time interpreter
start-up plus import.  The result is written as JSON to RESULT.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _signal_ready() -> None:
    fd = int(os.environ["PERFBENCH_READY_FD"])
    os.write(fd, b"ready\n")
    os.close(fd)  # worker processes must not hold the parent's pipe open


def _peak_rss_kb() -> int:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers joined pool workers
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {v: os.environ.get(v) for v in thread_vars},
    }


def _time_call(fn, budget_s=0.25, max_reps=200):
    """Median seconds of repeated calls: at least 5, until `budget_s` is spent."""
    times = []
    start = time.perf_counter()
    while len(times) < 5 or (time.perf_counter() - start < budget_s and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_step(train_spans) -> list:
    """Time public `forward` and `backward` at each trained network's batch shape.

    `backward` runs its own forward pass, so the backward share reported is
    the backward time minus the forward time at the same shape.
    """
    import numpy as np

    import fdnet

    shapes = {(tuple(s["widths"]), s["batch"]) for s in train_spans}
    out = []
    rng = np.random.default_rng(0)
    for widths, batch in sorted(shapes):
        arch = fdnet.Architecture(input_dim=widths[0], hidden_widths=widths[1:-1], n_classes=widths[-1])
        params = fdnet.initial_params(arch, rng)
        x = rng.standard_normal((batch, widths[0]))
        y = np.eye(widths[-1])[rng.integers(0, widths[-1], size=batch)]
        fwd = _time_call(lambda: fdnet.forward(params, x))
        bwd = _time_call(lambda: fdnet.backward(params, x, y))
        out.append({"widths": list(widths), "batch": batch, "forward_s": fwd, "backward_s": max(bwd - fwd, 0.0)})
    return out


def main(argv) -> int:
    result_path, mode, args = Path(argv[0]), argv[1], argv[2:]
    if mode == "digits":
        sys.path.insert(0, str(ROOT / "tests"))
        from synth_digits import write_idx_pair

        directory, count, seed = Path(args[0]), int(args[1]), int(args[2])
        directory.mkdir(parents=True, exist_ok=True)
        write_idx_pair(directory, count, seed)
        result_path.write_text(json.dumps({"exit": 0}))
        return 0

    import fdnet.cli

    _signal_ready()
    source = Path(fdnet.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"fdnet was imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    if mode == "setup":
        result_path.write_text(json.dumps(_environment()))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli", fdnet.cli.main)
    else:
        entry = fdnet.cli.main
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = entry(args)
    wall = time.perf_counter() - t0
    result = {"exit": code, "wall_s": wall, "cpu_s": _cpu_s() - cpu0, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["unhooked"] = tracer.unhooked
        result["probe"] = probe_step([s[4] for s in tracer.spans if s[0] == "training.train"])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
