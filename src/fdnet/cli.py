"""Command-line interface.

Subcommands: simulate, train, predict, eval, benchmark, mnist, export-csv.
All randomness flows from --seed; reruns with identical inputs produce
byte-identical output files.  Exit codes: 0 success, 1 domain or parse
errors (including usage), 2 numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import dataio, idx
from .basis import BasisOrder
from .errors import DomainError, FdnetError, NumericError
from .evaluation import EvalConfig, benchmark, evaluate, predict, truncated_kl_risk
from .network import one_hot
from .projection import Dataset
from .simulation import generate_dataset, get_model
from .training import SelectionResult, TrainConfig, select


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sibling_path(path: str, tag: str) -> str:
    stem, dot, ext = path.rpartition(".")
    if dot:
        return f"{stem}.{tag}.{ext}"
    return f"{path}.{tag}"


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )


def _load_model_for(path: str, dataset: Dataset):
    """The network of a model file, refused for data of another dimension
    (another grid on the same [0,1]^d is fine; no recorded shape, no check)."""
    params, meta = dataio.load_model(path)
    d = len(meta.get("grid_shape", []))
    if d and d != dataset.grid.d:
        raise DomainError(f"model {path} was trained on {d}-D data, but the data is {dataset.grid.d}-D")
    return params


def _head(dataset: Dataset, limit: int) -> Dataset:
    """The first `limit` samples of `dataset`, or all of them when 0."""
    if not limit:
        return dataset
    return replace(dataset, values=dataset.values[:limit], labels=dataset.labels[:limit])


def _require_labeled(dataset: Dataset, what: str) -> None:
    if len(dataset) == 0:
        raise DomainError(f"{what} data has no samples")
    if dataset.labels.min() < 1:
        raise DomainError(f"{what} data contains unlabeled samples")


def _cmd_simulate(args) -> int:
    model = get_model(args.model)
    train_ds = generate_dataset(model, args.nk, m=args.m, seed=args.seed, subset="train")
    # both sets before either file, so a refused --test-nk writes nothing;
    # the subsets draw from independent streams, so the order changes no byte
    test_ds = None
    if args.test_nk:
        test_ds = generate_dataset(model, args.test_nk, m=args.m, seed=args.seed, subset="test")
    dataio.save_dataset(train_ds, args.out)
    print(f"wrote {len(train_ds)} training samples to {args.out}")
    if test_ds is not None:
        test_path = _sibling_path(args.out, "test")
        dataio.save_dataset(test_ds, test_path)
        print(f"wrote {len(test_ds)} test samples to {test_path}")
    return 0


def _run_selection(dataset: Dataset, grid_path: str, cfg: TrainConfig, out: str) -> SelectionResult:
    _require_labeled(dataset, "training")
    grid = dataio.load_hypergrid(grid_path)
    order = BasisOrder(dataset.grid.d)
    result = select(dataset, order, grid, cfg)
    meta = dataio.metadata_for(result.chosen, cfg, {"grid_shape": list(dataset.grid.shape)})
    dataio.save_model(result.final_params, out, metadata=meta)
    c = result.chosen
    print(
        f"chosen J={c.n_scores} L={c.depth} width={c.width} dropout={c.dropout}; "
        f"validation error {result.validation_errors.min():.4f}; model written to {out}"
    )
    return result


def _cmd_train(args) -> int:
    dataset = dataio.load_dataset(args.data)
    _run_selection(dataset, args.grid, _train_config(args), args.out)
    return 0


def _cmd_predict(args) -> int:
    dataset = dataio.load_dataset(args.data)
    preds, probs = predict(_load_model_for(args.model, dataset), dataset)
    dataio.write_predictions_csv(range(len(dataset)), preds, probs, args.out)
    print(f"wrote {len(dataset)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    dataset = dataio.load_dataset(args.data)
    _require_labeled(dataset, "evaluation")
    err, conf, probs = evaluate(_load_model_for(args.model, dataset), dataset)
    # computed first, so that a refused C0 leaves no partial report
    tce = None
    if args.c0 is not None:
        tce = truncated_kl_risk(one_hot(dataset.labels, dataset.n_classes), probs, args.c0)
    print(f"error rate: {err:.6f}")
    print("confusion matrix (rows = true class, columns = predicted):")
    for row in conf:
        print("  " + " ".join(f"{c:6d}" for c in row))
    if tce is not None:
        print(f"truncated cross-entropy (C0={args.c0}): {tce:.6f}")
    return 0


def _cmd_benchmark(args) -> int:
    model = get_model(args.model_id)
    grid = dataio.load_hypergrid(args.grid)
    cfg = _train_config(args)
    eval_cfg = EvalConfig(replicates=args.reps, seed=args.seed)
    report = benchmark(
        model,
        args.nk,
        args.m,
        grid,
        cfg,
        eval_cfg,
        test_per_class=args.test_nk,
        workers=args.workers,
    )
    dataio.write_benchmark_csv(report, args.out)
    sd = f"{report.sd:.4f}" if report.sd is not None else "n/a"
    print(
        f"{report.model_id} n_k={report.n_per_class} m={report.m}: "
        f"mean error {report.mean_error:.4f} (sd {sd}) over {report.replicates} replicates"
    )
    if report.kl_mean is not None:
        print(f"truncated KL risk (mean): {report.kl_mean:.4f}")
    print(f"report written to {args.out}")
    return 0


def _cmd_mnist(args) -> int:
    # before any file is read or any training step is taken
    for limit in (args.limit, args.test_limit):
        if limit < 0:
            raise DomainError(f"a sample limit must be >= 0, got {limit}")
    dataset = _head(idx.load_idx(args.images, args.labels), args.limit)
    result = _run_selection(dataset, args.grid, _train_config(args), args.out)
    if args.test_images and args.test_labels:
        # the model just written, still in memory; IDX data is always 2-D
        test = _head(idx.load_idx(args.test_images, args.test_labels), args.test_limit)
        err, _, _ = evaluate(result.final_params, test)
        print(f"test accuracy: {1.0 - err:.4f} on {len(test)} samples")
    return 0


def _cmd_export_csv(args) -> int:
    dataset = dataio.load_dataset(args.data)
    dataio.dataset_to_csv(dataset, args.out)
    print(f"wrote {len(dataset)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--nk", type=int, required=True, help="training samples per class")
    p.add_argument("--m", type=int, required=True, help="sampling frequency (grid points)")
    p.add_argument("--test-nk", type=int, default=0, help="also write a test set of this size")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="select hyperparameters and train on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True, help="JSON file of candidate lists")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="write per-sample predictions to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="print error rate and confusion matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--c0", type=float, default=None, help="also report truncated cross-entropy")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("benchmark", help="replicated end-to-end benchmark of one model")
    p.add_argument("--model-id", required=True)
    p.add_argument("--nk", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-nk", type=int, default=None)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("mnist", help="train on IDX image data end to end")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-images")
    p.add_argument("--test-labels")
    p.add_argument("--limit", type=int, default=0, help="use only the first N training images")
    p.add_argument("--test-limit", type=int, default=0)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(func=_cmd_mnist)

    p = sub.add_parser("export-csv", help="dump a dataset file to readable CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_csv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (FdnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
