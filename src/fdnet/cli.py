"""Command-line interface.

Subcommands: simulate, train, predict, eval, benchmark, mnist, export-csv.
All randomness flows from --seed; reruns with identical inputs produce
byte-identical output files.  Exit codes: 0 success, 1 domain or parse
errors (including usage), 2 numeric failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import dataio, idx
from .errors import DomainError, FdnetError, NumericError
from .evaluation import benchmark, evaluate, predict, truncated_kl_risk
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
    # the extension of the file name only: a dot in a directory or a
    # leading dot is not one
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext}"


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
    )


def _head(dataset: Dataset, limit: int) -> Dataset:
    """The first `limit` samples of `dataset`, or all of them when 0."""
    if not limit:
        return dataset
    return replace(dataset, values=dataset.values[:limit], labels=dataset.labels[:limit])


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


def _run_selection(dataset, grid_path: str, cfg: TrainConfig, seed: int, out: str) -> SelectionResult:
    grid = dataio.load_hypergrid(grid_path)
    result = select(dataset, cfg, grid, seed)
    metadata = dataio.metadata_for(result.chosen, cfg, seed)
    dataio.save_model(result.classifier, out, metadata=metadata)
    c = result.chosen
    if grid.n_cells == 1:
        validation = "validation skipped (one candidate)"
    else:
        validation = f"validation error {result.validation_errors.min():.4f}"
    print(
        f"chosen J={c.n_scores} L={c.depth} width={c.width} dropout={c.dropout}; "
        f"{validation}; model written to {out}"
    )
    return result


def _cmd_train(args) -> int:
    # train, predict and eval read the file a row block at a time; nothing
    # is written until every block has been read and checked
    with dataio.DatasetReader(args.data) as data:
        _run_selection(data, args.grid, _train_config(args), args.seed, args.out)
    return 0


def _cmd_predict(args) -> int:
    with dataio.DatasetReader(args.data) as data:
        model = dataio.load_model(args.model)
        preds, probs = predict(model, data)
    dataio.write_predictions_csv(range(len(data)), preds, probs, args.out)
    print(f"wrote {len(data)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    with dataio.DatasetReader(args.data) as data:
        model = dataio.load_model(args.model)
        err, conf, probs = evaluate(model, data)
    # computed first, so that a refused C0 leaves no partial report
    tce = None
    if args.c0 is not None:
        tce = truncated_kl_risk(one_hot(data.labels, data.n_classes), probs, args.c0)
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
    report = benchmark(
        model,
        args.nk,
        args.m,
        grid,
        _train_config(args),
        replicates=args.reps,
        seed=args.seed,
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
    if (args.test_images is None) != (args.test_labels is None):
        raise DomainError("--test-images and --test-labels must be given together")
    dataset = _head(idx.load_idx(args.images, args.labels), args.limit)
    result = _run_selection(dataset, args.grid, _train_config(args), args.seed, args.out)
    if args.test_images is not None:
        # the model just written, still in memory; IDX data is always 2-D
        test = _head(idx.load_idx(args.test_images, args.test_labels), args.test_limit)
        err, _, _ = evaluate(result.classifier, test)
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
    except (FdnetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
