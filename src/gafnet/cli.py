"""Command-line entry point.

Subcommands:
    gaf     -- export GAF images of a UCR file as PGM files
    train   -- full pipeline: preprocess, train, evaluate, persist artifacts
    eval    -- evaluate a saved model on a test set
    ablate  -- train every model variant over multiple seeds, print a table

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.
Diagnostics go to stderr; stdout stays machine-parseable.
"""

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import data, gaf, metrics, model as model_mod, optim, pipeline
from .config import RunConfig, config_to_text, load_config_file
from .errors import DataFormatError
from .model import VARIANTS

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_RUNTIME = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gafnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gaf = sub.add_parser("gaf", help="export GAF images of a UCR file")
    p_gaf.add_argument("--input", required=True, help="UCR text file")
    p_gaf.add_argument("--out-dir", required=True)
    p_gaf.add_argument("--limit", type=int, default=None, help="export at most N series")

    def add_dataset_args(p, need_train=True):
        p.add_argument("--dataset", choices=("ucr", "wfdb"), required=True)
        if need_train:
            p.add_argument("--train", required=True, help="UCR file or comma-separated WFDB record prefixes")
        p.add_argument("--test", default=None, help="UCR file or WFDB record prefixes (wfdb: omit for a seeded 80/20 split)")
        p.add_argument("--config", default=None, help="key = value config file")

    p_train = sub.add_parser("train", help="train a model and evaluate on the test split")
    add_dataset_args(p_train)
    p_train.add_argument("--seed", type=int, default=None, help="overrides train.seed")
    p_train.add_argument("--out", required=True, help="run directory for model/history/report/config")
    p_train.add_argument("--variant", choices=VARIANTS, default="full")

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    add_dataset_args(p_eval, need_train=False)

    p_abl = sub.add_parser("ablate", help="train all variants over several seeds")
    add_dataset_args(p_abl)
    p_abl.add_argument("--seeds", required=True, help="comma-separated seed list")
    return parser


def _load_run_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_config_file(path)


def _on_vocabulary(ds: data.Dataset, class_names: List[str]) -> data.Dataset:
    """Relabel `ds` onto `class_names`, matching classes by name: `load_ucr`
    numbers the classes of each file on its own."""
    unseen = [name for name in ds.class_names if name not in class_names]
    if unseen:
        raise DataFormatError(f"test classes {unseen} do not occur in the training data")
    ids = np.array([class_names.index(name) for name in ds.class_names], dtype=np.int64)
    return replace(ds, labels=ids[ds.labels], class_names=class_names)


def _load_datasets(args, cfg: RunConfig, train_path: Optional[str]):
    """Returns (train_ds, test_ds); train_ds is None when train_path is None."""
    if args.dataset == "ucr":
        train_ds = data.load_ucr(train_path, fs=cfg.fs) if train_path else None
        test_ds = data.load_ucr(args.test, fs=cfg.fs, split_tag="test") if args.test else None
        if train_ds is not None and test_ds is not None:
            test_ds = _on_vocabulary(test_ds, train_ds.class_names)
        return train_ds, test_ds
    # wfdb: comma-separated record prefixes; beats pooled, then split if no --test
    window = cfg.preprocess.window or 360  # one second at 360 Hz

    def load_records(spec):
        records = [data.load_wfdb_record(p.strip(), window=window) for p in spec.split(",") if p.strip()]
        return data.concat_datasets(records)

    if train_path is None:
        return None, (load_records(args.test) if args.test else None)
    pooled = load_records(train_path)
    if args.test:
        return pooled, load_records(args.test)
    return data.stratified_split(pooled, 0.8, cfg.train.seed)


def _effective_preprocess(args, cfg: RunConfig):
    # UCR series are curated (no filtering, whole-series windows by default);
    # WFDB records get the bandpass filter and already arrive pre-windowed
    # from beat extraction.
    pre = cfg.preprocess
    if args.dataset == "wfdb":
        # beats arrive pre-windowed from extraction; each beat is filtered
        # and normalized as its own signal
        pre = replace(pre, enable_filter=True, window=None, overlap=0)
    return pre


def cmd_gaf(args) -> int:
    if not os.path.exists(args.input):
        raise DataFormatError(f"input file not found: {args.input}")
    ds = data.load_ucr(args.input)
    os.makedirs(args.out_dir, exist_ok=True)
    limit = len(ds) if args.limit is None else max(0, args.limit)
    for row in range(min(limit, len(ds))):
        matrix = gaf.gaf_transform(ds.values[row])
        label = ds.class_names[ds.labels[row]]
        gaf.export_image(matrix, os.path.join(args.out_dir, f"{row}_{label}.pgm"))
    print(f"exported {min(limit, len(ds))} images to {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    train_ds, test_ds = _load_datasets(args, cfg, args.train)
    if test_ds is None:
        raise DataFormatError("train requires a test split (--test, or wfdb records to split)")
    pre = _effective_preprocess(args, cfg)

    model_cfg = cfg.model.to_model_config(train_ds.num_classes, variant=args.variant)
    train_inputs = pipeline.prepare_inputs(train_ds, pre, need_images=model_cfg.uses_spatial)
    test_inputs = pipeline.prepare_inputs(test_ds, pre, need_images=model_cfg.uses_spatial)

    result, report = pipeline.train_and_evaluate(model_cfg, train_inputs, test_inputs, cfg.train)

    os.makedirs(args.out, exist_ok=True)
    input_len = train_inputs.segs.shape[1]
    model_mod.save_model(os.path.join(args.out, "model.bin"), model_cfg, input_len, result.params)
    optim.write_history_csv(os.path.join(args.out, "history.csv"), result.history)
    report_text = metrics.format_report(report)
    with open(os.path.join(args.out, "report.txt"), "w") as f:
        f.write(report_text + "\n")
    with open(os.path.join(args.out, "config.txt"), "w") as f:
        f.write(config_to_text(cfg))
    print(report_text)
    return EXIT_OK


def cmd_eval(args) -> int:
    model_cfg, input_len, params = model_mod.load_model(args.model)
    cfg = _load_run_config(args.config)
    if args.test is None:
        raise DataFormatError("eval requires --test")
    _, test_ds = _load_datasets(args, cfg, None)
    pre = _effective_preprocess(args, cfg)
    test_inputs = pipeline.prepare_inputs(test_ds, pre, need_images=model_cfg.uses_spatial)
    if test_inputs.segs.shape[1] != input_len:
        raise DataFormatError(
            f"model expects segments of length {input_len}, test data has {test_inputs.segs.shape[1]}"
        )
    if test_ds.num_classes > model_cfg.num_classes:
        raise DataFormatError("test data has more classes than the model")
    segs, imgs = pipeline.inputs_for_variant(test_inputs, model_cfg)
    probs = model_mod.predict_probs(params, model_cfg, segs, imgs)
    report = metrics.evaluate(probs, test_inputs.labels, model_cfg.num_classes)
    print(metrics.format_report(report))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"bad --seeds value: {args.seeds!r}")
    if not seeds:
        raise _UsageError("--seeds must list at least one seed")
    train_ds, test_ds = _load_datasets(args, cfg, args.train)
    if test_ds is None:
        raise DataFormatError("ablate requires a test split")
    pre = _effective_preprocess(args, cfg)
    train_inputs = pipeline.prepare_inputs(train_ds, pre)
    test_inputs = pipeline.prepare_inputs(test_ds, pre)

    print("variant,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std")
    for variant in VARIANTS:
        model_cfg = cfg.model.to_model_config(train_ds.num_classes, variant=variant)
        accs, f1s, aucs = [], [], []
        for seed in seeds:
            train_cfg = replace(cfg.train, seed=seed)
            _, report = pipeline.train_and_evaluate(model_cfg, train_inputs, test_inputs, train_cfg)
            accs.append(report.accuracy)
            f1s.append(report.macro_f1)
            aucs.append(report.macro_auc)
        print(
            f"{variant},{np.mean(accs):.4f},{np.std(accs):.4f},"
            f"{np.mean(f1s):.4f},{np.std(f1s):.4f},{np.mean(aucs):.4f},{np.std(aucs):.4f}"
        )
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "gaf":
            return cmd_gaf(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "ablate":
            return cmd_ablate(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # anything else is a runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
