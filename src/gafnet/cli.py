"""Command-line entry point.

Subcommands:
    gaf     -- export GAF images of a UCR file as PGM files
    train   -- full pipeline: preprocess, train, evaluate, persist artifacts
    eval    -- evaluate a saved model on a test set
    ablate  -- train every model variant over multiple seeds, print a table

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 runtime error
(any other exception, a bare ValueError included).
Diagnostics go to stderr; stdout stays machine-parseable.
"""

import os

# One BLAS thread unless the user set another count, before numpy loads: a
# trained model.bin's bytes depend on the thread count, and a second thread
# did not speed up training on a 2-CPU machine. Only the command line does
# this; importing the library modules leaves the environment alone, and a
# process that loaded numpy before this module keeps the count numpy started
# with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import shutil
import sys
import tempfile
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import data, gaf, metrics, model as model_mod, optim, pipeline
from .config import RunConfig, config_to_text, load_config_file
from .errors import DataFormatError
from .model import VARIANTS

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_RUNTIME = 0, 1, 2, 3

# glibc's mallopt parameters (malloc.h) and the values main sets: the
# largest that glibc's dynamic thresholds reach on their own.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES, TRIM_THRESHOLD_BYTES = 32 * 2**20, 64 * 2**20


def _libc():
    """The C library the process runs on, or None where ctypes cannot load it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _fix_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds at their dynamic maxima. A
    training step frees everything it allocated, so at the dynamic trim
    threshold (twice the largest mapped block freed so far, about 10 MB
    training at batch 8, w=140) glibc hands the free top of the heap back
    after every backward pass and the next forward faults it in again. A
    C library without `mallopt` is left as it is. Only the command line does
    this; importing the library modules leaves malloc alone."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # so that `main` returns EXIT_USAGE instead of exiting
        raise argparse.ArgumentError(None, message)


def _seed_list(text: str) -> List[int]:
    """The `--seeds` value: a non-empty comma-separated list of integers."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integer seeds, got {text!r}")
    return seeds


def _build_parser() -> _Parser:
    parser = _Parser(prog="gafnet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gaf = sub.add_parser("gaf", help="export GAF images of a UCR file")
    p_gaf.add_argument("--input", required=True, help="UCR text file")
    p_gaf.add_argument("--out-dir", required=True)
    p_gaf.add_argument("--limit", type=int, default=None, help="export at most N series")
    p_gaf.set_defaults(run=cmd_gaf, config=None)  # gaf reads no config file

    def add_dataset_args(p, need_train=True):
        p.add_argument("--dataset", choices=("ucr", "wfdb"), required=True)
        if need_train:
            p.add_argument("--train", required=True, help="UCR file or comma-separated WFDB record prefixes")
        p.add_argument("--test", required=not need_train, help="UCR file or WFDB record prefixes"  # eval has no data to split
                       + (" (wfdb: omit for a seeded 80/20 split)" if need_train else ""))
        p.add_argument("--config", default=None, help="key = value config file")

    p_train = sub.add_parser("train", help="train a model and evaluate on the test split")
    add_dataset_args(p_train)
    p_train.add_argument("--seed", type=int, default=None, help="overrides train.seed")
    p_train.add_argument("--out", required=True, help="run directory for model/history/report/config")
    p_train.add_argument("--variant", choices=VARIANTS, default="full")
    p_train.set_defaults(run=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    add_dataset_args(p_eval, need_train=False)
    p_eval.set_defaults(run=cmd_eval)

    p_abl = sub.add_parser("ablate", help="train all variants over several seeds")
    add_dataset_args(p_abl)
    p_abl.add_argument("--seeds", type=_seed_list, required=True, help="comma-separated seed list")
    p_abl.set_defaults(run=cmd_ablate)
    return parser


def _on_vocabulary(ds: data.Dataset, class_names: List[str]) -> data.Dataset:
    """Relabel `ds` onto `class_names` (the training set's, or those stored in
    the model file), matching classes by name: `load_ucr` numbers the classes
    of each file on its own."""
    unseen = [name for name in ds.class_names if name not in class_names]
    if unseen:
        raise DataFormatError(f"test classes {unseen} do not occur in the training data")
    ids = np.array([class_names.index(name) for name in ds.class_names], dtype=np.int64)
    return replace(ds, labels=ids[ds.labels], class_names=class_names)


def _scorable(test_ds: data.Dataset) -> data.Dataset:
    """`test_ds`, once it holds at least two classes: macro AUC is undefined
    on one, so a run stops here, before it trains or predicts anything."""
    if np.unique(test_ds.labels).size < 2:
        raise DataFormatError("the test split holds fewer than two classes: its macro AUC is undefined")
    return test_ds


def _load(args, cfg: RunConfig, spec: str):
    """One split and the preprocessing it gets. UCR: one file of curated
    series, unfiltered, whole-series windows unless the config sets one.
    WFDB: the pooled beats of comma-separated record prefixes, which arrive
    pre-windowed from beat extraction, each filtered and normalized as its
    own signal."""
    if args.dataset == "ucr":
        return data.load_ucr(spec, fs=cfg.fs), cfg.preprocess
    window = cfg.preprocess.window or 360  # one second at 360 Hz
    beats = data.concat_datasets([data.load_wfdb_record(p.strip(), window=window) for p in spec.split(",") if p.strip()])
    return beats, replace(cfg.preprocess, enable_filter=True, window=None, overlap=0)


def _train_and_test(args, cfg: RunConfig):
    """Returns the train and test splits of a train or ablate run, the test
    split on the training class names, and the preprocessing they get."""
    train_ds, pre = _load(args, cfg, args.train)
    if args.test:
        test_ds = _on_vocabulary(_load(args, cfg, args.test)[0], train_ds.class_names)
        if test_ds.fs != train_ds.fs:
            raise DataFormatError(f"the test split is sampled at {test_ds.fs:g} Hz, the training split at {train_ds.fs:g} Hz")
    elif args.dataset == "wfdb":
        train_ds, test_ds = data.stratified_split(train_ds, 0.8, cfg.train.seed)
    else:
        raise DataFormatError(f"{args.command} requires a test split (--test, or wfdb records to split)")
    return train_ds, _scorable(test_ds), pre


def cmd_gaf(args, cfg: RunConfig) -> int:
    ds = data.load_ucr(args.input)
    os.makedirs(args.out_dir, exist_ok=True)
    limit = len(ds) if args.limit is None else max(0, args.limit)
    for row in range(min(limit, len(ds))):
        # the image the model reads, made a row at a time so memory stays bounded
        matrix = gaf.gaf_images(ds.values[row:row + 1])[0]
        label = ds.class_names[ds.labels[row]]
        gaf.export_image(matrix, os.path.join(args.out_dir, f"{row}_{label}.pgm"))
    print(f"exported {min(limit, len(ds))} images to {args.out_dir}")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    # before any loading or training: --out, or the nearest of its ancestors that exists, must be a directory
    existing = os.path.abspath(args.out)
    while not os.path.exists(existing):  # ends at the root at the latest
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        inside = "" if existing == os.path.abspath(args.out) else f" is inside {existing}, which"
        raise argparse.ArgumentError(None, f"--out {args.out}{inside} exists and is not a directory")
    if args.seed is not None:
        cfg.train.seed = args.seed
    train_ds, test_ds, pre = _train_and_test(args, cfg)

    model_cfg = cfg.model.to_model_config(train_ds.num_classes, variant=args.variant)
    train_inputs = pipeline.prepare_inputs(train_ds, pre, need_images=model_cfg.uses_spatial)
    test_inputs = pipeline.prepare_inputs(test_ds, pre, need_images=model_cfg.uses_spatial)

    result, report = pipeline.train_and_evaluate(model_cfg, train_inputs, test_inputs, cfg.train)

    # the four run files are written into a fresh sibling directory and then
    # renamed into --out, so a failed write leaves --out as it was
    parent, name = os.path.split(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{name}.", suffix=".tmp", dir=parent)
    try:
        model_mod.save_model(os.path.join(stage, "model.bin"), model_cfg, train_inputs.segs.shape[1],
                             result.params, train_ds.class_names)
        optim.write_history_csv(os.path.join(stage, "history.csv"), result.history)
        report_text = metrics.format_report(report)
        model_mod.write_atomically(os.path.join(stage, "report.txt"), (report_text + "\n").encode("utf-8"))
        model_mod.write_atomically(os.path.join(stage, "config.txt"), config_to_text(cfg).encode("utf-8"))
        os.makedirs(args.out, exist_ok=True)
        for file_name in os.listdir(stage):
            os.replace(os.path.join(stage, file_name), os.path.join(args.out, file_name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(report_text)
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    model_cfg, stored, params = model_mod.load_model(args.model)
    test_ds, pre = _load(args, cfg, args.test)
    test_ds = _scorable(_on_vocabulary(test_ds, stored.class_names))
    window = pre.window or test_ds.series_length  # the segment length, before any image is built
    if window != stored.input_len:
        raise DataFormatError(f"model expects segments of length {stored.input_len}, test data has {window}")
    test_inputs = pipeline.prepare_inputs(test_ds, pre, need_images=model_cfg.uses_spatial)
    print(metrics.format_report(pipeline.evaluate(params, model_cfg, test_inputs)))
    return EXIT_OK


def cmd_ablate(args, cfg: RunConfig) -> int:
    train_ds, test_ds, pre = _train_and_test(args, cfg)
    train_inputs = pipeline.prepare_inputs(train_ds, pre)
    test_inputs = pipeline.prepare_inputs(test_ds, pre)

    print("variant,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std")
    for variant in VARIANTS:
        model_cfg = cfg.model.to_model_config(train_ds.num_classes, variant=variant)
        reports = [pipeline.train_and_evaluate(model_cfg, train_inputs, test_inputs, replace(cfg.train, seed=seed))[1]
                   for seed in args.seeds]
        cells = [variant]
        for name in ("accuracy", "macro_f1", "macro_auc"):
            values = [getattr(report, name) for report in reports]
            cells += [f"{np.mean(values):.4f}", f"{np.std(values):.4f}"]
        print(",".join(cells))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    _fix_malloc_thresholds()
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig() if args.config is None else load_config_file(args.config)
        return args.run(args, cfg)
    except argparse.ArgumentError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError) as e:  # a ConfigError is a DataFormatError
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # anything else is a runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
