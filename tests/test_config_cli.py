"""Config file parsing, end-to-end CLI flows on tiny synthetic datasets, and
what importing the package loads."""

import errno
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import gafnet
from gafnet import cli, config, dsp, gaf, model, optim
from gafnet.errors import ConfigError, DataFormatError


TINY_MODEL_CONFIG = """\
# small network so CLI tests stay fast
model.cnn1d_layers = 4:3
model.lstm_hidden = 3
model.cnn2d_layers = 4:3:2
model.groups = 2
model.d_attn = 4
model.mlp_hidden = 8
train.epochs = 2
train.batch_size = 4
"""


def write_ucr(path, n, w, seed, num_classes=2):
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        label = i % num_classes
        series = rng.standard_normal(w) * 0.2 + label * 2.0
        lines.append("\t".join([str(label + 1)] + [f"{v:.6f}" for v in series]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def workspace(tmp_path):
    train = write_ucr(tmp_path / "train.tsv", 8, 16, seed=0)
    test = write_ucr(tmp_path / "test.tsv", 4, 16, seed=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_MODEL_CONFIG)
    return tmp_path, train, test, cfg


class TestConfigText:
    def test_defaults_round_trip(self):
        text = config.config_to_text(config.RunConfig())
        cfg = config.parse_config_text(text)
        assert config.config_to_text(cfg) == text

    def test_model_keys_are_model_config_defaults(self):
        text = config.config_to_text(config.RunConfig())
        assert [line for line in text.splitlines() if line.startswith("model.")] == [
            "model.cnn1d_layers = 32:7,64:5",
            "model.lstm_hidden = 64",
            "model.cnn2d_layers = 16:3:2,32:3:2,64:3:2",
            "model.groups = 8",
            "model.d_attn = 16",
            "model.mlp_hidden = 128",
        ]
        settings = config.ModelSettings()
        assert settings.to_model_config(5, variant="gaf_only") == model.ModelConfig(num_classes=5, variant="gaf_only")

    def test_override_values(self):
        cfg = config.parse_config_text(
            "train.epochs = 7\nschedule.eta0 = 0.01\npreprocess.window = 32\ndata.fs = 180.0\n"
        )
        assert cfg.train.epochs == 7
        assert cfg.train.schedule.eta0 == 0.01
        assert cfg.preprocess.window == 32
        assert cfg.fs == 180.0

    def test_layer_syntax(self):
        cfg = config.parse_config_text("model.cnn1d_layers = 8:5,16:3\nmodel.cnn2d_layers = 4:3:1\n")
        assert cfg.model.cnn1d_layers == ((8, 5), (16, 3))
        assert cfg.model.cnn2d_layers == ((4, 3, 1),)

    def test_comments_and_blank_lines(self):
        cfg = config.parse_config_text("# comment\n\ntrain.seed = 3  # trailing\n")
        assert cfg.train.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config.parse_config_text("train.bogus = 1\n")
        with pytest.raises(ValueError):
            config.parse_config_text("nosection.x = 1\n")

    def test_undotted_key_rejected(self):
        with pytest.raises(ValueError):
            config.parse_config_text("epochs = 7\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError):
            config.parse_config_text("preprocess.enable_filter = yes\n")

    def test_invalid_value_caught_by_invariants(self):
        with pytest.raises(ValueError):
            config.parse_config_text("train.epochs = 0\n")

    @pytest.mark.parametrize("key, value", [
        ("train.val_fraction", "1.0"), ("train.val_fraction", "1.5"), ("train.val_fraction", "-0.2"),
        ("train.val_fraction", "nan"), ("schedule.total_steps", "-5"),
    ])
    def test_out_of_range_training_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key.split(".")[1]):
            config.parse_config_text(f"{key} = {value}\n")

    def test_none_window(self):
        cfg = config.parse_config_text("preprocess.window = 32\npreprocess.window = none\n")
        assert cfg.preprocess.window is None

    def test_load_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("train.seed = 11\n")
        assert config.load_config_file(path).train.seed == 11


# a value other than the default for every key, in config_to_text's order
EVERY_KEY_CONFIG = """\
preprocess.f_l = 0.7
preprocess.f_h = 35.5
preprocess.order = 3
preprocess.window = 48
preprocess.overlap = 8
preprocess.filter_mode = forward-backward
preprocess.enable_filter = true
model.cnn1d_layers = 8:5,16:3
model.lstm_hidden = 12
model.cnn2d_layers = 4:3:1,8:5:2
model.groups = 4
model.d_attn = 6
model.mlp_hidden = 32
train.epochs = 7
train.batch_size = 9
train.seed = 5
train.checkpoint_policy = last
train.val_fraction = 0.25
schedule.kind = cosine
schedule.eta0 = 0.01
schedule.decay = 0.5
schedule.total_steps = 100
data.fs = 180.0
"""


class TestConfigKeys:
    def test_keys_are_the_fields_that_hold_no_nested_config(self):
        written = [line.split(" = ")[0] for line in config.config_to_text(config.RunConfig()).splitlines()]
        expected = (
            [f"preprocess.{f.name}" for f in fields(dsp.PreprocessConfig)]
            + [f"model.{f.name}" for f in fields(config.ModelSettings)]
            + [f"train.{f.name}" for f in fields(optim.TrainConfig) if f.name != "schedule"]
            + [f"schedule.{f.name}" for f in fields(optim.ScheduleConfig)]
            + ["data.fs"]
        )
        assert sorted(written) == sorted(expected)

    def test_every_key_set_round_trips_byte_identical(self):
        defaults = config.config_to_text(config.RunConfig()).splitlines()
        lines = EVERY_KEY_CONFIG.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [line.split(" = ")[0] for line in defaults]
        assert not set(lines) & set(defaults)  # no key keeps its default
        assert config.config_to_text(config.parse_config_text(EVERY_KEY_CONFIG)) == EVERY_KEY_CONFIG

    @pytest.mark.parametrize("key", [
        "train.epochs", "schedule.eta0", "model.lstm_hidden", "model.cnn1d_layers", "preprocess.enable_filter",
    ])
    def test_none_is_rejected_where_the_default_is_not_none(self, key):
        with pytest.raises(ValueError, match=rf"^config line 2: {key}: "):
            config.parse_config_text(f"train.seed = 1\n{key} = none\n")

    @pytest.mark.parametrize("key, value", [
        ("train.batch_size", "8.5"), ("schedule.decay", "fast"), ("model.cnn2d_layers", "4:x:2"),
        ("preprocess.window", "wide"),
        # values that break their section's invariants, checked at their line
        ("train.epochs", "0"), ("train.checkpoint_policy", "first"), ("schedule.kind", "linear"),
        ("preprocess.window", "1"), ("preprocess.filter_mode", "twice"),
    ])
    def test_value_errors_name_the_line_and_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^config line 1: {key}: "):
            config.parse_config_text(f"{key} = {value}\n")


class TestLineChecks:
    """Each config line is checked as it is applied, its section's invariants
    too, so an error names the line and key that broke them (more cases in
    `TestConfigKeys.test_value_errors_name_the_line_and_key`)."""

    def test_window_and_overlap_are_checked_at_the_line_that_breaks_them(self):
        with pytest.raises(ConfigError, match=r"^config line 2: preprocess\.overlap: overlap must satisfy"):
            config.parse_config_text("preprocess.window = 8\npreprocess.overlap = 8\n")
        # a valid pair reached only through an invalid one is rejected at the line that made it invalid
        with pytest.raises(ConfigError, match=r"^config line 2: preprocess\.overlap: "):
            config.parse_config_text("preprocess.window = 4\npreprocess.overlap = 6\npreprocess.window = 16\n")
        # an overlap set before its window is checked once the window is set
        cfg = config.parse_config_text("preprocess.overlap = 6\npreprocess.window = 16\n")
        assert (cfg.preprocess.window, cfg.preprocess.overlap) == (16, 6)
        with pytest.raises(ConfigError, match=r"^config line 2: preprocess\.window: "):
            config.parse_config_text("preprocess.overlap = 6\npreprocess.window = 4\n")

    def test_model_keys_are_checked_together_by_to_model_config(self):
        # groups = 3 does not divide the default lstm_hidden's 128 features, but the
        # keys after it make a valid model: the cross-key rule is not a line's
        settings = config.parse_config_text("model.groups = 3\nmodel.lstm_hidden = 3\nmodel.cnn2d_layers = 6:3:2\n").model
        assert settings.to_model_config(num_classes=2).groups == 3


class TestFiniteValues:
    """A learning rate, decay or sampling frequency that is NaN, infinite or
    out of range is a config error: from the constructors, from config text
    (naming the line and key, as for a non-finite value of any float key)
    and from the command line (exit 2)."""

    @pytest.mark.parametrize("kwargs", [{"eta0": float("nan")}, {"decay": float("nan")}, {"eta0": 0.0},
                                        {"decay": -1.0}, {"eta0": float("inf")}, {"decay": float("inf")}])
    def test_schedule_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            optim.ScheduleConfig(**kwargs)

    @pytest.mark.parametrize("fs", [float("nan"), float("inf"), 0.0, -360.0])
    def test_run_config_constructor_rejects_fs(self, fs):
        with pytest.raises(ValueError, match="sampling frequency"):
            config.RunConfig(fs=fs)

    @pytest.mark.parametrize("key, value", [
        ("schedule.eta0", "nan"), ("schedule.decay", "nan"), ("schedule.eta0", "-inf"), ("data.fs", "nan"),
        ("data.fs", "inf"), ("data.fs", "0"), ("data.fs", "-360"), ("preprocess.f_h", "nan"),
    ])
    def test_config_text_names_the_line_and_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^config line 2: {key}: "):
            config.parse_config_text(f"train.seed = 1\n{key} = {value}\n")

    @pytest.mark.parametrize("key", ["data.fs", "schedule.eta0"])
    def test_cli_exits_with_data_error(self, workspace, capsys, key):
        tmp_path, train, test, _ = workspace
        bad = tmp_path / "nan.cfg"
        bad.write_text(TINY_MODEL_CONFIG + f"{key} = nan\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "y"),
        ]) == 2
        assert f"config line 10: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "y").exists()


class TestErrorTypes:
    """Config errors have their own type, a `DataFormatError` (exit 2), and
    both are `ValueError`s; any other `ValueError` is a runtime failure
    (exit 3)."""

    @pytest.mark.parametrize("text", [
        "train.epochs\n", "epochs = 3\n", "train.nonexistent = 1\n", "train.epochs = many\n",
        "train.epochs = 0\n", "schedule.kind = linear\n", "preprocess.filter_mode = twice\n", "data.fs = -1\n",
    ])
    def test_config_text_raises_config_error(self, text):
        with pytest.raises(ConfigError) as info:
            config.parse_config_text(text)
        assert isinstance(info.value, DataFormatError) and isinstance(info.value, ValueError)

    def test_model_settings_raise_config_error(self):
        settings = config.parse_config_text("model.groups = 7\n").model
        with pytest.raises(ConfigError, match="groups must divide"):
            settings.to_model_config(num_classes=2)

    @pytest.mark.parametrize("line, message", [
        ("preprocess.window = 32", "window 32 longer than signal 16"),
        ("model.groups = 3", "groups must divide"),
    ])
    def test_settings_that_do_not_fit_the_data_exit_2(self, workspace, capsys, line, message):
        tmp_path, train, test, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_MODEL_CONFIG + line + "\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "run"),
        ]) == 2
        assert message in capsys.readouterr().err

    def test_one_sample_series_is_data_error(self, workspace, capsys):
        tmp_path, _, _, cfg = workspace
        short = tmp_path / "short.tsv"
        short.write_text("1\t0.5\n2\t0.7\n1\t0.1\n2\t0.9\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(short), "--test", str(short),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 2
        assert "data error: normalize requires at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("w, code", [(3, 2), (15, 0)])
    def test_series_too_short_for_the_model_exits_2(self, tmp_path, capsys, w, code):
        # the paper-default model's three stride-2 3x3 convolutions take 15 samples or more
        train = write_ucr(tmp_path / "train.tsv", 8, w, seed=0)
        cfg = tmp_path / "default_model.cfg"
        cfg.write_text("train.epochs = 1\ntrain.batch_size = 4\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(train),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == code
        message = "data error: windows of 3 samples are too short for the model: its 2D convolutions need at least 15"
        assert (message in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("fs", ["inf", "1e400", "nan"])
    def test_wfdb_record_with_non_finite_fs_exits_2(self, workspace, capsys, fs):
        # before the filter design sees it: an infinite fs made an unstable design (exit 3), a NaN one blamed the cutoffs
        tmp_path, _, _, cfg = workspace
        (tmp_path / "rec.hea").write_text(f"rec 2 {fs} 3000\nrec.dat 212 200 11 1024 0 0 0 MLII\nrec.dat 212 200 11 1024 0 0 0 V5\n")
        (tmp_path / "rec.dat").write_bytes(np.random.default_rng(0).integers(0, 256, 9000, dtype=np.uint8).tobytes())
        words = [(1 if i % 2 else 5) << 10 | (400 if i == 0 else 300) for i in range(8)] + [0]
        (tmp_path / "rec.atr").write_bytes(np.array(words, dtype="<u2").tobytes())
        assert cli.main([
            "train", "--dataset", "wfdb", "--train", str(tmp_path / "rec"),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 2
        assert "data error: header must declare at least one signal, a finite fs > 0" in capsys.readouterr().err

    def test_value_error_inside_the_model_is_runtime_error(self, workspace, capsys, monkeypatch):
        tmp_path, train, test, cfg = workspace

        def broken_forward(*args, **kwargs):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(model, "forward", broken_forward)
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 3
        assert "runtime error: operands could not be broadcast" in capsys.readouterr().err


class TestMallocThresholds:
    """`main` fixes glibc's mmap and trim thresholds once per call, through
    the C library's `mallopt`, and leaves a C library without it alone."""

    def test_main_sets_both_thresholds_once(self, monkeypatch, workspace):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli, "_libc", lambda: type("Libc", (), {"mallopt": staticmethod(mallopt)})())
        tmp_path, train, test, cfg = workspace
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 0
        assert calls == [(cli.M_MMAP_THRESHOLD, 32 * 2**20), (cli.M_TRIM_THRESHOLD, 64 * 2**20)]
        assert cli.main(["train", "--bogus"]) == 1  # before the arguments are parsed
        assert len(calls) == 4

    @pytest.mark.parametrize("libc", [None, object()], ids=["no-libc", "no-mallopt"])
    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch, workspace, libc):
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        tmp_path, train, test, cfg = workspace
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 0

    def test_glibc_parameter_numbers(self):
        # malloc.h: M_TRIM_THRESHOLD -1, M_MMAP_THRESHOLD -3
        assert (cli.M_TRIM_THRESHOLD, cli.M_MMAP_THRESHOLD) == (-1, -3)


class TestCliGaf:
    def test_export(self, tmp_path):
        src = write_ucr(tmp_path / "d.tsv", 3, 12, seed=2)
        out = tmp_path / "imgs"
        assert cli.main(["gaf", "--input", str(src), "--out-dir", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["0_1.pgm", "1_2.pgm", "2_1.pgm"]
        assert (out / "0_1.pgm").read_bytes().startswith(b"P5\n12 12\n255\n")

    def test_limit(self, tmp_path):
        src = write_ucr(tmp_path / "d.tsv", 5, 12, seed=3)
        out = tmp_path / "imgs"
        assert cli.main(["gaf", "--input", str(src), "--out-dir", str(out), "--limit", "2"]) == 0
        assert len(list(out.iterdir())) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["gaf", "--input", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path)]) == 2

    def test_infinite_label_is_data_error(self, tmp_path):
        src = tmp_path / "d.tsv"
        src.write_text("1\t0.5\t1.5\ninf\t2.0\t3.0\n")
        assert cli.main(["gaf", "--input", str(src), "--out-dir", str(tmp_path / "imgs")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_series_value_is_data_error(self, tmp_path, capsys, value):
        src = tmp_path / "d.tsv"
        src.write_text(f"1\t0.5\t1.5\n2\t{value}\t3.0\n")
        out = tmp_path / "imgs"
        assert cli.main(["gaf", "--input", str(src), "--out-dir", str(out)]) == 2
        assert "d.tsv:2: non-finite series value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_exports_the_image_the_model_reads(self, tmp_path):
        # at w=140 this seed includes a series whose pixels from the float64
        # arccos form differ from the model's image (numpy 2.4, OpenBLAS)
        src = write_ucr(tmp_path / "d.tsv", 8, 140, seed=21)
        out = tmp_path / "imgs"
        assert cli.main(["gaf", "--input", str(src), "--out-dir", str(out)]) == 0
        values = np.array([[float(v) for v in line.split("\t")[1:]] for line in src.read_text().splitlines()])
        paths = sorted(out.iterdir(), key=lambda p: int(p.name.split("_")[0]))
        assert len(paths) == len(values)
        for row, path in enumerate(paths):
            gaf.export_image(gaf.gaf_images(values[row:row + 1])[0], tmp_path / "expected.pgm")
            assert path.read_bytes() == (tmp_path / "expected.pgm").read_bytes(), path.name


class TestCliTrainEval:
    def test_train_writes_artifacts(self, workspace, capsys):
        tmp_path, train, test, cfg = workspace
        out = tmp_path / "run"
        code = cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 0
        # the four run files, each written atomically: no `.tmp` is left beside them
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "history.csv", "model.bin", "report.txt"]
        stdout = capsys.readouterr().out
        assert stdout.startswith("accuracy:")
        assert (out / "history.csv").read_text().splitlines()[0] == "epoch,train_loss,val_accuracy,lr"
        # the persisted config reloads cleanly
        config.load_config_file(out / "config.txt")

    def test_train_reruns_byte_identical(self, workspace):
        tmp_path, train, test, cfg = workspace
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main([
                "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
                "--config", str(cfg), "--out", str(out), "--seed", "3",
            ]) == 0
            blobs.append((out / "model.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_saved_model(self, workspace, capsys):
        tmp_path, train, test, cfg = workspace
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        train_report = capsys.readouterr().out
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(test),
            "--config", str(cfg),
        ]) == 0
        eval_report = capsys.readouterr().out
        # same model, same test data -> identical report
        assert eval_report == train_report

    def test_eval_wrong_series_length_is_data_error(self, workspace, tmp_path, capsys, monkeypatch):
        _, train, test, cfg = workspace
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0

        def must_not_run(*args, **kwargs):
            raise AssertionError("GAF images were built for a test set the model cannot read")

        monkeypatch.setattr(gaf, "gaf_images", must_not_run)  # the length is checked first
        other = write_ucr(tmp_path / "short.tsv", 4, 10, seed=4)
        capsys.readouterr()
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(other),
            "--config", str(cfg),
        ]) == 2
        assert "data error: model expects segments of length 16, test data has 10" in capsys.readouterr().err

    def test_eval_without_test_is_a_usage_error(self, workspace, capsys):
        _, _, _, cfg = workspace
        assert cli.main(["eval", "--model", "model.bin", "--dataset", "ucr", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--test" in err

    def test_eval_with_the_training_window(self, workspace, tmp_path, capsys):
        # a configured window sets the segment length: 8-sample windows of the 16-sample series
        _, train, test, whole_series_cfg = workspace
        cfg = tmp_path / "window.cfg"
        cfg.write_text(TINY_MODEL_CONFIG + "preprocess.window = 8\n")
        out = tmp_path / "run"
        args = ["--dataset", "ucr", "--test", str(test), "--config", str(cfg)]
        assert cli.main(["train", "--train", str(train), "--out", str(out)] + args) == 0
        train_report = capsys.readouterr().out
        assert cli.main(["eval", "--model", str(out / "model.bin")] + args) == 0
        assert capsys.readouterr().out == train_report
        assert cli.main(["eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(test),
                         "--config", str(whole_series_cfg)]) == 2
        assert "model expects segments of length 8, test data has 16" in capsys.readouterr().err

    def test_variant_train(self, workspace):
        tmp_path, train, test, cfg = workspace
        out = tmp_path / "run_t"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out), "--variant", "time_only",
        ]) == 0
        loaded_cfg, _, _ = model.load_model(out / "model.bin")
        assert loaded_cfg.variant == "time_only"

    def test_out_of_range_config_value_is_data_error(self, workspace):
        tmp_path, train, test, cfg = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + "train.val_fraction = 1.0\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "x"),
        ]) == 2
        assert not (tmp_path / "x").exists()

    def test_train_without_test_split_is_data_error(self, workspace):
        _, train, _, cfg = workspace
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train),
            "--config", str(cfg), "--out", str(train.parent / "x"),
        ]) == 2


class TestCliTestSplitClasses:
    """A test split with one class has no macro AUC: train, eval and ablate
    stop with a data error before they train or predict anything."""

    @pytest.fixture
    def no_model_runs(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the model ran on a test split it cannot score")

        monkeypatch.setattr(optim, "train", must_not_run)
        monkeypatch.setattr(model, "predict_probs", must_not_run)

    def test_train_exits_2(self, workspace, capsys, no_model_runs):
        tmp_path, train, _, cfg = workspace
        one_class = write_labeled(tmp_path / "one_class.tsv", [2, 2, 2])
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(one_class),
            "--config", str(cfg), "--out", str(out),
        ]) == 2
        assert "fewer than two classes" in capsys.readouterr().err
        assert not (out / "model.bin").exists()

    def test_ablate_exits_2(self, workspace, no_model_runs):
        tmp_path, train, _, cfg = workspace
        one_class = write_labeled(tmp_path / "one_class.tsv", [1, 1])
        assert cli.main([
            "ablate", "--dataset", "ucr", "--train", str(train), "--test", str(one_class),
            "--config", str(cfg), "--seeds", "0",
        ]) == 2

    def test_eval_exits_2(self, workspace, capsys, monkeypatch):
        tmp_path, train, test, cfg = workspace
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        before = sorted(p.name for p in out.iterdir())
        monkeypatch.setattr(model, "predict_probs", None)  # a call would be a runtime error (3)
        one_class = write_labeled(tmp_path / "one_class.tsv", [1, 1, 1])
        capsys.readouterr()
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(one_class),
            "--config", str(cfg),
        ]) == 2
        assert "fewer than two classes" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before
        assert not (tmp_path / "model.bin").exists()

    def test_wfdb_record_of_one_beat_class_exits_2(self, workspace, capsys, no_model_runs):
        # eight normal (N) beats: the seeded 80/20 split holds one class on both sides
        tmp_path, _, _, cfg = workspace
        (tmp_path / "rec.hea").write_text("rec 2 360 3000\nrec.dat 212 200 11 1024 0 0 0 MLII\nrec.dat 212 200 11 1024 0 0 0 V5\n")
        (tmp_path / "rec.dat").write_bytes(np.random.default_rng(0).integers(0, 256, 9000, dtype=np.uint8).tobytes())
        words = [1 << 10 | (400 if i == 0 else 300) for i in range(8)] + [0]
        (tmp_path / "rec.atr").write_bytes(np.array(words, dtype="<u2").tobytes())
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "wfdb", "--train", str(tmp_path / "rec"),
            "--config", str(cfg), "--out", str(out),
        ]) == 2
        assert "fewer than two classes" in capsys.readouterr().err
        assert not out.exists()

    def test_wfdb_list_without_a_record_exits_2(self, workspace, capsys):
        tmp_path, _, _, cfg = workspace
        assert cli.main([
            "train", "--dataset", "wfdb", "--train", ",",
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 2
        assert "no datasets to concatenate" in capsys.readouterr().err


RUN_FILES = ["config.txt", "history.csv", "model.bin", "report.txt"]


class TestRunDirectory:
    """`gafnet train` leaves its --out whole or as it was: a write that fails
    part way through any of the four run files keeps a reused --out's
    previous files byte for byte, creates no new --out, and leaves no staged
    file beside it."""

    def test_out_that_is_a_file_is_a_usage_error_before_loading(self, workspace, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("trained with an --out it cannot write")

        monkeypatch.setattr(optim, "train", must_not_run)
        monkeypatch.setattr(cli.data, "load_ucr", must_not_run)
        afile = workspace[0] / "afile"
        afile.write_bytes(b"not a run directory")
        assert self.train(workspace, afile, seed=1) == 1
        assert capsys.readouterr().err.startswith(f"usage error: --out {afile} exists and is not a directory")
        assert afile.read_bytes() == b"not a run directory"

    @pytest.mark.parametrize("below", ["run", "run/deeper"])
    def test_out_inside_a_file_is_a_usage_error_before_training(self, workspace, capsys, monkeypatch, below):
        def must_not_run(*args, **kwargs):
            raise AssertionError("trained with an --out it cannot write")

        monkeypatch.setattr(optim, "train", must_not_run)
        afile = workspace[0] / "afile"
        afile.write_bytes(b"not a run directory")
        assert self.train(workspace, afile / below, seed=1) == 1
        assert capsys.readouterr().err.startswith(
            f"usage error: --out {afile / below} is inside {afile}, which exists and is not a directory")
        assert afile.read_bytes() == b"not a run directory"

    @staticmethod
    def train(workspace, out, seed):
        _, train, test, cfg = workspace
        return cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out), "--seed", str(seed),
        ])

    @staticmethod
    def fail_writing(monkeypatch, name):
        """Every write of a run file goes through `model.write_atomically`:
        the one into `name`'s `.tmp` stops part way with a full disk."""
        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if os.path.basename(path) == f"{name}.tmp":
                f.write(b"part of a run file")
                f.close()
                raise OSError(errno.ENOSPC, "No space left on device", path)
            return f

        monkeypatch.setattr(model, "open", failing_open, raising=False)

    @pytest.mark.parametrize("reused", [False, True])
    @pytest.mark.parametrize("name", RUN_FILES)
    def test_failed_write_leaves_out_as_it_was(self, workspace, capsys, monkeypatch, name, reused):
        runs = workspace[0] / "runs"
        out = runs / "run"
        before = {}
        if reused:
            assert self.train(workspace, out, seed=1) == 0
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert sorted(before) == RUN_FILES
        capsys.readouterr()
        self.fail_writing(monkeypatch, name)
        assert self.train(workspace, out, seed=2) == 3
        assert "runtime error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in runs.iterdir()) == (["run"] if reused else [])
        if reused:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_retrain_into_the_same_out(self, workspace, capsys):
        runs = workspace[0] / "runs"
        out = runs / "run"
        reports = []
        for _ in range(2):
            assert self.train(workspace, out, seed=1) == 0
            reports.append(capsys.readouterr().out)
            assert sorted(p.name for p in out.iterdir()) == RUN_FILES
            assert [p.name for p in runs.iterdir()] == ["run"]
        assert reports[0] == reports[1] == (out / "report.txt").read_text()
        (out / "notes.txt").write_text("kept")
        assert self.train(workspace, out, seed=2) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES + ["notes.txt"])
        assert "train.seed = 2" in (out / "config.txt").read_text().splitlines()


def write_wfdb_record(prefix, fs):
    """A two-channel format-212 record at `fs` Hz: 3000 samples of noise and
    eight beats 300 samples apart, V (code 5) and N (code 1) in turn."""
    with open(f"{prefix}.hea", "w") as f:
        f.write(f"rec 2 {fs} 3000\nrec.dat 212 200 11 1024 0 0 0 MLII\nrec.dat 212 200 11 1024 0 0 0 V5\n")
    with open(f"{prefix}.dat", "wb") as f:
        f.write(np.random.default_rng(0).integers(0, 256, 9000, dtype=np.uint8).tobytes())
    words = [(1 if i % 2 else 5) << 10 | (400 if i == 0 else 300) for i in range(8)] + [0]
    with open(f"{prefix}.atr", "wb") as f:
        f.write(np.array(words, dtype="<u2").tobytes())
    return str(prefix)


class TestCliSamplingRates:
    """Records at different sampling rates would be filtered with one
    record's design: train and ablate stop with a data error before any
    training."""

    @pytest.fixture
    def records(self, workspace, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the model ran on records of different sampling rates")

        monkeypatch.setattr(optim, "train", must_not_run)
        tmp_path, _, _, cfg = workspace
        return write_wfdb_record(tmp_path / "a", 360), write_wfdb_record(tmp_path / "b", 250), cfg

    @pytest.mark.parametrize("command", [["train", "--out", "run"], ["ablate", "--seeds", "0"]])
    def test_pooled_records_of_different_rates_exit_2(self, records, capsys, command):
        a, b, cfg = records
        args = [command[0], "--dataset", "wfdb", "--train", f"{a},{b}", "--config", str(cfg)] + command[1:]
        assert cli.main(args) == 2
        assert "data error: cannot concatenate datasets sampled at 360 Hz and 250 Hz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train", "--out", "run"], ["ablate", "--seeds", "0"]])
    def test_test_split_at_another_rate_exits_2(self, records, capsys, command):
        a, b, cfg = records
        args = [command[0], "--dataset", "wfdb", "--train", a, "--test", b, "--config", str(cfg)] + command[1:]
        assert cli.main(args) == 2
        assert "data error: the test split is sampled at 250 Hz, the training split at 360 Hz" in capsys.readouterr().err


def write_labeled(path, labels, w=16):
    """A UCR file with one random series per given class label."""
    rng = np.random.default_rng(len(labels))
    rows = ["\t".join([str(label)] + [f"{v:.6f}" for v in rng.standard_normal(w)]) for label in labels]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestCliUcrLabels:
    def test_test_labels_follow_train_vocabulary(self, workspace):
        tmp_path, _, _, cfg = workspace
        train = write_labeled(tmp_path / "three_train.tsv", [1, 2, 3])
        test = write_labeled(tmp_path / "three_test.tsv", [2, 3, 3])
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        confusion = [[int(v) for v in line.split()] for line in lines[lines.index("confusion:") + 1 :]]
        # truth rows in train ids: "1" -> 0, "2" -> 1, "3" -> 2
        assert [sum(row) for row in confusion] == [0, 1, 2]

    def test_test_class_missing_from_train_is_data_error(self, workspace, capsys):
        tmp_path, _, _, cfg = workspace
        train = write_labeled(tmp_path / "three_train.tsv", [1, 2, 3])
        test = write_labeled(tmp_path / "three_test.tsv", [2, 3, 4])
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ]) == 2
        assert "['4']" in capsys.readouterr().err

    def train_three_classes(self, tmp_path, cfg):
        """Trains on classes {1, 2, 3} and scores on {2, 3, 3}; returns the
        test file, the run directory and the report `train` printed."""
        train = write_labeled(tmp_path / "three_train.tsv", [1, 2, 3])
        test = write_labeled(tmp_path / "three_test.tsv", [2, 3, 3])
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        return test, out, (out / "report.txt").read_text()

    def test_eval_labels_follow_model_vocabulary(self, workspace, capsys):
        tmp_path, _, _, cfg = workspace
        test, out, train_report = self.train_three_classes(tmp_path, cfg)
        capsys.readouterr()
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(test),
            "--config", str(cfg),
        ]) == 0
        # the test file numbers "2" as its class 0; eval maps it onto the model's "2"
        assert capsys.readouterr().out == train_report

    def test_eval_class_unknown_to_model_is_data_error(self, workspace, capsys):
        tmp_path, _, _, cfg = workspace
        _, out, _ = self.train_three_classes(tmp_path, cfg)
        unknown = write_labeled(tmp_path / "unknown_test.tsv", [2, 3, 4])
        capsys.readouterr()
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(unknown),
            "--config", str(cfg),
        ]) == 2
        assert "['4']" in capsys.readouterr().err


class TestCliAblate:
    def test_table_lists_all_variants(self, workspace, capsys):
        _, train, test, cfg = workspace
        code = cli.main([
            "ablate", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--seeds", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "variant,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std"
        assert [l.split(",")[0] for l in lines[1:]] == list(model.VARIANTS)

    def test_bad_seeds_is_usage_error(self, workspace):
        _, train, test, cfg = workspace
        assert cli.main([
            "ablate", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--seeds", "a,b",
        ]) == 1

    def test_empty_seed_list_is_usage_error(self, workspace):
        _, train, test, cfg = workspace
        assert cli.main([
            "ablate", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--seeds", ",",
        ]) == 1


class TestCliUsage:
    def test_no_arguments(self):
        assert cli.main([]) == 1

    def test_unknown_flag(self):
        assert cli.main(["gaf", "--bogus", "x"]) == 1

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_config_key_is_data_error(self, workspace):
        tmp_path, train, test, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.nonexistent = 1\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "y"),
        ]) == 2

    def test_no_conv2d_layers_is_data_error(self, workspace, capsys):
        tmp_path, train, test, _ = workspace
        bad = tmp_path / "no_conv2d.cfg"
        bad.write_text(TINY_MODEL_CONFIG + "model.cnn2d_layers =\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "y"),
        ]) == 2
        assert "cnn2d_layers" in capsys.readouterr().err

    def test_none_for_a_value_that_is_not_optional_is_data_error(self, workspace, capsys):
        tmp_path, train, test, cfg = workspace
        bad = tmp_path / "none.cfg"
        bad.write_text(TINY_MODEL_CONFIG + "train.epochs = none\n")
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(bad), "--out", str(tmp_path / "y"),
        ]) == 2
        assert "config line 10: train.epochs:" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()


def test_importing_the_package_loads_no_scipy_signal_or_stats():
    # gafnet uses no scipy: loading scipy.signal and scipy.stats with the
    # package took about 1.3 s and 69 MB of RSS in every process (scipy 1.17)
    modules = ["gafnet." + m.name for m in pkgutil.iter_modules(gafnet.__path__)]
    assert "gafnet.cli" in modules
    code = f"import sys; import {', '.join(modules)}; print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gafnet.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert loaded == [], loaded


def test_filtering_loads_no_scipy():
    # the Butterworth design and the biquad cascade are numpy code: a
    # filtered preprocess in a fresh process loads no scipy module at all
    code = (
        "import sys; import numpy as np; from gafnet import dsp; "
        "dsp.preprocess(dsp.Signal(np.random.default_rng(0).standard_normal((10, 360)), fs=360.0), "
        "dsp.PreprocessConfig(enable_filter=True)); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gafnet.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs a statement and prints the BLAS thread variables as they were when
# numpy started to load, then as they are after the statement.
_NUMPY_SPY = """\
import os, sys
names = {names!r}
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in names])
sys.meta_path.insert(0, Spy())
try:
    {statement}
except SystemExit:
    pass
print(*seen[0])
print(*[os.environ.get(v) for v in names])
"""


def blas_threads(statement, **env_vars):
    """(at numpy's import, after the statement) in a fresh interpreter whose
    environment holds only the given BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=os.path.dirname(os.path.dirname(gafnet.__file__)))
    code = _NUMPY_SPY.format(names=BLAS_VARS, statement=statement)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    at_import, after = run.stdout.splitlines()
    return at_import.split(), after.split()


class TestBlasThreads:
    """The command line runs BLAS at one thread unless the user chose a
    count; the library leaves the environment alone."""

    # the `gafnet` script imports gafnet.cli; `python -m gafnet.cli` runs it as __main__
    ENTRY_POINTS = ["import gafnet.cli",
                    "import runpy; sys.argv = ['gafnet']; runpy.run_module('gafnet.cli', run_name='__main__')"]

    @pytest.mark.parametrize("statement", ENTRY_POINTS, ids=["script", "module"])
    def test_default_is_one_thread(self, statement):
        assert blas_threads(statement) == (["1", "1", "1"], ["1", "1", "1"])

    @pytest.mark.parametrize("statement", ENTRY_POINTS, ids=["script", "module"])
    def test_user_setting_is_kept(self, statement):
        got = blas_threads(statement, OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
        assert got == (["2", "1", "3"], ["2", "1", "3"])

    def test_library_modules_leave_the_environment_alone(self):
        modules = ["gafnet." + m.name for m in pkgutil.iter_modules(gafnet.__path__) if m.name != "cli"]
        unset = ["None"] * len(BLAS_VARS)
        assert blas_threads(f"import {', '.join(modules)}") == (unset, unset)
