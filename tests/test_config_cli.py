"""Config file parsing, end-to-end CLI flows on tiny synthetic datasets, and
what importing the package loads."""

import os
import pkgutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import gafnet
from gafnet import cli, config, dsp, gaf, model, optim


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
    ])
    def test_value_errors_name_the_line_and_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^config line 1: {key}: "):
            config.parse_config_text(f"{key} = {value}\n")


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
        for name in ("model.bin", "history.csv", "report.txt", "config.txt"):
            assert (out / name).exists(), name
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

    def test_eval_wrong_series_length_is_data_error(self, workspace, tmp_path):
        _, train, test, cfg = workspace
        out = tmp_path / "run"
        assert cli.main([
            "train", "--dataset", "ucr", "--train", str(train), "--test", str(test),
            "--config", str(cfg), "--out", str(out),
        ]) == 0
        other = write_ucr(tmp_path / "short.tsv", 4, 10, seed=4)
        assert cli.main([
            "eval", "--model", str(out / "model.bin"), "--dataset", "ucr", "--test", str(other),
            "--config", str(cfg),
        ]) == 2

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
    # scipy.signal is imported by the filter functions when they run: loading
    # it and scipy.stats with the package took about 1.3 s and 69 MB of RSS
    # in every process (scipy 1.17)
    modules = ["gafnet." + m.name for m in pkgutil.iter_modules(gafnet.__path__)]
    assert "gafnet.cli" in modules
    code = f"import sys; import {', '.join(modules)}; print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gafnet.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert not {"scipy.signal", "scipy.stats"} & set(loaded), loaded
