"""`tools/bench_record.py`'s arithmetic on hand-made records: seed ranges,
quartiles and the parent/change comparison; and the commit it records for a
checkout, on throwaway git repositories. Nothing here runs the benchmark."""

import importlib.util
import os
import shutil
import statistics
import subprocess
import zipfile

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {"end_to_end": [
    {"name": "predict_samples_per_s", "better": "higher"},
    {"name": "total_s", "better": "lower"},
]}


def entry(values, traced_median, traced_share_median=None):
    """A checkout's record of one workload: {seed: (predict rate, total_s)}."""
    runs = [{"seed": seed, "metrics": {"predict_samples_per_s": rate, "total_s": total}}
            for seed, (rate, total) in values.items()]
    return {"runs": runs, "summary": bench_record.summarize(runs, BENCHMARK), "traced_median": traced_median,
            "traced_share_median": traced_share_median or {}}


class TestSeedRange:
    def test_first_to_last_inclusive(self):
        assert bench_record.seed_range("2101-2105") == [2101, 2102, 2103, 2104, 2105]

    def test_single_seed(self):
        assert bench_record.seed_range("7") == [7]


class TestQuartiles:
    def test_one_run_is_its_own_median_and_quartiles(self):
        assert bench_record.quartiles([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}

    def test_several_runs(self):
        # statistics.quantiles' default (exclusive) method
        assert bench_record.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5}
        assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.25, "q3": 3.75}


class TestCompare:
    BASE_RUNS = {1: (100.0, 10.0), 2: (110.0, 11.0), 3: (90.0, 9.0), 4: (105.0, 10.5), 5: (95.0, 9.5)}
    BASE = entry(BASE_RUNS, {"ops.bilstm_forward_s": 0.5, "ops.relu_s": 0.1, "dsp.design_butterworth_calls": 3})

    def compare(self, values):
        other = entry(values, {"ops.bilstm_forward_s": 0.4, "ops.relu_s": 0.10004, "dsp.design_butterworth_calls": 3})
        return bench_record.compare(self.BASE, other, BENCHMARK)

    def test_pairs_won_follow_each_metric_direction(self):
        # seed 3's rate is lower, seed 4's total higher; seed 5's total ties
        c = self.compare({1: (101.0, 9.0), 2: (111.0, 10.0), 3: (89.0, 8.0), 4: (106.0, 11.0), 5: (96.0, 9.5)})
        assert (c["predict_samples_per_s"]["pairs"], c["predict_samples_per_s"]["won"]) == (5, 4)
        assert (c["total_s"]["pairs"], c["total_s"]["won"]) == (5, 3)

    def test_only_seeds_run_by_both_are_paired(self):
        c = self.compare({1: (101.0, 9.0), 9: (500.0, 1.0)})
        assert c["predict_samples_per_s"]["pairs"] == 1 and c["predict_samples_per_s"]["won"] == 1

    def test_median_change_is_the_relative_change_whatever_is_better(self):
        # every total 10% lower: a gain for a lower-is-better metric reads negative
        c = self.compare({s: (rate, total * 0.9) for s, (rate, total) in self.BASE_RUNS.items()})
        assert c["total_s"]["median_change"] == pytest.approx(-0.1)
        assert c["total_s"]["won"] == 5
        c = self.compare({s: (rate * 1.2, total) for s, (rate, total) in self.BASE_RUNS.items()})
        assert c["predict_samples_per_s"]["median_change"] == pytest.approx(0.2)

    def test_beyond_base_quartiles_in_the_better_direction_only(self):
        # base rates: median 100, quartiles 92.5-107.5, a spread of 15
        assert self.BASE["summary"]["predict_samples_per_s"] == {"median": 100.0, "q1": 92.5, "q3": 107.5}
        shifted = {s: (rate + 16.0, total - 1.6) for s, (rate, total) in self.BASE_RUNS.items()}
        c = self.compare(shifted)
        assert c["predict_samples_per_s"]["beyond_base_quartiles"] is True
        assert c["total_s"]["beyond_base_quartiles"] is True  # spread 1.5, 1.6 lower
        c = self.compare({s: (rate + 14.0, total - 1.4) for s, (rate, total) in self.BASE_RUNS.items()})
        assert c["predict_samples_per_s"]["beyond_base_quartiles"] is False
        assert c["total_s"]["beyond_base_quartiles"] is False
        # the same distance the worse way is no gain
        c = self.compare({s: (rate - 16.0, total + 1.6) for s, (rate, total) in self.BASE_RUNS.items()})
        assert c["predict_samples_per_s"]["beyond_base_quartiles"] is False
        assert c["total_s"]["beyond_base_quartiles"] is False

    def test_per_layer_deltas_are_seconds_only(self):
        c = self.compare(self.BASE_RUNS)
        assert c["per_layer_s"] == {"ops.bilstm_forward_s": -0.1, "ops.relu_s": 0.0}


class TestLayerShares:
    """Each layer's share of its traced round tells a layer's own change from
    machine drift, which moves every layer's seconds at once."""

    RUNS = [{"ops.bilstm_forward_s": 0.6, "ops.relu_s": 0.2, "optim.steps": 46.0, "trace.round_s": 3.0},
            {"ops.bilstm_forward_s": 0.5, "ops.relu_s": 0.25, "optim.steps": 46.0, "trace.round_s": 2.5},
            {"ops.bilstm_forward_s": 0.9, "ops.relu_s": 0.2, "optim.steps": 46.0, "trace.round_s": 4.0}]

    @staticmethod
    def traced_entry(metrics):
        traced = [{"metrics": m} for m in metrics]
        median = {k: statistics.median(m[k] for m in metrics) for k in metrics[0]}
        return entry(TestCompare.BASE_RUNS, median, bench_record.layer_shares(traced))

    def test_median_share_of_each_seconds_layer(self):
        shares = bench_record.layer_shares([{"metrics": m} for m in self.RUNS])
        # the runs' bilstm shares are 0.2, 0.2 and 0.225; relu's 0.0667, 0.1 and 0.05
        assert shares == {"ops.bilstm_forward_s": pytest.approx(0.2), "ops.relu_s": pytest.approx(0.2 / 3)}

    def test_uniform_slowdown_changes_no_share(self):
        slower = [{k: v * (1.3 if k.endswith("_s") else 1.0) for k, v in m.items()} for m in self.RUNS]
        c = bench_record.compare(self.traced_entry(self.RUNS), self.traced_entry(slower), BENCHMARK)
        assert c["per_layer_share"] == {"ops.bilstm_forward_s": 0.0, "ops.relu_s": 0.0}
        assert c["per_layer_s"]["ops.bilstm_forward_s"] == pytest.approx(0.18)  # while every layer's seconds rose

    def test_a_faster_layer_lowers_its_own_share(self):
        # bilstm 0.3 s faster in every run, and the rounds with it
        faster = [dict(m, **{"ops.bilstm_forward_s": m["ops.bilstm_forward_s"] - 0.3,
                             "trace.round_s": m["trace.round_s"] - 0.3}) for m in self.RUNS]
        c = bench_record.compare(self.traced_entry(self.RUNS), self.traced_entry(faster), BENCHMARK)
        assert c["per_layer_share"]["ops.bilstm_forward_s"] < -0.08
        assert c["per_layer_share"]["ops.relu_s"] > 0.0


class TestGitRev:
    """The commit recorded for a checkout: `git describe` in a working tree,
    the export-subst stamp in a `git archive` export."""

    @pytest.fixture(autouse=True)
    def no_enclosing_repository(self, tmp_path, monkeypatch):
        # git must not find a repository above the test's directory
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))

    @staticmethod
    def git(cwd, *args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd, check=True,
                              capture_output=True, text=True).stdout.strip()

    @pytest.fixture
    def repo(self, tmp_path):
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / ".git_archival.txt").write_text("node: $Format:%H$\n")
        (repo / ".gitattributes").write_text(".git_archival.txt export-subst\n")
        self.git(repo, "init", "-q")
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-q", "-m", "one commit")
        return repo

    def test_working_tree_is_described(self, repo):
        head = self.git(repo, "rev-parse", "HEAD")
        assert bench_record.git_rev(str(repo)) == head[:12]

    def test_archive_export_reads_its_stamp(self, repo, tmp_path):
        self.git(repo, "archive", "--format=zip", "-o", str(tmp_path / "export.zip"), "HEAD")
        export = tmp_path / "export"
        with zipfile.ZipFile(tmp_path / "export.zip") as archive:
            archive.extractall(export)
        assert bench_record.git_rev(str(export)) == self.git(repo, "rev-parse", "HEAD")

    def test_unexpanded_stamp_outside_a_repository_is_no_rev(self, tmp_path):
        (tmp_path / ".git_archival.txt").write_text("node: $Format:%H$\n")
        assert bench_record.git_rev(str(tmp_path)) is None

    def test_no_stamp_outside_a_repository_is_no_rev(self, tmp_path):
        assert bench_record.git_rev(str(tmp_path)) is None
