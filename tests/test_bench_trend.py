"""Units for the CI benchmark trend gate (``benchmarks/check_trend.py``).

The script lives next to the benchmarks (it is tooling, not library code),
so it is imported here by file path.  These tests cover the
behaviours CI depends on: metric extraction against the committed baseline,
history merging across runs, the >30%-regression failure gate, and results
whose benchmark reports that its bar does not apply on the host.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_trend.py"
_spec = importlib.util.spec_from_file_location("check_trend", _SCRIPT)
check_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trend)


BASELINE = {
    "_comment": "documentation entries are ignored",
    "alpha": {"speedup": 4.0, "nested.rate": 2.0},
    "beta": {"speedup": 3.0},
}


@pytest.fixture()
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "alpha.json").write_text(
        json.dumps({"speedup": 4.5, "nested": {"rate": 2.1}})
    )
    (directory / "beta.json").write_text(json.dumps({"speedup": 2.9}))
    return directory


class TestCollectMetrics:
    def test_extracts_dotted_paths(self, results_dir):
        metrics, missing = check_trend.collect_metrics(results_dir, BASELINE)
        assert metrics == {
            "alpha.speedup": 4.5,
            "alpha.nested.rate": 2.1,
            "beta.speedup": 2.9,
        }
        assert missing == []

    def test_reports_missing_files_and_paths(self, tmp_path, results_dir):
        baseline = dict(BASELINE, gamma={"speedup": 1.0})
        (results_dir / "alpha.json").write_text(json.dumps({"other": 1.0}))
        metrics, missing = check_trend.collect_metrics(results_dir, baseline)
        assert set(missing) == {"alpha.speedup", "alpha.nested.rate", "gamma.speedup"}
        assert metrics == {"beta.speedup": 2.9}

    def test_non_numeric_values_are_missing(self, results_dir):
        (results_dir / "beta.json").write_text(json.dumps({"speedup": "fast"}))
        metrics, missing = check_trend.collect_metrics(results_dir, BASELINE)
        assert "beta.speedup" in missing
        assert "beta.speedup" not in metrics


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        metrics = {"alpha.speedup": 3.0}  # 25% below baseline 4.0
        assert check_trend.find_regressions(metrics, BASELINE, 0.30) == []

    def test_regression_beyond_tolerance_fails(self):
        metrics = {"alpha.speedup": 2.7}  # >30% below baseline 4.0
        failures = check_trend.find_regressions(metrics, BASELINE, 0.30)
        assert len(failures) == 1
        assert failures[0].startswith("alpha.speedup")

    def test_untracked_metrics_are_ignored(self):
        assert check_trend.find_regressions({}, BASELINE, 0.30) == []


class TestHistoryMerge:
    def test_appends_across_runs(self, tmp_path):
        history = tmp_path / "bench-history.json"
        check_trend.merge_history(history, {"run": "1", "metrics": {"a": 1.0}})
        entries = check_trend.merge_history(
            history, {"run": "2", "metrics": {"a": 2.0}}
        )
        assert [e["run"] for e in entries] == ["1", "2"]
        assert json.loads(history.read_text()) == entries

    def test_bounded(self, tmp_path):
        history = tmp_path / "bench-history.json"
        for index in range(check_trend.MAX_HISTORY_ENTRIES + 5):
            entries = check_trend.merge_history(history, {"run": str(index)})
        assert len(entries) == check_trend.MAX_HISTORY_ENTRIES
        assert entries[-1]["run"] == str(check_trend.MAX_HISTORY_ENTRIES + 4)


class TestMain:
    def test_passes_on_current_repo_shapes(self, results_dir, tmp_path, capsys):
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps(BASELINE))
        arguments = ["--results-dir", str(results_dir)]
        arguments += ["--baseline", str(baseline_path)]
        arguments += ["--history", str(tmp_path / "history.json")]
        status = check_trend.main(arguments + ["--require-all"])
        assert status == 0
        assert "benchmark trend gate: OK" in capsys.readouterr().out

    def test_fails_on_regression(self, results_dir, tmp_path, capsys):
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps({"beta": {"speedup": 10.0}}))
        arguments = ["--results-dir", str(results_dir)]
        arguments += ["--baseline", str(baseline_path)]
        arguments += ["--history", str(tmp_path / "history.json")]
        status = check_trend.main(arguments)
        assert status == 1
        assert "REGRESSION" in capsys.readouterr().err

    @pytest.mark.parametrize("gated", [True, False, None])
    def test_floor_applies_only_where_the_bar_applied(
        self, results_dir, tmp_path, gated
    ):
        """A result that reports ``"gated": false`` is recorded, not gated."""
        payload = {"speedup": 0.5}  # far below beta's 3.0 baseline
        if gated is not None:
            payload["gated"] = gated
        (results_dir / "beta.json").write_text(json.dumps(payload))
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps(BASELINE))
        history = tmp_path / "history.json"
        arguments = ["--results-dir", str(results_dir)]
        arguments += ["--baseline", str(baseline_path)]
        arguments += ["--history", str(history), "--require-all"]
        status = check_trend.main(arguments)
        assert status == (0 if gated is False else 1)
        entry = json.loads(history.read_text())[-1]
        assert entry["metrics"]["beta.speedup"] == 0.5
        assert entry["ungated"] == (["beta"] if gated is False else [])

    def test_missing_results_fail_only_with_require_all(self, tmp_path):
        baseline_path = tmp_path / "baselines.json"
        baseline_path.write_text(json.dumps({"gamma": {"speedup": 1.0}}))
        empty = tmp_path / "results"
        empty.mkdir()
        common = ["--results-dir", str(empty)]
        common += ["--baseline", str(baseline_path)]
        common += ["--history", str(tmp_path / "history.json")]
        assert check_trend.main(common) == 0
        assert check_trend.main(common + ["--require-all"]) == 1

    def test_committed_baseline_file_is_well_formed(self):
        baseline = json.loads(
            (_SCRIPT.parent / "baselines.json").read_text(encoding="utf-8")
        )
        tracked = {
            stem: entry for stem, entry in baseline.items() if isinstance(entry, dict)
        }
        assert "model_inference_throughput" in tracked
        assert "featurization_throughput" in tracked
        assert "serving_throughput" in tracked
        for entry in tracked.values():
            for value in entry.values():
                assert isinstance(value, (int, float)) and value > 0
