"""Command-line interface: run / validate / predict."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from moqgate.cli import main
from moqgate.report import Report

ZERO_LINK = {"to_relay_ms": 0.0, "from_relay_ms": 0.0, "jitter_ms": 0.0}


def mini_scenario() -> dict:
    return {
        "name": "mini",
        "track": "cam",
        "seed": 1,
        "source": {
            "width": 16,
            "height": 16,
            "fps": 10,
            "gop_duration_ms": 1000,
            "segments": [{"kind": "constant", "level": 128, "duration_ms": 2000}],
        },
        "links": {
            "publisher": dict(ZERO_LINK),
            "clients": {
                "analyzer0": dict(ZERO_LINK),
                "gated": dict(ZERO_LINK),
                "plain": dict(ZERO_LINK),
            },
        },
        "clients": [
            {"name": "analyzer0", "analyze": ["strobe"]},
            {"name": "gated", "filter": ["strobe"]},
            {"name": "plain"},
        ],
        "checks": {"added_latency_band_ms": [890.0, 910.0]},
    }


def write_scenario(tmp_path, data) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestValidate:
    def test_bundled_scenario_is_valid(self, capsys):
        assert main(["validate", "paper_replication"]) == 0
        out = capsys.readouterr().out
        assert "paper_replication" in out

    def test_uncovered_filter_is_invalid(self, tmp_path, capsys):
        data = mini_scenario()
        data["clients"][1]["filter"] = ["alcohol"]
        rc = main(["validate", write_scenario(tmp_path, data)])
        assert rc == 2
        assert "alcohol" in capsys.readouterr().err

    def test_directory_does_not_shadow_bundled_name(self, tmp_path, monkeypatch, capsys):
        # A run's --out directory is often named after its scenario.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "paper_replication").mkdir()
        assert main(["validate", "paper_replication"]) == 0
        assert "paper_replication" in capsys.readouterr().out

    def test_unknown_name_lists_bundled(self, capsys):
        rc = main(["validate", "nope"])
        assert rc == 2
        assert "paper_replication" in capsys.readouterr().err

    def test_missing_path_is_invalid(self, tmp_path, capsys):
        path = str(tmp_path / "nowhere" / "scenario.json")
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: scenario file not found: {path}\n"

    def test_invalid_utf8_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"name": "\xff"}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario is not valid JSON: ")


class TestRun:
    def test_json_format(self, tmp_path, capsys):
        rc = main(["run", write_scenario(tmp_path, mini_scenario()), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["scenario"] == "mini"

    def test_text_is_default(self, tmp_path, capsys):
        rc = main(["run", write_scenario(tmp_path, mini_scenario())])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RESULT: PASSED" in out
        assert "[PASS] added_latency_band" in out

    def test_failing_check_exits_nonzero(self, tmp_path, capsys):
        data = mini_scenario()
        data["checks"] = {"added_latency_band_ms": [0.0, 10.0]}
        rc = main(["run", write_scenario(tmp_path, data)])
        assert rc == 1
        assert "RESULT: FAILED" in capsys.readouterr().out

    def test_out_dir_writes_all_formats(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = main(
            ["run", write_scenario(tmp_path, mini_scenario()), "--out", str(out_dir)]
        )
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        csv_text = (out_dir / "report.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 1 + 2 * 3
        assert "RESULT: PASSED" in (out_dir / "report.txt").read_text()

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_out_dir_reuses_the_stdout_rendering(self, tmp_path, capsys, monkeypatch, fmt):
        calls = []
        for method in ("to_json", "to_csv", "to_text"):
            original = getattr(Report, method)

            def counted(report, original=original, method=method):
                calls.append(method)
                return original(report)

            monkeypatch.setattr(Report, method, counted)
        out_dir = tmp_path / "reports"
        scenario = write_scenario(tmp_path, mini_scenario())
        assert main(["run", scenario, "--format", fmt, "--out", str(out_dir)]) == 0
        name = {"json": "report.json", "csv": "report.csv", "text": "report.txt"}[fmt]
        assert capsys.readouterr().out == (out_dir / name).read_text()
        assert sorted(calls) == ["to_csv", "to_json", "to_text"]

    def test_bundled_name_and_csv(self, capsys):
        rc = main(["run", "multi_category", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 * 4  # header + groups x clients

    def test_seed_override(self, tmp_path, capsys):
        path = write_scenario(tmp_path, mini_scenario())
        assert main(["run", path, "--format", "json", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["seed"] == 42
        assert main(["run", path, "--format", "json", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc = main(["run", "nope"])
        assert rc == 2
        assert "strobe_impulse" in capsys.readouterr().err

    def test_timeout_reports_partially_and_fails(self, tmp_path, capsys):
        data = mini_scenario()
        data["duration_ms"] = 500.0
        rc = main(["run", write_scenario(tmp_path, data)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "budget" in captured.err
        assert "partial" in captured.out


class TestPredict:
    def test_predict_prints_bounds(self, capsys):
        assert main(["predict", "random_delays"]) == 0
        out = capsys.readouterr().out
        assert "gated" in out
        assert "1037.0" in out

    def test_predict_without_filters(self, tmp_path, capsys):
        data = mini_scenario()
        data["clients"] = [{"name": "plain"}]
        data["links"]["clients"] = {"plain": dict(ZERO_LINK)}
        data["checks"] = {}
        assert main(["predict", write_scenario(tmp_path, data)]) == 0
        assert "no filtered clients" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "run"])
def test_source_out_of_range_is_usage_error(tmp_path, command):
    data = mini_scenario()
    data["source"]["segments"][0]["level"] = 300
    proc = subprocess.run(
        [sys.executable, "-m", "moqgate", command, write_scenario(tmp_path, data)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: scenario.source: ")
    assert "level out of range: 300" in proc.stderr
    assert "Traceback" not in proc.stderr


def run_non_ascii_under_an_ascii_locale(tmp_path, *options):
    """``moqgate run`` on a scenario with a non-ASCII track and client name,
    under the C locale with UTF-8 mode and locale coercion off; returns the
    process and the ``--out`` directory."""
    data = mini_scenario()
    data["track"] = "café"
    data["clients"][2]["name"] = "plainé"
    data["links"]["clients"]["plainé"] = data["links"]["clients"].pop("plain")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    out_dir = tmp_path / "reports"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "moqgate", "run", str(path), *options, "--out", str(out_dir)],
        capture_output=True,
        env=env,
    )
    stderr = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode in (0, 1), stderr
    assert "Traceback" not in stderr
    return proc, out_dir


def test_non_ascii_scenario_under_an_ascii_locale(tmp_path):
    """Scenario and report files are UTF-8 whatever the locale."""
    _, out_dir = run_non_ascii_under_an_ascii_locale(tmp_path, "--format", "json")
    assert "client plainé: plain" in (out_dir / "report.txt").read_bytes().decode("utf-8")
    assert "plainé" in (out_dir / "report.csv").read_bytes().decode("utf-8")


def test_default_text_format_under_an_ascii_locale(tmp_path):
    """Stdout escapes what the locale cannot encode; the files stay UTF-8."""
    proc, out_dir = run_non_ascii_under_an_ascii_locale(tmp_path)
    assert b"client plain\\xe9: plain" in proc.stdout
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.csv", "report.json", "report.txt"]
    assert "client plainé: plain" in (out_dir / "report.txt").read_bytes().decode("utf-8")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moqgate", "validate", "paper_replication"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
