import json
import subprocess
import sys

from jacobibands.cli import main


def write_operator(tmp_path, a, b, name="op.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"a": a, "b": b}))
    return path


def test_analyze_writes_report_and_csv(tmp_path, capsys):
    op = write_operator(tmp_path, [1.0, 1.0], [0.0, 2.0])
    report = tmp_path / "report.json"
    csv_path = tmp_path / "bands.csv"
    code = main(["analyze", str(op), "--report", str(report), "--bands-csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "period p = 2" in out
    assert "band 1:" in out
    payload = json.loads(report.read_text())
    assert len(payload["bounds"]) == 13
    assert payload["potential"]["widom_factor"] == 2.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "band_index,lo,hi,length"
    assert "gap_index,lo,hi,length" in lines


def test_analyze_accepts_d_overrides(tmp_path, capsys):
    op = write_operator(tmp_path, [1.0, 1.0], [0.0, 2.0])
    assert main(["analyze", str(op), "--d-lower", "10.0", "--d-upper", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "log_sum_lower" in out


def test_verify_passes_on_good_operator(tmp_path, capsys):
    op = write_operator(tmp_path, [1.0], [0.0])
    assert main(["verify", str(op)]) == 0
    out = capsys.readouterr().out
    assert "ALL PASSED" in out
    assert "bounds_unconditional" in out


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_operator_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1.0, -1.0], "b": [0.0, 0.0]}')
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_numeric_entry_is_a_clean_error(tmp_path, capsys):
    op = write_operator(tmp_path, ["x"], [1])
    assert main(["verify", str(op)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ensemble_runs_and_reports(tmp_path, capsys):
    report = tmp_path / "ensemble.json"
    code = main(["ensemble", "--trials", "6", "--seed", "11", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ALL PASSED" in out
    payload = json.loads(report.read_text())
    assert payload["config"]["trials"] == 6
    assert len(payload["trials"]) == 6


def test_module_entry_point(tmp_path):
    op = write_operator(tmp_path, [1.0], [0.0])
    proc = subprocess.run(
        [sys.executable, "-m", "jacobibands", "verify", str(op)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ALL PASSED" in proc.stdout
