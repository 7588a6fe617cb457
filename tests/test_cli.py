import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacobibands
from jacobibands import new_periodic
from jacobibands.cli import main
from jacobibands.ensemble import EnsembleConfig, run_trial, sample_operator, trial_to_jsonable


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


@pytest.mark.parametrize("flag", ["--d-lower", "--d-upper"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_d_override_not_finite_and_positive_is_a_clean_error(tmp_path, capsys, flag, value):
    # --d-lower 0 or -1 raised "math domain error" out of the log-sum bound;
    # nan and inf printed a row of nan or inf.
    op = write_operator(tmp_path, [1.0, 1.0], [0.0, 2.0])
    assert main(["analyze", str(op), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite and positive" in err


def test_verify_passes_on_good_operator(tmp_path, capsys):
    op = write_operator(tmp_path, [1.0], [0.0])
    report = tmp_path / "trial.json"
    assert main(["verify", str(op), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "ALL PASSED" in out
    assert "bounds_unconditional" in out
    trial = trial_to_jsonable(run_trial(new_periodic([1.0], [0.0])))
    assert report.read_text() == json.dumps(trial, indent=2) + "\n"


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_operator_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1.0, -1.0], "b": [0.0, 0.0]}')
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_numeric_entry_is_a_clean_error(tmp_path, capsys):
    op = write_operator(tmp_path, ["x"], [1])
    assert main(["verify", str(op)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000])
def test_huge_integer_entry_is_a_clean_error(tmp_path, capsys, digits):
    # 400 digits overflow a float; past 4,300 the int parser refuses the
    # literal outright. Either way it is a non-finite entry.
    op = tmp_path / "huge.json"
    op.write_text('{"a": [1' + "0" * digits + '], "b": [0]}')
    assert main(["verify", str(op)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [([1e308, 1e308], [0, 0]), ([1e200, 1e200], [0, 0]),
                                  ([1, 1], [1e308, -1e308]), ([1e-200, 1e-200], [0, 0]),
                                  ([1e300, 1e-300], [0, 0])])
def test_scales_beyond_the_float_range_are_a_clean_error(tmp_path, capsys, a, b):
    op = write_operator(tmp_path, a, b)
    assert main(["analyze", str(op)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beyond the float range" in err


_SEED3_P7 = sample_operator(EnsembleConfig(seed=3, p_min=7, p_max=7), 0)

# Operator (a, b), then the sha256 of the --report JSON, of stdout (with
# the output directory written as DIR) and of the --bands-csv file of `analyze`.
ANALYZE_DIGESTS = {
    "period2": (
        ([1.0, 1.0], [0.0, 2.0]),
        "e5cf90c030f6ea93664df42bed2dad93138d0c04b31751ed135b4f7ba0e83832",
        "966aa1f0f3bfcbc931f103866492c0054a0e62131910d0337f13148e47675f85",
        "0ea61d665746619127f95a78e1a0b76838040a9185dc08964574df2f36cf4db7",
    ),
    "free_p2": (
        ([1.0, 1.0], [0.0, 0.0]),
        "d4f4533f9f12b065b7da222dadc23b097d5cd1d755851c4ec58c32500f1c9f42",
        "308d2c19f3caee286adc83ec65222bd75d576dc0c742bd9735b8d218761ced60",
        "44c5752de58b08de8d09258dbdcba271183a4e701c44115dc9838cd9e8af2c96",
    ),
    "single_site": (
        ([1.5], [2.0]),
        "96e4c897dac95aa16906dffd2eb0cb42499581ddb9658dc92406bfd875a05aa4",
        "f543581934ff8e36789e4439824023b2bf47f1168480a9047bc4f773c309742d",
        "9e6fb19c759e7ee0e7577976b96ef3a4fc43ab993bcaec5dba0f0024748f2e29",
    ),
    "seed3_p7": (
        (list(_SEED3_P7.a), list(_SEED3_P7.b)),
        "92875468048f0de371b3712969f249499220c264ed89bf6847211e140c610f2c",
        "a37157d67e8c864829e4ab695599cb18123a111e6f6ee5df127c5c84ea4d6620",
        "9290cbd990ecf894861b3c9d57fee14e812eeffe6e126af1eeb420e4da0e076c",
    ),
}


@pytest.mark.parametrize("name", ANALYZE_DIGESTS)
def test_analyze_output_bytes_are_pinned(tmp_path, capsys, name):
    (a, b), report_sha, stdout_sha, csv_sha = ANALYZE_DIGESTS[name]
    op = write_operator(tmp_path, a, b)
    report, csv_path = tmp_path / "r.json", tmp_path / "b.csv"
    assert main(["analyze", str(op), "--report", str(report), "--bands-csv", str(csv_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "DIR")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha


def test_ensemble_runs_and_reports(tmp_path, capsys):
    report = tmp_path / "ensemble.json"
    code = main(["ensemble", "--trials", "6", "--seed", "11", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ALL PASSED" in out
    payload = json.loads(report.read_text())
    assert payload["config"]["trials"] == 6
    assert len(payload["trials"]) == 6


def test_non_finite_ensemble_range_is_a_clean_error(capsys):
    assert main(["ensemble", "--trials", "1", "--a-hi", "inf"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point(tmp_path):
    # The child imports the package under test, wherever this process found it.
    op = write_operator(tmp_path, [1.0], [0.0])
    root = str(Path(jacobibands.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jacobibands", "verify", str(op)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "ALL PASSED" in proc.stdout
