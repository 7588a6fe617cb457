import hashlib
import json
import subprocess
import sys

import pytest

from jacobibands.cli import main
from jacobibands.ensemble import EnsembleConfig, sample_operator


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


@pytest.mark.parametrize("digits", [400, 5000])
def test_huge_integer_entry_is_a_clean_error(tmp_path, capsys, digits):
    # 400 digits overflow a float; past 4,300 the int parser refuses the
    # literal outright. Either way it is a non-finite entry.
    op = tmp_path / "huge.json"
    op.write_text('{"a": [1' + "0" * digits + '], "b": [0]}')
    assert main(["verify", str(op)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_module_entry_point(tmp_path):
    op = write_operator(tmp_path, [1.0], [0.0])
    proc = subprocess.run(
        [sys.executable, "-m", "jacobibands", "verify", str(op)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ALL PASSED" in proc.stdout
