import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankone
from rankone.cli import main
from rankone.construction import params_from_json

# the directory holding the imported package, so a subprocess started in any
# working directory imports the same code
SRC_DIR = str(Path(rankone.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "rankone.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


# --- build --------------------------------------------------------------------

def test_build_example_heights_csv(tmp_path):
    res = run_cli("build", "--example", "two-column", "--stages", "4",
                  "--out", "tc.json", "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0
    rows = (tmp_path / "tc_heights.csv").read_text().strip().split("\n")
    assert rows[0] == "j,height,columns,spacer_sum"
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "3", "12", "60"]
    assert "window h_4=60" in res.stdout


def test_build_seeded_params_pinned_hash(tmp_path):
    """Same seed, same file, byte for byte (timestamp disabled)."""
    res = run_cli("build", "--p", "1/2,1/2", "--stages", "5", "--seed", "7",
                  "--out", "pin.json", "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0
    digest = hashlib.sha256((tmp_path / "pin.json").read_bytes()).hexdigest()
    assert digest == ("8de8d2cd8ba557a43e4f0312e9a775675a"
                      "6fc164a2a4df0c76d773945c4ff758")
    params = params_from_json((tmp_path / "pin.json").read_text())
    assert params.meta["seed"] == 7
    assert params.meta["sidon_policy"]["cap"] is None


def test_build_low_mass_series_marks_tail(tmp_path):
    res = run_cli("build", "--p", "1/4,1/4", "--stages", "3", "--seed", "0",
                  "--out", "half.json", "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0
    params = params_from_json((tmp_path / "half.json").read_text())
    for rec in params.meta["stages"]:
        assert set(range(rec["tail_from"], rec["r"] + 1)) <= set(rec["sidon_indices"])


def test_build_malformed_coefficients_usage_error(tmp_path):
    res = run_cli("build", "--p", "1/2,zebra", "--stages", "4", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error code=usage")


def test_build_requires_source(tmp_path):
    res = run_cli("build", "--stages", "4", cwd=tmp_path)
    assert res.returncode == 2
    assert "error code=usage" in res.stderr


def test_build_generation_failure_exit_code(tmp_path):
    # an odd window count can never hit the order-2 frequencies exactly,
    # so a 1e-9 relative gate must exhaust the growth policy
    res = run_cli("build", "--p", "1/2,1/2", "--stages", "3",
                  "--eps", "1/1000000000", "--seed", "0", cwd=tmp_path)
    assert res.returncode == 3
    assert res.stderr.startswith("error code=generation")
    assert "FAIL" in res.stderr  # frequency report dumped on stderr


def test_unknown_flag_single_line_error(tmp_path):
    res = run_cli("build", "--frobnicate", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error code=usage")
    assert len(res.stderr.strip().split("\n")) == 1


# --- scan ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliscan")
    res = run_cli("build", "--p", "1/2,1/2", "--stages", "5", "--seed", "3",
                  "--cap", "4099", "--out", "c.json", "--no-timestamp", cwd=d)
    assert res.returncode == 0
    return d


def scan_cfg(d, **over):
    cfg = {
        "params": "c.json",
        "base_stage": 3,
        "tol": "1/3",
        "m": [0, "h4", "-h4", "2*h4"],
        "semigroup": {"degree": 2, "z": 1},
    }
    cfg.update(over)
    path = d / "scan_cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_scan_expected_matches(built):
    cfg = scan_cfg(built, expect={"0": "I", "h4": "P1*", "-h4": "P1",
                                  "2*h4": "P1*^2"},
                   expect_all_pass=True)
    res = run_cli("scan", "--config", str(cfg), "--out", "s.csv",
                  "--no-timestamp", cwd=built)
    assert res.returncode == 0, res.stderr
    lines = (built / "s.csv").read_text().strip().split("\n")
    assert lines[1] == "m,id,count,normalized,delta,boundary_loss,best_match_word"
    assert any(",OVERALL," in ln for ln in lines)


def test_scan_expectation_failure_exits_1(built):
    cfg = scan_cfg(built, expect={"h4": "P1^2"})
    res = run_cli("scan", "--config", str(cfg), "--out", "s2.csv",
                  "--no-timestamp", cwd=built)
    assert res.returncode == 1
    assert res.stderr.startswith("error code=assertion")


def test_scan_reruns_byte_identical(built):
    cfg = scan_cfg(built)
    for name in ("a.csv", "b.csv"):
        assert run_cli("scan", "--config", str(cfg), "--out", name,
                       "--no-timestamp", cwd=built).returncode == 0
    assert (built / "a.csv").read_bytes() == (built / "b.csv").read_bytes()


def test_scan_skips_shifts_beyond_window(built):
    cfg = scan_cfg(built, m=[0, "3*h5"])  # 3*h5 exceeds the expansion window
    res = run_cli("scan", "--config", str(cfg), "--out", "s3.csv",
                  "--no-timestamp", cwd=built)
    assert res.returncode == 0
    assert "skipped 1 beyond window" in res.stdout


def test_scan_missing_params_config_error(built):
    cfg = scan_cfg(built, params="nope.json")
    res = run_cli("scan", "--config", str(cfg), cwd=built)
    assert res.returncode == 2
    assert res.stderr.startswith("error code=config")


@pytest.mark.parametrize("args, cfg", [
    (["scan", "--base-stage", "9"], {}),
    (["scan"], {"base_stage": 2, "panel": {"span": 500}}),
    (["scan"], {"gaps": {"lo": 50, "hi": 10}}),
    (["build", "--example", "two-column", "--stages", "5", "--base-stage", "9",
      "--out", "bad.json"], None),
    (["semigroup", "--degree", "-1"], None),
], ids=["scan-base-stage", "scan-panel-span", "scan-gap-range",
        "build-base-stage", "semigroup-degree"])
def test_bad_input_is_a_single_line_config_error(built, args, cfg):
    """Inputs the library rejects exit 2 with one error line, no traceback."""
    if cfg is not None:
        args = [*args, "--config", str(scan_cfg(built, **cfg)), "--out", "bad.csv"]
    res = run_cli(*args, cwd=built)
    assert res.returncode == 2
    lines = res.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error code="), res.stderr
    assert "Traceback" not in res.stderr
    assert not (built / "bad.json").exists()


# --- verify ----------------------------------------------------------------------

def test_verify_single_fast_criterion(tmp_path):
    res = run_cli("verify", "--only", "height-recurrence", cwd=tmp_path)
    assert res.returncode == 0
    assert "PASS height-recurrence" in res.stdout


def test_verify_aliases(tmp_path):
    res = run_cli("verify", "--only", "example1", cwd=tmp_path)
    assert res.returncode == 0
    assert "PASS level-returns" in res.stdout


def test_verify_unknown_criterion(tmp_path):
    res = run_cli("verify", "--only", "bogus", cwd=tmp_path)
    assert res.returncode == 2


def test_verify_corrupt_params_blocks_suite(tmp_path):
    (tmp_path / "bad.json").write_text("{broken")
    res = run_cli("verify", "--params", "bad.json", "--only", "1", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error code=config")
    assert "PASS" not in res.stdout


def test_verify_artifact_recheck(built):
    res = run_cli("verify", "--params", "c.json", "--only", "7", cwd=built)
    assert res.returncode == 0
    assert "stage gates re-pass" in res.stdout


# --- semigroup ---------------------------------------------------------------------

def test_semigroup_table_count():
    res = run_cli("semigroup", "--p", "1/2,1/2", "--degree", "2", "--z", "1")
    assert res.returncode == 0
    rows = [ln for ln in res.stdout.strip().split("\n") if ln]
    assert rows[0] == "index,word,support,mass,max_coeff"
    assert len(rows) == 1 + 13
    assert "total 13 elements" in res.stderr


def test_semigroup_two_generators():
    res = run_cli("semigroup", "--p", "1/2,1/2", "--p", "1/3,1/3,1/3",
                  "--degree", "4", "--z", "1")
    assert res.returncode == 0
    assert "total 106 elements" in res.stderr


# --- in-process entry point ----------------------------------------------------------

def test_main_returns_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--example", "all-limits", "--stages", "3",
                 "--out", "al.json", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "window h_3=43" in out
    assert main(["build", "--example", "all-limits"]) == 2
