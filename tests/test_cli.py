import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rankone
from rankone.acceptance import capped_build, twogen_build
from rankone.cli import _tolerance, main
from rankone.construction import gen_p_construction, heights, params_from_json, params_to_json
from rankone.series import make_admissible

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


def _half_mass_build():
    """Mass 1/2: the trailing half of each stage's indices takes the uncapped
    override chain, past 2**53, so the artifact holds decimal strings."""
    half = make_admissible({0: Fraction(1, 4), 1: Fraction(1, 4)})
    return gen_p_construction([half], J=5, seed=0)


def _uncapped_build():
    """The benchmark's uncapped coin build: stages 3 to 5 hold spacers past
    2**62, so their spacers are object arrays of Python ints."""
    coin = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})
    return gen_p_construction([coin], J=6, seed=0, eps_schedule=lambda j: Fraction(2, j + 1))


@pytest.mark.parametrize("build, digest", [
    (lambda: capped_build()[0],
     "6f3e59a8d453e91930605ec2b06fa2fae89e7c2f5bd33bf8706de5f2545dc1ba"),
    (lambda: twogen_build()[0],
     "5797d61662b8b236219f6bb137620cbcbdafb936552519f049f6987b615af614"),
    (_half_mass_build,
     "920180c1b507d583307e59ff1813c4ca5ef82ef23ed85bf145dde590dee747d2"),
    (_uncapped_build,
     "972ce21902e690863ff6ba9aae951b026d15cd7cfbb6fbcfc97272d710656050"),
], ids=["capped", "twogen", "half-mass", "uncapped"])
def test_pinned_builds_params_hash(build, digest):
    """The builds checks 4 to 6 and 9 read, a low-mass build with tail
    overrides and an uncapped build serialize to the same bytes on every
    run."""
    assert hashlib.sha256(params_to_json(build()).encode()).hexdigest() == digest


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


def test_scan_default_gaps_lie_inside_a_lower_window(built):
    """With top_stage below J the default gap range follows the scanned
    window [h_{top-1}, h_top // 4], not the full tower's."""
    cfg = scan_cfg(built, top_stage=4, m=[], gaps={"n": 2})
    res = run_cli("scan", "--config", str(cfg), "--out", "gaps4.csv",
                  "--no-timestamp", cwd=built)
    assert res.returncode == 0, res.stderr
    window = heights(params_from_json((built / "c.json").read_text()))[3]
    lines = (built / "gaps4.csv").read_text().strip().split("\n")[2:]
    ms = {int(line.split(",")[0]) for line in lines}
    assert len(ms) == 2 and all(abs(m) < window for m in ms), (ms, window)


def test_scan_through_the_top_height_exits_0(tmp_path):
    """The README's 6-stage build scanned at h6 - h5, which lies inside the
    window h6: the shift decomposes over the heights below the window only,
    so it gets no prediction, and the scan writes its OVERALL row."""
    res = run_cli("build", "--p", "1/2,1/2", "--stages", "6", "--seed", "0",
                  "--cap", "65537", "--eps", "2/7", "--out", "p.json",
                  "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    (tmp_path / "top.json").write_text(json.dumps({"params": "p.json", "m": ["h6-h5"]}))
    res = run_cli("scan", "--config", "top.json", "--out", "top.csv",
                  "--no-timestamp", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    hs = heights(params_from_json((tmp_path / "p.json").read_text()))
    lines = (tmp_path / "top.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines if ",OVERALL," in ln] == [str(hs[5] - hs[4])]


def test_scan_missing_params_config_error(built):
    cfg = scan_cfg(built, params="nope.json")
    res = run_cli("scan", "--config", str(cfg), cwd=built)
    assert res.returncode == 2
    assert res.stderr.startswith("error code=config")


DROP = object()  # a meta field a verify case removes


@pytest.mark.parametrize("args, cfg, detail", [
    (["scan", "--base-stage", "9"], {}, "stage indices out of range"),
    (["scan"], {"base_stage": 2, "panel": {"span": 500}}, "span must be in"),
    (["scan"], {"gaps": {"lo": 50, "hi": 10}}, "empty sampling range"),
    (["build", "--example", "two-column", "--stages", "5", "--base-stage", "9",
      "--out", "bad.json"], None, 'code=config detail="stage indices out of range'),
    (["semigroup", "--degree", "-1"], None, "bounds must be nonnegative"),
    (["scan"], {"panel": {"span": "x"}}, "panel span must be an integer"),
    (["build", "--example", "two-column", "--out", "bad.json"], {"stages": "5"},
     "--stages N (an integer >= 2) is required"),
    (["scan"], {"expect": {"12345": "I"}}, "not scanned: 12345"),
    (["scan"], {"panel": []}, "panel must be an object"),
    (["scan"], {"m": "h4"}, "m must be a list"),
    (["scan"], {"gaps": {"n": -3}}, "gap shift count must be >= 0"),
    (["scan"], {"panel": {"controls": 5}}, "panel controls must be a list"),
    (["scan"], {"gaps": {"seed": "abc"}}, "gaps seed must be an integer"),
    (["scan"], {"gaps": {"extra_lattice": 5}}, "gaps extra_lattice must be a list"),
    (["scan"], {"gaps": {"lo": "5"}}, "gaps lo must be an integer or null"),
    (["scan"], {"top_stage": "x"}, "top_stage must be an integer"),
    (["scan"], {"params": 5}, "params must be a string"),
    (["scan"], {"base_stage": 0}, "base_stage (0)"),
    (["scan"], {"panel": {"include_union": "no"}},
     "panel include_union must be true or false"),
    (["scan"], {"expect_all_pass": "no"}, "expect_all_pass must be true or false"),
    (["scan"], {"m": [True]}, "m must be a list, each entry an integer or a string"),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "cap": "x"},
     "cap must be an integer or null"),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "seed": "x"},
     "seed must be an integer"),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "seed": 1.5},
     "seed must be an integer"),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "starts": [1]},
     "starts must be an object"),
    (["build", "--out", "bad.json"],
     {"p": ["1/2,1/2"], "stages": 3, "starts": {"a": 1}},
     "starts must be an object, each key a decimal integer"),
    (["build", "--p", "1/2,1/2", "--stages", "3", "--cap", "-5", "--out", "bad.json"],
     None, 'code=config detail="cap must be >= 0, got -5"'),
    (["build", "--p", "1/2,1/2", "--stages", "3", "--seed", "-1", "--out", "bad.json"],
     None, 'code=config detail="seed must be >= 0, got -1"'),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "cap": -1},
     'code=config detail="cap must be >= 0, got -1"'),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "starts": {"2": 2}},
     'code=config detail="starts 2 = 2: need a stage in 1..2 and a start above min(stage, 4)"'),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 6, "starts": {"9": 3}},
     'code=config detail="starts 9 = 3: need a stage in 1..5'),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "starts": {"0": 16}},
     'code=config detail="starts 0 = 16: need a stage in 1..2'),
    (["build", "--out", "bad.json"], {"p": "1/2,1/2", "stages": 3}, "p must be a list"),
    (["semigroup"], {"p": "1/2,1/2"}, "p must be a list"),
    (["verify"], {"q": 7}, "meta stage 1 q = 7: must be in 0..0"),
    (["verify"], {"pre_sidon": DROP}, "missing field pre_sidon in meta stage 1"),
    (["verify"], {"pre_sidon": [0]}, "sidon_indices but 1 pre_sidon entries"),
    (["verify"], {"sidon_indices": [99], "pre_sidon": [0]},
     "meta stage 1 sidon_indices: each must be in 1..16"),
    (["build", "--example", "two-column", "--stages", "4", "--out", ""], None,
     "cannot write ''"),
    (["build", "--example", "two-column", "--stages", "4", "--out", "missing/bad.json"],
     None, "cannot write 'missing/bad.json'"),
    (["scan", "--out", "missing/s.csv"], {}, "cannot write 'missing/s.csv'"),
    (["semigroup", "--out", "missing/t.csv"], None, "cannot write 'missing/t.csv'"),
    (["scan"], {"gaps": {"n": 2, "lo": -500, "hi": 10 ** 12}},
     "gaps hi (1000000000000) is beyond the window"),
    (["scan"], {"gaps": {"n": 2, "lo": -10 ** 12, "hi": 500}},
     "gaps lo (-1000000000000) is beyond the window"),
    (["scan"], {"tol": float("inf")}, "bad tolerance inf"),
    (["build", "--out", "bad.json"], {"p": ["1/2,1/2"], "stages": 3, "eps": float("inf")},
     "bad tolerance inf"),
], ids=["scan-base-stage", "scan-panel-span", "scan-gap-range",
        "build-base-stage", "semigroup-degree", "scan-panel-span-type",
        "build-stages-type", "scan-expect-unscanned", "scan-panel-type",
        "scan-shifts-type", "scan-gap-count", "scan-controls-type",
        "scan-gap-seed-type", "scan-gap-lattice-type", "scan-gap-lo-type",
        "scan-top-stage-type", "scan-params-type", "scan-base-stage-zero",
        "scan-union-type", "scan-expect-all-pass-type", "scan-shift-bool",
        "build-cap-type", "build-seed-type", "build-seed-float",
        "build-starts-type", "build-starts-key", "build-cap-negative",
        "build-seed-negative", "build-cap-config-negative", "build-starts-small",
        "build-starts-stage-above", "build-starts-stage-zero", "build-p-string", "semigroup-p-string",
        "verify-meta-q", "verify-meta-pre-sidon", "verify-meta-lengths",
        "verify-meta-index", "build-out-empty", "build-out-missing-dir",
        "scan-out-missing-dir", "semigroup-out-missing-dir", "scan-gap-hi-window",
        "scan-gap-lo-window", "scan-tol-infinity", "build-eps-infinity"])
def test_bad_input_is_a_single_line_config_error(built, args, cfg, detail):
    """Inputs the library rejects exit 2 with one error line, no traceback.

    A scan config is the stock one with ``cfg`` merged in; a build or
    semigroup config is ``cfg`` alone.  A verify case checks the stock
    artifact with ``cfg`` set in its stage-1 meta record (a DROP value removes
    the key).  The error line names the fault (``detail``).
    """
    if args[0] == "verify":
        doc = json.loads((built / "c.json").read_text())
        rec = doc["meta"]["stages"][0]
        rec.update(cfg)
        for key in [k for k, v in cfg.items() if v is DROP]:
            del rec[key]
        (built / "bad_artifact.json").write_text(json.dumps(doc))
        args = [*args, "--params", "bad_artifact.json", "--only", "1"]
    elif cfg is not None and args[0] == "scan":
        out = [] if "--out" in args else ["--out", "bad.csv"]
        args = [*args, "--config", str(scan_cfg(built, **cfg)), *out]
    elif cfg is not None:
        (built / "cli_cfg.json").write_text(json.dumps(cfg))
        args = [*args, "--config", "cli_cfg.json"]
    res = run_cli(*args, cwd=built)
    try:
        assert res.returncode == 2
        lines = res.stderr.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error code="), res.stderr
        assert detail in lines[0]
        assert "Traceback" not in res.stderr
        assert not (built / "bad.json").exists()
    finally:
        # the cases share ``built``: a stray file must not fail the later ones
        (built / "bad.json").unlink(missing_ok=True)


@pytest.mark.parametrize("args, cfg, key", [
    (["scan"], {"params": "c.json", "gapz": {"n": 2}}, "'gapz' for scan"),
    (["scan"], {"params": "c.json", "gaps": {"n": 2, "sed": 1}}, "'gaps sed' for scan"),
    (["scan"], {"params": "c.json", "panel": {"spam": 3}}, "'panel spam' for scan"),
    (["build"], {"p": ["1/2,1/2"], "stages": 3, "out": "x.json"}, "'out' for build"),
    (["semigroup"], {"degre": 3}, "'degre' for semigroup"),
    (["verify", "--only", "1"], {"only": ["1"]}, "'only' for verify"),
], ids=["scan-key", "scan-section-key", "scan-panel-key", "build-flag-only-key",
        "semigroup-key", "verify-key"])
def test_unknown_config_key_is_a_config_error(tmp_path, monkeypatch, capsys,
                                              args, cfg, key):
    """A config key the subcommand does not read, such as a misspelling,
    exits 2 with one error line naming it, before any output is written.
    It used to be ignored, so the input it meant to set kept its default."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([*args, "--config", "cfg.json", "--out", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f'error code=config detail="unknown config key {key}"\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_float_tolerances_convert_as_the_library_converts(tmp_path, monkeypatch):
    """A JSON number tolerance converts by the series float rule, as the
    library's gate and scan convert a float: eps 0.2857142857142857 gates
    and records 2/7, and tol 0.3333333333333333 is 1/3.  A string is read
    as an exact decimal."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps({"p": ["1/2,1/2"], "stages": 4,
                                                 "eps": 2 / 7}))
    assert main(["build", "--config", "b.json", "--out", "p.json",
                 "--no-timestamp"]) == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert [rec["eps"] for rec in doc["meta"]["stages"]] == ["2/7"] * 3
    assert _tolerance({"tol": 1 / 3}, "tol") == Fraction(1, 3)
    assert _tolerance({"tol": "0.3333333333333333"}, "tol") == \
        Fraction(3333333333333333, 10 ** 16)


@pytest.mark.parametrize("args, cfg, line", [
    (["build", "--p", "1/2,1/2", "--stages", "3", "--eps", "-1"], None,
     "error code=config detail=\"tolerance must be positive, got '-1'\""),
    (["build", "--p", "1/2,1/2", "--stages", "3", "--eps", "abc"], None,
     "error code=usage detail=\"bad tolerance 'abc': "),
    (["build"], {"p": ["1/2,1/2"], "stages": 3, "eps": 0},
     "error code=config detail=\"tolerance must be positive, got 0\""),
    (["build"], {"p": ["1/2,1/2"], "stages": 3, "eps": "abc"},
     "error code=config detail=\"bad tolerance 'abc': "),
    (["scan"], {"tol": -1}, "error code=config detail=\"tolerance must be positive, got -1\""),
    (["scan", "--tol=-1/4"], {},
     "error code=config detail=\"tolerance must be positive, got '-1/4'\""),
    (["scan", "--tol", "-1/4"], {},
     "error code=config detail=\"tolerance must be positive, got '-1/4'\""),
    (["build", "--p", "1/2,1/2", "--stages", "3", "--eps", "-1/4"], None,
     "error code=config detail=\"tolerance must be positive, got '-1/4'\""),
    (["scan"], {"tol": "1/0"}, "error code=config detail=\"bad tolerance '1/0': "),
    (["scan", "--tol", "x"], {}, "error code=usage detail=\"bad tolerance 'x': "),
], ids=["build-eps-flag-negative", "build-eps-flag-text", "build-eps-config-zero",
        "build-eps-config-text", "scan-tol-config-negative", "scan-tol-flag-negative",
        "scan-tol-flag-negative-fraction", "build-eps-flag-negative-fraction",
        "scan-tol-config-zero-denominator", "scan-tol-flag-text"])
def test_tolerance_errors_exit_2(built, monkeypatch, capsys, args, cfg, line):
    """A tolerance that does not read as a fraction is a usage error from a
    flag and a config error from a config key; one of zero or less is a
    config error from either.  A build with --eps -1 used to double stage 1
    to 262,144 columns and exit 3, and a scan with tol -1 exited 0 with every
    shift failing."""
    monkeypatch.chdir(built)
    if args[0] == "scan":
        args = [*args, "--config", str(scan_cfg(built, **cfg))]
    elif cfg is not None:
        (built / "tol_cfg.json").write_text(json.dumps(cfg))
        args = [*args, "--config", "tol_cfg.json"]
    assert main([*args, "--out", "tol.out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err
    assert not (built / "tol.out").exists()


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


def test_verify_rejects_a_negative_recorded_draw(built):
    """A recorded pre-override draw below 0 is a config error naming the
    field; the gate re-check used to tally it."""
    doc = json.loads((built / "c.json").read_text())
    doc["meta"]["stages"][0]["pre_sidon"][0] = -1
    (built / "neg_draw.json").write_text(json.dumps(doc))
    res = run_cli("verify", "--params", "neg_draw.json", "--only", "1", cwd=built)
    assert res.returncode == 2
    assert res.stderr == ('error code=config detail="corrupt params file neg_draw.json: '
                          'meta stage 1 pre_sidon: each must be >= 0"\n')
    assert "PASS" not in res.stdout


@pytest.fixture(scope="module")
def readme_capped(tmp_path_factory):
    """The README's capped 6-stage artifact, written without a timestamp."""
    d = tmp_path_factory.mktemp("readme")
    res = run_cli("build", "--p", "1/2,1/2", "--stages", "6", "--seed", "0",
                  "--cap", "65537", "--eps", "2/7", "--out", "p.json",
                  "--no-timestamp", cwd=d)
    assert res.returncode == 0, res.stderr
    return d


@pytest.mark.parametrize("edit, detail", [
    (lambda recs: recs[4].pop("sidon_indices"), "missing field sidon_indices in meta stage 5"),
    (lambda recs: recs.pop(), "meta stages holds 4 records for 5 stages"),
    (lambda recs: recs[2].update(j=7), "meta stage 3 j = 7: must be in 3..3"),
    (lambda recs: recs[2].update(max_m=0), "meta stage 3 max_m = 0: must be in 1..255"),
], ids=["no-sidon-indices", "no-last-record", "j-7", "max-m-0"])
def test_scan_and_verify_reject_a_bad_record_alike(readme_capped, edit, detail):
    """Every command that loads an artifact rejects a stage record that does
    not fit its stage, with one identical line.  A scan that read such a
    record leniently would rank by a guessed excision correction instead."""
    doc = json.loads((readme_capped / "p.json").read_text())
    edit(doc["meta"]["stages"])
    (readme_capped / "bad.json").write_text(json.dumps(doc))
    (readme_capped / "scan_bad.json").write_text(
        json.dumps({"params": "bad.json", "m": [0, "h5", "-h5", "2*h5+h4"]}))
    for argv in (("scan", "--config", "scan_bad.json", "--out", "bad.csv"),
                 ("verify", "--params", "bad.json", "--only", "1")):
        res = run_cli(*argv, cwd=readme_capped)
        assert res.returncode == 2, argv
        assert res.stderr == f'error code=config detail="corrupt params file bad.json: {detail}"\n'


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
