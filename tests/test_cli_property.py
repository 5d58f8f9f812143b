"""Property test: generated configs and artifacts never crash the CLI.

Every run of ``rankone scan``, ``rankone semigroup`` and ``rankone verify
--params`` on drawn input either succeeds (0), fails an assertion (1) or
rejects the input (2); a failure prints exactly one ``error code=`` line and
never a traceback.  Runs ``cli.main`` in process against one tiny build.
"""
import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.cli import main  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    d = tmp_path_factory.mktemp("clifuzz")
    assert run("build", "--p", "1/2,1/2", "--stages", "4", "--seed", "3",
               "--cap", "4099", "--out", str(d / "tiny.json"),
               "--no-timestamp")[0] == 0
    return d


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code:
        errors = [ln for ln in err.splitlines() if ln.startswith("error code=")]
        assert len(errors) == 1, err


def run_config(d, subcommand, cfg, *extra):
    path = d / f"{subcommand}_cfg.json"
    path.write_text(json.dumps(cfg))
    assert_clean_exit(*run(subcommand, "--config", str(path), *extra))


# any JSON value, small, for keys drawn with the wrong type
anything = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2)
    | st.text("h1/2,-*x", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abnz", max_size=2), inner, max_size=3),
    max_leaves=5)
small = st.integers(-2, 6)
shift = st.integers(-40, 40) | st.sampled_from(
    ["0", "h3", "-h3", "2*h2+h1", "h9", "3*h4", "x", "", "+", "h0", "h4-h3",
     "-h4+h3", "h3-h2"])
word = st.sampled_from(["I", "P1", "P1*", "0", "T^1"])


@st.composite
def keys(draw, **values):
    """An object holding any subset of ``values``, well typed, and half of the
    time one key (present or not) holding any JSON value instead."""
    obj = draw(st.fixed_dictionaries({}, optional=values))
    if draw(st.booleans()):
        obj[draw(st.sampled_from(sorted(values)))] = draw(anything)
    return obj


scan_configs = keys(
    base_stage=st.integers(1, 3), top_stage=st.integers(3, 4),
    tol=st.sampled_from(["1/3", "0.25", 0.5, "x", "1/0"]),
    panel=keys(span=st.integers(1, 3), controls=st.lists(st.integers(-3, 300), max_size=3),
               include_union=st.booleans()),
    m=st.lists(shift, max_size=4),
    gaps=keys(n=st.integers(-1, 3), seed=st.integers(-1, 5),
              lo=st.none() | st.integers(-200, 200),
              hi=st.none() | st.integers(-200, 400),
              extra_lattice=st.lists(st.integers(-5, 5000), max_size=2)),
    expect=st.dictionaries(shift.map(str), word, max_size=2),
    semigroup=keys(degree=st.integers(-1, 2), z=st.integers(-1, 1)),
    a_bound=st.integers(-1, 3), z_bound=st.integers(-1, 4),
    expect_all_pass=st.booleans())

series = st.sampled_from(["1/2,1/2", "1/3,1/3,1/3", "1", "1/4,1/4", "0", "x",
                          "", "1/0", "3/2,-1/2", "1/2,1/2,1/2"])
semigroup_configs = keys(p=st.lists(series, max_size=2),
                         degree=st.integers(-1, 3), z=st.integers(-1, 2))


@SETTINGS
@given(cfg=scan_configs)
def test_scan_configs_exit_cleanly(tiny, cfg):
    cfg["params"] = str(tiny / "tiny.json")
    cfg.setdefault("m", ["h3"])
    run_config(tiny, "scan", cfg, "--out", str(tiny / "scan.csv"))


@SETTINGS
@given(cfg=semigroup_configs)
def test_semigroup_configs_exit_cleanly(tiny, cfg):
    run_config(tiny, "semigroup", cfg)


@st.composite
def artifacts(draw, tiny_doc):
    """The tiny build's artifact with one field (a meta stage record's among
    them) replaced or dropped, or a small random artifact."""
    if draw(st.booleans()):
        doc = json.loads(json.dumps(tiny_doc))
        stage = draw(st.integers(0, len(doc["stages"]) - 1))
        rec = doc["meta"]["stages"][stage]
        target, key = draw(st.sampled_from([
            (doc, "h1"), (doc, "stages"), (doc, "meta"),
            (doc["stages"][stage], "r"), (doc["stages"][stage], "spacers"),
            (doc["meta"], "series"), (doc["meta"], "stages"), (rec, "j"), (rec, "q"),
            (rec, "max_m"), (rec, "eps"), (rec, "sidon_indices"), (rec, "pre_sidon")]))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(anything | small)
        return doc
    stage = st.fixed_dictionaries({"r": small | anything,
                                   "spacers": st.lists(small, max_size=4) | anything})
    return draw(anything | st.fixed_dictionaries(
        {"h1": small | anything, "stages": st.lists(stage, max_size=3) | anything}))


@SETTINGS
@given(data=st.data())
def test_verify_artifacts_exit_cleanly(tiny, data):
    """verify --params and a scan that decomposes its shifts over the
    artifact's stages (so excision_factor reads the records) both exit
    cleanly on every drawn artifact."""
    doc = data.draw(artifacts(json.loads((tiny / "tiny.json").read_text())))
    path = tiny / "artifact.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(*run("verify", "--params", str(path), "--only", "1"))
    run_config(tiny, "scan", {"params": str(path), "m": ["h3", "-h3", "h3+h2"]},
               "--out", str(tiny / "artifact_scan.csv"))
