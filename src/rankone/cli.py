"""Batch front-end: build constructions, scan shifts, verify, dump tables.

Each input is its flag if given, else its --config key if present (even 0,
"" or null), else its default.  A config is checked in full when it is
loaded, keys the run does not read included: a value of the wrong kind (a
bool is not an int) and a key the subcommand does not declare are config
errors.  Each subcommand's keys follow "Keys:", each with its kind and,
in parentheses, its default and range.  A fraction is a string like "1/3"
or a number; a tolerance (eps, tol) must be above 0.

build      generate a construction (example family or sampled from series),
           write the parameter artifact plus a heights CSV.  Keys: stages
           int (>= 2), example str, p [str], seed int (0, >= 0), cap
           int|null (>= 0), eps fraction, starts {stage: int} (each stage
           in 1..stages-1, each start above min(stage, 4)).
scan       run the weak-limit scanner over a shift list, write the report
           CSV, check optional expectations.  Keys: params str, base_stage
           int (J-2), top_stage int (J), panel {span int (6), controls
           [int] ([97]), include_union bool (true)}, m [int|str], gaps {n
           int (8), seed int (1), lo int|null, hi int|null (both inside the
           window), extra_lattice [int]}, expect {shift: word}, tol
           fraction ("1/4"), semigroup {degree int (2), z int (1)}, a_bound
           int (3), z_bound int (4), out str ("scan.csv"), expect_all_pass
           bool (false).
verify     run the acceptance suite (optionally a subset / on an artifact).
           No keys.
semigroup  dump the enumerated semigroup as a table.  Keys: p [str], degree
           int (2), z int (1).

Exit codes: 0 ok, 1 assertion failure, 2 usage or config error (an
output path that cannot be written is one), 3 generation failure.  Every
error path prints a single machine-parsable line ``error code=<kind>
detail="..."`` on stderr (the build generation failure additionally dumps
the frequency report there).  With identical config and seed the output
files are byte-identical once timestamp headers are disabled via
--no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .construction import (
    _MAX_M,
    ColumnGrowthPolicy,
    ConstructionParams,
    GenerationError,
    SidonPolicy,
    expand_occupancy,
    gen_example,
    gen_p_construction,
    generator_series,
    heights,
    params_from_json,
    params_to_json,
    recheck_gates,
)
from .series import Fields, _to_fraction, enumerate_semigroup, make_admissible, read
from .weaktop import (
    default_panel,
    sample_gap_shifts,
    scan_limits,
    timestamp_header,
    write_scan_csv,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_GENERATION = 3


class CliError(Exception):
    """A usage or config error: one ``error code=<code>`` line, exit 2."""
    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


@contextmanager
def _rejected_as(code: str):
    """Report a ValueError raised on user input as a CliError (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(code, str(exc)) from None


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a config error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError("config", f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _err_line(code: str, detail: str) -> None:
    detail = detail.replace('"', "'").replace("\n", "; ")
    print(f'error code={code} detail="{detail}"', file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose error path is a single parsable line, and
    which reads a negative fraction such as -1/4 as a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d+/\d+$")

    def error(self, message):
        _err_line("usage", message)
        raise SystemExit(EXIT_CONFIG)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_json(path: str, what: str, decode=json.loads):
    """decode(text) of the ``what`` file at ``path``; any fault is a config error."""
    p = Path(path)
    if not p.is_file():
        raise CliError("config", f"{what} file not found: {path}")
    try:
        return decode(p.read_text())
    except (OSError, ValueError) as exc:
        raise CliError("config", f"corrupt {what} file {path}: {exc}")


def _keys(command: str, **named) -> Fields:
    """A config object of ``command`` that holds only the keys in ``named``."""
    return Fields(named, closed=command)


# Each subcommand's config keys and their kinds (``series.read``
# declarations); the module docstring gives their defaults and ranges.
# ``stages`` is any value: build's usage line covers a missing, mistyped or
# small count.
_TOLERANCE = (str, int, float)
_CONFIG = {
    "build": _keys("build", stages=object, example=str, p=[str], seed=int,
                   cap=(int, None), eps=_TOLERANCE, starts={int: int}),
    "scan": _keys(
        "scan", params=str, base_stage=int, top_stage=int,
        panel=_keys("scan", span=int, controls=[int], include_union=bool),
        m=[(int, str)],
        gaps=_keys("scan", n=int, seed=int, lo=(int, None), hi=(int, None),
                   extra_lattice=[int]),
        expect={str: str}, tol=_TOLERANCE,
        semigroup=_keys("scan", degree=int, z=int),
        a_bound=int, z_bound=int, out=str, expect_all_pass=bool),
    "verify": _keys("verify"),
    "semigroup": _keys("semigroup", p=[str], degree=int, z=int),
}


def _load_config(path: str | None, command: str) -> dict:
    """The --config object, every value checked against ``command``'s
    declaration, read or not; a value of the wrong kind, or a key that
    ``command`` does not declare, is a config error."""
    cfg = {} if path is None else _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise CliError("config", f"config root must be an object: {path}")
    with _rejected_as("config"):
        return read(cfg, _CONFIG[command], "config")


def _option(cfg: dict, key: str, default=None, flag=None):
    """``flag`` if given, else ``cfg[key]`` if present, else ``default``.
    Every flag and config value is read here; ``key`` may be "<section>
    <key>" ("panel span"), and ``cfg`` is checked by :func:`_load_config`."""
    if flag is not None:
        return flag
    section, _, name = key.rpartition(" ")
    if section:
        cfg = cfg.get(section, {})
    return cfg.get(name, default)


def _parse_series_text(text: str):
    """Parse '1/2,1/2' (coefficients from exponent 0 upward)."""
    try:
        return make_admissible({i: Fraction(tok)
                                for i, tok in enumerate(text.split(","))})
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("usage", f"malformed coefficient list {text!r}: {exc}")


def _load_params_file(path: str) -> ConstructionParams:
    # an artifact may open with a "# generated ..." timestamp line
    return _read_json(path, "params", lambda text: params_from_json(
        re.sub(r"\A#.*\n?", "", text)))


_TERM = r"(?:(\d+)\*)?h(\d+)"  # [k*]h<j>


def _parse_shift_expr(expr: int | str, hs: Sequence[int]) -> int:
    """Shift expressions: integers, or signed sums of [k*]h<j> terms."""
    if isinstance(expr, int):
        return expr
    s = expr.replace(" ", "")
    if re.fullmatch(r"-?\d+", s):
        return int(s)
    if not re.fullmatch(rf"[+-]?{_TERM}(?:[+-]{_TERM})*", s):
        raise CliError("config", f"bad shift expression {expr!r}")
    total = 0
    for sign, coef, stage in re.findall(rf"([+-]?){_TERM}", s):
        if not 1 <= int(stage) <= len(hs):
            raise CliError("config", f"stage out of range in {expr!r}")
        total += (-1 if sign == "-" else 1) * int(coef or 1) * hs[int(stage) - 1]
    return total


def _tolerance(cfg: dict, key: str, default=None, flag=None) -> Fraction | None:
    """The tolerance ``_option`` reads for ``key``, as a fraction (None if unset).

    A string is read exactly; a number as ``series._to_fraction`` reads it.
    A value that does not read as a fraction is a usage error from a flag
    and a config error from the config; one that reads but is not positive
    is a config error, like any other out-of-range value.
    """
    value = _option(cfg, key, default, flag=flag)
    if value is None:
        return None
    try:
        tol = _to_fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError("config" if flag is None else "usage",
                       f"bad tolerance {value!r}: {exc}") from None
    if tol <= 0:
        raise CliError("config", f"tolerance must be positive, got {value!r}")
    return tol


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    cfg = _load_config(args.config, "build")
    stages = _option(cfg, "stages", flag=args.stages)
    if type(stages) is not int or stages < 2:
        raise CliError("usage", f"--stages N (an integer >= 2) is required, got {stages!r}")
    example = _option(cfg, "example", flag=args.example)
    p_texts = _option(cfg, "p", [], flag=args.p)

    if example is not None and p_texts:
        raise CliError("usage", "choose either --example or --p, not both")
    if example is not None:
        with _rejected_as("usage"):
            params = gen_example(example, stages)
    elif p_texts:
        series = [_parse_series_text(t) for t in p_texts]
        eps = _tolerance(cfg, "eps", flag=args.eps)
        starts = _option(cfg, "starts", {})
        for j, r in starts.items():  # stage j's gate reads windows of min(j, _MAX_M)
            if not 1 <= j < stages or r <= min(j, _MAX_M):
                raise CliError("config", f"starts {j} = {r}: need a stage in 1..{stages - 1}"
                               f" and a start above min(stage, {_MAX_M})")
        cap = _option(cfg, "cap", flag=args.cap)
        seed = _option(cfg, "seed", 0, flag=args.seed)
        for key, value in (("cap", cap), ("seed", seed)):
            if value is not None and value < 0:
                raise CliError("config", f"{key} must be >= 0, got {value}")
        with _rejected_as("usage"):
            params = gen_p_construction(
                series, stages, seed,
                eps_schedule=None if eps is None else (lambda j: eps),
                r_policy=ColumnGrowthPolicy(start=starts.get),
                sidon_policy=SidonPolicy(cap=cap))
    else:
        raise CliError("usage", "need --example KIND or --p COEFFS")

    hs = heights(params)
    # build reads its base stage and output path from flags only
    base = _option({}, "base_stage", max(1, stages - 2),
                   flag=args.base_stage)
    with _rejected_as("config"):
        occ = expand_occupancy(params, base, stages)
    out = _option({}, "out", "params.json", flag=args.out)
    header = timestamp_header(not args.no_timestamp)
    _write(out, header + params_to_json(params) + "\n")
    csv_path = Path(out).with_name(Path(out).stem + "_heights.csv")
    lines = [header + "j,height,columns,spacer_sum"]
    lines += [f"{j},{h},{st.r},{st.spacer_sum}"
              for j, (h, st) in enumerate(zip(hs, params.stages), start=1)]
    lines.append(f"{len(hs)},{hs[-1]},,")
    _write(csv_path, "\n".join(lines) + "\n")
    print(f"window h_{stages}={hs[-1]} base_stage={base} "
          f"labels={occ.base_height} copies_per_label={occ.n_copies}")
    print(f"wrote {out} and {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    cfg = _load_config(args.config, "scan")
    params_path = _option(cfg, "params", flag=args.params)
    if params_path is None:
        raise CliError("usage", "scan needs --params PATH (or config key)")
    params = _load_params_file(params_path)
    hs = heights(params)
    base = _option(cfg, "base_stage", max(1, len(hs) - 2),
                   flag=args.base_stage)
    top = _option(cfg, "top_stage", len(hs))
    with _rejected_as("config"):
        occ = expand_occupancy(params, base, top)
        panel = default_panel(
            occ, span=_option(cfg, "panel span", 6),
            controls=_option(cfg, "panel controls", (97,)),
            include_union=_option(cfg, "panel include_union", True))

    shifts = [_parse_shift_expr(e, hs) for e in _option(cfg, "m", [])]
    m_set = [m for m in shifts if abs(m) < occ.window]
    skipped = len(shifts) - len(m_set)
    if _option(cfg, "gaps", {}):
        bounds = {key: _option(cfg, f"gaps {key}")
                  for key in ("lo", "hi")}
        for key, bound in bounds.items():
            if bound is not None and abs(bound) >= occ.window:
                raise CliError("config", f"gaps {key} ({bound}) is beyond the "
                               f"window: |{key}| must be below {occ.window}")
        with _rejected_as("config"):
            # the default range [h_{top-1}, h_top // 4] lies inside the window
            m_set += sample_gap_shifts(
                hs[:top], _option(cfg, "gaps n", 8),
                rng_seed=_option(cfg, "gaps seed", 1),
                extra_lattice=_option(cfg, "gaps extra_lattice", ()),
                **bounds)
    if not m_set:
        raise CliError("config", "no feasible shifts configured")
    expect = [(expr, _parse_shift_expr(expr, hs), want)
              for expr, want in _option(cfg, "expect", {}).items()]
    unscanned = [expr for expr, m, _ in expect if m not in m_set]
    if unscanned:
        raise CliError("config", f"expect names shifts that are not scanned: "
                       f"{', '.join(unscanned)}")

    tol = _tolerance(cfg, "tol", "1/4", flag=args.tol)
    out = _option(cfg, "out", "scan.csv", flag=args.out)
    expect_all_pass = _option(cfg, "expect_all_pass", False)
    with _rejected_as("config"):
        sg = enumerate_semigroup(generator_series(params),
                                 _option(cfg, "semigroup degree", 2),
                                 _option(cfg, "semigroup z", 1))
        report = scan_limits(occ, hs, sg, m_set, tol=tol, panel=panel,
                             params=params,
                             a_bound=_option(cfg, "a_bound", 3),
                             z_bound=_option(cfg, "z_bound", 4))

    _write(out, write_scan_csv(report, include_timestamp=not args.no_timestamp))

    failures = []
    for expr, m, want in expect:
        entry = report.entry(m)
        if entry.best_word != want:
            failures.append(f"m={expr}: best={entry.best_word} expected={want}")
    if expect_all_pass and not report.passed:
        n_bad = sum(1 for e in report.entries if not e.passed)
        failures.append(f"{n_bad} shifts exceed tol={float(tol):.4f}")

    n_ok = sum(1 for e in report.entries if e.passed)
    print(f"scanned {len(report.entries)} shifts (skipped {skipped} "
          f"beyond window); {n_ok} within tol; wrote {out}")
    if failures:
        _err_line("assertion", "; ".join(failures))
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import acceptance

    _load_config(args.config, "verify")
    if args.params:
        for j, rep in recheck_gates(_load_params_file(args.params)):
            if not rep.passed:
                _err_line("assertion", f"artifact stage {j} gate recheck failed")
                print(rep.summary(), file=sys.stderr)
                return EXIT_ASSERTION
        print(f"artifact {args.params}: parameters valid, stage gates re-pass")

    try:
        names = acceptance.resolve_names(args.only)
    except KeyError as exc:
        raise CliError("usage", f"unknown criterion {exc.args[0]!r}")
    results = acceptance.run_all(names)
    for res in results:
        print(res.line())
    n_fail = sum(1 for r in results if not r.passed)
    if n_fail:
        _err_line("assertion", f"{n_fail} of {len(results)} criteria failed")
        return EXIT_ASSERTION
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def cmd_semigroup(args) -> int:
    cfg = _load_config(args.config, "semigroup")
    p_texts = _option(cfg, "p", ["1/2,1/2"], flag=args.p)
    degree = _option(cfg, "degree", 2, flag=args.degree)
    z_range = _option(cfg, "z", 1, flag=args.z)
    series = [_parse_series_text(t) for t in p_texts]
    with _rejected_as("usage"):
        elems = enumerate_semigroup(series, degree, z_range)
    lines = ["index,word,support,mass,max_coeff"]
    for i, el in enumerate(elems):
        mc = max((c for _, c in el.coeffs), default=Fraction(0))
        lines.append(f"{i},{el.word},{len(el.coeffs)},"
                     f"{float(el.mass):.6f},{float(mc):.6f}")
    body = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, timestamp_header(not args.no_timestamp) + body)
        print(f"{len(elems)} elements (degree<={degree}, |z|<={z_range}) "
              f"-> {args.out}")
    else:
        sys.stdout.write(body)
        print(f"total {len(elems)} elements", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rankone",
                 description="build/scan/verify rank-one constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", help="output path")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamp headers for reproducible files")

    b = sub.add_parser("build", help="generate a construction")
    common(b)
    b.add_argument("--example", help="example family kind")
    b.add_argument("--p", action="append",
                   help="series coefficients like '1/2,1/2' (repeatable)")
    b.add_argument("--stages", type=int, help="number of stages J")
    b.add_argument("--seed", type=int, help="generator seed")
    b.add_argument("--eps", help="constant gate tolerance (fraction)")
    b.add_argument("--cap", type=int, help="spacer value cap")
    b.add_argument("--base-stage", type=int, dest="base_stage",
                   help="expansion base stage for the summary line")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("scan", help="scan shifts for weak limits")
    common(s)
    s.add_argument("--params", help="construction artifact path")
    s.add_argument("--base-stage", type=int, dest="base_stage")
    s.add_argument("--tol", help="pass tolerance (fraction or float)")
    s.set_defaults(func=cmd_scan)

    v = sub.add_parser("verify", help="run the acceptance suite")
    common(v)
    v.add_argument("--params", help="artifact to validate and recheck first")
    v.add_argument("--only", action="append",
                   help="criterion name, alias, or number (repeatable)")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("semigroup", help="dump the generated semigroup table")
    common(g)
    g.add_argument("--p", action="append",
                   help="series coefficients like '1/2,1/2' (repeatable)")
    g.add_argument("--degree", type=int, help="max total degree")
    g.add_argument("--z", type=int, help="max |shift| prefactor")
    g.set_defaults(func=cmd_semigroup)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        _err_line(exc.code, str(exc))
        return EXIT_CONFIG
    except SystemExit as exc:
        return int(exc.code or 0)
    except GenerationError as exc:
        _err_line("generation",
                  f"stage {exc.stage_j} gate failed at r={exc.r_final}")
        print(exc.report.summary(), file=sys.stderr)
        return EXIT_GENERATION


if __name__ == "__main__":
    raise SystemExit(main())
