"""Batch front-end: build constructions, scan shifts, verify, dump tables.

Subcommands
-----------
build      generate a construction (example family or sampled from series),
           write the parameter artifact plus a heights CSV.
scan       run the weak-limit scanner over a shift list from a config file,
           write the report CSV, check optional expectations.
verify     run the acceptance suite (optionally a subset / on an artifact).
semigroup  dump the enumerated semigroup as a table.

Exit codes: 0 ok, 1 assertion failure, 2 usage or config error,
3 generation failure.  Every error path prints a single machine-parsable
line ``error code=<kind> detail="..."`` on stderr (the build generation
failure additionally dumps the frequency report there).  With identical
config and seed the output files are byte-identical once timestamp
headers are disabled via --no-timestamp.
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
    validate_params,
)
from .series import enumerate_semigroup, make_admissible
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
    def __init__(self, code: str, detail: str, status: int):
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.status = status


@contextmanager
def _rejected_as(code: str):
    """Report a ValueError raised on user input as a CliError (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(code, str(exc), EXIT_CONFIG) from None


def _err_line(code: str, detail: str) -> None:
    detail = detail.replace('"', "'").replace("\n", "; ")
    print(f'error code={code} detail="{detail}"', file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose error path is a single parsable line."""

    def error(self, message):
        _err_line("usage", message)
        raise SystemExit(EXIT_CONFIG)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise CliError("config", f"config file not found: {path}", EXIT_CONFIG)
    try:
        obj = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("config", f"unreadable config {path}: {exc}", EXIT_CONFIG)
    if not isinstance(obj, dict):
        raise CliError("config", f"config root must be an object: {path}",
                       EXIT_CONFIG)
    return obj


def _parse_series_text(text: str):
    """Parse '1/2,1/2' (coefficients from exponent 0 upward)."""
    try:
        coeffs = {}
        for i, tok in enumerate(text.split(",")):
            c = Fraction(tok.strip())
            if c:
                coeffs[i] = c
        return make_admissible(coeffs)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("usage", f"malformed coefficient list {text!r}: {exc}",
                       EXIT_CONFIG)


def _load_params_file(path: str) -> ConstructionParams:
    p = Path(path)
    if not p.is_file():
        raise CliError("config", f"params file not found: {path}", EXIT_CONFIG)
    text = p.read_text()
    if text.startswith("#"):
        text = text.split("\n", 1)[1]
    try:
        params = params_from_json(text)
    except Exception as exc:
        raise CliError("config", f"corrupt params file {path}: {exc}",
                       EXIT_CONFIG)
    problems = validate_params(params)
    if problems:
        raise CliError("config",
                       f"invalid params {path}: {'; '.join(problems)}",
                       EXIT_CONFIG)
    return params


_TERM_RE = re.compile(r"^(?:(\d+)\*)?h(\d+)$")


def _parse_shift_expr(expr, hs: Sequence[int]) -> int:
    """Shift expressions: integers, or signed sums of [k*]h<j> terms."""
    if isinstance(expr, int):
        return expr
    s = str(expr).replace(" ", "")
    if re.fullmatch(r"-?\d+", s):
        return int(s)
    total, sign, i = 0, +1, 0
    if not s:
        raise CliError("config", "empty shift expression", EXIT_CONFIG)
    while i < len(s):
        if s[i] == "+":
            sign, i = +1, i + 1
            continue
        if s[i] == "-":
            sign, i = -1, i + 1
            continue
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        m = _TERM_RE.match(s[i:j])
        if not m:
            raise CliError("config", f"bad shift term {s[i:j]!r} in {expr!r}",
                           EXIT_CONFIG)
        coef = int(m.group(1) or 1)
        stage = int(m.group(2))
        if not 1 <= stage <= len(hs):
            raise CliError("config", f"stage out of range in {expr!r}",
                           EXIT_CONFIG)
        total += sign * coef * hs[stage - 1]
        sign, i = +1, j
    return total


def _parse_tol(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("usage", f"bad tolerance {text!r}: {exc}", EXIT_CONFIG)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _eps_schedule_from_text(text: str | None):
    if text is None:
        return None
    value = _parse_tol(text)
    return lambda j: value


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    stages = args.stages or cfg.get("stages")
    if not stages or stages < 2:
        raise CliError("usage", "--stages N (>= 2) is required", EXIT_CONFIG)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    example = args.example or cfg.get("example")
    p_texts = list(args.p or []) or list(cfg.get("p", []))

    if example and p_texts:
        raise CliError("usage", "choose either --example or --p, not both",
                       EXIT_CONFIG)
    if example:
        with _rejected_as("usage"):
            params = gen_example(example, stages)
    elif p_texts:
        series = [_parse_series_text(t) for t in p_texts]
        cap = args.cap if args.cap is not None else cfg.get("cap")
        sidon = SidonPolicy(cap=cap)
        eps = _eps_schedule_from_text(args.eps or cfg.get("eps"))
        starts = {int(k): int(v) for k, v in cfg.get("starts", {}).items()}
        growth = ColumnGrowthPolicy(
            start=(lambda j: starts.get(j, max(2 * j, 16))) if starts else None)
        params = gen_p_construction(series, stages, seed,
                                    eps_schedule=eps, r_policy=growth,
                                    sidon_policy=sidon)
    else:
        raise CliError("usage", "need --example KIND or --p COEFFS",
                       EXIT_CONFIG)

    hs = heights(params)
    base = args.base_stage or max(1, stages - 2)
    with _rejected_as("usage"):
        occ = expand_occupancy(params, base, stages)
    out = Path(args.out or "params.json")
    header = timestamp_header(not args.no_timestamp)
    out.write_text(header + params_to_json(params) + "\n")
    csv_path = out.with_name(out.stem + "_heights.csv")
    lines = [header + "j,height,columns,spacer_sum"]
    for j, h in enumerate(hs, start=1):
        if j <= len(params.stages):
            st = params.stages[j - 1]
            lines.append(f"{j},{h},{st.r},{sum(st.spacers)}")
        else:
            lines.append(f"{j},{h},,")
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"window h_{stages}={hs[-1]} base_stage={base} "
          f"labels={occ.base_height} copies_per_label={occ.n_copies}")
    print(f"wrote {out} and {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    params_path = args.params or cfg.get("params")
    if not params_path:
        raise CliError("usage", "scan needs --params PATH (or config key)",
                       EXIT_CONFIG)
    params = _load_params_file(params_path)
    hs = heights(params)
    J = len(hs)
    base = args.base_stage or cfg.get("base_stage") or max(1, J - 2)
    top = cfg.get("top_stage") or J
    pan_cfg = cfg.get("panel", {})
    with _rejected_as("config"):
        occ = expand_occupancy(params, base, top)
        panel = default_panel(occ, span=pan_cfg.get("span", 6),
                              controls=tuple(pan_cfg.get("controls", (97,))),
                              include_union=pan_cfg.get("include_union", True))

    m_set: list[int] = []
    skipped: list[int] = []
    span_guard = occ.window
    for expr in cfg.get("m", []):
        m = _parse_shift_expr(expr, hs)
        if abs(m) >= span_guard:
            skipped.append(m)
        else:
            m_set.append(m)
    gap_cfg = cfg.get("gaps")
    if gap_cfg:
        with _rejected_as("config"):
            m_set += sample_gap_shifts(
                hs, int(gap_cfg.get("n", 8)),
                rng_seed=gap_cfg.get("seed", 1),
                lo=gap_cfg.get("lo"), hi=gap_cfg.get("hi"),
                extra_lattice=tuple(gap_cfg.get("extra_lattice", ())))
    if not m_set:
        raise CliError("config", "no feasible shifts configured", EXIT_CONFIG)

    tol = _parse_tol(args.tol if args.tol is not None else cfg.get("tol", "1/4"))
    sg_cfg = cfg.get("semigroup", {})
    with _rejected_as("config"):
        sg = enumerate_semigroup(generator_series(params),
                                 int(sg_cfg.get("degree", 2)),
                                 int(sg_cfg.get("z", 1)))
        report = scan_limits(occ, hs, sg, m_set, tol=tol, panel=panel,
                             params=params,
                             a_bound=int(cfg.get("a_bound", 3)),
                             z_bound=int(cfg.get("z_bound", 4)))

    out = args.out or cfg.get("out", "scan.csv")
    write_scan_csv(report, out, include_timestamp=not args.no_timestamp)

    failures = []
    for expr, want in cfg.get("expect", {}).items():
        m = _parse_shift_expr(expr, hs)
        entry = report.entry(m)
        if entry.best_word != want:
            failures.append(f"m={expr}: best={entry.best_word} expected={want}")
    if cfg.get("expect_all_pass") and not report.passed:
        n_bad = sum(1 for e in report.entries if not e.passed)
        failures.append(f"{n_bad} shifts exceed tol={float(tol):.4f}")

    n_ok = sum(1 for e in report.entries if e.passed)
    print(f"scanned {len(report.entries)} shifts (skipped {len(skipped)} "
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

    if args.params:
        params = _load_params_file(args.params)
        for j, rep in recheck_gates(params):
            if not rep.passed:
                _err_line("assertion", f"artifact stage {j} gate recheck failed")
                print(rep.summary(), file=sys.stderr)
                return EXIT_ASSERTION
        print(f"artifact {args.params}: parameters valid, stage gates re-pass")

    try:
        names = acceptance.resolve_names(args.only)
    except KeyError as exc:
        raise CliError("usage", f"unknown criterion {exc.args[0]!r}",
                       EXIT_CONFIG)
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
    cfg = _load_config(args.config)
    p_texts = list(args.p or []) or list(cfg.get("p", ["1/2,1/2"]))
    series = [_parse_series_text(t) for t in p_texts]
    with _rejected_as("usage"):
        degree = args.degree if args.degree is not None else int(cfg.get("degree", 2))
        z_range = args.z if args.z is not None else int(cfg.get("z", 1))
        elems = enumerate_semigroup(series, degree, z_range)
    lines = ["index,word,support,mass,max_coeff"]
    for i, el in enumerate(elems):
        mc = max((c for _, c in el.coeffs), default=Fraction(0))
        lines.append(f"{i},{el.word},{len(el.coeffs)},"
                     f"{float(el.mass):.6f},{float(mc):.6f}")
    body = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(timestamp_header(not args.no_timestamp) + body)
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
        _err_line(exc.code, exc.detail)
        return exc.status
    except SystemExit as exc:
        return int(exc.code or 0)
    except GenerationError as exc:
        _err_line("generation",
                  f"stage {exc.stage_j} gate failed at r={exc.r_final}")
        print(exc.report.summary(), file=sys.stderr)
        return EXIT_GENERATION


if __name__ == "__main__":
    raise SystemExit(main())
