"""Layered benchmark of the rankone exact pair-counting verifier.

Run from the repository root (nothing needs installing):

    python3 perfbench/run.py --workload compound-lattice --seed 1 --seconds 30 --trace 0

A run repeats one measured pass of the workload while another pass still
fits in ``--seconds`` (a run makes at least one pass; a traced run at
least one untraced and one traced pass).
Every pass is a fresh child process (``perfbench/worker.py``), started one
at a time with this checkout's ``src`` on ``PYTHONPATH`` as an absolute
path and BLAS/OpenMP pinned to one thread.  A fresh process keeps the
library's pair cache from carrying over between passes and makes
``ru_maxrss`` a per-pass peak.  All passes of a run repeat the same seeded
inputs, so their result digests must agree.

``--trace 0`` reports the end-to-end metrics as medians over passes;
``--trace 1`` reports the per-layer metrics from the traced passes and
the tracing overhead (traced minus untraced ``verify_s``).  A traced run
fails when the layer spans leave more of ``verify_s`` unexplained than
that overhead plus UNATTRIBUTED_SHARE of ``verify_s``.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed``
(one operation is one shift's verdict) and ``metrics``.  The lines before
it give the run record (commit, nproc, versions, seed, sizes, sample
counts) and the digest over every shift's (m, best word, delta).  Run
records and span logs are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("compound-lattice", "gap-sweep", "uncapped-bigint")
DEADLINE_S = 170.0          # a run must end well inside three minutes
UNATTRIBUTED_SHARE = 0.05

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "gen_p_construction.s": "s",
    "gate_attempts": "count",
    "verify_frequencies.calls": "count",
    "verify_frequencies.s": "s",
    "expand_occupancy.s": "s",
    "occupancy.copies": "count",
    "occupancy.bytes_computed": "bytes",
    "warm_calls": "count",
    "warm_s": "s",
    "warm_starts_scanned": "count",
    "warm_offsets": "count",
    "warm_useful_ratio": "ratio",
    "pair_calls": "count",
    "pair_distinct_k": "count",
    "pair_s": "s",
    "pair_ms_p50": "ms",
    "pair_ms_p90": "ms",
    "enumerate_semigroup.s": "s",
    "semigroup_elements": "count",
    "convolve.calls": "count",
    "convolve.s": "s",
    "scan_limits.s": "s",
    "scan_limits.self_s": "s",
    "corr.calls": "count",
    "corr.self_s": "s",
    "weak_discrepancy.s": "s",
    "hadic_decompose.calls": "count",
    "hadic_decompose.s": "s",
    "sample_gap_shifts.s": "s",
    "gap_accept_ratio": "ratio",
    "excision_factor.s": "s",
    "predicted_element.s": "s",
    "trace_overhead_s": "s",
}

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def commit() -> str:
    """HEAD of the checkout's own git directory, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(args, index: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{index}.jsonl"
    if traced:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"pass {index} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {index} printed no result")
    rec = json.loads(lines[-1])
    rec["traced"] = traced
    rec["wall_s"] = time.monotonic() - t0
    if traced:
        rec["spans_file"] = str(spans.relative_to(ROOT))
    return rec


def measure(args) -> list[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, len(passes), traced, deadline))
        enough = len(passes) >= (2 if args.trace else 1)
        # stop before a pass that would end past --seconds (or the deadline)
        next_end = time.monotonic() + statistics.median(p["wall_s"] for p in passes)
        if enough and next_end > min(start + args.seconds, deadline):
            return passes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(args, passes: list[dict]) -> tuple[dict, bool, list[str]]:
    notes = []
    plain = [p for p in passes if not p["traced"]]
    verify = statistics.median(p["verify_s"] for p in plain)
    if not args.trace:
        setups = [s for p in plain for s in p["setup_s"]]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "verify_s": metric(verify, "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
        notes.append(f"samples: setup_s {len(setups)}, verify_s {len(plain)}, "
                     f"peak_rss_mb {len(plain)}")
        return metrics, True, notes

    traced = [p for p in passes if p["traced"]]
    overhead = statistics.median(p["verify_s"] for p in traced) - verify
    ok = True
    for p in traced:
        allowed = max(overhead, 0.0) + UNATTRIBUTED_SHARE * p["verify_s"]
        notes.append(f"trace check: verify_s {p['verify_s']:.4f}, outside layer spans "
                     f"{p['unattributed_s']:.4f} s, allowed {allowed:.4f} s")
        if p["unattributed_s"] > allowed:
            ok = False
    metrics = {name: metric(statistics.median(p["layers"][name] for p in traced), unit)
               for name, unit in PER_LAYER.items() if name != "trace_overhead_s"}
    metrics["trace_overhead_s"] = metric(overhead, "s")
    notes.append(f"samples: per-layer {len(traced)} traced passes, "
                 f"overhead against {len(plain)} untraced")
    return metrics, ok, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rankone layered benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "rankone" / "__init__.py").is_file():
        print(f"error: no rankone sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        passes = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, trace_ok, notes = summarize(args, passes)
    digests = {p["digest"] for p in passes}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = passes[0]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)), "python": first["python"],
        "numpy": first["numpy"], "shifts": first["attempted"],
        "copies": first["copies"], "window_bits": first["window_bits"],
        "passes": passes,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    summary = {k: v for k, v in record.items() if k != "passes"}
    summary["passes"] = len(passes)
    print("run " + json.dumps(summary))
    for note in notes:
        print(note)
    if len(digests) != 1:
        print(f"digest mismatch across passes: {sorted(digests)}")
    print(f"digest {first['digest']}")
    print(f"op_fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    correct = failed == 0 and len(digests) == 1 and trace_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
