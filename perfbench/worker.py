"""One measured pass of a perfbench workload, in a fresh process.

    python3 perfbench/worker.py --workload gap-sweep --seed 3 --trace 0

``perfbench/run.py`` starts this with the repository's ``src`` on
``PYTHONPATH``.  The pass sets the workload up SETUPS times (each timed;
each build is released before the next), draws its inputs from the seed,
times ``verify`` on the last build, reads the process's peak resident
memory, then checks the outputs outside the timed region.  With
``--trace 1`` the last set-up and the verify step run under a
:class:`spans.Tracer`, the spans go to ``--spans`` and the per-layer
metrics join the result.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

from spans import Tracer, quantile
from workloads import WORKLOADS, Verdict, occupancy_bytes

SETUPS = 9


def layer_metrics(tracer: Tracer, built, n_sampled_shifts: int) -> dict[str, float]:
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    pair_ms = tracer.pair_durations_ms()
    gap_candidates = sum(1 for name, _, _, parent in tracer.spans
                         if name == "hadic_decompose" and parent >= 0
                         and tracer.spans[parent][0] == "sample_gap_shifts")
    return {
        "gen_p_construction.s": get("gen_p_construction", "s"),
        "gate_attempts": sum(rec["attempts"] for rec in built.params.meta["stages"]),
        "verify_frequencies.calls": get("verify_frequencies", "calls"),
        "verify_frequencies.s": get("verify_frequencies", "s"),
        "expand_occupancy.s": get("expand_occupancy", "s"),
        "occupancy.copies": built.occ.n_copies,
        "occupancy.bytes_computed": occupancy_bytes(built.occ),
        "warm_calls": get("warm_shift_window", "calls"),
        "warm_s": get("warm_shift_window", "s"),
        "warm_starts_scanned": tracer.warm_starts,
        "warm_offsets": tracer.warm_offsets,
        "warm_useful_ratio": tracer.useful_warm_ratio(),
        "pair_calls": len(tracer.pair_k),
        "pair_distinct_k": len(set(tracer.pair_k)),
        "pair_s": get("_count_pairs", "s"),
        "pair_ms_p50": quantile(pair_ms, 0.5),
        "pair_ms_p90": quantile(pair_ms, 0.9),
        "enumerate_semigroup.s": get("enumerate_semigroup", "s"),
        "semigroup_elements": len(built.semigroup),
        "convolve.calls": get("convolve", "calls"),
        "convolve.s": get("convolve", "s"),
        "scan_limits.s": get("scan_limits", "s"),
        "scan_limits.self_s": get("scan_limits", "self_s"),
        "corr.calls": get("corr", "calls"),
        "corr.self_s": get("corr", "self_s"),
        "weak_discrepancy.s": get("weak_discrepancy", "s"),
        "hadic_decompose.calls": get("hadic_decompose", "calls"),
        "hadic_decompose.s": get("hadic_decompose", "s"),
        "sample_gap_shifts.s": get("sample_gap_shifts", "s"),
        "gap_accept_ratio": n_sampled_shifts / gap_candidates if gap_candidates else 0.0,
        "excision_factor.s": get("excision_factor", "s"),
        "predicted_element.s": get("predicted_element", "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = Tracer(f"{wl.name}:{args.seed}") if args.trace else None

    setup_s = []
    built = None
    for i in range(SETUPS):
        built = None  # release the previous build before making the next
        traced = tracer is not None and i == SETUPS - 1
        with tracer.region("setup") if traced else nullcontext():
            t0 = time.perf_counter()
            built = wl.setup()
            setup_s.append(time.perf_counter() - t0)

    inputs = wl.draw(built, args.seed)
    out = None
    with tracer.region("verify") if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            out = wl.verify(built, inputs)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
        verify_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if out is None:
        verdicts = [Verdict("error", False, "verify raised")] * inputs.n_ops
    else:
        verdicts = wl.check(built, inputs, out, args.seed)
    for v in verdicts:
        if not v.ok:
            print(f"FAILED {wl.name} seed={args.seed} {v.line}: {v.why}", file=sys.stderr)
    digest = hashlib.sha256("\n".join(v.line for v in verdicts).encode()).hexdigest()

    result = {
        "setup_s": setup_s,
        "verify_s": verify_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": inputs.n_ops,
        "failed": inputs.n_ops - sum(1 for v in verdicts[:inputs.n_ops] if v.ok),
        "digest": digest,
        "copies": built.occ.n_copies,
        "window_bits": built.occ.window.bit_length(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        # only gap-sweep samples its shifts; elsewhere the ratio reads 0
        result["layers"] = layer_metrics(tracer, built, inputs.n_ops)
        result["unattributed_s"] = tracer.root("verify")[1]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
