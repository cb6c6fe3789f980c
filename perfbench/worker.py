"""One benchmark sample: set up a workload, run its CLI ops, check the outputs.

Started by run.py in a fresh process per sample, with BLAS threads pinned,
so that import time counts in set-up and ``ru_maxrss`` is this sample's own.
The worker runs on one CPU and times a fixed reference computation just
before and just after the ops.  Writes its measurements as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from fairpair import cli

import tracing
import workloads

REFERENCE_ROUNDS = 60  # 0.3-0.7 s on a 2.1 GHz Xeon vCPU, as busy as the host lets it be


def reference_s() -> float:
    """Wall time of a fixed computation that no change to fairpair can alter.

    Its mix of numpy vector arithmetic on a (20000, 5) array and building
    many small Python objects follows the ops' own mix, so a host that
    slows the ops slows it alike; run.py divides op time by it.
    """
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((20000, 5)), rng.standard_normal(5)
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        for _ in range(40):
            z = x @ w
            float(np.log1p(np.exp(-np.abs(z))).sum())
        [(i, 0.5 * i) for i in range(20000)]
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--spans", type=Path, help="span file written in trace mode")
    parser.add_argument("--cpu", type=int, required=True, help="the one CPU to run on")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.mode == "trace":
        run_id = f"{args.workload}-seed{args.seed}"
        tracer = tracing.Tracer(f"{run_id}/setup")
        tracing.install(tracer)

    def run_cli(argv: list[str]) -> int:
        try:
            if tracer is None:
                return cli.main(argv)
            return tracer.span(f"cli.{argv[0]}", cli.main, argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code if isinstance(exc.code, int) else 1

    args.work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, args.work)
    wl.prepare(run_cli)
    result = {"setup_s": time.monotonic() - args.spawned, "numpy": np.__version__}

    ref_before = reference_s()
    first_op_span = tracer.begin(f"{run_id}/ops") if tracer else 0
    rcs, walls = [], []
    for op in wl.ops:
        start = time.perf_counter()
        rcs.append(run_cli(op.argv))
        walls.append(time.perf_counter() - start)
    ref_after = reference_s()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
    test = wl.check(rcs)
    result.update(
        wall_s=sum(walls),
        reference_s=(ref_before + ref_after) / 2,
        pair_work=wl.pair_work(),
        test=None if test is None else {k: test.get(k) for k in ("auc", "fairness")},
        ops=[
            {"label": op.label, "rc": rc, "wall_s": wall, "problems": op.problems}
            for op, rc, wall in zip(wl.ops, rcs, walls)
        ],
    )
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, first_op_span)
        result["ops_self_s"] = tracing.self_time_total(metrics)
        metrics["data.pairs_peak_mb"] = workloads.pairs_peak_mb(wl.splits[0])
        result["layers"] = metrics
        tracer.write(args.spans)

    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
