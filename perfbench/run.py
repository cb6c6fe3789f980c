"""Benchmark of the fairpair CLI: run one workload (or all) and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload reweight-k8 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each sample runs in a fresh worker process (see worker.py) with BLAS threads
pinned to one, one after another, all on one CPU.  Samples start while
the next one, as long as the longest so far, still ends within
``--seconds``.  The end-to-end metrics are medians over the samples; the
time metric divides each sample's op time by the time of a fixed
reference computation run around it on the same CPU, which cancels the
shared host's drift in speed (see README.md).  With ``--trace 1`` each
untraced sample is followed by a traced one, whose medians give the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md for
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reweight-k8", "evaluate-csv")
RUN_LIMIT_S = 170.0  # no new sample starts after this; the run must end within 180 s


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    return env


class Runner:
    """Starts the worker processes of one workload run, pinned to one CPU."""

    def __init__(self, workload: str, seed: int, size: str, work: Path, started: float,
                 cpu: int):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.started = started
        self.cpu = cpu
        self.env = worker_env()
        self.count = 0

    def sample(self, mode: str, spans: Path | None = None) -> dict:
        self.count += 1
        name = f"{self.count}-{mode}"
        sample_dir = self.work / name
        result = self.work / f"{name}.json"
        log = self.work / f"{name}.log"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--size", self.size,
            "--work", str(sample_dir), "--result", str(result), "--mode", mode,
            "--cpu", str(self.cpu),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise HarnessError(f"out of time before a {mode} sample")
        with log.open("w", encoding="utf-8") as fh:
            try:
                proc = subprocess.run(
                    cmd + ["--spawned", repr(time.monotonic())],
                    stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise HarnessError(f"{mode} sample ran past the time limit") from None
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-15:]
            raise HarnessError(
                f"{mode} worker exited {proc.returncode}:\n  " + "\n  ".join(tail)
            )
        shutil.rmtree(sample_dir)
        return json.loads(result.read_text(encoding="utf-8"))

    def stream(self, seconds: float, trace: bool, spans: Path) -> tuple[list, list]:
        """Untraced (and traced) samples until the next would end after ``seconds``."""
        samples, traced, durations = [], [], []
        while not samples or time.monotonic() - self.started + max(durations) <= seconds:
            begun = time.monotonic()
            samples.append(self.sample("run"))
            if trace:
                traced.append(self.sample("trace", spans))
            durations.append(time.monotonic() - begun)
        return samples, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Measure one workload; returns the result object plus report details."""
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # The op and the reference around it must share a CPU: the host slows
    # each vCPU on its own.
    cpu = max(os.sched_getaffinity(0))
    runner = Runner(workload, seed, size, work, started, cpu)
    try:
        samples, traced = runner.stream(
            seconds, trace, ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = [s["setup_s"] for s in samples]

    problems = []
    ops = [op for s in samples + traced for op in s["ops"]]
    for op in ops:
        problems += [f"{op['label']}: {p}" for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    tests = {json.dumps(s["test"]) for s in samples + traced}
    if len(tests) > 1:
        problems.append(f"test metrics differ between identical samples: {sorted(tests)}")
    # A missing or malformed report already failed its op; 0 keeps the line valid JSON.
    test = {k: v if isinstance(v, float) and math.isfinite(v) else 0.0
            for k, v in (samples[0]["test"] or {"auc": None, "fairness": None}).items()}

    wall = statistics.median(s["wall_s"] for s in samples)
    wall_ref = statistics.median(s["wall_s"] / s["reference_s"] for s in samples)
    if trace:
        metrics = {
            name: statistics.median(t["layers"][name] for t in traced)
            for name in traced[0]["layers"]
        }
        overhead = statistics.median(t["wall_s"] for t in traced) - wall
        metrics["trace.overhead_s"] = overhead
        self_s = statistics.median(t["ops_self_s"] for t in traced)
        if abs(self_s - wall) > abs(overhead) + 1e-3:
            problems.append(
                f"traced self times sum to {self_s:.6f} s, more than "
                f"trace.overhead_s={overhead:.6f} s away from wall_s={wall:.6f} s"
            )
    else:
        metrics = {
            "wall_ref": wall_ref,
            "pairs_per_ref": samples[0]["pair_work"] / wall_ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "test_auc": test["auc"],
            "test_fairness": test["fairness"],
        }
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "samples": [(s["wall_s"], s["reference_s"]) for s in samples],
        "wall_s": wall,
        "pairs_per_s": samples[0]["pair_work"] / wall,
        "reference_s": statistics.median(s["reference_s"] for s in samples),
        "cpu": cpu,
        "traced": len(traced),
        "numpy": samples[0]["numpy"],
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(workload: str, args, res: dict, units: dict[str, str]) -> None:
    print(f"# workload {workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={res['numpy']} git={git_sha()} blas_threads=1")
    walls = " ".join(f"{w:.3f}/{r:.3f}" for w, r in res["samples"])
    print(f"# samples: {len(res['samples'])} untraced runs on CPU {res['cpu']}, "
          f"{res['traced']} traced runs; wall_s/reference_s of each: {walls}")
    for name, value in res["metrics"].items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    print(f"{'wall_s':34s} {res['wall_s']:16.6f} s (median raw time of the timed ops)")
    print(f"{'pairs_per_s':34s} {res['pairs_per_s']:16.6f} pairs/s")
    print(f"{'reference_s':34s} {res['reference_s']:16.6f} s (median reference time)")
    rate = res["failed"] / res["attempted"]
    print(f"{'error_rate':34s} {rate:16.6f} fraction "
          f"({res['failed']} of {res['attempted']} ops failed)")
    for problem in res["problems"]:
        print(f"# problem: {problem}")


def result_line(results: dict[str, dict], units: dict[str, str]) -> str:
    """The result object; metric names get a "<workload>." prefix when several ran."""
    prefix = len(results) > 1
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}." if prefix else "") + name: {"value": value, "unit": units[name]}
            for w, r in results.items()
            for name, value in r["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes run in seconds, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairpair" / "cli.py").is_file():
        print(f"error: no fairpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            report(name, args, results[name], units)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(results, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
