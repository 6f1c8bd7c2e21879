"""dmha benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload {train,enroll} --seed N \
        --seconds S --trace {0,1} [--scale {desk,tiny}]

Set-up runs ``bench/inputs.py`` in a child process several times and
reports the median child wall time as ``setup_s``. The timed phase then
runs whole passes of the workload for about ``--seconds`` (at least the
workload's minimum number of passes) and checks every pass's output.
With ``--trace 1`` passes alternate untraced and traced; the traced ones
give the per-layer metrics (per traced pass) and the spans, written to
``.bench_runs/``. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# One BLAS thread: the "one laptop core" target, and steadier timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "enroll"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk")
    return p.parse_args(argv)


def run_setup(args, work: Path) -> tuple[Path, list[float], list[dict]]:
    """Build the inputs SETUP_REPEATS times, each in a fresh process; keep
    the last copy. Returns its directory, the wall times and the busy
    seconds each child traced."""
    walls, busy = [], []
    for r in range(SETUP_REPEATS):
        out = work / f"inputs{r}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), args.workload,
             args.scale, str(args.seed), str(out), str(args.trace)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"input set-up failed with code {proc.returncode}")
        busy.append(json.loads(proc.stdout.strip().splitlines()[-1])["busy"])
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(out)
    return out, walls, busy


def timed_passes(workload, seconds: float, tracer) -> list[dict]:
    """Whole passes until the next one would end after ``seconds``. With a
    tracer, odd passes are traced."""
    min_passes = max(workload.min_passes, 2 if tracer else 1)
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.pass_id = k
            tracer.install()
            try:
                result = tracer.call("bench.pass", workload.run_pass, k)
            finally:
                tracer.uninstall()
        else:
            result = workload.run_pass(k)
        result["traced"] = traced
        passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "none"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH))
    import inputs  # first: puts the checkout's src/ on sys.path
    import layers
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = RUNS / tag
    try:
        inputs_dir, setup_walls, setup_busy = run_setup(args, work)
        workload = WORKLOADS[args.workload](
            inputs_dir, inputs.SCALES[args.scale], args.seed, work)
        passes = timed_passes(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = workload.check(passes)
        details = workload.details([p for p in passes if not p["traced"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    env = environment(args.seed)
    details["ops_failed_frac"] = {"value": sum(failed) / attempted,
                                  "base": attempted}
    details["passes"] = len(passes)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(details))

    if tracer is None:
        metrics = {
            "throughput_per_s": {
                "value": statistics.median(p["items"] / p["wall"]
                                           for p in passes),
                "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        }
    else:
        metrics = layers.per_layer_metrics(tracer, passes, setup_busy)
        spans_path = RUNS / f"trace-{tag}.json"
        tracer.dump(spans_path, {"env": env, "workload": args.workload,
                                 "scale": args.scale})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": sum(failed) == 0, "attempted": attempted,
                      "failed": sum(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
