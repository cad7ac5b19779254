"""Benchmark of the bochner library and CLI: three workloads, one command.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why and what they hold):
  verify-all  each op is a fresh `bochner verify all --seed s` process
  forms-n4    each op sweeps every (p, q, k) stratum at n = 4, p + q <= 5
  verdict-m3  each op runs the CLI per-request path on random m = 3 / n = 5 tensors

Load is a closed loop: one process, one op at a time, for `--seconds`.
With `--trace 0` the last stdout line is one JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
separate traced run.  Every op's output is checked; the run also writes
perfbench/out/<workload>-seed<seed>-trace<t>.json with the seed, nproc,
the load average at start and the raw samples.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every child it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import layer_metrics, merge  # noqa: E402
from worker import op_seed  # noqa: E402

WORKLOADS = ("verify-all", "forms-n4", "verdict-m3")
# fresh processes per run whose set-up time is measured; setup_s is their median
SETUP_REPEATS = {"verify-all": 5, "forms-n4": 3, "verdict-m3": 3}
CHILD_TIMEOUT = 150
SUITE_LINE = re.compile(r"^\[([\w-]+)\] \d+ cases, \w+, ([0-9.]+)s$", re.M)
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class BenchError(Exception):
    """The benchmark could not set up or run the program."""


def _run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)


# ---------------------------------------------------------------------------
# verify-all: fresh CLI processes


def _verify_op(seed):
    t0 = time.perf_counter()
    proc = _run([sys.executable, "-m", "bochner.cli", "verify", "all", "--seed", str(seed)])
    return time.perf_counter() - t0, proc


def _traced_verify_op(seed):
    t0 = time.perf_counter()
    proc = _run([sys.executable, str(HERE / "worker.py"), "--workload", "verify-all",
                 "--op-seed", str(seed), "--trace", "1"])
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"traced verify op exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def run_verify_all(args):
    setups = []
    for _ in range(SETUP_REPEATS["verify-all"]):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-c", "import bochner.cli"])
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cannot import bochner.cli: {proc.stderr[-2000:]}")
    _, warm = _verify_op(op_seed(args.seed, 0))
    if warm.returncode not in (0, 1) or not warm.stdout:
        raise BenchError(f"warm-up verify all exited {warm.returncode}: {warm.stderr[-2000:]}")
    problems = checks.check_verify_all(warm.returncode, warm.stdout)
    times, traced_times, suites = [], [], {}
    attempted = failed = 0
    op_agg = {}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        s = op_seed(args.seed, i)
        attempted += 1
        wall, proc = _verify_op(s)
        if proc.returncode not in (0, 1) or not proc.stdout:
            failed += 1
            problems.append(f"op seed {s}: exit {proc.returncode}: {proc.stderr[-500:]}")
        else:
            times.append(wall)
            problems += checks.check_verify_all(proc.returncode, proc.stdout)
            if i == 0:
                problems += checks.check_repeat(warm.stdout, proc.stdout)
            for name, secs in SUITE_LINE.findall(proc.stderr):
                suites.setdefault(name, []).append(float(secs))
        if args.trace:
            attempted += 1
            wall, res = _traced_verify_op(s)
            traced_times.append(wall)
            merge(op_agg, res["agg"])
            problems += checks.check_verify_all(res["returncode"], res["stdout"])
        i += 1
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "setup_samples_s": setups, "op_times_s": times, "traced_op_times_s": traced_times}
    if args.trace:
        metrics = layer_metrics(op_agg, len(traced_times), {})
        for name in checks.VERIFY_SUITES:
            metrics[f"cli.verify.{name}_s"] = (statistics.median(suites.get(name, [0.0])), "s")
        metrics.update(_overhead(times, traced_times))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **_throughput(times),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        }
    return result, metrics


# ---------------------------------------------------------------------------
# forms-n4 and verdict-m3: one measuring worker process


def _start_worker(args, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                            stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{args.workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    return setup, out


def run_inprocess(args):
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    setups = []
    for r in range(repeats):
        setup, out = _start_worker(args, setup_only=r < repeats - 1)
        setups.append(setup)
    res = json.loads(out.strip().splitlines()[-1])
    times, traced = res["times"], res["traced_times"]
    result = {"attempted": res["attempted"], "failed": res["failed"], "problems": res["problems"],
              "setup_samples_s": setups, "op_times_s": times, "traced_op_times_s": traced}
    if args.trace:
        metrics = layer_metrics(res["op_agg"], len(traced), res["setup_agg"])
        for name in checks.VERIFY_SUITES:
            metrics[f"cli.verify.{name}_s"] = (0.0, "s")
        metrics.update(_overhead(times, traced))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **_throughput(times),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return result, metrics


# ---------------------------------------------------------------------------


def _throughput(times):
    if not times:
        raise BenchError("no op completed")
    return {"ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms")}


def _overhead(untraced, traced):
    if not untraced or not traced:
        raise BenchError("no traced op completed")
    u, t = statistics.median(untraced), statistics.median(traced)
    return {"trace.op_p50_ms": (1e3 * t, "ms"), "trace.overhead_pct": (100.0 * (t / u - 1.0), "%")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that running children are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "bochner" / "cli.py").is_file():
        print(f"error: no bochner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg(),
               "python": sys.version.split()[0]}
    try:
        if args.workload == "verify-all":
            result, metrics = run_verify_all(args)
        else:
            result, metrics = run_inprocess(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = result["problems"]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**started, **result, **summary}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
