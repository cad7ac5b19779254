"""Measuring process for the in-process workloads, and the traced verify-all op.

    python perfbench/worker.py --workload forms-n4 --seed 1 --seconds 30 --trace 0
    python perfbench/worker.py --workload verdict-m3 --seed 1 --seconds 30 --trace 0 --setup-only
    python perfbench/worker.py --workload verify-all --op-seed 100000 --trace 1

For forms-n4 and verdict-m3 the worker sets up (imports, caches and one
untimed warm-up op), prints `ready`, then runs ops one at a time for
`--seconds` and prints one JSON line with the op times, the problems the
checks found and its peak RSS.  With `--trace 1` it alternates untraced
and traced ops on the same op seed and adds the per-span aggregates.
For verify-all it runs one `bochner verify all` through `bochner.cli.main`
with the tracer installed and prints stdout, exit code and aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

OP_SEED_STRIDE = 100_000


def op_seed(seed, i):
    """Seed of op i of a run with workload seed `seed`."""
    return seed * OP_SEED_STRIDE + i


def run_cli(argv):
    """bochner.cli.main(argv) in this process: (exit code, stdout)."""
    from bochner import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class FormsN4:
    """One op: for every stratum at n = 4, p + q <= 5, a random stratum form
    (coefficient equality) and a product of random (p-k, 0) and (0, q-k)
    factors (upper bound), both through sharp_norm_coefficient_check."""

    n, max_degree = 4, 5

    def setup(self):
        from bochner import forms
        from bochner.tensors import EuclideanSpace

        self.forms = forms
        self.space = EuclideanSpace.complex_space(self.n)
        self.strata = [s for s in checks.forms_strata(self.n, self.max_degree)
                       if checks.stratum_dim(self.n, *s) > 0]

    def final_check(self):
        """Once per run, after the timed ops: every stratum basis has the
        dimension of Omega^k ^ primitive(p-k, q-k)."""
        problems = []
        for (p, q, k) in self.strata:
            got = len(self.forms.stratum_basis(self.space, p, q, k))
            if got != checks.stratum_dim(self.n, p, q, k):
                problems.append(f"stratum_basis({p},{q},{k}) has {got} forms, expected "
                                f"{checks.stratum_dim(self.n, p, q, k)}")
        return problems

    def op(self, seed):
        import numpy as np

        fms, space = self.forms, self.space
        rng = np.random.default_rng(seed)
        out = []
        for (p, q, k) in self.strata:
            f = fms.random_stratum_form(space, p, q, k, rng)
            r_stratum = fms.sharp_norm_coefficient_check(f)
            psi1 = fms.random_pq_form(space, p - k, 0, rng)
            psi2 = fms.random_pq_form(space, 0, q - k, rng)
            r_product = fms.sharp_norm_coefficient_check(fms.construct_Vpqk(psi1, psi2, k))
            out.append((p, q, k, f.tensor.rank, r_stratum, r_product))
        return out

    def check(self, out):
        problems = []
        for (p, q, k, rank, r_stratum, r_product) in out:
            problems += checks.check_stratum_form(self.n, p, q, k, rank, r_stratum)
            problems += checks.check_product_form(self.n, p, q, k, r_product)
        return problems

    def close(self):
        pass


class VerdictM3:
    """One op: a random quaternion-Kahler tensor at m = 3 and a random Kahler
    tensor at n = 5, each saved with save_curvature and run through the CLI
    per-request path; the spectra then go to three criterion checks."""

    m, n = 3, 5
    pq = (2, 1)

    def __init__(self, workdir):
        self.dir = Path(workdir)

    def setup(self):
        from bochner import curvature
        from bochner.tensors import EuclideanSpace

        self.curv = curvature
        self.qspace = EuclideanSpace.quaternionic_space(self.m)
        self.kspace = EuclideanSpace.complex_space(self.n)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {name: str(self.dir / f"{name}.json")
                      for name in ("q", "k", "q_spectrum", "k_spectrum")}
        # reference inputs for the checks, from the CLI's own exports
        self.sp_basis = json.loads(run_cli(["algebra", "--algebra", "sp", "--m", str(self.m)])[1])["basis"]
        self.u_basis = json.loads(run_cli(["algebra", "--algebra", "u", "--n", str(self.n)])[1])["basis"]
        hpm = json.loads(run_cli(["model", "hpm", "--m", str(self.m)])[1])
        self.hpm = _components(hpm)

    def op(self, seed):
        import numpy as np

        curv, P = self.curv, self.paths
        rng = np.random.default_rng(seed)
        qk = curv.random_quaternion_kahler_curvature(self.qspace, rng)
        kk = curv.random_kahler_curvature(self.kspace, rng)
        curv.save_curvature(qk, P["q"])
        curv.save_curvature(kk, P["k"])
        res = {"q_array": qk.array, "k_array": kk.array}
        for key, argv in [
            ("q_spectrum", ["spectrum", "-i", P["q"], "--algebra", "sp"]),
            ("k_spectrum", ["spectrum", "-i", P["k"], "--algebra", "u"]),
        ]:
            res[key] = run_cli(argv)
            with open(P[key], "w") as fh:
                fh.write(res[key][1])
        m, n, (p, q) = str(self.m), str(self.n), self.pq
        for key, argv in [
            ("q_decompose", ["decompose", "quaternion", "-i", P["q"]]),
            ("k_decompose", ["decompose", "kahler", "-i", P["k"]]),
            ("q_sharp", ["sharp-norm", "-i", P["q"]]),
            ("k_sharp", ["sharp-norm", "-i", P["k"]]),
            ("q_prop24", ["weitz", "verify", "prop24", "-i", P["q"], "--algebra", "sp"]),
            ("k_prop24", ["weitz", "verify", "prop24", "-i", P["k"], "--algebra", "u"]),
            ("check_quaternion", ["check", "quaternion", "--m", m, "--spectrum", P["q_spectrum"]]),
            ("check_bochner", ["check", "bochner", "--n", n, "--spectrum", P["k_spectrum"]]),
            ("check_pq", ["check", "pq", "--n", n, "--p", str(p), "--q", str(q),
                          "--spectrum", P["k_spectrum"]]),
        ]:
            res[key] = run_cli(argv)
        return res

    def check(self, res):
        runs = {key: v for key, v in res.items() if not key.endswith("_array")}
        for key, (rc, stdout) in runs.items():
            if not stdout or (key.endswith(("_spectrum", "_decompose", "_sharp")) and rc != 0):
                return [f"{key} exited {rc}"]
        out = {key: json.loads(stdout) for key, (_, stdout) in runs.items()}
        q, k, m, n = res["q_array"], res["k_array"], self.m, self.n
        problems = checks.check_spectrum(out["q_spectrum"], q, self.sp_basis)
        problems += checks.check_spectrum(out["k_spectrum"], k, self.u_basis)
        problems += checks.check_quaternion_decompose(out["q_decompose"], q, self.hpm, m,
                                                      _components(out["q_decompose"]["r0"]))
        kd = out["k_decompose"]
        problems += checks.check_kahler_decompose(
            kd, k, n, [_components(kd[part]) for part in ("scalar_part", "ricci_part", "bochner")])
        problems += checks.check_quaternion_sharp(out["q_sharp"], q, self.hpm, m)
        problems += checks.check_kahler_sharp(out["k_sharp"], k, n)
        problems += checks.check_prop24(res["q_prop24"][0], out["q_prop24"])
        problems += checks.check_prop24(res["k_prop24"][0], out["k_prop24"])
        q_vals = checks.restricted_eigenvalues(q, self.sp_basis)
        k_vals = checks.restricted_eigenvalues(k, self.u_basis)
        for key, vals, (count, weight) in [
            ("check_quaternion", q_vals, checks.quaternion_count_weight(m)),
            ("check_bochner", k_vals, checks.bochner_count_weight(n)),
            ("check_pq", k_vals, checks.pq_count_weight(n, *self.pq)),
        ]:
            problems += checks.check_verdict(res[key][0], out[key], vals, count, weight)
        return problems

    def final_check(self):
        return []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _components(obj):
    """Real rank-k array of a tensor interchange dict (imaginary parts dropped)."""
    import numpy as np

    d, k = obj["dim"], obj["rank"]
    return np.array([re for re, _ in obj["components"]]).reshape((d,) * k)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args):
    if args.workload == "forms-n4":
        wl = FormsN4()
    else:
        wl = VerdictM3(HERE / "out" / f"work-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        wl.setup()
        problems = wl.check(wl.op(op_seed(args.seed, 0)))
        setup_agg = tracer.take() if tracer else {}
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = timed_loop(wl, args, tracer)
        result["problems"] += wl.final_check()
    finally:
        wl.close()
    result["problems"] = problems + result["problems"]
    result["setup_agg"] = setup_agg
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


def timed_loop(wl, args, tracer):
    """Closed loop, one op at a time; with a tracer, untraced and traced ops
    alternate on the same op seed."""
    times, traced_times, problems = [], [], []
    attempted = failed = 0
    op_agg = {}
    clock = time.perf_counter
    start = clock()
    i = 0
    while clock() - start < args.seconds:
        s = op_seed(args.seed, i)
        i += 1
        for traced in ((False, True) if tracer else (False,)):
            if tracer:
                (tracer.install if traced else tracer.uninstall)()
            attempted += 1
            t0 = clock()
            try:
                out = wl.op(s)
            except Exception as exc:  # an op that raises counts as failed
                failed += 1
                problems.append(f"op seed {s}: {type(exc).__name__}: {exc}")
                if tracer:
                    tracer.take()
                continue
            (traced_times if traced else times).append(clock() - t0)
            if traced:
                merge(op_agg, tracer.take())
            problems += wl.check(out)
    if tracer:
        tracer.uninstall()
    return {"times": times, "traced_times": traced_times, "attempted": attempted,
            "failed": failed, "problems": problems, "op_agg": op_agg}


def traced_verify_op(args):
    tracer = Tracer()
    tracer.install()
    from bochner import cli

    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "all", "--seed", str(args.op_seed)])
    tracer.uninstall()
    print(json.dumps({"returncode": rc, "stdout": out.getvalue(), "agg": tracer.take()}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["forms-n4", "verdict-m3", "verify-all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--op-seed", type=int, help="verify-all: seed of the traced op")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "verify-all":
        return traced_verify_op(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
