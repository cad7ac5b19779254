"""Show that each workload's correctness checks reject corrupted output.

    python3 perfbench/selfcheck.py

Takes real output of each workload at small sizes, confirms the checks
accept it, then corrupts it (a perturbed sharp norm, a wrong Casimir
constant in place of 4(m+2), a flipped pass bit, a repeated seed whose
stdout is not byte-identical, a shifted eigenvalue and condition value)
and confirms each corruption is rejected.  Exits 1 if any check lets a
corruption through or rejects good output.  Runs in a few seconds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import FormsN4, VerdictM3  # noqa: E402

RESULTS = []


def expect(name, problems, rejected):
    ok = bool(problems) == rejected
    RESULTS.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def verify_all():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "bochner.cli", "verify", "all", "--seed", "7"],
                          capture_output=True, text=True, env=env, timeout=120)
    expect("verify-all: real output", checks.check_verify_all(proc.returncode, proc.stdout), False)
    reports = checks.parse_json_stream(proc.stdout)
    for suite in ("prop27", "lemma26", "bochner-tracefree"):
        bad = copy.deepcopy(reports)
        case = next(r for r in bad if r["suite"] == suite)["cases"][0]
        case["pass"] = not case["pass"]
        text = "".join(json.dumps(r, indent=2, sort_keys=True) + "\n" for r in bad)
        expect(f"verify-all: flipped pass bit in {suite}",
               checks.check_verify_all(proc.returncode, text), True)
    expect("verify-all: repeated seed, identical stdout",
           checks.check_repeat(proc.stdout, proc.stdout), False)
    changed = proc.stdout.replace('"lhs": ', '"lhs": 1', 1)
    expect("verify-all: repeated seed, stdout differs in one digit",
           checks.check_repeat(proc.stdout, changed), True)


def forms():
    wl = FormsN4()
    wl.setup()
    wl.strata = [(2, 1, 0), (2, 2, 1), (3, 2, 1)]
    out = wl.op(7)
    expect("forms-n4: real output", wl.check(out), False)
    for i, (p, q, k, _, _, product) in enumerate(out):
        bad = copy.deepcopy(out)
        bad[i][4]["sharp_norm2"] *= 1 + 1e-6
        expect(f"forms-n4: stratum form ({p},{q},{k}), sharp norm x (1 + 1e-6)", wl.check(bad), True)
        bad = copy.deepcopy(out)
        bad[i][5]["sharp_norm2"] = 1.01 * checks.sharp_constant(wl.n, p, q, k) * product["circ_norm2"]
        expect(f"forms-n4: product ({p},{q},{k}), sharp norm 1% above its bound", wl.check(bad), True)


class SmallVerdict(VerdictM3):
    m, n = 2, 3


def _edit(res, key, fn):
    bad = dict(res)
    rc, stdout = res[key]
    obj = json.loads(stdout)
    fn(obj)
    bad[key] = (rc, json.dumps(obj))
    return bad


def verdict():
    wl = SmallVerdict(HERE / "out" / f"selfcheck-{os.getpid()}")
    try:
        wl.setup()
        res = wl.op(7)
    finally:
        wl.close()
    expect("verdict: real output", wl.check(res), False)
    m = wl.m
    r0 = checks.quaternion_r0(res["q_array"], wl.hpm, m)
    r0_norm2 = float((r0 * r0).sum())

    def wrong_casimir(obj):
        obj["lhs_tensor"] = (4.0 / 3.0) * (3 * m + 4) * r0_norm2

    cases = [
        ("wrong Casimir constant (4/3)(3m+4) in place of 4(m+2)", "q_sharp", wrong_casimir),
        ("perturbed Kahler sharp norm", "k_sharp",
         lambda o: o.update(lhs_tensor=o["lhs_tensor"] * (1 + 1e-6))),
        ("flipped pass bit in weitz verify prop24", "k_prop24",
         lambda o: o["cases"][0].update({"pass": False})),
        ("shifted eigenvalue", "q_spectrum",
         lambda o: o["eigenvalues"].__setitem__(0, o["eigenvalues"][0] + 1e-6)),
        ("perturbed hp_coefficient", "q_decompose",
         lambda o: o.update(hp_coefficient=o["hp_coefficient"] * (1 + 1e-6))),
        ("shifted condition_value", "check_quaternion",
         lambda o: o.update(condition_value=o["condition_value"] + 1e-3)),
    ]
    for name, key, fn in cases:
        expect(f"verdict: {name}", wl.check(_edit(res, key, fn)), True)


def main():
    verify_all()
    forms()
    verdict()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} self-checks as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
