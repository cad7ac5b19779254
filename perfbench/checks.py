"""Correctness checks for the three workloads.

Every check compares the program's output with a computation the
benchmark makes itself, or with a property the method must have; none
compares with a stored copy of earlier output.  Each returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

VERIFY_SUITES = ("identities", "prop24", "prop27", "prop28", "lemma26", "lemma212",
                 "lemma213", "bochner-tracefree")
FORM_TOL = 1e-8
SPECTRUM_TOL = 1e-9
NORM_TOL = 1e-8
LEAKAGE_MAX = 1e-6


# ---------------------------------------------------------------------------
# verify-all


def parse_json_stream(text):
    """The consecutive JSON documents printed by one CLI call."""
    dec = json.JSONDecoder()
    out, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        obj, pos = dec.raw_decode(text, pos)
        out.append(obj)


def _expected_pass(suite, case, tolerances):
    """Re-derive a case's pass bit from lhs, rhs and the printed tolerance.

    Equality cases pass on |lhs - rhs| / max(|lhs|, |rhs|, 1) <= tol,
    one-sided cases on lhs <= rhs + tol; which kind a case is follows
    from its suite and id.
    """
    cid, lhs, rhs = case["id"], case["lhs"], case["rhs"]
    if suite == "bochner-tracefree":
        tol = tolerances["reassembly" if cid.endswith("/reassembly") else "trace"]
    else:
        (tol,) = tolerances.values()
    one_sided = suite in ("prop28", "lemma26", "bochner-tracefree") or \
        cid.endswith(("/chsc-lhs", "/chsc-rhs"))
    if one_sided:
        return lhs <= rhs + tol
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) <= tol


def check_verify_all(returncode, stdout):
    problems = []
    if returncode != 0:
        problems.append(f"verify all exited {returncode}")
    try:
        reports = parse_json_stream(stdout)
    except ValueError as exc:
        return problems + [f"verify all stdout is not JSON: {exc}"]
    suites = tuple(r.get("suite") for r in reports)
    if suites != VERIFY_SUITES:
        problems.append(f"suites {suites}, expected {VERIFY_SUITES}")
    for rep in reports:
        cases = rep.get("cases", [])
        if not cases:
            problems.append(f"suite {rep.get('suite')} has no cases")
        for case in cases:
            want = _expected_pass(rep["suite"], case, rep["tolerances"])
            if case["pass"] != want:
                problems.append(f"{case['id']}: printed pass {case['pass']}, re-derived {want}")
            elif not want:
                problems.append(f"{case['id']}: fails (lhs {case['lhs']!r}, rhs {case['rhs']!r})")
        if rep.get("all_pass") != all(c["pass"] for c in cases):
            problems.append(f"suite {rep.get('suite')}: all_pass disagrees with its cases")
    return problems


def check_repeat(first, second):
    """A repeated seed must give byte-identical stdout."""
    return [] if first == second else ["repeated seed gave different stdout"]


# ---------------------------------------------------------------------------
# forms-n4


def forms_strata(n, max_degree):
    """Every (p, q, k) the library defines at n with p + q <= max_degree and
    p + q - 2k > 0; on the Serre side (p + q > n) the shifted index
    k - (p + q - n) must be nonnegative."""
    out = []
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q > max_degree:
                continue
            for k in range(min(p, q) + 1):
                if p + q - 2 * k > 0 and k - max(0, p + q - n) >= 0:
                    out.append((p, q, k))
    return out


def stratum_dim(n, p, q, k):
    """dim Omega^k ^ primitive(p-k, q-k) = C(n,a)C(n,b) - C(n,a-1)C(n,b-1)."""
    def c(j):
        return math.comb(n, j) if 0 <= j <= n else 0
    a, b = p - k, q - k
    return c(a) * c(b) - c(a - 1) * c(b - 1)


def sharp_constant(n, p, q, k):
    """c = 2(p-k)(q-k) + w(n+1-w), w = p+q-2k, after the Serre remap."""
    if p + q > n:
        p, q, k = n - p, n - q, k - (p + q - n)
    w = p + q - 2 * k
    return 2 * (p - k) * (q - k) + w * (n + 1 - w)


def check_stratum_form(n, p, q, k, rank, report):
    """Stratum forms meet |phi^u|^2 = c |circ phi|^2."""
    if rank != p + q:
        return [f"({p},{q},{k}) stratum form has rank {rank}, expected {p + q}"]
    lhs = report["sharp_norm2"]
    rhs = sharp_constant(n, p, q, k) * report["circ_norm2"]
    if report["vacuous"] or not rhs > 0:
        return [f"({p},{q},{k}) stratum form is vacuous"]
    if abs(lhs - rhs) > FORM_TOL * max(abs(lhs), abs(rhs)):
        return [f"({p},{q},{k}) stratum form: |phi^u|^2 {lhs!r} != c |circ phi|^2 {rhs!r}"]
    return []


def check_product_form(n, p, q, k, report):
    """Products psi_1 ^ Omega^k ^ psi_2 meet |phi^u|^2 <= c |circ phi|^2."""
    lhs = report["sharp_norm2"]
    rhs = sharp_constant(n, p, q, k) * report["circ_norm2"]
    if not rhs > 0 or lhs > rhs * (1 + FORM_TOL):
        return [f"({p},{q},{k}) product: |phi^u|^2 {lhs!r} exceeds c |circ phi|^2 {rhs!r}"]
    return []


# ---------------------------------------------------------------------------
# verdict-m3


def operator_matrix(rm):
    """g(R(e_i ^ e_j), e_k ^ e_l) = Rm_ijkl over lexicographic pairs i < j."""
    i, j = np.triu_indices(rm.shape[0], 1)
    return rm[i[:, None], j[:, None], i[None, :], j[None, :]]


def restricted_eigenvalues(rm, basis):
    """Ascending eigenvalues of the Gram restriction B M B^T."""
    B = np.asarray(basis, dtype=float)
    return np.linalg.eigvalsh(B @ operator_matrix(rm) @ B.T)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def check_spectrum(report, rm, basis):
    vals = restricted_eigenvalues(rm, basis)
    got = np.asarray(report["eigenvalues"])
    problems = []
    if report["dim"] != len(basis) or got.shape != vals.shape:
        return [f"spectrum dim {report['dim']}, expected {len(basis)}"]
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(got - vals).max() > SPECTRUM_TOL * scale:
        problems.append(f"spectrum deviates from eigvalsh by {np.abs(got - vals).max():.3e}")
    if not report["leakage"] <= LEAKAGE_MAX:
        problems.append(f"leakage {report['leakage']!r} above {LEAKAGE_MAX}")
    return problems


def scalar_curvature(rm):
    return float(np.einsum("iyiw->", rm))


def kulkarni_nomizu(h, k):
    return (np.einsum("xz,yw->xyzw", h, k) + np.einsum("yw,xz->xyzw", h, k)
            - np.einsum("xw,yz->xyzw", h, k) - np.einsum("yz,xw->xyzw", h, k))


def quaternion_r0(rm, hpm, m):
    """The Ricci-flat remainder Rm - scal / (16 m (m+2)) hpm."""
    return rm - scalar_curvature(rm) / (16.0 * m * (m + 2)) * hpm


def check_quaternion_decompose(report, rm, hpm, m, r0_components):
    coeff = scalar_curvature(rm) / (16.0 * m * (m + 2))
    problems = []
    if _rel(report["hp_coefficient"], coeff) > NORM_TOL:
        problems.append(f"hp_coefficient {report['hp_coefficient']!r}, expected {coeff!r}")
    r0 = quaternion_r0(rm, hpm, m)
    if np.abs(r0_components - r0).max() > NORM_TOL * max(1.0, float(np.abs(rm).max())):
        problems.append("decompose quaternion: r0 differs from Rm - coeff hpm")
    return problems


def check_quaternion_sharp(report, rm, hpm, m):
    """|Rm^sp|^2 = 4(m+2) |R0|^2 with |R0|^2 computed here."""
    r0 = quaternion_r0(rm, hpm, m)
    rhs = 4.0 * (m + 2) * float(np.sum(r0 * r0))
    if _rel(report["lhs_tensor"], rhs) > NORM_TOL:
        return [f"|Rm^sp|^2 {report['lhs_tensor']!r} != 4(m+2) |R0|^2 = {rhs!r}"]
    return []


def kahler_parts(rm, n):
    """(S, tfRic, scal) of a Kahler tensor in the block convention."""
    d = 2 * n
    J = np.zeros((d, d))
    for a in range(n):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    om, g = J.T, np.eye(d)
    ric = np.einsum("iyiw->yw", rm)
    scal = float(np.trace(ric))
    S = scal / (4.0 * n * (n + 1)) * (0.5 * kulkarni_nomizu(g, g) + 0.5 * kulkarni_nomizu(om, om)
                                       + 2.0 * np.einsum("xy,zw->xyzw", om, om))
    return S, ric - scal / d * g, scal


def check_kahler_sharp(report, rm, n):
    """|Rm^u|^2 = 4(n+1) |Rm - S|^2 - 16 |tfRic|^2 with the norms computed here."""
    S, tfric, _ = kahler_parts(rm, n)
    ringed = rm - S
    rhs = 4.0 * (n + 1) * float(np.sum(ringed * ringed)) - 16.0 * float(np.sum(tfric * tfric))
    if _rel(report["lhs_tensor"], rhs) > NORM_TOL:
        return [f"|Rm^u|^2 {report['lhs_tensor']!r} != 4(n+1)|Rm-S|^2 - 16|tfRic|^2 = {rhs!r}"]
    return []


def check_kahler_decompose(report, rm, n, parts):
    """scal matches, and scalar + Ricci + Bochner parts reassemble Rm."""
    problems = []
    _, _, scal = kahler_parts(rm, n)
    if _rel(report["scal"], scal) > NORM_TOL:
        problems.append(f"scal {report['scal']!r}, expected {scal!r}")
    if np.abs(sum(parts) - rm).max() > NORM_TOL * max(1.0, float(np.abs(rm).max())):
        problems.append("decompose kahler: parts do not reassemble Rm")
    return problems


def check_prop24(returncode, report, tol=1e-8):
    problems = [] if returncode == 0 and report["all_pass"] else ["weitz verify prop24 failed"]
    for c in report["cases"]:
        if abs(c["lhs"] - c["rhs"]) / max(abs(c["lhs"]), abs(c["rhs"]), 1.0) > tol or not c["pass"]:
            problems.append(f"prop24 {c['id']}: lhs {c['lhs']!r} rhs {c['rhs']!r}")
    return problems


def partial_sum(spectrum, count, weight):
    """mu_1 + ... + mu_count + weight mu_{count+1} on the ascending spectrum."""
    total = float(sum(spectrum[:count]))
    return total + float(weight) * float(spectrum[count]) if weight else total


def pq_count_weight(n, p, q):
    """Count and weight of C(n,p,q) = n+1 - (p^2+q^2)/(p+q), after the Serre remap."""
    if p + q > n:
        p, q = n - p, n - q
    C = Fraction(n + 1) - Fraction(p * p + q * q, p + q)
    return math.floor(C), C - math.floor(C)


def bochner_count_weight(n):
    return (n + 1) // 2, Fraction(1 + (-1) ** n, 4)


def quaternion_count_weight(m):
    return (m + 1) // 2, Fraction(5 + 3 * (-1) ** m, 12)


def check_verdict(returncode, report, spectrum, count, weight):
    """condition_value equals the partial sum formed here (kappa = k = 0)."""
    want = partial_sum(list(spectrum), count, weight)
    problems = [] if returncode in (0, 2) else [f"check exited {returncode}"]
    if _rel(report["condition_value"], want) > NORM_TOL:
        problems.append(f"{report['theorem_id']}: condition_value {report['condition_value']!r},"
                        f" partial sum {want!r}")
    return problems
