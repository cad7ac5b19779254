"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion is asserted at its stated tolerance, on the domain the
library states for it:

* criterion 3: the sharp-norm coefficient c(n, p, q, k) is an equality
  on the Lefschetz stratum Omega^k ^ primitive(p-k, q-k) and an upper
  bound on the other strata (forms.py).  A product psi_1 ^ Omega^k ^
  psi_2 can reach the other strata: at n = 3, dz^12 ^ dzbar^1 has an
  Omega ^ (1, 0) component, on which the u(3) Casimir is 3 rather than
  7.  So the test asserts the equality on each product's stratum
  component and the bound on the whole product.
* criterion 6: |Rm^sp|^2 / |R0|^2 is the sp(m) Casimir eigenvalue on the
  irreducible remainder space S^4 C^{2m}.  The test takes that constant
  from an oracle built from the algebra's basis matrices and the
  highest-weight formula, never from the library's report.
"""

import json
import time

import numpy as np
import pytest

import bochner
from bochner import (
    ComplexTensor,
    EuclideanSpace,
    chsc_model,
    construct_Vpqk,
    form_constant,
    kappa_bound,
    kappa_bound_harmonic_field,
    kahler_decompose,
    kahler_sharp_identity,
    kato_constant,
    quaternion_sharp_identity,
    quaternionic_projective_model,
    random_curvature,
    random_hyperkahler_curvature,
    random_kahler_curvature,
    sharp_coefficient,
    sharp_norm_coefficient_check,
    stratum_constant,
    verify_eigenvalue_sum_bound,
    verify_weitzenbock_restriction,
)
from bochner.cli import main as cli_main
from bochner.criteria import (
    bochner_parity_coefficient,
    quaternion_parity_coefficient,
)
from bochner.forms import PQForm, build_pq_basis, random_pq_form, stratum_basis
from bochner.holonomy import cached_algebra

from fractions import Fraction

from oracles import quaternion_sharp_constant_naive

SEED = 20240801


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_criterion_01_operator_duality():
    """|Rm|^2 = 4 |R|^2 on 100 random curvature tensors per dimension."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (4, 6, 8):
        space = EuclideanSpace.complex_space(d // 2)
        for _ in range(100):
            rm = random_curvature(space, rng)
            dev = abs(rm.norm2() - 4.0 * np.sum(rm.operator * rm.operator)) / rm.norm2()
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"(worst rel dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_weitzenbock_restriction_identity():
    """g(Ric(T), conj T) equals the restricted curvature term on models."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    targets = []
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        targets.append((chsc_model(space, 4.0), cached_algebra(space, "u")))
    qspace = EuclideanSpace.quaternionic_space(2)
    targets.append((quaternionic_projective_model(qspace), cached_algebra(qspace, "sp")))
    worst = 0.0
    for rm, algebra in targets:
        for rank in (1, 2, 3):
            for _ in range(50):
                T = ComplexTensor.random(rm.space, rank, rng)
                r, = verify_weitzenbock_restriction(rm, algebra, [T])
                worst = max(worst, r["deviation"])
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 60.0
    _report(2, f"(worst rel dev {worst:.2e}, {elapsed:.2f}s)")


def _acceptance_pq_grid():
    out = []
    for n in (1, 2, 3):
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                for k in range(0, min(p, q) + 1):
                    if p + q - 2 * k > 0:
                        out.append((n, p, q, k))
    return out


def _stratum_component(phi, stratum):
    """Orthogonal projection of phi onto the span of the stratum forms."""
    Q, _ = np.linalg.qr(np.array([f.tensor.components.ravel() for f in stratum]).T)
    x = Q @ (Q.conj().T @ phi.tensor.components.ravel())
    T = ComplexTensor(phi.space, x.reshape(phi.tensor.components.shape))
    return PQForm(phi.space, phi.p, phi.q, T, k=phi.k, validate=False)


@pytest.mark.parametrize("n,p,q,k", _acceptance_pq_grid())
def test_criterion_03_sharp_norm_coefficient(n, p, q, k):
    """|phi^u|^2 = c |circ phi|^2 on the Omega^k ^ primitive(p-k, q-k)
    component of every product psi_1 ^ Omega^k ^ psi_2 and of 20 random
    product combinations, and |phi^u|^2 <= c |circ phi|^2 on the whole
    product, where c = sharp_coefficient(n, p, q, k).
    """
    rng = np.random.default_rng(SEED + 100 * n + 10 * p + q + k)
    space = EuclideanSpace.complex_space(n)
    coeff = float(sharp_coefficient(n, p, q, k))
    forms = []
    basis1 = build_pq_basis(space, p - k, 0)
    basis2 = build_pq_basis(space, 0, q - k)
    for psi1 in basis1:
        for psi2 in basis2:
            forms.append(construct_Vpqk(psi1, psi2, k))
    for _ in range(20):
        psi1 = random_pq_form(space, p - k, 0, rng)
        psi2 = random_pq_form(space, 0, q - k, rng)
        forms.append(construct_Vpqk(psi1, psi2, k))
    stratum = stratum_basis(space, p, q, k)
    worst = 0.0
    excess = 0.0
    for f in forms:
        r = sharp_norm_coefficient_check(_stratum_component(f, stratum))
        if not r["vacuous"]:
            worst = max(worst, r["relative_deviation"])
        r = sharp_norm_coefficient_check(f)
        if not r["vacuous"]:
            excess = max(excess, r["sharp_norm2"] / r["coefficient_times_circ"] - 1.0)
    assert worst < 1e-8, (
        f"coefficient {coeff} misses |phi^u|^2 / |circ phi|^2 by {worst:.3e} on the "
        f"Omega^{k} ^ primitive({p - k},{q - k}) component of V^({p},{q})_{k} products")
    assert excess <= 1e-8, (
        f"|phi^u|^2 exceeds {coeff} |circ phi|^2 by the relative amount {excess:.3e} "
        f"on a product of V^({p},{q})_{k}")
    _report(3, f"(n={n} p={p} q={q} k={k}, worst rel dev {worst:.2e}, "
               f"bound excess {excess:.2e})")


@pytest.mark.parametrize("n,p,q,k", _acceptance_pq_grid())
def test_criterion_04_action_bound(n, p, q, k):
    """|L phi|^2 <= (p+q-2k) |L|^2 |circ phi|^2 for every L in u(n), checked
    on the exact supremum over unit L."""
    rng = np.random.default_rng(SEED + 100 * n + 10 * p + q + k)
    space = EuclideanSpace.complex_space(n)
    psi1 = random_pq_form(space, p - k, 0, rng)
    psi2 = random_pq_form(space, 0, q - k, rng)
    f = construct_Vpqk(psi1, psi2, k)
    from bochner import action_bound_check

    r = action_bound_check(f)
    if not r["vacuous"]:
        assert r["max_ratio"] <= 1.0 + 1e-9
    _report(4, f"(n={n} p={p} q={q} k={k}, max ratio {r.get('max_ratio', 0.0):.6f})")


def test_criterion_05_kahler_sharp_identity():
    """Sharp-norm identity on 50 random Kahler tensors per n, plus the
    equality case, in the operator scaling of the curvature norms."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        for _ in range(50):
            rm = random_kahler_curvature(space, rng)
            rep = kahler_sharp_identity(rm)
            denom = max(abs(rep["lhs_operator"]), abs(rep["rhs_operator"]))
            worst = max(worst, abs(rep["lhs_operator"] - rep["rhs_operator"]) / denom)
        eq = kahler_sharp_identity(chsc_model(space, 2.0))
        assert abs(eq["lhs_operator"]) < 1e-10
        assert abs(eq["rhs_operator"]) < 1e-10
    assert worst < 1e-8
    _report(5, f"(worst rel dev {worst:.2e})")


def test_criterion_06_quaternion_sharp_identity_nominal_factor():
    """|Rm^sp|^2 = c_m |R0|^2 at m = 2 on 20 random model-plus-perturbation
    tensors, with c_m the sp(m) Casimir eigenvalue on S^4 C^{2m} computed
    by the oracle from the algebra's basis matrices and the highest-weight
    formula.

    The name refers to the report's `nominal` field, (4/3)(3m+4); that
    field misses c_m by the fixed ratio 6 : 5 at m = 2, which
    test_curvature.py::test_quaternion_sharp_nominal_constant_fixed_gap
    pins.
    """
    rng = np.random.default_rng(SEED)
    space = EuclideanSpace.quaternionic_space(2)
    expected = quaternion_sharp_constant_naive(cached_algebra(space, "sp"))
    worst = 0.0
    for _ in range(20):
        rm = quaternionic_projective_model(space) + random_hyperkahler_curvature(space, rng)
        rep = quaternion_sharp_identity(rm)
        ratio = rep["lhs_tensor"] / rep["r0_norm2"]
        worst = max(worst, abs(ratio - expected) / expected)
    assert worst < 1e-8, (
        f"|Rm^sp|^2 / |R0|^2 misses the sp(2) Casimir eigenvalue {expected:.12g} "
        f"on S^4 C^4 by the relative amount {worst:.3e}")
    _report(6, f"(Casimir constant {expected:.12g}, worst rel dev {worst:.2e})")


def test_criterion_07_bochner_remainder():
    """Total trace-freeness of the remainder and exact reassembly."""
    rng = np.random.default_rng(SEED)
    worst_trace = 0.0
    worst_reassembly = 0.0
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        for _ in range(50):
            rm = random_kahler_curvature(space, rng)
            rm = rm * (1.0 / np.sqrt(rm.norm2()))
            dec = kahler_decompose(rm)
            t1, t2 = dec.bochner_traces()
            worst_trace = max(worst_trace, t1, t2)
            worst_reassembly = max(worst_reassembly,
                                   float(np.abs(dec.reassembled().array - rm.array).max()))
    assert worst_trace < 1e-8
    assert worst_reassembly < 1e-9
    _report(7, f"(worst trace {worst_trace:.2e}, reassembly {worst_reassembly:.2e})")


def test_criterion_08_hpm_holonomy_support():
    """The quaternionic projective operator annihilates the complement."""
    space = EuclideanSpace.quaternionic_space(2)
    op = quaternionic_projective_model(space).operator
    algebra = cached_algebra(space, "sp")
    Q = algebra.complement_projector()
    leak = float(np.linalg.norm(op @ Q, 2))
    assert leak < 1e-9
    _report(8, f"(complement operator norm {leak:.2e})")


def test_criterion_09_eigenvalue_sum_bound_one_zero_forms():
    """Partial-sum lower bound on (1, 0)-forms with C = n: the conclusion
    holds on every one of 200 admitted samples with 1e-10 slack."""
    rng = np.random.default_rng(SEED)
    n = 2
    space = EuclideanSpace.complex_space(n)
    algebra = cached_algebra(space, "u")
    C = float(n)
    kappa = -1.0
    admitted_total = 0
    checked = 0
    while admitted_total < 200:
        G = rng.standard_normal((n * n, n * n))
        G = 0.5 * (G + G.T)
        spec = np.linalg.eigvalsh(G)
        for ell in (1, 2):
            premise = float(np.sum(spec[:ell])) + (C - ell) * (spec[ell] if ell < 4 else 0.0)
            if premise < kappa * (ell + 1):
                continue
            tensors = [random_pq_form(space, 1, 0, rng).tensor for _ in range(25)]
            r = verify_eigenvalue_sum_bound(G, algebra, C, ell, kappa, tensors, slack=1e-10)
            assert r["premise_holds"]
            assert r["all_pass"]
            assert r["admitted"] == 25  # (1, 0)-forms always satisfy the hypothesis
            admitted_total += r["admitted"]
            checked += 1
            break
    assert admitted_total >= 200
    _report(9, f"({admitted_total} admitted samples over {checked} spectra)")


def test_criterion_10_constants_table():
    """Closed-form constants reproduce the worked values exactly."""
    assert stratum_constant(3, 1, 1, 0).value == 3
    assert stratum_constant(5, 1, 0, 0).value == 5
    with pytest.raises(bochner.VacuousStratumError):
        stratum_constant(3, 1, 1, 1)
    assert form_constant(3, 2, 1).value == Fraction(7, 3)
    assert form_constant(3, 2, 1).floor == 2
    assert form_constant(4, 1, 0).value == 4
    assert form_constant(4, 2, 2).value == 3
    assert kato_constant(2, 2, 0) == Fraction(1, 2)
    assert kato_constant(2, 1, 0) == Fraction(9, 16)
    assert kato_constant(3, 1, 1) == Fraction(25, 36)
    assert kappa_bound(2, 1, 0) == 1
    assert kappa_bound(2, Fraction(1, 2), 0) == 2
    assert kappa_bound_harmonic_field(2, 1, 0, 2, 1) == Fraction(7, 9)
    assert {bochner_parity_coefficient(n) for n in range(2, 10)} \
        == {Fraction(0), Fraction(1, 2)}
    assert {quaternion_parity_coefficient(m) for m in range(2, 10)} \
        == {Fraction(1, 6), Fraction(2, 3)}
    _report(10)


def test_criterion_11_end_to_end(tmp_path, capsys):
    """CLI verdicts on the models and the full verification run."""
    code = cli_main(["check", "pq", "--n", "2", "--p", "1", "--q", "0",
                     "--kappa", "0", "--model", "chsc", "--c", "4"])
    out = capsys.readouterr().out
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "vanishing"
    assert v["condition_value"] > 0

    code = cli_main(["check", "pq", "--n", "2", "--p", "1", "--q", "0",
                     "--kappa", "0", "--model", "flat"])
    out = capsys.readouterr().out
    assert code == 0
    v = json.loads(out)
    assert v["conclusion"] == "parallel"
    assert v["condition_value"] == 0.0

    t0 = time.perf_counter()
    code = cli_main(["verify", "all", "--seed", str(SEED)])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 300.0
    _report(11, f"(verify all in {elapsed:.1f}s)")
