"""(p,q)-form construction, purity, circ reduction, sharp-norm coefficients."""

import math

import numpy as np
import pytest

from bochner import (
    ComplexTensor,
    EuclideanSpace,
    Form,
    PQForm,
    action_bound_check,
    build_pq_basis,
    circ,
    construct_Vpqk,
    hermitian_inner,
    omega_power,
    sharp,
    sharp_coefficient,
    sharp_norm_coefficient_check,
    wedge,
)
from bochner.criteria import serre_remap
from bochner.curvature import _kahler_form_array
from bochner.forms import primitive_pq_basis, random_pq_form, random_stratum_form, stratum_basis
from bochner.holonomy import cached_algebra
from bochner.tensors import _act_matrix, _avatars, _wedge_coefficients

from oracles import pq_project_naive, wedge_naive


# ---------------------------------------------------------------------------
# wedges and the unitary coframe


def random_form(space, degree, rng):
    """A form of mixed type with random complex coefficients."""
    size = math.comb(2 * space.n, degree)
    return Form(space, degree, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def test_wedge_matches_naive(c2, rng):
    A = random_form(c2, 1, rng)
    B = random_form(c2, 2, rng)
    got = wedge(A, B)
    expected = wedge_naive(A.tensor.components, B.tensor.components)
    assert np.allclose(got.tensor.components, expected, atol=1e-12)


def test_wedge_monomials_have_unit_components(c2):
    e0 = Form.from_tensor(ComplexTensor.basis_covector(c2, 0))
    e1 = Form.from_tensor(ComplexTensor.basis_covector(c2, 1))
    w = wedge(e0, e1)
    assert w.tensor.components[0, 1] == 1.0
    assert w.tensor.components[1, 0] == -1.0
    e2 = Form.from_tensor(ComplexTensor.basis_covector(c2, 2))
    w3 = wedge(w, e2)
    assert w3.tensor.components[0, 1, 2] == 1.0
    assert w3.tensor.components[1, 0, 2] == -1.0
    assert w3.form_norm2() == pytest.approx(1.0)


def test_wedge_graded_commutativity(c3, rng):
    a = random_form(c3, 1, rng)
    b = random_form(c3, 2, rng)
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.allclose(ab.tensor.components, ((-1) ** (1 * 2)) * ba.tensor.components, atol=1e-10)


def test_dz_pairing(c3):
    # dz^a evaluates to delta_ab on the holomorphic frame vectors
    for a, dz in enumerate(build_pq_basis(c3, 1, 0)):
        for b in range(3):
            frame = np.zeros(6, dtype=complex)
            frame[2 * b] = 0.5
            frame[2 * b + 1] = -0.5j
            assert np.dot(dz.tensor.components, frame) == pytest.approx(1.0 if a == b else 0.0)


def test_kahler_form_via_dz(c2):
    # omega = (i/2) sum_a dz^a ^ dzbar^a
    om = omega_power(c2, 1).tensor
    acc = np.zeros_like(om.components)
    for dz, dzbar in zip(build_pq_basis(c2, 1, 0), build_pq_basis(c2, 0, 1)):
        acc += 0.5j * wedge(dz, dzbar).tensor.components
    assert np.allclose(acc, om.components, atol=1e-12)
    # the one Kahler form: omega(X, Y) = g(J X, Y), the curvature module's real array
    assert np.array_equal(om.components, _kahler_form_array(c2))


def test_omega_bivector_invariance(c2):
    # every sharp slice of the Kahler form vanishes
    u = cached_algebra(c2, "u")
    dec = sharp(omega_power(c2, 1).tensor, u)
    assert dec.norm2() < 1e-20
    # omega as a bivector: |omega|^2 = n, and it lies in u(n)
    omega = _wedge_coefficients(c2.j_matrix())
    assert omega @ omega == pytest.approx(c2.n)
    assert np.allclose(u.projector() @ omega, omega, atol=1e-12)


# ---------------------------------------------------------------------------
# type purity


def test_pq_projector_fixes_pure_forms(c3):
    dz, dzbar = build_pq_basis(c3, 1, 0), build_pq_basis(c3, 0, 1)
    f = wedge(wedge(dz[0], dz[1]), dzbar[2])
    proj = pq_project_naive(f.tensor.components, c3.j_matrix(), 2, 1)
    assert np.allclose(proj, f.tensor.components, atol=1e-10)
    # and kills the wrong type
    proj03 = pq_project_naive(f.tensor.components, c3.j_matrix(), 1, 2)
    assert np.abs(proj03).max() < 1e-10


def test_pq_form_validation(c2):
    f = wedge(build_pq_basis(c2, 1, 0)[0], build_pq_basis(c2, 0, 1)[1])
    PQForm(c2, 1, 1, f)  # validates
    with pytest.raises(ValueError):
        PQForm(c2, 2, 0, f)
    with pytest.raises(ValueError):
        PQForm(c2, 1, 1, f, k=2)


def test_stratum_index_rule(c2, rng):
    # 0 <= k <= min(p, q) for a declared k, a product and a stratum; no negative power
    dz, dzbar = build_pq_basis(c2, 1, 0)[0], build_pq_basis(c2, 0, 1)[1]
    f = wedge(dz, dzbar)
    with pytest.raises(ValueError, match="stratum k = -1 out of range"):
        PQForm(c2, 1, 1, f, k=-1)
    with pytest.raises(ValueError, match="stratum k = -1 out of range"):
        construct_Vpqk(dz, dzbar, -1)
    with pytest.raises(ValueError, match="stratum k = -1 out of range"):
        random_stratum_form(c2, 1, 1, -1, rng)
    with pytest.raises(ValueError, match="stratum k = 2 out of range"):
        stratum_basis(c2, 1, 1, 2)
    with pytest.raises(ValueError, match="must be nonnegative"):
        omega_power(c2, -1)


def test_build_pq_basis_counts(c2, c3):
    assert len(build_pq_basis(c2, 1, 0)) == 2
    assert len(build_pq_basis(c3, 2, 1)) == 9
    assert len(build_pq_basis(c3, 1, 1)) == 9
    with pytest.raises(ValueError):
        build_pq_basis(c2, 3, 0)


def test_build_pq_basis_purity(c3):
    for (p, q) in ((1, 0), (1, 1), (2, 1)):
        for f in build_pq_basis(c3, p, q):
            proj = pq_project_naive(f.tensor.components, c3.j_matrix(), p, q)
            assert np.allclose(proj, f.tensor.components, atol=1e-9)


def test_wedge_with_omega_preserves_purity(c3, rng):
    f = random_pq_form(c3, 1, 0, rng)
    w = wedge(Form.from_tensor(omega_power(c3, 1).tensor), f)
    proj = pq_project_naive(w.tensor.components, c3.j_matrix(), 2, 1)
    assert np.allclose(proj, w.tensor.components,
                       atol=1e-9 * math.sqrt(w.norm2()))


# ---------------------------------------------------------------------------
# V^{p,q}_k construction


def test_construct_Vpqk_plain_wedge_at_k0(c3, rng):
    psi1 = random_pq_form(c3, 1, 0, rng)
    psi2 = random_pq_form(c3, 0, 1, rng)
    f = construct_Vpqk(psi1, psi2, 0)
    expected = wedge(psi1, psi2)
    assert np.allclose(f.tensor.components, expected.tensor.components, atol=1e-10)
    assert f.k == 0


def test_construct_Vpqk_omega_powers(c2):
    one = PQForm(c2, 0, 0, ComplexTensor(c2, np.array(1.0 + 0j)), k=0)
    f = construct_Vpqk(one, one, 2)
    assert np.allclose(f.tensor.components, omega_power(c2, 2).tensor.components, atol=1e-10)
    assert (f.p, f.q, f.k) == (2, 2, 2)


def test_construct_Vpqk_nonzero_pure(c3, rng):
    psi1 = random_pq_form(c3, 1, 0, rng)
    psi2 = random_pq_form(c3, 0, 1, rng)
    f = construct_Vpqk(psi1, psi2, 1)
    assert (f.p, f.q, f.k) == (2, 2, 1)
    assert f.norm2() > 1e-6
    proj = pq_project_naive(f.tensor.components, c3.j_matrix(), 2, 2)
    assert np.allclose(proj, f.tensor.components,
                       atol=1e-9 * math.sqrt(f.norm2()))


def test_construct_Vpqk_shape_errors(c3, rng):
    psi1 = random_pq_form(c3, 1, 0, rng)
    psi2 = random_pq_form(c3, 0, 1, rng)
    with pytest.raises(ValueError):
        construct_Vpqk(psi2, psi1, 0)


# ---------------------------------------------------------------------------
# circ reduction


def test_circ_identity_off_diagonal(c3, rng):
    f = random_pq_form(c3, 2, 1, rng)
    assert np.array_equal(circ(f).tensor.components, f.tensor.components)


def test_circ_kills_omega_power(c2):
    omp = omega_power(c2, 2)
    f = PQForm(c2, 2, 2, omp, k=2, validate=False)
    assert circ(f).norm2() < 1e-20


def test_circ_fixes_orthogonal_forms_and_orthogonalizes(c2, rng):
    f = random_pq_form(c2, 1, 1, rng)
    red = circ(f)
    om = omega_power(c2, 1).tensor
    assert abs(hermitian_inner(red.tensor, om)) < 1e-10
    # re-applying changes nothing
    again = circ(red)
    assert np.allclose(again.tensor.components, red.tensor.components, atol=1e-12)


# ---------------------------------------------------------------------------
# sharp-norm coefficient


def test_sharp_coefficient_values():
    assert sharp_coefficient(2, 1, 0, 0) == 2
    assert sharp_coefficient(3, 1, 0, 0) == 3
    assert sharp_coefficient(2, 1, 1, 0) == 4
    assert sharp_coefficient(3, 2, 1, 0) == 7
    assert sharp_coefficient(3, 2, 1, 1) == 3


def test_coefficient_check_one_zero_forms(c2, rng):
    for f in build_pq_basis(c2, 1, 0):
        r = sharp_norm_coefficient_check(f)
        assert r["coefficient"] == 2.0
        assert r["relative_deviation"] < 1e-9


def test_coefficient_check_primitive_one_one(c2, rng):
    for _ in range(5):
        f = random_pq_form(c2, 1, 1, rng)
        r = sharp_norm_coefficient_check(f)
        assert r["coefficient"] == 4.0
        assert r["relative_deviation"] < 1e-9


def test_coefficient_check_omega_vacuous(c2):
    f = PQForm(c2, 1, 1, omega_power(c2, 1), k=1, validate=False)
    r = sharp_norm_coefficient_check(f)
    assert r["vacuous"]
    assert r["sharp_norm2"] < 1e-20


def test_coefficient_exact_on_strata_full_grid(rng):
    """The identity is exact on Omega^k ^ primitive(p-k, q-k) for every
    configuration with p + q <= n <= 3."""
    for n in (1, 2, 3):
        space = EuclideanSpace.complex_space(n)
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                for k in range(0, min(p, q) + 1):
                    if p + q - 2 * k == 0:
                        continue
                    for f in stratum_basis(space, p, q, k):
                        r = sharp_norm_coefficient_check(f)
                        if r["vacuous"]:
                            continue
                        assert r["relative_deviation"] < 1e-8, (n, p, q, k)
                    for _ in range(5):
                        f = random_stratum_form(space, p, q, k, rng)
                        r = sharp_norm_coefficient_check(f)
                        assert r["relative_deviation"] < 1e-8, (n, p, q, k)


def test_coefficient_fails_on_stratum_mixing_products(c3):
    """dz^{12} ^ dzbar^1 mixes the strata with constants 7 and 3 in equal
    parts, so its measured ratio is 5; the disjoint-index product is
    primitive and exact.  This pins the domain of validity."""
    dz, dzbar = build_pq_basis(c3, 1, 0), build_pq_basis(c3, 0, 1)
    mixed = PQForm(c3, 2, 1, wedge(wedge(dz[0], dz[1]), dzbar[0]), k=0, validate=False)
    r = sharp_norm_coefficient_check(mixed)
    assert r["coefficient"] == 7.0
    assert r["sharp_norm2"] / r["circ_norm2"] == pytest.approx(5.0, rel=1e-10)
    disjoint = PQForm(c3, 2, 1, wedge(wedge(dz[0], dz[1]), dzbar[2]), k=0, validate=False)
    r = sharp_norm_coefficient_check(disjoint)
    assert r["relative_deviation"] < 1e-10


def test_primitive_basis_is_omega_trace_free(c2, c3):
    # the dense trace against omega of every degree >= 2 type at n = 2, 3
    for space in (c2, c3):
        om = space.j_matrix().T
        for p in range(space.n + 1):
            for q in range(max(0, 2 - p), space.n + 1):
                for f in primitive_pq_basis(space, p, q):
                    tr = np.tensordot(om, f.tensor.components, axes=([0, 1], [0, 1]))
                    assert np.abs(tr).max() < 1e-10, (space.n, p, q)
    # dimension: primitive (1,1) has n^2 - 1 directions
    assert len(primitive_pq_basis(c3, 1, 1)) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primitive_basis_dimension(n):
    # C(n,p) C(n,q) - C(n,p-1) C(n,q-1), and none beyond the middle degree
    space = EuclideanSpace.complex_space(n)
    for p in range(n + 1):
        for q in range(n + 1):
            if p + q > min(2 * n, 4):
                continue
            lowered = math.comb(n, p - 1) * math.comb(n, q - 1) if p and q else 0
            expected = max(0, math.comb(n, p) * math.comb(n, q) - lowered)
            assert len(primitive_pq_basis(space, p, q)) == expected, (n, p, q)


def test_random_stratum_form_rejects_empty_stratum(c3, rng):
    # Omega^0 ^ primitive(2, 2) vanishes at n = 3
    assert stratum_basis(c3, 2, 2, 0) == []
    with pytest.raises(ValueError, match="empty"):
        random_stratum_form(c3, 2, 2, 0, rng)


# ---------------------------------------------------------------------------
# action bound


def test_action_bound_on_random_forms(c2, c3, rng):
    # the bound holds on all of Lambda^{p,q}, strata mixing included
    for space in (c2, c3):
        n = space.n
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                if p + q == 0:
                    continue
                f = random_pq_form(space, p, q, rng)
                r = action_bound_check(f)
                if r["vacuous"]:
                    continue
                assert r["max_ratio"] <= 1.0 + 1e-9, (n, p, q)


def test_action_bound_vacuous_cases(c2):
    f = PQForm(c2, 1, 1, omega_power(c2, 1), k=1, validate=False)
    assert action_bound_check(f)["vacuous"]


def test_action_bound_tight_for_one_zero_forms(c2):
    # L = eps ^ J eps acting on dz^1 achieves the bound exactly
    f = PQForm(c2, 1, 0, build_pq_basis(c2, 1, 0)[0], k=0)
    M = _avatars(4, np.eye(6)[0])  # e_1 ^ e_2
    LT = _act_matrix(M[None], f.tensor.components)[0]
    ratio = np.vdot(LT, LT).real / (1 * circ(f).norm2())
    assert ratio == pytest.approx(1.0, rel=1e-12)
    # the exact supremum over unit L reaches it
    assert action_bound_check(f)["max_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_serre_remap():
    # the degrees a beyond-half-degree form is dualized to
    assert serre_remap(3, 2, 2)[:2] == (1, 1)
    assert serre_remap(3, 1, 1)[:2] == (1, 1)
    assert serre_remap(2, 2, 1)[:2] == (0, 1)


def test_coefficient_check_beyond_half_degree_remaps_stratum(c3, rng):
    # a (2,2)-form of stratum 1 on C^3 dualizes to (1,1) at stratum 0;
    # its primitive content keeps the constant 2n = 6
    f = random_stratum_form(c3, 2, 2, 1, rng)
    r = sharp_norm_coefficient_check(f)
    assert r["coefficient"] == 6.0
    assert r["relative_deviation"] < 1e-9
    # stratum 1 of type (3, 1) dualizes to (0, 2) at stratum 0, constant 4
    g = random_stratum_form(c3, 3, 1, 1, rng)
    r = sharp_norm_coefficient_check(g)
    assert r["coefficient"] == 4.0
    assert r["relative_deviation"] < 1e-9


def test_pqform_json_round_trip(c3, rng):
    import json

    from bochner.forms import pqform_from_json, pqform_to_json

    psi1 = random_pq_form(c3, 1, 0, rng)
    psi2 = random_pq_form(c3, 0, 1, rng)
    f = construct_Vpqk(psi1, psi2, 1)
    obj = json.loads(json.dumps(pqform_to_json(f)))
    assert (obj["p"], obj["q"], obj["k"]) == (2, 2, 1)
    back = pqform_from_json(obj)
    assert (back.p, back.q, back.k) == (2, 2, 1)
    assert np.array_equal(back.tensor.components, f.tensor.components)
    # the k key is omitted when the stratum is undeclared
    g = PQForm(c3, 1, 1, circ(random_pq_form(c3, 1, 1, rng)).tensor)
    assert "k" not in pqform_to_json(g)
    assert pqform_from_json(pqform_to_json(g)).k is None


@pytest.mark.parametrize("key,value", [("p", None), ("p", 1.7), ("p", "1"), ("k", True), ("k", 1.0)],
                         ids=["missing-p", "float-p", "string-p", "bool-k", "float-k"])
def test_pqform_reader_needs_integer_p_q_and_k(c2, key, value):
    # p, q and a present k are integers, as the tensor header's dim and rank are
    from bochner.forms import pqform_from_json, pqform_to_json

    obj = pqform_to_json(omega_power(c2, 1))
    assert (obj["p"], obj["q"], obj["k"]) == (1, 1, 1)
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError, match=f"integer '{key}'"):
        pqform_from_json(obj)
