"""Curvature tensors, operators, models, decompositions, sharp-norm identities."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bochner import (
    AlgebraicCurvatureTensor,
    ComplexTensor,
    EuclideanSpace,
    chsc_model,
    constant_sectional_model,
    curvature_from_json,
    curvature_to_json,
    flat_model,
    from_operator,
    kahler_decompose,
    kahler_sharp_identity,
    kulkarni_nomizu,
    load_curvature,
    model,
    quaternion_decompose,
    quaternion_sharp_identity,
    quaternionic_projective_model,
    random_curvature,
    random_hyperkahler_curvature,
    random_kahler_curvature,
    random_quaternion_kahler_curvature,
    restricted_spectrum,
    ricci,
    save_curvature,
    scalar_curvature,
    sharp,
    sharp_norm_identities,
    tf_ricci,
)
from bochner.curvature import (_adjoint_stack, _curvature_doc, _hyperkahler_basis, _kahler_basis,
                               _sharp_norms2, _structure_model)
from bochner.holonomy import _sp_m_commutant, cached_algebra
from bochner.tensors import _act_matrix, _write_json

from oracles import (
    bracket_naive,
    component_pairs_naive,
    from_operator_naive,
    quaternion_sharp_constant_naive,
    ricci_naive,
    structure_model_naive,
    supported_curvature_basis_naive,
)


def bianchi_max(arr):
    return np.abs(arr + np.transpose(arr, (1, 2, 0, 3)) + np.transpose(arr, (2, 0, 1, 3))).max()


# ---------------------------------------------------------------------------
# operator duality and round trips


def test_operator_round_trip_random(rng):
    for d in (4, 6, 8):
        space = EuclideanSpace.complex_space(d // 2)
        for _ in range(100):
            rm = random_curvature(space, rng)
            back = from_operator(space, rm.operator)
            assert np.abs(back.array - rm.array).max() < 1e-10
            assert rm.norm2() == pytest.approx(4.0 * np.sum(rm.operator * rm.operator), rel=1e-12)


def test_zero_and_constant_sectional_operator(c3):
    assert np.sum(flat_model(c3).operator ** 2) == 0.0
    # sectional curvature c corresponds to c times the identity on wedges
    op = constant_sectional_model(c3, 2.5).operator
    assert np.abs(op - 2.5 * np.eye(15)).max() < 1e-12


def test_validation_rejects_asymmetric_input(c2):
    arr = np.zeros((4, 4, 4, 4))
    arr[0, 1, 0, 1] = 1.0  # missing the partner entries
    with pytest.raises(ValueError):
        AlgebraicCurvatureTensor(c2, arr)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite_components(c2, value):
    arr = chsc_model(c2).array.copy()
    arr[0, 1, 0, 1] = value
    with pytest.raises(ValueError, match="finite"):
        AlgebraicCurvatureTensor(c2, arr, kahler=True)


def test_constructor_refuses_complex_components(c2):
    # a complex copy is not a curvature tensor; files are read by curvature_from_json
    arr = chsc_model(c2).array.astype(complex)
    with pytest.raises(TypeError, match="real array"):
        AlgebraicCurvatureTensor(c2, arr, kahler=True)


def test_kahler_flag_validation(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    AlgebraicCurvatureTensor(c2, rm.array, kahler=True)  # passes
    bad = random_curvature(c2, rng)
    with pytest.raises(ValueError):
        AlgebraicCurvatureTensor(c2, bad.array, kahler=True)


# ---------------------------------------------------------------------------
# contractions


def test_ricci_constant_sectional(c3, rng):
    d = c3.dim
    c = 1.7
    rm = constant_sectional_model(c3, c)
    assert np.abs(ricci(rm) - c * (d - 1) * np.eye(d)).max() < 1e-12
    assert scalar_curvature(rm) == pytest.approx(c * d * (d - 1))
    assert np.abs(tf_ricci(rm)).max() < 1e-12
    # against the loop oracle on a random tensor
    rnd = random_curvature(c3, rng)
    assert np.abs(ricci(rnd) - ricci_naive(rnd.array)).max() < 1e-12


def test_flat_contractions(c2):
    rm = flat_model(c2)
    assert np.abs(ricci(rm)).max() == 0.0
    assert scalar_curvature(rm) == 0.0


def test_chsc_is_einstein(c2, c3):
    for space in (c2, c3):
        n = space.n
        rm = chsc_model(space, 3.0)
        assert np.abs(tf_ricci(rm)).max() < 1e-12
        assert scalar_curvature(rm) == pytest.approx(3.0 * n * (n + 1), rel=1e-12)


# ---------------------------------------------------------------------------
# Kulkarni-Nomizu


def test_kn_conventions(c3):
    g = np.eye(6)
    kn = kulkarni_nomizu(g, g)
    assert kn[0, 1, 0, 1] == pytest.approx(2.0)
    # half g ow g is the unit constant-sectional model
    assert np.abs(0.5 * kn - constant_sectional_model(c3, 1.0).array).max() < 1e-14
    assert np.abs(kulkarni_nomizu(np.zeros((6, 6)), g)).max() == 0.0


def test_kn_symmetric_inputs_give_curvature_symmetries(c2, rng):
    h = rng.standard_normal((4, 4))
    h = h + h.T
    k = rng.standard_normal((4, 4))
    k = k + k.T
    arr = kulkarni_nomizu(h, k)
    assert np.abs(arr + np.transpose(arr, (1, 0, 2, 3))).max() < 1e-12
    assert np.abs(arr - np.transpose(arr, (2, 3, 0, 1))).max() < 1e-12
    assert bianchi_max(arr) < 1e-12


# ---------------------------------------------------------------------------
# models


def test_hpm_annihilates_complement(h2):
    rm = quaternionic_projective_model(h2)
    alg = cached_algebra(h2, "sp")
    Q = alg.complement_projector()
    assert np.linalg.norm(rm.operator @ Q, 2) < 1e-9
    assert scalar_curvature(rm) == pytest.approx(16 * 2 * (2 + 2))


def test_hpm_restricted_spectrum(h2):
    # 4 with multiplicity dim sp(m), 4m on the three structure directions
    vals, leak = restricted_spectrum(quaternionic_projective_model(h2), cached_algebra(h2, "sp"))
    assert leak < 1e-9
    assert np.allclose(np.sort(vals), [4.0] * 10 + [8.0] * 3, atol=1e-9)


def test_chsc_supported_on_u_and_bochner_free(c2):
    rm = chsc_model(c2, 4.0)
    alg = cached_algebra(c2, "u")
    assert rm.leakage(alg) < 1e-12
    dec = kahler_decompose(rm)
    assert np.abs(dec.bochner.array).max() < 1e-12
    assert np.abs(dec.ricci_part.array).max() < 1e-12
    assert kahler_sharp_identity(rm)["lhs_tensor"] < 1e-20


def test_chsc_spectrum_values(c2, c3):
    # c/2 on the trace-free part of u(n), c (n+1)/2 on the form direction
    for space, c in ((c2, 4.0), (c3, 1.5)):
        n = space.n
        vals, leak = restricted_spectrum(chsc_model(space, c), cached_algebra(space, "u"))
        expected = np.array([c / 2.0] * (n * n - 1) + [c * (n + 1) / 2.0])
        assert leak < 1e-12
        assert np.allclose(vals, expected, atol=1e-9)
        assert vals.min() > 0


def test_model_dispatch(c2, h2):
    assert model("flat", c2).norm2() == 0.0
    assert model("chsc", c2, c=2.0).kahler
    assert model("hpm", h2).quaternion
    with pytest.raises(ValueError):
        model("nope", c2)


def test_restricted_spectrum_constant_sectional_so(c2):
    vals, leak = restricted_spectrum(constant_sectional_model(c2, 1.0), cached_algebra(c2, "so"))
    assert np.allclose(vals, 1.0, atol=1e-12)
    assert leak < 1e-12


# ---------------------------------------------------------------------------
# random generators


def test_random_kahler_is_kahler(c2, c3, rng):
    for space in (c2, c3):
        alg = cached_algebra(space, "u")
        for _ in range(5):
            rm = random_kahler_curvature(space, rng)
            J = space.j_matrix()
            jj = np.einsum("ax,by,xyzw->abzw", J, J, rm.array)
            assert np.abs(jj - rm.array).max() < 1e-10
            assert bianchi_max(rm.array) < 1e-10
            assert rm.leakage(alg) < 1e-10


def test_random_hyperkahler_properties(h2, rng):
    for _ in range(5):
        r0 = random_hyperkahler_curvature(h2, rng)
        assert np.abs(ricci(r0)).max() < 1e-9
        assert bianchi_max(r0.array) < 1e-10
        assert scalar_curvature(r0) == pytest.approx(0.0, abs=1e-9)


def _supported_basis(kind, size):
    """(space, forms, L, support rows, known dimension) of a supported basis:
    Kahler on u(n), (n(n+1)/2)^2 forms; hyperkahler on sp(m), C(2m+3, 4)."""
    if kind == "u":
        space = EuclideanSpace.complex_space(size)
        algebra = cached_algebra(space, "u")
        forms, L = _kahler_basis(algebra)
        return space, forms, L, algebra.coeff_matrix, (size * (size + 1) // 2) ** 2
    space = EuclideanSpace.quaternionic_space(size)
    forms, L = _hyperkahler_basis(space)
    return space, forms, L, _sp_m_commutant(space), math.comb(2 * size + 3, 4)


def _expanded(forms, L, d):
    """The basis tensors sum_ab S_ab lam_a (x) lam_b, shape (R, d, d, d, d)."""
    return (L.T @ forms @ L).reshape((len(forms),) + (d,) * 4)


@pytest.mark.parametrize("kind,size", [("u", n) for n in range(1, 7)]
                         + [("sp", m) for m in range(1, 5)])
def test_supported_bases_are_orthonormal_members_of_the_known_dimension(kind, size):
    # independent members of the right number span the space
    space, forms, L, support, dim = _supported_basis(kind, size)
    assert forms.shape == (dim,) + (len(support),) * 2
    assert np.array_equal(forms, np.transpose(forms, (0, 2, 1)))
    gram = np.einsum("rab,sab->rs", forms, forms)
    assert np.abs(gram - np.eye(dim)).max() <= 1e-12
    if size > (5 if kind == "u" else 3):
        return
    d = space.dim
    arr = _expanded(forms, L, d)
    assert np.allclose(np.einsum("rxyzw,rxyzw->r", arr, arr), 4.0, rtol=1e-12)
    bianchi = arr + np.transpose(arr, (0, 2, 3, 1, 4)) + np.transpose(arr, (0, 3, 1, 2, 4))
    assert np.abs(bianchi).max() <= 1e-12
    if kind == "u":
        J = space.j_matrix()
        jj = np.einsum("ax,by,rxyzw->rabzw", J, J, arr, optimize=True)
        assert np.abs(jj - arr).max() <= 1e-12
    else:
        assert np.abs(np.einsum("riyiw->ryw", arr)).max() <= 1e-12
    # the operators on Lambda^2 annihilate the complement of the algebra
    i, j = np.triu_indices(d, 1)
    ops = arr[:, i[:, None], j[:, None], i, j]
    leak = ops @ (np.eye(len(i)) - support.T @ support)
    assert np.linalg.norm(leak, axis=(1, 2)).max() <= 1e-12


@pytest.mark.parametrize("kind,size", [("u", 1), ("u", 2), ("u", 3), ("u", 4),
                                       ("sp", 1), ("sp", 2)])
def test_supported_bases_span_the_oracle_space(kind, size):
    space, forms, L, _, dim = _supported_basis(kind, size)
    d = space.dim
    two_forms = list(L.reshape(-1, d, d))
    ref = supported_curvature_basis_naive(two_forms, kind == "sp", dim)
    ours = np.linalg.qr(_expanded(forms, L, d).reshape(dim, -1).T)[0]
    theirs = np.linalg.qr(np.array(ref).reshape(dim, -1).T)[0]
    # the largest principal-angle sine between the two spans
    assert np.linalg.norm(ours - theirs @ (theirs.T @ ours), 2) <= 1e-12


@pytest.mark.parametrize("d", [4, 6, 8, 10, 12])
def test_from_operator_matches_the_oracle(d, rng):
    P = d * (d - 1) // 2
    M = rng.standard_normal((P, P))
    ours = from_operator(EuclideanSpace.euclidean(d), M + M.T, validate=False).array
    ref = from_operator_naive(M + M.T, d)
    assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


def test_from_operator_rejects_a_wrong_shape_and_a_non_symmetric_matrix(c2):
    with pytest.raises(ValueError, match=r"^operator matrix has shape \(5, 5\), expected \(6, 6\)$"):
        from_operator(c2, np.zeros((5, 5)))
    M = np.zeros((6, 6))
    M[0, 1] = 1.0
    with pytest.raises(ValueError, match="^curvature operator must be symmetric$"):
        from_operator(c2, M)


def test_operator_is_built_once_and_read_only(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    assert rm.operator is rm.operator
    assert not rm.operator.flags.writeable
    with pytest.raises(ValueError):
        rm.operator[0, 0] = 1.0
    with pytest.raises(AttributeError):
        rm.operator = np.eye(6)
    # an unvalidated tensor without the pair symmetries has no operator
    arr = np.zeros((4, 4, 4, 4))
    arr[0, 1, 0, 2] = 1.0
    with pytest.raises(ValueError, match="^curvature operator must be symmetric$"):
        AlgebraicCurvatureTensor(c2, arr, validate=False).operator


@pytest.mark.parametrize("kind,size,dim", [("sp", 4, 330), ("u", 6, 441),
                                           ("u", 8, 1296), ("sp", 6, 1365)])
def test_supported_curvature_at_the_new_sizes(kind, size, dim, rng):
    # Kahler n = 6, 8: 21^2 = 441, 36^2 = 1296; hyperkahler m = 4, 6:
    # C(11, 4) = 330, C(15, 4) = 1365
    if kind == "sp":
        space = EuclideanSpace.quaternionic_space(size)
        rm = random_hyperkahler_curvature(space, rng)
        forms = _hyperkahler_basis(space)[0]
        assert np.abs(ricci(rm)).max() < 1e-9
    else:
        space = EuclideanSpace.complex_space(size)
        rm = random_kahler_curvature(space, rng)
        forms = _kahler_basis(cached_algebra(space, "u"))[0]
    # the forms the generator drew from
    assert len(forms) == dim
    assert bianchi_max(rm.array) < 1e-10
    assert rm.leakage(cached_algebra(space, kind)) < 1e-10


_BUILD = """
import resource, sys
from bochner import EuclideanSpace
from bochner.curvature import _hyperkahler_basis, _kahler_basis
from bochner.holonomy import cached_algebra
kind, size = sys.argv[1], int(sys.argv[2])
if kind == "u":
    _kahler_basis(cached_algebra(EuclideanSpace.complex_space(size), "u"))
else:
    _hyperkahler_basis(EuclideanSpace.quaternionic_space(size))
try:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.parametrize("kind,size", [("u", 8), ("sp", 6)])
def test_supported_basis_builds_in_bounded_memory(kind, size):
    # peak RSS in KiB of a fresh interpreter; wall time is left unasserted.
    # On Linux ru_maxrss keeps the parent's peak across fork and exec, so it
    # would read the test process; VmHWM is the peak of the new image alone
    src = str(Path(sys.modules["bochner"].__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _BUILD, kind, str(size)], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 200 * 1024


# ---------------------------------------------------------------------------
# Kahler decomposition


def test_kahler_decompose_reassembles_and_traces(c2, c3, rng):
    for space in (c2, c3):
        for _ in range(10):
            rm = random_kahler_curvature(space, rng)
            dec = kahler_decompose(rm)
            scale = max(1.0, np.abs(rm.array).max())
            assert np.abs(dec.reassembled().array - rm.array).max() < 1e-9 * scale
            t1, t2 = dec.bochner_traces()
            assert t1 < 1e-8 * scale
            assert t2 < 1e-8 * scale
            # parts satisfy Bianchi and stay Kahler-symmetric
            for part in (dec.scalar_part, dec.ricci_part, dec.bochner):
                assert bianchi_max(part.array) < 1e-9 * scale


def test_kahler_decompose_is_projection_family(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    dec = kahler_decompose(rm)
    again = kahler_decompose(dec.bochner)
    scale = max(1.0, np.abs(rm.array).max())
    assert np.abs(again.scalar_part.array).max() < 1e-10 * scale
    assert np.abs(again.ricci_part.array).max() < 1e-10 * scale


def test_primitive_ricci_form_orthogonal_to_omega(c3, rng):
    rm = random_kahler_curvature(c3, rng)
    dec = kahler_decompose(rm)
    om = c3.j_matrix().T
    assert abs(np.sum(dec.primitive_ricci_form * om)) < 1e-9
    assert abs(np.trace(dec.tf_ricci)) < 1e-10


def test_kahler_decompose_requires_flag(c2, rng):
    with pytest.raises(ValueError):
        kahler_decompose(random_curvature(c2, rng))


# ---------------------------------------------------------------------------
# quaternion decomposition


def test_quaternion_decompose_model(h2):
    rm = quaternionic_projective_model(h2)
    dec = quaternion_decompose(rm)
    assert dec.hp_coefficient == pytest.approx(1.0)
    assert np.abs(dec.r0.array).max() < 1e-10
    dec5 = quaternion_decompose(rm * 5.0)
    assert dec5.hp_coefficient == pytest.approx(5.0)
    assert np.abs(dec5.r0.array).max() < 1e-9


def test_quaternion_decompose_recovers_perturbation(h2, rng):
    pert = random_hyperkahler_curvature(h2, rng)
    rm = quaternionic_projective_model(h2) * 2.0 + pert
    dec = quaternion_decompose(rm)
    assert dec.hp_coefficient == pytest.approx(2.0, rel=1e-10)
    scale = max(1.0, np.abs(pert.array).max())
    assert np.abs(dec.r0.array - pert.array).max() < 1e-9 * scale
    assert dec.ricci_residual() < 1e-9 * scale


def test_quaternion_decompose_rejects_leaky_input(h2, rng):
    bad = random_curvature(h2, rng)
    bad = AlgebraicCurvatureTensor(h2, bad.array, quaternion=True, validate=False)
    with pytest.raises(ValueError, match="residual"):
        quaternion_decompose(bad)


# ---------------------------------------------------------------------------
# sharp-norm identities


def test_kahler_sharp_identity_random(c2, c3, rng):
    for space in (c2, c3):
        for _ in range(10):
            rm = random_kahler_curvature(space, rng)
            rep = kahler_sharp_identity(rm)
            assert rep["relative_deviation"] < 1e-10
            # operator-scaled pair agrees as well (same identity, rescaled)
            denom = max(abs(rep["lhs_operator"]), abs(rep["rhs_operator"]), 1.0)
            assert abs(rep["lhs_operator"] - rep["rhs_operator"]) / denom < 1e-10


def test_kahler_sharp_identity_tensor_reading_coefficient(c2, rng):
    # the tensor-norm reading needs the Ricci coefficient 16, not 4;
    # reconstruct it from the report and a Ricci-dominated input
    rm = random_kahler_curvature(c2, rng)
    rep = kahler_sharp_identity(rm)
    lhs = rep["lhs_tensor"]
    wrong_rhs = 4 * (c2.n + 1) * rep["ringed_norm2_tensor"] - 4 * rep["tf_ricci_norm2"]
    right_rhs = 4 * (c2.n + 1) * rep["ringed_norm2_tensor"] - 16 * rep["tf_ricci_norm2"]
    assert abs(lhs - right_rhs) < 1e-9 * max(1.0, abs(lhs))
    assert abs(lhs - wrong_rhs) > 1e-3 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind,size", [("u", 2), ("u", 3), ("u", 4), ("sp", 2), ("sp", 3)])
def test_sharp_of_the_real_tensor_matches_its_complex_copy(kind, size, rng):
    # sharp takes the real array as it is; a complex copy only reorders the sums
    if kind == "u":
        space = EuclideanSpace.complex_space(size)
        rm = random_kahler_curvature(space, rng)
    else:
        space = EuclideanSpace.quaternionic_space(size)
        rm = random_quaternion_kahler_curvature(space, rng)
    alg = cached_algebra(space, kind)
    real, copy = sharp(rm, alg), sharp(ComplexTensor(rm.space, rm.array), alg)
    assert real.stack.dtype == float
    assert real.norm2() == pytest.approx(copy.norm2(), rel=1e-14)
    # the sp(1) slices vanish up to rounding, so slices are measured against the largest
    assert np.allclose(real.slice_norms2(), copy.slice_norms2(), rtol=1e-14,
                       atol=1e-14 * real.slice_norms2().max())


_ALGEBRAS_TO_D12 = ([("so", d) for d in (4, 6, 8, 10, 12)] + [("u", d) for d in (4, 6, 8, 10, 12)]
                    + [("sp", 8), ("sp", 12)])


def _algebra(kind, d):
    space = (EuclideanSpace.quaternionic_space(d // 4) if kind == "sp"
             else EuclideanSpace.complex_space(d // 2))
    return cached_algebra(space, kind)


@pytest.mark.parametrize("kind,d", _ALGEBRAS_TO_D12)
def test_adjoint_stack_is_the_bracket_on_wedge_pairs(kind, d):
    # column (i, j) of ad_M holds the wedge coefficients [M, E_ij][l, k] of e_k ^ e_l
    alg = _algebra(kind, d)
    pairs = list(itertools.combinations(range(d), 2))
    E = np.zeros((len(pairs), d, d))
    for p, (i, j) in enumerate(pairs):
        E[p, j, i], E[p, i, j] = 1.0, -1.0
    k, l = np.array(pairs).T
    ad = _adjoint_stack(alg)
    assert ad.shape == (alg.dim, len(pairs), len(pairs)) and not ad.flags.writeable
    for a, M in enumerate(alg.matrices):
        assert np.allclose(ad[a], bracket_naive(M, E)[:, l, k].T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind,d", _ALGEBRAS_TO_D12)
def test_sharp_norms_from_the_operator_match_the_stack(kind, d, rng):
    # |Xi_a Rm|^2 = 4 |[R, ad Xi_a]|^2 for every curvature tensor: supported draws,
    # the models, and a random_curvature that leaks off u(n) and sp(m)+sp(1)
    alg = _algebra(kind, d)
    space = alg.space
    tensors = [random_curvature(space, rng), constant_sectional_model(space, 0.7),
               chsc_model(space, -1.3)]
    if kind == "u":
        tensors.append(random_kahler_curvature(space, rng))
    if kind == "sp":
        tensors += [random_quaternion_kahler_curvature(space, rng),
                    quaternionic_projective_model(space)]
    for rm in tensors:
        expected = sharp(rm, alg).slice_norms2()
        assert np.allclose(_sharp_norms2(rm, alg), expected, rtol=1e-12, atol=1e-12 * rm.norm2())


@pytest.mark.parametrize("size", [2, 3])
def test_structure_models_are_cached_read_only_and_literal(size):
    # chsc scales, and hpm copies, one read-only array per space
    kspace, qspace = EuclideanSpace.complex_space(2 * size), EuclideanSpace.quaternionic_space(size)
    for space, quaternionic, forms in ((kspace, False, [kspace.j_matrix().T]),
                                       (qspace, True, [A.T for A in qspace.quaternionic_structure])):
        cached = _structure_model(space, quaternionic)
        assert cached is _structure_model(space, quaternionic) and not cached.flags.writeable
        assert np.array_equal(cached, structure_model_naive(forms))
    hpm = quaternionic_projective_model(qspace).array
    assert hpm is not cached and np.array_equal(hpm, cached)


def test_kahler_sharp_component_constants(c2, c3, rng):
    # Bochner part scales by 4(n+1), Ricci part by 2n, both Schur-exact
    for space in (c2, c3):
        n = space.n
        alg = cached_algebra(space, "u")
        rm = random_kahler_curvature(space, rng)
        dec = kahler_decompose(rm)
        cB = sharp(dec.bochner, alg).norm2() / dec.bochner.norm2()
        cR = sharp(dec.ricci_part, alg).norm2() / dec.ricci_part.norm2()
        assert cB == pytest.approx(4 * (n + 1), rel=1e-10)
        assert cR == pytest.approx(2 * n, rel=1e-10)


def test_quaternion_sharp_identity_measured_constant(h2, rng):
    ratios = []
    for _ in range(6):
        rm = random_quaternion_kahler_curvature(h2, rng)
        rep = quaternion_sharp_identity(rm)
        assert rep["relative_deviation_measured"] < 1e-10
        assert rep["sp1_slice_norm2"] < 1e-12 * max(1.0, rep["lhs_tensor"])
        ratios.append(rep["lhs_tensor"] / rep["r0_norm2"])
    # Schur rigidity: the ratio is the same Casimir eigenvalue on every draw
    expected = quaternion_sharp_constant_naive(cached_algebra(h2, "sp"))
    assert np.allclose(ratios, expected, rtol=1e-10)


def test_quaternion_sharp_nominal_constant_fixed_gap(h2, rng):
    # the nominal (4/3)(3m+4) coefficient misses by the fixed ratio
    # 3(m+2)/(3m+4) = 6/5 at m = 2
    rm = random_quaternion_kahler_curvature(h2, rng)
    rep = quaternion_sharp_identity(rm)
    assert rep["lhs_tensor"] / rep["rhs_nominal"] == pytest.approx(1.2, rel=1e-10)


def test_quaternion_sharp_constant_pattern_m3(rng):
    # the 4(m+2) pattern persists at the next quaternionic dimension
    space = EuclideanSpace.quaternionic_space(3)
    rm = random_quaternion_kahler_curvature(space, rng)
    rep = quaternion_sharp_identity(rm)
    expected = quaternion_sharp_constant_naive(cached_algebra(space, "sp"))
    assert rep["measured_coefficient"] == pytest.approx(expected, rel=1e-12)
    assert rep["lhs_tensor"] / rep["r0_norm2"] == pytest.approx(expected, rel=1e-10)
    assert rep["relative_deviation_measured"] < 1e-10


@pytest.mark.parametrize("size", [2, 3])
def test_sharp_identities_where_both_sides_vanish_report_rounding_not_one(size):
    # lhs and rhs vanish on chsc and hpm; the noise left (lhs 0.0 against rhs
    # 2e-31 at c = 0.7, -1.2e170 at c = 1e100) is measured against the
    # rounding scale eps * 4(n+1) |Rm|^2 or eps * 4(m+2) |Rm|^2
    deviations = [sharp_norm_identities(chsc_model(EuclideanSpace.complex_space(size), c))
                  ["relative_deviation"] for c in (0.7, 1e100, 1.0, 4.0)]
    rep = sharp_norm_identities(quaternionic_projective_model(EuclideanSpace.quaternionic_space(size)))
    deviations += [rep["relative_deviation_measured"], rep["relative_deviation_nominal"]]
    assert max(deviations) <= 1e-12


# ---------------------------------------------------------------------------
# action-norm inequalities used by the flatness criteria


def unit_action_norms2(alg, T, count, rng):
    """|L T|^2 for `count` random unit L in the algebra, from their avatars."""
    C = rng.standard_normal((count, alg.dim))
    C /= np.linalg.norm(C, axis=1)[:, None]
    LT = _act_matrix(np.tensordot(C, alg.matrices, 1), T.components)
    return [np.vdot(x, x).real for x in LT]


def test_einstein_kahler_action_bound(c2, c3, rng):
    # |L Rm|^2 <= (2/(n+1)) |Rm^u|^2 |L|^2 for Einstein Kahler tensors
    for space in (c2, c3):
        n = space.n
        alg = cached_algebra(space, "u")
        for _ in range(5):
            rm = random_kahler_curvature(space, rng)
            dec = kahler_decompose(rm)
            rm_e = rm - dec.ricci_part
            sharp2 = sharp(rm_e, alg).norm2()
            for lhs in unit_action_norms2(alg, rm_e, 20, rng):
                assert lhs <= (2.0 / (n + 1)) * sharp2 + 1e-9 * max(1.0, sharp2)


def test_scalar_flat_quaternion_action_bound(h2, rng):
    # |L Rm|^2 <= (6/(3m+4)) |Rm^sp|^2 |L|^2 for scalar-flat input
    m = h2.m
    alg = cached_algebra(h2, "sp")
    for _ in range(5):
        r0 = random_hyperkahler_curvature(h2, rng)
        sharp2 = sharp(r0, alg).norm2()
        for lhs in unit_action_norms2(alg, r0, 20, rng):
            assert lhs <= (6.0 / (3 * m + 4)) * sharp2 + 1e-9 * max(1.0, sharp2)


# ---------------------------------------------------------------------------
# JSON


def test_curvature_json_round_trip(c2, h2, rng):
    rm = random_kahler_curvature(c2, rng)
    obj = curvature_to_json(rm)
    assert obj["kind"] == "curvature"
    assert obj["flags"] == ["kahler"]
    back = curvature_from_json(obj)
    assert np.array_equal(back.array, rm.array)
    assert back.kahler
    q = quaternionic_projective_model(h2)
    back = curvature_from_json(curvature_to_json(q))
    assert back.quaternion
    assert np.array_equal(back.array, q.array)


def _generated_tensors(rng):
    """Every model and flagged generator at n <= 5 and m <= 3."""
    for n in range(1, 6):
        space = EuclideanSpace.complex_space(n)
        yield from (chsc_model(space, 0.7), constant_sectional_model(space, 2.5), flat_model(space),
                    random_kahler_curvature(space, rng))
    for m in range(1, 4):
        space = EuclideanSpace.quaternionic_space(m)
        yield from (quaternionic_projective_model(space), random_hyperkahler_curvature(space, rng),
                    random_quaternion_kahler_curvature(space, rng))


def test_curvature_files_round_trip_bit_for_bit(tmp_path, rng):
    path = tmp_path / "rm.json"
    for rm in _generated_tensors(rng):
        P = len(rm.operator)
        obj = curvature_to_json(rm)
        assert obj["format"] == "operator" and len(obj["operator"]) == P * (P + 1) // 2
        assert obj["operator"] == rm.operator[np.triu_indices(P)].tolist()
        save_curvature(rm, path)
        back = load_curvature(path)
        assert np.array_equal(back.array, rm.array), rm
        # zeros come back +0.0, as the models and generators make them at positive scale
        assert back.array.tobytes() == rm.array.tobytes(), rm
        assert (back.space, back.kahler, back.quaternion) == (rm.space, rm.kahler, rm.quaternion)


def test_random_curvature_file_round_trip_within_rounding(tmp_path, rng):
    # random_curvature is pair-antisymmetric only to rounding after its
    # Bianchi projection, and the file keeps one entry per operator pair
    path = tmp_path / "rm.json"
    for n in range(1, 6):
        for _ in range(3):
            rm = random_curvature(EuclideanSpace.complex_space(n), rng)
            save_curvature(rm, path)
            dev = np.abs(load_curvature(path).array - rm.array).max()
            assert dev <= 1e-15 * max(1.0, np.abs(rm.array).max())


def test_components_documents_load_as_the_pair_reader_reads_them(tmp_path, rng):
    # the documents stdout prints, and the files written before the
    # operator format, load bit for bit as `complex(re, im)` per pair
    path = tmp_path / "rm.json"
    for rm in [*_generated_tensors(rng), random_curvature(EuclideanSpace.complex_space(3), rng)]:
        _write_json(_curvature_doc(rm), path)
        obj = json.loads(path.read_text())
        assert "format" not in obj and "operator" not in obj
        expected = component_pairs_naive(obj["components"]).real.reshape(rm.array.shape)
        back = load_curvature(path)
        assert back.array.tobytes() == expected.tobytes() == rm.array.tobytes()
        assert (back.kahler, back.quaternion) == (rm.kahler, rm.quaternion)


def test_curvature_json_rejects_plain_tensor(c2):
    from bochner import tensor_to_json

    obj = tensor_to_json(ComplexTensor.zero(c2, 4))
    with pytest.raises(ValueError):
        curvature_from_json(obj)
