"""Forms on coframe multi-indices against the dense d^k oracles, and the
form suites at n = 4, 5."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bochner import ComplexTensor, EuclideanSpace, Form, hermitian_inner, sharp
from bochner.forms import (
    _stratum_rows,
    _type_mask,
    action_bound_check,
    build_pq_basis,
    circ,
    construct_Vpqk,
    omega_power,
    primitive_pq_basis,
    random_pq_form,
    random_stratum_form,
    sharp_form,
    sharp_norm_coefficient_check,
    stratum_basis,
    wedge,
)
from bochner.holonomy import cached_algebra

from test_forms import random_form

from oracles import (
    act_matrix_naive,
    basis_combination_naive,
    nullspace,
    pq_project_naive,
    stratum_rows_svd,
    wedge_dense,
    wedge_naive,
)


def degrees(max_n=3, n4_max_degree=4):
    """(n, k) for every degree at n <= max_n, and n = 4 up to n4_max_degree."""
    out = [(n, k) for n in range(1, max_n + 1) for k in range(2 * n + 1)]
    return out + [(4, k) for k in range(n4_max_degree + 1)]


# ---------------------------------------------------------------------------
# the representation against the dense oracles


@pytest.mark.parametrize("n,a,b", [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 0, 3),
                                   (3, 1, 2), (3, 2, 1), (4, 1, 1), (4, 2, 1)])
def test_wedge_matches_the_permutation_sum(n, a, b, rng):
    space = EuclideanSpace.complex_space(n)
    A, B = random_form(space, a, rng), random_form(space, b, rng)
    expected = wedge_naive(A.tensor.components, B.tensor.components)
    assert np.allclose(wedge(A, B).tensor.components, expected, atol=1e-12)


@pytest.mark.parametrize("n,k", degrees())
def test_tensor_round_trip(n, k, rng):
    # the dense boundary reads back to the same coefficients, and wedges of
    # dense 1-forms through the alternation oracle give the same tensor
    space = EuclideanSpace.complex_space(n)
    f = random_form(space, k, rng)
    back = Form.from_tensor(f.tensor)
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-12)
    assert f.norm2() == pytest.approx(f.tensor.norm2(), rel=1e-12)
    ones = [random_form(space, 1, rng) for _ in range(k)]
    dense = np.array(1.0 + 0j)
    form = Form(space, 0, [1.0])
    for g in ones:
        dense = wedge_dense(dense, g.tensor.components)
        form = wedge(form, g)
    assert np.allclose(form.tensor.components, dense, atol=1e-10 * max(1.0, np.abs(dense).max()))


def test_dense_input_must_be_antisymmetric(c2, rng):
    with pytest.raises(ValueError, match="not antisymmetric"):
        Form.from_tensor(ComplexTensor.random(c2, 2, rng))


@pytest.mark.parametrize("n,k", degrees())
def test_type_mask_matches_the_circle_quadrature(n, k, rng):
    space = EuclideanSpace.complex_space(n)
    f = random_form(space, k, rng)
    J = space.j_matrix()
    total = np.zeros_like(f.tensor.components)
    for p in range(max(0, k - n), min(k, n) + 1):
        got = Form(space, k, f.coeffs * _type_mask(n, p, k - p)).tensor.components
        assert np.allclose(got, pq_project_naive(f.tensor.components, J, p, k - p), atol=1e-10)
        total = total + got
    assert np.allclose(total, f.tensor.components, atol=1e-10)


@pytest.mark.parametrize("n,k", [(n, k) for n, k in degrees(n4_max_degree=2) if k <= 3])
def test_sharp_matches_the_loop_action(n, k, rng):
    # slices of u(n) and of so(2n), against the literal derivation loops
    space = EuclideanSpace.complex_space(n)
    f = random_form(space, k, rng)
    arr = f.tensor.components
    for kind in ("u", "so"):
        algebra = cached_algebra(space, kind)
        dec = sharp_form(f, algebra)
        slices = [act_matrix_naive(M, arr) for M in algebra.matrices]
        P = np.array([[np.sum(x * np.conj(y)) for y in slices] for x in slices])
        scale = max(1.0, np.abs(P).max())
        assert dec.norm2() == pytest.approx(float(np.trace(P).real), rel=1e-12, abs=1e-12)
        assert np.abs(dec.pairings() - P).max() < 1e-12 * scale
        for row, x in zip(dec.stack, slices):
            s = Form(space, k, row / math.sqrt(math.factorial(k) * 2 ** k))
            assert np.allclose(s.tensor.components, x, atol=1e-12 * scale)


@pytest.mark.parametrize("k", [3, 4])
def test_sharp_matches_the_dense_action_at_n4(k, rng):
    space = EuclideanSpace.complex_space(4)
    algebra = cached_algebra(space, "u")
    f = random_form(space, k, rng)
    dense = sharp(f.tensor, algebra)
    got = sharp_form(f, algebra)
    assert got.norm2() == pytest.approx(dense.norm2(), rel=1e-12)
    assert np.abs(got.pairings() - dense.pairings()).max() < 1e-12 * np.abs(dense.pairings()).max()


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_circ_matches_the_dense_projection(n, p, rng):
    space = EuclideanSpace.complex_space(n)
    f = random_pq_form(space, p, p, rng)
    om = np.array(1.0 + 0j)
    for _ in range(p):
        om = wedge_dense(om, space.j_matrix().T.astype(complex))
    assert np.allclose(omega_power(space, p).tensor.components, om, atol=1e-10)
    T, O = f.tensor, ComplexTensor(space, om)
    expected = T - (hermitian_inner(T, O) / hermitian_inner(O, O)) * O
    got = circ(f).tensor
    assert np.allclose(got.components, expected.components, atol=1e-10 * math.sqrt(T.norm2()))


def _c(n, j):
    return math.comb(n, j) if 0 <= j <= n else 0


def test_nullspace_checks_the_dimension(rng):
    for A in (rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5)),
              (rng.standard_normal((4, 2)) + 1j) @ (rng.standard_normal((2, 5)) - 2j)):
        null = nullspace(A, 3)
        assert null.shape == (3, 5)
        assert np.abs(A @ null.T).max() < 1e-12
        assert np.allclose(null @ null.conj().T, np.eye(3), atol=1e-12)
        with pytest.raises(ValueError, match="expected 2; relative singular values"):
            nullspace(A, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_strata_match_the_svd_oracle(n):
    # each primitive basis is orthonormal with the closed-form dimension, and
    # each non-empty stratum has the oracle's rows^H rows: the same span and,
    # for random_stratum_form, the same law
    space = EuclideanSpace.complex_space(n)
    for p in range(n + 1):
        for q in range(n + 1):
            prim = _stratum_rows(space, p, q, 0)
            assert len(prim) == max(0, _c(n, p) * _c(n, q) - _c(n, p - 1) * _c(n, q - 1))
            gram = math.factorial(p + q) * 2 ** (p + q) * prim.conj() @ prim.T
            assert np.abs(gram - np.eye(len(prim))).max(initial=0) < 1e-12
            for k in range(max(0, p + q - n), min(p, q) + 1):
                rows, ref = _stratum_rows(space, p, q, k), stratum_rows_svd(n, p, q, k)
                assert rows.shape == ref.shape, (p, q, k)
                got, want = rows.conj().T @ rows, ref.conj().T @ ref
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (p, q, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_empty_strata_are_empty_and_the_strata_add_up(n, rng):
    # Omega^k kills primitive (p-k, q-k)-forms exactly when k < p + q - n,
    # and the Lefschetz decomposition splits all 4^n monomials
    space = EuclideanSpace.complex_space(n)
    total = 0
    for p in range(n + 1):
        for q in range(n + 1):
            for k in range(min(p, q) + 1):
                basis = stratum_basis(space, p, q, k)
                total += len(basis)
                if k < p + q - n:
                    assert basis == [], (p, q, k)
                    with pytest.raises(ValueError, match="empty"):
                        random_stratum_form(space, p, q, k, rng)
    assert total == 4 ** n


_BUILD_N6 = """
import resource
from bochner import EuclideanSpace
from bochner.forms import stratum_basis
space = EuclideanSpace.complex_space(6)
print(sum(len(stratum_basis(space, p, q, k))
          for p in range(7) for q in range(7) for k in range(min(p, q) + 1)))
try:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_every_stratum_at_n6_builds_in_bounded_memory():
    # every (p, q, k) at n = 6, Serre side included, in a fresh interpreter:
    # the count, and the peak RSS in KiB (see test_curvature for VmHWM)
    src = str(Path(sys.modules["bochner"].__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _BUILD_N6], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    count, peak = map(int, out.stdout.split())
    assert count == 4 ** 6
    assert peak < 200 * 1024


def _same_draw(form, expected, rng, rng_expected):
    # bit-identical coefficients, and both samplers left the generator
    # in the same state
    assert form.coeffs.tobytes() == expected.tobytes()
    assert rng.standard_normal() == rng_expected.standard_normal()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_pq_form_is_the_basis_combination(n, seed):
    space = EuclideanSpace.complex_space(n)
    for p in range(n + 1):
        for q in range(n + 1):
            rng, rng_expected = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = basis_combination_naive(build_pq_basis(space, p, q), rng_expected)
            _same_draw(random_pq_form(space, p, q, rng), expected, rng, rng_expected)
    with pytest.raises(ValueError, match="out of range"):
        random_pq_form(space, n + 1, 0, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_stratum_form_is_the_basis_combination(n, seed):
    space = EuclideanSpace.complex_space(n)
    for p in range(n + 1):
        for q in range(n + 1):
            for k in range(min(p, q) + 1):
                rows = _stratum_rows(space, p, q, k)
                assert rows.shape == (len(stratum_basis(space, p, q, k)), math.comb(2 * n, p + q))
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[...] = 0
                rng, rng_expected = np.random.default_rng(seed), np.random.default_rng(seed)
                if not len(rows):
                    with pytest.raises(ValueError, match="empty"):
                        random_stratum_form(space, p, q, k, rng)
                    continue
                expected = basis_combination_naive(stratum_basis(space, p, q, k), rng_expected)
                _same_draw(random_stratum_form(space, p, q, k, rng), expected, rng, rng_expected)


# ---------------------------------------------------------------------------
# the prop27 / prop28 grid at n = 4, 5


# the suites' (n, p, q, k) grid continued to n = 4, 5
_N4_N5 = [(n, p, q, k) for n in (4, 5) for p in range(n + 1) for q in range(n + 1 - p)
          for k in range(min(p, q) + 1) if p + q - 2 * k > 0]


@pytest.mark.parametrize("n,p,q,k", _N4_N5)
def test_form_suites_at_n4_n5(n, p, q, k):
    space = EuclideanSpace.complex_space(n)
    rng = np.random.default_rng(1000 * n + 100 * p + 10 * q + k)
    a, b = p - k, q - k
    assert len(stratum_basis(space, p, q, k)) == _c(n, a) * _c(n, b) - _c(n, a - 1) * _c(n, b - 1)
    r = sharp_norm_coefficient_check(random_stratum_form(space, p, q, k, rng))
    assert r["relative_deviation"] <= 1e-10
    product = construct_Vpqk(random_pq_form(space, a, 0, rng), random_pq_form(space, 0, b, rng), k)
    r = sharp_norm_coefficient_check(product)
    assert r["sharp_norm2"] <= r["coefficient_times_circ"] * (1 + 1e-10)
    phi = random_stratum_form(space, p, q, k, rng) if k else random_pq_form(space, p, q, rng)
    r = action_bound_check(phi)
    assert r["vacuous"] or r["max_ratio"] <= 1 + 1e-9


def test_no_primitive_forms_beyond_the_middle_degree():
    c4 = EuclideanSpace.complex_space(4)
    assert primitive_pq_basis(c4, 3, 3) == []
    assert primitive_pq_basis(c4, 4, 2) == []
