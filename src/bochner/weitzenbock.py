"""Weitzenbock curvature action on tensors and the associated curvature terms.

The zero-order curvature operator acting on a (0, k)-tensor is

    Ric(T)(X_1, ..., X_k) = sum_i sum_j (R(X_i, e_j) T)(X_1, ..., e_j, ..., X_k),

where e_j replaces the i-th argument and R(X, e_j) acts on T as the
derivation of the bivector R(X ^ e_j), the image of X ^ e_j under the
curvature operator.  The sign convention is pinned by the constant
sectional curvature model: for sectional curvature one, a 1-form is an
eigenvector with eigenvalue d - 1.

For a holonomy algebra g whose complement the operator annihilates,
g(Ric(T), conj T) equals the restricted curvature term
g(R(T^g), conj T^g) = sum_alpha mu_alpha |Xi_alpha T|^2, which this
module evaluates by two independent routes (eigenbasis expansion and
direct Gram contraction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _require_finite, weighted_partial_sum
from .curvature import _refuse_leak, ricci
from .holonomy import sharp
from .tensors import ComplexTensor, _check_same_space, hermitian_inner

__all__ = [
    "weitzenbock_ric",
    "lichnerowicz_zero_order",
    "CurvatureTerm",
    "curvature_term",
    "verify_weitzenbock_restriction",
    "verify_eigenvalue_sum_bound",
]


def weitzenbock_ric(rm_tensor, T):
    """Apply the zero-order Weitzenbock curvature operator to a tensor.

    Evaluates the double sum by splitting the inner derivation action
    into the diagonal part (a Ricci contraction in each slot) and the
    mixed part (a curvature double contraction for each slot pair); linear
    in T, rank preserving and self-adjoint for the hermitian pairing.  The
    real Rm and Ric act on the float64 view of T, (re, im) on a trailing
    axis.  By pair symmetry Rm_ajbp = Rm_bpaj the ordered pairs (i, s) and
    (s, i) contract alike, so each unordered pair is taken once, twice over.
    """
    _check_same_space(rm_tensor, T)
    src = T.components[..., None].view(np.float64)
    ric = ricci(rm_tensor)
    out = np.zeros_like(src)
    for i in range(T.rank):
        out += np.moveaxis(np.tensordot(src, ric, axes=([i], [1])), -1, i)
        for s in range(i + 1, T.rank):
            # contract T over slots (i, s) against Rm_{a j b p} in (j, p)
            contr = np.tensordot(src, rm_tensor.array, axes=([i, s], [1, 3]))
            out -= 2.0 * np.moveaxis(contr, (-2, -1), (i, s))
    return ComplexTensor(T.space, out.view(complex)[..., 0])


def lichnerowicz_zero_order(rm_tensor, T, c):
    """c times the Weitzenbock action: the zero-order part of the
    corresponding Laplacian.  Presets: c = 1 (forms), c = 1/2 (curvature)."""
    _require_finite(c=c)
    if c <= 0:
        raise ValueError(f"the scaling constant must be positive, got {c}")
    return weitzenbock_ric(rm_tensor, T) * c


@dataclass
class CurvatureTerm:
    """g(R(T^g), conj T^g) with its eigenvalue expansion.

    `value` comes from the eigenbasis route sum_a mu_a |Theta_a T|^2;
    `gram_value` re-evaluates it as sum_ab G_ab <Xi_a T, Xi_b T> without
    diagonalizing.  `per_eigenvalue` pairs (mu_a, |Theta_a T|^2) and sums
    to `sharp_norm2` in the second entries.
    """

    value: float
    gram_value: float
    per_eigenvalue: list
    sharp_norm2: float
    imag_residual: float

    @property
    def route_deviation(self):
        scale = max(abs(self.value), abs(self.gram_value), 1.0)
        return abs(self.value - self.gram_value) / scale


def curvature_term(rm_tensor, algebra, T):
    """Evaluate the restricted curvature term by two independent routes.

    The eigen route diagonalizes the Gram restriction of the curvature
    operator and sums mu_a |Theta_a T|^2 in the eigenbasis; the direct
    route contracts the Gram matrix against the slice inner products.
    """
    gram = rm_tensor.restricted_gram(algebra)
    return _curvature_term(gram, np.linalg.eigh(gram), algebra, T)


def _curvature_term(gram, eigh, algebra, T):
    """`curvature_term` from the Gram restriction and its eigendecomposition."""
    sh = sharp(T, algebra)
    P = sh.pairings()
    gram_value_c = complex(np.sum(gram * P))
    vals, vecs = eigh
    # Theta_a = sum_b vecs[b, a] Xi_b, so |Theta_a T|^2 = vecs[:, a]^T P vecs[:, a]
    weights = np.sum(vecs * (P @ vecs), axis=0).real
    return CurvatureTerm(
        value=float(vals @ weights),
        gram_value=float(gram_value_c.real),
        per_eigenvalue=[(float(mu), float(w)) for mu, w in zip(vals, weights)],
        sharp_norm2=sh.norm2(),
        imag_residual=abs(gram_value_c.imag),
    )


def verify_weitzenbock_restriction(rm_tensor, algebra, tensors):
    """Check g(Ric(T), conj T) against the restricted curvature term for each T.

    The equality requires the operator to annihilate the complement of
    the algebra, so a leak (`curvature.SUPPORT_TOL`) raises.  The operator,
    its leakage and its Gram restriction are computed once per call.
    Returns one report dict per tensor, with both sides and the relative
    deviation.
    """
    leak = rm_tensor.leakage(algebra)
    _refuse_leak("operator", leak, rm_tensor.operator)
    gram = rm_tensor.restricted_gram(algebra)
    eigh = np.linalg.eigh(gram)
    reports = []
    for T in tensors:
        lhs_c = hermitian_inner(weitzenbock_ric(rm_tensor, T), T)
        term = _curvature_term(gram, eigh, algebra, T)
        lhs = float(lhs_c.real)
        rhs = term.gram_value
        denom = max(abs(lhs), abs(rhs), 1.0)
        reports.append({
            "lhs": lhs,
            "rhs": rhs,
            "deviation": abs(lhs - rhs) / denom,
            "lhs_imag": abs(lhs_c.imag),
            "leakage": leak,
            "route_deviation": term.route_deviation,
        })
    return reports


def _lemma26_premise(spectrum, C, ell, kappa):
    """The Lemma 2.6 premise on an ascending spectrum: the value
    mu_1 + ... + mu_ell + (C - ell) mu_{ell+1} and whether it is at least
    kappa (ell + 1)."""
    value = weighted_partial_sum(spectrum, ell, C - ell if ell < len(spectrum) else 0)
    return value, value >= kappa * (ell + 1)


def verify_eigenvalue_sum_bound(gram, algebra, C, ell, kappa, tensors, slack=1e-10):
    """Check the eigenvalue partial-sum lower bound on admitted tensors.

    `gram` is the Gram restriction [g(R Xi_a, Xi_b)] of a curvature
    operator to the algebra (`AlgebraicCurvatureTensor.restricted_gram`).
    Hypothesis: |L T|^2 <= (1/C) |T^g|^2 |L|^2 for all L in the algebra,
    tested exactly through the supremum over unit L
    (`SharpDecomposition.max_action_norm2`); tensors violating it are
    rejected rather than rescaled.  The one Lemma 2.6 rule: when the premise
    mu_1 + ... + mu_ell + (C - ell) mu_{ell+1} >= kappa (ell + 1) holds,
    each admitted tensor is a case that passes when

    * g(R(T^g), conj T^g) >= kappa (ell + 1) / C |T^g|^2 - slack (absolute), and
    * g(R(T^g), conj T^g) > 0 when the premise is strict (positive).

    When the premise fails no case is compared; `all_pass` needs a compared
    case.  C, kappa and slack must be finite.
    """
    _require_finite(C=C, kappa=kappa, slack=slack)
    gram = np.asarray(gram, dtype=float)
    if C < 1:
        raise ValueError("C must be at least 1")
    ell = int(ell)
    if not (1 <= ell <= int(np.floor(C))):
        raise ValueError(f"ell = {ell} outside [1, floor(C)] = [1, {int(np.floor(C))}]")
    if kappa > 0:
        raise ValueError("kappa must be nonpositive")
    premise_value, premise = _lemma26_premise(np.linalg.eigvalsh(gram), C, ell, kappa)
    strict_premise = premise_value > 0
    cases = []
    admitted = rejected = 0
    for idx, T in enumerate(tensors):
        sh = sharp(T, algebra)
        tg2 = sh.norm2()
        if tg2 < 1e-300:
            rejected += 1
            continue
        ratio = sh.max_action_norm2() / tg2
        if ratio > 1.0 / C + 1e-9:
            rejected += 1
            continue
        admitted += 1
        if not premise:
            continue
        term = float(np.sum(gram * sh.pairings()).real)
        bound = kappa * (ell + 1) / C * tg2
        ok = term >= bound - slack and (term > 0.0 or not strict_premise)
        cases.append({"id": idx, "lhs": term, "rhs": bound, "pass": bool(ok),
                      "measured_ratio": ratio})
    return {
        "premise_value": premise_value,
        "premise_holds": bool(premise),
        "strict_premise": bool(strict_premise),
        "admitted": admitted,
        "rejected": rejected,
        "cases": cases,
        "all_pass": bool(cases) and all(c["pass"] for c in cases),
    }
