"""Closed-form constants and eigenvalue-condition checkers.

Every vanishing-type statement handled here reduces to the same shape:
an ascending list of curvature-operator eigenvalues restricted to the
holonomy algebra, a weighted partial sum

    S(C) = mu_1 + ... + mu_floor(C) + (C - floor(C)) mu_{floor(C)+1},

and a threshold involving a weight value rho at the point under test
and an admissibility window for the constant kappa (or k).  Constants
are computed in exact rational arithmetic so that floors never suffer
from float-boundary errors; spectra are plain floats, summed exactly.

The checkers return a :class:`VanishingVerdict`.  A verdict never
claims more than the pointwise arithmetic: the global hypotheses that
the underlying statements require (completeness, finite L^Q norm,
weighted Poincare inequality, nonparabolicity) are echoed in the notes
as user-asserted and are not verified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "VacuousStratumError",
    "VanishingVerdict",
    "check_stratum",
    "stratum_constant",
    "form_constant",
    "kato_constant",
    "kappa_bound",
    "kappa_bound_harmonic_field",
    "bochner_parity_coefficient",
    "quaternion_parity_coefficient",
    "weighted_partial_sum",
    "serre_remap",
    "serre_stratum",
    "check_pq",
    "check_bochner",
    "check_einstein_flat",
    "check_quaternion",
    "check_lq_nonneg",
]


class VacuousStratumError(ValueError):
    """Raised when p + q - 2k = 0 leaves no reduced content to bound."""


class ConstantValue(NamedTuple):
    value: Fraction
    floor: int

    @property
    def fractional(self):
        return self.value - self.floor

    def __float__(self):
        return float(self.value)


def check_stratum(p, q, k):
    """Raise ValueError unless 0 <= k <= min(p, q), the stratum indices of type (p, q)."""
    if not 0 <= k <= min(p, q):
        raise ValueError(f"stratum k = {k} out of range for type ({p}, {q}); "
                         "need 0 <= k <= min(p, q)")


def stratum_constant(n, p, q, k=0):
    """C(n, p, q, k) = n + 1 - (p + q) + 2 (p q - k^2) / (p + q - 2k).

    The eigenvalue count governing forms of stratum k; requires
    p + q - 2k != 0 and 0 <= k <= min(p, q).  Inputs with p + q > n
    should be remapped by Serre duality first.
    """
    check_stratum(p, q, k)
    if p + q - 2 * k == 0:
        raise VacuousStratumError(f"vacuous stratum: p + q - 2k = 0 at (p, q, k) = ({p}, {q}, {k})")
    value = Fraction(n + 1 - (p + q)) + Fraction(2 * (p * q - k * k), p + q - 2 * k)
    return ConstantValue(value, math.floor(value))


def form_constant(n, p, q):
    """C(n, p, q) = n + 1 - (p^2 + q^2) / (p + q); the k = 0 stratum constant."""
    if p + q < 1:
        raise ValueError("form constant needs p + q >= 1")
    return stratum_constant(n, p, q, 0)


def kato_constant(n, p, q):
    """Refined Kato constant D(n, p, q) for harmonic fields of type (p, q).

    1/2 when p = n or q = n, otherwise the square of
    min over the two slots of max{(2s+1)/(2s+2), (2n-2s+1)/(2n-2s+2)}.
    """
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"(p, q) = ({p}, {q}) out of range for n = {n}")
    if p == n or q == n:
        return Fraction(1, 2)

    def slot(s):
        return max(Fraction(2 * s + 1, 2 * s + 2), Fraction(2 * n - 2 * s + 1, 2 * n - 2 * s + 2))

    return min(slot(p), slot(q)) ** 2


def kappa_bound(Q, c, a=0):
    """Admissible upper bound 4 (Q - 1 + a) / (c Q^2) for the weight constant.

    `a` is the gain of a refined Kato inequality |nabla T|^2 >=
    (1 + a) |nabla |T||^2; a = 0 is the unrefined bound.
    """
    Q = Fraction(Q)
    c = Fraction(c)
    a = Fraction(a)
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    return 4 * (Q - 1 + a) / (c * Q * Q)


def kappa_bound_harmonic_field(n, p, q, Q, c=1):
    """Type-specific bound 4 (Q + 1/D - 3) / (c Q^2) built from the Kato constant.

    This is the printed harmonic-field form; it equals kappa_bound with
    a = 1/D - 2.  At Q = 2, c = 1 it reduces to 1/D - 1.
    """
    D = kato_constant(n, p, q)
    Q = Fraction(Q)
    c = Fraction(c)
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    return 4 * (Q + 1 / D - 3) / (c * Q * Q)


def bochner_parity_coefficient(n):
    """(1 + (-1)^n) / 4: zero for odd n, one half for even n."""
    return Fraction(1 + (-1) ** n, 4)


def quaternion_parity_coefficient(m):
    """(5 + 3 (-1)^m) / 12: 1/6 for odd m, 2/3 for even m."""
    return Fraction(5 + 3 * (-1) ** m, 12)


def weighted_partial_sum(spectrum, count, weight=Fraction(0)):
    """mu_1 + ... + mu_count + weight * mu_{count+1} on an ascending list,
    summed exactly in rationals and rounded once.  The weighted term is only
    accessed when its weight is nonzero, so a spectrum of length exactly
    `count` is admissible for integer counts.
    """
    spectrum = list(spectrum)
    if any(spectrum[i] > spectrum[i + 1] + 1e-12 for i in range(len(spectrum) - 1)):
        raise ValueError("spectrum must be ascending")
    # the check leaves 1e-12 of slack: the sum takes the smallest values
    spectrum.sort()
    if count > len(spectrum):
        raise ValueError(f"spectrum too short: need {count} eigenvalues, got {len(spectrum)}")
    total = sum(map(Fraction, spectrum[:count]), Fraction(0))
    if weight != 0:
        if count + 1 > len(spectrum):
            raise ValueError(f"spectrum too short: need {count + 1} eigenvalues, got {len(spectrum)}")
        total += Fraction(weight) * Fraction(spectrum[count])
    return float(total)


def serre_remap(n, p, q):
    """Replace (p, q) by (n - p, n - q) when p + q exceeds n."""
    if p + q > n:
        return n - p, n - q, True
    return p, q, False


def serre_stratum(n, p, q, k):
    """Stratum index of the Serre dual of a (p, q)-form of stratum k.

    Duality preserves the primitive content (p - k, q - k), so k shifts
    by p + q - n along with the type; a negative result is an empty
    stratum and raises ValueError, as does k outside 0 <= k <= min(p, q).
    """
    check_stratum(p, q, k)
    if p + q <= n:
        return k
    if k < p + q - n:
        raise ValueError(f"stratum k = {k} is empty for type ({p}, {q}) at n = {n}")
    return k - (p + q - n)


CONCLUSIONS = ("parallel", "vanishing", "flat", "bochner_flat", "inconclusive")


@dataclass
class VanishingVerdict:
    """Structured outcome of a single eigenvalue-condition check."""

    theorem_id: str
    condition_value: float
    threshold: float
    kappa_admissible: bool
    conclusion: str
    notes: str = ""
    arithmetic: dict = field(default_factory=dict)

    def passed(self):
        return self.conclusion != "inconclusive"

    def to_json(self):
        return {
            "theorem_id": self.theorem_id,
            "condition_value": self.condition_value,
            "threshold": self.threshold,
            "kappa_admissible": self.kappa_admissible,
            "conclusion": self.conclusion,
            "notes": self.notes,
            "arithmetic": {k: str(v) for k, v in self.arithmetic.items()},
        }


_GLOBAL_HYPOTHESES = ("completeness, finite L^Q norm and, for weighted bounds, the weighted "
                      "Poincare inequality with a positive-at-infinity weight on a nonparabolic "
                      "space are user-asserted and not verified here")


def check_pq(spectrum, n, p, q, kappa=0.0, rho=0.0, Q=2, k=None, lq_finite=True):
    """Eigenvalue condition for harmonic (p, q)-forms.

    With kappa = 0: weighted sum S >= 0 concludes parallel, S > 0
    concludes vanishing given the finite-L^Q assertion.  With kappa > 0:
    S / (C + 1) >= -kappa rho together with kappa below the
    harmonic-field bound concludes vanishing.  A declared stratum index
    k switches the constant to the stratum variant.  Types with p = q
    only apply to forms orthogonal to the Kahler form power, which the
    notes record.  A type outside 0 <= p, q <= n, p + q >= 1 raises
    ValueError.
    """
    if not (0 <= p <= n and 0 <= q <= n) or p + q < 1:
        raise ValueError(f"form type ({p}, {q}) out of range for n = {n}")
    notes = []
    if k is not None:
        k = serre_stratum(n, p, q, k)
    p, q, remapped = serre_remap(n, p, q)
    if remapped:
        notes.append(f"type remapped to ({p}, {q}) by duality")
    if k is None:
        C = form_constant(n, p, q)
    else:
        C = stratum_constant(n, p, q, k)
        notes.append(f"stratum constant at k = {k}")
    S = weighted_partial_sum(spectrum, C.floor, C.fractional)
    if len(spectrum) != n * n:
        notes.append(f"spectrum length {len(spectrum)} differs from n^2 = {n * n}")
    if p == q:
        theorem_id = "T3_4" if kappa == 0 else "C3_8"
        notes.append("applies to forms orthogonal to the Kahler form power only")
    else:
        theorem_id = "T3_2" if kappa == 0 else "T3_6"
    arithmetic = {"C": C.value, "floor": C.floor, "fractional": C.fractional,
                  "S": S, "kappa": kappa, "rho": rho, "Q": Q}
    notes.append(_GLOBAL_HYPOTHESES)
    notes.append("threshold constant follows the grouped reading (n + 2 - |p - q|) (p + q)")
    if kappa == 0.0:
        if S > 0 and lq_finite:
            concl = "vanishing"
        elif S >= 0:
            concl = "parallel"
        else:
            concl = "inconclusive"
        return VanishingVerdict(theorem_id, S, 0.0, True, concl, "; ".join(notes), arithmetic)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    bound = kappa_bound_harmonic_field(n, p, q, Q)
    admissible = Fraction(kappa) < bound
    arithmetic["kappa_bound"] = bound
    threshold = -(kappa * rho) or 0.0
    cond = S / (float(C.value) + 1.0)
    arithmetic["S_normalized"] = cond
    ok = cond >= threshold and admissible
    concl = "vanishing" if ok else "inconclusive"
    return VanishingVerdict(theorem_id, cond, threshold, bool(admissible), concl,
                            "; ".join(notes), arithmetic)


def _parity_sum_check(spectrum, n_or_m, parity_coeff, k, rho, Q, kappa_bound_value,
                      theorem_id, conclusion, notes):
    if k < 0:
        raise ValueError("k must be nonnegative")
    count = (n_or_m + 1) // 2
    S = weighted_partial_sum(spectrum, count, parity_coeff)
    threshold = -(float(k) * float(rho)) or 0.0
    admissible = Fraction(k) < kappa_bound_value
    arithmetic = {"count": count, "parity_coefficient": parity_coeff, "S": S,
                  "k": k, "rho": rho, "Q": Q, "k_bound": kappa_bound_value}
    ok = S >= threshold and admissible
    concl = conclusion if ok else "inconclusive"
    return VanishingVerdict(theorem_id, S, threshold, bool(admissible), concl,
                            "; ".join(notes), arithmetic)


def _kahler_parity_sum_check(spectrum, n, k, rho, Q, theorem_id, conclusion, notes):
    """The parity sum on n^2 eigenvalues with admissibility k < (Q - 1) / Q^2."""
    if len(spectrum) != n * n:
        raise ValueError(f"spectrum length {len(spectrum)} differs from n^2 = {n * n}")
    Qf = Fraction(Q)
    if Qf < 2:
        raise ValueError("Q must be >= 2")
    return _parity_sum_check(spectrum, n, bochner_parity_coefficient(n), k, rho, Q,
                             (Qf - 1) / (Qf * Qf), theorem_id, conclusion, notes)


def check_bochner(spectrum, n, k=0.0, rho=0.0, Q=2):
    """Totally trace-free part vanishing criterion on a Kahler operator spectrum.

    S = mu_1 + ... + mu_floor((n+1)/2) + (1 + (-1)^n)/4 mu_{floor+1}
    against -k rho, with admissibility k < (Q - 1) / Q^2.
    """
    notes = [_GLOBAL_HYPOTHESES, "requires a divergence-free totally trace-free part"]
    return _kahler_parity_sum_check(spectrum, n, k, rho, Q, "T1_5", "bochner_flat", notes)


def check_einstein_flat(spectrum, n, k=0.0, rho=0.0, Q=2):
    """Same condition shape as the trace-free check, for Einstein Kahler input;
    a passing verdict concludes flat.  Warns below complex dimension four."""
    notes = [_GLOBAL_HYPOTHESES, "input asserted Kahler-Einstein"]
    if n < 4:
        notes.append(f"complex dimension {n} is below the stated range n >= 4")
    return _kahler_parity_sum_check(spectrum, n, k, rho, Q, "T4_1", "flat", notes)


def check_quaternion(spectrum, m, k=0.0, rho=0.0, Q=2, scalar_flat=False):
    """Quaternionic flatness criterion on an sp(m)+sp(1) spectrum.

    S = mu_1 + ... + mu_floor((m+1)/2) + (5 + 3(-1)^m)/12 mu_{floor+1}
    against -k rho, with admissibility k < (Q - 1) / Q.  For k = 0 the
    scalar-flatness assertion is not needed and the notes say so.
    """
    expected = m * (2 * m + 1) + 3
    if len(spectrum) != expected:
        raise ValueError(f"spectrum length {len(spectrum)} differs from m(2m+1)+3 = {expected}")
    Qf = Fraction(Q)
    if Qf < 2:
        raise ValueError("Q must be >= 2")
    bound = (Qf - 1) / Qf
    notes = [_GLOBAL_HYPOTHESES]
    if k == 0:
        notes.append("k = 0: the scalar-flatness hypothesis is not needed")
    elif scalar_flat:
        notes.append("scalar curvature asserted zero by the caller")
    else:
        notes.append("warning: k > 0 requires the scalar-flatness assertion")
    return _parity_sum_check(spectrum, m, quaternion_parity_coefficient(m), k, rho, Q,
                             bound, "T4_4", "flat", notes)


def check_lq_nonneg(spectrum, n):
    """Partial-sum nonnegativity: mu_1 + ... + mu_ceil(n/2) >= 0.

    A passing verdict concludes parallel (vanishing under the finite
    L^Q assertion); the reduced-cohomology consequence is trivial in odd
    degrees, which the notes record.
    """
    count = math.ceil(n / 2)
    S = weighted_partial_sum(spectrum, count)
    notes = [_GLOBAL_HYPOTHESES,
             "odd-degree reduced L^2 cohomology vanishes when the check passes"]
    concl = "vanishing" if S > 0 else ("parallel" if S >= 0 else "inconclusive")
    return VanishingVerdict("C3_3", S, 0.0, True, concl, "; ".join(notes),
                            {"count": count, "S": S})
