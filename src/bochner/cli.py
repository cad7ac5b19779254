"""Command-line front end: model generation, spectra, decompositions,
verification suites and criterion checks.

Machine-readable JSON goes to stdout (stable key order, so identical
invocations with identical seeds are byte-identical); human-readable
summaries go to stderr.  Exit codes: 0 success / criterion passed,
2 inconclusive verdict, 1 error or failed verification case.

All randomness flows from a single 64-bit --seed through numpy's
default PCG64 generator; reports embed the seed they were run with.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import criteria as crit
from . import curvature as curv
from . import forms as fms
from . import weitzenbock as wb
from .holonomy import AlgebraKind, cached_algebra
from .tensors import (ComplexTensor, EuclideanSpace, _dumps, _write_json, load_tensor,
                      save_tensor, tensor_to_json)

DEFAULT_SEED = 20240801


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


def _note(msg):
    sys.stderr.write(msg + "\n")


def _space_for(args):
    if args.m is not None:
        return EuclideanSpace.quaternionic_space(args.m)
    if args.n is not None:
        return EuclideanSpace.complex_space(args.n)
    if args.d is not None:
        if args.d % 2:
            raise ValueError(f"real dimension must be positive and even, got {args.d}")
        return EuclideanSpace.complex_space(args.d // 2)
    raise ValueError("one of --n, --m, --d is required")


# ---------------------------------------------------------------------------
# verification report plumbing


@dataclass
class VerificationReport:
    """Outcome of one named suite: per-case lhs/rhs/deviation and a pass bit.

    Serialization omits the wall time so that reports are byte-stable
    for a fixed seed; the human summary on stderr carries it instead.
    """

    suite: str
    seed: int
    tolerances: dict
    cases: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, case_id, lhs, rhs, tol_name):
        tol = self.tolerances[tol_name]
        lhs = float(lhs)
        rhs = float(rhs)
        deviation = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        self.cases.append({
            "id": case_id,
            "lhs": lhs,
            "rhs": rhs,
            "deviation": deviation,
            "pass": bool(deviation <= tol),
        })

    def add_bound(self, case_id, value, bound, tol_name):
        """Pass when value <= bound + tol (one-sided check)."""
        tol = self.tolerances[tol_name]
        value = float(value)
        bound = float(bound)
        self.cases.append({
            "id": case_id,
            "lhs": value,
            "rhs": bound,
            "deviation": max(0.0, value - bound),
            "pass": bool(value <= bound + tol),
        })

    @property
    def ok(self):
        return all(c["pass"] for c in self.cases)

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "cases": self.cases,
            "all_pass": self.ok,
        }


# ---------------------------------------------------------------------------
# suites


def _suite_identities(seed, samples, tol):
    rep = VerificationReport("identities", seed, {"norm": 1e-10 if tol is None else tol})
    rng = np.random.default_rng(seed)
    for d in (4, 6, 8):
        space = EuclideanSpace.complex_space(d // 2)
        for s in range(samples):
            rm = curv.random_curvature(space, rng)
            op = curv.to_operator(rm)
            rep.add(f"identities/d{d}/sample{s:03d}/norm-duality", rm.norm2(), 4.0 * op.norm2(), "norm")
        rm = curv.random_curvature(space, rng)
        back = curv.from_operator(curv.to_operator(rm))
        rep.add(f"identities/d{d}/round-trip", float(np.abs(back.array - rm.array).max()), 0.0, "norm")
        kn = curv.kulkarni_nomizu(np.eye(d), np.eye(d))
        rep.add(f"identities/d{d}/kn-bianchi",
                float(np.abs(kn + np.transpose(kn, (1, 2, 0, 3)) + np.transpose(kn, (2, 0, 1, 3))).max()),
                0.0, "norm")
        rm_k = curv.random_kahler_curvature(space, rng)
        rho = curv.ricci_form(rm_k)
        omega_trace = np.einsum("bi,ibzw->zw", space.j_matrix(), rm_k.array)
        rep.add(f"identities/d{d}/omega-trace-vs-ricci-form",
                float(np.abs(omega_trace - 2.0 * rho).max() / max(1.0, np.abs(rho).max())),
                0.0, "norm")
    return rep


def _prop24_targets():
    targets = []
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        targets.append((f"chsc-n{n}", curv.chsc_model(space, 4.0), cached_algebra(space, AlgebraKind.U)))
    qspace = EuclideanSpace.quaternionic_space(2)
    targets.append(("hpm-m2", curv.quaternionic_projective_model(qspace),
                    cached_algebra(qspace, AlgebraKind.SP_SP1)))
    return targets


def _prop24_cases(rm, algebra, samples, rng):
    """`samples` random tensors of each rank 1, 2, 3, drawn in that order, each
    checked against the restriction identity: (case id, report) pairs."""
    ids = [(rank, f"rank{rank}/sample{s:03d}") for rank in (1, 2, 3) for s in range(samples)]
    tensors = [ComplexTensor.random(rm.space, rank, rng) for rank, _ in ids]
    reports = wb.verify_weitzenbock_restriction(rm, algebra, tensors)
    return [(case_id, r) for (_, case_id), r in zip(ids, reports)]


def _suite_prop24(seed, samples, tol):
    rep = VerificationReport("prop24", seed, {"identity": 1e-8 if tol is None else tol})
    rng = np.random.default_rng(seed)
    for name, rm, algebra in _prop24_targets():
        for case_id, r in _prop24_cases(rm, algebra, samples, rng):
            rep.add(f"prop24/{name}/{case_id}", r["lhs"], r["rhs"], "identity")
    return rep


def _pq_configurations(max_n=3):
    out = []
    for n in range(1, max_n + 1):
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                for k in range(0, min(p, q) + 1):
                    if p + q - 2 * k > 0:
                        out.append((n, p, q, k))
    return out


def _suite_prop27(seed, samples, tol):
    """Sharp-norm coefficient identity on its exact domain: forms of the
    stratum Omega^k ^ primitive (p-k, q-k)."""
    rep = VerificationReport("prop27", seed, {"identity": 1e-8 if tol is None else tol})
    rng = np.random.default_rng(seed)
    for (n, p, q, k) in _pq_configurations():
        space = EuclideanSpace.complex_space(n)
        basis = fms.stratum_basis(space, p, q, k)
        forms = [(f"basis{i:02d}", f) for i, f in enumerate(basis)]
        for s in range(samples):
            forms.append((f"random{s:02d}", fms.random_stratum_form(space, p, q, k, rng)))
        for name, f in forms:
            r = fms.sharp_norm_coefficient_check(f)
            if r["vacuous"]:
                continue
            rep.add(f"prop27/n{n}p{p}q{q}k{k}/{name}", r["sharp_norm2"],
                    r["coefficient_times_circ"], "identity")
    return rep


def _random_prop28_form(space, p, q, k, rng):
    """A random (p, q)-form for k = 0, a random stratum form otherwise."""
    return fms.random_stratum_form(space, p, q, k, rng) if k else fms.random_pq_form(space, p, q, rng)


def _suite_prop28(seed, samples, tol):
    rep = VerificationReport("prop28", seed, {"bound": 1e-9 if tol is None else tol})
    rng = np.random.default_rng(seed)
    for (n, p, q, k) in _pq_configurations():
        space = EuclideanSpace.complex_space(n)
        for s in range(samples):
            r = fms.action_bound_check(_random_prop28_form(space, p, q, k, rng))
            if r["vacuous"]:
                continue
            rep.add_bound(f"prop28/n{n}p{p}q{q}k{k}/sample{s:03d}", r["max_ratio"], 1.0, "bound")
    return rep


def _suite_lemma26(seed, samples, tol):
    rep = VerificationReport("lemma26", seed, {"bound": 1e-10 if tol is None else tol})
    rng = np.random.default_rng(seed)
    n = 2
    space = EuclideanSpace.complex_space(n)
    algebra = cached_algebra(space, AlgebraKind.U)
    C = float(n)
    kappa = -1.0
    operators = 0
    draws = 0
    while operators < 4 and draws < 200:
        draws += 1
        G = rng.standard_normal((n * n, n * n))
        G = 0.5 * (G + G.T)
        spec = np.linalg.eigvalsh(G)
        for ell in (1, 2):
            premise = crit.weighted_partial_sum(spec, ell, C - ell)
            if premise < kappa * (ell + 1):
                continue
            tensors = [fms.random_pq_form(space, 1, 0, rng).tensor for _ in range(samples)]
            r = wb.verify_eigenvalue_sum_bound(G, algebra, C, ell, kappa, tensors)
            for case in r["cases"]:
                rep.add_bound(f"lemma26/op{operators}/ell{ell}/sample{case['id']:03d}",
                              case["rhs"], case["lhs"], "bound")
            operators += 1
            break
    return rep


def _suite_lemma212(seed, samples, tol):
    rep = VerificationReport("lemma212", seed, {"identity": 1e-8 if tol is None else tol})
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        for s in range(samples):
            rm = curv.random_kahler_curvature(space, rng)
            r = curv.kahler_sharp_identity(rm)
            rep.add(f"lemma212/n{n}/sample{s:03d}", r["lhs_operator"], r["rhs_operator"], "identity")
        r = curv.kahler_sharp_identity(curv.chsc_model(space, 2.0))
        rep.add_bound(f"lemma212/n{n}/chsc-lhs", abs(r["lhs_operator"]), 0.0, "identity")
        rep.add_bound(f"lemma212/n{n}/chsc-rhs", abs(r["rhs_operator"]), 0.0, "identity")
    return rep


def _suite_lemma213(seed, samples, tol):
    """Quaternionic sharp-norm identity with the measured invariant
    coefficient 4 (m + 2); the nominal (4/3)(3m+4) variant is exposed by
    the library report but fails by the fixed ratio 3(m+2)/(3m+4)."""
    rep = VerificationReport("lemma213", seed, {"identity": 1e-8 if tol is None else tol})
    rng = np.random.default_rng(seed)
    space = EuclideanSpace.quaternionic_space(2)
    for s in range(samples):
        rm = curv.random_quaternion_kahler_curvature(space, rng)
        r = curv.quaternion_sharp_identity(rm)
        rep.add(f"lemma213/m2/sample{s:03d}", r["lhs_tensor"], r["rhs_measured"], "identity")
    return rep


def _suite_bochner_tracefree(seed, samples, tol):
    rep = VerificationReport("bochner-tracefree", seed,
                             {"trace": 1e-8 if tol is None else tol, "reassembly": 1e-9})
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        for s in range(samples):
            rm = curv.random_kahler_curvature(space, rng)
            dec = curv.kahler_decompose(rm)
            t1, t2 = dec.bochner_traces()
            scale = max(1.0, np.abs(rm.array).max())
            rep.add_bound(f"bochner-tracefree/n{n}/sample{s:03d}/trace1", t1 / scale, 0.0, "trace")
            rep.add_bound(f"bochner-tracefree/n{n}/sample{s:03d}/trace2", t2 / scale, 0.0, "trace")
            err = float(np.abs(dec.reassembled().array - rm.array).max())
            rep.add_bound(f"bochner-tracefree/n{n}/sample{s:03d}/reassembly", err / scale, 0.0,
                          "reassembly")
    return rep


_SUITES = {
    "identities": (_suite_identities, 100),
    "prop24": (_suite_prop24, 10),
    "prop27": (_suite_prop27, 10),
    "prop28": (_suite_prop28, 5),
    "lemma26": (_suite_lemma26, 50),
    "lemma212": (_suite_lemma212, 25),
    "lemma213": (_suite_lemma213, 10),
    "bochner-tracefree": (_suite_bochner_tracefree, 25),
}


def cmd_verify(args):
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"verify --samples must be at least 1, got {args.samples}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    exit_code = 0
    for name in names:
        fn, default_samples = _SUITES[name]
        samples = args.samples if args.samples is not None else default_samples
        t0 = time.perf_counter()
        rep = fn(args.seed, samples, args.tol)
        rep.wall_time = time.perf_counter() - t0
        _emit(rep.to_json())
        status = "pass" if rep.ok else "FAIL"
        _note(f"[{name}] {len(rep.cases)} cases, {status}, {rep.wall_time:.2f}s")
        if not rep.ok:
            exit_code = 1
            worst = max(rep.cases, key=lambda c: c["deviation"])
            _note(f"[{name}] worst case: {worst['id']} deviation {worst['deviation']:.3e}")
    return exit_code


# ---------------------------------------------------------------------------
# commands


def cmd_model(args):
    need = {"hpm": "m", "chsc": "n"}.get(args.kind)
    if need and getattr(args, need) is None:
        raise ValueError(f"model {args.kind} requires --{need}")
    space = EuclideanSpace.complex_space(args.n) if args.kind == "chsc" else _space_for(args)
    rm = curv.model(args.kind, space, c=args.c)
    obj = curv.curvature_to_json(rm)
    if args.out:
        _write_json(obj, args.out)
    else:
        _emit(obj)
    flags = obj.get("flags", [])
    _note(f"model {args.kind}: dim {rm.space.dim}, flags {flags or 'none'}"
          + (f", written to {args.out}" if args.out else ""))
    return 0


def cmd_spectrum(args):
    rm = curv.load_curvature(args.input)
    algebra = cached_algebra(rm.space, AlgebraKind(args.algebra))
    op = curv.to_operator(rm)
    vals, leak = curv.restricted_spectrum(op, algebra)
    # the spectrum is printed either way; a leak then exits 1 through main
    _emit({"eigenvalues": [float(v) for v in vals], "leakage": leak, "dim": algebra.dim})
    curv._refuse_leak("operator", leak, float(np.abs(op.matrix).max()))
    return 0


def cmd_algebra(args):
    space = _space_for(args)
    algebra = cached_algebra(space, AlgebraKind(args.algebra))
    obj = {
        "kind": args.algebra,
        "ambient_dim": space.dim,
        "dim": algebra.dim,
        "wedge_basis_order": "lexicographic pairs (i, j), i < j, 1-based",
        "basis": [[float(c) for c in b.coeffs] for b in algebra.basis],
    }
    if args.out:
        _write_json(obj, args.out)
        _note(f"{algebra.dim} basis elements written to {args.out}")
    else:
        _emit(obj)
    return 0


def cmd_decompose(args):
    rm = curv.load_curvature(args.input)
    if args.what == "kahler":
        dec = curv.kahler_decompose(rm)
        t1, t2 = dec.bochner_traces()
        _emit({
            "scal": dec.scal,
            "scalar_part": curv.curvature_to_json(dec.scalar_part),
            "ricci_part": curv.curvature_to_json(dec.ricci_part),
            "bochner": curv.curvature_to_json(dec.bochner),
            "bochner_traces": [t1, t2],
        })
        _note(f"kahler split: scal {dec.scal:.6g}, bochner traces {t1:.2e} / {t2:.2e}")
    else:
        dec = curv.quaternion_decompose(rm)
        _emit({
            "hp_coefficient": dec.hp_coefficient,
            "leakage": dec.leakage,
            "ricci_residual": dec.ricci_residual(),
            "r0": curv.curvature_to_json(dec.r0),
        })
        _note(f"quaternion split: coefficient {dec.hp_coefficient:.6g}, "
              f"ricci residual {dec.ricci_residual():.2e}")
    return 0


def cmd_sharp_norm(args):
    rm = curv.load_curvature(args.input)
    _emit(curv.sharp_norm_identities(rm))
    return 0


def cmd_weitz(args):
    if args.action in ("ric", "term") and not args.tensor:
        raise ValueError(f"weitz {args.action} requires -t TENSOR")
    if args.action == "verify" and args.target is None:
        raise ValueError("weitz verify requires a target: prop24 or lemma26")
    if args.action == "verify" and args.samples < 1:
        raise ValueError(f"weitz verify --samples must be at least 1, got {args.samples}")
    rm = curv.load_curvature(args.input)
    if args.action == "ric":
        T = load_tensor(args.tensor, space=rm.space)
        if args.c is not None:
            out = wb.lichnerowicz_zero_order(rm, T, args.c)
        else:
            out = wb.weitzenbock_ric(rm, T)
        if args.out:
            save_tensor(out, args.out)
            _note(f"written to {args.out}")
        else:
            _emit(tensor_to_json(out))
        return 0
    if args.action == "term":
        T = load_tensor(args.tensor, space=rm.space)
        algebra = cached_algebra(rm.space, AlgebraKind(args.algebra))
        term = wb.curvature_term(rm, algebra, T)
        _emit({
            "value": term.value,
            "gram_value": term.gram_value,
            "per_eigenvalue": [[mu, w] for mu, w in term.per_eigenvalue],
            "sharp_norm2": term.sharp_norm2,
            "route_deviation": term.route_deviation,
        })
        return 0
    # action == "verify"
    algebra = cached_algebra(rm.space, AlgebraKind(args.algebra))
    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else 1e-8
    if args.target == "prop24":
        cases = [{"id": case_id, "lhs": r["lhs"], "rhs": r["rhs"], "deviation": r["deviation"],
                  "pass": r["deviation"] <= tol}
                 for case_id, r in _prop24_cases(rm, algebra, args.samples, rng)]
        ok = all(c["pass"] for c in cases)
        _emit({"check": "prop24", "seed": args.seed, "cases": cases, "all_pass": ok})
        return 0 if ok else 1
    # target == "lemma26"
    tensors = [ComplexTensor.random(rm.space, args.rank, rng) for _ in range(args.samples)]
    r = wb.verify_eigenvalue_sum_bound(rm, algebra, args.C, args.ell, args.kappa,
                                       tensors, slack=tol)
    r["check"] = "lemma26"
    r["seed"] = args.seed
    _emit(r)
    return 0 if r["all_pass"] else 1


def cmd_forms(args):
    least = 1 if args.what == "check-prop28" else 0
    if args.samples < least:
        raise ValueError(f"forms {args.what} --samples must be at least {least}, got {args.samples}")
    crit.check_stratum(args.p, args.q, args.k)
    space = EuclideanSpace.complex_space(args.n)
    rng = np.random.default_rng(args.seed)
    if args.what == "check-prop27":
        reports = []
        p, q, k = args.p, args.q, args.k
        basis1 = fms.build_pq_basis(space, p - k, 0)
        basis2 = fms.build_pq_basis(space, 0, q - k)
        for i1, psi1 in enumerate(basis1):
            for i2, psi2 in enumerate(basis2):
                f = fms.construct_Vpqk(psi1, psi2, k)
                r = fms.sharp_norm_coefficient_check(f)
                r["id"] = f"product{i1:02d}x{i2:02d}"
                reports.append(r)
        for s in range(args.samples):
            f = fms.random_stratum_form(space, p, q, k, rng)
            r = fms.sharp_norm_coefficient_check(f)
            r["id"] = f"stratum-random{s:02d}"
            reports.append(r)
        _emit({"check": "prop27", "n": args.n, "p": p, "q": q, "k": k,
               "seed": args.seed, "cases": reports})
        worst = max((r["relative_deviation"] for r in reports if not r["vacuous"]), default=0.0)
        _note(f"coefficient check: {len(reports)} forms, worst relative deviation {worst:.3e} "
              "(products mixing wedge strata deviate by design; stratum forms are exact)")
        return 0
    # what == "check-prop28"
    reports = [fms.action_bound_check(_random_prop28_form(space, args.p, args.q, args.k, rng))
               for _ in range(args.samples)]
    worst = max((r["max_ratio"] for r in reports), default=0.0)
    vacuous = all(r["vacuous"] for r in reports)
    _emit({"check": "prop28", "n": args.n, "p": args.p, "q": args.q, "k": args.k,
           "seed": args.seed, "samples": args.samples, "max_ratio": worst,
           "vacuous": vacuous})
    return 0 if vacuous or worst <= 1.0 + 1e-9 else 1


def _finite_number(x):
    """An int or a float that converts to a finite float (a 401-digit int does not)."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def _spectrum_from_args(args, algebra_kind):
    if args.spectrum:
        with open(args.spectrum) as fh:
            data = json.load(fh)
        # a bare list is user-asserted; a `spectrum` object carries its leakage
        leak = 0.0
        if isinstance(data, dict):
            if "eigenvalues" not in data:
                raise ValueError(f"spectrum file {args.spectrum} has no \"eigenvalues\"")
            leak = data.get("leakage", 0.0)
            if not _finite_number(leak):
                raise ValueError(f"spectrum file {args.spectrum} has a non-numeric \"leakage\"")
            data = data["eigenvalues"]
        if not isinstance(data, list) or not all(map(_finite_number, data)):
            raise ValueError(f"spectrum file {args.spectrum} must hold a list of finite numbers")
        spectrum = [float(x) for x in data]
        curv._refuse_leak(f"spectrum file {args.spectrum}", float(leak),
                          max(map(abs, spectrum), default=0.0))
        return spectrum
    if args.model:
        if args.model == "hpm" or algebra_kind == AlgebraKind.SP_SP1:
            _require(args, "m")
            space = EuclideanSpace.quaternionic_space(args.m)
        else:
            space = EuclideanSpace.complex_space(args.n)
        op = curv.to_operator(curv.model(args.model, space, c=args.c))
        vals, leak = curv.restricted_spectrum(op, cached_algebra(space, algebra_kind))
        curv._refuse_leak(f"model {args.model}", leak, float(np.abs(op.matrix).max()))
        return [float(v) for v in vals]
    raise ValueError("provide --spectrum FILE or --model KIND")


def _require(args, *names):
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"check {args.what} requires {' and '.join(missing)}")


_CHECK_NEEDS = {"pq": ("n", "p", "q"), "bochner": ("n",), "einstein": ("n",),
                "quaternion": ("m",), "lq": ("n",)}


def cmd_check(args):
    _require(args, *_CHECK_NEEDS[args.what])
    spectrum = _spectrum_from_args(
        args, AlgebraKind.SP_SP1 if args.what == "quaternion" else AlgebraKind.U)
    if args.what == "pq":
        verdict = crit.check_pq(spectrum, args.n, args.p, args.q, kappa=args.kappa,
                                rho=args.rho, Q=args.Q, k=args.stratum)
    elif args.what == "bochner":
        verdict = crit.check_bochner(spectrum, args.n, k=args.k, rho=args.rho, Q=args.Q)
    elif args.what == "einstein":
        verdict = crit.check_einstein_flat(spectrum, args.n, k=args.k, rho=args.rho, Q=args.Q)
    elif args.what == "quaternion":
        verdict = crit.check_quaternion(spectrum, args.m, k=args.k, rho=args.rho,
                                        Q=args.Q, scalar_flat=args.scalar_flat)
    else:
        verdict = crit.check_lq_nonneg(spectrum, args.n)
    _emit(verdict.to_json())
    _note(f"{verdict.theorem_id}: {verdict.conclusion} "
          f"(condition {verdict.condition_value:.6g} vs threshold {verdict.threshold:.6g})")
    return 0 if verdict.passed() else 2


# ---------------------------------------------------------------------------
# parser


def build_parser():
    ap = argparse.ArgumentParser(prog="bochner",
                                 description="Pointwise curvature algebra and eigenvalue "
                                             "vanishing criteria")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="write a model curvature tensor")
    p.add_argument("kind", choices=["flat", "cs", "chsc", "hpm"])
    p.add_argument("--n", type=int, help="complex dimension")
    p.add_argument("--m", type=int, help="quaternionic dimension")
    p.add_argument("--d", type=int, help="real dimension (even)")
    p.add_argument("--c", type=float, default=1.0, help="curvature scale")
    p.add_argument("-o", "--out", help="output path (stdout when omitted)")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("spectrum", help="restricted eigenvalues of a curvature file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--algebra", choices=["so", "u", "sp"], required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("algebra", help="export a holonomy algebra basis")
    p.add_argument("--algebra", choices=["so", "u", "sp"], required=True)
    p.add_argument("--n", type=int, help="complex dimension")
    p.add_argument("--m", type=int, help="quaternionic dimension")
    p.add_argument("--d", type=int, help="real dimension (even)")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("decompose", help="curvature decompositions")
    p.add_argument("what", choices=["kahler", "quaternion"])
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("sharp-norm", help="sharp-norm identity report for a curvature file")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(fn=cmd_sharp_norm)

    p = sub.add_parser("weitz", help="Weitzenbock actions and verifications")
    p.add_argument("action", choices=["ric", "term", "verify"])
    p.add_argument("target", nargs="?", choices=["prop24", "lemma26"],
                   help="verification target (verify only)")
    p.add_argument("-i", "--input", required=True, help="curvature file")
    p.add_argument("-t", "--tensor", help="tensor file (ric/term)")
    p.add_argument("-o", "--out")
    p.add_argument("--algebra", choices=["so", "u", "sp"], default="u")
    p.add_argument("--c", type=float, help="Laplacian scaling constant")
    p.add_argument("--C", type=float, default=2.0, help="hypothesis constant (lemma26)")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, help="pass tolerance (default 1e-8)")
    p.set_defaults(fn=cmd_weitz)

    p = sub.add_parser("forms", help="(p, q)-form checks")
    p.add_argument("what", choices=["check-prop27", "check-prop28"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_forms)

    p = sub.add_parser("check", help="eigenvalue criterion verdicts")
    p.add_argument("what", choices=["pq", "bochner", "einstein", "quaternion", "lq"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--stratum", type=int, help="wedge stratum index (pq only)")
    p.add_argument("--kappa", type=float, default=0.0, help="weight constant (pq)")
    p.add_argument("--k", type=float, default=0.0,
                   help="weight constant (bochner / einstein / quaternion)")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--Q", type=float, default=2.0)
    p.add_argument("--scalar-flat", action="store_true")
    p.add_argument("--spectrum", help="JSON file: array or {eigenvalues: [...]}")
    p.add_argument("--model", help="compute the spectrum of a model instead")
    p.add_argument("--c", type=float, default=1.0, help="model curvature scale")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=list(_SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
