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
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import criteria as crit
from . import curvature as curv
from . import forms as fms
from . import weitzenbock as wb
from .holonomy import AlgebraKind, cached_algebra
from .tensors import (ComplexTensor, EuclideanSpace, _dumps, _finite_floats, _read_json,
                      _tensor_doc, _write_json, load_tensor)

DEFAULT_SEED = 20240801


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


def _note(msg):
    sys.stderr.write(msg + "\n")


def _space_for(args):
    """The space of the one size flag given: --m, --n or an even --d."""
    given = [f"--{name}" for name in ("n", "m", "d") if getattr(args, name) is not None]
    if len(given) > 1:
        raise ValueError(f"conflicting size flags {' and '.join(given)}: give one of --n, --m, --d")
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
    """Outcome of one named check: per-case lhs/rhs/deviation and a pass bit.

    The only record of every check command, made by `_report` and printed
    by `_finish`.  It omits the wall time so that reports are byte-stable
    for a fixed seed.
    """

    suite: str
    seed: int
    tolerances: dict
    cases: list = field(default_factory=list)

    def add(self, case_id, lhs, rhs, tol_name):
        lhs, rhs = float(lhs), float(rhs)
        deviation = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
        self.cases.append({
            "id": case_id,
            "lhs": lhs,
            "rhs": rhs,
            "deviation": deviation,
            "pass": bool(deviation <= self.tolerances[tol_name]),
        })

    def add_bound(self, case_id, value, bound, tol_name):
        """Pass when value <= bound + tol (one-sided check)."""
        self.add_decided(case_id, value, bound,
                         float(value) <= float(bound) + self.tolerances[tol_name])

    def add_decided(self, case_id, value, bound, passed):
        """A one-sided case value <= bound whose pass bit the library decided."""
        value, bound = float(value), float(bound)
        self.cases.append({
            "id": case_id,
            "lhs": value,
            "rhs": bound,
            "deviation": max(0.0, value - bound),
            "pass": bool(passed),
        })

    @property
    def ok(self):
        """An empty report checked nothing, so it does not pass."""
        return bool(self.cases) and all(c["pass"] for c in self.cases)

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "cases": self.cases,
            "all_pass": self.ok,
        }


def _finish(rep, t0):
    """Print a report and its stderr summary; the exit code of every check."""
    wall_time = time.perf_counter() - t0
    _emit(rep.to_json())
    _note(f"[{rep.suite}] {len(rep.cases)} cases, {'pass' if rep.ok else 'FAIL'}, {wall_time:.2f}s")
    if not rep.cases:
        _note(f"[{rep.suite}] no case was checked")
    elif not rep.ok:
        worst = max((c for c in rep.cases if not c["pass"]), key=lambda c: c["deviation"])
        _note(f"[{rep.suite}] worst case: {worst['id']} deviation {worst['deviation']:.3e}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# suites: each adds its cases to the report it is given


def _suite_identities(rep, rng, samples):
    for d in (4, 6, 8):
        space = EuclideanSpace.complex_space(d // 2)
        for s in range(samples):
            rm = curv.random_curvature(space, rng)
            rep.add(f"identities/d{d}/sample{s:03d}/norm-duality", rm.norm2(),
                    4.0 * float(np.sum(rm.operator * rm.operator)), "norm")
        rm = curv.random_curvature(space, rng)
        back = curv.from_operator(space, rm.operator)
        rep.add(f"identities/d{d}/round-trip", float(np.abs(back.array - rm.array).max()), 0.0, "norm")
        kn = curv.kulkarni_nomizu(np.eye(d), np.eye(d))
        rep.add(f"identities/d{d}/kn-bianchi", float(np.abs(curv._bianchi_residual(kn)).max()),
                0.0, "norm")
        rm_k = curv.random_kahler_curvature(space, rng)
        rho = curv.ricci_form(rm_k)
        omega_trace = np.einsum("bi,ibzw->zw", space.j_matrix(), rm_k.array)
        rep.add(f"identities/d{d}/omega-trace-vs-ricci-form",
                float(np.abs(omega_trace - 2.0 * rho).max() / max(1.0, np.abs(rho).max())),
                0.0, "norm")


def _prop24_cases(rep, prefix, rm, algebra, samples, rng):
    """`samples` random tensors of each rank 1, 2, 3, drawn in that order, each
    checked against the restriction identity."""
    ids = [(rank, f"{prefix}rank{rank}/sample{s:03d}") for rank in (1, 2, 3) for s in range(samples)]
    tensors = [ComplexTensor.random(rm.space, rank, rng) for rank, _ in ids]
    for (_, case_id), r in zip(ids, wb.verify_weitzenbock_restriction(rm, algebra, tensors)):
        rep.add(case_id, r["lhs"], r["rhs"], "identity")


def _suite_prop24(rep, rng, samples):
    qspace = EuclideanSpace.quaternionic_space(2)
    targets = [(f"chsc-n{n}", curv.chsc_model(EuclideanSpace.complex_space(n), 4.0), AlgebraKind.U)
               for n in (2, 3)]
    targets.append(("hpm-m2", curv.quaternionic_projective_model(qspace), AlgebraKind.SP_SP1))
    for name, rm, kind in targets:
        _prop24_cases(rep, f"prop24/{name}/", rm, cached_algebra(rm.space, kind), samples, rng)


def _pq_configurations():
    return [(n, p, q, k) for n in (1, 2, 3) for p in range(n + 1) for q in range(n + 1 - p)
            for k in range(min(p, q) + 1) if p + q - 2 * k > 0]


def _prop27_cases(rep, prefix, forms):
    """Sharp-norm coefficient cases over (name, form, exact) triples: equality
    where `exact`, an upper bound elsewhere; vacuous forms are skipped."""
    for name, f, exact in forms:
        r = fms.sharp_norm_coefficient_check(f)
        if not r["vacuous"]:
            add = rep.add if exact else rep.add_bound
            add(f"{prefix}{name}", r["sharp_norm2"], r["coefficient_times_circ"], "identity")


def _suite_prop27(rep, rng, samples):
    """Sharp-norm coefficient identity on its exact domain: forms of the
    stratum Omega^k ^ primitive (p-k, q-k)."""
    for (n, p, q, k) in _pq_configurations():
        space = EuclideanSpace.complex_space(n)
        basis = fms.stratum_basis(space, p, q, k)
        forms = [(f"basis{i:02d}", f, True) for i, f in enumerate(basis)]
        forms += [(f"random{s:02d}", fms.random_stratum_form(space, p, q, k, rng), True)
                  for s in range(samples)]
        _prop27_cases(rep, f"prop27/n{n}p{p}q{q}k{k}/", forms)


def _prop28_cases(rep, prefix, space, p, q, k, samples, rng):
    """Action-bound cases max_ratio <= 1 on random (p, q)-forms, stratum forms
    when k > 0; vacuous ones are skipped."""
    for s in range(samples):
        phi = fms.random_stratum_form(space, p, q, k, rng) if k else fms.random_pq_form(space, p, q, rng)
        r = fms.action_bound_check(phi)
        if not r["vacuous"]:
            rep.add_bound(f"{prefix}sample{s:03d}", r["max_ratio"], 1.0, "bound")


def _suite_prop28(rep, rng, samples):
    for (n, p, q, k) in _pq_configurations():
        _prop28_cases(rep, f"prop28/n{n}p{p}q{q}k{k}/", EuclideanSpace.complex_space(n),
                      p, q, k, samples, rng)


def _lemma26_cases(rep, prefix, gram, algebra, C, ell, kappa, tensors):
    """Record the library's Lemma 2.6 cases as bound <= term, with its pass
    bits at slack tolerances["bound"]; returns the library's result."""
    r = wb.verify_eigenvalue_sum_bound(gram, algebra, C, ell, kappa, tensors,
                                       slack=rep.tolerances["bound"])
    for case in r["cases"]:
        rep.add_decided(f"{prefix}sample{case['id']:03d}", case["rhs"], case["lhs"], case["pass"])
    return r


def _suite_lemma26(rep, rng, samples):
    n = 2
    space = EuclideanSpace.complex_space(n)
    algebra = cached_algebra(space, AlgebraKind.U)
    C = float(n)
    kappa = -1.0
    operators = draws = 0
    while operators < 4 and draws < 200:
        draws += 1
        G = rng.standard_normal((n * n, n * n))
        G = 0.5 * (G + G.T)
        spec = np.linalg.eigvalsh(G)
        for ell in (1, 2):
            if not wb._lemma26_premise(spec, C, ell, kappa)[1]:
                continue
            tensors = [fms.random_pq_form(space, 1, 0, rng).tensor for _ in range(samples)]
            _lemma26_cases(rep, f"lemma26/op{operators}/ell{ell}/", G, algebra, C, ell, kappa,
                           tensors)
            operators += 1
            break


def _suite_lemma212(rep, rng, samples):
    for n in (2, 3):
        space = EuclideanSpace.complex_space(n)
        for s in range(samples):
            rm = curv.random_kahler_curvature(space, rng)
            r = curv.kahler_sharp_identity(rm)
            rep.add(f"lemma212/n{n}/sample{s:03d}", r["lhs_operator"], r["rhs_operator"], "identity")
        r = curv.kahler_sharp_identity(curv.chsc_model(space, 2.0))
        rep.add_bound(f"lemma212/n{n}/chsc-lhs", abs(r["lhs_operator"]), 0.0, "identity")
        rep.add_bound(f"lemma212/n{n}/chsc-rhs", abs(r["rhs_operator"]), 0.0, "identity")


def _suite_lemma213(rep, rng, samples):
    """Quaternionic sharp-norm identity with the measured invariant
    coefficient 4 (m + 2); the nominal (4/3)(3m+4) variant is exposed by
    the library report but fails by the fixed ratio 3(m+2)/(3m+4)."""
    space = EuclideanSpace.quaternionic_space(2)
    for s in range(samples):
        rm = curv.random_quaternion_kahler_curvature(space, rng)
        r = curv.quaternion_sharp_identity(rm)
        rep.add(f"lemma213/m2/sample{s:03d}", r["lhs_tensor"], r["rhs_measured"], "identity")


def _suite_bochner_tracefree(rep, rng, samples):
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


# The one registry of checks, name -> (suite, default --samples, default tolerances);
# the per-input check commands share its tolerances, and --tol replaces the first.
_SUITES = {
    "identities": (_suite_identities, 100, {"norm": 1e-10}),
    "prop24": (_suite_prop24, 10, {"identity": 1e-8}),
    "prop27": (_suite_prop27, 10, {"identity": 1e-8}),
    "prop28": (_suite_prop28, 5, {"bound": 1e-9}),
    "lemma26": (_suite_lemma26, 50, {"bound": 1e-10}),
    "lemma212": (_suite_lemma212, 25, {"identity": 1e-8}),
    "lemma213": (_suite_lemma213, 10, {"identity": 1e-8}),
    "bochner-tracefree": (_suite_bochner_tracefree, 25, {"trace": 1e-8, "reassembly": 1e-9}),
}

# the default slack of `weitz verify lemma26`, looser than the suite's
_WEITZ_LEMMA26_TOL = 1e-8


def _report(name, seed, tol=None):
    """An empty report of the check `name` with its registry tolerances, the
    first replaced by tol when one is given."""
    tolerances = dict(_SUITES[name][2])
    if tol is not None:
        tolerances[next(iter(tolerances))] = tol
    return VerificationReport(name, seed, tolerances)


def cmd_verify(args):
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"verify --samples must be at least 1, got {args.samples}")
    if args.tol is not None:
        crit._require_finite(tol=args.tol)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    exit_code = 0
    for name in names:
        fn, default_samples, _ = _SUITES[name]
        t0 = time.perf_counter()
        rep = _report(name, args.seed, args.tol)
        fn(rep, np.random.default_rng(args.seed), args.samples or default_samples)
        exit_code |= _finish(rep, t0)
    return exit_code


# ---------------------------------------------------------------------------
# commands


def _output(obj, path):
    """Write obj to the file at path, or print it when no path is given."""
    if path:
        _write_json(obj, path)
    else:
        _emit(obj)


def _spectrum_doc(rm, algebra):
    """The restricted spectrum of rm on algebra: eigenvalues, leakage, dim."""
    vals, leak = curv.restricted_spectrum(rm, algebra)
    return {"eigenvalues": [float(v) for v in vals], "leakage": leak, "dim": algebra.dim}


def cmd_model(args):
    need = {"hpm": "m", "chsc": "n"}.get(args.kind)
    if need and getattr(args, need) is None:
        raise ValueError(f"model {args.kind} requires --{need}")
    rm = curv.model(args.kind, _space_for(args), c=args.c)
    obj = curv._curvature_doc(rm)
    _output(obj, args.out)
    flags = obj.get("flags", [])
    _note(f"model {args.kind}: dim {rm.space.dim}, flags {flags or 'none'}"
          + (f", written to {args.out}" if args.out else ""))
    return 0


def cmd_spectrum(args):
    rm = curv.load_curvature(args.input)
    doc = _spectrum_doc(rm, cached_algebra(rm.space, AlgebraKind(args.algebra)))
    # the spectrum is printed either way; a leak then exits 1 through main
    _emit(doc)
    curv._refuse_leak("operator", doc["leakage"], rm.operator)
    return 0


def cmd_algebra(args):
    space = _space_for(args)
    algebra = cached_algebra(space, AlgebraKind(args.algebra))
    obj = {
        "kind": args.algebra,
        "ambient_dim": space.dim,
        "dim": algebra.dim,
        "wedge_basis_order": "lexicographic pairs (i, j), i < j, 1-based",
        "basis": algebra.coeff_matrix.tolist(),
    }
    _output(obj, args.out)
    if args.out:
        _note(f"{algebra.dim} basis elements written to {args.out}")
    return 0


def cmd_decompose(args):
    rm = curv.load_curvature(args.input)
    if args.what == "kahler":
        dec = curv.kahler_decompose(rm)
        t1, t2 = dec.bochner_traces()
        _emit({
            "scal": dec.scal,
            "scalar_part": curv._curvature_doc(dec.scalar_part),
            "ricci_part": curv._curvature_doc(dec.ricci_part),
            "bochner": curv._curvature_doc(dec.bochner),
            "bochner_traces": [t1, t2],
        })
        _note(f"kahler split: scal {dec.scal:.6g}, bochner traces {t1:.2e} / {t2:.2e}")
    else:
        dec = curv.quaternion_decompose(rm)
        residual = dec.ricci_residual()
        _emit({
            "hp_coefficient": dec.hp_coefficient,
            "leakage": dec.leakage,
            "ricci_residual": residual,
            "r0": curv._curvature_doc(dec.r0),
        })
        _note(f"quaternion split: coefficient {dec.hp_coefficient:.6g}, "
              f"ricci residual {residual:.2e}")
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
    if args.target == "lemma26" and args.rank < 1:
        raise ValueError(f"weitz verify lemma26 --rank must be at least 1, got {args.rank}")
    if args.tol is not None:
        crit._require_finite(tol=args.tol)
    rm = curv.load_curvature(args.input)
    if args.action == "ric":
        T = load_tensor(args.tensor, space=rm.space)
        if args.c is not None:
            out = wb.lichnerowicz_zero_order(rm, T, args.c)
        else:
            out = wb.weitzenbock_ric(rm, T)
        _output(_tensor_doc(out), args.out)
        if args.out:
            _note(f"written to {args.out}")
        return 0
    t0 = time.perf_counter()
    algebra = cached_algebra(rm.space, AlgebraKind(args.algebra))
    if args.action == "term" or args.target == "lemma26":
        # the curvature term and Lemma 2.6 read only the Gram restriction,
        # which stands for the operator only when nothing leaks off the
        # algebra; prop24 refuses a leak inside the library
        curv._refuse_leak("operator", rm.leakage(algebra), rm.operator)
    if args.action == "term":
        T = load_tensor(args.tensor, space=rm.space)
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
    rng = np.random.default_rng(args.seed)
    if args.target == "prop24":
        rep = _report("prop24", args.seed, args.tol)
        _prop24_cases(rep, "", rm, algebra, args.samples, rng)
        return _finish(rep, t0)
    # target == "lemma26"
    rep = _report("lemma26", args.seed, _WEITZ_LEMMA26_TOL if args.tol is None else args.tol)
    tensors = [ComplexTensor.random(rm.space, args.rank, rng) for _ in range(args.samples)]
    r = _lemma26_cases(rep, "", rm.restricted_gram(algebra), algebra, args.C, args.ell,
                       args.kappa, tensors)
    holds = "holds" if r["premise_holds"] else "fails"
    _note(f"[lemma26] premise {r['premise_value']:.6g} ({holds}), {r['admitted']} admitted, "
          f"{r['rejected']} rejected")
    return _finish(rep, t0)


def cmd_forms(args):
    least = 1 if args.what == "check-prop28" else 0
    if args.samples < least:
        raise ValueError(f"forms {args.what} --samples must be at least {least}, got {args.samples}")
    crit.check_stratum(args.p, args.q, args.k)
    t0 = time.perf_counter()
    space = EuclideanSpace.complex_space(args.n)
    rng = np.random.default_rng(args.seed)
    p, q, k = args.p, args.q, args.k
    rep = _report(args.what.removeprefix("check-"), args.seed)
    if args.what == "check-prop28":
        _prop28_cases(rep, "", space, p, q, k, args.samples, rng)
        return _finish(rep, t0)
    # what == "check-prop27": products mix wedge strata, so they are upper-bound cases
    forms = [(f"product{i1:02d}x{i2:02d}", fms.construct_Vpqk(psi1, psi2, k), False)
             for i1, psi1 in enumerate(fms.build_pq_basis(space, p - k, 0))
             for i2, psi2 in enumerate(fms.build_pq_basis(space, 0, q - k))]
    forms += [(f"stratum-random{s:02d}", fms.random_stratum_form(space, p, q, k, rng), True)
              for s in range(args.samples)]
    _prop27_cases(rep, "", forms)
    return _finish(rep, t0)


def _spectrum_from_args(args, algebra_kind):
    if args.spectrum:
        data = _read_json(args.spectrum)
        # a bare list is user-asserted; a `spectrum` object carries its leakage
        leak = 0.0
        if isinstance(data, dict):
            if "eigenvalues" not in data:
                raise ValueError(f"spectrum file {args.spectrum} has no \"eigenvalues\"")
            (leak,) = _finite_floats([data.get("leakage", 0.0)],
                                     f"spectrum file {args.spectrum} has a non-numeric \"leakage\"")
            data = data["eigenvalues"]
        spectrum = _finite_floats(
            data, f"spectrum file {args.spectrum} must hold a list of finite numbers").tolist()
        curv._refuse_leak(f"spectrum file {args.spectrum}", float(leak), spectrum)
        return spectrum
    if args.model:
        if args.model == "hpm" or algebra_kind == AlgebraKind.SP_SP1:
            _require(args, "m")
            space = EuclideanSpace.quaternionic_space(args.m)
        else:
            space = EuclideanSpace.complex_space(args.n)
        rm = curv.model(args.model, space, c=args.c)
        doc = _spectrum_doc(rm, cached_algebra(space, algebra_kind))
        curv._refuse_leak(f"model {args.model}", doc["leakage"], rm.operator)
        return doc["eigenvalues"]
    raise ValueError("provide --spectrum FILE or --model KIND")


def _require(args, *names):
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"check {args.what} requires {' and '.join(missing)}")


# The one registry of check commands, name -> (required options, algebra of
# the spectrum, call on the spectrum and the parsed arguments).
_CHECKS = {
    "pq": (("n", "p", "q"), AlgebraKind.U, lambda s, a: crit.check_pq(
        s, a.n, a.p, a.q, kappa=a.kappa, rho=a.rho, Q=a.Q, k=a.stratum)),
    "bochner": (("n",), AlgebraKind.U,
                lambda s, a: crit.check_bochner(s, a.n, k=a.k, rho=a.rho, Q=a.Q)),
    "einstein": (("n",), AlgebraKind.U,
                 lambda s, a: crit.check_einstein_flat(s, a.n, k=a.k, rho=a.rho, Q=a.Q)),
    "quaternion": (("m",), AlgebraKind.SP_SP1, lambda s, a: crit.check_quaternion(
        s, a.m, k=a.k, rho=a.rho, Q=a.Q, scalar_flat=a.scalar_flat)),
    "lq": (("n",), AlgebraKind.U, lambda s, a: crit.check_lq_nonneg(s, a.n)),
}


def cmd_check(args):
    needs, algebra_kind, check = _CHECKS[args.what]
    _require(args, *needs)
    verdict = check(_spectrum_from_args(args, algebra_kind), args)
    _emit(verdict.to_json())
    _note(f"{verdict.theorem_id}: {verdict.conclusion} "
          f"(condition {verdict.condition_value:.6g} vs threshold {verdict.threshold:.6g})")
    return 0 if verdict.passed() else 2


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI parser, built once per process: parse_args keeps no state
    between calls, so `main` reuses it."""
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
    p.add_argument("what", choices=list(_CHECKS))
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
    p.add_argument("--tol", type=float,
                   help="replaces each suite's first tolerance (see the README's suite table)")
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
