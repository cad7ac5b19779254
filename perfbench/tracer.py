"""Span tracer that wraps the public functions of every bochner module.

The wrappers are installed from outside the library: each public
function of a module is replaced, in every bochner module that holds a
reference to it (so `sharp` imported into `curvature`, `forms` and
`weitzenbock`, or `cached_algebra` imported into `cli`, are traced as
well), by a wrapper that records a span (name, start, end, parent).
Self time is a span's duration minus the durations of its direct
children.  `uninstall` restores the original objects, so a process can
alternate traced and untraced ops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

MODULES = ("tensors", "holonomy", "curvature", "forms", "weitzenbock", "criteria", "cli")

# Per-layer metric groups: metric prefix -> span names ("<module>.<function>").
GROUPS = {
    "cli.main": ["cli.main"],
    "tensors.act_on_tensor": ["tensors.act_on_tensor"],
    "tensors.alternate": ["tensors.alternate"],
    # the tensor interchange format, including the thin curvature-file wrappers
    "tensors.json": ["tensors.tensor_to_json", "tensors.tensor_from_json",
                     "tensors.save_tensor", "tensors.load_tensor",
                     "curvature.curvature_to_json", "curvature.curvature_from_json",
                     "curvature.save_curvature", "curvature.load_curvature"],
    "holonomy.build_algebra": ["holonomy.build_algebra"],
    "holonomy.sharp": ["holonomy.sharp"],
    "curvature.random": ["curvature.random_curvature", "curvature.random_kahler_curvature",
                         "curvature.random_hyperkahler_curvature",
                         "curvature.random_quaternion_kahler_curvature"],
    "curvature.from_operator": ["curvature.from_operator"],
    "curvature.to_operator": ["curvature.to_operator"],
    "curvature.decompose": ["curvature.kahler_decompose", "curvature.quaternion_decompose"],
    "curvature.sharp_identity": ["curvature.kahler_sharp_identity",
                                 "curvature.quaternion_sharp_identity",
                                 "curvature.sharp_norm_identities"],
    "curvature.restricted_spectrum": ["curvature.restricted_spectrum"],
    "forms.wedge": ["forms.wedge"],
    "forms.omega_power": ["forms.omega_power"],
    "forms.stratum_basis": ["forms.stratum_basis"],
    "forms.construct_Vpqk": ["forms.construct_Vpqk"],
    "forms.coefficient_check": ["forms.sharp_norm_coefficient_check"],
    "forms.action_bound": ["forms.action_bound_check"],
    "weitzenbock.ric": ["weitzenbock.weitzenbock_ric"],
    "weitzenbock.curvature_term": ["weitzenbock.curvature_term"],
    "weitzenbock.eigenvalue_sum_bound": ["weitzenbock.verify_eigenvalue_sum_bound"],
    "criteria.check": ["criteria.check_pq", "criteria.check_bochner", "criteria.check_einstein_flat",
                       "criteria.check_quaternion", "criteria.check_lq_nonneg"],
}

# Per-op metrics taken from the traced ops: (metric, group, field).
OP_METRICS = [
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("tensors.act_on_tensor.calls", "tensors.act_on_tensor", "calls"),
    ("tensors.act_on_tensor.self_ms", "tensors.act_on_tensor", "self_ms"),
    ("tensors.alternate.calls", "tensors.alternate", "calls"),
    ("tensors.alternate.self_ms", "tensors.alternate", "self_ms"),
    ("tensors.alternate.mb_computed", "tensors.alternate", "mb"),
    ("tensors.json.self_ms", "tensors.json", "self_ms"),
    ("tensors.json.mb", "tensors.json", "mb"),
    ("holonomy.build_algebra.calls", "holonomy.build_algebra", "calls"),
    ("holonomy.build_algebra.self_ms", "holonomy.build_algebra", "self_ms"),
    ("holonomy.sharp.calls", "holonomy.sharp", "calls"),
    ("holonomy.sharp.self_ms", "holonomy.sharp", "self_ms"),
    ("curvature.random.self_ms", "curvature.random", "self_ms"),
    ("curvature.from_operator.self_ms", "curvature.from_operator", "self_ms"),
    ("curvature.to_operator.self_ms", "curvature.to_operator", "self_ms"),
    ("curvature.decompose.self_ms", "curvature.decompose", "self_ms"),
    ("curvature.sharp_identity.self_ms", "curvature.sharp_identity", "self_ms"),
    ("curvature.restricted_spectrum.self_ms", "curvature.restricted_spectrum", "self_ms"),
    ("forms.wedge.calls", "forms.wedge", "calls"),
    ("forms.wedge.self_ms", "forms.wedge", "self_ms"),
    ("forms.omega_power.self_ms", "forms.omega_power", "self_ms"),
    ("forms.stratum_basis.self_ms", "forms.stratum_basis", "self_ms"),
    ("forms.construct_Vpqk.self_ms", "forms.construct_Vpqk", "self_ms"),
    ("forms.coefficient_check.self_ms", "forms.coefficient_check", "self_ms"),
    ("forms.action_bound.self_ms", "forms.action_bound", "self_ms"),
    ("weitzenbock.ric.self_ms", "weitzenbock.ric", "self_ms"),
    ("weitzenbock.curvature_term.self_ms", "weitzenbock.curvature_term", "self_ms"),
    ("weitzenbock.eigenvalue_sum_bound.self_ms", "weitzenbock.eigenvalue_sum_bound", "self_ms"),
    ("criteria.check.calls", "criteria.check", "calls"),
    ("criteria.check.self_ms", "criteria.check", "self_ms"),
]

# Set-up metrics: inclusive time spent before the first timed op.
SETUP_METRICS = [
    ("holonomy.build_algebra.setup_ms", "holonomy.build_algebra"),
    ("curvature.random.setup_ms", "curvature.random"),
]


def _alternate_bytes(args, out):
    # k! transposes of a d^k complex128 array
    arr = args[0].components
    return math.factorial(arr.ndim) * arr.size * 16


def _json_bytes(args, out):
    comps = args[0].components if hasattr(args[0], "components") else out.components
    return comps.size * 16


def _form_entries(args, out):
    tensor = getattr(out, "tensor", out)
    return getattr(getattr(tensor, "components", None), "size", 0)


MEASURES = {
    "tensors.alternate": _alternate_bytes,
    "tensors.tensor_to_json": _json_bytes,
    "tensors.tensor_from_json": _json_bytes,
}
FORM_SPANS = ("forms.wedge", "forms.omega_power", "forms.construct_Vpqk", "forms.circ",
              "forms.pq_project")


class Tracer:
    """Records spans of the wrapped functions into an in-memory list."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, measure]
        self._stack = []
        self._originals = []  # (module, attribute, original object)

    def _wrap(self, name, fn):
        measure = MEASURES.get(name) or (_form_entries if name in FORM_SPANS else None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every public function of every bochner module, everywhere it is bound."""
        if self._originals:
            return
        modules = {short: importlib.import_module(f"bochner.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            names = ["main"] if short == "cli" else [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__]
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = self._wrap(f"{short}.{n}", fn)
        for mod in [importlib.import_module("bochner"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, obj in self._originals:
            setattr(mod, attr, obj)
        self._originals = []

    def take(self):
        """Aggregate and clear the recorded spans: name -> calls, ms, self_ms, measures."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        agg = {}
        for s, c in zip(spans, child):
            a = agg.setdefault(s[0], _entry())
            dur = s[2] - s[1]
            a["calls"] += 1
            a["ms"] += 1e3 * dur
            a["self_ms"] += 1e3 * (dur - c)
            a["measure_sum"] += s[4]
            a["measure_max"] = max(a["measure_max"], s[4])
        del spans[:]
        return agg


def _entry():
    return {"calls": 0, "ms": 0.0, "self_ms": 0.0, "measure_sum": 0, "measure_max": 0}


def merge(total, agg):
    """Add one aggregate (as returned by Tracer.take) into a running total."""
    for name, a in agg.items():
        t = total.setdefault(name, _entry())
        for key in ("calls", "ms", "self_ms", "measure_sum"):
            t[key] += a[key]
        t["measure_max"] = max(t["measure_max"], a["measure_max"])
    return total


def _group(agg, group):
    names = GROUPS[group]
    return {
        "calls": sum(agg[n]["calls"] for n in names if n in agg),
        "ms": sum(agg[n]["ms"] for n in names if n in agg),
        "self_ms": sum(agg[n]["self_ms"] for n in names if n in agg),
        "mb": sum(agg[n]["measure_sum"] for n in names if n in agg) / 1e6,
    }


def layer_metrics(op_agg, n_ops, setup_agg):
    """Per-layer metrics: per-op values from `op_agg` over `n_ops` traced ops,
    and set-up values from `setup_agg`."""
    out = {}
    for metric, group, fld in OP_METRICS:
        total = _group(op_agg, group)[fld]
        value = total // n_ops if fld == "calls" and total % n_ops == 0 else total / n_ops
        unit = {"calls": "count", "self_ms": "ms", "mb": "MB"}[fld]
        out[metric] = (value, unit)
    out["forms.max_form_entries"] = (
        max((op_agg[n]["measure_max"] for n in FORM_SPANS if n in op_agg), default=0), "count")
    for metric, group in SETUP_METRICS:
        out[metric] = (_group(setup_agg, group)["ms"], "ms")
    return out
