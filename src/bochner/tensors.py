"""Dense complex tensors over an orthonormal Euclidean vector space.

Everything downstream (holonomy algebras, curvature operators, form
spaces) is built on two small carriers and one array format:

* :class:`EuclideanSpace` fixes the dimension and, optionally, the block
  complex or quaternionic structure, which it builds itself.  The metric
  is the identity in the stored basis, so raising and lowering indices
  is free.
* :class:`ComplexTensor` is a dense complex (0, k)-tensor.
* An element of so(V) = Lambda^2 V is a row of real coefficients on the
  orthonormal wedge basis {e_i ^ e_j : i < j} (`wedge_pairs`), or its
  skew matrix avatar; `_avatars` and `_wedge_coefficients` convert
  stacks of either, and `_act_matrix` applies a stack of avatars to a
  tensor as derivations.

Conventions
-----------
The complex structure acts blockwise, J e_1 = e_2, J e_2 = -e_1, and so
on (1-based).  The quaternionic triple acts on blocks of four with
I J = -J I = K; the complex structure of a quaternionic space is I.
A dense tensor holds every index order, so the antisymmetric
e*_1 ^ e*_2 has two components +-1 and squared full-tensor norm 2; the
norm in which wedge monomials are unit vectors divides the squared
full-tensor norm by k!.  Forms themselves are stored on coframe
multi-indices (see :mod:`bochner.forms`) and meet dense tensors only at
the boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "EuclideanSpace",
    "ComplexTensor",
    "hermitian_inner",
    "wedge_pairs",
    "tensor_to_json",
    "tensor_from_json",
    "save_tensor",
    "load_tensor",
]


@lru_cache(maxsize=None)
def wedge_pairs(dim):
    """Ordered basis (i, j), i < j, of Lambda^2 for a given dimension."""
    return tuple(itertools.combinations(range(dim), 2))


def _avatars(dim, coeffs):
    """Matrix avatars of wedge-coefficient vectors, (..., P) -> (..., d, d):
    e_i ^ e_j sends e_i to e_j and e_j to -e_i.  np.triu_indices lists the
    pairs i < j in the order of `wedge_pairs`."""
    i, j = np.triu_indices(dim, 1)
    coeffs = np.asarray(coeffs, dtype=float)
    M = np.zeros(coeffs.shape[:-1] + (dim, dim))
    M[..., j, i] = coeffs
    M[..., i, j] = -coeffs
    return M


def _wedge_coefficients(M):
    """Wedge coefficients M[j, i], i < j, of (..., d, d) avatars; inverse of `_avatars`."""
    i, j = np.triu_indices(M.shape[-1], 1)
    return M[..., j, i]


def _block_complex_structure(d):
    """J e_{2i} = e_{2i+1}, J e_{2i+1} = -e_{2i} (0-based), read-only."""
    J = np.zeros((d, d))
    for i in range(d // 2):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    J.setflags(write=False)
    return J


def _block_quaternionic_structure(m):
    """(I, J, K) acting on blocks of four, read-only; I J = -J I = K."""
    d = 4 * m
    bi = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    bj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    bk = bi @ bj
    mats = []
    for blk in (bi, bj, bk):
        M = np.zeros((d, d))
        for a in range(m):
            s = slice(4 * a, 4 * a + 4)
            M[s, s] = blk
        M.setflags(write=False)
        mats.append(M)
    return tuple(mats)


@lru_cache(maxsize=None)
def _coframe(n):
    """B with row a = theta^a on the real basis: theta = (dz^1..dz^n,
    dzbar^1..dzbar^n), dz^a = e*_{2a-1} + i e*_{2a}; B B^* = 2."""
    dz = np.kron(np.eye(n), [1.0, 1.0j])
    return np.vstack([dz, dz.conj()])


class EuclideanSpace:
    """Euclidean R^d with optional complex / quaternionic structure.

    Instances are immutable; the factory classmethods cache and reuse
    them so spaces can serve as dictionary keys for derived data.
    """

    def __init__(self, real_dim, structure=None):
        """`structure` is None, "complex" (the block J) or "quaternionic" (the
        block I, J, K, with I as the complex structure)."""
        if real_dim <= 0 or real_dim % 2 != 0:
            raise ValueError(f"real dimension must be positive and even, got {real_dim}")
        self.dim = d = int(real_dim)
        self.complex_structure = self.quaternionic_structure = None
        if structure == "complex":
            self.complex_structure = _block_complex_structure(d)
        elif structure == "quaternionic":
            if d % 4 != 0:
                raise ValueError(f"quaternionic structure needs dim divisible by 4, got {d}")
            self.quaternionic_structure = _block_quaternionic_structure(d // 4)
            self.complex_structure = self.quaternionic_structure[0]
        elif structure is not None:
            raise ValueError(f"unknown structure {structure!r}")

    # memoized: one space object per size, so caches keyed on spaces are shared

    @classmethod
    @lru_cache(maxsize=None)
    def euclidean(cls, d):
        """Plain R^d without extra structure."""
        return cls(d)

    @classmethod
    @lru_cache(maxsize=None)
    def complex_space(cls, n):
        """C^n = R^{2n} with the block complex structure."""
        return cls(2 * n, "complex")

    @classmethod
    @lru_cache(maxsize=None)
    def quaternionic_space(cls, m):
        """H^m = R^{4m} with the block quaternionic triple; J-structure is I."""
        return cls(4 * m, "quaternionic")

    @property
    def n(self):
        """Complex dimension (requires a complex structure)."""
        if self.complex_structure is None:
            raise ValueError("space has no complex structure")
        return self.dim // 2

    @property
    def m(self):
        """Quaternionic dimension (requires a quaternionic structure)."""
        if self.quaternionic_structure is None:
            raise ValueError("space has no quaternionic structure")
        return self.dim // 4

    def j_matrix(self):
        if self.complex_structure is None:
            raise ValueError("space has no complex structure")
        return self.complex_structure

    def compatible(self, other):
        return self.dim == other.dim

    def __repr__(self):
        tags = []
        if self.complex_structure is not None:
            tags.append("J")
        if self.quaternionic_structure is not None:
            tags.append("IJK")
        extra = f", structure={'+'.join(tags)}" if tags else ""
        return f"EuclideanSpace(dim={self.dim}{extra})"


def _complex_gaussian(rng, shape):
    """Standard complex normal draws: every real part, then every imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _check_same_space(a, b):
    if not a.space.compatible(b.space):
        raise ValueError(f"dimension mismatch: {a.space.dim} vs {b.space.dim}")


class ComplexTensor:
    """Dense complex (0, k)-tensor with components indexed by (i_1, ..., i_k)."""

    def __init__(self, space, components):
        self.space = space
        arr = np.array(components, dtype=complex)
        if arr.shape != (space.dim,) * arr.ndim:
            raise ValueError(f"components shape {arr.shape} incompatible with dim {space.dim}")
        arr.setflags(write=False)
        self.components = arr

    @property
    def rank(self):
        return self.components.ndim

    @classmethod
    def zero(cls, space, rank):
        return cls(space, np.zeros((space.dim,) * rank, dtype=complex))

    @classmethod
    def basis_covector(cls, space, i):
        """Covector dual to e_i (0-based index)."""
        v = np.zeros(space.dim, dtype=complex)
        v[i] = 1.0
        return cls(space, v)

    @classmethod
    def random(cls, space, rank, rng):
        return cls(space, _complex_gaussian(rng, (space.dim,) * rank))

    def norm2(self):
        """Squared full-tensor norm, sum over every index order."""
        return float(np.sum(np.abs(self.components) ** 2))

    def form_norm2(self):
        """Squared norm in which wedge monomials are unit vectors."""
        return self.norm2() / math.factorial(self.rank)

    def conj(self):
        return ComplexTensor(self.space, np.conj(self.components))

    def copy(self):
        return ComplexTensor(self.space, self.components.copy())

    def __add__(self, other):
        _check_same_space(self, other)
        return ComplexTensor(self.space, self.components + other.components)

    def __sub__(self, other):
        _check_same_space(self, other)
        return ComplexTensor(self.space, self.components - other.components)

    def __mul__(self, scalar):
        return ComplexTensor(self.space, self.components * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexTensor(self.space, -self.components)

    def __repr__(self):
        return f"ComplexTensor(dim={self.space.dim}, rank={self.rank})"


_ACT_BLOCK_BYTES = 1 << 20


def _act_matrix(Ms, arr):
    """Derivation action of each real matrix of the (N, d, d) stack Ms on
    arr, stacked on a new axis 0.

    Complex entries are worked on as trailing (re, im) pairs of the
    float64 view.  For slot s, arr is viewed as (d^s, d, rest), and a
    block of basis elements is filled by one real product M^T @ arr into
    a scratch buffer of at most max(1 MiB, one slice), which is then
    subtracted from the block's rows; no second array the size of the
    stack is built."""
    arr = np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float, order="C")
    out = np.zeros((len(Ms),) + arr.shape, dtype=arr.dtype)
    if arr.ndim == 0:
        return out
    d = arr.shape[0]
    src, acc = arr.reshape(-1).view(np.float64), out.reshape(len(Ms), arr.size).view(np.float64)
    MsT = np.swapaxes(Ms, 1, 2)[:, None]
    block = max(1, _ACT_BLOCK_BYTES // arr.nbytes)
    scratch = np.empty(min(block, len(Ms)) * src.size)
    for lo in range(0, len(Ms), block):
        rows = acc[lo:lo + block]
        for s in range(arr.ndim):
            shape = (len(rows), d ** s, d, -1)
            tmp = scratch[:rows.size].reshape(shape)
            np.matmul(MsT[lo:lo + block], src.reshape(shape[1:]), out=tmp)
            view = rows.reshape(shape)
            view -= tmp
    return out


def hermitian_inner(T, S):
    """Sum of T times conj(S) over all multi-indices; positive definite."""
    _check_same_space(T, S)
    if T.rank != S.rank:
        raise ValueError(f"rank mismatch: {T.rank} vs {S.rank}")
    return complex(np.sum(T.components * np.conj(S.components)))


def _space_header(space):
    """The "dim" and "j_convention" of a file over space, as `_file_space` reads them."""
    return {"dim": space.dim, "j_convention": "none" if space.complex_structure is None else "block"}


def _tensor_doc(T):
    """The interchange dict with "components" as the (N, 2) float64 array of
    [re, im] rows, which the writer takes without a list round trip."""
    flat = T.components.reshape(-1)
    return {**_space_header(T.space), "rank": T.components.ndim,
            "components": np.stack([flat.real, flat.imag], -1)}


def tensor_to_json(T):
    """Serialize to the interchange dict.

    Components are flattened row-major over (i_1, ..., i_k) with each
    entry a [re, im] pair; indices run 1..dim in the documented order
    (the first index varies slowest).
    """
    obj = _tensor_doc(T)
    obj["components"] = obj["components"].tolist()
    return obj


def _int_field(obj, key):
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"tensor file needs an integer {key!r}, got {value!r}")
    return value


def _finite_floats(values, message):
    """A list of finite numbers as a float64 vector, or ValueError(message).
    The dtype check keeps numpy from reading null as NaN or "1.5" as 1.5,
    and the type scan from reading true as 1.0.  An integer past int64
    (JavaScript writes 1e20 as 100000000000000000000) leaves numpy an object
    array; it reads as the float it converts to, if that is finite."""
    try:
        flat = np.array(values) if type(values) is list and bool not in set(map(type, values)) else None
        if flat is not None and flat.dtype == object:
            flat = np.array([float(x) if type(x) is int else x for x in values])
    except (TypeError, ValueError, OverflowError):
        flat = None
    if flat is None or flat.ndim != 1 or flat.dtype.kind not in "iuf" or not np.isfinite(flat).all():
        raise ValueError(message)
    return flat.astype(float, copy=False)


def _component_pairs(comps):
    """The [re, im] pairs of a tensor file as a complex vector, bit for bit
    `complex(re, im)` per pair; anything but a list of finite real number
    pairs raises."""
    try:
        entries = [*itertools.chain.from_iterable(comps)] if set(map(len, comps)) == {2} else None
    except TypeError:
        entries = None
    return _finite_floats(entries, 'tensor file "components" must be a list of finite '
                                   '[re, im] number pairs').view(complex)


def _component_array(obj, d):
    """The "components" of a tensor file over R^d: its pairs viewed complex, as (d,) * rank."""
    k = _int_field(obj, "rank")
    comps = _component_pairs(obj.get("components"))
    if comps.size != d**k:
        raise ValueError(f"expected {d**k} components, got {comps.size}")
    return comps.reshape((d,) * k)


def _file_space(obj, flags=(), space=None):
    """The space of a tensor or curvature file: the given one, which must have
    its integer "dim", or H^(dim/4) under a quaternion flag, C^(dim/2) under
    j_convention "block" or a kahler flag, R^dim otherwise."""
    d = _int_field(obj, "dim")
    convention = obj.get("j_convention", "none")
    if convention not in ("none", "block"):
        raise ValueError('tensor file "j_convention" must be "none" or "block", '
                         f'got {convention!r}')
    if convention == "block" and d % 2:
        raise ValueError(f'j_convention "block" needs an even dim, got {d}')
    if space is not None:
        if space.dim != d:
            raise ValueError(f"file dimension {d} does not match target space {space.dim}")
        return space
    if "quaternion" in flags:
        if d % 4 != 0:
            raise ValueError("quaternion flag needs dim divisible by 4")
        return EuclideanSpace.quaternionic_space(d // 4)
    if convention == "block" or "kahler" in flags:
        if d % 2:
            raise ValueError(f"kahler flag needs an even dim, got {d}")
        return EuclideanSpace.complex_space(d // 2)
    return EuclideanSpace.euclidean(d)


def tensor_from_json(obj, space=None):
    """Rebuild a tensor from the interchange dict, on the given space or on
    the one its "dim" and "j_convention" name."""
    space = _file_space(obj, space=space)
    return ComplexTensor(space, _component_array(obj, space.dim))


_encode_str = json.encoder.encode_basestring_ascii


class _Unusual(Exception):
    """A value that `_dumps` leaves to `json.dumps`."""


def _float_rows(rows, inner):
    """The list body of an (N, 1) float array as bare floats, or of an
    (N, 2) one as [re, im] pairs, at the indent level whose newline string
    is inner.  Each distinct bit pattern is turned into text once, so 0.0
    and -0.0 stay apart, and the text is joined in one pass."""
    n, w = rows.shape
    bits, where = np.unique(rows.reshape(-1).view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()], dtype=object)
    if any("n" in text for text in texts):  # nan, inf, -inf
        raise _Unusual
    head, mid, tail = ("", "", "") if w == 1 else ("[" + inner + "  ", "," + inner + "  ", inner + "]")
    parts = np.empty((n, w, 2), dtype=object)
    parts[..., 0] = texts[where.reshape(n, w)]
    parts[:, :-1, 1] = mid
    parts[:, -1, 1] = tail + "," + inner + head
    return head + "".join(parts.reshape(-1)[:-1].tolist()) + tail


def _is_component_array(obj):
    """Whether obj is an (N, 2) float64 array of [re, im] rows, the one
    array the writer takes."""
    return (type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim == 2
            and obj.shape[1] == 2)


def _listed(obj):
    """The `default` of json.dumps: a component array as its list of
    [re, im] rows; any other object is refused, as json.dumps refuses it."""
    if _is_component_array(obj):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode(obj, nl):
    """JSON text of obj at the indent level whose newline string is nl."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is float:
        text = float.__repr__(obj)
        if "n" in text:  # nan, inf, -inf
            raise _Unusual
        return text
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = nl + "  "
    if t is list:
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            body = _float_rows(np.fromiter(obj, float, len(obj)).reshape(-1, 1), inner)
        else:
            body = ("," + inner).join([_encode(x, inner) for x in obj])
        return "[" + inner + body + nl + "]"
    if _is_component_array(obj):
        return "[" + inner + _float_rows(obj, inner) + nl + "]" if len(obj) else "[]"
    if t is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Unusual
        items = [_encode_str(key) + ": " + _encode(value, inner)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise _Unusual


def _dumps(obj):
    """Exactly json.dumps(obj, indent=2, sort_keys=True).

    With an indent the json module gives up its C encoder.  Here lists of
    floats and (N, 2) float64 component arrays, written as the lists of
    [re, im] pairs that `.tolist()` would give, take `_float_rows`, which
    computes one float repr per distinct bit pattern (curvature files
    repeat their entries heavily) and joins the text once; str, int, bool,
    None, dicts and other lists take a short recursive path.  Anything else
    (NaN and infinities, non-str keys, tuples, numpy scalars, subclasses,
    other arrays) hands the whole document to json.dumps, which lists the
    component arrays and refuses every other array.
    """
    try:
        return _encode(obj, "\n")
    except _Unusual:
        return json.dumps(obj, indent=2, sort_keys=True, default=_listed)


def _write_json(obj, path):
    """Write one JSON document as the file formats expect: indent 2,
    sorted keys, a trailing newline."""
    with open(path, "w") as fh:
        fh.write(_dumps(obj) + "\n")


def save_tensor(T, path):
    _write_json(_tensor_doc(T), path)


def _read_json(path):
    """json.load of one file."""
    with open(path) as fh:
        return json.load(fh)


def load_tensor(path, space=None):
    return tensor_from_json(_read_json(path), space=space)
