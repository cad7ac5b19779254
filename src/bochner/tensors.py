"""Dense complex tensors over an orthonormal Euclidean vector space.

Everything downstream (holonomy algebras, curvature operators, form
spaces) is built on three small carriers:

* :class:`EuclideanSpace` fixes the dimension and the optional complex or
  quaternionic structure matrices.  The metric is the identity in the
  stored basis, so raising and lowering indices is free.
* :class:`ComplexTensor` is a dense complex (0, k)-tensor.
* :class:`Bivector` is an element of so(V) = Lambda^2 V stored as real
  coefficients on the orthonormal wedge basis {e_i ^ e_j : i < j}.

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
    "Bivector",
    "bivector_action",
    "lie_bracket",
    "act_on_tensor",
    "hermitian_inner",
    "wedge_pairs",
    "nullspace",
    "tensor_to_json",
    "tensor_from_json",
]


@lru_cache(maxsize=None)
def wedge_pairs(dim):
    """Ordered basis (i, j), i < j, of Lambda^2 for a given dimension."""
    return tuple(itertools.combinations(range(dim), 2))


@lru_cache(maxsize=None)
def _pair_index(dim):
    return {p: a for a, p in enumerate(wedge_pairs(dim))}


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
    J = np.zeros((d, d))
    for i in range(d // 2):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    return J


def _block_quaternionic_structure(m):
    """(I, J, K) acting on blocks of four; I J = -J I = K."""
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
        mats.append(M)
    return tuple(mats)


class EuclideanSpace:
    """Euclidean R^d with optional complex / quaternionic structure.

    Instances are immutable; the factory classmethods cache and reuse
    them so spaces can serve as dictionary keys for derived data.
    """

    def __init__(self, real_dim, complex_structure=None, quaternionic_structure=None):
        if real_dim <= 0 or real_dim % 2 != 0:
            raise ValueError(f"real dimension must be positive and even, got {real_dim}")
        self.dim = int(real_dim)
        self.complex_structure = None if complex_structure is None else np.array(complex_structure, dtype=float)
        if quaternionic_structure is None:
            self.quaternionic_structure = None
        else:
            self.quaternionic_structure = tuple(np.array(A, dtype=float) for A in quaternionic_structure)
        self._validate()
        for A in self._all_structures():
            A.setflags(write=False)

    def _all_structures(self):
        out = []
        if self.complex_structure is not None:
            out.append(self.complex_structure)
        if self.quaternionic_structure is not None:
            out.extend(self.quaternionic_structure)
        return out

    def _validate(self):
        d, atol = self.dim, 1e-10
        eye = np.eye(d)
        for A in self._all_structures():
            if A.shape != (d, d):
                raise ValueError(f"structure matrix has shape {A.shape}, expected {(d, d)}")
            if not np.allclose(A @ A, -eye, atol=atol):
                raise ValueError("structure matrix does not square to -Id")
            if not np.allclose(A.T @ A, eye, atol=atol):
                raise ValueError("structure matrix is not orthogonal")
        if self.quaternionic_structure is not None:
            if d % 4 != 0:
                raise ValueError(f"quaternionic structure needs dim divisible by 4, got {d}")
            I, J, K = self.quaternionic_structure
            if not (np.allclose(I @ J, K, atol=atol) and np.allclose(J @ I, -K, atol=atol)):
                raise ValueError("quaternionic triple does not satisfy IJ = -JI = K")

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
        return cls(2 * n, complex_structure=_block_complex_structure(2 * n))

    @classmethod
    @lru_cache(maxsize=None)
    def quaternionic_space(cls, m):
        """H^m = R^{4m} with the block quaternionic triple; J-structure is I."""
        I, J, K = _block_quaternionic_structure(m)
        return cls(4 * m, complex_structure=I, quaternionic_structure=(I, J, K))

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
    def random(cls, space, rank, rng, real=False):
        shape = (space.dim,) * rank
        arr = rng.standard_normal(shape)
        if not real:
            arr = arr + 1j * rng.standard_normal(shape)
        return cls(space, arr)

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


class Bivector:
    """Element of Lambda^2 V on the orthonormal basis {e_i ^ e_j : i < j}.

    The matrix avatar M sends e_i to e_j and e_j to -e_i for the wedge
    monomial e_i ^ e_j, so M[j, i] = +1 and M[i, j] = -1.
    """

    def __init__(self, space, coeffs):
        self.space = space
        c = np.array(coeffs, dtype=float)
        expected = space.dim * (space.dim - 1) // 2
        if c.shape != (expected,):
            raise ValueError(f"coefficient vector has length {c.shape}, expected ({expected},)")
        c.setflags(write=False)
        self.coeffs = c

    @classmethod
    def zero(cls, space):
        return cls(space, np.zeros(space.dim * (space.dim - 1) // 2))

    @classmethod
    def wedge(cls, space, i, j):
        """The wedge monomial e_i ^ e_j (0-based, any order of i, j)."""
        if i == j:
            raise ValueError("wedge of a vector with itself is zero")
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        c = np.zeros(space.dim * (space.dim - 1) // 2)
        c[_pair_index(space.dim)[(i, j)]] = sign
        return cls(space, c)

    @classmethod
    def from_matrix(cls, space, M):
        M = np.asarray(M, dtype=float)
        if not np.allclose(M, -M.T, atol=1e-9 * max(1.0, np.abs(M).max())):
            raise ValueError("matrix avatar must be skew-symmetric")
        return cls(space, _wedge_coefficients(M))

    @classmethod
    def from_two_form(cls, space, lam):
        """Build from the antisymmetric rank-2 component array lam_{ij}."""
        return cls(space, _wedge_coefficients(np.asarray(lam, dtype=float).T))

    @classmethod
    def random(cls, space, rng, unit=False):
        c = rng.standard_normal(space.dim * (space.dim - 1) // 2)
        if unit:
            c = c / np.linalg.norm(c)
        return cls(space, c)

    def matrix(self):
        # coefficients are frozen, so the avatar is computed once
        cached = getattr(self, "_matrix", None)
        if cached is None:
            M = _avatars(self.space.dim, self.coeffs)
            M.setflags(write=False)
            self._matrix = cached = M
        return cached

    def two_form(self):
        """The rank-2 antisymmetric component array; equals matrix().T."""
        return self.matrix().T

    def as_tensor(self):
        return ComplexTensor(self.space, self.two_form().astype(complex))

    def norm2(self):
        return float(self.coeffs @ self.coeffs)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other):
        _check_same_space(self, other)
        return float(self.coeffs @ other.coeffs)

    def __add__(self, other):
        _check_same_space(self, other)
        return Bivector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_space(self, other)
        return Bivector(self.space, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Bivector(self.space, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Bivector(self.space, -self.coeffs)

    def __repr__(self):
        return f"Bivector(dim={self.space.dim}, |L|={self.norm():.4g})"


def bivector_action(L, v):
    """Apply the infinitesimal rotation of L to a vector.

    (X ^ Y) Z = g(X, Z) Y - g(Y, Z) X extended linearly; in matrix terms
    this is M(L) @ v.
    """
    v = np.asarray(v)
    if v.shape != (L.space.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({L.space.dim},)")
    return L.matrix() @ v


def lie_bracket(L1, L2):
    """Commutator [L1, L2] of the matrix avatars, returned as a bivector."""
    _check_same_space(L1, L2)
    M1, M2 = L1.matrix(), L2.matrix()
    return Bivector.from_matrix(L1.space, M1 @ M2 - M2 @ M1)


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


def act_on_tensor(L, T):
    """Derivation action L T(X_1, ..., X_r) = -sum_i T(X_1, ..., L X_i, ..., X_r)."""
    _check_same_space(L, T)
    return ComplexTensor(T.space, _act_matrix(L.matrix()[None], T.components)[0])


def hermitian_inner(T, S):
    """Sum of T times conj(S) over all multi-indices; positive definite."""
    _check_same_space(T, S)
    if T.rank != S.rank:
        raise ValueError(f"rank mismatch: {T.rank} vs {S.rank}")
    return complex(np.sum(T.components * np.conj(S.components)))


def nullspace(A, expected_dim):
    """Orthonormal rows spanning {x : A x = 0}, checked against a known dimension.

    The rank counts the singular values above 1e-9 times the largest.  A
    nullspace of another dimension than `expected_dim` raises, naming the
    singular values on either side of the expected rank (the gap).
    """
    # a wide A needs the full vh for its null rows; a tall one gets them all
    # from the thin SVD, whose vh matched the full one bit for bit on every
    # matrix the tests build
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > 1e-9 * (s[0] if s.size else 1.0)))
    null = vh[rank:].conj()
    if len(null) != expected_dim:
        rel = np.concatenate([s, np.zeros(vh.shape[0] - s.size)]) / (s[0] if s.size else 1.0)
        r = max(vh.shape[0] - expected_dim, 0)
        around = ", ".join(f"{v:.3e}" for v in rel[max(r - 1, 0):r + 1])
        raise ValueError(f"nullspace has dimension {len(null)}, expected {expected_dim}; "
                         f"relative singular values at rank {r}: {around} (cutoff 1e-9)")
    return null


def tensor_to_json(T):
    """Serialize to the interchange dict.

    Components are flattened row-major over (i_1, ..., i_k) with each
    entry a [re, im] pair; indices run 1..dim in the documented order
    (the first index varies slowest).
    """
    space = T.space
    flat = T.components.reshape(-1)
    return {
        "dim": space.dim,
        "rank": T.rank,
        "j_convention": "none" if space.complex_structure is None else "block",
        "components": np.stack([flat.real, flat.imag], -1).tolist(),
    }


def _int_field(obj, key):
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"tensor file needs an integer {key!r}, got {value!r}")
    return value


def _component_pairs(comps):
    """The [re, im] pairs of a tensor file as a complex vector, bit for bit
    `complex(re, im)` per pair.  Anything but a list of finite real number
    pairs raises: the dtype check keeps numpy from reading null as NaN or
    "1.5" as 1.5, and the type scan from reading true as 1.0."""
    try:
        entries = [*itertools.chain.from_iterable(comps)] if set(map(len, comps)) == {2} else None
        flat = None if entries is None or bool in set(map(type, entries)) else np.array(entries)
    except (TypeError, ValueError, OverflowError):
        flat = None
    if flat is None or flat.ndim != 1 or flat.dtype.kind not in "iuf" or not np.isfinite(flat).all():
        raise ValueError('tensor file "components" must be a list of finite [re, im] number pairs')
    return flat.astype(float, copy=False).view(complex)


def tensor_from_json(obj, space=None):
    """Rebuild a tensor from the interchange dict.

    When no space is supplied one is created from "dim" and
    "j_convention" ("block" yields the standard block complex structure).
    """
    d = _int_field(obj, "dim")
    k = _int_field(obj, "rank")
    if space is None:
        if obj.get("j_convention", "none") == "block":
            space = EuclideanSpace.complex_space(d // 2)
        else:
            space = EuclideanSpace.euclidean(d)
    elif space.dim != d:
        raise ValueError(f"file dimension {d} does not match target space {space.dim}")
    comps = _component_pairs(obj.get("components"))
    if comps.size != d**k:
        raise ValueError(f"expected {d**k} components, got {comps.size}")
    return ComplexTensor(space, comps.reshape((d,) * k))


_encode_str = json.encoder.encode_basestring_ascii


class _Unusual(Exception):
    """A value that `_dumps` leaves to `json.dumps`."""


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
        kinds = set(map(type, obj))
        if kinds == {float}:
            body = ("," + inner).join(map(float.__repr__, obj))
        elif (kinds == {list} and set(map(len, obj)) == {2}
              and set(map(type, itertools.chain.from_iterable(obj))) == {float}):
            it = map(float.__repr__, itertools.chain.from_iterable(obj))
            pair = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
            body = ("," + inner).join(map(pair.__mod__, zip(it, it)))
        else:
            return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + nl + "]"
        if "n" in body:
            raise _Unusual
        return "[" + inner + body + nl + "]"
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
    floats and lists of [re, im] float pairs are joined in C (float repr,
    str.join); str, int, bool, None, dicts and other lists take a short
    recursive path.  Anything else (NaN and infinities, non-str keys,
    tuples, numpy scalars, subclasses) hands the whole document to
    json.dumps.
    """
    try:
        return _encode(obj, "\n")
    except _Unusual:
        return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(obj, path):
    """Write one JSON document as the file formats expect: indent 2,
    sorted keys, a trailing newline."""
    with open(path, "w") as fh:
        fh.write(_dumps(obj) + "\n")


def save_tensor(T, path):
    _write_json(tensor_to_json(T), path)


def load_tensor(path, space=None):
    with open(path) as fh:
        return tensor_from_json(json.load(fh), space=space)
