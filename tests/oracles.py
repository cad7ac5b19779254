"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written the slow, literal way (index
loops, permutation sums, explicit double sums) so it shares no code
path with the library routines it checks.
"""

import itertools
import math

import numpy as np


def act_matrix_naive(M, arr):
    """Derivation action by explicit loops over slots and indices."""
    k = arr.ndim
    d = arr.shape[0] if k else 0
    out = np.zeros_like(arr)
    for idx in itertools.product(range(d), repeat=k):
        total = 0.0 + 0.0j
        for s in range(k):
            for p in range(d):
                jdx = list(idx)
                jdx[s] = p
                total -= M[p, idx[s]] * arr[tuple(jdx)]
        out[idx] = total
    return out


def bracket_naive(M1, M2):
    return M1 @ M2 - M2 @ M1


def skew_commutant_naive(structures):
    """Orthonormal wedge-coefficient rows of {A skew : A X = X A for each X}:
    the null right singular vectors of the literal commutator conditions,
    one column per wedge monomial e_i ^ e_j (avatar E[j, i] = 1, E[i, j] = -1)."""
    d = structures[0].shape[0]
    columns = []
    for i, j in itertools.combinations(range(d), 2):
        E = np.zeros((d, d))
        E[j, i], E[i, j] = 1.0, -1.0
        columns.append(np.concatenate([(E @ X - X @ E).ravel() for X in structures]))
    _, s, vh = np.linalg.svd(np.array(columns).T, full_matrices=True)
    return vh[int(np.sum(s > 1e-9 * s[0])):]


def gram_projection_naive(vectors, x):
    """Projection onto span(vectors) via the normal equations."""
    V = np.array(vectors).T
    G = V.T @ V
    return V @ np.linalg.solve(G, V.T @ x)


def ricci_naive(Rm):
    d = Rm.shape[0]
    out = np.zeros((d, d))
    for y in range(d):
        for w in range(d):
            out[y, w] = sum(Rm[i, y, i, w] for i in range(d))
    return out


def structure_model_naive(forms):
    """1/2 g ow g + sum over the 2-forms om of 1/2 om ow om + 2 om (x) om, entry by entry:
    (h ow k)_xyzw = h_xz k_yw + h_yw k_xz - h_xw k_yz - h_yz k_xw."""
    d = len(forms[0])
    g = np.eye(d)

    def kn(h, k, x, y, z, w):
        return h[x, z] * k[y, w] + h[y, w] * k[x, z] - h[x, w] * k[y, z] - h[y, z] * k[x, w]

    out = np.zeros((d,) * 4)
    for x, y, z, w in itertools.product(range(d), repeat=4):
        out[x, y, z, w] = 0.5 * kn(g, g, x, y, z, w) + sum(
            0.5 * kn(om, om, x, y, z, w) + 2.0 * om[x, y] * om[z, w] for om in forms)
    return out


def weitzenbock_naive(Rm, arr):
    """Literal double sum: slot substitution against the bivector images.

    Ric(T)(X_1, .., X_k) = sum_i sum_j (R(X_i, e_j) T)(X_1, .., e_j, .., X_k)
    with R(X, e_j) acting as the bivector whose 2-form is Rm(X, e_j, ., .).
    """
    d = Rm.shape[0]
    k = arr.ndim
    out = np.zeros_like(arr)
    for i_slot in range(k):
        for a in range(d):
            for j in range(d):
                lam = Rm[a, j]           # 2-form of the image bivector
                M = lam.T                # matrix avatar
                BT = act_matrix_naive(M, arr)
                src = [slice(None)] * k
                src[i_slot] = j
                dst = [slice(None)] * k
                dst[i_slot] = a
                out[tuple(dst)] += BT[tuple(src)]
    return out


def wedge_naive(A, B):
    """Wedge by summing over shuffling permutations of the slots."""
    a, b = A.ndim, B.ndim
    k = a + b
    d = A.shape[0] if a else (B.shape[0] if b else 1)
    if k == 0:
        return A * B
    out = np.zeros((d,) * k, dtype=complex)
    for idx in itertools.product(range(d), repeat=k):
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(k)):
            sgn = perm_sign(perm)
            pidx = tuple(idx[perm[t]] for t in range(k))
            left = pidx[:a]
            right = pidx[a:]
            total += sgn * (A[left] if a else A) * (B[right] if b else B)
        out[idx] = total / (math.factorial(a) * math.factorial(b))
    return out


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def curvature_term_naive(gram, slices):
    """sum_ab G_ab <Xi_a T, Xi_b T> with explicit loops."""
    N = len(slices)
    total = 0.0 + 0.0j
    for a in range(N):
        for b in range(N):
            total += gram[a, b] * np.sum(slices[a] * np.conj(slices[b]))
    return total


def quaternion_sharp_constant_naive(algebra):
    """|Rm^sp|^2 / |R0|^2 as a Casimir eigenvalue of sp(m), m = dim / 4.

    R0 spans the irreducible S^4 E of sp(m) (E = C^{2m}) and is
    annihilated by sp(1), so by Schur's lemma the ratio is the sp(m)
    Casimir -sum_a Xi_a^2 on S^4 E.  Its scale is fixed on V = R^{4m},
    whose complexification is two copies of E: there the Casimir is a
    scalar c_V, summed here with explicit loops over the algebra's sp(m)
    basis matrices (the elements commuting with I, J and K).  Casimir
    eigenvalues scale as <lam, lam + 2 rho> with rho = (m, m-1, .., 1),
    so the ratio is c_V <4 e1, 4 e1 + 2 rho> / <e1, e1 + 2 rho>.
    """
    space = algebra.space
    d = space.dim
    m = d // 4
    spm = [M for M in algebra.matrices
           if all(np.allclose(M @ A, A @ M, atol=1e-12) for A in space.quaternionic_structure)]
    assert len(spm) == m * (2 * m + 1), len(spm)
    cas = np.zeros((d, d))
    for M in spm:
        for i in range(d):
            for k in range(d):
                for j in range(d):
                    cas[i, k] -= M[i, j] * M[j, k]
    c_V = cas[0, 0]
    assert np.allclose(cas, c_V * np.eye(d), atol=1e-10), "Casimir is not scalar on V"
    rho = [m - i for i in range(m)]

    def casimir_weight(lam):
        return sum(l * (l + 2 * r) for l, r in zip(lam, rho))

    zeros = [0] * (m - 1)
    return c_V * casimir_weight([4] + zeros) / casimir_weight([1] + zeros)


def action_supremum_naive(algebra, arr):
    """sup |L T|^2 over unit L in the algebra, by the literal Gram matrix.

    Builds each slice M_a T with the loop action above from the basis
    matrix M_a, fills Re <M_a T, M_b T> entry by entry and takes its top
    eigenvalue: for L = sum_a c_a M_a with |c| = 1, |L T|^2 = c^T Re(P) c.
    """
    slices = [act_matrix_naive(M, arr) for M in algebra.matrices]
    N = len(slices)
    P = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            P[a, b] = np.sum(slices[a] * np.conj(slices[b])).real
    return float(np.linalg.eigvalsh(P)[-1])


def supported_constraints_naive(two_forms, ricci_flat):
    """Constraint matrix on symmetric forms S on span{lam_a}, one pair at a time.

    For each pair a <= b in upper-triangle order it builds the rank-4
    tensor t = lam_a (x) lam_b + lam_b (x) lam_a (lam_a (x) lam_a when
    a = b), its Bianchi residual by transposes, and the row of that
    residual at the quadruples i < j < k < l, followed, if `ricci_flat`,
    by the Ricci trace at y <= w.  Returns the rows transposed and the
    tensors t.
    """
    lams = [np.asarray(lam) for lam in two_forms]
    d = lams[0].shape[0]
    N = len(lams)
    sym_tensors = []
    for a in range(N):
        for b in range(a, N):
            t = np.einsum("xy,zw->xyzw", lams[a], lams[b])
            if a != b:
                t = t + np.einsum("xy,zw->xyzw", lams[b], lams[a])
            sym_tensors.append(t)
    quads = list(itertools.combinations(range(d), 4))
    rows = []
    for t in sym_tensors:
        br = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
        row = [br[i, j, k, l] for (i, j, k, l) in quads]
        if ricci_flat:
            rc = np.einsum("iyiw->yw", t)
            row.extend(rc[i, j] for i in range(d) for j in range(i, d))
        rows.append(np.array(row))
    return np.array(rows).T, sym_tensors


def supported_curvature_basis_naive(two_forms, ricci_flat, expected_dim):
    """Dense basis tensors of {sum_ab S_ab lam_a (x) lam_b : S symmetric,
    Bianchi, (Ricci-flat)}: each of the last `expected_dim` right singular
    vectors of the constraint matrix, expanded over the tensors t."""
    A, sym_tensors = supported_constraints_naive(two_forms, ricci_flat)
    vh = np.linalg.svd(A, full_matrices=True)[2]
    basis = []
    for coeffs in vh[len(vh) - expected_dim:]:
        arr = np.zeros(sym_tensors[0].shape)
        for c, t in zip(coeffs, sym_tensors):
            arr += c * t
        basis.append(arr)
    return basis


def from_operator_naive(matrix, d):
    """Rank-4 array of a symmetric operator on Lambda^2, entry by entry."""
    pairs = list(itertools.combinations(range(d), 2))
    arr = np.zeros((d, d, d, d))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            v = matrix[a][b]
            arr[i, j, k, l] = v
            arr[j, i, k, l] = -v
            arr[i, j, l, k] = -v
            arr[j, i, l, k] = v
    return arr


# ---------------------------------------------------------------------------
# the dense form representation: full d^k tensors over all index orders


def alternate_naive(arr):
    """Full antisymmetrization (1/k!) sum_sigma sign(sigma) T^sigma."""
    k = arr.ndim
    if k <= 1:
        return arr.copy()
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(k)):
        out += perm_sign(perm) * np.transpose(arr, perm)
    return out / math.factorial(k)


def wedge_dense(A, B):
    """Wedge of antisymmetric arrays through the alternation, determinant
    convention: (a+b)! / (a! b!) Alt(A (x) B)."""
    a, b = A.ndim, B.ndim
    out = alternate_naive(np.multiply.outer(A, B))
    return out * (math.factorial(a + b) / (math.factorial(a) * math.factorial(b)))


def pullback_naive(arr, A):
    """Componentwise pullback T(A X_1, ..., A X_k) by a linear map A."""
    for s in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(arr, A, axes=([s], [0])), -1, s)
    return arr


def pq_project_naive(arr, J, p, q):
    """Type (p, q) part by the circle action of J: a type (p, q) form picks
    up e^{i (p - q) theta} under pullback by cos(theta) + sin(theta) J, and
    the average over 2(p+q) + 1 nodes with the conjugate character is exact."""
    N = 2 * (p + q) + 1
    out = np.zeros_like(arr)
    for t in range(N):
        theta = 2.0 * math.pi * t / N
        rot = math.cos(theta) * np.eye(J.shape[0]) + math.sin(theta) * J
        out += np.exp(-1j * (p - q) * theta) * pullback_naive(arr, rot)
    return out / N


def nullspace(A, expected_dim):
    """Orthonormal rows spanning {x : A x = 0}, checked against a known dimension.

    The rank counts the singular values above 1e-9 times the largest.  A
    nullspace of another dimension than `expected_dim` raises, naming the
    singular values on either side of the expected rank (the gap).
    """
    # a wide A needs the full vh for its null rows; a tall one gets them all
    # from the thin SVD
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


def omega_wedge_naive(n, degree):
    """Omega ^ on coframe coefficients, degree -> degree + 2: each increasing
    multi-index J goes to (i/2) sum_c dz^c ^ dzbar^c ^ theta^J, with
    theta = (dz^1..dz^n, dzbar^1..dzbar^n), each product sorted by hand."""
    m = 2 * n
    target = {K: x for x, K in enumerate(itertools.combinations(range(m), degree + 2))}
    sources = list(itertools.combinations(range(m), degree))
    L = np.zeros((len(target), len(sources)), dtype=complex)
    for y, J in enumerate(sources):
        for c in range(n):
            if c not in J and n + c not in J:
                seq = (c, n + c) + J
                L[target[tuple(sorted(seq))], y] += 0.5j * perm_sign(np.argsort(seq))
    return L


def stratum_rows_svd(n, p, q, k):
    """Coefficient rows of Omega^k ^ an orthonormal basis of the primitive
    (p-k, q-k)-forms, the SVD way: the nullspace of the adjoint of Omega ^ on
    that type, scaled to unit full-tensor norm k! 2^k |c|^2 and lifted by k
    literal Omega ^ matrices."""
    a, b = p - k, q - k
    indices = list(itertools.combinations(range(2 * n), a + b))
    cols = [x for x, I in enumerate(indices) if sum(i < n for i in I) == a]
    if a and b:
        lowered = math.comb(n, a - 1) * math.comb(n, b - 1)
        null = nullspace(omega_wedge_naive(n, a + b - 2)[cols].conj().T,
                         max(0, len(cols) - lowered))
    else:
        null = np.eye(len(cols))
    rows = np.zeros((len(null), len(indices)), dtype=complex)
    rows[:, cols] = null / math.sqrt(math.factorial(a + b) * 2 ** (a + b))
    for j in range(k):
        rows = rows @ omega_wedge_naive(n, a + b + 2 * j).T
    return rows


def component_pairs_naive(comps):
    """The [re, im] pairs of a tensor file read one complex(re, im) at a time."""
    return np.array([complex(re, im) for re, im in comps])


def basis_combination_naive(basis, rng):
    """Coefficients of a random complex combination of a list of forms,
    drawn real parts first, then imaginary parts, and combined by one
    product with the stacked basis coefficients."""
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return coeffs @ np.array([f.coeffs for f in basis])
