"""Spectral functions on unitary/orthogonal matrices and skew Lie-algebra data.

Everything here factors through a clustered eigendecomposition: eigenvalues
closer than CLUSTER_TOL are treated as one eigenspace so that spectral
projectors stay stable under degeneracy.  On top of it sit

* branch logarithms log_s with eigenvalues in the strip (s - i pi, s + i pi),
  cut at -e^s;
* the central logarithm, a log of g built from g's own spectral projections
  with eigenvalue logs in [-i pi, i pi); being a polynomial in g it commutes
  with every matrix commuting with g, in particular with every other log;
* exponentials of skew matrices and batched one-parameter paths exp(t xi);
* the loop pairing: two skew logs of the same group element produce the loop
  t -> exp(-t xi_1) exp(t xi_2), which is always a trigonometric polynomial;
* unitary structures J_xi of real skew matrices (the +i/-i splitting by the
  sign of the spectrum) and the decomposition of a special orthogonal g with
  1 not in its spectrum as g = exp(xi) with log_0(-g) = xi - pi J_xi.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg

from .laurent import SampledLoop, fourier_project, DEFAULT_GRID

CLUSTER_TOL = 1e-7
SKEW_TOL = 1e-10
UNITARY_TOL = 1e-8
CUT_TOL = 1e-8
NEG_ONE_SNAP = 1e-9


def check_skew(xi, real=False):
    """Validate xi* = -xi (and realness if asked); returns xi as complex array."""
    arr = np.asarray(xi, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("skew matrix must be square")
    scale = max(1.0, float(np.linalg.norm(arr)))
    if np.linalg.norm(arr + arr.conj().T) > SKEW_TOL * scale:
        raise ValueError("matrix is not skew-hermitian to tolerance")
    if real and np.max(np.abs(arr.imag)) > SKEW_TOL * scale:
        raise ValueError("matrix is not real to tolerance")
    return arr


def check_unitary(g):
    arr = np.asarray(g, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0])) > UNITARY_TOL:
        raise ValueError("matrix is not unitary to tolerance")
    return arr


@dataclass(frozen=True)
class EigenDecomp:
    """Orthonormal eigendecomposition with eigenvalues grouped into clusters.

    Spectral functions f(g) = sum_c f_c P_c are one `compose` of per-cluster values.
    """

    values: np.ndarray = dataclass_field(repr=False)
    vectors: np.ndarray = dataclass_field(repr=False)
    clusters: tuple = ()

    def projector(self, cluster):
        cols = self.vectors[:, list(cluster)]
        return cols @ cols.conj().T

    @property
    def cluster_values(self):
        """One eigenvalue per cluster: its mean, renormalised to |value| = 1 (unitary input)."""
        means = np.array([np.mean(self.values[list(cluster)]) for cluster in self.clusters])
        return means / np.abs(means)

    def compose(self, per_cluster):
        """V diag(f) V* with f constant on each cluster, i.e. sum_c f_c P_c."""
        diag = np.empty(len(self.values), dtype=complex)
        for value, cluster in zip(per_cluster, self.clusters):
            diag[list(cluster)] = value
        return (self.vectors * diag[None, :]) @ self.vectors.conj().T


def _cluster_indices(values):
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) < CLUSTER_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


def clustered_eig(g):
    """Eigendecomposition of a normal matrix via complex Schur form.

    The Schur vectors of a normal matrix are orthonormal eigenvectors up to
    round-off; eigenvalues closer than CLUSTER_TOL are grouped into one cluster.
    """
    arr = np.asarray(g, dtype=complex)
    t_mat, z_mat = scipy.linalg.schur(arr, output="complex")
    values = np.diag(t_mat).copy()
    scale = max(1.0, float(np.linalg.norm(arr)))
    recon = (z_mat * values[None, :]) @ z_mat.conj().T
    if np.linalg.norm(recon - arr) > 1e-10 * scale:
        raise ValueError("input is not normal enough for a spectral decomposition")
    return EigenDecomp(values=values, vectors=z_mat, clusters=_cluster_indices(values))


def spectral_radius(xi):
    """Largest |eigenvalue| of a skew-hermitian matrix."""
    arr = check_skew(xi)
    mu = np.linalg.eigvalsh(1j * arr)
    return float(np.max(np.abs(mu), initial=0.0))


def exp_skew(xi):
    """exp(xi) for skew-hermitian xi, via the hermitian eigenproblem of i xi.

    Exactly unitary up to round-off; cross-checked in the test suite against
    a scaling-and-squaring oracle.
    """
    arr = check_skew(xi)
    mu, u = np.linalg.eigh(1j * arr)
    return (u * np.exp(-1j * mu)[None, :]) @ u.conj().T


def one_parameter_path(xi, ts):
    """Batched exp(t xi) for an array of times; shape (len(ts), n, n)."""
    arr = check_skew(xi)
    mu, u = np.linalg.eigh(1j * arr)
    phases = np.exp(-1j * np.outer(np.asarray(ts, dtype=float), mu))
    return np.einsum("ij,tj,kj->tik", u, phases, u.conj())


def log_branch(g, s=0.0):
    """Branch logarithm with eigenvalues in (s - i pi, s + i pi), cut at -e^s.

    s is a purely imaginary scalar (a real input is taken as the imaginary
    part being zero, i.e. the principal branch).
    """
    arr = check_unitary(g)
    s = complex(s)
    if abs(s.real) > 1e-12:
        raise ValueError("branch point s must be purely imaginary")
    sigma = s.imag
    decomp = clustered_eig(arr)
    cut = -np.exp(1j * sigma)
    gaps = np.abs(decomp.values - cut)
    if np.min(gaps) <= CUT_TOL:
        bad = decomp.values[int(np.argmin(gaps))]
        raise ValueError(f"eigenvalue {bad} lies on the branch cut at {cut}")
    theta = np.angle(decomp.cluster_values)
    return decomp.compose(1j * (sigma + (np.mod(theta - sigma + np.pi, 2.0 * np.pi) - np.pi)))


def central_log(g):
    """The log of g built from g's spectral projections, eigenvalue logs in [-i pi, i pi).

    Being a function of g it commutes with everything commuting with g, in
    particular with every other logarithm of g.
    """
    arr = check_unitary(g)
    decomp = clustered_eig(arr)
    theta = np.angle(decomp.cluster_values)
    theta[theta >= np.pi] = -np.pi  # np.angle returns (-pi, pi]; fold +pi to -pi
    return decomp.compose(1j * theta)


def _canonical_order(columns):
    """Deterministic ordering/sign convention for a real orthonormal family.

    Sorts columns by the index of their first significant entry (then by the
    rounded entries themselves) and flips signs so that entry is positive.
    """
    cols = []
    for i in range(columns.shape[1]):
        c = columns[:, i].copy()
        sig = np.flatnonzero(np.abs(c) > 1e-8)
        lead = int(sig[0]) if sig.size else 0
        if c[lead] < 0:
            c = -c
        cols.append((lead, tuple(np.round(c, 6)), c))
    cols.sort(key=lambda item: (item[0], item[1]))
    return np.column_stack([c for _, _, c in cols])


def block_structure(columns):
    """Standard unitary structure on the span of ordered real orthonormal columns.

    Pairs consecutive columns (f1, f2), (f3, f4), ... and maps f_{2i-1} -> f_{2i},
    f_{2i} -> -f_{2i-1}; zero on the orthogonal complement.
    """
    cols = np.asarray(columns, dtype=float)
    n, m = cols.shape
    if m % 2 != 0:
        raise ValueError("need an even number of columns to pair")
    j = np.zeros((n, n))
    for i in range(0, m, 2):
        a, b = cols[:, i], cols[:, i + 1]
        j += np.outer(b, a) - np.outer(a, b)
    return j


def real_eigenspace(g, value):
    """Real orthonormal basis (canonically ordered) of ker(g - value) for real value."""
    arr = np.asarray(g, dtype=float)
    n = arr.shape[0]
    _, sing, vt = np.linalg.svd(arr - value * np.eye(n))
    keep = sing < 1e-7
    basis = vt[keep].T
    if basis.shape[1] == 0:
        return basis
    return _canonical_order(basis)


def exp_pair_loop(xi_1, xi_2, degree=None):
    """Fourier data of the loop t -> exp(-t xi_1) exp(t xi_2).

    The two skew matrices must exponentiate to the same group element (checked
    to 1e-9); the resulting loop is then a trigonometric polynomial whose
    degree is bounded by the sum of the spectral radii over 2 pi.  Returns
    (MatrixLoop, residual) of the projection at the given (or default) degree.
    """
    a = check_skew(xi_1)
    b = check_skew(xi_2)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if np.linalg.norm(exp_skew(a) - exp_skew(b)) > 1e-9:
        raise ValueError("exp(xi_1) != exp(xi_2); the pair does not define a loop")
    if degree is None:
        degree = int(np.ceil((spectral_radius(a) + spectral_radius(b)) / (2.0 * np.pi))) + 4
    ts = np.arange(DEFAULT_GRID) / DEFAULT_GRID
    vals = np.einsum("tij,tjk->tik", one_parameter_path(-a, ts), one_parameter_path(b, ts))
    return fourier_project(SampledLoop(values=vals), degree)


def torus_path_factor(g, angles):
    """Skew generator of a path inside the centre of the centraliser of g.

    Given one angle per eigenvalue cluster of g, returns xi = sum_c i angle_c P_c
    built from g's spectral projections.  The path exp(t xi) then commutes
    with g and with everything commuting with g for every t, and reaches the
    centre element sum_c e^{i angle_c} P_c at t = 1.
    """
    arr = check_unitary(g)
    decomp = clustered_eig(arr)
    angles = np.asarray(angles, dtype=float)
    if angles.size != len(decomp.clusters):
        raise ValueError("need exactly one angle per eigenvalue cluster")
    return decomp.compose(1j * angles)


def centralizer_element(g, rng):
    """A random unitary commuting with g: an independent unitary on each eigenspace."""
    from .rand import random_unitary

    arr = check_unitary(g)
    decomp = clustered_eig(arr)
    out = np.zeros(arr.shape, dtype=complex)
    for cluster in decomp.clusters:
        cols = decomp.vectors[:, list(cluster)]
        block = random_unitary(rng, len(cluster))
        out += cols @ block @ cols.conj().T
    return out


def unitary_structure(xi):
    """The unitary structure J of a real skew matrix with no zero eigenvalue.

    J acts as +i exactly on the span of eigenvectors of xi with eigenvalue is,
    s > 0, and as -i on the conjugate span; concretely J = i (2 P_W - I).
    """
    arr = check_skew(xi, real=True)
    n = arr.shape[0]
    if n % 2 != 0:
        raise ValueError("unitary structures need even dimension")
    mu, u = np.linalg.eigh(1j * arr)  # xi eigenvalue is -i mu, positive part is mu < 0
    if np.min(np.abs(mu)) <= 1e-8:
        raise ValueError("skew matrix has a (near-)zero eigenvalue; J is undefined")
    w_cols = u[:, mu < 0]
    if 2 * w_cols.shape[1] != n:
        raise ValueError("positive and negative spectra are unbalanced")
    proj = w_cols @ w_cols.conj().T
    j = 1j * (2.0 * proj - np.eye(n))
    if np.max(np.abs(j.imag)) > 1e-9:
        raise ValueError("constructed structure failed to be real (input not real skew?)")
    return j.real


def _orthogonal_log(arr):
    """(xi, J, decomp) for real orthogonal arr: xi = sum_c i theta_c P_c, J = sum_c i sign(theta_c) P_c.

    The -1 eigenspace gets the canonical block structure (times pi in xi).  xi
    is real; J is real only without eigenvalue 1, where sign(+-0) adds +-i P_1.
    """
    check_unitary(arr)
    decomp = clustered_eig(arr)
    lam = decomp.cluster_values
    neg_one = np.abs(lam + 1.0) <= NEG_ONE_SNAP
    theta = np.where(neg_one, 0.0, np.angle(lam))
    xi = decomp.compose(1j * theta)
    j = decomp.compose(1j * np.sign(theta))
    if neg_one.any():
        basis = real_eigenspace(arr, -1.0)
        if basis.shape[1] % 2 != 0:
            raise ValueError("odd-dimensional -1 eigenspace; input is not special orthogonal")
        j_f = block_structure(basis)
        xi += np.pi * j_f
        j += j_f
    if np.max(np.abs(xi.imag)) > 1e-9:
        raise ValueError("conjugate symmetry failed; input is not real orthogonal")
    return xi.real, j, decomp


def log0_decompose(g):
    """Split special orthogonal g (1 not in spec) as g = exp(xi), J = J_xi.

    Returns (xi, J) with exp(xi) = g, J the unitary structure of xi (extended
    by the canonical block structure on the -1 eigenspace, where J_xi is not
    determined), and xi - pi J = log_0(-g).  On the non-(-1) part xi is the
    principal logarithm of g, so eigenvalue exp(i theta), theta in (-pi, pi),
    contributes i theta, and J is +i exactly where theta > 0.
    """
    arr = np.asarray(g)
    if np.max(np.abs(np.asarray(arr, dtype=complex).imag)) > 1e-10:
        raise ValueError("log0_decompose expects a real matrix")
    xi, j, decomp = _orthogonal_log(np.asarray(arr, dtype=float))
    if np.min(np.abs(decomp.values - 1.0)) <= CUT_TOL:
        raise ValueError("eigenvalue 1 present; decomposition undefined")
    if np.max(np.abs(j.imag)) > 1e-9:
        raise ValueError("conjugate symmetry failed; input is not real orthogonal")
    return xi, j.real


def so_log(g):
    """A real skew logarithm of a special orthogonal matrix.

    Uses the principal eigenvalue logs on conjugate pairs and the canonical
    block structure (times pi) on the -1 eigenspace.
    """
    return _orthogonal_log(np.asarray(g, dtype=float))[0]
