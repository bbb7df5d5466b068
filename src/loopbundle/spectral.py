"""Spectral functions on unitary/orthogonal matrices and skew Lie-algebra data.

Everything here factors through a clustered eigendecomposition: eigenvalues
linked by steps below CLUSTER_TOL share one cluster label (one eigenspace), so
that spectral projectors stay stable under degeneracy.  It is the one rule for
coinciding eigenvalues, read by the logs, the -1 snap (NEG_ONE_SNAP) and
`floquet`; at 1e-10 a cluster is degenerate to round-off.  On top of it sit

* branch logarithms log_s with eigenvalues in the strip (s - i pi, s + i pi),
  cut at -e^s;
* the central logarithm, a log of g built from g's own spectral projections
  with eigenvalue logs in [-i pi, i pi); being a polynomial in g it commutes
  with every matrix commuting with g, in particular with every other log;
* exponentials of skew matrices, batched one-parameter paths exp(t xi) and
  batched products exp(t xi_1) ... exp(t xi_m), all one spectral chain;
* unitary structures J_xi of real skew matrices (the +i/-i splitting by the
  sign of the spectrum) and the decomposition of a special orthogonal g with
  1 not in its spectrum as g = exp(xi) with log_0(-g) = xi - pi J_xi.

The checks, the clustered eigendecomposition, `SkewSpectrum`, `exp_chain`,
`log_branch`, `central_log` and `projector_basis` also take a stack of
matrices (k, n, n) and then work entry by entry, each with its own clusters,
tolerances and chart test: a single matrix is the case without the stack axis.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .rand import random_unitary

CLUSTER_TOL = 1e-10
SKEW_TOL = 1e-10
UNITARY_TOL = 1e-8
CUT_TOL = 1e-8
# a cluster mean this close to -1 is the -1 eigenspace; below CLUSTER_TOL / 2 a snapped eigenvalue and its
# conjugate (at most 2 NEG_ONE_SNAP apart) always share a cluster, and the quarter leaves room for round-off
NEG_ONE_SNAP = CLUSTER_TOL / 4


class ChartError(ValueError):
    """The input lies on the boundary of a chart: a branch cut, a split abscissa, a block mismatch.

    Sweeps over random inputs count these as rejections; every other
    ValueError is a fault.  On a stack, mask marks the entries at the boundary.
    """

    def __init__(self, message, mask=None):
        super().__init__(message)
        self.mask = mask


def _square(arr):
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix must be square (or a stack of square matrices)")
    return arr


def _adjoint(arr):
    return arr.conj().swapaxes(-1, -2)


def _fro(arr):
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(arr, axis=(-2, -1))


def check_skew(xi, real=False):
    """Validate xi* = -xi (and realness if asked) entry by entry; returns xi as complex array."""
    arr = _square(np.asarray(xi, dtype=complex))
    scale = np.maximum(1.0, _fro(arr))
    if np.any(_fro(arr + _adjoint(arr)) > SKEW_TOL * scale):
        raise ValueError("matrix is not skew-hermitian to tolerance")
    if real and np.any(np.max(np.abs(arr.imag), axis=(-2, -1)) > SKEW_TOL * scale):
        raise ValueError("matrix is not real to tolerance")
    return arr


def check_unitary(g):
    arr = _square(np.asarray(g, dtype=complex))
    if np.any(_fro(_adjoint(arr) @ arr - np.eye(arr.shape[-1])) > UNITARY_TOL):
        raise ValueError("matrix is not unitary to tolerance")
    return arr


@dataclass(frozen=True)
class EigenDecomp:
    """Orthonormal eigendecomposition with eigenvalues grouped into clusters.

    labels[i] is the cluster of eigenvalue i, clusters numbered by first member.
    Spectral functions f(g) = sum_c f_c P_c are one `compose` of one value per
    eigenvalue, constant on each cluster.  On a stack every field has the stack axis first.
    """

    values: np.ndarray = dataclass_field(repr=False)
    vectors: np.ndarray = dataclass_field(repr=False)
    labels: np.ndarray = dataclass_field(repr=False)

    @property
    def clusters(self):
        """The index tuple of each cluster, in label order."""
        return tuple(tuple(np.flatnonzero(self.labels == c).tolist()) for c in range(self.labels.max() + 1))

    def projector(self, cluster):
        cols = self.vectors[:, list(cluster)]
        return cols @ cols.conj().T

    @property
    def cluster_values(self):
        """The unit mean of each eigenvalue's cluster (unitary input), with the shape of values.

        The members are summed in index order (a cumsum, started at 0.0), as `np.mean`
        sums clusters of up to three eigenvalues; `np.sum` pairs terms from four on.
        """
        same = self.labels[..., :, None] == self.labels[..., None, :]
        sums = 0.0 + np.cumsum(np.where(same, self.values[..., None, :], 0.0), axis=-1)[..., -1]
        means = sums / np.count_nonzero(same, axis=-1)
        return means / np.abs(means)

    def compose(self, values):
        """V diag(f) V* with f one value per eigenvalue, constant on each cluster: sum_c f_c P_c."""
        return (self.vectors * np.asarray(values, dtype=complex)[..., None, :]) @ _adjoint(self.vectors)


def _cluster_labels(values):
    """Cluster number of each value: the connected components of |v_i - v_j| < CLUSTER_TOL.

    Each squaring of the boolean adjacency (diagonal included) doubles the path
    length it covers; a component is numbered by its first member's rank.
    """
    n = values.shape[-1]
    reach = np.abs(values[..., :, None] - values[..., None, :]) < CLUSTER_TOL
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    first = np.argmax(reach, axis=-1)
    return np.take_along_axis(np.cumsum(first == np.arange(n), axis=-1) - 1, first, axis=-1)


def clustered_eig(g):
    """Orthonormal eigendecomposition of a normal matrix: eigenvectors, then their QR factor.

    Eigenvectors of a normal matrix for distinct eigenvalues are orthogonal,
    so Gram-Schmidt in column order (the Q factor of the eigenvector matrix)
    only mixes columns inside one eigenspace and returns an orthonormal
    eigenbasis in the same order (Golub & Van Loan, Matrix Computations,
    sec. 7.1: that Q is a Schur basis, diagonal for normal input).  Rejects
    input that this basis does not reconstruct to 1e-10 (non-normal input);
    eigenvalues are labelled by cluster (`_cluster_labels`).
    """
    arr = _square(np.asarray(g, dtype=complex))
    values, vectors = np.linalg.eig(arr)
    z_mat = np.linalg.qr(vectors)[0]
    recon = (z_mat * values[..., None, :]) @ _adjoint(z_mat)
    if np.any(_fro(recon - arr) > 1e-10 * np.maximum(1.0, _fro(arr))):
        raise ValueError("input is not normal enough for a spectral decomposition")
    return EigenDecomp(values=values, vectors=z_mat, labels=_cluster_labels(values))


class SkewSpectrum:
    """The eigendecomposition xi = u diag(-i mu) u* of a skew-hermitian matrix, taken once.

    mu are the (real) eigenvalues of the hermitian matrix i xi; every
    exponential exp(t xi) below is (u e^{-i t mu}) u*.
    """

    def __init__(self, xi):
        self.mu, self.u = np.linalg.eigh(1j * check_skew(xi))

    def __neg__(self):
        """The spectrum of -xi: the same eigenvectors with negated eigenvalues."""
        out = object.__new__(SkewSpectrum)
        out.mu, out.u = -self.mu, self.u
        return out

    @property
    def radius(self):
        """Largest |eigenvalue| of xi (one per entry of a stack)."""
        return np.max(np.abs(self.mu), axis=-1, initial=0.0)

    def exp(self, ts):
        """Batched exp(t xi) for an array of times; shape (len(ts), n, n)."""
        return exp_chain([self], ts)


def exp_chain(spectra, ts):
    """Batched product exp(t xi_1) ... exp(t xi_m) for an array of times; shape ([k,] len(ts), n, n).

    With xi_i = u_i diag(-i mu_i) u_i* the product is
    u_1 D_1(t) (u_1* u_2) D_2(t) ... D_m(t) u_m*, D_i(t) = diag(e^{-i t mu_i}):
    start from u_1 scaled column-wise by D_1, then each link is one
    ([k,] len(ts) n x n) by ([k,] n x n) product followed by a column scaling.
    """
    ts = np.reshape(np.asarray(ts, dtype=float), (-1, 1))

    def scaling(spectrum):
        return np.exp(-1j * ts * spectrum.mu[..., None, :])[..., None, :]

    first = spectra[0]
    n = first.mu.shape[-1]
    out = first.u[..., None, :, :] * scaling(first)
    rows = out.shape[:-3] + (-1, n)
    for prev, spectrum in zip(spectra, spectra[1:]):
        out = (out.reshape(rows) @ (_adjoint(prev.u) @ spectrum.u)).reshape(out.shape)
        out *= scaling(spectrum)
    return (out.reshape(rows) @ _adjoint(spectra[-1].u)).reshape(out.shape)


def exp_skew(xi):
    """exp(xi) for skew-hermitian xi, via the hermitian eigenproblem of i xi.

    Exactly unitary up to round-off; cross-checked in the test suite against
    a scaling-and-squaring oracle.
    """
    return SkewSpectrum(xi).exp(1.0)[0]


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
    on_cut = np.min(np.abs(decomp.values - cut), axis=-1) <= CUT_TOL
    if np.any(on_cut):
        raise ChartError(f"{np.count_nonzero(on_cut)} input(s) with an eigenvalue on the branch cut at {cut}", on_cut)
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


def projector_rank(proj):
    """Rank of each projector of a stack: its rounded trace."""
    return np.rint(np.trace(proj, axis1=-2, axis2=-1).real).astype(int)


def projector_basis(proj):
    """Orthonormal basis of the range of a projector: Gram-Schmidt of P e_1, P e_2, ...

    A column is kept when its remainder exceeds 1/(2 sqrt n).  One pass always
    finds rank = trace(P) columns: the remainder projector left after the pass
    would have a diagonal entry of at least 1/n, and that column's remainder
    could only have been larger when it was visited.  A real projector gets a
    real basis.  A stack of projectors of one rank gets a stack of bases, each
    entry keeping the columns of its own pass.
    """
    n = proj.shape[-1]
    ranks = projector_rank(proj)
    rank = int(ranks.flat[0])
    if np.any(ranks != rank):
        raise ValueError("a stack of projectors must share one rank")
    basis = np.zeros(proj.shape[:-1] + (rank,), dtype=proj.dtype)
    found = np.zeros(proj.shape[:-2], dtype=int)
    for k in range(n):
        if np.all(found == rank):
            break
        v = proj[..., :, k, None]
        for _ in range(2):  # second pass restores orthogonality lost to round-off
            v = v - basis @ (_adjoint(basis) @ v)
        norm = np.linalg.norm(v, axis=(-2, -1))
        keep = (norm > 0.5 / np.sqrt(n)) & (found < rank)
        basis[keep, :, found[keep]] = v[keep][..., 0] / norm[keep][..., None]
        found += keep
    return basis


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


def torus_path_factor(g, angles):
    """Skew generator of a path inside the centre of the centraliser of g.

    Given one angle per eigenvalue cluster of g, in label order, returns
    xi = sum_c i angle_c P_c built from g's spectral projections.  The path
    exp(t xi) then commutes with g and with everything commuting with g for
    every t, and reaches the centre element sum_c e^{i angle_c} P_c at t = 1.
    """
    arr = check_unitary(g)
    decomp = clustered_eig(arr)
    angles = np.asarray(angles, dtype=float)
    if angles.size != len(decomp.clusters):
        raise ValueError("need exactly one angle per eigenvalue cluster")
    return decomp.compose(1j * angles[decomp.labels])


def centralizer_element(g, rng):
    """A random unitary commuting with g: an independent unitary on each eigenspace."""
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
    spectrum = SkewSpectrum(arr)  # xi eigenvalue is -i mu, positive part is mu < 0
    if np.min(np.abs(spectrum.mu)) <= 1e-8:
        raise ValueError("skew matrix has a (near-)zero eigenvalue; J is undefined")
    w_cols = spectrum.u[:, spectrum.mu < 0]
    if 2 * w_cols.shape[1] != n:
        raise ValueError("positive and negative spectra are unbalanced")
    proj = w_cols @ w_cols.conj().T
    j = 1j * (2.0 * proj - np.eye(n))
    if np.max(np.abs(j.imag)) > 1e-9:
        raise ValueError("constructed structure failed to be real (input not real skew?)")
    return j.real


def _orthogonal_log(arr):
    """(xi, decomp) for real orthogonal arr: xi = sum_c i theta_c P_c, real.

    The -1 eigenspace gets pi times the canonical block structure.  xi is the real part of that sum: near -1
    the real log is ill-conditioned, and eigenvector round-off leaves the sum complex (by ~1e-5 on SO(6)).
    """
    check_unitary(arr)
    decomp = clustered_eig(arr)
    lam = decomp.cluster_values
    neg_one = np.abs(lam + 1.0) <= NEG_ONE_SNAP
    theta = np.where(neg_one, 0.0, np.angle(lam))
    xi = decomp.compose(1j * theta)
    if neg_one.any():
        basis = projector_basis(decomp.compose(neg_one).real)
        if basis.shape[1] % 2 != 0:
            raise ValueError("odd-dimensional -1 eigenspace; input is not special orthogonal")
        xi += np.pi * block_structure(basis)
    return xi.real, decomp


def log0_decompose(g):
    """Split special orthogonal g (1 not in spec) as (xi, J): g = exp(xi), J = `unitary_structure(xi)`.

    xi is `so_log(g)`: the principal logarithm off the -1 eigenspace and pi
    times the canonical block structure on it.  Then xi - pi J = log_0(-g).
    """
    if np.max(np.abs(np.imag(g))) > 1e-10:
        raise ValueError("log0_decompose expects a real matrix")
    xi, decomp = _orthogonal_log(np.asarray(np.real(g), dtype=float))
    if np.min(np.abs(decomp.values - 1.0)) <= CUT_TOL:
        raise ChartError("eigenvalue 1 present; decomposition undefined")
    return xi, unitary_structure(xi)


def so_log(g):
    """A real skew logarithm of a special orthogonal matrix.

    Uses the principal eigenvalue logs on conjugate pairs and the canonical
    block structure (times pi) on the -1 eigenspace.
    """
    return _orthogonal_log(np.asarray(g, dtype=float))[0]
