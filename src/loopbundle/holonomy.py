"""Parallel transport, holonomy, Floquet data and polynomial fibre bases.

Three built-in geometries supply the connection coefficient A(t) of a loop in
a fixed orthonormal frame, so that parallel transport solves Phi' = A(t) Phi:

* ``flat-torus-T2``: tangent bundle of the flat torus; A = 0.
* ``round-sphere-S2``: tangent bundle of the round sphere along latitude
  circles at colatitude theta, frame (e_theta, e_phi); the Levi-Civita
  coefficient is the constant rotation generator -2 pi w cos(theta) J0 for
  winding w.  Rescaling the radius leaves transport unchanged.
* ``group-SU2``: the bi-invariant metric, loops t -> exp(2 pi w t X) along a
  unit direction X in the Lie algebra, left-invariant frame; transport is
  generated by -(pi w) ad_X.

A `ConnectionModel` is the one constant skew coefficient A0 of its unreparametrised loop (`generator`, built once
by the constructor), a name, and the parameters the constructor read (`params`: winding, colatitude, direction).
A `BaseLoop` is only a sample grid and a reparametrisation sigma(t) = shift + o t + a sin 2 pi t, o = +-1,
or a composition of such maps (`BaseLoop.sigma`, the identity when it has none), which pulls A0 back to
A(t) = sigma'(t) A0.  So transport is Phi(t0 -> t) = exp((sigma(t) - sigma(t0)) A0), sampled from the spectrum of
A0 by `_transport_samples`; an RK4 integration is only the oracle of `transport_defect`.

The covariant derivative along the loop is D = d/dt - A(t), with d/dt exact
on the trigonometric interpolant of sampled sections.  Each step from (model, loop)
to a fibre basis reads only (model, loop): `holonomy` is Phi(0 -> 1), `monodromy`
its Floquet data (`floquet`), and `eigen_sections` samples Phi(t) W straight into the core.
Writing the holonomy's eigenvalues e^{2 pi i s_j} with s_j in [-1/2, 1/2), the sections

    phi_{p,j}(t) = e^{2 pi i p t} Phi(t) e^{-2 pi i s_j t} w_j

are periodic and diagonalise the normalised operator (1/2 pi) D with
eigenvalues i (p - s_j).  Each is the Fourier shift e^{2 pi i p t} c_j(t) of
one core vector c_j(t) = e^{-2 pi i s_j t} Phi(t) w_j (`_floquet_core`), so a
`FiberBasis` stores only the core, (n, n, grid) with core[j, :, t] = c_j(t), and indexes
section (p, j) by the integer (p + P) n + j.  Elementwise work runs along the contiguous
grid axis: every broadcast, drift and FFT over the core is a pass of grid length, never
one of length n = 2 or 3, which costs many times more per element.  The Gram matrix,
projections and sections each cost one FFT of the core, and `dhat_residuals`, from two,
equals the per-section check on the samples, bin for bin, by running sums over the bins
next to the Nyquist mode, where a shifted section's derivative wraps.  The weighted pairing of two coefficient vectors
sums conj(a) b against `FiberBasis.pairing_weights`, cosh((p - s_j) ln r)^2 from `modes.cosh_weight` at the section
eigenvalues p - s_j (`FiberBasis.eigenvalues`).  A direct sum is one more model: its generator is
block-diagonal in the blocks' generators.
"""

import numbers
import numpy as np
from dataclasses import dataclass
from functools import cached_property

from .laurent import CERT_GUARD, certify, check_grid, check_quarter_rule, laurent_eval, relative_tail
from .modes import cosh_weight
from .spectral import SkewSpectrum, check_unitary, clustered_eig, projector_basis

# Fourier coefficients below this fraction of the largest one are round-off
# and are left out of trigonometric interpolation
TRIG_FLOOR = 1e-13
J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _cross_matrix(u):
    return np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )


class Reparam:
    """Lifted circle reparametrisation sigma(t) = shift + o t + amplitude sin 2 pi t, o = +-1.

    Kinds: "identity" (shift 0); "rotation" (t + shift); "sine" (t + shift +
    amplitude sin 2 pi t, needs |amplitude| < 1/(2 pi) to stay monotone);
    "reflection" (shift - t, o = -1).  Only a sine keeps its amplitude.
    """

    def __init__(self, kind="identity", shift=0.0, amplitude=0.0):
        if kind not in ("identity", "rotation", "sine", "reflection"):
            raise ValueError(f"unknown reparametrisation kind {kind!r}")
        if kind == "sine" and abs(amplitude) * 2.0 * np.pi >= 1.0:
            raise ValueError("sine amplitude too large; map is not monotone")
        self.shift = 0.0 if kind == "identity" else float(shift)
        self.amplitude = float(amplitude) if kind == "sine" else 0.0
        self.orientation = -1 if kind == "reflection" else 1

    def sigma(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.shift + self.orientation * ts + self.amplitude * np.sin(2.0 * np.pi * ts)

    def dsigma(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.orientation + 2.0 * np.pi * self.amplitude * np.cos(2.0 * np.pi * ts)

    def compose(self, inner):
        """The map t -> self.sigma(inner.sigma(t))."""
        return _ComposedReparam(self, inner)


class _ComposedReparam(Reparam):
    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.orientation = outer.orientation * inner.orientation

    def sigma(self, ts):
        return self.outer.sigma(self.inner.sigma(ts))

    def dsigma(self, ts):
        return self.outer.dsigma(self.inner.sigma(ts)) * self.inner.dsigma(ts)


@dataclass(frozen=True, eq=False)
class ConnectionModel:
    """A connection along the model loops: its name, the skew generator A0 of the unreparametrised loop, its params."""

    tag: str
    generator: np.ndarray
    params: tuple = ()

    def coefficients(self, loop, ts):
        """Batched A(t) = sigma'(t) A0, the pullback of A0 by the loop's reparametrisation."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return loop.dsigma(ts)[:, None, None] * self.generator[None, :, :]


@dataclass(frozen=True)
class BaseLoop:
    """A model loop as transport reads it: the sample grid and the reparametrisation (None for the identity).

    The geometry (winding, colatitude, direction) is the model's: its generator holds it and its params name it.
    """

    grid: int = 4096
    reparam: object = None

    def __post_init__(self):
        check_grid(self.grid)

    def with_reparam(self, rep):
        """The loop reparametrised by rep after its own reparametrisation: t -> self.sigma(rep.sigma(t))."""
        return BaseLoop(self.grid, rep if self.reparam is None else self.reparam.compose(rep))

    def sigma(self, ts):
        """The loop's reparametrisation sigma at each t: t itself when it has none."""
        return np.asarray(ts, dtype=float) if self.reparam is None else self.reparam.sigma(ts)

    def dsigma(self, ts):
        """sigma'(t) at each t: 1 when the loop has no reparametrisation."""
        return np.ones(np.shape(ts)) if self.reparam is None else self.reparam.dsigma(ts)


def _integer_winding(winding):
    """The winding as an int (NumPy integers included): any other value defines no closed loop."""
    if not isinstance(winding, numbers.Integral):
        raise ValueError(f"winding must be an integer, not {winding!r}")
    return int(winding)


def torus_model(winding=(1, 0), grid=4096, reparam=None):
    """The flat torus along a loop of integer winding (p, q); A0 = 0, so the winding lives only in params."""
    if np.ndim(winding) != 1 or len(winding) != 2:
        raise ValueError(f"the torus winding must be a pair of integers, not {winding!r}")
    params = (("winding", tuple(map(_integer_winding, winding))),)
    return ConnectionModel("flat-torus-T2", np.zeros((2, 2)), params), BaseLoop(grid, reparam)


def sphere_model(theta, winding=1, grid=4096, reparam=None):
    if not 0.0 < theta < np.pi:
        raise ValueError("colatitude must lie strictly between 0 and pi")
    winding, theta = _integer_winding(winding), float(theta)
    generator = -2.0 * np.pi * winding * np.cos(theta) * J0
    params = (("theta", theta), ("winding", winding))
    return ConnectionModel("round-sphere-S2", generator, params), BaseLoop(grid, reparam)


def su2_model(direction=(0.0, 0.0, 1.0), winding=1, grid=4096, reparam=None):
    winding, u = _integer_winding(winding), np.asarray(direction, dtype=float)
    if u.shape != (3,) or not 0.0 < np.linalg.norm(u) < np.inf:
        raise ValueError(f"direction must be 3 finite reals, not all zero, not {direction!r}")
    generator = -np.pi * winding * 2.0 * _cross_matrix(u / np.linalg.norm(u))
    params = (("direction", tuple(u.tolist())), ("winding", winding))
    return ConnectionModel("group-SU2", generator, params), BaseLoop(grid, reparam)


def _transport_samples(model, loop, t0, ts, columns):
    """(Phi(t0 -> t) M)[:, j] at [j, :, t] for t in ts, M = columns (n x m): m (n x n) by (n x len(ts)) products.

    (Phi M)_{kj} = sum_a u_{ka} (u^H M)_{aj} e^{-i mu_a (sigma(t) - sigma(t0))} from A0 = u diag(-i mu) u^H, decomposed
    per call; a vanishing A0 (the torus) gives Phi = I bit for bit, as eigh of the zero matrix returns u = I, mu = 0.
    """
    spectrum = SkewSpectrum(model.generator)
    lift = loop.sigma(np.atleast_1d(ts)) - loop.sigma(float(t0))
    phases = np.exp(-1j * np.outer(spectrum.mu, lift))
    weights = (spectrum.u.conj().T @ columns).T[:, None, :] * spectrum.u[None, :, :]  # u_{ka} (u^H M)_{aj} at [j, k, a]
    return weights @ phases


def _rk4_propagators(model, loop, t0, h, steps):
    """One-step fourth-order propagators for Phi' = A(t) Phi on a uniform grid.

    Together with `_chain_product` this is the integration oracle that
    `transport_defect` holds the closed form against.
    """
    ts = t0 + h * np.arange(steps)
    a1 = model.coefficients(loop, ts)
    a2 = model.coefficients(loop, ts + 0.5 * h)
    a3 = model.coefficients(loop, ts + h)
    k1 = a1
    k2 = a2 + 0.5 * h * np.einsum("tij,tjk->tik", a2, k1)
    k3 = a2 + 0.5 * h * np.einsum("tij,tjk->tik", a2, k2)
    k4 = a3 + h * np.einsum("tij,tjk->tik", a3, k3)
    eye = np.eye(a1.shape[1])
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chain_product(mats):
    """mats[-1] @ ... @ mats[0] by pairwise folding."""
    n = mats.shape[0]
    size = 1 << (n - 1).bit_length()
    if size != n:
        pad = np.broadcast_to(np.eye(mats.shape[1]), (size - n,) + mats.shape[1:])
        mats = np.concatenate([mats, pad])
    while mats.shape[0] > 1:
        mats = np.einsum("tij,tjk->tik", mats[1::2], mats[0::2])
    return mats[0]


def _real_frames(model, samples):
    """The real part of transport samples; ValueError when they are not real to 1e-10, as for a complex generator."""
    if np.max(np.abs(samples.imag)) > 1e-10:
        raise ValueError(f"model {model.tag!r} transports to complex frames; a frame needs a real generator")
    return samples.real


def transport(model, loop, t0=0.0, t1=1.0, steps=4096):
    """Parallel transport matrix from time t0 to t1 along the loop, in closed form.

    The closed form needs no grid: `steps` is accepted and ignored, so calls
    written for a step count keep working.  Raises ValueError for a complex
    generator, as `transport_frame` does; the result is confirmed orthogonal to 1e-8.
    """
    phi = _real_frames(model, _transport_samples(model, loop, t0, t1, np.eye(len(model.generator))))[:, :, 0].T
    unit = np.linalg.norm(phi.T @ phi - np.eye(phi.shape[0]))
    if unit > 1e-8:
        raise RuntimeError(f"transport lost orthogonality ({unit:.3e})")
    return phi


def transport_defect(model, loop, t0=0.0, t1=1.0, steps=4096):
    """Distance of the closed-form transport from an RK4 integration with `steps` steps."""
    oracle = _chain_product(_rk4_propagators(model, loop, t0, (t1 - t0) / steps, steps))
    return float(np.linalg.norm(transport(model, loop, t0, t1) - oracle))


def holonomy(model, loop):
    """Transport once around the loop."""
    return transport(model, loop, 0.0, 1.0)


def transport_frame(model, loop, steps=None):
    """Transported frame Phi(i/steps), i = 0..steps, with Phi(0) = I: a real (steps + 1, n, n) view of the samples.

    Raises ValueError for a complex generator, whose frame no real view can hold.
    """
    if steps is None:
        steps = loop.grid
    samples = _transport_samples(model, loop, 0.0, np.arange(steps + 1) / steps, np.eye(len(model.generator)))
    return _real_frames(model, samples).transpose(2, 1, 0)


@dataclass(frozen=True)
class MonodromyData:
    """Holonomy matrix g, its Floquet exponents s_j and eigenframe W; the transported frame is not kept."""

    holonomy: np.ndarray
    exponents: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        defect = np.linalg.norm(self.eigenframe_defect())
        if defect > 1e-8:
            raise ValueError(f"Floquet frame is not an eigenframe (defect {defect:.3e})")

    def eigenframe_defect(self):
        """g W - W e^{2 pi i s}: column j is the defect of g w_j = e^{2 pi i s_j} w_j."""
        return self.holonomy @ self.frame - self.frame * np.exp(2j * np.pi * self.exponents)[None, :]

    def periodicity_residual(self):
        """Largest column of the eigenframe defect: the exact period identity g w_j = e^{2 pi i s_j} w_j."""
        return float(np.linalg.norm(self.eigenframe_defect(), axis=0).max())


def _window(x):
    """Reduce to [-1/2, 1/2); ties at 1/2 go to -1/2."""
    return np.mod(np.asarray(x, dtype=float) + 0.5, 1.0) - 0.5


def floquet(g):
    """Floquet exponents s_j in [-1/2, 1/2) and eigenframe of a holonomy matrix.

    Eigenvalues are clustered as in the spectral helpers (`CLUSTER_TOL`), each
    member taking its cluster's mean exponent; columns are ordered by exponent.
    A cluster of more than one member is degenerate to round-off, and its
    frame is the deterministic basis of its spectral projector from
    `projector_basis` (for g = +-I the standard basis), not the eigenbasis of
    `clustered_eig`, which depends on the round-off in g.  Rejects matrices
    that are not unitary/orthogonal to 1e-8.
    """
    arr = check_unitary(g)
    decomp = clustered_eig(arr)
    exps = _window(np.angle(decomp.cluster_values) / (2.0 * np.pi))
    vectors = decomp.vectors.copy()
    for cluster in decomp.clusters:
        if len(cluster) > 1:
            vectors[:, list(cluster)] = projector_basis(decomp.projector(cluster))
    order = np.lexsort((np.arange(exps.size), exps))
    return MonodromyData(holonomy=arr, exponents=exps[order], frame=vectors[:, order])


def monodromy(model, loop):
    """Floquet data of the loop's holonomy."""
    return floquet(holonomy(model, loop))


@dataclass(frozen=True)
class FiberBasis:
    """Eigen-section basis phi_{p,j}(t) = e^{2 pi i p t} c_j(t) over one loop, stored factorised.

    core has shape (n, n, grid) with core[j, :, t] = c_j(t) = e^{-2 pi i s_j t}
    Phi(t) w_j; section (p, j), |p| <= P, has the integer index (p + P) n + j.
    Every section is a Fourier shift of one core vector, so the Gram matrix,
    projections and sections each take one FFT of the core instead of one
    pass over (2P+1) n sampled sections; `section` samples one combination
    of them at a time.  A basis needs 2P + 1 <= grid; a wider one aliases.
    """

    model: ConnectionModel
    loop: BaseLoop
    data: MonodromyData
    mode_bound: int
    core: np.ndarray

    def __post_init__(self):
        if self.core.ndim != 3 or self.core.shape[0] != self.core.shape[1]:
            raise ValueError(f"core of shape {self.core.shape} is not (n, n, grid)")
        if 2 * self.mode_bound + 1 > self.grid:
            raise ValueError(f"mode bound {self.mode_bound} needs 2 * mode_bound + 1 <= grid {self.grid}, or the basis aliases")

    @property
    def grid(self):
        return self.core.shape[2]

    @property
    def count(self):
        return (2 * self.mode_bound + 1) * self.core.shape[0]

    def rows(self):
        """Integer mode p and core index j of each section, in basis order: index = (p + P) * n + j."""
        bound, n = self.mode_bound, self.core.shape[0]
        return np.repeat(np.arange(-bound, bound + 1), n), np.tile(np.arange(n), 2 * bound + 1)

    @property
    def eigenvalues(self):
        """p - s_j per section in basis order: (1/2 pi) D phi_{p,j} = i (p - s_j) phi_{p,j}."""
        modes, cores = self.rows()
        return modes - self.data.exponents[cores]

    def pairing_weights(self, r):
        """cosh((p - s_j) ln r)^2 per section in basis order: the weighted pairing's diagonal, for r > 1."""
        return cosh_weight(self.eigenvalues, r) ** 2

    @cached_property
    def gram_symbol(self):
        """The blocks F[k], |k| <= 2P, at index k + 2P: F is the FFT of c(t)^H c(t) / grid, read at bin k mod grid.

        The overlap c_j(t)^H c_l(t) is a sum over the fibre index k of (j, 1, t) by (1, l, t) products, each along
        the contiguous grid axis; no per-sample n x n product is formed.  The blocks are built on first access and
        kept read-only: every Gram check of the basis reads them, and none can change them for another.
        """
        conj = self.core.conj()
        overlap = conj[:, None, 0] * self.core[None, :, 0]
        for k in range(1, self.core.shape[1]):
            overlap += conj[:, None, k] * self.core[None, :, k]
        spectrum = np.fft.fft(overlap, axis=2)
        blocks = spectrum[:, :, np.arange(-2 * self.mode_bound, 2 * self.mode_bound + 1) % self.grid] / self.grid
        blocks = blocks.transpose(2, 0, 1)
        blocks.flags.writeable = False
        return blocks

    def gram(self):
        """The block-Toeplitz basis Gram G[(p,j),(q,l)] = F[p - q]_{jl}."""
        modes, cores = self.rows()
        lags = modes[:, None] - modes[None, :] + 2 * self.mode_bound
        return self.gram_symbol[lags, cores[:, None], cores[None, :]]

    def gram_error(self):
        """max |F[k] - delta_k I| over |k| <= 2P; every block occurs in the Gram, so this is max |G - I|."""
        deviation = self.gram_symbol.copy()
        deviation[2 * self.mode_bound] -= np.eye(deviation.shape[1])
        return float(np.max(np.abs(deviation)))

    def _mode_sums(self, coefficients):
        """(t, j) = sum_p c_{p,j} e^{2 pi i p t} on the grid, from one inverse FFT; as 2P + 1 <= grid, no bins meet."""
        if coefficients.shape != (self.count,):
            raise ValueError("coefficient vector has the wrong length")
        modes, cores = self.rows()
        scattered = np.zeros((self.grid, self.core.shape[0]), dtype=complex)
        scattered[modes % self.grid, cores] = coefficients
        return np.fft.ifft(scattered, axis=0) * self.grid

    def section(self, coefficients):
        """The (grid, n) samples of the section with the given coefficients over the basis."""
        coefficients = np.asarray(coefficients, dtype=complex)
        return np.einsum("tj,jkt->tk", self._mode_sums(coefficients), self.core)

    def project(self, values):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (self.grid, self.core.shape[1]):
            raise ValueError("sampled section does not match the basis grid")
        overlap = np.einsum("jkt,tk->tj", self.core.conj(), vals)
        spectrum = np.fft.fft(overlap, axis=0) / self.grid
        modes, cores = self.rows()
        return spectrum[modes % self.grid, cores]

    def periodicity_residual(self):
        """`MonodromyData.periodicity_residual` of the basis's Floquet data."""
        return self.data.periodicity_residual()


def _floquet_core(model, loop, data):
    """Core c_j(t) = e^{-2 pi i s_j t} Phi(t) w_j on the loop's grid, shape (n, n, grid).

    The transport sampler with M = W gives (Phi(t) W)[:, j] at [j, :, t]; the drift is multiplied in place along t.
    """
    ts = np.arange(loop.grid) / loop.grid
    core = _transport_samples(model, loop, 0.0, ts, data.frame)
    core *= np.exp(-2j * np.pi * np.outer(data.exponents, ts))[:, None, :]
    return core


def eigen_sections(model, loop, data, mode_bound):
    """The basis phi_{p,j}(t) = e^{2 pi i p t} c_j(t), |p| <= P, its core sampled on the loop's grid."""
    return FiberBasis(model=model, loop=loop, data=data, mode_bound=mode_bound, core=_floquet_core(model, loop, data))


def _derivative_modes(grid):
    """Mode number of each FFT bin, the Nyquist mode zeroed: the samples do not determine its derivative."""
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    freqs[freqs == -grid / 2] = 0.0
    return freqs


def _connection_term(model, loop, values):
    """A(t) v(t) on sampled sections stored grid-innermost, shape (..., n, grid), with A(t) = sigma'(t) A0.

    The one place the connection coefficient meets the samples: one matrix
    product by A0 and a per-sample scale along t.
    """
    grid = values.shape[-1]
    return (model.generator @ values) * loop.dsigma(np.arange(grid) / grid)


def covariant_derivative(model, loop, values):
    """D = d/dt - A(t) on sampled sections of shape (..., grid, n).

    d/dt is exact on the trigonometric interpolant, Nyquist mode zeroed
    (one FFT there and back); the connection term A(t) v is `_connection_term`,
    which `dhat_residuals` shares, on the samples with the grid axis swapped innermost.
    """
    values = np.asarray(values, dtype=complex)
    freqs = _derivative_modes(values.shape[-2])
    deriv = np.fft.ifft((2j * np.pi * freqs)[:, None] * np.fft.fft(values, axis=-2), axis=-2)
    return deriv - np.swapaxes(_connection_term(model, loop, np.swapaxes(values, -1, -2)), -1, -2)


def dhat_residuals(basis):
    """Relative defect of (1/2 pi) D phi = i (p - s_j) phi per basis section.

    Equal, up to round-off, to the check on each sampled section
    phi_{p,j} = e^{2 pi i p t} c_j.  Multiplying by e^{2 pi i p t} shifts the
    spectrum by p, so the defect of phi_{p,j} is the shifted spectrum of the
    core defect b_j = (1/2 pi) D c_j + i s_j c_j, except that bin g carries
    B_j[g] + i delta_p(g) C_j[g].  Here C_j is the spectrum of c_j and B_j that
    of b_j, which is exactly i (nu + s_j) C_j - FFT(A(t) c_j(t)) / 2 pi with nu
    the mode number, Nyquist mode zeroed, as in `covariant_derivative`; so the
    check takes two FFTs of the core (C and the connection term's) and never
    transforms back.  It holds -2 pi B_j, so no spectrum is rescaled: the sums
    read from it are rescaled instead.  delta_p(g) = nu((g + p) mod grid) - nu(g) - p is
    -sign(p) grid on the |p| - 1 bins strictly between the Nyquist bin grid/2
    and grid/2 - p, half that on those two end bins and 0 elsewhere.  By Parseval
    the defect power of phi_{p,j} is that of b_j plus the change
    delta^2 |C|^2 - 2 delta Im(conj(B) C) summed over that walk of |p| + 1
    bins: a running sum of the per-bin change at |delta| = grid with both end
    bins at grid/2.  One walk of P + 1 bins per side serves every section of a
    core column; it starts at the Nyquist bin, so the large low-mode mass never
    enters a running sum, and an under-resolved basis keeps its large residual.
    The reference power of c_j is Parseval's sum over C_j.
    """
    grid = basis.grid
    spec_c = np.fft.fft(basis.core, axis=2)  # (j, k, nu)
    spec_b = np.fft.fft(_connection_term(basis.model, basis.loop, basis.core), axis=2)  # -2 pi B_j
    spec_b -= 2j * np.pi * (_derivative_modes(grid)[None, None, :] + basis.data.exponents[:, None, None]) * spec_c
    modes, cores = basis.rows()
    # the walk away from the Nyquist bin for p > 0 (side 0) and p < 0 (side 1): step o at index o
    steps = np.arange(basis.mode_bound + 1)
    walk = np.stack([grid // 2 - steps, grid // 2 + steps])
    power_c = spec_c.real**2 + spec_c.imag**2
    mass = np.sum(power_c[:, :, walk], axis=1)  # (j, side, step)
    cross = np.sum((spec_b[:, :, walk].conj() * spec_c[:, :, walk]).imag, axis=1) / (-2.0 * np.pi)
    sign = np.array([[1.0], [-1.0]])  # sign(p) on each side
    whole = grid**2 * mass + 2.0 * grid * sign * cross  # the change on a bin where |delta| = grid
    half = grid**2 / 4.0 * mass + grid * sign * cross  # and where |delta| = grid / 2
    whole[:, :, 0] = half[:, :, 0]  # every walk starts at the Nyquist bin
    side = (cores, (modes < 0).astype(int))
    change = np.cumsum(whole, axis=2)[side + (np.abs(modes) - 1,)] + half[side + (np.abs(modes),)]
    change[modes == 0] = 0.0
    power = np.sum(spec_b.real**2 + spec_b.imag**2, axis=(1, 2))[cores] / (4.0 * np.pi**2) + change
    return np.sqrt(np.maximum(power, 0.0) / np.sum(power_c, axis=(1, 2))[cores])


def _relative_rms(defect, reference):
    """RMS of a defect over the RMS of its reference samples."""
    scale = max(np.sqrt(np.mean(np.abs(reference) ** 2)), 1e-300)
    return float(np.sqrt(np.mean(np.abs(defect) ** 2)) / scale)


def project_section(basis, values):
    """Coefficients of sampled section values and their round-trip error.

    Returns (coefficients over the basis, relative RMS by which the section
    they give misses the values).
    """
    coeffs = basis.project(values)
    return coeffs, _relative_rms(basis.section(coeffs) - values, values)


def loop_recognition_residual(basis, coefficients):
    """Defect of g b(t+1) = b(t) in the transported frame for a coefficient section.

    In transported-frame coordinates the section is b(t) = W u(t) with
    u_j(t) = e^{-2 pi i s_j t} sum_p c_{p,j} e^{2 pi i p t}.  Since e^{2 pi i p} = 1,
    b(t+1) = W e^{-2 pi i s} u(t), so g b(t+1) - b(t) = D e^{-2 pi i s} u(t)
    exactly, with D = g W - W e^{2 pi i s} the eigenframe defect.
    """
    data = basis.data
    ts = np.arange(basis.grid) / basis.grid
    u = basis._mode_sums(np.asarray(coefficients, dtype=complex)) * np.exp(-2j * np.pi * np.outer(ts, data.exponents))
    defect = (u * np.exp(-2j * np.pi * data.exponents)) @ data.eigenframe_defect().T
    return _relative_rms(defect, u @ data.frame.T)


def cos_inner_product(basis, a, b, r):
    """Weighted pairing sum_{p,j} cosh((p - s_j) ln r)^2 conj(a_{p,j}) b_{p,j} of two coefficient vectors over basis."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != (basis.count,) or b.shape != (basis.count,):
        raise ValueError(f"coefficient vectors of shapes {a.shape}, {b.shape} do not match the {basis.count} sections")
    return complex(np.sum(basis.pairing_weights(r) * a.conj() * b))


def cos_gram(basis, r):
    """Gram matrix of the basis sections under the weighted pairing: diagonal by design."""
    return np.diag(basis.pairing_weights(r).astype(complex))


def cos_gram_floor(basis, r):
    """Smallest eigenvalue of the unit-diagonal weighted Gram of the basis sections projected back (-1 if one vanishes).

    Projecting section (q, l) gives the Gram entries F[p - q]_{jl}; entries at or below TRIG_FLOOR of core column
    l's largest are round-off that cosh^2 weights up to 1e60 (P = 100, r = 2) would inflate.  A surviving F[k], k != 0,
    reads -1 (a unitary transport gives none: c_j^H c_l = e^{2 pi i (s_j - s_l) t} (W^H W)_{jl}); otherwise the Gram
    splits into the n x n blocks B^H diag(w_q) B of the modes q, B the cut F[0].  A repeated section reads 0.
    For a unitary transport with an orthonormal frame the cut F[0] is diagonal, so every block scales to I and the
    floor is 1 to round-off whatever r is; only a repeated or mode-coupling core moves it.
    """
    weights = basis.pairing_weights(r)  # read first, so that r is checked where modes couple too
    symbol = basis.gram_symbol
    # the scale is per core column, not the whole symbol's: the Gram is read after normalising each section to unit
    # diagonal, so whether an entry is round-off must not change when one core is rescaled against the others
    symbol = np.where(np.abs(symbol) <= TRIG_FLOOR * np.abs(symbol).max(axis=(0, 1)), 0.0, symbol)
    centre = 2 * basis.mode_bound
    if np.any(symbol[:centre]) or np.any(symbol[centre + 1 :]):
        return -1.0
    block = symbol[centre]
    weighted = (block.conj().T * weights.reshape(-1, 1, block.shape[0])) @ block
    scale = np.sqrt(np.diagonal(weighted, axis1=1, axis2=2).real)
    if not np.all(scale > 0.0):
        return -1.0
    return float(np.linalg.eigvalsh(weighted / (scale[:, :, None] * scale[:, None, :]))[:, 0].min())


def trig_interpolate(values, new_ts):
    """Evaluate the trigonometric interpolant of periodic samples at new times.

    Only Fourier modes whose largest coefficient (over all channels) exceeds
    TRIG_FLOOR times the largest coefficient overall are summed, so a
    band-limited signal costs its band rather than the whole grid; a signal
    with a full spectrum keeps every mode.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[0]
    coeffs = np.fft.fft(values.reshape(n, -1), axis=0) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    peak = np.abs(coeffs).max(axis=1)
    # the scale is the peak mode, not the l2 mass: a dropped mode moves every interpolated sample by its own size, so
    # the peak bounds the pointwise error; a floor on the l2 mass cuts a full spectrum elsewhere and moves condiff
    keep = peak > TRIG_FLOOR * peak.max()
    coeffs, freqs = coeffs[keep], freqs[keep]
    new_ts = np.asarray(new_ts, dtype=float)
    out = np.empty((new_ts.size,) + values.shape[1:], dtype=complex)
    for start in range(0, new_ts.size, 512):
        chunk = new_ts[start : start + 512]
        phases = np.exp(2j * np.pi * np.outer(chunk, freqs))
        out[start : start + chunk.size] = (phases @ coeffs).reshape((chunk.size,) + values.shape[1:])
    return out


def _carried_modes(mass):
    """The modes each column carries, from per-mode l2 masses (mode axis first): those above 1e-10 of its l2 mass."""
    # the floor sets the degree at which each residual is read, so it sits above round-off: a reparametrised core
    # is not band-limited, and 1e-13 instead of 1e-10 of its l2 mass counts modes of its decaying tail as carried
    # (su2 under a sine reparametrisation, grid 4096, P = 8: degree 20 instead of 18)
    return mass > 1e-10 * np.linalg.norm(mass, axis=0)


def condiff_residual(model, loop, rep, values):
    """Relative defect of the chain rule D_{gamma o sigma}(a o sigma) = ((D a) o sigma) sigma'.

    The degree of the values (their `_carried_modes`) keeps the quarter rule, or nothing is resampled.  D a is not
    checked: its FFT derivative scales round-off by the mode number, to about 3e-13 of its peak at the Nyquist mode.
    """
    grid = values.shape[0]
    ts = np.arange(grid) / grid
    dsig = rep.dsigma(ts)
    if rep.orientation < 0 or np.min(dsig) <= 0:
        raise ValueError("reparametrisation must be orientation-preserving and monotone")
    carried = _carried_modes(np.linalg.norm(np.fft.fft(values, axis=0), axis=1))
    check_quarter_rule(int(np.abs(np.fft.fftfreq(grid, d=1.0 / grid))[carried].max(initial=0.0)), grid)
    sig = rep.sigma(ts)
    pulled = trig_interpolate(values, np.mod(sig, 1.0))
    lhs = covariant_derivative(model, loop.with_reparam(rep), pulled)
    d_alpha = covariant_derivative(model, loop, values)
    rhs = trig_interpolate(d_alpha, np.mod(sig, 1.0)) * dsig[:, None]
    return _relative_rms(lhs - rhs, values)


def reparam_actions(basis, rep):
    """The standard action of a reparametrisation on the fibre basis: per-section residuals and degrees.

    The standard action composes each basis section with sigma and measures
    its distance from a trigonometric polynomial at the section's original
    degree; rotations and reflections preserve polynomiality, generic maps
    break it.  (The transport action carries the coefficients unchanged to the basis
    over the reparametrised loop: its one check is that loop's `monodromy` periodicity.)
    The pullback of section e^{2 pi i p t} c_j is e^{2 pi i p sigma} c_j o sigma, and a section's degree is its
    core's band shifted by p.  So every degree is read from the core spectrum and held to the quarter rule first:
    a core that fails it is never resampled.  The core is then resampled once, by one `trig_interpolate` call
    (evaluation points x kept modes x channels), and each mode p forms, transforms and reads only its own n pulled
    sections, so the working memory is O(n^2 grid) per mode, whatever P is.
    """
    grid, n = basis.grid, basis.core.shape[0]
    modes, _ = basis.rows()
    carried = _carried_modes(np.linalg.norm(np.fft.fft(basis.core, axis=2), axis=1).T)  # (mode, j)
    freqs = np.abs(np.fft.fftfreq(grid, d=1.0 / grid))[:, None]
    degrees = np.empty(basis.count, dtype=int)
    for start in range(0, basis.count, n):
        # section (p, j) carries mode g exactly where c_j carries mode g - p
        degrees[start : start + n] = np.where(np.roll(carried, modes[start], axis=0), freqs, 0.0).max(axis=0)
    check_quarter_rule(degrees, grid)
    sig = np.mod(rep.sigma(np.arange(grid) / grid), 1.0)
    # one contiguous (j, t, k) copy: each mode's product then runs over contiguous rows, faster than over the view
    pulled_core = np.ascontiguousarray(trig_interpolate(np.moveaxis(basis.core, 2, 0), sig).transpose(1, 0, 2))
    residuals = np.empty(basis.count)
    for start in range(0, basis.count, n):
        rows = slice(start, start + n)
        # section-major, so that each section's spectrum is summed as a lone section's would be
        pulled = np.exp(2j * np.pi * np.outer(modes[rows], sig))[:, :, None] * pulled_core  # (j, t, k) at one mode p
        residuals[rows] = relative_tail(np.fft.fft(pulled, axis=1), degrees[rows])
    return {"standard_residuals": residuals, "degrees": degrees}


def subbundle_counterexample(gamma, beta):
    """The `certify` residual of the twisted loop t -> e^{2 pi i gamma(t)} beta(t), as a float.

    gamma is a callable lift with integer winding, called point by point; beta
    a scalar loop.  The twist of a polynomial loop stays polynomial exactly
    when gamma is linear; the residual is read at degree
    deg(beta) + CERT_GUARD + |winding|.  Whether it shows a counterexample is
    the `subbundle-counterexample` record's threshold.
    """
    if beta.dim != 1:
        raise ValueError("the demonstration uses scalar loops")
    wind = gamma(1.0) - gamma(0.0)
    if abs(wind - round(wind)) > 1e-8:
        raise ValueError("gamma(t+1) - gamma(t) must be an integer")

    def twisted(ts):
        gvals = np.asarray([gamma(t) for t in ts], dtype=float)
        return np.exp(2j * np.pi * gvals)[:, None, None] * laurent_eval(beta, ts)

    degree = beta.degree + CERT_GUARD + abs(int(round(wind)))
    return float(certify(twisted, degree))


def _span_containment(inner, outer):
    """Max relative distance of the core vectors inner[j] from the span of the outer[l]."""
    inner, outer = (c.reshape(c.shape[0], -1) for c in (inner, outer))
    q, _ = np.linalg.qr(outer.T)
    proj = inner @ q.conj() @ q.T
    num = np.linalg.norm(inner - proj, axis=1)
    den = np.linalg.norm(inner, axis=1)
    return float(np.max(num / den, initial=0.0))


def direct_sum_union_residual():
    """Span gap between the Floquet core of a direct sum and the union of the blockwise cores.

    The direct sum of the torus and a sphere latitude is one more model, its generator block-diagonal in theirs.
    Every basis shifts its core vectors by the same modes p, so the bases agree when, exponent by exponent, the
    full and embedded core vectors span one space.
    """
    (torus, loop), (sphere, _) = torus_model(grid=2048), sphere_model(np.pi / 3, grid=2048)
    split, n = len(torus.generator), len(torus.generator) + len(sphere.generator)
    generator = np.zeros((n, n))
    generator[:split, :split], generator[split:, split:] = torus.generator, sphere.generator
    models = (ConnectionModel(f"{torus.tag}+{sphere.tag}", generator), torus, sphere)
    data = [monodromy(m, loop) for m in models]
    cores = [_floquet_core(m, loop, d) for m, d in zip(models, data)]
    embedded = np.zeros_like(cores[0])
    embedded[:split, :split], embedded[split:, split:] = cores[1:]
    exponents = (data[0].exponents, np.concatenate([d.exponents for d in data[1:]]))
    gap = 0.0
    for s in np.unique(np.concatenate(exponents)):
        a, b = (core[np.abs(_window(e - s)) < 1e-8] for core, e in zip((cores[0], embedded), exponents))
        gap = max(gap, _span_containment(a, b), _span_containment(b, a))
    return gap


def complexification_residual():
    """Check that the complex basis and its realification span the same space.

    Realifying adjoins the conjugates e^{-2 pi i p t} conj(c_j); for the symmetric
    mode window both spans agree when c_j and conj(c_j) span the same space.
    """
    model, loop = sphere_model(np.pi / 6, grid=2048)
    core = eigen_sections(model, loop, monodromy(model, loop), 4).core
    return max(_span_containment(core.conj(), core), _span_containment(core, core.conj()))
