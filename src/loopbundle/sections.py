"""Quasi-periodic paths in the classical groups and explicit local sections.

A path element is a finite product

    alpha(t) = exp(t xi_1) ... exp(t xi_m) gamma(t)

of one-parameter factors and a polynomial loop part.  Such paths satisfy the
quasi-periodicity alpha(t+1) alpha(t)^{-1} = const (checked at construction),
and project to the group by alpha -> alpha(1) alpha(0)^{-1}.  The section
constructors build, for a group element near a base point, a path element in
the fibre above it:

* un_section: the branch-log path exp(t log_s g) over the set where no
  eigenvalue of g sits on the cut -e^s;
* su_section: the same path corrected by a rank-one determinant twist so the
  whole path stays special unitary;
* so_section: for special orthogonal targets, a two-factor path built from a
  spectral split at real part r, a transported unitary structure J_h on the
  low block and the principal log of eps(h) = h exp(-pi J_h).

Membership of a path in the polynomial class is certified numerically: the
quotient of the path by the central-log path of its projection must be a
trigonometric polynomial of the predicted degree.

The constructors, `PathElement` and `fiber_certificate` also take a stack of
inputs of one dimension (a leading axis of k entries) and then build k paths
at once, each checked on its own; a `ChartError` raised on a stack marks the
entries at the chart boundary.  A single input is the case without the axis.
"""

import numpy as np

from .laurent import CERT_GUARD, MatrixLoop, SampledLoop, certify, identity_loop, laurent_eval, sampled_group_residual
from .spectral import (
    ChartError,
    SkewSpectrum,
    block_structure,
    central_log,
    check_unitary,
    clustered_eig,
    exp_chain,
    log_branch,
    projector_basis,
    projector_rank,
    so_log,
)

PERIODICITY_TOL = 1e-9
CONDITION_BOUND = 1e6


class PathElement:
    """Product of one-parameter exponential factors and an optional loop part.

    Each factor is decomposed once (`spectra`), and the projection
    alpha(1) alpha(0)^{-1} is kept from the quasi-periodicity check.  A path
    with neither factors nor a loop part (dim given) gets the identity loop.
    """

    def __init__(self, factors, loop=None, group="U", dim=None):
        spectra = [SkewSpectrum(f) for f in factors]
        if not spectra and loop is None:
            if dim is None:
                raise ValueError("cannot infer dimension")
            loop = identity_loop(dim)
        if dim is None:
            dim = spectra[0].u.shape[-1] if spectra else loop.dim
        shape = spectra[0].u.shape[:-2] + (dim, dim) if spectra else (dim, dim)
        if any(spectrum.u.shape != shape for spectrum in spectra):
            raise ValueError("factor dimension mismatch")
        if loop is not None and loop.dim != dim:
            raise ValueError("loop part dimension mismatch")
        if group not in ("U", "SU", "SO"):
            raise ValueError(f"unknown group tag {group!r}")
        self.dim = dim
        self.group = group
        self.factors = [np.asarray(f, dtype=complex) for f in factors]
        self.spectra = spectra
        self.loop = loop
        ts = np.arange(16) / 16
        vals = self.eval(np.concatenate([ts, ts + 1.0]))
        low, high = vals[..., :16, :, :], vals[..., 16:, :, :]
        self.projection = high[..., 0, :, :] @ np.linalg.inv(low[..., 0, :, :])
        defect = float(np.max(np.linalg.norm(high - self.projection[..., None, :, :] @ low, axis=(-2, -1))))
        if defect > PERIODICITY_TOL:
            raise ValueError(f"path is not quasi-periodic (defect {defect:.3e})")

    @property
    def radii(self):
        """Spectral radius of each factor (one per entry of a stack)."""
        return [spectrum.radius for spectrum in self.spectra]

    def eval(self, ts):
        """Values alpha(t) at scalar or array times.

        The factors are one `spectral.exp_chain`; the loop part, if any, is
        evaluated by `laurent_eval` and multiplied on the right.
        """
        scalar = np.ndim(ts) == 0
        out = _chain_values(self.spectra, self.loop, np.atleast_1d(np.asarray(ts, dtype=float)))
        return out[..., 0, :, :] if scalar else out


def _chain_values(spectra, loop, ts):
    """exp(t xi_1) ... exp(t xi_m) gamma(t) at array times; a factor-free path is its loop part."""
    if not spectra:
        return laurent_eval(loop, ts)
    out = exp_chain(spectra, ts)
    return out if loop is None else out @ laurent_eval(loop, ts)


def project_path(p):
    """alpha(1) alpha(0)^{-1}; equals the product of exp(xi_i) for loop parts."""
    return p.projection


def act_group(p, g, conjugate=False):
    """Left multiplication (or conjugation) of a path element by a group element.

    Both actions replace each factor by g xi g^{-1}; the loop part is carried
    to g gamma (resp. g gamma g^{-1}).  Under either action the projection
    transforms by conjugation.
    """
    g = check_unitary(g)
    g_inv = g.conj().T
    factors = [g @ f @ g_inv for f in p.factors]
    loop = p.loop
    if loop is None:
        loop = MatrixLoop(dim=p.dim, coeffs={0: np.eye(p.dim)})
    coeffs = {}
    for k, ak in loop.coeffs.items():
        coeffs[k] = g @ ak @ g_inv if conjugate else g @ ak
    return PathElement(factors, loop=MatrixLoop(dim=p.dim, coeffs=coeffs), group=p.group)


def path_group_residual(p):
    """Max distance of path values from the tagged group over 256 samples (one per entry of a stack)."""
    return sampled_group_residual(p.eval(np.arange(256) / 256), p.group)


def _degree(radius, loops):
    """Predicted quotient degree: ceil(radius / 2 pi) + CERT_GUARD + the loop parts' degrees."""
    degree = np.ceil(radius / (2.0 * np.pi)).astype(int) + CERT_GUARD
    return degree + sum(loop.degree for loop in loops if loop is not None)


def fiber_certificate(p):
    """Polynomiality certificate for a path element.

    Divides the path by the central-log path of its projection and measures
    how far the quotient loop is from a trigonometric polynomial of the
    predicted degree.  The quotient exp(-t zeta) alpha(t) is sampled as the
    chain [-zeta, xi_1, ..., xi_m] times the loop part.  Returns the relative
    residual (`laurent.certify`): 0-d for one path, one per entry of a stack.
    """
    zeta = SkewSpectrum(central_log(p.projection))
    degree = _degree(np.max([zeta.radius] + p.radii, axis=0), [p.loop])
    return certify(lambda ts: _chain_values([-zeta] + p.spectra, p.loop, ts), degree)


def path_fiber_quotient(a, b):
    """Certificate of the quotient loop t -> a(t)^{-1} b(t) of two paths in a common fibre.

    Requires matching projections (tolerance 1e-9).  Returns the quotient's
    relative residual (`laurent.certify`); a small residual certifies that the
    two paths differ by a polynomial loop.
    The factors of a^{-1} b are the chain [-xi_m, ..., -xi_1, eta_1, ...] times
    b's loop part; only a loop part of a is divided out by a solve.
    """
    gap = np.linalg.norm(a.projection - b.projection)
    if gap > PERIODICITY_TOL:
        raise ValueError(f"paths project to different group elements (gap {gap:.3e})")
    degree = _degree(sum(a.radii + b.radii), [a.loop, b.loop])
    chain = [-spectrum for spectrum in reversed(a.spectra)] + b.spectra
    if a.loop is None:
        return certify(lambda ts: _chain_values(chain, b.loop, ts), degree)
    return certify(lambda ts: np.linalg.solve(laurent_eval(a.loop, ts), _chain_values(chain, b.loop, ts)), degree)


def exp_pair_loop(xi_1, xi_2, degree=None):
    """Certificate of the loop t -> exp(-t xi_1) exp(t xi_2).

    The two skew matrices must exponentiate to the same group element (checked
    to 1e-9); the resulting loop is then a trigonometric polynomial whose
    degree is bounded by the sum of the spectral radii over 2 pi.  Returns the
    relative residual (`laurent.certify`) of the loop at the given degree, by
    default that bound plus CERT_GUARD (`_degree`).
    """
    a = SkewSpectrum(xi_1)
    b = SkewSpectrum(xi_2)
    if a.u.shape != b.u.shape:
        raise ValueError("shape mismatch")
    if np.linalg.norm(a.exp(1.0) - b.exp(1.0)) > 1e-9:
        raise ValueError("exp(xi_1) != exp(xi_2); the pair does not define a loop")
    if degree is None:
        degree = _degree(a.radius + b.radius, [])
    return certify(lambda ts: exp_chain([-a, b], ts), degree)


def _smoothstep(x):
    """C-infinity step: 0 for x <= 0.05, 1 for x >= 0.95."""
    x = np.asarray(x, dtype=float)
    u = np.clip((x - 0.05) / 0.9, 0.0, 1.0)

    def bump(v):
        out = np.zeros_like(v)
        pos = v > 0
        out[pos] = np.exp(-1.0 / v[pos])
        return out

    num = bump(u)
    den = num + bump(1.0 - u)
    return num / den


def smooth_section(g, h, grid=1024):
    """A smooth quasi-periodic path from the identity-based log path of g to h.

    First half: exp(2 rho(t) xi) with exp(xi) = g and rho a smooth surjection
    of [0, 1/2] onto itself, flat near its endpoints.  Second half: the
    exponential chart at g, g exp(2 rho(t - 1/2) log_0(g^{-1} h)).  The result
    passes through g at t = 1/2, reaches h at t = 1, and is flat (hence C^1)
    at both junctions.
    """
    g = np.asarray(g)
    h = np.asarray(h)
    real_case = np.max(np.abs(np.asarray(g, dtype=complex).imag)) < 1e-12 and np.max(np.abs(np.asarray(h, dtype=complex).imag)) < 1e-12
    if real_case:
        xi = so_log(np.asarray(g, dtype=float)).astype(complex)
    else:
        xi = central_log(g)
    step = check_unitary(g).conj().T @ h
    delta = log_branch(step, 0.0)  # rejects h outside the chart (eigenvalue at -1)
    if real_case:
        if np.max(np.abs(delta.imag)) > 1e-9:
            raise ValueError("chart log failed to be real for real inputs")
        delta = delta.real.astype(complex)
    ts = np.arange(grid) / grid
    first = ts < 0.5
    rho = 0.5 * _smoothstep(2.0 * np.where(first, ts, ts - 0.5))
    vals = np.empty((grid, g.shape[0], g.shape[0]), dtype=complex)
    vals[first] = SkewSpectrum(xi).exp(2.0 * rho[first])
    vals[~first] = np.einsum("ij,tjk->tik", np.asarray(g, dtype=complex), SkewSpectrum(delta).exp(2.0 * rho[~first]))
    return SampledLoop(values=vals)


def junction_mismatch(s):
    """Max one-sided derivative gap of a sampled path at t = 1/2 and the seam.

    Uses second-order one-sided finite differences; the periodic extension
    beyond t = 1 is alpha(1) alpha(0)^{-1} alpha(t - 1).
    """
    vals = s.values
    n_s = vals.shape[0]
    h = 1.0 / n_s
    mid = n_s // 2

    def left(i):
        return (3.0 * vals[i] - 4.0 * vals[i - 1] + vals[i - 2]) / (2.0 * h)

    def right(i):
        return (-3.0 * vals[i] + 4.0 * vals[(i + 1) % n_s] - vals[(i + 2) % n_s]) / (2.0 * h)

    gap_mid = np.linalg.norm(left(mid) - right(mid))
    # seam: alpha'(1-) against monodromy * alpha'(0+); the flat plateau makes
    # alpha(1) equal to the last sample
    deriv_right = vals[-1] @ np.linalg.inv(vals[0]) @ right(0)
    gap_seam = np.linalg.norm(left(n_s - 1) - deriv_right)
    return float(max(gap_mid, gap_seam))


def un_section(s, g):
    """Single-factor section exp(t log_s g) over the branch domain of s."""
    return PathElement([log_branch(g, s)], group="U")


def su_section(s, g, v):
    """Determinant-corrected section of the special unitary group.

    Factors are [log_s g, -(tr log_s g) v v*]; the second factor evaluates to
    the rank-one twist that multiplies v by det(exp(-t log_s g)), keeping the
    determinant of the whole path at 1.
    """
    g = check_unitary(g)
    if np.any(np.abs(np.linalg.det(g) - 1.0) > 1e-8):
        raise ValueError("input is not special unitary")
    v = np.asarray(v, dtype=complex).reshape(g.shape[:-1])
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-10):
        raise ValueError("twist vector must be a unit vector")
    xi = log_branch(g, s)
    trace = np.trace(xi, axis1=-2, axis2=-1)
    k = trace / (2j * np.pi)
    if np.any(np.abs(k - np.round(k.real)) > 1e-6):
        raise ValueError("trace of the branch log is not in 2 pi i Z; not special unitary")
    twist = -trace[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    return PathElement([xi, twist], group="SU")


def so_spectral_split(h, r):
    """Orthogonal projectors onto the eigenvalue real-part split at abscissa r.

    Returns (projector_low, projector_high) for the sums of eigenspaces with
    Re(eigenvalue) < r and > r.  Both are real symmetric, h-invariant, and the
    low projector has even rank.
    """
    arr = np.asarray(h, dtype=float)
    check_unitary(arr)
    if not -1.0 <= r <= 1.0:
        raise ValueError("split abscissa must lie in [-1, 1]")
    decomp = clustered_eig(arr)
    on_split = np.min(np.abs(decomp.values.real - r), axis=-1) <= 1e-8
    if np.any(on_split):
        raise ChartError("an eigenvalue has real part at the split abscissa", on_split)
    low = decomp.compose(decomp.cluster_values.real < r)
    if np.max(np.abs(low.imag)) > 1e-9:
        raise ValueError("low projector failed to be real")
    low = low.real
    if np.any(projector_rank(low) % 2 != 0):
        raise ValueError("low block has odd rank; input is not special orthogonal")
    return low, np.eye(arr.shape[-1]) - low


def so_section(r, g, h):
    """Two-factor section of the special orthogonal group around the base point g.

    The unitary structure on the low block of h is the polar transport of the
    canonical block structure on the low block of g; the path is
    exp(t log_0(eps(h))) exp(t pi J_h) with eps(h) = h exp(-pi J_h).  g and
    h are split in one `so_spectral_split` call on their concatenated stack.
    A stack is split by low-block rank, as `projector_basis` takes one rank per stack.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    pair = np.stack([g, h])
    n = g.shape[-1]
    try:
        low_g, low_h = so_spectral_split(pair.reshape(-1, n, n), r)[0].reshape(pair.shape)
    except ChartError as exc:
        raise ChartError(str(exc), np.any(np.reshape(exc.mask, pair.shape[:-2]), axis=0)) from None
    rank_g = projector_rank(low_g)
    mismatch = rank_g != projector_rank(low_h)
    if np.any(mismatch):
        raise ChartError("low-block ranks differ; h is outside the chart of g", mismatch)
    j_h = np.zeros(g.shape)
    singular = np.zeros(rank_g.shape, dtype=bool)
    for rank in sorted(set(rank_g[rank_g > 0].tolist())):
        entries = rank_g == rank
        u, sing, vt = np.linalg.svd(low_h[entries] @ projector_basis(low_g[entries]), full_matrices=False)
        singular[entries] = sing[..., 0] >= CONDITION_BOUND * sing[..., -1]
        frame_h = u @ vt  # polar orthonormalisation of the transported frame
        j_h[entries] = frame_h @ block_structure(np.eye(rank)) @ frame_h.swapaxes(-1, -2)
    if np.any(singular):
        raise ChartError("projection between low blocks is not an isomorphism", singular)
    eps = h @ (np.eye(n) - 2.0 * low_h)
    principal = log_branch(eps, 0.0)  # rejects eps(h) with eigenvalue -1, the chart boundary
    if np.max(np.abs(principal.imag)) > 1e-9:
        raise ValueError("principal log of eps(h) failed to be real")
    return PathElement([principal.real.astype(complex), np.pi * j_h], group="SO")
