"""Finitely supported Fourier series with matrix coefficients.

A polynomial matrix loop is a map from the circle to complex n-by-n matrices of
the form

    a(t) = sum_k A_k exp(2 pi i k t),        finitely many A_k nonzero,

i.e. a Laurent polynomial in z = exp(2 pi i t) with matrix coefficients.  This
module holds the coefficient arithmetic (convolution product, pointwise
evaluation), membership residuals for the classical groups, the FFT
projection, and `certify`, the package's one test that a loop is such a
trigonometric polynomial: one sample grid, one FFT, one relative residual.
Every residual is `relative_tail`, the one Fourier tail formula.  A
certificate's grid is the smallest power of two N >= CERT_GRID with degree <
N/4: the DFT of a trigonometric polynomial of degree d is exact on N > 2d
points, and the quarter rule leaves room for the tail window beyond the degree.

Conventions: mode indices are integers k, the sample grid has a power-of-two
size N_s, and samples live at t_i = i / N_s.  A loop tagged as real satisfies
A_{-k} = conj(A_k) entrywise, which is equivalent to a(t) being a real matrix
for every t.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

REAL_TAG_TOL = 1e-12
DEFAULT_GRID = 1024
# modes a certificate keeps beyond the degree its path predicts
CERT_GUARD = 4
# smallest grid a certificate samples; the quarter rule doubles it for higher degrees
CERT_GRID = 64


def _as_coeff(dim, value):
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"coefficient shape {arr.shape} does not match dim {dim}")
    return arr


@dataclass(frozen=True)
class MatrixLoop:
    """Laurent polynomial loop with matrix coefficients.

    coeffs maps the integer mode k to the (dim, dim) complex coefficient A_k.
    field is "complex" or "real"; real-tagged loops must satisfy
    A_{-k} = conj(A_k) to 1e-12.
    """

    dim: int
    coeffs: dict
    field: str = "complex"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.field not in ("real", "complex"):
            raise ValueError(f"unknown field tag {self.field!r}")
        clean = {}
        for k, value in self.coeffs.items():
            clean[int(k)] = _as_coeff(self.dim, value)
        object.__setattr__(self, "coeffs", clean)
        if self.field == "real":
            scale = max(1.0, self.norm())
            for k, value in clean.items():
                mate = clean.get(-k)
                mate = np.zeros((self.dim, self.dim)) if mate is None else mate
                if np.max(np.abs(mate - value.conj())) > REAL_TAG_TOL * scale:
                    raise ValueError("real-tagged loop violates A_{-k} = conj(A_k)")

    @property
    def degree(self):
        """Largest |k| with a nonzero coefficient (0 for the zero loop)."""
        live = [abs(k) for k, a in self.coeffs.items() if np.any(a != 0)]
        return max(live, default=0)

    def coeff(self, k):
        value = self.coeffs.get(int(k))
        if value is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return value

    def norm(self):
        """l2 norm of the coefficient family, sqrt(sum_k ||A_k||_F^2)."""
        return float(np.sqrt(sum(np.sum(np.abs(a) ** 2) for a in self.coeffs.values())))


def check_grid(grid):
    """Raise ValueError unless the sample grid is a power of two >= 2: the grid rule's one check and message."""
    if grid < 2 or grid & (grid - 1):
        raise ValueError(f"grid size {grid} is not a power of two")


@dataclass(frozen=True)
class SampledLoop:
    """Matrix loop sampled on the uniform grid t_i = i / N_s, N_s a power of two: values (N_s, dim, dim)."""

    values: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("values must have shape (N_s, dim, dim)")
        check_grid(arr.shape[0])
        object.__setattr__(self, "values", arr)

    @property
    def grid(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


def identity_loop(dim, field="real"):
    return MatrixLoop(dim=dim, coeffs={0: np.eye(dim)}, field=field)


def laurent_mul(a, b):
    """Convolution product of two matrix loops, (ab)_k = sum_j A_j B_{k-j}."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    out = {}
    for j, aj in a.coeffs.items():
        for m, bm in b.coeffs.items():
            k = j + m
            prod = aj @ bm
            if k in out:
                out[k] = out[k] + prod
            else:
                out[k] = prod
    tag = "real" if a.field == "real" and b.field == "real" else "complex"
    return MatrixLoop(dim=a.dim, coeffs=out, field=tag)


def laurent_eval(a, t):
    """Evaluate a(t) = sum_k A_k exp(2 pi i k t) at scalar or array t.

    Returns a complex matrix; real-tagged loops evaluate to matrices whose
    imaginary part is at round-off level.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not a.coeffs:
        out = np.zeros((ts.size, a.dim, a.dim), dtype=complex)
    else:
        ks = np.array(sorted(a.coeffs), dtype=float)
        stack = np.stack([a.coeffs[int(k)] for k in ks])
        phases = np.exp(2j * np.pi * np.outer(ts, ks))
        out = np.einsum("mk,kij->mij", phases, stack)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out


def sample_loop(a, grid=DEFAULT_GRID):
    """Sample a matrix loop on the uniform power-of-two grid."""
    return SampledLoop(values=laurent_eval(a, np.arange(grid) / grid))


def group_residual(a, group, samples=256):
    """Max distance of a(t) from the given matrix group over a sample grid.

    group is one of "U", "SU", "SO".  The residual is the Frobenius norm of
    a(t)* a(t) - I, plus |det a(t) - 1| for SU and SO, plus the norm of the
    imaginary part for SO.
    """
    if group not in ("U", "SU", "SO"):
        raise ValueError(f"unknown group {group!r}")
    return float(sampled_group_residual(laurent_eval(a, np.arange(samples) / samples), group))


def group_defects(vals, group):
    """Per-sample distances of vals ([k,] samples, n, n) from the group, by kind, in summation order.

    "unitary" is the Frobenius norm of v* v - I; SU and SO add "det", |det v - 1|;
    SO adds "real", the Frobenius norm of the imaginary part.  Each determinant
    is taken once, so a caller that also reports the determinant reads it here.
    """
    gram = vals.conj().swapaxes(-1, -2) @ vals
    gram -= np.eye(vals.shape[-1])
    defects = {"unitary": np.sqrt(np.sum(np.square(np.abs(gram)), axis=(-2, -1)))}
    if group in ("SU", "SO"):
        defects["det"] = np.abs(np.linalg.det(vals) - 1.0)
    if group == "SO":
        defects["real"] = np.linalg.norm(vals.imag, axis=(-2, -1))
    return defects


def sampled_group_residual(vals, group):
    """The `group_residual` measure over given samples vals of shape ([k,] samples, n, n), one per entry.

    The sum of the `group_defects` of each sample, maximised over the samples.
    """
    return sum(group_defects(vals, group).values()).max(axis=-1)


def _within_quarter(degree, grid):
    """The quarter rule: a tail window beyond degree d needs d < grid/4."""
    return np.asarray(degree) < grid // 4


def check_quarter_rule(degree, grid):
    """Raise ValueError unless every degree keeps the quarter rule on the grid: the rule's one check and message."""
    degree = np.asarray(degree)
    if not np.all(_within_quarter(degree, grid)):
        raise ValueError(f"degree {degree.max()} must be < grid/4 = {grid // 4}")


def relative_tail(spectrum, degree):
    """Relative l2 mass of an FFT spectrum outside the modes |k| <= degree, one degree per entry.

    spectrum has the axes of degree first (none for one loop), then the mode
    axis in FFT order, then the value axes, over which a mode's mass is
    summed.  Each degree must keep the quarter rule (`check_quarter_rule`); the zero loop has residual 0.
    """
    degree = np.asarray(degree)
    grid = spectrum.shape[degree.ndim]
    check_quarter_rule(degree, grid)
    mass2 = np.sum(spectrum.real**2 + spectrum.imag**2, axis=tuple(range(degree.ndim + 1, spectrum.ndim)))
    outside = np.abs(np.fft.fftfreq(grid, 1.0 / grid)) > degree[..., None]
    total = np.sqrt(np.sum(mass2, axis=-1))
    return np.sqrt(np.sum(mass2 * outside, axis=-1)) / np.where(total > 0, total, 1.0)


def fourier_project(s, max_mode):
    """Project a sampled matrix loop onto modes |k| <= max_mode.

    Returns (MatrixLoop, residual), residual the `relative_tail` outside the
    window.  Exact (to round-off) for trigonometric polynomials of degree below
    a quarter of the grid size.  Coefficients no larger than 1e-14 max(total, 1)
    times max(1, max_mode / 16) are dropped as round-off, total the l2 mass.
    """
    spectrum = np.fft.fft(s.values, axis=0) / s.grid
    residual = float(relative_tail(spectrum, max_mode))
    total = float(np.linalg.norm(spectrum))
    # FFT order: modes 0..max_mode lead, -max_mode..-1 close
    window = np.concatenate([spectrum[s.grid - max_mode :], spectrum[: max_mode + 1]])
    # the phase error of exp(2 pi i k t) grows like k eps, so the floor grows with the window; it is absolute below
    # unit mass, so a near-zero loop keeps no round-off, and sits at FFT round-off, far below the other floors,
    # because the kept coefficients are a MatrixLoop that later products treat as exact
    floor = 1e-14 * max(total, 1.0) * max(1.0, max_mode / 16)
    live = np.max(np.abs(window), axis=(1, 2)) > floor
    coeffs = {k: window[i] for i, k in enumerate(range(-max_mode, max_mode + 1)) if live[i]}
    tag = "real" if float(np.max(np.abs(s.values.imag), initial=0.0)) <= REAL_TAG_TOL * max(total, 1.0) else "complex"
    if tag == "real":
        # symmetrize so the real invariant holds exactly despite FFT round-off
        sym = {}
        for k, value in coeffs.items():
            mate = coeffs.get(-k, np.zeros_like(value))
            sym[k] = 0.5 * (value + mate.conj())
        coeffs = sym
    return MatrixLoop(dim=s.dim, coeffs=coeffs, field=tag), residual


def certify(path, degree):
    """Polynomiality certificate of the matrix loop t -> path(t): its relative tail beyond the degree.

    Samples path once, on the smallest power of two grid >= CERT_GRID that
    keeps the quarter rule, and returns the `relative_tail` of one FFT of the
    samples.  A single path (times -> (len, n, n) values) takes one degree
    and gets a 0-d residual; a stacked path (times -> (k, len, n, n) values)
    takes one degree per entry and gets one residual per entry, each entry on
    its own grid and window, the entries sharing a grid sampled and
    transformed at once.  A single path is the stack of one without its axis.
    """
    degree = np.asarray(degree)
    grids = np.full(degree.shape, CERT_GRID)
    while not np.all(_within_quarter(degree, grids)):
        grids = np.where(_within_quarter(degree, grids), grids, 2 * grids)
    residuals = np.zeros(degree.shape)
    for grid in np.unique(grids):
        # a 0-d mask adds the stack axis to a single path's samples, and its assignment drops it again
        entries = grids == grid
        spectrum = path(np.arange(grid) / grid)[entries]
        np.fft.fft(spectrum, axis=1, out=spectrum)
        residuals[entries] = relative_tail(spectrum, degree[entries])
    return residuals


def polynomiality_residual(s, max_mode):
    """The `relative_tail` of a sampled loop outside modes |k| <= max_mode."""
    return float(relative_tail(np.fft.fft(s.values, axis=0), max_mode))
