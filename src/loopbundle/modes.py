"""Fourier-mode models of loop function spaces and their diagnostic operators.

A vector-valued loop f(t) = sum_p a_p exp(2 pi i t p) is stored as the finite
coefficient family (a_p)_{|p| <= P}.  On top of that sit:

* the plain and annulus-weighted norms  ||f||^2 = sum ||a_p||^2  and
  ||f||_r^2 = sum r^{2|p|} ||a_p||^2  (the latter is the natural norm for
  loops extending holomorphically over the annulus of radii (1/r, r));
* the shifted mode derivative that multiplies the mode (p, j) written in a
  chosen orthonormal frame {v_j} with shifts {s_j} by i (p + s_j);
* the cosh re-weighting  e_{p,j} -> cosh((p + s_j) ln r) e_{p,j}  which is an
  isometric isomorphism from the weighted space onto the plain one; its weight
  `cosh_weight` is the package's one cosh(x ln r), which the fibre bases read too;
* the polarization that multiplies mode p by i sign(p) (sign(0) = +1);
* multiplication operators by polynomial matrix loops, together with the
  Hilbert-Schmidt size of their commutator with the polarization.  Finiteness
  of that commutator is exactly the membership condition for the restricted
  linear group, and the closed form for polynomial symbols is

      HS^2 = sum_k 4 |k| ||A_k||_F^2 ,

  shipped here and cross-checked against a brute-force truncated matrix.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

BASIS_GRAM_TOL = 1e-12


@dataclass(frozen=True)
class LoopVector:
    """Truncated Fourier coefficients of a vector-valued loop.

    coeffs[p + P] is the C^dim coefficient of exp(2 pi i p t), |p| <= P.
    """

    dim: int
    mode_bound: int
    coeffs: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if self.dim < 1 or self.mode_bound < 0:
            raise ValueError("dim must be >= 1 and mode_bound >= 0")
        if arr.shape != (2 * self.mode_bound + 1, self.dim):
            raise ValueError(
                f"coeffs shape {arr.shape} does not match (2P+1, dim) = "
                f"({2 * self.mode_bound + 1}, {self.dim})"
            )
        object.__setattr__(self, "coeffs", arr)

    @property
    def modes(self):
        return np.arange(-self.mode_bound, self.mode_bound + 1)

    def coeff(self, p):
        if abs(p) > self.mode_bound:
            return np.zeros(self.dim, dtype=complex)
        return self.coeffs[p + self.mode_bound]


@dataclass(frozen=True)
class ShiftData:
    """Orthonormal frame {v_j} (columns of basis) with real shifts {s_j}."""

    basis: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        shifts = np.asarray(self.shifts, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("basis must be a square matrix of column vectors")
        if shifts.shape != (basis.shape[0],):
            raise ValueError("need exactly one shift per basis vector")
        gram = basis.conj().T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > BASIS_GRAM_TOL:
            raise ValueError("basis is not orthonormal to 1e-12")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "shifts", shifts)

    @property
    def dim(self):
        return self.basis.shape[0]


def trivial_shift_data(dim, shifts=None):
    """Standard basis with zero (or given) shifts."""
    s = np.zeros(dim) if shifts is None else np.asarray(shifts, dtype=float)
    return ShiftData(basis=np.eye(dim), shifts=s)


def basis_vector(dim, p, j, mode_bound=None, frame=None):
    """The loop e_{p,j} = v_j z^p as a LoopVector (v_j standard unless frame given)."""
    bound = abs(p) if mode_bound is None else mode_bound
    if abs(p) > bound or not 0 <= j < dim:
        raise ValueError(f"no basis vector e_{{{p},{j}}} with |p| <= {bound} and 0 <= j < {dim}")
    arr = np.zeros((2 * bound + 1, dim), dtype=complex)
    v = np.eye(dim)[:, j] if frame is None else frame.basis[:, j]
    arr[p + bound] = v
    return LoopVector(dim=dim, mode_bound=bound, coeffs=arr)


def l2_norm(v):
    """sqrt(sum_p ||a_p||^2)."""
    return float(np.linalg.norm(v.coeffs))


def l2r_norm(v, r):
    """Annulus norm sqrt(sum_p r^{2|p|} ||a_p||^2), defined for r > 1."""
    if r <= 1.0:
        raise ValueError("l2r_norm requires r > 1")
    weights = float(r) ** np.abs(v.modes)
    return float(np.linalg.norm(weights[:, None] * v.coeffs))


def _frame_scale(v, s, scale_of_mode, divide=False):
    """Rescale coefficients written in the frame of s by scale_of_mode(p, s_j).

    With divide=True the coefficients are divided componentwise by the (real)
    scales -- the correctly rounded complex-by-real quotient, which numpy's
    promoted complex division is not.  Weighting and then unweighting is then
    bit-exact on basis modes (1 * c = c and c / c = 1).
    """
    if s.dim != v.dim:
        raise ValueError(f"dimension mismatch {s.dim} != {v.dim}")
    frame_coeffs = v.coeffs @ s.basis.conj()  # row p holds components over {v_j}
    scales = scale_of_mode(v.modes[:, None].astype(float), s.shifts[None, :])
    if divide:
        scaled = frame_coeffs.real / scales + 1j * (frame_coeffs.imag / scales)
    else:
        scaled = scales * frame_coeffs
    out = scaled @ s.basis.T
    return LoopVector(dim=v.dim, mode_bound=v.mode_bound, coeffs=out)


def apply_mode_derivative(v, s):
    """Shifted derivative: mode (p, j) in the frame of s scales by i (p + s_j)."""
    return _frame_scale(v, s, lambda p, sj: 1j * (p + sj))


def cosh_weight(x, r):
    """cosh(x ln r) at each x, the co-orthogonal weight of a mode with shifted eigenvalue x; needs r > 1."""
    if r <= 1.0:
        raise ValueError("weight parameter must satisfy r > 1")
    return np.cosh(np.asarray(x) * np.log(float(r)))


def apply_cosh_weight(v, s, r):
    """Mode (p, j) scales by cosh((p + s_j) ln r); isometry onto the plain norm."""
    return _frame_scale(v, s, lambda p, sj: cosh_weight(p + sj, r))


def apply_cosh_weight_inverse(v, s, r):
    """Inverse of apply_cosh_weight (divides by the same cosh weights)."""
    return _frame_scale(v, s, lambda p, sj: cosh_weight(p + sj, r), divide=True)


def apply_polarization(v):
    """Mode p scales by i sign(p), with sign(0) = +1."""
    signs = np.where(v.modes >= 0, 1.0, -1.0)
    return LoopVector(dim=v.dim, mode_bound=v.mode_bound, coeffs=1j * signs[:, None] * v.coeffs)


def apply_loop(a, v):
    """Multiplication operator: coefficient at p of a*v is sum_k A_k a_{p-k}.

    The output mode bound grows to P + deg(a); nothing is clipped.
    """
    if a.dim != v.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {v.dim}")
    out_bound = v.mode_bound + a.degree
    out = np.zeros((2 * out_bound + 1, v.dim), dtype=complex)
    for k, ak in a.coeffs.items():
        if abs(k) > a.degree:
            continue
        lo = k - v.mode_bound + out_bound
        out[lo : lo + 2 * v.mode_bound + 1] += v.coeffs @ ak.T
    return LoopVector(dim=v.dim, mode_bound=out_bound, coeffs=out)


def hs_commutator_norm(a):
    """Hilbert-Schmidt norm of [M_a, J] for a polynomial matrix loop a.

    Closed form: the commutator couples the modes q and q + k exactly when the
    polarization sign flips between them, which happens for |k| values of q per
    coefficient A_k, each contributing |i(sign(q) - sign(q+k))|^2 = 4 times
    ||A_k||_F^2.  Hence HS^2 = sum_k 4 |k| ||A_k||_F^2.
    """
    total = 0.0
    for k, ak in a.coeffs.items():
        total += 4.0 * abs(k) * float(np.sum(np.abs(ak) ** 2))
    return float(np.sqrt(total))


def hs_commutator_norm_truncated(a, mode_bound=64):
    """Brute-force HS norm of [M_a, J] on the truncated mode window |p| <= bound.

    Assembles the dense matrix of the multiplication operator on the window
    and takes the Frobenius norm of its literal commutator with the
    polarization.  The polarization is diagonal, J = diag(d), so the
    commutator M J - J M is M scaled entrywise by d_col - d_row.  Exact once
    mode_bound exceeds deg(a), since every coupling sits within |q| <= deg(a)
    of the sign boundary.  For the same reason the truncated commutator
    vanishes outside |p| <= deg(a), so the matrix is built on the window
    min(mode_bound, deg(a) + 1), which holds all of it; a window below the
    degree still truncates (z^3 on |p| <= 1 reads 0).
    """
    mode_bound = min(mode_bound, a.degree + 1)
    modes = np.arange(-mode_bound, mode_bound + 1)
    width = modes.size
    n = a.dim
    mult = np.zeros((width, n, width, n), dtype=complex)
    for k, ak in a.coeffs.items():
        rows = modes[np.abs(modes - k) <= mode_bound]
        mult[rows + mode_bound, :, rows - k + mode_bound, :] = ak
    mult = mult.reshape(width * n, width * n)
    pol = np.repeat(1j * np.where(modes >= 0, 1.0, -1.0), n)
    comm = mult * (pol[None, :] - pol[:, None])
    return float(np.linalg.norm(comm))


def conjugated_hs_tail(a, s, r, mode_bound):
    """Partial HS sums of [cos_r^{-1} M_a cos_r, J] over source modes |q| <= P.

    Returns the increasing sequence (P = 0..mode_bound) of truncated
    Hilbert-Schmidt norms of the conjugated commutator in the standard mode
    basis.  For polynomial a the couplings stop at |q| <= deg(a), so the
    sequence is Cauchy (eventually constant), and as r -> 1 the limit value
    recovers hs_commutator_norm(a).
    """
    # row q + span holds cosh((q + s_j) ln r) for every mode q + k reached; built first, so a constant loop checks r too
    span = mode_bound + max(map(abs, a.coeffs), default=0)
    weights = cosh_weight(np.arange(-span, span + 1)[:, None] + s.shifts, r)
    if s.dim != a.dim:
        raise ValueError(f"dimension mismatch {s.dim} != {a.dim}")
    frame = s.basis
    per_mode = np.zeros(mode_bound + 1)
    for k, ak in a.coeffs.items():
        ak_frame = frame.conj().T @ ak @ frame
        for q in range(-mode_bound, mode_bound + 1):
            sign_jump = (1.0 if q >= 0 else -1.0) - (1.0 if q + k >= 0 else -1.0)
            if sign_jump == 0.0:
                continue
            # ratio of cosh weights, rows j' of ak_frame target mode q + k
            num = weights[q + span]
            den = weights[q + k + span]
            ratios = np.abs(ak_frame) ** 2 * (num[None, :] ** 2)
            ratios = ratios / (den[:, None] ** 2)
            per_mode[abs(q)] += sign_jump**2 * float(np.sum(ratios))
    return np.sqrt(np.cumsum(per_mode))
