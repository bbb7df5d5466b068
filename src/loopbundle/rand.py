"""Seeded random generators for matrices used across sweeps and tests."""

import numpy as np


def random_unitary(rng, n):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_special_unitary(rng, n):
    u = random_unitary(rng, n)
    u = u.copy()
    u[:, 0] *= np.conj(np.linalg.det(u))
    return u


def random_special_orthogonal(rng, n):
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def random_skew(rng, n, real=False, scale=1.0):
    """Random skew-symmetric (real) or skew-hermitian (complex) matrix."""
    if real:
        a = rng.standard_normal((n, n))
        return scale * (a - a.T) / 2.0
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a - a.conj().T) / 2.0


def random_unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
