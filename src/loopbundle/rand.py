"""Seeded random generators for matrices used across sweeps and tests.

A draw is two steps: raw standard normals from the generator (`gaussian`),
then a factorisation that maps them into the group (`haar_unitary`,
`haar_special_orthogonal`, `unit_vectors`, `skew_part`).  The factorisations
take a stack of draws (a leading axis of k entries) as well as one, and work
entry by entry; the `random_*` helpers are one draw through the same code.
A sweep can so draw every trial's normals in trial order and factorise each
dimension's draws in one call without moving the generator stream.
"""

import numpy as np


def gaussian(rng, shape, real=False):
    """Standard normals of the given shape; a complex draw takes all real parts, then all imaginary parts."""
    if real:
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(z, special=False):
    """Haar-distributed unitaries from complex Gaussian matrices z ([k,] n, n).

    The QR factor Q with the phases of diag(R) divided out (Mezzadri, How to
    generate random matrices from the classical compact groups, Notices AMS
    54, 2007); special=True then scales the first column by the conjugate
    determinant, which puts the matrix in SU(n).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    if special:
        u[..., :, 0] *= np.conj(np.linalg.det(u))[..., None]
    return u


def haar_special_orthogonal(m):
    """Haar-distributed special orthogonal matrices from real Gaussian matrices m ([k,] n, n).

    The sign-fixed QR factor, with its first column negated where its determinant is -1.
    """
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., :, 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q


def unit_vectors(v):
    """Each complex Gaussian vector of v ([k,] n) divided by its norm.

    The norm is sqrt(re.re + im.im) by dot products (row times column), as
    `np.linalg.norm` takes it for one vector, so a stack and a lone vector round alike.
    """
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norm2 = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    return v / np.sqrt(norm2)[..., None]


def skew_part(a, scale=1.0):
    """scale (a - a*) / 2 for each matrix of a ([k,] n, n): skew-symmetric or skew-hermitian."""
    return scale * (a - a.conj().swapaxes(-1, -2)) / 2.0


def random_unitary(rng, n):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return haar_unitary(gaussian(rng, (n, n)))


def random_special_orthogonal(rng, n):
    return haar_special_orthogonal(gaussian(rng, (n, n), real=True))


def random_skew(rng, n, real=False, scale=1.0):
    """Random skew-symmetric (real) or skew-hermitian (complex) matrix."""
    return skew_part(gaussian(rng, (n, n), real=real), scale)
