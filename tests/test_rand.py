"""The one-draw helpers against the per-matrix recipes they replace, bit for bit."""

import numpy as np
import pytest

from loopbundle import rand


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _special_unitary(rng, n):
    u = _unitary(rng, n)
    u[:, 0] *= np.conj(np.linalg.det(u))
    return u


def _special_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _haar_special_unitary(rng, n):
    return rand.haar_unitary(rand.gaussian(rng, (n, n)), special=True)


def _unit_vectors(rng, n):
    return rand.unit_vectors(rand.gaussian(rng, n))


RECIPES = [
    (rand.random_unitary, _unitary),
    (_haar_special_unitary, _special_unitary),
    (rand.random_special_orthogonal, _special_orthogonal),
    (_unit_vectors, _unit_vector),
]


@pytest.mark.parametrize("helper, recipe", RECIPES, ids=[helper.__name__.lstrip("_") for helper, _ in RECIPES])
def test_each_helper_is_its_per_matrix_recipe(helper, recipe):
    ours, theirs = np.random.default_rng(21), np.random.default_rng(21)
    for n in [1, 2, 3, 4, 5, 6] * 4:
        a, b = helper(ours, n), recipe(theirs, n)
        assert a.dtype == b.dtype and np.array_equal(a, b), n
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("real", [True, False])
def test_random_skew_is_the_scaled_skew_part(real):
    ours, theirs = np.random.default_rng(22), np.random.default_rng(22)
    for n in range(1, 7):
        if real:
            a = theirs.standard_normal((n, n))
            expected = 0.3 * (a - a.T) / 2.0
        else:
            a = theirs.standard_normal((n, n)) + 1j * theirs.standard_normal((n, n))
            expected = 0.3 * (a - a.conj().T) / 2.0
        assert np.array_equal(rand.random_skew(ours, n, real=real, scale=0.3), expected)
