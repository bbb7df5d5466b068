"""Weighted mode spaces: norms, diagonal operators, loop action, HS diagnostics."""

import numpy as np
import pytest

from loopbundle import (
    LoopVector,
    MatrixLoop,
    ShiftData,
    apply_cosh_weight,
    apply_cosh_weight_inverse,
    apply_loop,
    apply_mode_derivative,
    apply_polarization,
    basis_vector,
    conjugated_hs_tail,
    hs_commutator_norm,
    hs_commutator_norm_truncated,
    l2_norm,
    l2r_norm,
    trivial_shift_data,
)


def vector(dim, entries):
    bound = max(abs(p) for p in entries)
    arr = np.zeros((2 * bound + 1, dim), dtype=complex)
    for p, coeff in entries.items():
        arr[p + bound] = coeff
    return LoopVector(dim=dim, mode_bound=bound, coeffs=arr)


def scalar_loop(coeffs):
    return MatrixLoop(dim=1, field="complex", coeffs={k: np.eye(1) * v for k, v in coeffs.items()})


def test_norms_of_basis_vector():
    e = basis_vector(2, 0, 1)
    assert l2_norm(e) == 1.0
    assert l2r_norm(e, 2.0) == 1.0


def test_weighted_norm_mode_two():
    e = basis_vector(1, 2, 0)
    assert l2r_norm(e, 2.0) == 4.0


def test_weighted_norm_symmetric_pair():
    v = vector(1, {1: np.array([1.0]), -1: np.array([1.0])})
    assert l2r_norm(v, 3.0) == pytest.approx(3 * np.sqrt(2), abs=1e-14)


def test_weighted_norm_requires_annulus():
    with pytest.raises(ValueError):
        l2r_norm(basis_vector(1, 0, 0), 1.0)


@pytest.mark.parametrize(
    "dim,p,j,bound",
    [(2, -5, 0, 2), (2, 3, 0, 2), (2, 0, -1, 1), (2, 0, 2, 1), (1, 0, 1, None)],
)
def test_basis_vector_rejects_indices_outside_its_window(dim, p, j, bound):
    """|p| > mode_bound or j outside [0, dim) names no basis vector; a negative index must not wrap to another."""
    with pytest.raises(ValueError, match="no basis vector"):
        basis_vector(dim, p, j, mode_bound=bound)


def test_mode_derivative_unit_shift():
    s = trivial_shift_data(1)
    out = apply_mode_derivative(basis_vector(1, 1, 0), s)
    assert out.coeff(1)[0] == 1j


def test_mode_derivative_kernel():
    s = trivial_shift_data(3)
    out = apply_mode_derivative(basis_vector(3, 0, 2), s)
    assert l2_norm(out) == 0.0


def test_mode_derivative_half_shift():
    s = trivial_shift_data(1, shifts=[0.5])
    out = apply_mode_derivative(basis_vector(1, 2, 0), s)
    assert out.coeff(2)[0] == 2.5j


def test_shift_data_rejects_skew_frame():
    with pytest.raises(ValueError):
        ShiftData(basis=np.array([[1.0, 0.5], [0.0, 1.0]]), shifts=np.zeros(2))


def test_cosh_weight_spot_values():
    s = trivial_shift_data(1)
    up = apply_cosh_weight(basis_vector(1, 1, 0), s, 2.0)
    assert up.coeff(1)[0] == 1.25
    down = apply_cosh_weight(basis_vector(1, -2, 0), s, 2.0)
    assert down.coeff(-2)[0] == 2.125
    fixed = apply_cosh_weight(basis_vector(1, 0, 0), s, 7.5)
    assert fixed.coeff(0)[0] == 1.0


def test_cosh_weight_roundtrip():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    v = LoopVector(dim=3, mode_bound=4, coeffs=arr)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    s = ShiftData(basis=q, shifts=rng.uniform(-0.5, 0.5, size=3))
    back = apply_cosh_weight_inverse(apply_cosh_weight(v, s, 2.0), s, 2.0)
    assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-12


def test_polarization_signs_and_square():
    up = apply_polarization(basis_vector(1, 3, 0))
    assert up.coeff(3)[0] == 1j
    down = apply_polarization(basis_vector(1, -3, 0))
    assert down.coeff(-3)[0] == -1j
    rng = np.random.default_rng(8)
    arr = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    v = LoopVector(dim=2, mode_bound=3, coeffs=arr)
    twice = apply_polarization(apply_polarization(v))
    assert np.max(np.abs(twice.coeffs + v.coeffs)) == 0.0


def test_weight_conjugated_polarization_is_exact_on_basis_modes():
    """(cosh weight)^-1 . polarization . (cosh weight) fixes every basis mode bit for bit."""
    s = trivial_shift_data(2, shifts=[0.3, -0.2])
    worst = 0.0
    for p in range(-5, 6):
        for j in range(2):
            e = basis_vector(2, p, j)
            lhs = apply_cosh_weight_inverse(apply_polarization(apply_cosh_weight(e, s, 2.0)), s, 2.0)
            rhs = apply_polarization(e)
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    assert worst == 0.0


def test_loop_action_shifts_modes():
    z = scalar_loop({1: 1.0})
    out = apply_loop(z, basis_vector(1, 0, 0))
    assert out.coeff(1)[0] == 1.0
    assert l2_norm(out) == 1.0


def test_loop_action_componentwise_shift():
    a = MatrixLoop(dim=2, field="complex", coeffs={1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    v = vector(2, {0: np.array([1.0, 1.0])})
    out = apply_loop(a, v)
    assert np.allclose(out.coeff(1), [1.0, 0.0], atol=1e-14)
    assert np.allclose(out.coeff(-1), [0.0, 1.0], atol=1e-14)


def test_constant_unitary_action_is_isometry():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = MatrixLoop(dim=3, field="complex", coeffs={0: q})
    arr = rng.normal(size=(11, 3)) + 1j * rng.normal(size=(11, 3))
    v = LoopVector(dim=3, mode_bound=5, coeffs=arr)
    assert abs(l2_norm(apply_loop(a, v)) - l2_norm(v)) < 1e-10


def test_unitary_loop_action_not_weighted_isometry():
    # multiplication by z is unitary on l2 but scales the r-weighted norm
    z = scalar_loop({1: 1.0})
    e = basis_vector(1, 0, 0, mode_bound=1)
    out = apply_loop(z, e)
    assert abs(l2_norm(out) - 1.0) < 1e-14
    assert l2r_norm(out, 2.0) == 2.0 * l2r_norm(e, 2.0)


def test_loop_action_dimension_mismatch():
    z = scalar_loop({1: 1.0})
    with pytest.raises(ValueError):
        apply_loop(z, basis_vector(2, 0, 0))


def test_hs_norm_single_modes():
    assert hs_commutator_norm(scalar_loop({1: 1.0})) == 2.0
    assert hs_commutator_norm(scalar_loop({2: 1.0})) == pytest.approx(2 * np.sqrt(2), abs=1e-15)
    assert hs_commutator_norm(scalar_loop({0: 5.0})) == 0.0


def test_hs_truncated_oracle_is_exact_for_monomials():
    assert hs_commutator_norm_truncated(scalar_loop({1: 1.0}), mode_bound=64) == 2.0


def test_hs_closed_form_matches_truncated_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        ks = rng.integers(-3, 4, size=3)
        a = MatrixLoop(
            dim=dim,
            field="complex",
            coeffs={int(k): rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for k in ks},
        )
        closed = hs_commutator_norm(a)
        oracle = hs_commutator_norm_truncated(a, mode_bound=16)
        assert abs(closed - oracle) < 1e-10
        # the commutator is supported in |p| <= deg(a), so the truncation
        # level does not matter once it clears the degree
        assert abs(oracle - hs_commutator_norm_truncated(a, mode_bound=32)) < 1e-12


def dense_truncated_hs(a, window):
    """HS norm of [M_a, J] on |p| <= window, assembled block by block without reading the degree of a."""
    n, width = a.dim, 2 * window + 1
    mult = np.zeros((width, n, width, n), dtype=complex)
    for p in range(-window, window + 1):
        for k, ak in a.coeffs.items():
            if abs(p - k) <= window:
                mult[p + window, :, p - k + window, :] += ak
    mult = mult.reshape(width * n, width * n)
    signs = np.repeat([1j if p >= 0 else -1j for p in range(-window, window + 1)], n)
    return float(np.linalg.norm(mult * signs[None, :] - signs[:, None] * mult))  # M J - J M, J = diag(signs)


def test_hs_truncated_oracle_builds_only_the_window_its_degree_needs():
    loops = []
    for dim in range(1, 4):
        for k in range(-5, 6):
            for i in range(dim):
                for j in range(dim):
                    entry = np.zeros((dim, dim))
                    entry[i, j] = 1.0
                    loops.append(MatrixLoop(dim=dim, coeffs={k: entry}))
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        ks = {int(k) for k in rng.integers(-5, 6, size=3)}
        coeffs = {k: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for k in ks}
        loops.append(MatrixLoop(dim=dim, field="complex", coeffs=coeffs))
    for a in loops:
        dense = dense_truncated_hs(a, 64)
        assert abs(hs_commutator_norm_truncated(a, mode_bound=64) - dense) <= 1e-12 * (1.0 + dense)
        # a window below the degree still truncates
        for window in range(a.degree):
            dense = dense_truncated_hs(a, window)
            assert abs(hs_commutator_norm_truncated(a, mode_bound=window) - dense) <= 1e-12 * (1.0 + dense)
    z3 = scalar_loop({3: 1.0})
    assert hs_commutator_norm_truncated(z3, mode_bound=1) == 0.0
    assert hs_commutator_norm_truncated(z3, mode_bound=2) > 0.0


def test_conjugated_tail_stabilises():
    s = trivial_shift_data(1)
    tail = conjugated_hs_tail(scalar_loop({1: 1.0}), s, 2.0, 60)
    increments = np.abs(np.diff(tail[40:]))
    assert np.max(increments) < 1e-10
    # closed form: single off-diagonal entry of modulus 2 cosh(ln 2) survives
    assert abs(tail[-1] - 2.5) < 1e-12


def test_conjugated_tail_constant_loop_vanishes():
    s = trivial_shift_data(2)
    a = MatrixLoop(dim=2, field="complex", coeffs={0: np.array([[1.0, 2.0], [0.0, 1.0]])})
    tail = conjugated_hs_tail(a, s, 2.0, 30)
    assert np.max(np.abs(tail)) == 0.0


def test_conjugated_tail_continuous_at_r_one():
    s = trivial_shift_data(1)
    a = scalar_loop({1: 1.0})
    tail = conjugated_hs_tail(a, s, 1.0 + 1e-6, 60)
    assert abs(tail[-1] - hs_commutator_norm(a)) < 1e-4


def test_cosh_inequality_smoke():
    # cosh(t ln r) >= cosh((x+t) ln r) / r^|x| >= min(r^t, r^-t) / 2
    xs = np.linspace(-10.0, 10.0, 41)
    for r in (1.1, 2.0, 5.0):
        log_r = np.log(r)
        for t in xs:
            upper = np.cosh(t * log_r)
            lower = 0.5 * min(r**t, r**-t)
            for x in xs:
                mid = np.cosh((x + t) * log_r) / r ** abs(x)
                assert upper >= mid - 1e-12
                assert mid >= lower - 1e-12
