"""Laurent loop arithmetic, evaluation, group residuals and Fourier projection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopbundle import (
    MatrixLoop,
    SampledLoop,
    certify,
    fourier_project,
    group_residual,
    identity_loop,
    laurent_eval,
    laurent_mul,
    polynomiality_residual,
    sample_loop,
)
from loopbundle.laurent import CERT_GRID, check_grid, check_quarter_rule, relative_tail

GRID = 1024
EXACT_TOL = 1e-12

# l2 tails of exp(0.2 sin 2pi t), frozen from the modified-Bessel expansion
# sum_k I_k(0.2) z^k (scipy.special.iv, 60 terms); the FFT route must agree.
SLOW_TAIL_REL_N2 = 2.3173106733e-4
SLOW_TAIL_REL_N4 = 1.1574899794e-7
SLOW_TAIL_ABS_N2 = 2.3636589113e-4


def scalar_loop(coeffs, field="complex"):
    return MatrixLoop(dim=1, field=field, coeffs={k: np.eye(1) * v for k, v in coeffs.items()})


def test_product_of_inverse_pair_is_constant():
    a = scalar_loop({1: 1.0})
    b = scalar_loop({-1: 1.0})
    prod = laurent_mul(a, b)
    assert sorted(prod.coeffs) == [0]
    assert abs(prod.coeff(0)[0, 0] - 1.0) < EXACT_TOL


def test_square_of_one_plus_z():
    a = scalar_loop({0: 1.0, 1: 1.0})
    sq = laurent_mul(a, a)
    assert sorted(sq.coeffs) == [0, 1, 2]
    assert abs(sq.coeff(0)[0, 0] - 1.0) < EXACT_TOL
    assert abs(sq.coeff(1)[0, 0] - 2.0) < EXACT_TOL
    assert abs(sq.coeff(2)[0, 0] - 1.0) < EXACT_TOL


def test_identity_loop_is_neutral():
    rng = np.random.default_rng(3)
    a = MatrixLoop(
        dim=3,
        field="complex",
        coeffs={k: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for k in (-2, 0, 1)},
    )
    e = identity_loop(3, field="complex")
    for prod in (laurent_mul(a, e), laurent_mul(e, a)):
        for k in (-2, 0, 1):
            assert np.max(np.abs(prod.coeff(k) - a.coeff(k))) < EXACT_TOL


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_associative(seed):
    rng = np.random.default_rng(seed)
    loops = []
    for _ in range(3):
        ks = rng.integers(-3, 4, size=3)
        loops.append(
            MatrixLoop(
                dim=2,
                field="complex",
                coeffs={int(k): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for k in ks},
            )
        )
    a, b, c = loops
    left = laurent_mul(laurent_mul(a, b), c)
    right = laurent_mul(a, laurent_mul(b, c))
    for k in set(left.coeffs) | set(right.coeffs):
        assert np.max(np.abs(left.coeff(k) - right.coeff(k))) < 1e-10


def test_eval_monomial_quarter_turn():
    a = scalar_loop({1: 1.0})
    val = laurent_eval(a, 0.25)
    assert abs(val[0, 0] - 1j) < EXACT_TOL


def test_eval_real_cosine_loop():
    a = scalar_loop({1: 0.5, -1: 0.5}, field="real")
    ts = np.arange(64) / 64
    vals = laurent_eval(a, ts)
    assert np.max(np.abs(vals.imag)) < EXACT_TOL
    assert np.max(np.abs(vals[:, 0, 0].real - np.cos(2 * np.pi * ts))) < EXACT_TOL


def test_eval_diagonal_winding_at_half():
    a = MatrixLoop(dim=2, field="complex", coeffs={1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    val = laurent_eval(a, 0.5)
    assert np.max(np.abs(val - np.diag([-1.0, -1.0]))) < EXACT_TOL


def test_real_tag_closed_under_product():
    rng = np.random.default_rng(11)
    def real_loop():
        coeffs = {0: rng.normal(size=(2, 2))}
        for k in (1, 2):
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            coeffs[k] = c
            coeffs[-k] = c.conj()
        return MatrixLoop(dim=2, field="real", coeffs=coeffs)

    prod = laurent_mul(real_loop(), real_loop())
    assert prod.field == "real"
    vals = laurent_eval(prod, np.arange(64) / 64)
    assert np.max(np.abs(vals.imag)) < EXACT_TOL


def test_group_residual_diag_winding_in_su2():
    a = MatrixLoop(dim=2, field="complex", coeffs={1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    assert group_residual(a, "SU") < EXACT_TOL


def test_group_residual_detects_non_unitary():
    # 1 + z vanishes at t = 1/2, so the distance from U_1 reaches 1 there
    a = scalar_loop({0: 1.0, 1: 1.0})
    assert group_residual(a, "U") >= 1.0


def test_group_residual_constant_rotation():
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    a = MatrixLoop(dim=2, field="real", coeffs={0: rot})
    assert group_residual(a, "SO") < 1e-14


def test_group_residual_subadditive_on_products():
    rng = np.random.default_rng(5)
    def unitary_column_loop():
        # Blaschke-type factor (I - P) + z P with P a rank-one projector
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        p = np.outer(v, v.conj())
        return MatrixLoop(dim=2, field="complex", coeffs={0: np.eye(2) - p, 1: p})

    a, b = unitary_column_loop(), unitary_column_loop()
    lhs = group_residual(laurent_mul(a, b), "U")
    assert lhs <= group_residual(a, "U") + group_residual(b, "U") + 1e-10


def test_fourier_project_recovers_z_squared():
    a = scalar_loop({2: 1.0})
    loop, residual = fourier_project(sample_loop(a, GRID), 4)
    assert residual < EXACT_TOL
    assert sorted(loop.coeffs) == [2]
    assert abs(loop.coeff(2)[0, 0] - 1.0) < EXACT_TOL


def test_fourier_project_constant():
    a = MatrixLoop(dim=2, field="real", coeffs={0: np.eye(2)})
    loop, residual = fourier_project(sample_loop(a, GRID), 3)
    assert residual == 0.0
    assert sorted(loop.coeffs) == [0]


def test_fourier_project_roundtrip_random_polynomial():
    rng = np.random.default_rng(17)
    coeffs = {int(k): rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for k in range(-4, 5)}
    a = MatrixLoop(dim=3, field="complex", coeffs=coeffs)
    loop, residual = fourier_project(sample_loop(a, GRID), 4)
    assert residual < EXACT_TOL
    for k in coeffs:
        assert np.max(np.abs(loop.coeff(k) - a.coeff(k))) < EXACT_TOL


def test_fourier_project_rejects_aliasing_degree():
    a = scalar_loop({1: 1.0})
    s = sample_loop(a, 64)
    with pytest.raises(ValueError):
        fourier_project(s, 32)


def _fft_tail(values, max_mode):
    """Oracle: (tail, total) l2 masses of the normalised FFT, the tail sliced out of FFT order."""
    spectrum = np.fft.fft(values, axis=0) / values.shape[0]
    mass2 = np.abs(spectrum.reshape(values.shape[0], -1)) ** 2
    return np.sqrt(mass2[max_mode + 1 : values.shape[0] - max_mode].sum()), np.sqrt(mass2.sum())


def test_fourier_project_residual_is_the_relative_tail():
    rng = np.random.default_rng(19)
    ts = np.arange(GRID) / GRID
    weights = 3.0 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    s = SampledLoop(values=np.exp(0.2 * np.sin(2 * np.pi * ts))[:, None, None] * weights)
    tail, total = _fft_tail(s.values, 2)
    assert total > 2.0  # the absolute and relative tails differ
    for max_mode in (2, 4):
        residual = fourier_project(s, max_mode)[1]
        assert residual == polynomiality_residual(s, max_mode)
        assert residual == relative_tail(np.fft.fft(s.values, axis=0), max_mode)
    assert fourier_project(s, 2)[1] == pytest.approx(tail / total, rel=4 * np.finfo(float).eps, abs=0.0)
    assert fourier_project(SampledLoop(values=np.zeros((GRID, 2, 2))), 2)[1] == 0.0


def test_the_quarter_rule_has_one_check_and_one_message():
    check_quarter_rule(np.array([0, 15]), 64)
    message = r"^degree 16 must be < grid/4 = 16$"
    with pytest.raises(ValueError, match=message):
        check_quarter_rule(np.array([3, 16]), 64)
    with pytest.raises(ValueError, match=message):
        relative_tail(np.ones((2, 64)), np.array([3, 16]))
    with pytest.raises(ValueError, match=message):
        relative_tail(np.ones(64), 16)


def test_the_grid_rule_has_one_check_and_one_message():
    for grid in (2, 4, 1024):
        check_grid(grid)
        assert SampledLoop(values=np.zeros((grid, 1, 1))).grid == grid
    for grid in (129, 0, 1, -4, 96):
        message = rf"^grid size {grid} is not a power of two$"
        with pytest.raises(ValueError, match=message):
            check_grid(grid)
        if grid >= 0:  # a sample count
            with pytest.raises(ValueError, match=message):
                SampledLoop(values=np.zeros((grid, 1, 1)))


@pytest.mark.parametrize(
    "degree, grid",
    [
        (0, CERT_GRID),
        (CERT_GRID // 4 - 1, CERT_GRID),
        (CERT_GRID // 4, 2 * CERT_GRID),
        (255, 16 * CERT_GRID),
        (256, 32 * CERT_GRID),
        (600, 64 * CERT_GRID),
    ],
)
def test_certify_samples_once_on_the_quarter_rule_grid(degree, grid):
    seen, samples = [], []

    def path(ts):
        seen.append(ts)
        samples.append(np.exp(2j * np.pi * degree * ts)[:, None, None])
        return samples[-1]

    residual = certify(path, degree)
    assert [len(ts) for ts in seen] == [grid]
    assert np.array_equal(seen[0], np.arange(grid) / grid)
    assert residual.shape == ()
    assert residual < 1e-12
    # the round-off of the phases stays below the degree-scaled floor: one mode is kept
    loop, _ = fourier_project(SampledLoop(values=samples[0]), degree)
    assert list(loop.coeffs) == [degree]
    assert abs(loop.coeff(degree)[0, 0] - 1.0) < 1e-12
    # a single path is the one-entry stack without its axis, bit for bit
    stacked = certify(lambda ts: path(ts)[None], np.array([degree]))
    assert stacked.shape == (1,)
    assert residual.tobytes() == stacked.tobytes()


def test_stacked_certify_is_the_single_path_certify_entry_by_entry():
    """A stack over grids 64 and 128 reads the single-path certificate's tail, entry for entry, bit for bit."""
    rng = np.random.default_rng(44)
    exponents = np.array([3.0, 3.3, 17.0, 24.6, 2.5])
    degrees = np.array([5, 5, 20, 28, 15])  # grids 64, 64, 128, 128, 64
    weights = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    grids = []

    def stacked(ts):
        grids.append(len(ts))
        return np.exp(2j * np.pi * exponents[:, None] * ts)[:, :, None, None] * weights[:, None]

    residuals = certify(stacked, degrees)
    assert grids == [64, 128]
    assert residuals[0] < 1e-12 and residuals[2] < 1e-12 and min(residuals[[1, 3, 4]]) > 1e-4
    for i, degree in enumerate(degrees):
        single = certify(lambda ts: stacked(ts)[i], degree)
        assert residuals[i] == single
    assert grids[2:] == [64, 64, 128, 128, 64]


@pytest.mark.parametrize("offset", [1e-3, 0.5])
def test_certify_detects_a_non_integer_exponent_on_its_floor_grid(offset):
    """e^{2 pi i (3 + a) t} is no trigonometric polynomial; the CERT_GRID certificate reads its tail."""
    path = lambda ts: np.exp(2j * np.pi * (3.0 + offset) * ts)[:, None, None]  # noqa: E731
    residual = certify(path, 5)
    _, fine = fourier_project(SampledLoop(values=path(np.arange(GRID) / GRID)), 5)
    assert residual > 1e-4  # the polynomiality-detects threshold
    assert residual == pytest.approx(fine, rel=0.1)


def test_slow_tail_matches_bessel_expansion():
    """exp(0.2 sin 2pi t) has |c_k| = I_k(0.2); both tail routes must agree."""
    ts = np.arange(GRID) / GRID
    s = SampledLoop(values=np.exp(0.2 * np.sin(2 * np.pi * ts))[:, None, None])
    tail, _ = _fft_tail(s.values, 2)
    assert tail == pytest.approx(SLOW_TAIL_ABS_N2, rel=1e-6)
    rel2 = polynomiality_residual(s, 2)
    rel4 = polynomiality_residual(s, 4)
    assert rel2 == pytest.approx(SLOW_TAIL_REL_N2, rel=1e-6)
    assert rel4 == pytest.approx(SLOW_TAIL_REL_N4, rel=1e-6)
    # detectable at degree 2, numerically polynomial by degree 4
    assert rel2 > 1e-4
    assert rel4 < 1e-6


def test_phase_twist_residuals_match_jacobi_anger():
    # exp(2 pi i (t + 0.1 sin 2pi t)): coefficient m is J_{m-1}(0.2 pi)
    from scipy.special import jv

    ts = np.arange(GRID) / GRID
    s = SampledLoop(values=np.exp(2j * np.pi * (ts + 0.1 * np.sin(2 * np.pi * ts)))[:, None, None])
    J = jv(np.arange(60), 0.2 * np.pi)
    oracle3 = np.sqrt(np.sum(J[3:] ** 2) + np.sum(J[5:] ** 2))
    oracle8 = np.sqrt(np.sum(J[8:] ** 2) + np.sum(J[10:] ** 2))
    assert polynomiality_residual(s, 3) == pytest.approx(oracle3, rel=1e-9)
    assert polynomiality_residual(s, 8) == pytest.approx(oracle8, rel=1e-4)
    assert polynomiality_residual(s, 3) > 1e-3
    assert polynomiality_residual(s, 8) < 1e-8


def test_polynomiality_of_degree_three_diagonal():
    a = MatrixLoop(dim=2, field="complex", coeffs={3: np.diag([1.0, 0.0]), 0: np.diag([0.0, 1.0])})
    assert polynomiality_residual(sample_loop(a, GRID), 3) < 1e-10


def test_polynomiality_guard_band():
    ts = np.arange(256) / 256
    s = SampledLoop(values=np.exp(2j * np.pi * ts)[:, None, None])
    with pytest.raises(ValueError):
        polynomiality_residual(s, 64)
