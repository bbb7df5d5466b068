"""Quasi-periodic path elements and explicit local sections over U, SU, SO."""

import numpy as np
import pytest
from scipy.linalg import expm

from loopbundle import (
    ChartError,
    PathElement,
    act_group,
    central_log,
    exp_pair_loop,
    exp_skew,
    fiber_certificate,
    identity_loop,
    junction_mismatch,
    laurent_eval,
    path_fiber_quotient,
    path_group_residual,
    project_path,
    smooth_section,
    so_section,
    so_spectral_split,
    su_section,
    un_section,
)
from loopbundle.laurent import DEFAULT_GRID, SampledLoop, fourier_project
from loopbundle.rand import (
    gaussian,
    haar_unitary,
    random_skew,
    random_special_orthogonal,
    random_unitary,
    unit_vectors,
)
from loopbundle.spectral import SkewSpectrum

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
ENDPOINT_TOL = 1e-9
POLY_TOL = 1e-8


def rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def test_trivial_path_is_identity():
    p = PathElement([np.zeros((2, 2))])
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(p.eval(t) - np.eye(2))) < 1e-12
    assert np.max(np.abs(project_path(p) - np.eye(2))) < 1e-12


def test_full_turn_factor_at_half():
    p = PathElement([2j * np.pi * np.eye(1)])
    assert abs(p.eval(0.5)[0, 0] + 1.0) < 1e-12


def test_pi_structure_factor_reaches_minus_identity():
    p = PathElement([np.pi * J0], loop=identity_loop(2))
    assert np.max(np.abs(p.eval(1.0) + np.eye(2))) < 1e-12


def test_projection_of_one_factor_path_is_exponential():
    rng = np.random.default_rng(1)
    xi = random_skew(rng, 3)
    p = PathElement([xi])
    assert np.max(np.abs(project_path(p) - exp_skew(xi))) < ENDPOINT_TOL


def test_periodicity_invariant_enforced():
    # eval(t+1) eval(t)^-1 must be constant; a generic non-skew factor breaks it
    with pytest.raises(ValueError):
        PathElement([np.array([[0.1, 0.0], [0.0, -0.1]])], group="U")


def test_un_section_diagonal_example():
    g = np.diag([np.exp(0.3j), np.exp(-0.4j)])
    p = un_section(0.0, g)
    assert np.max(np.abs(p.factors[0] - np.diag([0.3j, -0.4j]))) < 1e-12
    assert np.max(np.abs(project_path(p) - g)) < ENDPOINT_TOL


def test_un_section_shifted_branch_at_minus_identity():
    p = un_section(1j * np.pi, -np.eye(2))
    assert np.max(np.abs(p.factors[0] - 1j * np.pi * np.eye(2))) < 1e-12


def test_un_section_random_endpoints():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 5):
        g = random_unitary(rng, dim)
        try:
            p = un_section(0.0, g)
        except ValueError:
            continue
        assert np.max(np.abs(project_path(p) - g)) < ENDPOINT_TOL
        assert path_group_residual(p) < ENDPOINT_TOL


def test_un_section_cut_rejection():
    with pytest.raises(ChartError):
        un_section(0.0, -np.eye(3))


def test_su_section_trivial_twist():
    # traceless branch log leaves the determinant correction empty
    g = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    p = su_section(0.0, g, np.array([1.0, 0.0]))
    assert np.max(np.abs(p.factors[1])) < 1e-12


def test_su_section_winding_one_example():
    a = np.pi - 0.2
    g = np.diag([np.exp(1j * a), np.exp(-1j * a)])
    p = su_section(1j * np.pi / 2, g, np.array([1.0, 0.0]))
    k = np.trace(p.factors[0]) / (2j * np.pi)
    assert abs(k - 1.0) < 1e-9
    ts = np.linspace(0.0, 1.0, 33)
    dets = np.array([np.linalg.det(p.eval(t)) for t in ts])
    assert np.max(np.abs(dets - 1.0)) < 1e-10
    assert np.max(np.abs(project_path(p) - g)) < ENDPOINT_TOL


def test_su_section_determinant_on_grid():
    rng = np.random.default_rng(14)
    ts = np.linspace(0.0, 1.0, 17)
    done = 0
    while done < 20:
        g = haar_unitary(gaussian(rng, (3, 3)), special=True)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        try:
            p = su_section(0.0, g, v)
        except ValueError:
            continue
        done += 1
        dets = np.array([np.linalg.det(p.eval(t)) for t in ts])
        assert np.max(np.abs(dets - 1.0)) < 1e-10
        assert np.max(np.abs(project_path(p) - g)) < ENDPOINT_TOL


def test_su_section_rejects_non_special():
    g = np.diag([np.exp(0.3j), np.exp(0.3j)])
    with pytest.raises(ValueError):
        su_section(0.0, g, np.array([1.0, 0.0]))


def test_split_identity():
    low, high = so_spectral_split(np.eye(2), 0.0)
    assert np.max(np.abs(low)) == 0.0
    assert np.max(np.abs(high - np.eye(2))) < 1e-12


def test_split_minus_identity():
    low, high = so_spectral_split(-np.eye(2), 0.0)
    assert np.max(np.abs(low - np.eye(2))) < 1e-12
    assert np.max(np.abs(high)) == 0.0


def test_split_two_rotation_blocks():
    h = np.zeros((4, 4))
    h[:2, :2] = rotation(2.8)  # real part cos 2.8 < 0
    h[2:, 2:] = rotation(0.3)  # real part cos 0.3 > 0
    low, high = so_spectral_split(h, 0.0)
    assert round(np.trace(low).real) == 2
    assert round(np.trace(high).real) == 2
    assert np.max(np.abs(low @ h - h @ low)) < 1e-9
    assert np.max(np.abs(low + high - np.eye(4))) < 1e-12
    assert np.max(np.abs(low - low.T)) < 1e-12


def test_split_rejects_eigenvalue_on_abscissa():
    with pytest.raises(ChartError):
        so_spectral_split(rotation(np.pi / 2), 0.0)


def test_so_section_empty_low_block():
    rng = np.random.default_rng(3)
    g = exp_skew(random_skew(rng, 4, real=True, scale=0.2)).real
    sec = so_section(0.0, g, g)
    # all eigenvalues stay near 1, so the structure factor vanishes
    assert np.max(np.abs(sec.factors[1])) < 1e-12
    assert np.max(np.abs(project_path(sec) - g)) < ENDPOINT_TOL


def test_so_section_minus_identity():
    g = -np.eye(4)
    sec = so_section(0.0, g, g)
    assert np.max(np.abs(project_path(sec) - g)) < ENDPOINT_TOL
    assert fiber_certificate(sec) < POLY_TOL


def test_so_section_random_pairs():
    rng = np.random.default_rng(15)
    done = 0
    while done < 15:
        g = random_special_orthogonal(rng, 4)
        q = exp_skew(random_skew(rng, 4, real=True, scale=0.1)).real
        h = q @ g @ q.T
        try:
            sec = so_section(0.0, g, h)
        except ValueError:
            continue
        done += 1
        assert np.max(np.abs(project_path(sec) - h)) < ENDPOINT_TOL
        assert path_group_residual(sec) < ENDPOINT_TOL
        assert fiber_certificate(sec) < POLY_TOL


def test_so_section_rank_mismatch_rejected():
    g = np.eye(4)
    h = np.zeros((4, 4))
    h[:2, :2] = rotation(2.9)
    h[2:, 2:] = rotation(0.1)
    with pytest.raises(ChartError):
        so_section(0.0, g, h)


def test_so_section_rejects_orthogonal_low_blocks():
    # equal ranks, but the low block of g (plane 1-2) projects to zero on that of h (plane 3-4)
    g, h = np.eye(4), np.eye(4)
    g[:2, :2] = rotation(2.5)
    h[2:, 2:] = rotation(2.5)
    with pytest.raises(ChartError, match="not an isomorphism"):
        so_section(0.0, g, h)


def test_a_split_on_the_abscissa_marks_its_pair_whichever_side_it_is_on():
    on_split = np.eye(4)
    on_split[:2, :2] = rotation(np.pi / 2)  # eigenvalues +-i, real part 0: the split abscissa
    clean = np.eye(4)
    clean[:2, :2] = rotation(2.5)
    with pytest.raises(ChartError) as info:
        so_section(0.0, np.stack([on_split, clean, clean]), np.stack([clean, on_split, clean]))
    assert info.value.mask.tolist() == [True, True, False]
    with pytest.raises(ChartError) as info:
        so_section(0.0, clean, on_split)
    assert np.ndim(info.value.mask) == 0 and bool(info.value.mask)


def test_input_errors_are_not_chart_errors():
    with pytest.raises(ValueError) as info:
        su_section(0.0, np.diag([1.0, 1j]), np.array([1.0, 0.0]))
    assert not isinstance(info.value, ChartError)
    with pytest.raises(ValueError) as info:
        PathElement([np.array([[0.1, 0.0], [0.0, -0.1]])])
    assert not isinstance(info.value, ChartError)


def test_fiber_quotient_of_equal_paths(certified):
    rng = np.random.default_rng(25)
    p = PathElement([random_skew(rng, 3)])
    residual = path_fiber_quotient(p, p)
    assert residual < 1e-10
    assert np.max(np.abs(certified[-1].loop.coeff(0) - np.eye(3))) < 1e-10


def test_fiber_quotient_of_matched_logs(certified):
    rng = np.random.default_rng(26)
    g = random_unitary(rng, 3)
    zeta = central_log(g)
    from loopbundle import clustered_eig

    proj = clustered_eig(g).projector(clustered_eig(g).clusters[0])
    a = PathElement([zeta])
    b = PathElement([zeta + 2j * np.pi * proj])
    residual = path_fiber_quotient(a, b)
    assert residual < POLY_TOL
    assert certified[-1].loop.degree <= 1


def test_fiber_quotient_chain_matches_the_batched_solve(certified):
    """The sampled quotient a(t)^{-1} b(t) equals np.linalg.solve(a(t), b(t)), with and without loop parts."""
    rng = np.random.default_rng(29)
    ts = np.arange(257) / 256 + 0.3
    checked = 0
    while checked < 6:
        dim = int(rng.integers(2, 5))
        g = haar_unitary(gaussian(rng, (dim, dim)), special=True)
        try:
            a = su_section(0.0, g, unit_vectors(gaussian(rng, dim)))  # two non-commuting factors
        except ChartError:
            continue
        b = PathElement([central_log(g)])
        h = random_unitary(rng, dim)
        pairs = [(a, b), (b, a), (act_group(a, h), act_group(b, h)), (act_group(b, h, conjugate=True), act_group(a, h, conjugate=True))]
        for left, right in pairs:
            path_fiber_quotient(left, right)
            oracle = np.linalg.solve(left.eval(ts), right.eval(ts))
            assert np.max(np.abs(certified.pop().path(ts) - oracle)) <= 1e-13
        checked += 1


def test_fiber_quotient_rejects_different_fibres():
    a = PathElement([np.zeros((2, 2))])
    b = PathElement([(np.pi / 2) * J0])
    with pytest.raises(ValueError):
        path_fiber_quotient(a, b)


def test_certificate_of_section_paths(certified):
    rng = np.random.default_rng(27)
    g = random_unitary(rng, 3)
    residual = fiber_certificate(un_section(0.0, g))
    assert residual < POLY_TOL
    assert certified[-1].degree >= certified[-1].loop.degree


@pytest.mark.parametrize("certificate", ["fiber_certificate", "path_fiber_quotient", "exp_pair_loop"])
def test_each_certificate_takes_one_fft(certificate, monkeypatch):
    rng = np.random.default_rng(28)
    g = random_unitary(rng, 3)
    section = un_section(0.0, g)
    calls = {
        "fiber_certificate": lambda: fiber_certificate(section),
        "path_fiber_quotient": lambda: path_fiber_quotient(section, PathElement([central_log(g)])),
        "exp_pair_loop": lambda: exp_pair_loop(section.factors[0], central_log(g)),
    }
    fft = np.fft.fft
    count = []

    def counted(*args, **kwargs):
        count.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    residual = calls[certificate]()
    assert len(count) == 1
    assert residual < POLY_TOL


def test_smooth_section_through_base_point():
    rng = np.random.default_rng(33)
    g = random_unitary(rng, 3)
    s = smooth_section(g, g)
    # starts at the identity, passes through g at t = 1/2, flat at the seam
    assert np.max(np.abs(s.values[0] - np.eye(3))) < 1e-12
    assert np.max(np.abs(s.values[s.values.shape[0] // 2] - g)) < ENDPOINT_TOL
    assert np.max(np.abs(s.values[-1] - g)) < ENDPOINT_TOL
    assert junction_mismatch(s) < 1e-4


def test_smooth_section_hits_nearby_target():
    rng = np.random.default_rng(35)
    g = random_unitary(rng, 3)
    h = g @ exp_skew(0.1 * random_skew(rng, 3))
    s = smooth_section(g, h)
    assert np.max(np.abs(s.values[-1] - h)) < ENDPOINT_TOL
    assert junction_mismatch(s) < 1e-4


def test_smooth_section_rejects_far_target():
    rng = np.random.default_rng(36)
    g = np.eye(3)
    with pytest.raises(ValueError):
        smooth_section(g, -np.eye(3))


def test_group_action_conjugates_projection():
    rng = np.random.default_rng(41)
    p = un_section(0.0, random_unitary(rng, 3))
    g = random_unitary(rng, 3)
    target = project_path(p)
    conj = act_group(p, g, conjugate=True)
    assert np.max(np.abs(project_path(conj) - g @ target @ g.conj().T)) < ENDPOINT_TOL
    left = act_group(p, g, conjugate=False)
    assert np.max(np.abs(project_path(left) - g @ target @ g.conj().T)) < ENDPOINT_TOL


def _expm_product(factors, t):
    out = np.eye(factors[0].shape[0], dtype=complex)
    for xi in factors:
        out = out @ expm(t * xi)
    return out


def _chain_sections(rng, dim):
    """A one-factor U path, an SU path with its rank-one twist, an SO two-factor path, and a moved path."""
    base = random_special_orthogonal(rng, dim)
    q = exp_skew(random_skew(rng, dim, real=True, scale=0.12)).real
    unitary = un_section(0.0, random_unitary(rng, dim))
    return [
        unitary,
        su_section(0.0, haar_unitary(gaussian(rng, (dim, dim)), special=True), unit_vectors(gaussian(rng, dim))),
        so_section(0.0, base, q @ base @ q.T),
        act_group(unitary, random_unitary(rng, dim)),
    ]


@pytest.mark.parametrize("ts", [0.43, np.array([-0.6, 0.0, 0.21, 0.5, 0.9, 1.0, 1.7])])
def test_eval_is_the_product_of_exponentials_and_the_loop(ts):
    rng = np.random.default_rng(81)
    for dim in (2, 3, 4, 5):
        for p in _chain_sections(rng, dim):
            values = np.atleast_1d(ts)
            expected = np.empty((values.size, dim, dim), dtype=complex)
            for i, t in enumerate(values):
                expected[i] = np.eye(dim)
                for xi in p.factors:
                    expected[i] = expected[i] @ exp_skew(t * xi)
                if p.loop is not None:
                    expected[i] = expected[i] @ laurent_eval(p.loop, t)
            got = p.eval(ts)
            assert got.shape == np.shape(ts) + (dim, dim)
            assert np.max(np.abs(got - expected.reshape(got.shape))) < 1e-13


def test_factor_free_path_is_its_loop_part():
    rng = np.random.default_rng(82)
    loop = act_group(un_section(0.0, random_unitary(rng, 3)), random_unitary(rng, 3)).loop
    ts = np.linspace(0.0, 2.0, 11)
    assert np.array_equal(PathElement([], loop=loop).eval(ts), laurent_eval(loop, ts))
    assert np.array_equal(PathElement([], dim=2).eval(ts), np.broadcast_to(np.eye(2), (11, 2, 2)))


def test_certificate_samples_the_quotient(certified):
    rng = np.random.default_rng(83)
    ts = np.arange(DEFAULT_GRID) / DEFAULT_GRID
    for dim in (2, 3, 5):
        for p in _chain_sections(rng, dim):
            fiber_certificate(p)
            zeta = SkewSpectrum(central_log(project_path(p)))
            assert np.max(np.abs(certified[-1].path(ts) - zeta.exp(-ts) @ p.eval(ts))) < 1e-13


@pytest.mark.parametrize("group", ["U", "SU", "SO"])
def test_certificate_coefficients_match_a_fine_grid_projection(group, certified):
    """The quotient of the certified samples equals `fourier_project` of the same path on DEFAULT_GRID points."""
    rng = np.random.default_rng(84)
    ts = np.arange(DEFAULT_GRID) / DEFAULT_GRID
    degrees = []
    for dim in (2, 3, 4, 5, 6):
        while True:
            # a random branch (U, SU) or split (SO) moves the path off the central log, so the quotient is a true loop
            cut = rng.uniform(-1.0, 1.0)
            try:
                if group == "U":
                    p = un_section(1j * np.pi * cut, random_unitary(rng, dim))
                elif group == "SU":
                    g = haar_unitary(gaussian(rng, (dim, dim)), special=True)
                    p = su_section(1j * np.pi * cut, g, unit_vectors(gaussian(rng, dim)))
                else:
                    g = random_special_orthogonal(rng, dim)
                    q = exp_skew(random_skew(rng, dim, real=True, scale=0.12)).real
                    p = so_section(cut, g, q @ g @ q.T)
                break
            except ChartError:
                continue
        residual = fiber_certificate(p)
        quotient, degree = certified[-1].loop, certified[-1].degree
        fine, fine_residual = fourier_project(SampledLoop(values=certified[-1].path(ts)), degree)
        assert residual < POLY_TOL and fine_residual < POLY_TOL
        assert quotient.degree == fine.degree
        modes = set(quotient.coeffs) | set(fine.coeffs)
        assert max(np.max(np.abs(quotient.coeff(k) - fine.coeff(k))) for k in modes) < 1e-13
        degrees.append(quotient.degree)
    assert max(degrees) >= 1


@pytest.mark.parametrize("group", ["U", "SU", "SO", "moved"])
def test_eval_and_projection_match_expm_products(group):
    rng = np.random.default_rng(80)
    ts = np.array([0.0, 0.13, 0.5, 0.87, 1.0, 1.6])
    for dim in (2, 3, 4, 5):
        g = np.eye(dim)
        if group == "SO":
            base = random_special_orthogonal(rng, dim)
            q = exp_skew(random_skew(rng, dim, real=True, scale=0.12)).real
            p = so_section(0.0, base, q @ base @ q.T)
        elif group == "SU":
            p = su_section(0.0, haar_unitary(gaussian(rng, (dim, dim)), special=True), unit_vectors(gaussian(rng, dim)))
        else:
            p = un_section(0.0, random_unitary(rng, dim))
        factors = p.factors
        if group == "moved":
            g = random_unitary(rng, dim)
            p = act_group(p, g)
        # alpha(t) = g prod_i exp(t xi_i), with the factors from before any move
        expected = np.array([g @ _expm_product(factors, t) for t in ts])
        assert np.max(np.abs(p.eval(ts) - expected)) < 1e-12
        assert np.max(np.abs(project_path(p) - g @ _expm_product(factors, 1.0) @ g.conj().T)) < 1e-12
