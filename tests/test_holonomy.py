"""Parallel transport, Floquet data, fibre bases, weighted pairings, reparametrisations."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from loopbundle import (
    MatrixLoop,
    Reparam,
    complexification_residual,
    condiff_residual,
    cos_gram,
    cos_inner_product,
    direct_sum_union_residual,
    eigen_sections,
    dhat_residuals,
    floquet,
    identity_loop,
    loop_recognition_residual,
    monodromy,
    project_section,
    reparam_actions,
    sphere_model,
    su2_model,
    subbundle_counterexample,
    torus_model,
    transport,
    transport_defect,
    transport_frame,
)
import loopbundle.holonomy as geo
from loopbundle import properties
from loopbundle.holonomy import covariant_derivative, holonomy, trig_interpolate
from loopbundle.laurent import CERT_GUARD, relative_tail
from loopbundle.modes import (
    apply_cosh_weight,
    apply_cosh_weight_inverse,
    basis_vector,
    conjugated_hs_tail,
    l2_norm,
    trivial_shift_data,
)
from loopbundle.spectral import CLUSTER_TOL, SkewSpectrum

TRANSPORT_TOL = 1e-8
GRAM_TOL = 1e-8

# phase-twist residuals frozen from the Jacobi-Anger expansion of
# exp(0.6 pi i sin 2pi t): sqrt of the J_k(0.6 pi)^2 tail sums
COUNTEREXAMPLE_RESIDUAL = 5.406479620193e-3
COUNTEREXAMPLE_RESIDUAL_Z2 = 5.405190771683e-3


def circular_gap(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def test_the_package_does_not_shadow_its_holonomy_submodule():
    assert isinstance(geo, types.ModuleType) and geo.holonomy is holonomy


# ---------------------------------------------------------------------------
# transport


@pytest.mark.parametrize(
    "build",
    [
        lambda: su2_model(direction=(0.0, 0.0, 0.0)),
        lambda: su2_model(direction=(np.nan, 0.0, 1.0)),
        lambda: su2_model(direction=(np.inf, 0.0, 1.0)),
        lambda: su2_model(direction=(1.0, 0.0)),
        lambda: su2_model(winding=1.5),
        lambda: su2_model(winding=2.0),
        lambda: sphere_model(1.0, winding=1.5),
        lambda: sphere_model(1.0, winding="2"),
        lambda: torus_model(winding=(1.5, 0)),
        lambda: torus_model(winding=5),
        lambda: torus_model(winding=(1, 2, 3)),
        lambda: torus_model(winding="ab"),
    ],
)
def test_a_model_that_defines_no_closed_loop_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_models_take_numpy_integer_windings():
    builds = [
        (lambda w: torus_model(winding=(w, np.int32(0))), (2, 0)),
        (lambda w: sphere_model(1.0, winding=w), 2),
        (lambda w: su2_model(direction=(1.0, 2.0, 2.0), winding=w), 2),
    ]
    for build, expected in builds:
        model, _ = build(np.int64(2))
        reference, _ = build(2)
        winding = dict(model.params)["winding"]
        assert winding == expected
        assert all(type(w) is int for w in (winding if isinstance(winding, tuple) else (winding,)))
        assert np.array_equal(model.generator, reference.generator)


def test_torus_transport_is_exactly_flat():
    model, loop = torus_model(winding=(1, 2))
    frame = transport_frame(model, loop, steps=512)
    assert np.max(np.abs(frame - np.eye(2))) == 0.0


@pytest.mark.parametrize("reparam", [None, Reparam("sine", shift=0.2, amplitude=0.1)])
def test_torus_closed_form_is_exactly_the_identity(reparam):
    """A0 = 0 takes the general closed form, which must give I bit for bit: eigh(0) has u = I, mu = 0."""
    model, loop = torus_model(winding=(1, 2), grid=512, reparam=reparam)
    eye = np.eye(2)
    assert np.array_equal(transport(model, loop, 0.3, 1.7), eye)
    frame = transport_frame(model, loop)
    assert np.array_equal(frame, np.broadcast_to(eye, frame.shape))
    core = eigen_sections(model, loop, monodromy(model, loop), 3).core
    assert np.array_equal(core, np.broadcast_to(eye[:, :, None], core.shape))


def test_transport_is_orthogonal():
    model, loop = sphere_model(0.8)
    g = transport(model, loop)
    assert np.max(np.abs(g.conj().T @ g - np.eye(2))) < TRANSPORT_TOL
    assert np.max(np.abs(np.asarray(g).imag)) < 1e-12


def test_transport_composition():
    model, loop = sphere_model(1.1, winding=2)
    whole = transport(model, loop, 0.0, 1.0, steps=4096)
    first = transport(model, loop, 0.0, 0.5, steps=2048)
    second = transport(model, loop, 0.5, 1.0, steps=2048)
    assert np.max(np.abs(second @ first - whole)) < 1e-9


def test_transport_period_shift():
    # the connection coefficients are 1-periodic, so transport is too
    model, loop = su2_model(direction=(1.0, 2.0, 2.0))
    a = transport(model, loop, 0.25, 1.0, steps=1024)
    b = transport(model, loop, 1.25, 2.0, steps=1024)
    assert np.max(np.abs(a - b)) < 1e-10


def test_step_doubling_converges():
    model, loop = sphere_model(np.pi / 5, winding=2)
    coarse = transport(model, loop, steps=1024)
    fine = transport(model, loop, steps=2048)
    assert np.max(np.abs(coarse - fine)) < TRANSPORT_TOL
    assert transport_defect(model, loop) < TRANSPORT_TOL


def _closed_form_cases():
    """(id, model, loop) for every model under every reparametrisation kind and one composition."""
    sine = Reparam("sine", shift=0.2, amplitude=0.1)
    rot = Reparam("rotation", shift=0.35)
    refl = Reparam("reflection", shift=0.4)
    reparams = {"plain": None, "rotation": rot, "sine": sine, "reflection": refl, "composed": sine.compose(rot)}
    cases = []
    for name, (model, loop) in (
        ("torus", torus_model(winding=(2, -1))),
        ("sphere", sphere_model(1.1, winding=2)),
        ("su2", su2_model(direction=(0.8, -0.3, 1.1), winding=1)),
    ):
        for kind, rep in reparams.items():
            moved = loop if rep is None else loop.with_reparam(rep)
            cases.append((f"{name}-{kind}", model, moved))
    return cases


CLOSED_FORM_CASES = _closed_form_cases()


@pytest.mark.parametrize("case", CLOSED_FORM_CASES, ids=[case[0] for case in CLOSED_FORM_CASES])
def test_closed_form_transport_matches_rk4_oracle(case):
    _, model, loop = case
    for t0, t1 in ((0.0, 1.0), (0.2, 0.9), (0.7, 1.6)):
        assert transport_defect(model, loop, t0, t1, steps=4096) < 1e-8


@pytest.mark.parametrize("case", CLOSED_FORM_CASES, ids=[case[0] for case in CLOSED_FORM_CASES])
def test_transport_frame_matches_matrix_exponential(case):
    _, model, loop = case
    ts = np.arange(65) / 64
    frame = transport_frame(model, loop, steps=64)
    a0 = model.generator
    rep = loop.reparam
    lift = rep.sigma(ts) - rep.sigma(0.0) if rep is not None else ts
    expected = np.array([expm(step * a0) for step in lift])
    assert np.max(np.abs(frame - expected)) < 1e-12


def test_transport_frame_rejects_a_complex_generator():
    """A complex skew-hermitian generator transports to complex frames; their real part is not orthogonal."""
    _, loop = torus_model(winding=(1, 2), grid=8)
    complex_model = geo.ConnectionModel("complex", 2j * np.pi * np.diag([0.3, -0.3]))
    with pytest.raises(ValueError, match="real generator"):
        transport_frame(complex_model, loop)
    real_model = geo.ConnectionModel("real", 0.6 * np.pi * np.array([[0.0, -1.0], [1.0, 0.0]]))
    frame = transport_frame(real_model, loop)
    assert np.max(np.abs(frame.transpose(0, 2, 1) @ frame - np.eye(2))) < 1e-14


def test_transport_rejects_a_complex_generator():
    """The imaginary part of a small complex generator is not dropped: transport raises as transport_frame does."""
    model, loop = geo.ConnectionModel("c", 1e-5j * np.diag([1.0, -1.0])), geo.BaseLoop(64)
    for call in (transport, transport_frame, monodromy):
        with pytest.raises(ValueError, match="real generator"):
            call(model, loop)


@pytest.mark.parametrize("eye", [-np.eye(2), np.eye(3)])
def test_degenerate_holonomy_frame_is_canonical(eye):
    """Round-off in a +-I holonomy must not rotate the Floquet frame."""
    rng = np.random.default_rng(11)
    n = eye.shape[0]
    frames = []
    for _ in range(6):
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        frames.append(floquet(eye + 1e-13 * noise / np.linalg.norm(noise)).frame)
    for frame in frames[1:]:
        assert np.max(np.abs(frame - frames[0])) < 1e-9
    assert np.max(np.abs(frames[0] - np.eye(n))) < 1e-9


@pytest.mark.parametrize("gap", [6e-8, 0.5 * CLUSTER_TOL, 2.0 * CLUSTER_TOL], ids=["6e-8", "half-tol", "twice-tol"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_near_degenerate_holonomy_keeps_its_exponents(sign, gap):
    """A rotation of +-I whose eigenvalues are gap apart, so near +-I but not equal to it.

    Below CLUSTER_TOL the pair is one cluster: both get the mean exponent and the projector frame,
    an eigenframe up to the gap.  Above it each keeps its own exponent and eigenvector to round-off.
    """
    angle = gap / 2.0
    g = sign * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    data = floquet(g)
    defect = g @ data.frame - data.frame * np.exp(2j * np.pi * data.exponents)[None, :]
    clustered = gap < CLUSTER_TOL
    assert np.linalg.norm(defect) < (gap if clustered else 1e-14)
    turn = 0.0 if clustered else angle / (2.0 * np.pi)
    shift = 0.5 if sign < 0 else 0.0
    expected = np.sort(np.mod(np.array([shift + turn, shift - turn]) + 0.5, 1.0) - 0.5)
    assert np.max(np.abs(data.exponents - expected)) < 1e-15


def test_monodromy_of_a_nearly_trivial_latitude():
    """theta = 1e-4 gives a holonomy rotation of about 3e-8 rad, whose eigenvalues are two clusters."""
    model, loop = sphere_model(1e-4, grid=64)
    data = monodromy(model, loop)
    turn = 1.0 - np.cos(1e-4)
    assert np.max(np.abs(np.sort(data.exponents) - np.array([-turn, turn]))) < 1e-15
    basis = eigen_sections(model, loop, data, 4)
    assert basis.periodicity_residual() < 1e-14
    assert np.max(np.abs(basis.gram() - np.eye(basis.count))) < 1e-12


def _dense_trig_reference(values, new_ts):
    n = values.shape[0]
    coeffs = np.fft.fft(values, axis=0) / n
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    return np.exp(2j * np.pi * np.outer(new_ts, freqs)) @ coeffs


def test_trig_interpolate_matches_dense_reference():
    rng = np.random.default_rng(4)
    grid = 1024
    ts = np.arange(grid) / grid
    new_ts = np.mod(ts + 0.1 * np.sin(2 * np.pi * ts) + 0.03, 1.0)
    modes = np.arange(-5, 6)
    band = np.exp(2j * np.pi * np.outer(ts, modes)) @ (rng.standard_normal((11, 3)) + 1j * rng.standard_normal((11, 3)))
    noise = rng.standard_normal((grid, 3)) + 1j * rng.standard_normal((grid, 3))
    for values in (band, noise):
        dense = _dense_trig_reference(values, new_ts)
        fast = trig_interpolate(values, new_ts)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_covariant_derivative_is_exact_on_trigonometric_polynomials():
    rng = np.random.default_rng(7)
    grid = 64
    model, loop = sphere_model(np.pi / 3, grid=grid)
    ts = np.arange(grid) / grid
    modes = np.arange(-31, 32)  # every mode below the Nyquist mode 32
    coeffs = rng.standard_normal((3, modes.size, 2)) + 1j * rng.standard_normal((3, modes.size, 2))
    phases = np.exp(2j * np.pi * np.outer(ts, modes))
    values = np.einsum("tk,bkj->btj", phases, coeffs)
    deriv = np.einsum("tk,bkj->btj", phases * (2j * np.pi * modes), coeffs)
    expected = deriv - np.einsum("ij,btj->bti", model.generator, values)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(covariant_derivative(model, loop, values) - expected)) <= 1e-12 * scale
    for batch in range(3):
        single = covariant_derivative(model, loop, values[batch])
        assert np.max(np.abs(single - expected[batch])) <= 1e-12 * scale


def test_su2_holonomy_powers():
    model1, loop1 = su2_model(direction=(1.0, 0.5, 0.2))
    model2, loop2 = su2_model(direction=(1.0, 0.5, 0.2), winding=2)
    h1 = holonomy(model1, loop1)
    h2 = holonomy(model2, loop2)
    assert np.max(np.abs(h1 @ h1 - h2)) < 1e-9
    # constant coefficient matrix: holonomy is a plain matrix exponential
    a0 = model1.coefficients(loop1, np.array([0.0]))[0]
    assert np.max(np.abs(h1 - expm(a0))) < 1e-9


# ---------------------------------------------------------------------------
# latitude holonomy and Floquet data


def test_latitude_third_pi():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    assert np.max(np.abs(data.holonomy + np.eye(2))) < 1e-9
    assert data.exponents.tolist() == [-0.5, -0.5]


def test_equator_is_flat():
    model, loop = sphere_model(np.pi / 2)
    data = monodromy(model, loop)
    assert np.max(np.abs(data.holonomy - np.eye(2))) < 1e-9
    assert data.exponents.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, 2 * np.pi / 3])
def test_latitude_angle_law(theta):
    """Holonomy of the colatitude-theta circle rotates by 2 pi (1 - cos theta)."""
    model, loop = sphere_model(theta)
    hol = np.asarray(holonomy(model, loop)).real
    angle = np.arctan2(hol[1, 0], hol[0, 0])
    assert circular_gap(angle, 2 * np.pi * (1 - np.cos(theta))) < 1e-6


def test_floquet_exponent_window_and_eigenrelation():
    model, loop = su2_model(direction=(0.8, -0.3, 1.1), winding=2)
    data = monodromy(model, loop)
    assert np.all(data.exponents >= -0.5)
    assert np.all(data.exponents < 0.5)
    assert np.all(np.diff(data.exponents) >= 0)
    for j in range(data.exponents.size):
        w = data.frame[:, j]
        defect = data.holonomy @ w - np.exp(2j * np.pi * data.exponents[j]) * w
        assert np.linalg.norm(defect) < TRANSPORT_TOL


def test_torus_exponents_vanish():
    model, loop = torus_model(winding=(2, -1), grid=512)
    data = monodromy(model, loop)
    assert data.exponents.tolist() == [0.0, 0.0]
    assert np.max(np.abs(transport_frame(model, loop)[:-1] - np.eye(2))) == 0.0


# ---------------------------------------------------------------------------
# fibre basis


def torus_basis(mode_bound=3, steps=512):
    model, loop = torus_model(winding=(1, 2), grid=steps)
    data = monodromy(model, loop)
    return model, loop, data, eigen_sections(model, loop, data, mode_bound)


def test_basis_count_and_gram():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    assert basis.count == 9 * 2
    assert np.max(np.abs(basis.gram() - np.eye(basis.count))) < GRAM_TOL
    assert basis.periodicity_residual() < 1e-12


def test_torus_basis_is_exactly_fourier():
    """On the flat torus the fibre basis must reproduce plain Fourier modes bit for bit."""
    _, _, data, basis = torus_basis()
    modes, cores = basis.rows()
    assert np.all(data.exponents[cores] == 0.0)
    assert modes.tolist() == np.repeat(np.arange(-3, 4), 2).tolist()
    # each section e^{2 pi i p t} c_j is a pure Fourier mode when c_j(t) = e_j exactly
    worst = float(np.max(np.abs(basis.core - np.eye(2)[:, :, None])))
    assert worst == 0.0


def dense_sections(basis):
    """The sampled sections e^{2 pi i (p - s_j) t} Phi(t) w_j, straight from the formula."""
    data = basis.data
    ts = np.arange(basis.grid) / basis.grid
    frame = np.asarray(transport_frame(basis.model, basis.loop)[:-1], dtype=complex) @ data.frame  # (t, k, j)
    p, cores = basis.rows()
    s = data.exponents[cores]
    j = np.arange(basis.count) % data.exponents.size
    return np.exp(2j * np.pi * np.outer(p - s, ts))[:, :, None] * frame[:, :, j].transpose(2, 0, 1)


def dense_reparam(dense, rep):
    """Degrees and pullback residuals of sampled sections, each section resampled on its own."""
    grid = dense.shape[1]
    pulled = trig_interpolate(np.moveaxis(dense, 0, 1), np.mod(rep.sigma(np.arange(grid) / grid), 1.0))
    own = np.linalg.norm(np.fft.fft(dense, axis=1), axis=2)  # (section, mode)
    moved = np.linalg.norm(np.fft.fft(pulled, axis=0), axis=2).T
    freqs = np.abs(np.fft.fftfreq(grid, d=1.0 / grid))
    degrees = np.where(own > 1e-10 * np.linalg.norm(own, axis=1, keepdims=True), freqs, 0.0).max(axis=1)
    tail = np.linalg.norm(np.where(freqs > degrees[:, None], moved, 0.0), axis=1)
    return degrees.astype(int), tail / np.linalg.norm(moved, axis=1)


def dense_dhat(basis, values):
    """(1/2 pi) D phi - i (p - s_j) phi per sampled section, with A(t) taken sample by sample."""
    grid = basis.grid
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    freqs[freqs == -grid / 2] = 0.0
    deriv = np.fft.ifft((2j * np.pi * freqs)[:, None] * np.fft.fft(values, axis=1), axis=1)
    coeff = basis.model.coefficients(basis.loop, np.arange(grid) / grid)
    dhat = (deriv - np.einsum("tij,mtj->mti", coeff, values)) / (2.0 * np.pi)
    modes, cores = basis.rows()
    defect = dhat - 1j * (modes - basis.data.exponents[cores])[:, None, None] * values
    return np.sqrt(np.mean(np.abs(defect) ** 2, axis=(1, 2)) / np.mean(np.abs(values) ** 2, axis=(1, 2)))


DENSE_SETUPS = {
    # generic colatitude: the holonomy is a rotation, so the Floquet frame W is not I
    "sphere": lambda grid: sphere_model(1.0, winding=2, grid=grid),
    "su2": lambda grid: su2_model(direction=(1.0, 2.0, 2.0), grid=grid, reparam=Reparam("sine", 0.3, 0.12)),
    "torus": lambda grid: torus_model(winding=(1, 2), grid=grid),
}


@pytest.mark.parametrize("grid,mode_bound", [(4096, 8), (128, 63)])
@pytest.mark.parametrize("setup", sorted(DENSE_SETUPS))
def test_factorised_basis_matches_dense_sections(setup, grid, mode_bound):
    model, loop = DENSE_SETUPS[setup](grid)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, mode_bound)
    rng = np.random.default_rng(11)
    n = data.exponents.size
    coeffs = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
    sampled = rng.standard_normal((grid, n)) + 1j * rng.standard_normal((grid, n))
    gram, projected, section = basis.gram(), basis.project(sampled), basis.section(coeffs)
    dhat = dhat_residuals(basis)
    assert not hasattr(basis, "values")  # the core is the only stored form

    dense = dense_sections(basis)
    flat = dense.reshape(basis.count, -1)
    assert np.max(np.abs(basis.core.transpose(0, 2, 1) - dense[basis.rows()[0] == 0])) <= 1e-12
    assert np.max(np.abs(gram - flat.conj() @ flat.T / grid)) <= 1e-12
    assert np.max(np.abs(projected - np.einsum("mtk,tk->m", dense.conj(), sampled) / grid)) <= 1e-12
    expected = np.tensordot(coeffs, dense, axes=(0, 0))
    assert np.max(np.abs(section - expected)) <= 1e-12 * np.max(np.abs(expected))
    oracle = dense_dhat(basis, dense)
    assert np.all(np.abs(dhat - oracle) <= 1e-11 + 1e-9 * oracle)
    if setup == "sphere" and mode_bound == 63:
        # mode 63 of a core carrying mode 2 reaches past the Nyquist mode 64
        assert oracle.max() > 1.0

    rep = Reparam("sine", 0.1, 0.08)
    degrees, residuals = dense_reparam(dense, rep)
    if degrees.max() >= grid // 4:
        with pytest.raises(ValueError):
            reparam_actions(basis, rep)
    else:
        report = reparam_actions(basis, rep)
        assert report["degrees"].tolist() == degrees.tolist()
        assert np.max(np.abs(report["standard_residuals"] - residuals)) <= 1e-12


def gathered_dhat(basis):
    """dhat_residuals with the wrap correction gathered bin by bin: for each mode p, the |p| + 1 bins next to the
    Nyquist bin where the derivative of e^{2 pi i p t} c_j can wrap each add |B + i delta C|^2 - |B|^2."""
    core = basis.core.transpose(0, 2, 1)  # (j, t, k)
    grid = basis.grid
    defect = covariant_derivative(basis.model, basis.loop, core) / (2.0 * np.pi) + 1j * basis.data.exponents[:, None, None] * core
    spec_b, spec_c = np.fft.fft(defect, axis=1), np.fft.fft(core, axis=1)
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    freqs[freqs == -grid / 2] = 0.0
    modes = np.arange(-basis.mode_bound, basis.mode_bound + 1)
    power = np.tile(np.sum(np.abs(spec_b) ** 2, axis=(1, 2)), (modes.size, 1))  # (p, j)
    for row, p in enumerate(modes):
        bins = (grid // 2 - np.sign(p) * np.arange(abs(p) + 1)) % grid
        delta = freqs[(bins + p) % grid] - freqs[bins] - p
        plain = spec_b[:, bins]
        wrapped = plain + 1j * delta[None, :, None] * spec_c[:, bins]
        power[row] += np.sum(np.abs(wrapped) ** 2 - np.abs(plain) ** 2, axis=(1, 2))
    num = np.sqrt(np.maximum(power, 0.0) / (grid**2 * core.shape[2]))
    return (num / np.sqrt(np.mean(np.abs(core) ** 2, axis=(1, 2)))).ravel()


@pytest.mark.parametrize("setup", sorted(DENSE_SETUPS))
def test_dhat_running_sums_match_the_gathered_bins(setup):
    # P = 1000 would gather about 10^6 bins per core column
    for grid, mode_bound in [(4096, 8), (128, 63), (4096, 1000)]:
        model, loop = DENSE_SETUPS[setup](grid)
        basis = eigen_sections(model, loop, monodromy(model, loop), mode_bound)
        tracemalloc.start()
        try:
            dhat = dhat_residuals(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        oracle = gathered_dhat(basis)
        assert np.all(np.abs(dhat - oracle) <= 1e-14 + 1e-9 * oracle), (grid, mode_bound)
        assert peak < 64e6, (grid, mode_bound, peak)


@pytest.mark.parametrize("grid", [129, 0])
def test_every_loop_is_built_on_a_power_of_two_grid(grid):
    """The model constructors, a bare loop and a loop moved to another grid all hold `laurent.check_grid`."""
    message = rf"^grid size {grid} is not a power of two$"
    builds = (
        lambda: torus_model(grid=grid),
        lambda: sphere_model(np.pi / 3, grid=grid),
        lambda: su2_model(grid=grid),
        lambda: geo.BaseLoop(grid),
        lambda: dataclasses.replace(geo.BaseLoop(64, Reparam("rotation", shift=0.3)), grid=grid),
    )
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()


def test_fiber_basis_rejects_an_aliasing_mode_bound():
    model, loop = sphere_model(1.0, winding=2, grid=16)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 7)  # 2P + 1 = 15 <= 16
    with pytest.raises(ValueError, match="aliases"):
        eigen_sections(model, loop, data, 8)
    with pytest.raises(ValueError, match="aliases"):
        dataclasses.replace(basis, mode_bound=8)


def test_fiber_basis_rejects_a_core_in_the_wrong_layout():
    model, loop = sphere_model(1.0, winding=2, grid=64)
    basis = eigen_sections(model, loop, monodromy(model, loop), 4)
    sample_major = np.ascontiguousarray(basis.core.transpose(2, 0, 1))  # (grid, n, n)
    for core in (sample_major, basis.core[0], basis.core[:, :, :, None]):
        with pytest.raises(ValueError, match="is not"):
            dataclasses.replace(basis, core=core)


def sample_major_core(frames, data):
    """c_j(t) = e^{-2 pi i s_j t} Phi(t) w_j by the sample-major formula: Phi(t) W transposed, times the drift, at [t, j]."""
    grid, n = frames.shape[0], data.exponents.size
    mapped = (frames.reshape(grid * n, n) @ data.frame).reshape(grid, n, n)
    drift = np.exp(-2j * np.pi * np.outer(np.arange(grid) / grid, data.exponents))
    return mapped.transpose(0, 2, 1) * drift[:, :, None]


def standard_loop(name, grid):
    """The model and loop of one of the `properties.standard_bases()`, on another grid."""
    basis = dict(properties.standard_bases())[name]
    return basis.model, dataclasses.replace(basis.loop, grid=grid)


CORE_SETUPS = {
    **{name: (lambda grid, name=name: standard_loop(name, grid)) for name in ("torus", "sphere", "su2")},
    "sphere+sine": lambda grid: sphere_model(0.7, winding=3, grid=grid, reparam=Reparam("sine", 0.2, 0.1)),
}


@pytest.mark.parametrize("grid", [4096, 128])
@pytest.mark.parametrize("setup", sorted(CORE_SETUPS))
def test_floquet_core_is_the_sample_major_formula_stored_grid_innermost(setup, grid):
    model, loop = CORE_SETUPS[setup](grid)
    data = monodromy(model, loop)
    frames = transport_frame(model, loop)[:-1]
    core = geo._floquet_core(model, loop, data)
    n = data.exponents.size
    assert core.shape == (n, n, grid) and core.flags.c_contiguous
    assert np.max(np.abs(core.transpose(2, 0, 1) - sample_major_core(frames, data))) <= 1e-15
    assert np.array_equal(eigen_sections(model, loop, data, 4).core, core)


def test_basis_build_and_dhat_peak_memory_stays_at_the_sample_major_multiple():
    model, loop = su2_model(direction=(1.0, 2.0, 2.0))
    data = monodromy(model, loop)
    dhat_residuals(eigen_sections(model, loop, data, 8))  # the FFT plans are cached from here on
    tracemalloc.start()
    try:
        basis = eigen_sections(model, loop, data, 8)
        dhat_residuals(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (grid, n, n) layout peaked at 4.78 cores here
    assert peak <= 4.79 * basis.core.nbytes, peak / basis.core.nbytes


def test_a_floquet_frame_mix_up_fails_the_dhat_record(monkeypatch):
    """The reference sphere has W != I, so a core built with W in place of W^T fails a basis-level record."""
    floquet_core = geo._floquet_core

    def transposed(model, loop, data):
        # Phi(t) W^T in place of Phi(t) W; the core reads only the frame and the exponents of its data
        return floquet_core(model, loop, types.SimpleNamespace(frame=data.frame.T, exponents=data.exponents))

    monkeypatch.setattr(geo, "_floquet_core", transposed)
    properties.standard_bases.cache_clear()
    try:
        record = properties.run_property("dhat-eigenvalue-residual", seed=0)
    finally:
        monkeypatch.undo()
        properties.standard_bases.cache_clear()
    assert not record.passed and record.error is None


TRANSPOSED_SAMPLER_FAILS = {"transport-step-doubling", "sphere-latitude-holonomy", "dhat-eigenvalue-residual"}


def test_a_transposed_transport_sampler_fails_exactly_its_witness_records(monkeypatch):
    """Phi(t)^T M in place of Phi(t) M (u-bar in place of u): transport runs backwards along every loop."""
    sampler = geo._transport_samples

    def transposed(model, loop, t0, ts, columns):
        phi = sampler(model, loop, t0, ts, np.eye(len(model.generator)))  # Phi[k, l] at [l, k, t]
        return np.einsum("klt,lj->jkt", phi, columns)  # (Phi^T M)[k, j] = sum_l Phi[l, k] M[l, j] at [j, k, t]

    monkeypatch.setattr(geo, "_transport_samples", transposed)
    properties.standard_bases.cache_clear()
    try:
        records = properties.run_properties(properties.property_names(), seed=0)
    finally:
        monkeypatch.undo()
        properties.standard_bases.cache_clear()
    assert all(rec.error is None for rec in records)
    assert {rec.name for rec in records if not rec.passed} == TRANSPOSED_SAMPLER_FAILS


def test_dhat_residuals_small():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    assert max(dhat_residuals(basis)) < 1e-6


def test_projection_roundtrip():
    rng = np.random.default_rng(5)
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    coeffs = rng.normal(size=basis.count) + 1j * rng.normal(size=basis.count)
    recovered = basis.project(basis.section(coeffs))
    assert np.max(np.abs(recovered - coeffs)) < 1e-8


def test_polynomial_loop_action_recognised():
    _, _, data, basis = torus_basis()
    rng = np.random.default_rng(7)
    coeffs = np.zeros(basis.count, dtype=complex)
    coeffs[basis.count // 2] = 1.0
    assert loop_recognition_residual(basis, coeffs) < 1e-8


def sampled_loop_recognition(basis, coefficients):
    """Relative RMS of g b(t+1) - b(t), with b sampled at t and at t + 1 from its own phase matrices."""
    data = basis.data
    ts = np.arange(basis.grid) / basis.grid
    coeffs = np.asarray(coefficients, dtype=complex).reshape(2 * basis.mode_bound + 1, -1)
    modes = np.arange(-basis.mode_bound, basis.mode_bound + 1)

    def frame_coords(offset):
        phase = np.exp(2j * np.pi * np.outer(ts + offset, modes))  # (t, p)
        drift = np.exp(-2j * np.pi * np.outer(ts + offset, data.exponents))  # (t, j)
        weights = np.einsum("tp,pj,tj->tj", phase, coeffs, drift)
        return np.einsum("ij,tj->ti", data.frame, weights)

    b0 = frame_coords(0.0)
    b1 = np.einsum("ij,tj->ti", data.holonomy, frame_coords(1.0))
    return float(np.sqrt(np.mean(np.abs(b1 - b0) ** 2)) / np.sqrt(np.mean(np.abs(b0) ** 2)))


@pytest.mark.parametrize("name", ["torus", "sphere", "su2"])
def test_loop_recognition_closed_form_matches_sampled_oracle(name):
    basis = dict(properties.standard_bases())[name]
    rng = np.random.default_rng(13)
    decay = np.exp(-0.4 * np.abs(basis.rows()[0]))
    coeffs = [(rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)) * decay for _ in range(3)]
    for c in coeffs:
        assert abs(loop_recognition_residual(basis, c) - sampled_loop_recognition(basis, c)) <= 1e-14
    # a holonomy moved by about 1e-9 keeps the frame an eigenframe only to that size, so D != 0
    n = basis.data.exponents.size
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    moved = basis.data.holonomy + 1e-9 * noise / np.linalg.norm(noise)
    perturbed = dataclasses.replace(basis, data=dataclasses.replace(basis.data, holonomy=moved))
    assert np.linalg.norm(perturbed.data.eigenframe_defect()) > 1e-10
    for c in coeffs:
        closed, oracle = loop_recognition_residual(perturbed, c), sampled_loop_recognition(perturbed, c)
        assert oracle > 1e-11
        assert abs(closed - oracle) <= 1e-6 * oracle


def test_project_section_agrees_with_sampled_form():
    model, loop = sphere_model(np.pi / 4)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 3)
    coeffs = np.eye(basis.count)[2].astype(complex)
    projected, roundtrip_err = project_section(basis, basis.section(coeffs))
    assert np.max(np.abs(projected - coeffs)) < 1e-8
    assert roundtrip_err < 1e-8


# ---------------------------------------------------------------------------
# weighted pairing


def test_pairing_spot_value_torus():
    model, loop = torus_model(winding=(1, 0), grid=512)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    row = int(np.where(basis.rows()[0] == 1)[0][0])
    coeffs = np.zeros(basis.count, dtype=complex)
    coeffs[row] = 1.0
    value = cos_inner_product(basis, coeffs, coeffs, 2.0)
    assert abs(value - 1.5625) < 1e-10


def test_pairing_spot_value_sphere():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    row = int(np.where(basis.rows()[0] == 0)[0][0])
    coeffs = np.zeros(basis.count, dtype=complex)
    coeffs[row] = 1.0
    # exponent -1/2 shifts the weight to cosh(ln 2 / 2)^2 = 9/8
    value = cos_inner_product(basis, coeffs, coeffs, 2.0)
    assert abs(value - 1.125) < 1e-10


def test_pairing_requires_annulus():
    model, loop = torus_model(winding=(1, 0), grid=512)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 2)
    coeffs = np.eye(basis.count)[0].astype(complex)
    with pytest.raises(ValueError):
        cos_inner_product(basis, coeffs, coeffs, 1.0)


def test_cos_gram_positive_definite():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    eigs = np.linalg.eigvalsh(cos_gram(basis, 2.0))
    assert np.min(eigs) >= 1.0  # cosh^2 >= 1 on the diagonal


def dense_cos_gram_floor(basis, r):
    """The dense oracle: cut the rows of the (2P+1)n-square Gram's transpose, weight them, take one eigvalsh."""
    rows = basis.gram().T.copy()
    rows[np.abs(rows) <= geo.TRIG_FLOOR * np.abs(rows).max(axis=1, keepdims=True)] = 0.0
    modes, cores = basis.rows()
    weighted = (rows.conj() * np.cosh((modes - basis.data.exponents[cores]) * np.log(r)) ** 2) @ rows.T
    scale = np.sqrt(np.diag(weighted).real)
    if not np.all(scale > 0.0):
        return -1.0
    return float(np.linalg.eigvalsh(weighted / np.outer(scale, scale))[0])


SYMBOL_SETUPS = {
    "sphere-pi3": lambda: sphere_model(np.pi / 3, grid=1024),
    "sphere-theta1-w2": lambda: sphere_model(1.0, winding=2, grid=1024),
    "su2": lambda: su2_model(direction=(1.0, 2.0, 2.0), grid=1024),
    "torus": lambda: torus_model(winding=(1, 2), grid=1024),
}


@pytest.mark.parametrize("mode_bound", [1, 8, 40])
@pytest.mark.parametrize("setup", sorted(SYMBOL_SETUPS))
def test_gram_symbol_checks_equal_their_dense_oracles(setup, mode_bound):
    model, loop = SYMBOL_SETUPS[setup]()
    basis = eigen_sections(model, loop, monodromy(model, loop), mode_bound)
    assert basis.gram_symbol.shape == (4 * mode_bound + 1,) + basis.core.shape[:2]
    # built once per basis, and no check may write into the blocks the next one reads
    assert basis.gram_symbol is basis.gram_symbol and not basis.gram_symbol.flags.writeable
    assert basis.gram_error() == float(np.max(np.abs(basis.gram() - np.eye(basis.count))))
    for r in (1.5, 2.0, 3.7):
        assert geo.cos_gram_floor(basis, r) == dense_cos_gram_floor(basis, r), r


@pytest.mark.parametrize("setup", sorted(SYMBOL_SETUPS))
def test_gram_symbol_equals_the_per_sample_products(setup):
    model, loop = SYMBOL_SETUPS[setup]()
    # grid 1024, and grid 128, where the 4P + 1 bins of P = 63 wrap past the grid
    for grid, mode_bound in [(1024, 8), (128, 63)]:
        moved = dataclasses.replace(loop, grid=grid)
        basis = eigen_sections(model, moved, monodromy(model, moved), mode_bound)
        # an orthonormal core has a constant overlap; mixing in a moving phase makes every block F[k] differ
        mixed = basis.core.copy()
        mixed[1] += 0.3 * np.exp(2j * np.pi * np.arange(grid) / grid) * mixed[0]
        for core in (basis.core, mixed):
            samples = np.moveaxis(core, 2, 0)  # (t, j, k)
            spectrum = np.fft.fft(samples.conj() @ samples.transpose(0, 2, 1), axis=0) / grid
            expected = spectrum[np.arange(-2 * mode_bound, 2 * mode_bound + 1) % grid]
            symbol = dataclasses.replace(basis, core=core).gram_symbol
            assert np.max(np.abs(symbol - expected)) <= 1e-15, (grid, mode_bound)


def test_gram_symbol_peak_memory_stays_below_four_cores():
    model, loop = su2_model(direction=(1.0, 2.0, 2.0))
    basis = eigen_sections(model, loop, monodromy(model, loop), 8)
    tracemalloc.start()
    try:
        basis.gram_symbol
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-sample n x n products peak at 2 cores, an (n, n, n, grid) broadcast at 5
    assert peak < 4 * basis.core.nbytes, peak / basis.core.nbytes


def test_cos_gram_floor_reads_minus_one_when_modes_couple():
    model, loop = sphere_model(np.pi / 3, grid=512)
    basis = eigen_sections(model, loop, monodromy(model, loop), 4)
    bump = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(512) / 512)
    bumped = dataclasses.replace(basis, core=basis.core * bump)
    # c^H c = bump^2 = 9/8 + cos 2 pi t + (1/8) cos 4 pi t: the blocks F[+-1] (index 2P -+ 1) survive the cut
    assert np.allclose(bumped.gram_symbol[[7, 9]], 0.5 * np.eye(2), atol=1e-14)
    assert geo.cos_gram_floor(bumped, 2.0) == -1.0


def test_pairing_approaches_plain_l2_at_r_one():
    model, loop = torus_model(winding=(1, 0), grid=512)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 3)
    coeffs = np.eye(basis.count)[1].astype(complex)
    value = cos_inner_product(basis, coeffs, coeffs, 1.0 + 1e-8)
    assert abs(value - 1.0) < 1e-6


def _weight_probe_basis():
    model, loop = sphere_model(np.pi / 3, grid=64)
    return eigen_sections(model, loop, monodromy(model, loop), 2)


WEIGHT_ENTRY_POINTS = {
    "apply_cosh_weight": lambda basis, r: apply_cosh_weight(basis_vector(2, 1, 0), trivial_shift_data(2), r),
    "apply_cosh_weight_inverse": lambda basis, r: apply_cosh_weight_inverse(
        basis_vector(2, 1, 0), trivial_shift_data(2), r
    ),
    # a constant loop couples no modes, so the tail evaluates no ratio of weights; r is still checked on entry
    "conjugated_hs_tail-constant": lambda basis, r: conjugated_hs_tail(
        MatrixLoop(dim=2, field="complex", coeffs={0: np.eye(2)}), trivial_shift_data(2), r, 4
    ),
    "conjugated_hs_tail": lambda basis, r: conjugated_hs_tail(
        MatrixLoop(dim=2, field="complex", coeffs={1: np.eye(2)}), trivial_shift_data(2), r, 4
    ),
    "cos_inner_product": lambda basis, r: cos_inner_product(basis, np.ones(basis.count), np.ones(basis.count), r),
    "cos_gram": lambda basis, r: cos_gram(basis, r),
    "cos_gram_floor": lambda basis, r: geo.cos_gram_floor(basis, r),
    "FiberBasis.pairing_weights": lambda basis, r: basis.pairing_weights(r),
}


@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("name", sorted(WEIGHT_ENTRY_POINTS))
def test_every_weight_entry_point_rejects_r_at_most_one(name, r):
    """One rule, one message: `modes.cosh_weight` holds the package's only r > 1 check of the cosh weight."""
    basis = _weight_probe_basis()
    with pytest.raises(ValueError, match=r"^weight parameter must satisfy r > 1$"):
        WEIGHT_ENTRY_POINTS[name](basis, r)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.7])
def test_fibre_pairing_weights_are_the_mode_space_cosh_weights(r):
    """The modes convention p + shift with shift = -s_j meets the fibre's p - s_j, section by section."""
    for _, basis in properties.standard_bases():
        n, bound = basis.core.shape[0], basis.mode_bound
        shifts = trivial_shift_data(n, -basis.data.exponents)
        weights = basis.pairing_weights(r)
        for p in range(-bound, bound + 1):
            for j in range(n):
                weighted = apply_cosh_weight(basis_vector(n, p, j, mode_bound=bound), shifts, r)
                assert weights[(p + bound) * n + j] == pytest.approx(l2_norm(weighted) ** 2, rel=1e-14, abs=0.0)
        ones = np.ones(basis.count)
        for a, b in ((ones[1:], ones[1:]), (ones, np.ones(basis.count + 1)), (ones.reshape(-1, 1), ones)):
            with pytest.raises(ValueError):
                cos_inner_product(basis, a, b, r)


# ---------------------------------------------------------------------------
# reparametrisation behaviour


def test_condiff_residuals():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    values = basis.core[1].T  # section (p = 0, j = 1)
    assert condiff_residual(model, loop, Reparam("identity"), values) < 1e-10
    assert condiff_residual(model, loop, Reparam("rotation", shift=0.37), values) < 1e-6
    assert condiff_residual(model, loop, Reparam("sine", amplitude=0.1), values) < 1e-4


def test_condiff_checks_the_quarter_rule_of_its_values_before_resampling(monkeypatch):
    """A core column without its drift is not band-limited: its degree fails the quarter rule and it is never
    resampled; condiff_residual raises as reparam_actions does on the same core."""
    model, loop = sphere_model(np.pi / 3, grid=256)
    data = monodromy(model, loop)
    drift_free = geo._transport_samples(model, loop, 0.0, np.arange(loop.grid) / loop.grid, data.frame)

    def refuse(*args, **kwargs):
        raise AssertionError("condiff_residual resampled values that fail the quarter rule")

    monkeypatch.setattr(geo, "trig_interpolate", refuse)
    for rep in (Reparam("identity"), Reparam("sine", amplitude=0.1)):
        with pytest.raises(ValueError, match=r"^degree \d+ must be < grid/4 = 64$"):
            condiff_residual(model, loop, rep, drift_free[1].T)


def test_condiff_rejects_orientation_reversal():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 2)
    with pytest.raises(ValueError):
        condiff_residual(model, loop, Reparam("reflection"), basis.core[0].T)


def test_rotation_preserves_polynomial_basis():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    report = reparam_actions(basis, Reparam("rotation", shift=0.3))
    assert report["standard_residuals"].max() < 1e-8


def test_generic_reparam_breaks_polynomial_basis():
    model, loop = sphere_model(np.pi / 3)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 4)
    rep = Reparam("sine", amplitude=0.1)
    report = reparam_actions(basis, rep)
    assert report["standard_residuals"].min() > 1e-3
    # the transport action still carries the basis along exactly
    assert monodromy(model, loop.with_reparam(rep)).periodicity_residual() < 1e-8


@pytest.mark.parametrize("kind", ["sphere", "su2"])
def test_each_reparam_residual_is_the_shared_tail_of_its_pulled_section(kind):
    """Residual s is `relative_tail` of e^{2 pi i p sigma} c_j o sigma at degree s, bit for bit, one section at a time."""
    rep = Reparam("sine", shift=0.2, amplitude=0.08)
    model, loop = sphere_model(np.pi / 3, grid=256) if kind == "sphere" else su2_model(direction=(1.0, 2.0, 2.0), grid=256)
    basis = eigen_sections(model, loop, monodromy(model, loop), 3)
    report = reparam_actions(basis, rep)
    sig = np.mod(rep.sigma(np.arange(basis.grid) / basis.grid), 1.0)
    pulled_core = trig_interpolate(np.moveaxis(basis.core, 2, 0), sig)  # (t, j, k)
    modes, cores = basis.rows()
    phases = np.exp(2j * np.pi * np.outer(modes, sig))  # one batch, as np.exp may round a lone row differently
    assert report["standard_residuals"].min() > 1e-3  # every section has a tail to read
    for index, j in enumerate(cores):
        section = phases[index][:, None] * pulled_core[:, j, :]
        tail = relative_tail(np.fft.fft(section, axis=0), report["degrees"][index])
        assert report["standard_residuals"][index] == tail


def test_reparam_actions_computes_no_transport(monkeypatch):
    """The standard action reads only the core; the transport action's check is the caller's `monodromy`."""
    model, loop = sphere_model(np.pi / 3, grid=512)
    basis = eigen_sections(model, loop, monodromy(model, loop), 4)

    def refuse(*args, **kwargs):
        raise AssertionError("reparam_actions transported a frame")

    for name in ("monodromy", "transport", "transport_frame"):
        monkeypatch.setattr(geo, name, refuse)
    for rep in (Reparam("rotation", shift=0.3), Reparam("reflection"), Reparam("sine", amplitude=0.1)):
        report = reparam_actions(basis, rep)
        assert set(report) == {"standard_residuals", "degrees"}
        assert report["standard_residuals"].shape == report["degrees"].shape == (basis.count,)


# the Fourier modes each core column carries: on the sphere (pi/3) c_j = e^{i pi t} R(-pi t) w_j, w_j real, modes 0
# and 1; on su2 (1, 2, 2) every exponent is 0 and the transport turns at frequencies 0 and +-1
CORE_BANDS = {"sphere": (0, 1), "su2": (-1, 0, 1)}


def jacobi_anger_spectrum(coeffs, p, rep, reach=40):
    """Modes and Fourier coefficients of e^{2 pi i p sigma} c o sigma for sigma = shift + t + a sin 2 pi t, c given by
    its coefficients {g: C_g} over a band of consecutive modes: mode g goes to C_g e^{2 pi i m shift} J_k(2 pi m a)
    at mode m + k, m = g + p, |k| <= reach (Jacobi-Anger, Watson 1922, section 2.22)."""
    band = sorted(coeffs)
    ks = np.arange(-reach, reach + 1)
    spectrum = np.zeros((band[-1] - band[0] + 2 * reach + 1, coeffs[band[0]].size), dtype=complex)
    for g in band:
        m = g + p
        phase = np.exp(2j * np.pi * m * rep.shift)
        spectrum[g - band[0] + ks + reach] += jv(ks, 2 * np.pi * m * rep.amplitude)[:, None] * (phase * coeffs[g])
    return np.arange(band[0] + p - reach, band[-1] + p + reach + 1), spectrum


@pytest.mark.parametrize("shift,amplitude", [(0.0, 0.1), (0.1, 0.08)])
@pytest.mark.parametrize("kind", sorted(CORE_BANDS))
def test_reparam_actions_matches_the_jacobi_anger_spectrum(kind, shift, amplitude):
    """Every residual is the tail of the Bessel spectrum of its pulled section, and every degree the core band
    shifted by p: the oracle resamples nothing."""
    if kind == "sphere":
        model, loop = sphere_model(np.pi / 3, grid=2048)
    else:
        model, loop = su2_model(direction=(1.0, 2.0, 2.0), grid=2048)
    basis = eigen_sections(model, loop, monodromy(model, loop), 4)
    rep = Reparam("sine", shift=shift, amplitude=amplitude)
    report = reparam_actions(basis, rep)
    band = CORE_BANDS[kind]
    core_spectrum = np.fft.fft(basis.core, axis=2) / basis.grid  # (j, k, bin)
    outside = np.delete(core_spectrum, band, axis=2)
    assert np.linalg.norm(outside) <= 1e-14 * np.linalg.norm(core_spectrum)
    modes, cores = basis.rows()
    assert report["degrees"].tolist() == [max(abs(g + p) for g in band) for p in modes]
    oracle = np.empty(basis.count)
    for index, (p, j) in enumerate(zip(modes, cores)):
        out, spectrum = jacobi_anger_spectrum({g: core_spectrum[j, :, g] for g in band}, p, rep)
        mass = np.linalg.norm(spectrum, axis=1)
        oracle[index] = np.linalg.norm(mass[np.abs(out) > report["degrees"][index]]) / np.linalg.norm(mass)
    assert np.max(np.abs(report["standard_residuals"] - oracle)) <= 1e-14
    if kind == "sphere":
        # the reparam-generic-breaks record reads the sphere maximum at a = 0.1
        assert oracle.max() == pytest.approx(0.5951407 if shift == 0.0 else 0.5670015, abs=1e-7)


@pytest.mark.parametrize("shift,amplitude", [(0.0, 0.1), (0.1, 0.08)])
def test_condiff_pulled_section_matches_the_jacobi_anger_synthesis(shift, amplitude):
    """condiff's pulled section a o sigma and its covariant derivative along the reparametrised loop, against the
    Bessel spectrum of a o sigma: the oracle resamples nothing."""
    model, loop = sphere_model(np.pi / 3, grid=2048)
    basis = eigen_sections(model, loop, monodromy(model, loop), 4)
    rng = np.random.default_rng(7)
    decay = np.exp(-0.5 * np.abs(basis.rows()[0]))
    values = basis.section((rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)) * decay)
    grid, ts = basis.grid, np.arange(basis.grid) / basis.grid
    spectrum = np.fft.fft(values, axis=0) / grid  # (bin, k)
    band = np.arange(-basis.mode_bound, basis.mode_bound + 2)  # the core's modes 0 and 1, shifted by |p| <= P
    assert np.linalg.norm(np.delete(spectrum, band, axis=0)) <= 1e-14 * np.linalg.norm(spectrum)
    rep = Reparam("sine", shift=shift, amplitude=amplitude)
    out, pulled_spectrum = jacobi_anger_spectrum({g: spectrum[g] for g in band}, 0, rep)
    synthesis = np.exp(2j * np.pi * np.outer(ts, out))
    oracle = synthesis @ pulled_spectrum
    # D_{gamma o sigma} = d/dt - sigma'(t) A0
    oracle_derivative = synthesis @ (2j * np.pi * out[:, None] * pulled_spectrum)
    oracle_derivative -= rep.dsigma(ts)[:, None] * (oracle @ model.generator.T)
    pulled = trig_interpolate(values, np.mod(rep.sigma(ts), 1.0))
    derivative = covariant_derivative(model, loop.with_reparam(rep), pulled)
    assert np.max(np.abs(pulled - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert np.max(np.abs(derivative - oracle_derivative)) <= 1e-11 * np.max(np.abs(oracle_derivative))


def test_reparam_actions_checks_the_quarter_rule_before_resampling(monkeypatch):
    """A core without its drift is not band-limited: its degrees fail the quarter rule and it is never resampled."""
    model, loop = sphere_model(np.pi / 3, grid=256)
    data = monodromy(model, loop)
    drift_free = geo._transport_samples(model, loop, 0.0, np.arange(loop.grid) / loop.grid, data.frame)
    basis = geo.FiberBasis(model=model, loop=loop, data=data, mode_bound=4, core=drift_free)

    def refuse(*args, **kwargs):
        raise AssertionError("reparam_actions resampled a core that fails the quarter rule")

    monkeypatch.setattr(geo, "trig_interpolate", refuse)
    with pytest.raises(ValueError, match=r"^degree \d+ must be < grid/4 = 64$"):
        reparam_actions(basis, Reparam("sine", amplitude=0.1))


def test_reparam_actions_working_memory_is_flat_in_the_mode_bound():
    """Each mode p forms and transforms only its own n sections, so the traced peak does not grow with P."""
    model, loop = su2_model(direction=(1.0, 2.0, 2.0), grid=1024)
    data = monodromy(model, loop)
    rep = Reparam("sine", shift=0.1, amplitude=0.1)
    peaks = {}
    for mode_bound in (8, 64):
        basis = eigen_sections(model, loop, data, mode_bound)
        reparam_actions(basis, rep)  # the FFT plans are cached from here on
        tracemalloc.start()
        try:
            reparam_actions(basis, rep)
            peaks[mode_bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the returned degrees and residuals and the basis's row indices grow with P, by 45 bytes a section here (2%);
    # the (grid, sections) arrays that grew 7.4-fold from P = 8 to 64 are gone
    assert peaks[64] <= 1.05 * peaks[8], peaks


UNREPARAMETRISED = {
    "torus": lambda: torus_model(winding=(1, 2), grid=64),
    "sphere": lambda: sphere_model(1.0, winding=2, grid=64),
    "su2": lambda: su2_model(direction=(1.0, 2.0, 2.0), grid=64),
}


@pytest.mark.parametrize("setup", sorted(UNREPARAMETRISED))
def test_an_unreparametrised_loop_is_the_identity_bit_for_bit(setup):
    """sigma(t) = t and sigma' = 1 reproduce the explicit formulas of a loop without a reparametrisation."""
    model, loop = UNREPARAMETRISED[setup]()
    assert loop.reparam is None
    ts = np.linspace(-0.3, 1.7, 33)
    a0 = model.generator
    assert np.array_equal(loop.sigma(ts), ts)
    assert np.array_equal(loop.dsigma(ts), np.ones(ts.size))
    assert np.array_equal(model.coefficients(loop, ts), np.broadcast_to(a0, (ts.size,) + a0.shape))
    samples = geo._transport_samples(model, loop, 0.3, ts, np.eye(len(a0)))  # Phi[:, j] at [j, :, t]
    assert np.max(np.abs(samples.transpose(2, 1, 0) - SkewSpectrum(a0).exp(ts - 0.3))) <= 1e-15
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, a0.shape[0], loop.grid)) + 1j * rng.standard_normal((3, a0.shape[0], loop.grid))
    assert np.array_equal(geo._connection_term(model, loop, values), a0 @ values)


def test_reparam_mechanics():
    rot = Reparam("rotation", shift=0.25)
    ts = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(rot.sigma(ts) - (ts + 0.25))) < 1e-15
    assert rot.orientation == 1
    assert Reparam("reflection").orientation == -1
    composed = rot.compose(Reparam("rotation", shift=0.5))
    assert np.max(np.abs(composed.sigma(ts) - (ts + 0.75))) < 1e-15
    with pytest.raises(ValueError):
        Reparam("sine", amplitude=0.2)  # slope would cross zero


def _per_kind_sigma(kind, shift, amplitude, ts):
    """sigma written out kind by kind, as each map is defined."""
    if kind == "identity":
        return ts
    if kind == "rotation":
        return ts + shift
    if kind == "sine":
        return ts + shift + amplitude * np.sin(2.0 * np.pi * ts)
    return shift - ts


def _per_kind_dsigma(kind, amplitude, ts):
    if kind == "sine":
        return 1.0 + 2.0 * np.pi * amplitude * np.cos(2.0 * np.pi * ts)
    return -np.ones_like(ts) if kind == "reflection" else np.ones_like(ts)


def test_one_sigma_formula_matches_every_kind_bit_for_bit():
    ts = np.linspace(0.0, 1.0, 257)
    # identity ignores a given shift, and only the sine keeps its amplitude
    kinds = [("identity", 0.3, 0.05), ("rotation", 0.35, 0.05), ("sine", 0.2, 0.1), ("reflection", 0.4, 0.05)]
    for kind, shift, amplitude in kinds:
        rep = Reparam(kind, shift=shift, amplitude=amplitude)
        assert np.array_equal(rep.sigma(ts), _per_kind_sigma(kind, shift, amplitude, ts)), kind
        assert np.array_equal(rep.dsigma(ts), _per_kind_dsigma(kind, amplitude, ts)), kind
    for outer, inner in ((kinds[2], kinds[1]), (kinds[3], kinds[2])):
        composed = Reparam(*outer).compose(Reparam(*inner))
        inner_sigma = _per_kind_sigma(*inner, ts)
        assert np.array_equal(composed.sigma(ts), _per_kind_sigma(*outer, inner_sigma))
        expected = _per_kind_dsigma(outer[0], outer[2], inner_sigma) * _per_kind_dsigma(inner[0], inner[2], ts)
        assert np.array_equal(composed.dsigma(ts), expected)
        assert composed.orientation == (-1 if outer[0] == "reflection" else 1)


@pytest.mark.parametrize("setup", sorted(DENSE_SETUPS))
def test_section_index_and_periodicity_match_their_old_constructions(setup):
    model, loop = DENSE_SETUPS[setup](256)
    data = monodromy(model, loop)
    basis = eigen_sections(model, loop, data, 5)
    n = data.exponents.size
    # the (p, s_j) float rows a basis used to store
    pairs = np.stack([np.repeat(np.arange(-5, 6), n).astype(float), np.tile(data.exponents, 11)], axis=1)
    modes, cores = basis.rows()
    assert np.array_equal(np.stack([modes.astype(float), data.exponents[cores]], axis=1), pairs)
    assert basis.count == pairs.shape[0]
    assert np.array_equal(modes, np.rint(pairs[:, 0]).astype(int))
    assert np.array_equal(cores, np.arange(basis.count) % n)

    def column_max(data):
        defect = data.holonomy @ data.frame - data.frame * np.exp(2j * np.pi * data.exponents)[None, :]
        assert np.array_equal(data.eigenframe_defect(), defect)
        return float(np.linalg.norm(defect, axis=0).max())

    assert basis.periodicity_residual() == column_max(data)
    rep = Reparam("sine", 0.1, 0.08)
    moved = monodromy(model, loop.with_reparam(rep))
    assert moved.periodicity_residual() == column_max(moved)


def test_floquet_data_invariant_under_rotation():
    model, loop = sphere_model(0.9, winding=1)
    base = monodromy(model, loop)
    model2, loop2 = sphere_model(0.9, winding=1, reparam=Reparam("rotation", shift=0.3))
    shifted = monodromy(model2, loop2)
    assert np.max(np.abs(np.sort(base.exponents) - np.sort(shifted.exponents))) < 1e-8


# ---------------------------------------------------------------------------
# sub-bundle counterexample and span diagnostics


def test_counterexample_matches_bessel_oracle(certified):
    gamma = lambda t: t + 0.3 * np.sin(2 * np.pi * t)
    residual = subbundle_counterexample(gamma, identity_loop(1, field="complex"))
    assert type(residual) is float and residual > 1e-3
    assert [call.degree for call in certified] == [CERT_GUARD + 1]  # deg(beta) = 0 plus the guard plus the winding 1
    assert residual == pytest.approx(COUNTEREXAMPLE_RESIDUAL, rel=1e-9)
    # independent route: tail of the Jacobi-Anger expansion of the phase twist
    J = jv(np.arange(80), 0.6 * np.pi)
    oracle = np.sqrt(np.sum(J[5:] ** 2) + np.sum(J[7:] ** 2))
    assert residual == pytest.approx(oracle, rel=1e-9)


def test_counterexample_persists_for_higher_degree_loop():
    gamma = lambda t: t + 0.3 * np.sin(2 * np.pi * t)
    beta = MatrixLoop(dim=1, field="complex", coeffs={2: np.eye(1)})
    residual = subbundle_counterexample(gamma, beta)
    assert residual == pytest.approx(COUNTEREXAMPLE_RESIDUAL_Z2, rel=1e-9)
    assert residual > 1e-3


def test_counterexample_flags_a_second_harmonic_lift(certified):
    # e^{2 pi i (t + 0.1 sin 4 pi t)} has mode 1 + 2k with coefficient J_k(0.2 pi); degree 5 keeps k = -3..2
    residual = subbundle_counterexample(lambda t: t + 0.1 * np.sin(4 * np.pi * t), identity_loop(1, field="complex"))
    J = jv(np.arange(40), 0.2 * np.pi)
    oracle = np.sqrt(np.sum(J[3:] ** 2) + np.sum(J[4:] ** 2))
    assert [call.degree for call in certified] == [5]
    assert residual == pytest.approx(oracle, rel=1e-9)
    assert residual > 1e-3


def test_linear_phase_is_polynomial():
    assert subbundle_counterexample(lambda t: t, identity_loop(1, field="complex")) < 1e-10


def test_counterexample_requires_integer_winding():
    with pytest.raises(ValueError):
        subbundle_counterexample(lambda t: 0.5 * t, identity_loop(1, field="complex"))


def test_direct_sum_union_is_consistent():
    assert direct_sum_union_residual() < 1e-8


def test_complexification_spans_the_same_space():
    assert complexification_residual() < 1e-8


def test_conjugated_transport_fails_the_span_checks(monkeypatch):
    """Transporting with W Phi(t) W^-1 (W the Floquet frame) breaks both span records."""

    floquet_core = geo._floquet_core

    def conjugated(model, loop, data):
        # W Phi(t) W^-1 in place of Phi(t), so W (Phi(t) w_j) in place of Phi(t) w_j; reaches every core, the direct
        # sum's block-diagonal model included
        return data.frame @ floquet_core(model, loop, data)

    monkeypatch.setattr(geo, "_floquet_core", conjugated)
    for name in ("direct-sum-union", "complexification-span"):
        record = properties.run_property(name, seed=0)
        assert not record.passed and record.error is None, name


def test_floquet_window_structure_fails_for_a_non_orthonormal_frame(monkeypatch):
    floquet = geo.floquet

    def doubled(g):
        data = floquet(g)
        return dataclasses.replace(data, frame=data.frame * 2.0)  # still an eigenframe, no longer orthonormal

    monkeypatch.setattr(geo, "floquet", doubled)
    record = properties.run_property("floquet-window-structure", seed=0)
    assert not record.passed and record.error is None and record.threshold == 1e-8


def test_cos_gram_positive_fails_for_a_repeated_core_vector(monkeypatch):
    repeated = []
    for name, basis in properties.standard_bases():
        core = basis.core.copy()
        core[1] = core[0]  # section (p, 1) repeats section (p, 0) for every mode p
        repeated.append((name, dataclasses.replace(basis, core=core)))
    monkeypatch.setattr(properties, "standard_bases", lambda: repeated)
    record = properties.run_property("cos-gram-positive", seed=0)
    assert not record.passed and record.error is None and record.threshold == 1e-8


def test_cos_pairing_values_fails_for_a_mixed_core(monkeypatch):
    mixed = []
    for name, basis in properties.standard_bases():
        core = basis.core.copy()
        core[1] = core[1] + 0.3 * core[0]  # sections (p, 0) and (p, 1) overlap; coefficients cannot see it
        mixed.append((name, dataclasses.replace(basis, core=core)))
    monkeypatch.setattr(properties, "standard_bases", lambda: mixed)
    record = properties.run_property("cos-pairing-values", seed=0)
    assert not record.passed and record.error is None and record.threshold == 1e-10
    assert record.observed > 0.1
