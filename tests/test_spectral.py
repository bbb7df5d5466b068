"""Branch logs, skew exponentials, central logs, unitary structures, matched pairs."""

import numpy as np
import pytest
from scipy.linalg import expm, schur

from loopbundle import (
    ChartError,
    block_structure,
    central_log,
    clustered_eig,
    exp_chain,
    exp_pair_loop,
    exp_skew,
    log0_decompose,
    log_branch,
    polynomiality_residual,
    sample_loop,
    so_log,
    torus_path_factor,
    unitary_structure,
)
from loopbundle.laurent import DEFAULT_GRID, SampledLoop
from loopbundle.properties import _rotation_blocks, _taylor_expm
from loopbundle.rand import random_skew, random_special_orthogonal, random_unitary
from loopbundle.spectral import (
    CLUSTER_TOL,
    NEG_ONE_SNAP,
    EigenDecomp,
    SkewSpectrum,
    _cluster_labels,
    projector_basis,
)

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
ROUNDTRIP_TOL = 1e-9
COMMUTATOR_TOL = 1e-9


def rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def test_clustered_eig_reconstructs():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        g = random_unitary(rng, dim)
        decomp = clustered_eig(g)
        rebuilt = (decomp.vectors * decomp.values) @ decomp.vectors.conj().T
        assert np.max(np.abs(rebuilt - g)) < 1e-10
        gram = decomp.vectors.conj().T @ decomp.vectors
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


def test_clustered_eig_merges_repeated_eigenvalues():
    g = np.diag([1j, 1j, -1.0])
    decomp = clustered_eig(g)
    sizes = sorted(len(c) for c in decomp.clusters)
    assert sizes == [1, 2]


def _union_find_clusters(values):
    """Oracle: union-find over the pairs closer than CLUSTER_TOL, clusters sorted by first member."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < CLUSTER_TOL:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))


def _degenerate_unitaries(rng, count, max_multiplicity):
    """Random unitaries, n = 2..6, whose eigenvalues repeat up to max_multiplicity times (-1 often among them)."""
    out = []
    while len(out) < count:
        dim = int(rng.integers(2, 7))
        angles = rng.uniform(-np.pi, np.pi, size=dim)
        if len(out) % 3 == 0:
            angles[0] = np.pi
        angles = angles[rng.integers(0, dim, size=dim)]
        if np.max(np.unique(angles, return_counts=True)[1]) <= max_multiplicity:
            v = random_unitary(rng, dim)
            out.append((v * np.exp(1j * angles)) @ v.conj().T)
    return out


CLUSTER_CASES = {
    "distinct": np.exp(1j * np.array([0.1, 1.0, 2.0, -1.5])),
    "repeats": np.array([1j, 1j, -1.0, 1j, -1.0]),
    "plus-minus-one": np.array([1.0, -1.0, 1.0, -1.0], dtype=complex),
    "chain": 1.0 + 0.6 * CLUSTER_TOL * np.array([0.0, 1.0, 2.0], dtype=complex),
    "chain-middle-last": 1.0 + 0.6 * CLUSTER_TOL * np.array([2.0, 0.0, 1.0], dtype=complex),
}


@pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
def test_cluster_labels_match_union_find(name):
    values = CLUSTER_CASES[name]
    labels = _cluster_labels(values)
    clusters = _union_find_clusters(values)
    assert [labels[c[0]] for c in clusters] == list(range(len(clusters)))  # numbered by first member
    assert EigenDecomp(values, np.eye(len(values)), labels).clusters == clusters
    if name.startswith("chain"):
        assert len(clusters) == 1  # the ends are 1.2 CLUSTER_TOL apart and link only through the middle value


def test_cluster_labels_match_union_find_on_unitaries():
    rng = np.random.default_rng(18)
    inputs = [random_unitary(rng, int(rng.integers(2, 7))) for _ in range(100)]
    inputs += _degenerate_unitaries(rng, 100, max_multiplicity=6)
    assert any(max(map(len, clustered_eig(g).clusters)) > 3 for g in inputs)
    for g in inputs:
        decomp = clustered_eig(g)
        assert decomp.clusters == _union_find_clusters(decomp.values)


def _looped_cluster_values(decomp):
    """Oracle: the cluster mean of each eigenvalue, one np.mean per cluster."""
    out = np.empty(len(decomp.values), dtype=complex)
    for cluster in decomp.clusters:
        mean = np.mean(decomp.values[list(cluster)])
        out[list(cluster)] = mean / np.abs(mean)
    return out


def _looped_compose(decomp, per_cluster):
    """Oracle: the diagonal filled cluster by cluster."""
    diag = np.empty(len(decomp.values), dtype=complex)
    for value, cluster in zip(per_cluster, decomp.clusters):
        diag[list(cluster)] = value
    return (decomp.vectors * diag[None, :]) @ decomp.vectors.conj().T


def test_compose_and_cluster_values_equal_the_per_cluster_loops():
    """Bit for bit while every cluster has at most three members, where np.mean also sums in index order."""
    rng = np.random.default_rng(19)
    inputs = [np.diag(values) for values in CLUSTER_CASES.values()]
    inputs += [random_unitary(rng, int(rng.integers(2, 7))) for _ in range(100)]
    inputs += _degenerate_unitaries(rng, 100, max_multiplicity=3)
    for g in inputs:
        decomp = clustered_eig(g)
        assert decomp.cluster_values.tobytes() == _looped_cluster_values(decomp).tobytes()
        first = [cluster[0] for cluster in decomp.clusters]
        for per_cluster in (1j * np.angle(decomp.cluster_values[first]), rng.standard_normal(len(decomp.clusters))):
            assert decomp.compose(per_cluster[decomp.labels]).tobytes() == _looped_compose(decomp, per_cluster).tobytes()


def test_cluster_values_of_large_clusters_agree_with_the_mean_to_round_off():
    """From four members on, np.mean sums pairwise; the means then differ only in the last bits."""
    rng = np.random.default_rng(20)
    for g in _degenerate_unitaries(rng, 100, max_multiplicity=6):
        decomp = clustered_eig(g)
        assert np.max(np.abs(decomp.cluster_values - _looped_cluster_values(decomp))) <= 4 * np.finfo(float).eps


def _unitary_families(rng):
    """Normal inputs that stress eigenvalue order and eigenspace mixing: (label, unitary)."""
    for dim in range(2, 9):
        v = random_unitary(rng, dim)
        angles = rng.uniform(-np.pi, np.pi, size=dim)
        yield "generic", v @ np.diag(np.exp(1j * angles)) @ v.conj().T
        repeated = np.exp(1j * rng.choice(angles[:2], size=dim))
        yield "degenerate", v @ np.diag(repeated) @ v.conj().T
        yield "exact-signs", v @ np.diag(rng.choice([1.0, -1.0], size=dim)) @ v.conj().T
        for gap in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            near = np.exp(1j * (angles[0] + gap * np.arange(dim) * (np.arange(dim) % 2)))
            yield f"gap-{gap:g}", v @ np.diag(near) @ v.conj().T
        yield "scalar", np.exp(1j * angles[0]) * np.eye(dim)
        yield "diagonal", np.diag(np.exp(1j * angles))
        yield "diagonal-signs", np.diag(rng.choice([1.0, -1.0, 1j], size=dim))


def _assert_matches_schur(g, label):
    decomp = clustered_eig(g)
    t_mat, _ = schur(g, output="complex")
    dim = g.shape[0]
    assert np.max(np.abs(decomp.values - np.diag(t_mat))) < 1e-12, label
    gram = decomp.vectors.conj().T @ decomp.vectors
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-13, label
    rebuilt = (decomp.vectors * decomp.values[None, :]) @ decomp.vectors.conj().T
    assert np.linalg.norm(rebuilt - g) < 1e-10 * max(1.0, float(np.linalg.norm(g))), label


def test_clustered_eig_matches_schur_oracle():
    rng = np.random.default_rng(12)
    for label, g in _unitary_families(rng):
        _assert_matches_schur(g, label)


def test_clustered_eig_matches_schur_under_nonnormal_noise():
    rng = np.random.default_rng(13)
    for label, g in _unitary_families(rng):
        dim = g.shape[0]
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        _assert_matches_schur(g + 1e-12 * noise / np.linalg.norm(noise), label)


def test_clustered_eig_rejects_a_jordan_block():
    with pytest.raises(ValueError, match="not normal"):
        clustered_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not normal"):
        clustered_eig(np.exp(0.3j) * np.eye(3) + np.diag([1.0, 1.0], k=1))


def _mixed_cluster_stack():
    """I, -I, a unitary with one doubly degenerate eigenvalue and a generic unitary: 1, 1, 2 and 3 clusters."""
    rng = np.random.default_rng(41)
    q = random_unitary(rng, 3)
    doubled = (q * np.exp(1j * np.array([0.4, 0.4, -2.0]))) @ q.conj().T
    return np.stack([np.eye(3), -np.eye(3), doubled, random_unitary(rng, 3)]).astype(complex)


def test_stacked_clustered_eig_is_the_per_entry_decomposition():
    stack = _mixed_cluster_stack()
    decomp = clustered_eig(stack)
    counts = []
    for i, g in enumerate(stack):
        single = clustered_eig(g)
        assert np.array_equal(decomp.values[i], single.values)
        assert np.array_equal(decomp.vectors[i], single.vectors)
        assert np.array_equal(decomp.labels[i], single.labels)
        # a mean over the whole stack would pool the clusters of all entries
        assert np.array_equal(decomp.cluster_values[i], single.cluster_values)
        per_cluster = np.arange(1.0, decomp.labels.max() + 2)
        stacked = decomp.compose(per_cluster[decomp.labels])
        assert np.array_equal(stacked[i], single.compose(per_cluster[single.labels]))
        counts.append(len(single.clusters))
    assert decomp.cluster_values.shape == decomp.values.shape
    assert counts == [1, 1, 2, 3]


@pytest.mark.parametrize("log", ["log_branch", "central_log"])
def test_stacked_logs_are_the_per_entry_logs(log):
    stack = _mixed_cluster_stack()
    take = {"log_branch": lambda g: log_branch(g, 0.5j), "central_log": central_log}[log]  # the cut -e^{0.5i} misses the stack
    stacked = take(stack)
    assert stacked.shape == stack.shape
    for i, g in enumerate(stack):
        assert np.array_equal(stacked[i], take(g))


def test_a_chart_error_on_a_stack_marks_the_entries_on_the_cut():
    stack = np.stack([np.eye(2), np.diag([-1.0, 1.0]), np.diag([1j, -1j]), -np.eye(2)])
    with pytest.raises(ChartError) as info:
        log_branch(stack, 0.0)
    assert info.value.mask.tolist() == [False, True, False, True]
    with pytest.raises(ValueError, match="not unitary"):
        log_branch(np.stack([np.eye(2), 2.0 * np.eye(2)]), 0.0)  # any faulty entry fails the whole stack


@pytest.mark.parametrize("kind", ["skew", "general"])
def test_taylor_oracle_matches_expm(kind):
    rng = np.random.default_rng(14)
    for trial in range(120):
        dim = int(rng.integers(2, 8))
        a = rng.standard_normal((dim, dim)) + 1j * (trial % 2) * rng.standard_normal((dim, dim))
        if kind == "skew":
            a = 0.5 * (a - a.conj().T)
        a *= rng.uniform(0.01, 20.0) / np.linalg.norm(a, 2)
        ref = expm(a)
        assert np.linalg.norm(_taylor_expm(a) - ref) < 1e-13 * np.linalg.norm(ref)


def test_exp_skew_zero():
    assert np.array_equal(exp_skew(np.zeros((3, 3))), np.eye(3))


def test_exp_skew_full_turn():
    g = exp_skew(2j * np.pi * np.eye(1))
    assert abs(g[0, 0] - 1.0) < 1e-12


def test_exp_skew_quarter_rotation():
    g = exp_skew((np.pi / 2) * J0)
    assert np.max(np.abs(g - rotation(np.pi / 2))) < 1e-12


def test_exp_skew_matches_expm():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 4):
        xi = random_skew(rng, dim, scale=2.0)
        assert np.max(np.abs(exp_skew(xi) - expm(xi))) < ROUNDTRIP_TOL


def test_exp_skew_rejects_non_skew():
    with pytest.raises(ValueError):
        exp_skew(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_log_branch_principal():
    xi = log_branch(1j * np.eye(1), 0.0)
    assert abs(xi[0, 0] - 1j * np.pi / 2) < 1e-12


def test_log_branch_centred_at_pi():
    xi = log_branch(-np.eye(2), 1j * np.pi)
    assert np.max(np.abs(xi - 1j * np.pi * np.eye(2))) < 1e-12


def _old_exp(spectrum, ts):
    """Reference one-factor exponential: u diag(e^{-i t mu}) u* as one scaled (len(ts) n x n) product."""
    phases = np.exp(-1j * np.outer(np.asarray(ts, dtype=float), spectrum.mu))
    scaled = spectrum.u * phases[:, None, :]
    return (scaled.reshape(-1, spectrum.mu.size) @ spectrum.u.conj().T).reshape(scaled.shape)


@pytest.mark.parametrize("ts", [0.37, 1.0, np.linspace(-1.5, 2.5, 41)])
def test_one_factor_chain_is_the_old_exponential(ts):
    rng = np.random.default_rng(90)
    for dim in (1, 2, 3, 5):
        spectrum = SkewSpectrum(random_skew(rng, dim, scale=2.0))
        assert np.array_equal(exp_chain([spectrum], ts), _old_exp(spectrum, ts))
        assert np.array_equal(spectrum.exp(ts), _old_exp(spectrum, ts))


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("ts", [0.61, np.array([-0.7, 0.0, 0.25, 0.5, 1.0, 1.9])])
def test_chain_matches_product_of_exponentials(count, ts):
    rng = np.random.default_rng(91 + count)
    for dim in (2, 3, 4):
        factors = [random_skew(rng, dim, real=bool(k % 2), scale=3.0) for k in range(count)]
        chain = exp_chain([SkewSpectrum(xi) for xi in factors], ts)
        for t, value in zip(np.atleast_1d(ts), chain):
            expected = np.eye(dim)
            for xi in factors:
                expected = expected @ exp_skew(t * xi)
            assert np.max(np.abs(value - expected)) < 1e-13


def test_negated_spectrum_is_the_spectrum_of_minus_xi():
    rng = np.random.default_rng(94)
    spectrum = SkewSpectrum(random_skew(rng, 4, scale=2.0))
    ts = np.linspace(0.0, 1.0, 9)
    assert np.array_equal((-spectrum).exp(ts), spectrum.exp(-ts))
    assert (-spectrum).radius == spectrum.radius


def test_log_branch_cut_rejection():
    with pytest.raises(ChartError):
        log_branch(-np.eye(2), 0.0)


@pytest.mark.parametrize("branch", [0.0, 1j * np.pi / 2, 1j * np.pi])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_log_branch_roundtrip(branch, dim):
    rng = np.random.default_rng(dim * 100 + int(abs(branch) * 10))
    done = 0
    while done < 20:
        g = random_unitary(rng, dim)
        try:
            xi = log_branch(g, branch)
        except ValueError:
            continue  # eigenvalue close to the cut; draw again
        done += 1
        assert np.max(np.abs(exp_skew(xi) - g)) < ROUNDTRIP_TOL
        assert np.max(np.abs(xi @ g - g @ xi)) < 1e-9
        centre = complex(branch).imag
        angles = np.linalg.eigvals(xi).imag
        assert np.all(angles > centre - np.pi - 1e-9)
        assert np.all(angles < centre + np.pi + 1e-9)


def test_central_log_identity():
    assert np.max(np.abs(central_log(np.eye(3)))) == 0.0


def test_central_log_distinct_eigenvalues():
    theta = 1.0
    g = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    zeta = central_log(g)
    assert np.max(np.abs(zeta - np.diag([1j * theta, -1j * theta]))) < 1e-12


def test_central_log_commutes_with_alternative_logs():
    """On a degenerate spectrum the centre log must commute with every other log."""
    rng = np.random.default_rng(77)
    g = np.diag([1j, 1j])
    zeta = central_log(g)
    assert np.max(np.abs(zeta - (1j * np.pi / 2) * np.eye(2))) < 1e-12
    for _ in range(20):
        # conjugate a branch-shifted diagonal log inside the eigenspace
        q = random_unitary(rng, 2)
        ks = rng.integers(-2, 3, size=2)
        alt = q @ (zeta + 2j * np.pi * np.diag(ks)) @ q.conj().T
        assert np.max(np.abs(exp_skew(alt) - g)) < ROUNDTRIP_TOL
        comm = zeta @ alt - alt @ zeta
        assert np.max(np.abs(comm)) < COMMUTATOR_TOL


def test_central_log_exponentiates_back():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 4):
        g = random_unitary(rng, dim)
        assert np.max(np.abs(exp_skew(central_log(g)) - g)) < ROUNDTRIP_TOL


def test_pair_loop_diagonal_example(certified):
    residual = exp_pair_loop(2j * np.pi * np.diag([1.0, 0.0]), np.zeros((2, 2)))
    loop = certified[-1].loop
    assert residual < 1e-10
    assert sorted(loop.coeffs) == [-1, 0]
    assert np.max(np.abs(loop.coeff(-1) - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(loop.coeff(0) - np.diag([0.0, 1.0]))) < 1e-12


def test_pair_loop_equal_inputs_is_constant(certified):
    rng = np.random.default_rng(21)
    xi = random_skew(rng, 3)
    residual = exp_pair_loop(xi, xi)
    loop = certified[-1].loop
    assert residual < 1e-12
    assert sorted(loop.coeffs) == [0]
    assert np.max(np.abs(loop.coeff(0) - np.eye(3))) < 1e-10


def test_pair_loop_projection_shift(certified):
    rng = np.random.default_rng(34)
    g = random_unitary(rng, 3)
    zeta = central_log(g)
    decomp = clustered_eig(g)
    proj = decomp.projector(decomp.clusters[0])
    residual = exp_pair_loop(zeta + 2j * np.pi * proj, zeta)
    loop = certified[-1].loop
    assert residual < 1e-8
    values = sample_loop(loop, 512)
    assert polynomiality_residual(values, loop.degree) < 1e-8


def test_pair_loop_at_large_spectral_radius(certified):
    # degree 600 needs a grid of 4096; a fixed grid of 1024 cannot hold it
    residual = exp_pair_loop(2j * np.pi * np.diag([600.0, 0.0]), np.zeros((2, 2)))
    loop = certified[-1].loop
    assert len(certified[-1].samples) == 4096
    assert residual < 1e-8
    assert loop.degree == 600
    exact = {-600: np.diag([1.0, 0.0]), 0: np.diag([0.0, 1.0])}
    for k in set(loop.coeffs) | set(exact):
        assert np.max(np.abs(loop.coeff(k) - exact.get(k, 0.0))) < 1e-10


def test_pair_loop_residual_is_the_relative_tail():
    # diag(e^{-6 pi i t}, 1) at degree 1: tail 1, total sqrt 2
    xi_1, xi_2 = 2j * np.pi * np.diag([3.0, 0.0]), np.zeros((2, 2))
    residual = exp_pair_loop(xi_1, xi_2, degree=1)
    ts = np.arange(DEFAULT_GRID) / DEFAULT_GRID
    samples = SampledLoop(values=SkewSpectrum(xi_1).exp(-ts) @ SkewSpectrum(xi_2).exp(ts))
    assert residual == polynomiality_residual(samples, 1)
    assert residual == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_pair_loop_requires_matched_exponentials():
    with pytest.raises(ValueError):
        exp_pair_loop(np.zeros((2, 2)), (np.pi / 3) * J0)


def test_unitary_structure_planar():
    assert np.max(np.abs(unitary_structure(0.7 * J0) - J0)) < 1e-12


def test_unitary_structure_fixes_block_standard():
    J = block_structure(np.eye(4))
    assert np.max(np.abs(unitary_structure(J) - J)) < 1e-10


def test_unitary_structure_stable_under_own_shift():
    rng = np.random.default_rng(50)
    for _ in range(5):
        xi = random_skew(rng, 4, real=True)
        if np.min(np.abs(np.linalg.eigvals(xi))) < 1e-6:
            continue
        J = unitary_structure(xi)
        assert np.max(np.abs(unitary_structure(xi + 0.7 * J) - J)) < 1e-9


def test_unitary_structure_postconditions():
    rng = np.random.default_rng(51)
    for _ in range(10):
        xi = random_skew(rng, 6, real=True)
        if np.min(np.abs(np.linalg.eigvals(xi))) < 1e-6:
            continue
        J = unitary_structure(xi)
        assert np.max(np.abs(J @ J + np.eye(6))) < 1e-9
        assert np.max(np.abs(J.T @ J - np.eye(6))) < 1e-9
        assert np.max(np.abs(xi @ J - J @ xi)) < 1e-9
        # exp(pi J) = -identity
        assert np.max(np.abs(exp_skew(np.pi * J) + np.eye(6))) < 1e-9


def test_unitary_structure_rejects_degenerate():
    xi = np.zeros((4, 4))
    xi[:2, :2] = J0
    with pytest.raises(ValueError):
        unitary_structure(xi)


def test_structure_pair_loop_has_degree_two(certified):
    rng = np.random.default_rng(52)
    for _ in range(5):
        j1 = unitary_structure(random_skew(rng, 4, real=True))
        j2 = unitary_structure(random_skew(rng, 4, real=True))
        residual = exp_pair_loop(np.pi * j1, np.pi * j2, degree=2)
        assert residual < 1e-8
        assert certified[-1].loop.degree <= 2


def test_log0_decompose_planar_rotation():
    phi = 0.9
    xi, J = log0_decompose(rotation(phi))
    assert np.max(np.abs(xi - phi * J0)) < 1e-10
    assert np.max(np.abs(J - J0)) < 1e-10


def test_log0_decompose_minus_identity():
    xi, J = log0_decompose(-np.eye(2))
    assert np.max(np.abs(xi - np.pi * J0)) < 1e-12
    assert np.max(np.abs(J - J0)) < 1e-12


def test_log0_decompose_blockwise():
    g = np.zeros((4, 4))
    g[:2, :2] = rotation(1.1)
    g[2:, 2:] = rotation(2.4)
    xi, J = log0_decompose(g)
    assert np.max(np.abs(xi[:2, :2] - 1.1 * J0)) < 1e-9
    assert np.max(np.abs(xi[2:, 2:] - 2.4 * J0)) < 1e-9
    assert np.max(np.abs(xi[:2, 2:])) < 1e-9
    assert np.max(np.abs(J[:2, :2] - J0)) < 1e-9


def test_log0_decompose_postconditions():
    rng = np.random.default_rng(60)
    done = 0
    while done < 10:
        g = random_special_orthogonal(rng, 4)
        if np.min(np.abs(np.linalg.eigvals(g) - 1.0)) < 1e-3:
            continue
        done += 1
        xi, J = log0_decompose(g)
        assert np.max(np.abs(exp_skew(xi) - g)) < ROUNDTRIP_TOL
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-9
        # the shifted skew part is the principal log of the negated element
        assert np.max(np.abs((xi - np.pi * J) - log_branch(-g, 0.0))) < ROUNDTRIP_TOL


def _sign_theta_structure(g):
    """Oracle: J as i sign(theta) on the principal-log clusters plus the canonical block on the -1 eigenspace."""
    decomp = clustered_eig(g)
    neg_one = np.abs(decomp.cluster_values + 1.0) <= NEG_ONE_SNAP
    j = decomp.compose(1j * np.sign(np.where(neg_one, 0.0, np.angle(decomp.cluster_values))))
    if neg_one.any():
        j += block_structure(projector_basis(decomp.compose(neg_one).real))
    return j.real


def test_log0_decompose_structure_equals_the_sign_theta_construction():
    rng = np.random.default_rng(21)
    with_minus_one = 0
    for _ in range(60):
        half = int(rng.integers(1, 4))
        q = random_special_orthogonal(rng, 2 * half)
        blocks = _rotation_blocks(rng, half)
        g = q @ blocks @ q.T
        with_minus_one += bool(np.any(np.isclose(np.diagonal(blocks), -1.0)))
        assert np.max(np.abs(log0_decompose(g)[1] - _sign_theta_structure(g))) < 1e-12
    assert 0 < with_minus_one < 60  # inputs with and without -1 blocks


def test_log0_decompose_rejects_eigenvalue_one():
    with pytest.raises(ChartError):
        log0_decompose(np.eye(2))


@pytest.mark.parametrize("phi", [0.4, -2.7])
def test_logs_on_conjugated_four_dimensional_minus_one_eigenspace(phi):
    """g = q (-I_4 + R(phi)) q^T: the block structure needs a 4-dimensional -1 eigenspace basis."""
    core = np.zeros((6, 6))
    core[:4, :4] = -np.eye(4)
    core[4:, 4:] = rotation(phi)
    q = random_special_orthogonal(np.random.default_rng(62), 6)
    g = q @ core @ q.T
    xi, J = log0_decompose(g)
    assert np.max(np.abs(J @ J + np.eye(6))) < 1e-9
    for log in (xi, so_log(g)):
        assert np.isrealobj(log)
        assert np.max(np.abs(log + log.T)) < 1e-12
        assert np.max(np.abs(exp_skew(log) - g)) < ROUNDTRIP_TOL


def test_so_log_roundtrip():
    rng = np.random.default_rng(61)
    for dim in (3, 4, 5):
        g = random_special_orthogonal(rng, dim)
        xi = so_log(g)
        assert np.max(np.abs(xi.imag)) < 1e-12
        assert np.max(np.abs(exp_skew(xi) - g)) < ROUNDTRIP_TOL


NEAR_GAPS = np.logspace(-12, -7, 11)


def _near_degenerate_unitary(c, eps):
    """A 3 x 3 unitary with eigenvalues e^{i(c +- eps)} and e^{-1.1 i} in a fixed random eigenbasis."""
    v = random_unitary(np.random.default_rng(5), 3)
    return (v * np.exp(1j * np.array([c + eps, c - eps, -1.1]))) @ v.conj().T


@pytest.mark.parametrize("c", [0.3, np.pi - 1e-3], ids=["c=0.3", "c=pi-1e-3"])
@pytest.mark.parametrize("log", [log_branch, central_log], ids=["log_branch", "central_log"])
def test_logs_invert_the_exponential_on_near_degenerate_unitaries(log, c):
    """A pair closer than CLUSTER_TOL gets its mean log, off by under the gap; a wider pair keeps its own logs."""
    for eps in NEAR_GAPS:
        g = _near_degenerate_unitary(c, eps)
        assert np.linalg.norm(expm(log(g)) - g) <= 1e-10, eps


def _log0_xi(g):
    return log0_decompose(g)[0]


@pytest.mark.parametrize("log", [so_log, _log0_xi, central_log], ids=["so_log", "log0_decompose", "central_log"])
def test_logs_invert_the_exponential_on_a_near_degenerate_so4_pair(log):
    """A Haar-conjugated SO(4) rotation by the angles 0.7 and 0.7 + eps."""
    q = random_special_orthogonal(np.random.default_rng(6), 4)
    for eps in NEAR_GAPS:
        core = np.zeros((4, 4))
        core[:2, :2] = rotation(0.7)
        core[2:, 2:] = rotation(0.7 + eps)
        g = q @ core @ q.T
        assert np.linalg.norm(expm(log(g)) - g) <= 1e-10, eps


@pytest.mark.parametrize("log", [so_log, _log0_xi], ids=["so_log", "log0_decompose"])
def test_orthogonal_logs_near_minus_one_invert_the_exponential(log):
    """Haar-conjugated SO(2k) with blocks R(pi - delta): the real log is ill-conditioned as delta -> 0, its exp is not.

    Eigenvector round-off leaves the spectral log complex by up to about 1e-5 here; its real part is the log.
    """
    rng = np.random.default_rng(63)
    for delta in np.logspace(-14, -4, 41):
        for half in (1, 2, 3):
            q = random_special_orthogonal(rng, 2 * half)
            g = q @ np.kron(np.eye(half), rotation(np.pi - delta)) @ q.T
            xi = log(g)
            assert np.max(np.abs(xi + xi.T)) < 1e-12
            assert np.linalg.norm(expm(xi) - g) <= 1e-9, (delta, half)


def test_torus_path_stays_central():
    """Rescaled eigenvalue-log paths commute with everything commuting with g."""
    rng = np.random.default_rng(70)
    g = random_unitary(rng, 3)
    angles = 2 * np.pi * rng.integers(-2, 3, size=3).astype(float)
    factor = torus_path_factor(g, angles)
    from loopbundle.spectral import centralizer_element

    c = centralizer_element(g, rng)
    for t in np.linspace(0.0, 1.0, 7):
        alpha = expm(t * factor)
        assert np.max(np.abs(alpha @ g - g @ alpha)) < COMMUTATOR_TOL
        assert np.max(np.abs(alpha @ c - c @ alpha)) < 1e-8
