"""Named property checks shared by the test suite and the command line verifier.

Every check is registered under a stable name together with a threshold and a
comparison direction ("<" means the observed value must stay below the
threshold, ">" that it must exceed it -- some checks exist precisely to show
that a construction *breaks* in a controlled way).  One runner may own
several records that read one computation, such as the four transport
identities over one set of loops; `run_properties` calls each runner at most
once per batch.  A runner draws all its randomness from a child generator
derived from the global seed and the name of its first record, so reports are
reproducible and independent of registry order.

A structural sub-check that fails outright (a missing exception, a wrong tag)
adds a unit penalty to the observed value instead of raising, so a broken
invariant shows up as an out-of-tolerance record rather than a crashed run.
The heavyweight sweep helpers (`sweep_sections`, `cosr_isomorphism_sweep`,
`hs_norm_cases`, `liepol_sweep`, `transport_identity_sweep`,
`latitude_report`) are exported so the acceptance suite can rerun them at full
advertised sizes.  `standard_bases()` builds, once per process, the three
reference fibre bases (P = 8, grid 4096) that the fibre-basis records share.
"""

import functools
import operator
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import holonomy as geo
from .laurent import (
    MatrixLoop,
    SampledLoop,
    fourier_project,
    group_defects,
    group_residual,
    laurent_eval,
    laurent_mul,
    polynomiality_residual,
    sample_loop,
)
from .modes import (
    LoopVector,
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
from .rand import (
    gaussian,
    haar_special_orthogonal,
    haar_unitary,
    random_skew,
    random_special_orthogonal,
    random_unitary,
    skew_part,
    unit_vectors,
)
from .sections import (
    PathElement,
    act_group,
    exp_pair_loop,
    fiber_certificate,
    junction_mismatch,
    path_fiber_quotient,
    project_path,
    smooth_section,
    so_section,
    su_section,
    un_section,
)
from .spectral import (
    ChartError,
    SkewSpectrum,
    central_log,
    centralizer_element,
    clustered_eig,
    exp_skew,
    log0_decompose,
    log_branch,
    so_log,
    torus_path_factor,
    unitary_structure,
)

_REGISTRY = {}

_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}

SECTION_THRESHOLDS = {"endpoint": 1e-9, "group": 1e-9, "poly": 1e-8, "det": 1e-10}
# entries x dim^2 of one stack of section trials (see sweep_sections)
SECTION_STACK = 256
# the sweep report key of the worst value each section threshold bounds
SECTION_MAXIMA = {
    "endpoint": "max_endpoint_err",
    "group": "max_group_residual",
    "poly": "max_poly_residual",
    "det": "max_det_deviation",
}


@dataclass(frozen=True)
class PropertyRecord:
    """Outcome of one named check.

    A record whose runner raised has observed None, passed False, and error
    "ExceptionType: message"; error is None for every record that ran.
    """

    name: str
    observed: float | None
    threshold: float
    comparator: str
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class _Property:
    threshold: float
    comparator: str
    runner: object  # (rng, trials) -> {record name: observed} over the whole group
    group: tuple  # the records the runner returns; the first names its generator


def _register(name, threshold=None, comparator="<"):
    """Register a runner for one record, or for several given as {name: (threshold, comparator)}.

    A runner of one record returns its observed value, a runner of several a
    mapping from each of its record names to its observed value.
    """
    table = name if isinstance(name, dict) else {name: (threshold, comparator)}

    def deco(fn):
        runner = fn if isinstance(name, dict) else lambda rng, trials: {name: fn(rng, trials)}
        for record, (bound, comp) in table.items():
            if comp not in _COMPARATORS:
                raise ValueError(f"unsupported comparator {comp!r}")
            if record in _REGISTRY:
                raise ValueError(f"duplicate property name {record!r}")
            _REGISTRY[record] = _Property(bound, comp, runner, tuple(table))
        return fn

    return deco


def property_names():
    return list(_REGISTRY)


def child_rng(seed, name):
    """Deterministic per-property generator: f(global seed, property name).

    The seed enters whole, with no reduction mod 2**32, so a seed of 2**32 or
    more does not alias a smaller one; a negative seed raises ValueError.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
    return np.random.default_rng((seed, zlib.crc32(name.encode("ascii"))))


def run_properties(names, seed=0, trials=None, thresholds=None):
    """Records for `names` in that order; each runner runs once, however many of its records are named.

    thresholds maps a record name to a bound that replaces its registered threshold.
    A runner that raises fails each of its records with the error instead of
    ending the batch, so the other records keep their verdicts.
    """
    thresholds = thresholds or {}
    observed = {}
    records = []
    for name in names:
        prop = _REGISTRY[name]
        if name not in observed:
            try:
                observed.update(prop.runner(child_rng(seed, prop.group[0]), trials))
            except Exception as exc:  # noqa: BLE001 - a library fault is this group's FAIL, not the batch's
                observed.update(dict.fromkeys(prop.group, exc))
        value = observed[name]
        bound = float(thresholds.get(name, prop.threshold))
        if isinstance(value, Exception):
            error = f"{type(value).__name__}: {value}"
            records.append(PropertyRecord(name, None, bound, prop.comparator, False, error))
            continue
        value = float(value)
        passed = _COMPARATORS[prop.comparator](value, bound)
        records.append(PropertyRecord(name, value, bound, prop.comparator, passed))
    return records


def run_property(name, seed=0, trials=None):
    return run_properties([name], seed, trials)[0]


def _default(trials, value):
    return value if trials is None else max(1, int(trials))


# ---------------------------------------------------------------------------
# generators


def _random_loop(rng, dim, degree, real=False):
    coeffs = {}
    for k in range(0 if real else -degree, degree + 1):
        block = rng.standard_normal((dim, dim))
        if not real or k > 0:
            block = block + 1j * rng.standard_normal((dim, dim))
        coeffs[k] = block
        if real and k > 0:
            coeffs[-k] = coeffs[k].conj()
    return MatrixLoop(dim=dim, coeffs=coeffs, field="real" if real else "complex")


def _random_unitary_loop(rng, dim, factors=2):
    """Product of constant unitaries and z-linear projector factors (I-P) + zP."""
    loop = MatrixLoop(dim=dim, coeffs={0: random_unitary(rng, dim)})
    for _ in range(factors):
        q = random_unitary(rng, dim)
        m = int(rng.integers(1, dim + 1))
        p = q[:, :m] @ q[:, :m].conj().T
        loop = laurent_mul(loop, MatrixLoop(dim=dim, coeffs={0: np.eye(dim) - p, 1: p}))
    return loop


def _random_degenerate_unitary(rng, dim):
    q = random_unitary(rng, dim)
    angles = rng.uniform(-np.pi, np.pi, size=dim)
    angles[1] = angles[0]
    return (q * np.exp(1j * angles)[None, :]) @ q.conj().T


def _alternative_log(rng, g):
    """Another skew log V diag(i theta) V* of g from one eigendecomposition, independent of `central_log`.

    Each cluster's columns turn by a random unitary; each column gets the cluster's angle plus
    its own 2 pi k, k in -2..2, so on a degenerate cluster the log need not be central.
    """
    decomp = clustered_eig(g)
    vectors = decomp.vectors.copy()
    theta = np.empty(len(decomp.values))
    for cluster in decomp.clusters:
        cols = list(cluster)
        vectors[:, cols] = vectors[:, cols] @ random_unitary(rng, len(cols))
        theta[cols] = np.angle(decomp.cluster_values[cluster[0]]) + 2.0 * np.pi * rng.integers(-2, 3, size=len(cols))
    return (vectors * (1j * theta)[None, :]) @ vectors.conj().T


def _rotation_blocks(rng, half):
    n = 2 * half
    out = np.zeros((n, n))
    for b in range(half):
        if rng.random() < 0.3:
            out[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = -np.eye(2)
            continue
        theta = float(rng.uniform(0.2, np.pi - 0.2)) * (1.0 if rng.random() < 0.5 else -1.0)
        c, s = np.cos(theta), np.sin(theta)
        out[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[c, -s], [s, c]]
    return out


def _random_transport_loops(rng, per_model):
    pairs = []
    for _ in range(per_model):
        pairs.append(geo.torus_model(winding=(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))), grid=2048))
        pairs.append(geo.sphere_model(float(rng.uniform(0.25, np.pi - 0.25)), winding=int(rng.integers(1, 3)), grid=2048))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pairs.append(geo.su2_model(direction=tuple(direction), winding=int(rng.integers(1, 3)), grid=2048))
    dressed = []
    for model, loop in pairs:
        u = rng.random()
        if u < 0.3:
            loop = loop.with_reparam(geo.Reparam("sine", shift=float(rng.random()), amplitude=float(rng.uniform(0.02, 0.12))))
        elif u < 0.5:
            loop = loop.with_reparam(geo.Reparam("rotation", shift=float(rng.random())))
        dressed.append((model, loop))
    return dressed


# the reference sphere loop: colatitude 1 rad, winding 2; its holonomy is a rotation by 4 pi (1 - cos 1), so its
# Floquet frame W is not I, and its exponents are +-w (1 - cos theta), windowed
SPHERE_THETA, SPHERE_WINDING = 1.0, 2


@functools.cache
def standard_bases():
    """Eigen-section bases, P = 8 on grid 4096, over the three reference geometries (memoised)."""
    out = []
    for name, (model, loop) in (
        ("torus", geo.torus_model(winding=(1, 2))),
        ("sphere", geo.sphere_model(SPHERE_THETA, winding=SPHERE_WINDING)),
        ("su2", geo.su2_model(direction=(1.0, 2.0, 2.0), winding=1)),
    ):
        out.append((name, geo.eigen_sections(model, loop, geo.monodromy(model, loop), 8)))
    return out


# ---------------------------------------------------------------------------
# loop arithmetic


@_register("laurent-product-pointwise", 1e-12)
def _laurent_product(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 20)):
        dim = int(rng.integers(1, 5))
        a = _random_loop(rng, dim, int(rng.integers(0, 4)))
        b = _random_loop(rng, dim, int(rng.integers(0, 4)))
        c = laurent_mul(a, b)
        if c.degree > a.degree + b.degree:
            worst += 1.0
        ts = rng.random(12)
        va, vb, vc = laurent_eval(a, ts), laurent_eval(b, ts), laurent_eval(c, ts)
        gap = np.max(np.abs(vc - np.einsum("tij,tjk->tik", va, vb)))
        worst = max(worst, gap / max(1.0, a.norm() * b.norm()))
    return worst


@_register("laurent-real-tag-closure", 1e-12)
def _laurent_real_tag(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        dim = int(rng.integers(1, 4))
        a = _random_loop(rng, dim, int(rng.integers(0, 4)), real=True)
        b = _random_loop(rng, dim, int(rng.integers(0, 4)), real=True)
        c = laurent_mul(a, b)
        if c.field != "real":
            worst += 1.0
        ts = rng.random(12)
        scale = max(1.0, a.norm() * b.norm())
        worst = max(worst, np.max(np.abs(laurent_eval(c, ts).imag)) / scale)
        worst = max(worst, np.max(np.abs(laurent_eval(a, ts).imag)) / max(1.0, a.norm()))
    return worst


@_register("fourier-roundtrip", 1e-12)
def _fourier_roundtrip(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        dim = int(rng.integers(1, 4))
        a = _random_loop(rng, dim, int(rng.integers(0, 9)), real=bool(rng.random() < 0.3))
        back, residual = fourier_project(sample_loop(a, 128), max(a.degree, 0))
        gap = max(np.max(np.abs(back.coeff(k) - a.coeff(k))) for k in range(-a.degree, a.degree + 1))
        worst = max(worst, gap / max(a.norm(), 1.0), residual)
        if back.field != a.field:
            worst += 1.0
    return worst


@_register({"polynomiality-detects": (1e-4, ">"), "polynomiality-accepts": (1e-6, "<")})
def _polynomiality(rng, trials):
    ts = np.arange(1024) / 1024
    samples = SampledLoop(values=np.exp(0.2 * np.sin(2.0 * np.pi * ts))[:, None, None].astype(complex))
    return {
        "polynomiality-detects": polynomiality_residual(samples, 2),
        "polynomiality-accepts": polynomiality_residual(samples, 4),
    }


@_register("group-residual-unitary-loops", 1e-9)
def _group_residual_unitary(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 12)):
        dim = int(rng.integers(2, 5))
        loop = _random_unitary_loop(rng, dim, factors=int(rng.integers(1, 4)))
        worst = max(worst, group_residual(loop, "U", samples=128))
        bent = {k: v.copy() for k, v in loop.coeffs.items()}
        key = sorted(bent)[0]
        bent[key][0, 0] += 1e-3
        if group_residual(MatrixLoop(dim=dim, coeffs=bent), "U", samples=128) <= 1e-4:
            worst += 1.0
    return worst


# ---------------------------------------------------------------------------
# mode-space operators


@_register("cosh-inequality", 1e-12)
def _cosh_inequality(rng, trials):
    xs = np.linspace(-10.0, 10.0, 81)
    x, t = np.meshgrid(xs, xs, indexing="ij")
    worst = 0.0
    for r in (1.1, 2.0, 5.0):
        lr = np.log(r)
        upper = np.cosh(t * lr)
        mid = np.cosh((x + t) * lr) / r ** np.abs(x)
        lower = 0.5 * np.minimum(r**t, r ** (-t))
        worst = max(worst, float(np.max((mid - upper) / upper)))
        worst = max(worst, float(np.max((lower - mid) / mid)))
    return max(worst, 0.0)


def cosr_isomorphism_sweep(rng, count, mode_bound=64):
    """Round-trip and norm-equivalence defects of the cosh re-weighting."""
    worst = 0.0
    for _ in range(count):
        dim = int(rng.integers(1, 5))
        s = ShiftData(basis=random_unitary(rng, dim), shifts=rng.uniform(-0.5, 0.5, dim))
        r = float(rng.uniform(1.05, 3.0))
        coeffs = rng.standard_normal((2 * mode_bound + 1, dim)) + 1j * rng.standard_normal((2 * mode_bound + 1, dim))
        v = LoopVector(dim=dim, mode_bound=mode_bound, coeffs=coeffs)
        w = apply_cosh_weight(v, s, r)
        back = apply_cosh_weight_inverse(w, s, r)
        worst = max(worst, float(np.linalg.norm(back.coeffs - v.coeffs)) / l2_norm(v))
        plain = l2_norm(w)
        annulus = l2r_norm(v, r)
        c1 = 0.5 * r ** (-np.max(np.abs(s.shifts)))
        c2 = float(np.max(np.cosh(s.shifts * np.log(r))))
        worst = max(worst, (c1 * annulus - plain) / plain, (plain - c2 * annulus) / plain)
    return max(worst, 0.0)


@_register("cosr-isomorphism", 1e-12)
def _cosr_isomorphism(rng, trials):
    return cosr_isomorphism_sweep(rng, _default(trials, 60), mode_bound=16)


@_register("cosr-polarization-exact", 0.0, "<=")
def _cosr_polarization_exact(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 10)):
        dim = int(rng.integers(1, 5))
        s = trivial_shift_data(dim, shifts=rng.uniform(-0.5, 0.5, dim))
        r = float(rng.uniform(1.1, 4.0))
        for p in range(-8, 9):
            for j in range(dim):
                e = basis_vector(dim, p, j, mode_bound=8)
                lhs = apply_cosh_weight_inverse(apply_polarization(apply_cosh_weight(e, s, r)), s, r)
                rhs = apply_polarization(e)
                worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    return worst


def hs_norm_cases(rng, count, max_dim=4, max_degree=5, mode_bound=64, exhaustive=True):
    """(loop, closed form, truncated brute force) rows for the HS commutator."""
    rows = []
    loops = []
    if exhaustive:
        for dim in range(1, max_dim + 1):
            for k in range(-max_degree, max_degree + 1):
                for i in range(dim):
                    for j in range(dim):
                        e = np.zeros((dim, dim))
                        e[i, j] = 1.0
                        loops.append(MatrixLoop(dim=dim, coeffs={k: e}))
    for _ in range(count):
        dim = int(rng.integers(1, max_dim + 1))
        loops.append(_random_loop(rng, dim, int(rng.integers(0, max_degree + 1)), real=bool(rng.random() < 0.3)))
    for a in loops:
        rows.append((a, hs_commutator_norm(a), hs_commutator_norm_truncated(a, mode_bound)))
    return rows


@_register("polarization-hs-closed-form", 1e-8)
def _hs_closed_form(rng, trials):
    rows = hs_norm_cases(rng, _default(trials, 25), max_dim=3, max_degree=3, exhaustive=False)
    rows += hs_norm_cases(rng, 0, max_dim=2, max_degree=3, exhaustive=True)
    return max(abs(closed - oracle) / (1.0 + closed) for _, closed, oracle in rows)


@_register("hs-tail-constant", 1e-10)
def _hs_tail_constant(rng, trials):
    worst = 0.0
    cases = [(MatrixLoop(dim=1, coeffs={1: [[1.0]]}), trivial_shift_data(1), 2.0)]
    for _ in range(_default(trials, 8)):
        dim = int(rng.integers(1, 4))
        a = _random_loop(rng, dim, int(rng.integers(0, 4)))
        s = ShiftData(basis=random_unitary(rng, dim), shifts=rng.uniform(-0.5, 0.5, dim))
        cases.append((a, s, float(rng.uniform(1.05, 2.5))))
    for a, s, r in cases:
        tail = conjugated_hs_tail(a, s, r, 64)
        worst = max(worst, float(np.max(np.abs(tail[40:] - tail[40]))))
        if np.min(np.diff(tail)) < -1e-12:
            worst += 1.0
    return worst


@_register("hs-tail-r-one-limit", 1e-8)
def _hs_tail_r_one(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 8)):
        dim = int(rng.integers(1, 4))
        a = _random_loop(rng, dim, int(rng.integers(0, 4)))
        s = ShiftData(basis=random_unitary(rng, dim), shifts=rng.uniform(-0.5, 0.5, dim))
        tail = conjugated_hs_tail(a, s, 1.0 + 1e-9, 64)
        closed = hs_commutator_norm(a)
        worst = max(worst, abs(tail[-1] - closed) / (1.0 + closed))
    return worst


@_register("mode-derivative-frame", 1e-12)
def _mode_derivative(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 10)):
        dim = int(rng.integers(1, 5))
        s = ShiftData(basis=random_unitary(rng, dim), shifts=rng.uniform(-2.0, 2.0, dim))
        for p in (-3, 0, 2):
            for j in range(dim):
                e = basis_vector(dim, p, j, mode_bound=4, frame=s)
                out = apply_mode_derivative(e, s)
                gap = np.max(np.abs(out.coeffs - 1j * (p + s.shifts[j]) * e.coeffs))
                worst = max(worst, float(gap) / max(1.0, abs(p + s.shifts[j])))
    return worst


@_register("loop-action-isometry", 1e-10)
def _loop_action_isometry(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 10)):
        dim = int(rng.integers(1, 4))
        a = _random_unitary_loop(rng, dim, factors=int(rng.integers(1, 3)))
        coeffs = rng.standard_normal((9, dim)) + 1j * rng.standard_normal((9, dim))
        v = LoopVector(dim=dim, mode_bound=4, coeffs=coeffs)
        worst = max(worst, abs(l2_norm(apply_loop(a, v)) - l2_norm(v)) / l2_norm(v))
    return worst


@_register("loop-action-annulus-witness", 1e-6, ">")
def _loop_action_witness(rng, trials):
    a = MatrixLoop(dim=2, coeffs={1: np.eye(2)})
    v = basis_vector(2, 0, 1)
    return abs(l2r_norm(apply_loop(a, v), 2.0) - l2r_norm(v, 2.0))


# ---------------------------------------------------------------------------
# spectral helpers


@_register("clustered-eig-reconstruction", 1e-10)
def _clustered_eig(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 12)):
        dim = int(rng.integers(2, 6))
        g = _random_degenerate_unitary(rng, dim) if k % 3 == 0 else random_unitary(rng, dim)
        decomp = clustered_eig(g)
        rebuilt = (decomp.vectors * decomp.values[None, :]) @ decomp.vectors.conj().T
        worst = max(worst, float(np.linalg.norm(rebuilt - g)))
    try:
        clustered_eig(np.array([[0.0, 1.0], [0.0, 0.0]]) + np.eye(2))
        worst += 1.0  # non-normal input must be rejected
    except ValueError:
        pass
    return worst


def _taylor_expm(a):
    """exp(a) by scaling and squaring a 20-term Taylor series (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    s = ceil(log2 ||a||_1) halvings bring the 1-norm to at most 1, where the
    truncation error is below e/21! < 1e-19; s squarings undo them.  No
    eigensolver is used, so the oracle stays independent of `exp_skew`.
    """
    arr = np.asarray(a, dtype=complex)
    squarings = max(0, int(np.ceil(np.log2(max(float(np.linalg.norm(arr, 1)), 1.0)))))
    scaled = arr / 2.0**squarings
    out = term = np.eye(arr.shape[0], dtype=complex)
    for k in range(1, 21):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@_register("exp-skew-oracle", 1e-9)
def _exp_skew_oracle(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        dim = int(rng.integers(2, 7))
        xi = random_skew(rng, dim, real=bool(rng.random() < 0.4), scale=float(rng.uniform(0.2, 3.0)))
        ours = exp_skew(xi)
        ref = _taylor_expm(xi)
        worst = max(worst, float(np.linalg.norm(ours - ref)) / float(np.linalg.norm(ref)))
    return worst


@_register("log-branch-roundtrip", 1e-9)
def _log_branch_roundtrip(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 10)):
        dim = int(rng.integers(2, 6))
        for sigma in (0.0, np.pi / 2, np.pi):
            for _attempt in range(5):
                g = random_unitary(rng, dim)
                try:
                    xi = log_branch(g, 1j * sigma)
                except ChartError:
                    continue
                worst = max(worst, float(np.linalg.norm(exp_skew(xi) - g)))
                angles = np.linalg.eigvals(xi).imag
                worst = max(worst, float(np.max(np.maximum(angles - (sigma + np.pi), (sigma - np.pi) - angles), initial=0.0)))
                break
            else:
                worst += 1.0
    return worst


@_register("central-log-properties", 1e-9)
def _central_log_props(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 12)):
        dim = int(rng.integers(2, 6))
        g = _random_degenerate_unitary(rng, dim) if k % 3 == 0 else random_unitary(rng, dim)
        zeta = central_log(g)
        worst = max(worst, float(np.linalg.norm(exp_skew(zeta) - g)))
        worst = max(worst, float(np.linalg.norm(zeta @ g - g @ zeta)))
        angles = np.linalg.eigvals(zeta).imag
        if np.max(angles) >= np.pi + 1e-9 or np.min(angles) < -np.pi - 1e-9:
            worst += 1.0
    return worst


@_register("comlie-commutators", 1e-9)
def _comlie(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 10)):
        dim = int(rng.integers(2, 5))
        g = _random_degenerate_unitary(rng, dim) if k % 3 == 0 else random_unitary(rng, dim)
        zeta = central_log(g)
        for _ in range(4):
            alt = _alternative_log(rng, g)
            if np.linalg.norm(exp_skew(alt) - g) > 1e-8:
                worst += 1.0
            worst = max(worst, float(np.linalg.norm(zeta @ alt - alt @ zeta)))
    return worst


def liepol_sweep(rng, pairs_per_dim, dims=(2, 3, 4)):
    """Worst polynomiality residual over random exp-matched skew pairs."""
    worst = 0.0
    for dim in dims:
        for _ in range(pairs_per_dim):
            xi1 = random_skew(rng, dim, scale=float(rng.uniform(0.3, 4.0)))
            g = exp_skew(xi1)
            xi2 = central_log(g) if rng.random() < 0.5 else _alternative_log(rng, g)
            residual = exp_pair_loop(xi1, xi2)
            worst = max(worst, residual)
    return worst


@_register("liepol-pair-residual", 1e-8)
def _liepol(rng, trials):
    return liepol_sweep(rng, _default(trials, 12))


@_register("torus-path-centralizer", 1e-9)
def _torus_path(rng, trials):
    worst = 0.0
    ts = np.linspace(0.0, 1.0, 9)
    for k in range(_default(trials, 10)):
        dim = int(rng.integers(2, 6))
        g = _random_degenerate_unitary(rng, dim) if k % 2 == 0 else random_unitary(rng, dim)
        decomp = clustered_eig(g)
        xi = torus_path_factor(g, rng.uniform(-np.pi, np.pi, size=len(decomp.clusters)))
        path = SkewSpectrum(xi).exp(ts)
        u = centralizer_element(g, rng)
        for other in (g, u):
            comm = np.einsum("tij,jk->tik", path, other) - np.einsum("ij,tjk->tik", other, path)
            worst = max(worst, float(np.max(np.linalg.norm(comm, axis=(1, 2)))))
    return worst


@_register("cplxstr-exp-pi-j", 1e-9)
def _cplxstr_exp(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        dim = int(rng.choice([2, 4, 6]))
        j = unitary_structure(random_skew(rng, dim, real=True, scale=1.0))
        worst = max(worst, float(np.linalg.norm(j @ j + np.eye(dim))))
        worst = max(worst, float(np.linalg.norm(exp_skew(j * np.pi) + np.eye(dim))))
    return worst


@_register("cplxstr-pair-degree-two", 1e-8)
def _cplxstr_pair(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        j1 = unitary_structure(random_skew(rng, 4, real=True))
        j2 = unitary_structure(random_skew(rng, 4, real=True))
        residual = exp_pair_loop(np.pi * j1.astype(complex), np.pi * j2.astype(complex), degree=2)
        worst = max(worst, residual)
    return worst


@_register("cplxstr-structure-invariance", 1e-9)
def _cplxstr_invariance(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 15)):
        dim = int(rng.choice([2, 4, 6]))
        xi = random_skew(rng, dim, real=True, scale=float(rng.uniform(0.5, 2.0)))
        j = unitary_structure(xi)
        worst = max(worst, float(np.linalg.norm(unitary_structure(j) - j)))
        for c in (0.7, float(rng.uniform(0.1, 5.0))):
            worst = max(worst, float(np.linalg.norm(unitary_structure(xi + c * j) - j)))
    return worst


@_register("log0-decompose-postconditions", 1e-9)
def _log0_decompose(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 12)):
        half = int(rng.integers(1, 4))
        q = random_special_orthogonal(rng, 2 * half)
        g = q @ _rotation_blocks(rng, half) @ q.T
        xi, j = log0_decompose(g)
        n = g.shape[0]
        worst = max(worst, float(np.linalg.norm(exp_skew(xi.astype(complex)) - g)))
        worst = max(worst, float(np.linalg.norm(j @ j + np.eye(n))))
        worst = max(worst, float(np.linalg.norm(xi @ j - j @ xi)))
        worst = max(worst, float(np.linalg.norm((xi - np.pi * j).astype(complex) - log_branch(-g, 0.0))))
    return worst


@_register("so-log-exponential", 1e-9)
def _so_log(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 12)):
        if k % 3 == 0:
            half = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            core = np.eye(2 * half + pad)
            core[: 2 * half, : 2 * half] = _rotation_blocks(rng, half)
            q = random_special_orthogonal(rng, 2 * half + pad)
            g = q @ core @ q.T
        else:
            g = random_special_orthogonal(rng, int(rng.integers(2, 7)))
        xi = so_log(g)
        worst = max(worst, float(np.linalg.norm(exp_skew(xi.astype(complex)) - g)))
        worst = max(worst, float(np.max(np.abs(xi + xi.T))))
    return worst


# ---------------------------------------------------------------------------
# sections


def sweep_sections(group, dims, trials, rng, r=0.0):
    """Randomized section sweep; returns the CLI-facing report dictionary.

    r is the branch height for U/SU sections and the eigenvalue-real-part split
    abscissa for SO.  Every trial's raw normals are drawn first, in trial
    order, so the generator stream does not depend on any outcome; each
    dimension's draws are then factorised in one stacked call
    (`_section_inputs`).  The trials of one dimension n run as stacks
    (`_section_stack`) of at most SECTION_STACK / n^2 entries: a stack sampled
    at 128 times then holds at most 128 SECTION_STACK complex numbers, and
    larger stacks raise the peak memory more than they save time.  Chart
    rejections are counted; every other error propagates.  Failures are
    reported in trial order.
    """
    if group not in ("U", "SU", "SO"):
        raise ValueError(f"unknown group {group!r}")
    branch = np.angle(np.exp(1j * r))  # only e^{i r} sets the cut; keeps the log bounded
    dims = [int(d) for d in (dims if np.iterable(dims) else [dims])]
    trial_dims = [dims[trial % len(dims)] for trial in range(int(trials))]
    construct = {
        "U": lambda target: un_section(1j * branch, target),
        "SU": lambda target, v: su_section(1j * branch, target, v),
        "SO": lambda g, target: so_section(r, g, target),
    }[group]
    rejections = 0
    records = {}
    for dim, (same_dim, inputs) in _section_inputs(group, trial_dims, rng).items():
        step = max(1, SECTION_STACK // dim**2)
        for start in range(0, len(same_dim), step):
            ids = same_dim[start : start + step]
            keep, observed = _section_stack(group, construct, [x[start : start + step] for x in inputs])
            rejections += int(np.count_nonzero(~keep))
            for i, trial in enumerate(ids[keep].tolist()):
                records[trial] = {"trial": trial, "dim": dim, **{k: float(v[i]) for k, v in observed.items()}}
    failures = []
    maxima = dict.fromkeys(SECTION_THRESHOLDS, 0.0)
    for trial in sorted(records):
        entry = records[trial]
        for key in SECTION_THRESHOLDS:
            maxima[key] = max(maxima[key], entry.get(key, 0.0))
        if any(entry.get(key, 0.0) > limit for key, limit in SECTION_THRESHOLDS.items()):
            failures.append(entry)
    return {
        "group": group,
        "dim": dims[0] if len(dims) == 1 else dims,
        "trials": int(trials),
        "completed": len(records),
        "rejections": rejections,
        **{SECTION_MAXIMA[key]: maxima[key] for key in SECTION_THRESHOLDS},
        "failures": failures,
        "thresholds": dict(SECTION_THRESHOLDS),
    }


def _section_inputs(group, trial_dims, rng):
    """The constructor inputs of every trial: {dim: (its trials, inputs stacked over them)}, dims ascending.

    Each trial draws its raw normals in trial order (SU adds the twist vector;
    SO, unless trial % 5 == 0, a perturbation generator, and its target is
    q g q^T with q = exp of that generator's skew part).  Each dimension's
    draws then take one stacked factorisation: entry by entry the `rand`
    helpers and `exp_skew` per trial, bit for bit but for SU(1), whose
    column fix numpy rounds differently in a contiguous run.
    """
    raw = []
    for trial, dim in enumerate(trial_dims):
        square = (dim, dim)
        if group == "SO":
            raw.append((gaussian(rng, square, real=True), gaussian(rng, square, real=True) if trial % 5 else None))
        else:
            raw.append((gaussian(rng, square), gaussian(rng, dim) if group == "SU" else None))
    inputs = {}
    for dim in sorted(set(trial_dims)):
        ids = np.array([trial for trial, d in enumerate(trial_dims) if d == dim])
        first = np.stack([raw[trial][0] for trial in ids])
        second = [raw[trial][1] for trial in ids]
        if group == "U":
            inputs[dim] = ids, (haar_unitary(first),)
        elif group == "SU":
            inputs[dim] = ids, (haar_unitary(first, special=True), unit_vectors(np.stack(second)))
        else:
            g = haar_special_orthogonal(first)
            target = g.copy()
            moved = np.array([a is not None for a in second])
            if moved.any():
                xi = skew_part(np.stack([a for a in second if a is not None]), scale=0.12)
                q = SkewSpectrum(xi).exp(1.0)[:, 0].real
                target[moved] = q @ g[moved] @ q.swapaxes(-1, -2)
            inputs[dim] = ids, (g, target)
    return inputs


def _section_stack(group, construct, inputs):
    """Build and measure the sections of one stack of trial inputs: (kept entries, record -> value per kept entry).

    A `ChartError` drops the entries its mask marks (all of them if it has no
    mask) and the constructor reruns on the rest.  The group defects of the
    samples are taken once: SU's det record reads the determinants that its
    group residual sums.
    """
    keep = np.ones(len(inputs[0]), dtype=bool)
    while keep.any():
        try:
            element = construct(*(x[keep] for x in inputs))
            break
        except ChartError as exc:
            at_chart = np.broadcast_to(True if exc.mask is None else exc.mask, (np.count_nonzero(keep),))
            keep[np.flatnonzero(keep)[at_chart]] = False
    else:
        return keep, {}
    defects = group_defects(element.eval(np.arange(128) / 128), group)
    target = inputs[1 if group == "SO" else 0][keep]
    observed = {
        "endpoint": np.linalg.norm(project_path(element) - target, axis=(-2, -1)),
        "group": sum(defects.values()).max(axis=-1),
        "poly": fiber_certificate(element),
    }
    if group == "SU":
        observed["det"] = defects["det"].max(axis=-1)
    return keep, observed


def section_sweep_ratio(report):
    """Worst observed/threshold ratio of a sweep report (1.0 is the pass line)."""
    t = report["thresholds"]
    ratio = max(report[SECTION_MAXIMA[key]] / t[key] for key in SECTION_THRESHOLDS)
    if report["completed"] == 0:
        ratio += 1.0
    return ratio


def _section_sweep(group, rng, trials):
    return section_sweep_ratio(sweep_sections(group, (2, 3, 4, 5, 6), _default(trials, 25), rng))


# one runner per group, each a record of its own with its own generator
for _name, _group in (
    ("section-sweep-unitary", "U"),
    ("section-sweep-special-unitary", "SU"),
    ("section-sweep-special-orthogonal", "SO"),
):
    _register(_name, 1.0)(functools.partial(_section_sweep, _group))


@_register("section-group-actions", 1e-9)
def _section_actions(rng, trials):
    worst = 0.0
    ts = np.array([0.0, 0.31, 0.77])
    for _ in range(_default(trials, 10)):
        dim = int(rng.integers(2, 5))
        base = random_unitary(rng, dim)
        try:
            element = un_section(0.0, base)
        except ChartError:
            continue
        g = random_unitary(rng, dim)
        proj = project_path(element)
        for conjugate in (False, True):
            moved = act_group(element, g, conjugate=conjugate)
            expected = np.einsum("ij,tjk->tik", g, element.eval(ts))
            if conjugate:
                expected = np.einsum("tij,jk->tik", expected, g.conj().T)
            worst = max(worst, float(np.max(np.abs(moved.eval(ts) - expected))))
            worst = max(worst, float(np.linalg.norm(project_path(moved) - g @ proj @ g.conj().T)))
    return worst


@_register("path-fiber-quotient", 1e-8)
def _path_quotient(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 8)):
        dim = int(rng.integers(2, 5))
        g = random_unitary(rng, dim)
        try:
            a = un_section(0.0, g)
        except ChartError:
            continue
        b = PathElement([_alternative_log(rng, g)])
        residual = path_fiber_quotient(a, b)
        worst = max(worst, residual)
        other = random_unitary(rng, dim)
        try:
            path_fiber_quotient(a, un_section(0.0, other))
            worst += 1.0  # different fibres must be rejected
        except ValueError:
            pass
    return worst


@_register("smooth-section-shape", 1e-9)
def _smooth_shape(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 8)):
        dim = int(rng.integers(2, 5))
        if k % 2 == 0:
            g = random_unitary(rng, dim)
            step = exp_skew(random_skew(rng, dim, scale=0.4))
        else:
            g = random_special_orthogonal(rng, dim)
            step = exp_skew(random_skew(rng, dim, real=True, scale=0.4)).real
        h = g if k % 4 == 3 else np.asarray(g, dtype=complex) @ step
        s = smooth_section(g, h, grid=512)
        worst = max(worst, float(np.linalg.norm(s.values[0] - np.eye(dim))))
        worst = max(worst, float(np.linalg.norm(s.values[256] - g)))
        worst = max(worst, float(np.linalg.norm(s.values[-1] - h)))
        grams = np.einsum("tji,tjk->tik", s.values.conj(), s.values) - np.eye(dim)
        worst = max(worst, float(np.max(np.linalg.norm(grams, axis=(1, 2)))))
    return worst


@_register("smooth-section-junctions", 1e-4)
def _smooth_junctions(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 6)):
        dim = int(rng.integers(2, 4))
        g = random_unitary(rng, dim)
        h = g @ exp_skew(random_skew(rng, dim, scale=0.5))
        worst = max(worst, junction_mismatch(smooth_section(g, h, grid=1024)))
    return worst


# ---------------------------------------------------------------------------
# holonomy and the fibre basis


@_register("transport-torus-identity", 1e-12)
def _transport_torus(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 5)):
        model, loop = geo.torus_model(winding=(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))))
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.1, 1.0))
        worst = max(worst, float(np.linalg.norm(geo.transport(model, loop, t0, t1, steps=256) - np.eye(2))))
    return worst


def transport_identity_sweep(rng, per_model):
    """Composition, period-shift, step-doubling and orthogonality defects."""
    steps = 2048
    worst = {"composition": 0.0, "period": 0.0, "doubling": 0.0, "orthogonality": 0.0}
    for model, loop in _random_transport_loops(rng, per_model):
        mid = float(rng.uniform(0.25, 0.75))
        t_a = geo.transport(model, loop, 0.0, mid, steps=steps)
        t_b = geo.transport(model, loop, mid, 1.0, steps=steps)
        t_full = geo.transport(model, loop, 0.0, 1.0, steps=steps)
        worst["composition"] = max(worst["composition"], float(np.linalg.norm(t_b @ t_a - t_full)))
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.2, 1.0))
        shifted = geo.transport(model, loop, t0 + 1.0, t1 + 1.0, steps=steps)
        plain = geo.transport(model, loop, t0, t1, steps=steps)
        worst["period"] = max(worst["period"], float(np.linalg.norm(shifted - plain)))
        worst["doubling"] = max(worst["doubling"], geo.transport_defect(model, loop, 0.0, 1.0, steps=steps))
        frame = geo.transport_frame(model, loop, steps=steps)
        grams = np.einsum("tji,tjk->tik", frame.conj(), frame) - np.eye(frame.shape[1])
        worst["orthogonality"] = max(worst["orthogonality"], float(np.max(np.linalg.norm(grams, axis=(1, 2)))))
    return worst


_TRANSPORT_RECORDS = {
    "composition": "transport-composition",
    "period": "transport-period-shift",
    "doubling": "transport-step-doubling",
    "orthogonality": "transport-orthogonality",
}


@_register({record: (1e-8, "<") for record in _TRANSPORT_RECORDS.values()})
def _transport_identities(rng, trials):
    worst = transport_identity_sweep(rng, _default(trials, 4))
    return {record: worst[key] for key, record in _TRANSPORT_RECORDS.items()}


def latitude_report(theta, winding=1):
    """Errors of a latitude circle's holonomy angle against 2 pi w (1 - cos theta) and of its Floquet exponents."""
    data = geo.monodromy(*geo.sphere_model(theta, winding=winding))
    g = data.holonomy.real
    angle = float(np.arctan2(g[1, 0], g[0, 0]))
    expected = 2.0 * np.pi * winding * (1.0 - np.cos(theta))
    angle_error = float(2.0 * np.pi * np.abs(geo._window((angle - expected) / (2.0 * np.pi))))
    exps = np.sort(data.exponents)
    turn = angle / (2.0 * np.pi)
    expected_exps = np.sort(geo._window(np.array([turn, -turn])))
    exponent_error = float(np.max(np.abs(geo._window(exps - expected_exps))))
    return {"angle_error": angle_error, "exponent_error": exponent_error}


@_register("sphere-latitude-holonomy", 1e-6)
def _latitude(rng, trials):
    worst = 0.0
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        report = latitude_report(theta)
        worst = max(worst, report["angle_error"], report["exponent_error"])
    for _ in range(_default(trials, 2)):
        report = latitude_report(float(rng.uniform(0.3, np.pi - 0.3)), winding=int(rng.integers(1, 3)))
        worst = max(worst, report["angle_error"], report["exponent_error"])
    return worst


@_register("floquet-window-structure", 1e-8)
def _floquet_window(rng, trials):
    worst = 0.0
    for k in range(_default(trials, 12)):
        dim = int(rng.integers(2, 6))
        if k % 3 == 0:
            g = random_special_orthogonal(rng, dim)
        else:
            g = random_unitary(rng, dim)
        data = geo.floquet(g)
        exps = data.exponents
        if np.any(exps < -0.5) or np.any(exps >= 0.5):
            worst += 1.0
        if np.any(np.diff(exps) < -1e-12):
            worst += 1.0
        worst = max(worst, float(np.linalg.norm(data.frame.conj().T @ data.frame - np.eye(dim))))
        if k % 3 == 0:
            mirrored = np.sort(geo._window(-exps))
            worst = max(worst, float(np.max(np.abs(geo._window(np.sort(exps) - mirrored)))))
    return worst


@_register("floquet-rotation-invariance", 1e-8)
def _floquet_rotation(rng, trials):
    worst = 0.0
    for _ in range(_default(trials, 3)):
        theta = float(rng.uniform(0.3, np.pi - 0.3))
        base = geo.Reparam("sine", shift=0.0, amplitude=float(rng.uniform(0.02, 0.1)))
        model, loop = geo.sphere_model(theta, winding=1, grid=2048)
        loop = loop.with_reparam(base)
        data = geo.monodromy(model, loop)
        rotated = loop.with_reparam(geo.Reparam("rotation", shift=float(rng.uniform(0.1, 0.9))))
        data_rot = geo.monodromy(model, rotated)
        gap = geo._window(np.sort(data.exponents) - np.sort(data_rot.exponents))
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


@_register("fiber-basis-gram", 1e-8)
def _fiber_gram(rng, trials):
    worst = 0.0
    for _, basis in standard_bases():
        worst = max(worst, basis.gram_error(), basis.periodicity_residual())
    return worst


@_register("fiber-basis-torus-exact", 0.0, "<=")
def _fiber_torus_exact(rng, trials):
    model, loop = geo.torus_model(winding=(1, 2), grid=1024)
    data = geo.monodromy(model, loop)
    basis = geo.eigen_sections(model, loop, data, 3)
    # flat connection, trivial holonomy: every core vector is a constant unit
    # vector bit for bit, so the sections e^{2 pi i p t} c_j are pure Fourier modes
    worst = 0.0 if np.all(data.exponents == 0.0) else 1.0
    return worst + float(np.max(np.abs(basis.core - np.eye(2)[:, :, None])))


@_register("dhat-eigenvalue-residual", 1e-6)
def _dhat(rng, trials):
    worst = 0.0
    for _, basis in standard_bases():
        worst = max(worst, float(np.max(geo.dhat_residuals(basis))))
    return worst


@_register("loop-recognition", 1e-8)
def _loop_recognition(rng, trials):
    worst = 0.0
    for _, basis in standard_bases():
        decay = np.exp(-0.4 * np.abs(basis.rows()[0]))
        for _ in range(_default(trials, 3)):
            c = (rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)) * decay
            worst = max(worst, geo.loop_recognition_residual(basis, c))
    return worst


@_register("projection-roundtrip", 1e-8)
def _projection_roundtrip(rng, trials):
    worst = 0.0
    for _, basis in standard_bases():
        for _ in range(_default(trials, 3)):
            c = rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)
            values = basis.section(c)
            recovered = basis.project(values)
            worst = max(worst, float(np.linalg.norm(recovered - c) / np.linalg.norm(c)))
            _, err = geo.project_section(basis, values)
            worst = max(worst, err)
    return worst


@_register("projection-residual-decay", 1e-3)
def _projection_decay(rng, trials):
    model, loop = geo.sphere_model(np.pi / 3, grid=2048)
    data = geo.monodromy(model, loop)
    ts = np.arange(2048) / 2048
    narrow = geo.eigen_sections(model, loop, data, 1)
    target = np.exp(0.3 * np.sin(2.0 * np.pi * ts))[:, None] * narrow.core[1].T  # section (p = 0, j = 1)
    errs = []
    for bound in (2, 4, 8):
        basis = geo.eigen_sections(model, loop, data, bound)
        _, err = geo.project_section(basis, target)
        errs.append(err)
    penalty = 0.0 if errs[0] >= errs[1] >= errs[2] else 1.0
    return errs[2] / max(errs[0], 1e-300) + penalty


@_register("cos-pairing-values", 1e-10)
def _cos_pairing_values(rng, trials):
    """Two spot values, then the annulus oracle for the weighted pairing.

    cosh(x ln r)^2 = (r^{2x} + 2 + r^{-2x}) / 4 with x = p - s_j, so <a, b>_r is the average, weights 1/4, 1/2, 1/4,
    of the plain pairings on the circles |z| = r, 1, 1/r of the sections continued there (coefficients scaled by
    rho^x), each paired by grid quadrature of its samples; the gap is relative to the Cauchy-Schwarz bound.
    """
    worst = 0.0
    bases = dict(standard_bases())
    # section (p = 1, j = 0) on the torus; (p = 0, j = 0) on the sphere, whose exponents are the closed-form +-x
    x = float(geo._window(SPHERE_WINDING * (1.0 - np.cos(SPHERE_THETA))))
    for name, mode, expected in (("torus", 1, 1.5625), ("sphere", 0, (4.0**x + 2.0 + 4.0**-x) / 4.0)):
        basis = bases[name]
        modes, cores = basis.rows()
        spot = ((modes == mode) & (cores == 0)).astype(complex)
        worst = max(worst, abs(geo.cos_inner_product(basis, spot, spot, 2.0) - expected))
    for basis in bases.values():
        x = basis.eigenvalues
        decay = np.exp(-0.6 * np.abs(basis.rows()[0]))
        for _ in range(_default(trials, 1)):
            a, b = (rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count) for _ in range(2))
            a, b = a * decay, b * decay

            def circle(rho):
                """Grid-quadrature L2 pairing of the two sections continued to the circle |z| = rho."""
                u, v = (basis.section(c * rho**x) for c in (a, b))
                return np.sum(u.conj() * v) / basis.grid

            unit = circle(1.0)  # the unit circle serves every r
            for r in (2.0, 3.7):
                annulus = 0.25 * circle(r) + 0.5 * unit + 0.25 * circle(1.0 / r)
                exact, aa, bb = (geo.cos_inner_product(basis, u, v, r) for u, v in ((a, b), (a, a), (b, b)))
                worst = max(worst, abs(annulus - exact) / np.sqrt(aa.real * bb.real))
    return worst


@_register("cos-pairing-r-one-limit", 1e-6)
def _cos_pairing_r_one(rng, trials):
    worst = 0.0
    for _, basis in standard_bases():
        for _ in range(_default(trials, 2)):
            a, b = (rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count) for _ in range(2))
            weighted = geo.cos_inner_product(basis, a, b, 1.0 + 1e-9)
            plain = complex(np.sum(a.conj() * b))
            worst = max(worst, abs(weighted - plain) / max(abs(plain), 1.0))
    return worst


@_register("cos-gram-positive", 1e-8, ">")
def _cos_gram_positive(rng, trials):
    floors = []
    for _, basis in standard_bases():
        floors.extend(geo.cos_gram_floor(basis, r) for r in (1.5, 2.0))
    return min(floors)


@_register({"condiff-identity": (1e-10, "<"), "condiff-rotation": (1e-6, "<"), "condiff-generic": (1e-4, "<")})
def _condiff(rng, trials):
    basis = replace(standard_bases()[1][1], mode_bound=4)  # the core does not depend on P
    decay = np.exp(-0.5 * np.abs(basis.rows()[0]))
    values = basis.section((rng.standard_normal(basis.count) + 1j * rng.standard_normal(basis.count)) * decay)
    reparams = {
        "condiff-identity": geo.Reparam("identity"),
        "condiff-rotation": geo.Reparam("rotation", shift=0.3),
        "condiff-generic": geo.Reparam("sine", shift=0.1, amplitude=0.1),
    }
    return {name: geo.condiff_residual(basis.model, basis.loop, rep, values) for name, rep in reparams.items()}


@_register(
    {
        "reparam-rotation-preserves": (1e-8, "<"),
        "reparam-generic-breaks": (1e-3, ">"),
        "reparam-transport-carries": (1e-8, "<"),
    }
)
def _reparam(rng, trials):
    model, loop = geo.sphere_model(np.pi / 3, grid=2048)
    basis = geo.eigen_sections(model, loop, geo.monodromy(model, loop), 4)
    standard = lambda rep: float(geo.reparam_actions(basis, rep)["standard_residuals"].max())  # noqa: E731
    preserving = (geo.Reparam("rotation", shift=0.3), geo.Reparam("reflection", shift=0.0))
    carried = (geo.Reparam("rotation", shift=0.4), geo.Reparam("sine", amplitude=0.08))
    return {
        "reparam-rotation-preserves": max(standard(rep) for rep in preserving),
        "reparam-generic-breaks": standard(geo.Reparam("sine", amplitude=0.1)),
        "reparam-transport-carries": max(geo.monodromy(model, loop.with_reparam(rep)).periodicity_residual() for rep in carried),
    }


@_register("subbundle-counterexample", 1e-3, ">")
def _subbundle_counter(rng, trials):
    gamma = lambda t: t + 0.3 * np.sin(2.0 * np.pi * t)  # noqa: E731
    observed = np.inf
    for beta in (MatrixLoop(dim=1, coeffs={0: [[1.0]]}), MatrixLoop(dim=1, coeffs={2: [[1.0]]})):
        report = geo.subbundle_counterexample(gamma, beta)
        observed = min(observed, report["residual"])
        if not report["is_counterexample"]:
            observed = min(observed, 0.0)
    return observed


@_register("subbundle-linear-phase", 1e-10)
def _subbundle_linear(rng, trials):
    beta = MatrixLoop(dim=1, coeffs={0: [[0.7]], 2: [[1.0]]})
    report = geo.subbundle_counterexample(lambda t: t + 0.7, beta)
    return report["residual"]


@_register("direct-sum-union", 1e-8)
def _direct_sum(rng, trials):
    return geo.direct_sum_union_residual()


@_register("complexification-span", 1e-8)
def _complexification(rng, trials):
    return geo.complexification_residual()


# ---------------------------------------------------------------------------
# CLI support


def hs_diagnostic_rows(rng):
    """(degree, dim, hs_norm, oracle_norm, abs_err) rows for the verify CSV."""
    cases = hs_norm_cases(rng, 60, max_dim=3, max_degree=4, exhaustive=False)
    return [(a.degree, a.dim, closed, oracle, abs(closed - oracle)) for a, closed, oracle in cases]
