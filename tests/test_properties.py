"""The property registry: a runner may own several records and runs once per batch."""

import collections
import dataclasses
import zlib

import numpy as np
import pytest

from loopbundle import ChartError, cli, rand, sections
from loopbundle import properties as props
from loopbundle.laurent import sampled_group_residual
from loopbundle.spectral import exp_skew


# every registered record as (name, threshold, comparator), in registry order; a
# rename, reorder or changed threshold must show up as an edit of this table
REGISTRY_TABLE = [
    ("laurent-product-pointwise", 1e-12, "<"),
    ("laurent-real-tag-closure", 1e-12, "<"),
    ("fourier-roundtrip", 1e-12, "<"),
    ("polynomiality-detects", 0.0001, ">"),
    ("polynomiality-accepts", 1e-06, "<"),
    ("group-residual-unitary-loops", 1e-09, "<"),
    ("cosh-inequality", 1e-12, "<"),
    ("cosr-isomorphism", 1e-12, "<"),
    ("cosr-polarization-exact", 0.0, "<="),
    ("polarization-hs-closed-form", 1e-08, "<"),
    ("hs-tail-constant", 1e-10, "<"),
    ("hs-tail-r-one-limit", 1e-08, "<"),
    ("mode-derivative-frame", 1e-12, "<"),
    ("loop-action-isometry", 1e-10, "<"),
    ("loop-action-annulus-witness", 1e-06, ">"),
    ("clustered-eig-reconstruction", 1e-10, "<"),
    ("exp-skew-oracle", 1e-09, "<"),
    ("log-branch-roundtrip", 1e-09, "<"),
    ("central-log-properties", 1e-09, "<"),
    ("comlie-commutators", 1e-09, "<"),
    ("liepol-pair-residual", 1e-08, "<"),
    ("torus-path-centralizer", 1e-09, "<"),
    ("cplxstr-exp-pi-j", 1e-09, "<"),
    ("cplxstr-pair-degree-two", 1e-08, "<"),
    ("cplxstr-structure-invariance", 1e-09, "<"),
    ("log0-decompose-postconditions", 1e-09, "<"),
    ("so-log-exponential", 1e-09, "<"),
    ("section-sweep-unitary", 1.0, "<"),
    ("section-sweep-special-unitary", 1.0, "<"),
    ("section-sweep-special-orthogonal", 1.0, "<"),
    ("section-group-actions", 1e-09, "<"),
    ("path-fiber-quotient", 1e-08, "<"),
    ("smooth-section-shape", 1e-09, "<"),
    ("smooth-section-junctions", 0.0001, "<"),
    ("transport-torus-identity", 1e-12, "<"),
    ("transport-composition", 1e-08, "<"),
    ("transport-period-shift", 1e-08, "<"),
    ("transport-step-doubling", 1e-08, "<"),
    ("transport-orthogonality", 1e-08, "<"),
    ("sphere-latitude-holonomy", 1e-06, "<"),
    ("floquet-window-structure", 1e-08, "<"),
    ("floquet-rotation-invariance", 1e-08, "<"),
    ("fiber-basis-gram", 1e-08, "<"),
    ("fiber-basis-torus-exact", 0.0, "<="),
    ("dhat-eigenvalue-residual", 1e-06, "<"),
    ("loop-recognition", 1e-08, "<"),
    ("projection-roundtrip", 1e-08, "<"),
    ("projection-residual-decay", 0.001, "<"),
    ("cos-pairing-values", 1e-10, "<"),
    ("cos-pairing-r-one-limit", 1e-06, "<"),
    ("cos-gram-positive", 1e-08, ">"),
    ("condiff-identity", 1e-10, "<"),
    ("condiff-rotation", 1e-06, "<"),
    ("condiff-generic", 0.0001, "<"),
    ("reparam-rotation-preserves", 1e-08, "<"),
    ("reparam-generic-breaks", 0.001, ">"),
    ("reparam-transport-carries", 1e-08, "<"),
    ("subbundle-counterexample", 0.001, ">"),
    ("subbundle-linear-phase", 1e-10, "<"),
    ("direct-sum-union", 1e-08, "<"),
    ("complexification-span", 1e-08, "<"),
]


def test_registry_matches_the_pinned_table():
    names = props.property_names()
    assert [(name, props._REGISTRY[name].threshold, props._REGISTRY[name].comparator) for name in names] == REGISTRY_TABLE


def test_batch_equals_per_name_records():
    names = props.property_names()
    batch = props.run_properties(names, seed=3, trials=1)
    assert batch == [props.run_property(name, seed=3, trials=1) for name in names]


@pytest.fixture
def runner_calls(monkeypatch):
    """Count calls per runner and check that each returns exactly the records registered with it."""
    calls = collections.Counter()
    wrapped = {}
    for name in props.property_names():
        prop = props._REGISTRY[name]
        if prop.runner not in wrapped:

            def counted(rng, trials, runner=prop.runner, group=prop.group):
                calls[group] += 1
                out = runner(rng, trials)
                assert sorted(out) == sorted(group)
                return out

            wrapped[prop.runner] = counted
        monkeypatch.setitem(props._REGISTRY, name, dataclasses.replace(prop, runner=wrapped[prop.runner]))
    return calls


def test_each_runner_runs_once_per_verify(runner_calls, capsys):
    assert cli.main(["verify", "--seed", "3", "--trials", "1"]) == 0
    groups = {props._REGISTRY[name].group for name in props.property_names()}
    assert runner_calls == {group: 1 for group in groups}
    assert any(len(group) > 1 for group in groups)


@pytest.mark.parametrize("demo", sorted(cli.DEMO_PROPERTIES))
def test_each_runner_runs_once_per_demo(runner_calls, capsys, demo):
    assert cli.main(["demo", demo]) == 0
    groups = {props._REGISTRY[name].group for name in cli.DEMO_PROPERTIES[demo]}
    assert runner_calls == {group: 1 for group in groups}


def test_a_group_draws_from_the_generator_of_its_first_record():
    worst = props.transport_identity_sweep(props.child_rng(3, "transport-composition"), 1)
    names = ["transport-orthogonality", "transport-period-shift", "transport-step-doubling", "transport-composition"]
    records = props.run_properties(names, seed=3, trials=1)
    assert [rec.name for rec in records] == names
    assert [rec.observed for rec in records] == [worst[key] for key in ("orthogonality", "period", "doubling", "composition")]


def test_an_interrupted_runner_ends_the_batch(monkeypatch):
    def interrupted(rng, trials):
        raise KeyboardInterrupt

    prop = props._REGISTRY["cosh-inequality"]
    monkeypatch.setitem(props._REGISTRY, "cosh-inequality", dataclasses.replace(prop, runner=interrupted))
    with pytest.raises(KeyboardInterrupt):
        props.run_properties(["fourier-roundtrip", "cosh-inequality"], seed=0, trials=1)


def test_section_sweep_lets_non_chart_errors_through(monkeypatch):
    chain = sections.exp_chain

    def broken(spectra, ts):
        # a chain whose values drift with t is not quasi-periodic
        return chain(spectra, ts) * (1.0 + 0.01 * np.asarray(ts))[:, None, None]

    monkeypatch.setattr(sections, "exp_chain", broken)
    with pytest.raises(ValueError, match="not quasi-periodic") as info:
        props.sweep_sections("U", 3, 2, np.random.default_rng(0))
    assert not isinstance(info.value, ChartError)


def _draw_one_trial(group, trial, dim, rng):
    """Oracle: one trial's constructor inputs from one-matrix `rand` draws and `exp_skew`."""
    if group == "U":
        return (rand.random_unitary(rng, dim),)
    if group == "SU":
        return rand.haar_unitary(rand.gaussian(rng, (dim, dim)), special=True), rand.unit_vectors(rand.gaussian(rng, dim))
    g = rand.random_special_orthogonal(rng, dim)
    if trial % 5 == 0:
        return g, g
    q = exp_skew(rand.random_skew(rng, dim, real=True, scale=0.12)).real
    return g, q @ g @ q.T


def _one_trial_at_a_time(group, dims, trials, rng):
    """Oracle: the sweep's records with one draw, one constructor call and one measurement per trial (r = 0)."""
    construct = {"U": sections.un_section, "SU": sections.su_section, "SO": sections.so_section}[group]
    records = []
    for trial in range(trials):
        dim = dims[trial % len(dims)]
        inputs = _draw_one_trial(group, trial, dim, rng)
        try:
            element = construct(0.0, *inputs)
        except ChartError:
            continue
        target = inputs[-1] if group == "SO" else inputs[0]
        vals = element.eval(np.arange(128) / 128)
        entry = {"trial": trial, "dim": dim, "endpoint": float(np.linalg.norm(element.projection - target))}
        entry["group"] = float(sampled_group_residual(vals, group))
        entry["poly"] = sections.fiber_certificate(element)
        if group == "SU":
            entry["det"] = float(np.max(np.abs(np.linalg.det(vals) - 1.0)))
        records.append(entry)
    return records


def _assert_same_records(stacked, oracle):
    """Same trials, dimensions and keys in the same order; measured values equal up to their own round-off."""
    assert [(e["trial"], e["dim"], sorted(e)) for e in stacked] == [(e["trial"], e["dim"], sorted(e)) for e in oracle]
    for a, b in zip(stacked, oracle):
        for key in ("endpoint", "group", "poly", "det"):
            if key in a:
                assert a[key] == pytest.approx(b[key], rel=1e-9, abs=0.0), (a, b)


@pytest.mark.parametrize("group", ["U", "SU", "SO"])
def test_section_sweep_reports_every_trial_in_order_like_one_trial_at_a_time(group, monkeypatch):
    monkeypatch.setattr(props, "SECTION_THRESHOLDS", dict.fromkeys(props.SECTION_THRESHOLDS, 0.0))
    dims = [2, 6, 3]
    per_stack = max(1, props.SECTION_STACK // 36)
    trials = 3 * per_stack + 2  # dim 6 gets per_stack + 1 trials, so it runs as two stacks
    report = props.sweep_sections(group, dims, trials, np.random.default_rng(7))
    oracle = _one_trial_at_a_time(group, dims, trials, np.random.default_rng(7))
    assert report["completed"] == len(oracle) == trials and report["rejections"] == 0
    assert [e["trial"] for e in report["failures"]] == list(range(trials))  # every record exceeds a zero threshold
    _assert_same_records(report["failures"], oracle)


@pytest.mark.parametrize("seed", [5, 12])
@pytest.mark.parametrize("group", ["U", "SU", "SO"])
def test_stacked_section_draws_are_the_per_trial_draws(group, seed):
    trial_dims = [1 + (5 * trial) % 6 for trial in range(40)]  # dims 1-6, interleaved
    rng = np.random.default_rng(seed)
    inputs = props._section_inputs(group, trial_dims, rng)
    oracle_rng = np.random.default_rng(seed)
    oracle = [_draw_one_trial(group, trial, dim, oracle_rng) for trial, dim in enumerate(trial_dims)]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state  # the stream position is pinned
    assert list(inputs) == sorted(set(trial_dims))
    for dim, (ids, stacked) in inputs.items():
        assert ids.tolist() == [trial for trial, d in enumerate(trial_dims) if d == dim]
        for i, trial in enumerate(ids.tolist()):
            for x, y in zip(stacked, oracle[trial], strict=True):
                if group == "SU" and dim == 1 and x.ndim == 3:
                    # numpy rounds a product of complex numbers differently in a contiguous
                    # run and alone: the SU(1) column fix of a stack differs in the last bit
                    np.testing.assert_allclose(x[i], y, rtol=0.0, atol=4 * np.finfo(float).eps)
                else:
                    assert np.array_equal(x[i], y) and x[i].dtype == y.dtype, (dim, trial)


def test_an_su_stack_takes_one_determinant_of_its_samples(monkeypatch):
    _, inputs = props._section_inputs("SU", [3] * 5, np.random.default_rng(9))[3]
    det = np.linalg.det
    sample_dets = []

    def counted(a):
        if np.ndim(a) == 4:
            sample_dets.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    keep, observed = props._section_stack("SU", lambda g, v: sections.su_section(0.0, g, v), inputs)
    assert sample_dets == [(5, 128, 3, 3)]
    monkeypatch.undo()
    vals = sections.su_section(0.0, *inputs).eval(np.arange(128) / 128)
    assert keep.all()
    assert observed["group"].tolist() == sampled_group_residual(vals, "SU").tolist()
    assert observed["det"].tolist() == np.max(np.abs(np.linalg.det(vals) - 1.0), axis=-1).tolist()


def test_section_sweep_rejects_exactly_the_trial_on_the_cut(monkeypatch):
    factorise = rand.haar_unitary

    def draw(z, special=False):
        u = factorise(z, special)
        stack = u.reshape((-1,) + u.shape[-2:])  # one matrix or a stack, in trial order
        third = 2 - draw.seen
        if 0 <= third < len(stack):
            stack[third] = np.diag([-1.0, 1.0])  # on the cut of the principal branch
        draw.seen += len(stack)
        return u

    draw.seen = 0
    monkeypatch.setattr(props, "haar_unitary", draw)  # the sweep's stacked factorisation
    monkeypatch.setattr(rand, "haar_unitary", draw)  # the oracle's per-trial helper
    monkeypatch.setattr(props, "SECTION_THRESHOLDS", dict.fromkeys(props.SECTION_THRESHOLDS, 0.0))
    report = props.sweep_sections("U", 2, 6, np.random.default_rng(8))
    assert (report["completed"], report["rejections"]) == (5, 1)
    assert [e["trial"] for e in report["failures"]] == [0, 1, 3, 4, 5]
    draw.seen = 0
    _assert_same_records(report["failures"], _one_trial_at_a_time("U", [2], 6, np.random.default_rng(8)))


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1])
def test_child_rng_keeps_the_stream_of_every_32_bit_seed(seed):
    name = "cli-section-SU"
    kept = np.random.default_rng((seed, zlib.crc32(name.encode("ascii"))))  # the mapping these seeds always had
    assert props.child_rng(seed, name).random(8).tolist() == kept.random(8).tolist()


def test_child_rng_neither_aliases_a_large_seed_nor_wraps_a_negative_one():
    name = "cli-section-U"
    assert props.child_rng(2**32, name).random(8).tolist() != props.child_rng(0, name).random(8).tolist()
    with pytest.raises(ValueError, match="non-negative"):
        props.child_rng(-1, name)


def test_alternative_log_is_a_log_commuting_with_the_central_log():
    from loopbundle.spectral import central_log, exp_skew

    rng = np.random.default_rng(31)
    for k in range(30):
        dim = int(rng.integers(2, 5))
        g = props._random_degenerate_unitary(rng, dim) if k % 2 == 0 else props.random_unitary(rng, dim)
        alt = props._alternative_log(rng, g)
        zeta = central_log(g)
        assert np.max(np.abs(alt + alt.conj().T)) <= 1e-12
        assert np.linalg.norm(exp_skew(alt) - g) <= 1e-12
        assert np.linalg.norm(zeta @ alt - alt @ zeta) <= 1e-12


def test_alternative_log_is_not_central_on_a_degenerate_cluster():
    """A log with unequal branches on one eigenspace fails to commute with some unitary of that eigenspace."""
    from loopbundle.spectral import centralizer_element

    rng = np.random.default_rng(32)
    q = props.random_unitary(rng, 3)
    g = (q * np.exp(1j * np.array([0.7, 0.7, -2.0]))[None, :]) @ q.conj().T
    gaps = []
    for _ in range(20):
        alt = props._alternative_log(rng, g)
        u = centralizer_element(g, rng)
        gaps.append(np.linalg.norm(alt @ u - u @ alt))
    assert max(gaps) > 1e-3
