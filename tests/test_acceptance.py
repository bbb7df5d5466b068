"""Acceptance gate: every primary criterion at its stated tolerance and budget.

Each test covers one numbered criterion, prints a single PASS/FAIL line (visible
with pytest -s; the test name mirrors it under -v) and enforces the runtime
budget.  Sizes and tolerances are fixed here on purpose -- do not shrink them.
"""

import time

import numpy as np

from loopbundle import (
    central_log,
    centralizer_element,
    clustered_eig,
    cos_inner_product,
    eigen_sections,
    exp_skew,
    monodromy,
    sphere_model,
    torus_model,
    torus_path_factor,
)
from loopbundle import cli
from loopbundle import properties as props
from loopbundle.rand import random_unitary


def report(number, ok, elapsed, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion-{number:02d} [{elapsed:.2f}s] {detail}"
    print(line)
    return line


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_criterion_01_cosh_inequality_grid():
    def run():
        xs = np.linspace(-10.0, 10.0, 201)
        worst = -np.inf
        for r in (1.1, 2.0, 5.0):
            log_r = np.log(r)
            upper = np.cosh(xs * log_r)[None, :]
            lower = (0.5 * np.minimum(r**xs, r**-xs))[None, :]
            mid = np.cosh((xs[:, None] + xs[None, :]) * log_r) / (r ** np.abs(xs))[:, None]
            worst = max(worst, float(np.max(mid - upper)), float(np.max(lower - mid)))
        return worst

    worst, elapsed = timed(run)
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, elapsed, f"cosh inequality slack={worst:.3e} over 3x201x201 grid")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_cosh_weight_isomorphism():
    rng = props.child_rng(0, "acceptance-cosr")
    defect, elapsed = timed(lambda: props.cosr_isomorphism_sweep(rng, 500, mode_bound=64))
    ok = defect < 1e-12 and elapsed < 5.0
    report(2, ok, elapsed, f"roundtrip/equivalence defect={defect:.3e} on 500 vectors, P=64")
    assert defect < 1e-12
    assert elapsed < 5.0


def test_criterion_03_hs_closed_form_vs_oracle():
    rng = props.child_rng(0, "acceptance-hs")

    def run():
        rows = props.hs_norm_cases(rng, 100, max_dim=4, max_degree=5, mode_bound=32, exhaustive=True)
        return len(rows), max(abs(closed - oracle) for _, closed, oracle in rows)

    (count, worst), elapsed = timed(run)
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, ok, elapsed, f"max |closed-oracle|={worst:.3e} over {count} loops (deg<=5, dim<=4)")
    assert count >= 430  # exhaustive single-entry patterns plus 100 random draws
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_04_matched_pair_polynomiality():
    rng = props.child_rng(0, "acceptance-liepol")
    worst, elapsed = timed(lambda: props.liepol_sweep(rng, 200, dims=(2, 3, 4)))
    ok = worst < 1e-8 and elapsed < 60.0
    report(4, ok, elapsed, f"max pair residual={worst:.3e} over 200 pairs per dim in {{2,3,4}}")
    assert worst < 1e-8
    assert elapsed < 60.0


def test_criterion_05_central_log_commutes_with_all_logs():
    rng = props.child_rng(0, "acceptance-comlie")

    def run():
        worst_comm, worst_exp = 0.0, 0.0
        for k in range(100):
            dim = int(rng.integers(2, 5))
            if k % 3 == 0:
                # force a degenerate spectrum: the hard case for commutation
                u = random_unitary(rng, dim)
                phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=max(1, dim - 1)))
                values = np.concatenate([phases, phases[:1]])[:dim]
                g = u @ np.diag(values) @ u.conj().T
            else:
                g = random_unitary(rng, dim)
            zeta = central_log(g)
            clusters = clustered_eig(g).clusters
            for _ in range(20):
                ks = rng.integers(-2, 3, size=len(clusters)).astype(float)
                u = centralizer_element(g, rng)
                alt = u @ (zeta + torus_path_factor(g, 2.0 * np.pi * ks)) @ u.conj().T
                worst_exp = max(worst_exp, float(np.linalg.norm(exp_skew(alt) - g)))
                worst_comm = max(worst_comm, float(np.linalg.norm(zeta @ alt - alt @ zeta)))
        return worst_comm, worst_exp

    (worst_comm, worst_exp), elapsed = timed(run)
    ok = worst_comm < 1e-9 and worst_exp < 1e-9 and elapsed < 30.0
    report(5, ok, elapsed, f"max commutator={worst_comm:.3e} over 100 g x 20 alternative logs")
    assert worst_exp < 1e-9  # every generated alternative really is a log
    assert worst_comm < 1e-9
    assert elapsed < 30.0


def test_criterion_06_section_sweeps():
    def run():
        out = {}
        for group in ("U", "SU", "SO"):
            rng = props.child_rng(0, f"acceptance-sections-{group}")
            out[group] = props.sweep_sections(group, [2, 3, 4, 5, 6], 200, rng)
        return out

    reports, elapsed = timed(run)
    detail = []
    ok = elapsed < 180.0
    for group, rep in reports.items():
        assert rep["completed"] >= 150, f"{group}: too many chart rejections"
        assert rep["failures"] == []
        assert rep["max_endpoint_err"] < 1e-9
        assert rep["max_group_residual"] < 1e-9
        assert rep["max_poly_residual"] < 1e-8
        if group == "SU":
            assert rep["max_det_deviation"] < 1e-10
        detail.append(f"{group}:{rep['completed']}/{rep['trials']}")
        ok = ok and not rep["failures"]
    report(6, ok, elapsed, "200-trial sweeps dims 2-6, " + " ".join(detail))
    assert elapsed < 180.0


def test_criterion_07_structure_properties():
    names = (
        "cplxstr-exp-pi-j",
        "cplxstr-pair-degree-two",
        "cplxstr-structure-invariance",
        "log0-decompose-postconditions",
    )

    def run():
        return [props.run_property(name, seed=0, trials=50) for name in names]

    records, elapsed = timed(run)
    ok = all(rec.passed for rec in records) and elapsed < 30.0
    worst = max(rec.observed for rec in records)
    report(7, ok, elapsed, f"4 structure properties x 50 instances, worst={worst:.3e}")
    for rec in records:
        assert rec.passed, f"{rec.name}: {rec.observed:.3e} vs {rec.threshold:.1e}"
    assert elapsed < 30.0


def test_criterion_08_transport_identities():
    rng = props.child_rng(0, "acceptance-transport")
    out, elapsed = timed(lambda: props.transport_identity_sweep(rng, 50))
    worst = max(out.values())
    ok = worst < 1e-8 and elapsed < 120.0
    report(8, ok, elapsed, f"50 loops/model: worst identity defect={worst:.3e}")
    assert out["composition"] < 1e-8
    assert out["period"] < 1e-8
    assert out["doubling"] < 1e-8
    assert out["orthogonality"] < 1e-8
    assert elapsed < 120.0


def test_criterion_09_latitude_holonomy():
    thetas = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)

    def run():
        return [props.latitude_report(theta) for theta in thetas]

    reports, elapsed = timed(run)
    worst_angle = max(rep["angle_error"] for rep in reports)
    worst_exp = max(rep["exponent_error"] for rep in reports)
    ok = worst_angle < 1e-6 and worst_exp < 1e-6 and elapsed < 30.0
    report(9, ok, elapsed, f"4 latitudes: angle err={worst_angle:.3e} exponent err={worst_exp:.3e}")
    for rep in reports:
        assert rep["angle_error"] < 1e-6, f"theta={rep['theta']:.4f}"
        assert rep["exponent_error"] < 1e-6, f"theta={rep['theta']:.4f}"
    assert elapsed < 30.0


def test_criterion_10_fiber_basis():
    names = ("fiber-basis-gram", "dhat-eigenvalue-residual", "fiber-basis-torus-exact")

    def run():
        return [props.run_property(name, seed=0) for name in names]

    records, elapsed = timed(run)
    by_name = {rec.name: rec for rec in records}
    ok = all(rec.passed for rec in records) and elapsed < 60.0
    report(
        10, ok, elapsed,
        f"gram={by_name['fiber-basis-gram'].observed:.3e} "
        f"dhat={by_name['dhat-eigenvalue-residual'].observed:.3e} "
        f"torus-exact={by_name['fiber-basis-torus-exact'].observed:.1e}",
    )
    assert by_name["fiber-basis-gram"].observed < 1e-8
    assert by_name["dhat-eigenvalue-residual"].observed < 1e-6
    assert by_name["fiber-basis-torus-exact"].observed == 0.0
    assert elapsed < 60.0


def test_criterion_11_weighted_pairing():
    def run():
        model, loop = torus_model(winding=(1, 0), grid=512)
        data = monodromy(model, loop)
        basis = eigen_sections(model, loop, data, 4)
        row = int(np.where(basis.rows()[0] == 1)[0][0])
        coeffs = np.zeros(basis.count, dtype=complex)
        coeffs[row] = 1.0
        spot = cos_inner_product(basis, coeffs, coeffs, 2.0)

        smodel, sloop = sphere_model(np.pi / 3)
        sdata = monodromy(smodel, sloop)
        sbasis = eigen_sections(smodel, sloop, sdata, 4)
        srow = int(np.where(sbasis.rows()[0] == 0)[0][0])
        scoeffs = np.zeros(sbasis.count, dtype=complex)
        scoeffs[srow] = 1.0
        sphere_spot = cos_inner_product(sbasis, scoeffs, scoeffs, 2.0)
        gram_rec = props.run_property("cos-gram-positive", seed=0)
        return spot, sphere_spot, gram_rec

    (spot, sphere_spot, gram_rec), elapsed = timed(run)
    ok = (
        abs(spot - 1.5625) < 1e-10
        and abs(sphere_spot - 1.125) < 1e-10
        and gram_rec.passed
        and elapsed < 10.0
    )
    report(11, ok, elapsed, f"spot={spot.real:.10f} (1.5625), shifted={sphere_spot.real:.10f} (1.125), "
                            f"min gram eig={gram_rec.observed:.3e}")
    assert abs(spot - 1.5625) < 1e-10
    assert abs(sphere_spot - 1.125) < 1e-10
    assert gram_rec.passed  # positive definiteness across tested Grams
    assert elapsed < 10.0


def test_criterion_12_reparametrisation_behaviours():
    checks = (
        ("reparam-rotation-preserves", "<", 1e-8),
        ("reparam-generic-breaks", ">", 1e-3),
        ("condiff-identity", "<", 1e-10),
        ("condiff-rotation", "<", 1e-6),
        ("condiff-generic", "<", 1e-4),
        ("subbundle-counterexample", ">", 1e-3),
    )

    def run():
        return [props.run_property(name, seed=0) for name, _, _ in checks]

    records, elapsed = timed(run)
    ok = all(rec.passed for rec in records) and elapsed < 60.0
    report(12, ok, elapsed, " ".join(f"{rec.name}={rec.observed:.2e}" for rec in records))
    for rec, (_, comparator, bound) in zip(records, checks):
        assert rec.comparator == comparator and rec.threshold == bound
        assert rec.passed, f"{rec.name}: {rec.observed:.3e}"
    assert elapsed < 60.0


def test_criterion_13_full_verify_suite():
    code, elapsed = timed(lambda: cli.main(["verify", "--seed", "0"]))
    ok = code == 0 and elapsed < 600.0
    report(13, ok, elapsed, f"full property suite exit code {code}")
    assert code == 0
    assert elapsed < 600.0
