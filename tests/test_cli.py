"""Exit codes, report files and determinism of the command line driver."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loopbundle
from loopbundle import ChartError, cli

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--seed", "0", "--trials", "2", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["schema"] == 1
    assert payload["command"] == "verify"
    assert payload["all_passed"] is True
    assert payload["failures"] == []
    assert len(payload["properties"]) >= 20
    names = {rec["name"] for rec in payload["properties"]}
    assert "cosh-inequality" in names
    assert "subbundle-counterexample" in names
    hs_rows = read_rows(tmp_path / "report-hs.csv")
    assert hs_rows[0] == ["degree", "dim", "hs_norm", "oracle_norm", "abs_err"]
    assert len(hs_rows) > 10
    assert max(float(r[4]) for r in hs_rows[1:]) < 1e-8


def test_verify_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(["verify", "--seed", "3", "--trials", "2", "--out", str(first)]) == 0
    assert cli.main(["verify", "--seed", "3", "--trials", "2", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a-hs.csv").read_bytes() == (tmp_path / "b-hs.csv").read_bytes()


def test_verify_forced_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "forced.json"
    code = cli.main(
        ["verify", "--seed", "0", "--trials", "2", "--out", str(out),
         "--tol.dhat-eigenvalue-residual", "1e-16"]
    )
    assert code == 1
    captured = capsys.readouterr().out
    assert "FAIL dhat-eigenvalue-residual" in captured
    payload = read_json(out)
    assert payload["failures"] == ["dhat-eigenvalue-residual"]
    assert payload["all_passed"] is False
    assert payload["tolerance_overrides"] == {"dhat-eigenvalue-residual": 1e-16}


# records whose runners read an eigen-section basis; the rest never see a drift-free core
READS_A_BASIS = {
    "dhat-eigenvalue-residual",
    "projection-residual-decay",
    "condiff-identity",
    "condiff-rotation",
    "condiff-generic",
    "reparam-rotation-preserves",
    "reparam-generic-breaks",
    "reparam-transport-carries",
    "complexification-span",
    "cos-pairing-values",  # its annulus oracle pairs sampled sections
    "projection-roundtrip",  # round-trips sampled sections
    "fiber-basis-gram",  # with distinct sphere exponents the drift enters the Gram overlap
}
REPARAM_RECORDS = {"reparam-rotation-preserves", "reparam-generic-breaks", "reparam-transport-carries"}


def test_a_runner_that_raises_fails_its_records_and_the_batch_goes_on(monkeypatch, tmp_path, capsys):
    def drift_free(model, loop, data):
        # the core without its e^{-2 pi i s_j t} drift, in every basis and in the direct sum's:
        # reparam_actions then raises on a section's degree (laurent.check_quarter_rule) before it resamples
        return cli.geo._transport_samples(model, loop, 0.0, np.arange(loop.grid) / loop.grid, data.frame)

    others = [name for name in cli.props.property_names() if name not in READS_A_BASIS]
    reference = {rec.name: rec.observed for rec in cli.props.run_properties(others, seed=0, trials=2)}
    out = tmp_path / "mutant.json"
    monkeypatch.setattr(cli.geo, "_floquet_core", drift_free)
    cli.props.standard_bases.cache_clear()
    try:
        assert cli.main(["verify", "--seed", "0", "--trials", "2", "--out", str(out)]) == 1
    finally:
        monkeypatch.undo()
        cli.props.standard_bases.cache_clear()
    lines = capsys.readouterr().out.splitlines()
    records = {rec["name"]: rec for rec in read_json(out)["properties"]}
    assert len(records) == len(cli.props.property_names())
    assert {name for name, rec in records.items() if "error" in rec} == REPARAM_RECORDS
    for name in REPARAM_RECORDS:
        rec = records[name]
        assert rec["observed"] is None and rec["passed"] is False
        assert rec["error"].startswith("ValueError: degree ") and " must be < grid/4 = " in rec["error"]
        assert f"FAIL {name}: raised {rec['error']}" in lines
    failed = {name for name, rec in records.items() if not rec["passed"]}
    assert failed == REPARAM_RECORDS | {"dhat-eigenvalue-residual", "condiff-generic"}
    assert {name: records[name]["observed"] for name in others} == reference


def test_tolerance_override_applies_to_one_record_of_a_group(capsys):
    # at one trial the record can read exactly 0.0, so only a negative bound is sure to fail it
    assert cli.main(["verify", "--trials", "1", "--tol.transport-period-shift", "-1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL transport-period-shift"]
    assert any(line.startswith("PASS transport-composition:") for line in lines)


def test_demo_properties_are_registered():
    names = set(cli.props.property_names())
    for demo, records in cli.DEMO_PROPERTIES.items():
        assert set(records) <= names, demo


def test_unknown_tolerance_name_is_config_error():
    assert cli.main(["verify", "--tol.not-a-property", "1.0"]) == 2


def test_malformed_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 3\n")
    assert cli.main(["--config", str(bad), "verify"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.cfg"), "verify"]) == 2


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed=1\n# the second value would otherwise win\nseed=2\n")
    assert cli.main(["--config", str(cfg), "section", "--trials", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:3: key 'seed' repeats line 1\n"


def test_config_supplies_values_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\ntrials=2\n# comment line\n")
    out_cfg = tmp_path / "cfg.json"
    assert cli.main(["--config", str(cfg), "verify", "--out", str(out_cfg)]) == 0
    assert read_json(out_cfg)["seed"] == 3
    out_flag = tmp_path / "flag.json"
    assert cli.main(["--config", str(cfg), "verify", "--seed", "5", "--out", str(out_flag)]) == 0
    assert read_json(out_flag)["seed"] == 5


@pytest.mark.parametrize(
    "text, argv",
    [
        ("seeed=3\n", ["section", "--trials", "1"]),
        ("config=other.cfg\n", ["verify"]),
        ("theta=1.0\n", ["holonomy", "--model", "torus", "--grid", "64", "--modes", "1"]),
    ],
)
def test_config_keys_that_set_nothing_are_config_errors(tmp_path, capsys, text, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)] + argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


@pytest.mark.parametrize("command", ["verify", "section", "holonomy", "demo"])
def test_shared_config_file_is_valid_for_every_subcommand(tmp_path, monkeypatch, command):
    seen = {}
    for name in ("cmd_verify", "cmd_section", "cmd_holonomy", "cmd_demo"):
        monkeypatch.setattr(cli, name, lambda config: seen.update(config) or 0)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("seed=3\ngroup=SU\ntol.cosh-inequality=0.5\n")
    argv = [command, "counterexample"] if command == "demo" else [command]
    assert cli.main(["--config", str(cfg)] + argv) == 0
    assert seen["seed"] == 3
    if command in ("verify", "demo"):  # the two commands that run property checks read tol.* keys
        assert seen["tolerances"] == {"cosh-inequality": 0.5}


def test_config_can_force_failure_via_tolerance(tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol.cosh-inequality=-1\ntrials=2\n")
    assert cli.main(["--config", str(cfg), "verify"]) == 1


@pytest.mark.parametrize("command", ["verify", "section", "demo"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, where):
    argv = [command, "counterexample"] if command == "demo" else [command]
    if where == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "negative.cfg"
        cfg.write_text("seed=-1\n")
        argv = ["--config", str(cfg)] + argv
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "config error: --seed must be a non-negative integer, not -1\n"


def test_a_seed_of_two_to_the_32_is_not_seed_zero(tmp_path):
    reports = {}
    for seed in ("0", "4294967296"):
        out = tmp_path / f"u-{seed}.json"
        assert cli.main(["section", "--dim", "3", "--trials", "4", "--seed", seed, "--out", str(out)]) == 0
        reports[seed] = read_json(out)
    assert reports["4294967296"]["seed"] == 4294967296
    assert reports["4294967296"]["report"] != reports["0"]["report"]


def test_section_sweep_su(tmp_path):
    out = tmp_path / "su.json"
    code = cli.main(["section", "--group", "SU", "--dim", "2", "--trials", "10",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["schema"] == 1
    report = payload["report"]
    assert report["group"] == "SU"
    assert report["completed"] + report["rejections"] == report["trials"]
    assert report["max_det_deviation"] < 1e-10
    assert report["max_endpoint_err"] < 1e-9
    assert report["failures"] == []


@pytest.mark.parametrize("group", ["U", "SU"])
def test_section_at_a_huge_branch_height_completes(group, tmp_path):
    # only e^{ir} sets the cut; at r = 1e17 the unreduced height swamps the
    # eigenvalue angles of the branch log and every trial was rejected
    out = tmp_path / "high.json"
    assert cli.main(["section", "--group", group, "--trials", "5", "--r", "1e17", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["r"] == 1e17
    report = payload["report"]
    assert (report["completed"], report["rejections"], report["failures"]) == (5, 0, [])


def test_section_so_needs_split_in_range():
    assert cli.main(["section", "--group", "SO", "--r", "1.5"]) == 2


def test_section_rejects_unknown_group(tmp_path):
    cfg = tmp_path / "grp.cfg"
    cfg.write_text("group=Sp\n")
    assert cli.main(["--config", str(cfg), "section"]) == 2


def test_holonomy_sphere_report(tmp_path):
    out = tmp_path / "sphere.json"
    code = cli.main(["holonomy", "--model", "sphere", "--theta", str(np.pi / 3),
                     "--modes", "4", "--r", "2", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["schema"] == 2
    assert payload["model"] == "round-sphere-S2"
    assert payload["exponents"] == [-0.5, -0.5]
    assert all(payload["checks"].values())
    assert payload["gram_error"] < 1e-8
    rows = read_rows(tmp_path / "sphere-spectra.csv")
    assert rows[0] == ["p", "j", "eigenvalue", "weight"]
    assert len(rows) - 1 == (2 * 4 + 1) * 2
    # eigenvalue column is p - s_j; weight is cosh((p - s_j) ln r)^2
    p, j, eig, weight = rows[1]
    assert float(weight) == pytest.approx(np.cosh(float(eig) * np.log(2.0)) ** 2, rel=1e-12)


def test_holonomy_torus_is_flat(tmp_path):
    out = tmp_path / "torus.json"
    code = cli.main(["holonomy", "--model", "torus", "--winding", "1,2",
                     "--modes", "2", "--grid", "512", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["exponents"] == [0.0, 0.0]
    assert payload["loop"] == {"grid": 512, "winding": [1, 2]}
    hol = np.array(payload["holonomy"]["re"]) + 1j * np.array(payload["holonomy"]["im"])
    assert np.max(np.abs(hol - np.eye(2))) == 0.0


@pytest.mark.parametrize("name", sorted(cli.MODELS))
def test_holonomy_report_loop_is_the_grid_and_the_model_params(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert cli.main(["holonomy", "--model", name, "--out", str(out)]) == 0
    build, defaults = cli.MODELS[name]
    model, loop = build(grid=4096, **defaults)
    payload = read_json(out)
    assert payload["schema"] == 2 and payload["model"] == model.tag
    assert payload["loop"] == json.loads(json.dumps({"grid": loop.grid, **dict(model.params)}))


def test_holonomy_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["holonomy", "--model", "su2", "--winding", "2", "--modes", "3", "--grid", "1024"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a-spectra.csv").read_bytes() == (tmp_path / "b-spectra.csv").read_bytes()


def test_no_runtime_path_imports_scipy(tmp_path):
    # a fresh interpreter, since the test suite itself loads scipy as an oracle
    script = (
        "import sys\n"
        "from loopbundle import cli\n"
        f"assert cli.main(['verify', '--trials', '1', '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
        "assert cli.main(['section', '--trials', '5']) == 0\n"
        "assert cli.main(['holonomy', '--grid', '256']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(loopbundle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_holonomy_rejects_bad_annulus():
    assert cli.main(["holonomy", "--model", "torus", "--r", "0.5"]) == 2


def test_holonomy_rejects_bad_theta():
    assert cli.main(["holonomy", "--model", "sphere", "--theta", "0"]) == 2


def test_demo_counterexample(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert cli.main(["demo", "counterexample", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "subbundle-counterexample" in captured
    payload = read_json(out)
    assert payload["all_passed"] is True
    names = [rec["name"] for rec in payload["properties"]]
    assert "subbundle-linear-phase" in names


def test_demo_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "warp-drive"])
    assert exc.value.code == 2


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["section", "--dim", "2", "--trials", "2"],
        ["holonomy", "--grid", "64", "--modes", "1"],
        ["demo", "counterexample"],
    ],
)
def test_out_into_missing_directory_is_config_error(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(argv + ["--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not exist" in err
    assert not missing.parent.exists()


def test_out_naming_a_directory_is_config_error(tmp_path):
    assert cli.main(["section", "--dim", "2", "--trials", "2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, sibling",
    [
        (["verify", "--trials", "1"], "r-hs.csv"),
        (["holonomy", "--grid", "64", "--modes", "1"], "r-spectra.csv"),
    ],
)
def test_out_whose_sibling_csv_is_a_directory_is_config_error(tmp_path, capsys, monkeypatch, argv, sibling):
    """The CSV beside the JSON is checked before any work runs: one config error line, exit 2, no report."""
    (tmp_path / sibling).mkdir()
    out = tmp_path / "r.json"
    monkeypatch.setattr(cli.props, "run_properties", lambda *args, **kwargs: pytest.fail("verify ran"))
    monkeypatch.setattr(cli.geo, "monodromy", lambda *args, **kwargs: pytest.fail("holonomy ran"))
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("config error: ") and sibling in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["section", "--trials", "0"],
        ["section", "--trials", "-3"],
        ["section", "--dim", "0", "--trials", "2"],
        ["section", "--dim", "-1"],
        ["verify", "--trials", "0"],
    ],
)
def test_nonpositive_counts_are_config_errors(argv, capsys):
    assert cli.main(argv) == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_section_with_no_completed_trial_fails(monkeypatch, capsys):
    def reject(*args, **kwargs):
        raise ChartError("eigenvalue on the branch cut")

    monkeypatch.setattr(cli.props, "un_section", reject)
    assert cli.main(["section", "--group", "U", "--dim", "2", "--trials", "2"]) == 1
    out = capsys.readouterr().out
    assert "0/2 sections" in out
    assert "FAIL" in out and "PASS" not in out


@pytest.mark.parametrize("grid", ["10", "0", "-4", "96"])
def test_holonomy_grid_must_be_power_of_two(grid, capsys):
    assert cli.main(["holonomy", "--model", "torus", "--grid", grid]) == 2
    assert "power of two" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "su2", "--winding", "3", "--grid", "256"],
        ["--theta", "3.14159", "--grid", "64"],
        ["--model", "torus", "--grid", "256"],
        ["--modes", "100", "--grid", "256"],
    ],
)
def test_holonomy_passes_on_coarse_grids(argv, capsys):
    # the basis sections are trigonometric polynomials well below the Nyquist
    # mode, so the eigenvalue residual must hold however coarse the grid
    assert cli.main(["holonomy"] + argv) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def test_holonomy_fails_an_aliased_basis(tmp_path, capsys):
    # modes up to 63 shift the core's mode 1 onto the Nyquist mode of a 128-point grid
    out = tmp_path / "aliased.json"
    assert cli.main(["holonomy", "--modes", "63", "--grid", "128", "--out", str(out)]) == 1
    assert capsys.readouterr().out.endswith("FAIL\n")
    payload = read_json(out)
    assert payload["dhat_max_residual"] > 1.0
    assert payload["checks"]["dhat_within_tolerance"] is False


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("via_config", [False, True])
def test_nonfinite_tolerance_is_config_error(tmp_path, capsys, via_config, value):
    argv = ["verify", "--trials", "1"]
    if via_config:
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"tol.cosh-inequality={value}\n")
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--tol.cosh-inequality", value]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and "tol.cosh-inequality" in err


# a value each model flag accepts, so that only the model's not taking it can fail
MODEL_FLAG_VALUES = {"theta": "1.0", "winding": "1"}
UNTAKEN_MODEL_FLAGS = [(name, key) for name in sorted(cli.MODELS) for key in cli.MODEL_FLAGS if key not in cli.MODELS[name][1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["section", "--r", "nan"],
        ["section", "--r", "inf"],
        ["holonomy", "--r", "nan"],
        ["holonomy", "--r", "inf"],
        ["holonomy", "--modes", "600", "--grid", "2048"],
        ["holonomy", "--modes", "200", "--grid", "256"],
        ["holonomy", "--model", "torus", "--winding", "1,2,3"],
        ["holonomy", "--model", "sphere", "--winding", "2,5"],
        ["holonomy", "--model", "su2", "--winding", "2,5"],
        # every model flag given to a model that does not take it
        *[["holonomy", "--model", name, f"--{key}", MODEL_FLAG_VALUES[key]] for name, key in UNTAKEN_MODEL_FLAGS],
        # an empty --out names no file, so it must not run and skip the report
        ["verify", "--out", ""],
        ["section", "--trials", "1", "--out", ""],
        ["holonomy", "--grid", "64", "--modes", "1", "--out", ""],
        ["demo", "counterexample", "--out", ""],
    ],
)
def test_malformed_numeric_flags_are_config_errors(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


@pytest.mark.parametrize("via_config", [False, True])
def test_demo_applies_tolerance_overrides(tmp_path, capsys, via_config):
    argv = ["demo", "condiff"]
    if via_config:
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol.condiff-generic=1e-30\n")
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--tol.condiff-generic", "1e-30"]
    assert cli.main(argv) == 1
    assert "FAIL condiff-generic" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["section", "--dim", "2", "--trials", "1", "--tol.cosh-inequality", "0.5"],
        ["holonomy", "--grid", "64", "--modes", "1", "--tol.cosh-inequality=0.5"],
    ],
)
def test_tolerance_flag_on_a_command_without_properties_is_config_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and "runs no property checks" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "abc"],
        ["section", "--trials"],
        ["holonomy", "--winding", "1,x"],
        ["demo", "warp-drive"],
        ["demo", "counterexample", "extra"],
        [],
    ],
)
def test_argument_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:")


def test_cos_gram_positive_reads_false_for_a_repeated_section(tmp_path, monkeypatch):
    eigen_sections = cli.geo.eigen_sections

    def repeat_first(*args):
        basis = eigen_sections(*args)
        core = basis.core.copy()
        core[1] = core[0]  # section (p, 1) repeats section (p, 0) for every mode p
        return dataclasses.replace(basis, core=core)

    monkeypatch.setattr(cli.geo, "eigen_sections", repeat_first)
    out = tmp_path / "repeated.json"
    argv = ["holonomy", "--model", "torus", "--grid", "64", "--modes", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    assert read_json(out)["checks"]["cos_gram_positive"] is False


def test_gram_checks_read_the_symbol_not_the_dense_gram(tmp_path, monkeypatch):
    def refuse(basis):
        raise AssertionError("the dense (2P+1)n-square Gram was built")

    monkeypatch.setattr(cli.geo.FiberBasis, "gram", refuse)
    argv = ["holonomy", "--model", "su2", "--modes", "40", "--out", str(tmp_path / "su2.json")]
    assert cli.main(argv) == 0
    assert read_json(tmp_path / "su2.json")["checks"]["cos_gram_positive"] is True
    records = cli.props.run_properties(["fiber-basis-gram", "cos-gram-positive"], seed=0)
    assert [rec.passed for rec in records] == [True, True]


# Bounded values for every flag except --out (a random --out would write files);
# one value in six is drawn from JUNK, which most flags must reject.
JUNK = st.sampled_from(["", "x", "nan", "inf", "-1", "0", "1e400", "1,,2", "-e"])
FLAG_VALUES = {
    "seed": st.integers(-3, 2**40).map(str),
    "trials": st.integers(1, 3).map(str),
    "group": st.sampled_from(["U", "SU", "SO", "Sp"]),
    "dim": st.integers(1, 4).map(str),
    "r": st.floats(-1.0, 6.0).map(repr),
    "model": st.sampled_from(sorted(cli.MODELS)),
    "theta": st.floats(0.0, 3.2).map(repr),
    "winding": st.lists(st.integers(-5, 5), min_size=1, max_size=2).map(lambda ws: ",".join(map(str, ws))),
    "modes": st.integers(1, 12).map(str),
    "grid": st.sampled_from(["16", "64", "256", "1024"]),
}
REQUIRED = {"section": ("trials", "dim"), "holonomy": ("grid",), "demo": ()}
OPTIONAL = {
    "section": ("group", "r", "seed"),
    "holonomy": ("model", "theta", "winding", "r", "modes"),
    "demo": ("seed",),
}
TOL_KEYS = st.sampled_from(["tol.condiff-generic", "tol.subbundle-counterexample", "tol.not-a-property"])
ODD_LINES = st.sampled_from(["seeed=3", "name=condiff", "config=x", "theta=1.0", "tol.condiff-generic=1e-30", "no value"])


def flag_value(key):
    return st.integers(0, 5).flatmap(lambda pick: JUNK if pick == 0 else FLAG_VALUES[key])


@st.composite
def cli_inputs(draw):
    """An argv for section, holonomy or demo, and the text of a config file or None."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    argv = [command]
    if command == "demo":
        argv.append(draw(st.sampled_from(["condiff", "reparam", "counterexample", "warp"])))
    optional = draw(st.lists(st.sampled_from(OPTIONAL[command]), unique=True))
    for key in REQUIRED[command] + tuple(optional):
        argv += [f"--{key}", draw(flag_value(key))]
    if draw(st.integers(0, 3)) == 0:
        argv += [f"--{draw(TOL_KEYS)}", draw(st.floats(-1.0, 1.0).map(repr) | JUNK)]
    if draw(st.booleans()):
        return argv, None
    keys = draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3, unique=True))
    lines = [f"{key}={draw(flag_value(key))}" for key in keys]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(ODD_LINES))
    return argv, "\n".join(lines + ["# comment"]) + "\n"


@settings(max_examples=200, deadline=None)
@given(cli_inputs())
def test_every_cli_input_runs_or_is_a_one_line_config_error(case):
    argv, config_text = case
    with tempfile.TemporaryDirectory() as tmp:
        if config_text is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(config_text)
            argv = ["--config", path] + argv
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                code = 2
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("config error:")
