"""Command line driver: property suites, section sweeps, holonomy reports, demos.

Subcommands map onto the library's main entry points.  All randomness flows
from --seed, so a repeated invocation produces byte-identical output files
(reports carry no timestamps and are written atomically).  Exit codes: 0 all
checks passed, 1 at least one check failed (or a sweep completed no trial),
2 malformed configuration or arguments, found before any work starts.

A flat key=value config file can pre-set any flag (seed=3, group=SU,
tol.dhat-eigenvalue-residual=1e-5, ...); explicit flags win over the file.
One file may serve every subcommand: a key need only be a flag of some
subcommand (or a tol.* key), and each subcommand reads the keys it knows.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import properties as props

geo = props.geo

DEMO_PROPERTIES = {
    "condiff": ["condiff-identity", "condiff-rotation", "condiff-generic"],
    "reparam": ["reparam-rotation-preserves", "reparam-generic-breaks", "reparam-transport-carries"],
    "counterexample": ["subbundle-counterexample", "subbundle-linear-phase"],
}

HOLONOMY_CHECK_THRESHOLDS = {"gram": 1e-8, "dhat": 1e-6, "periodicity": 1e-8}


class ConfigError(Exception):
    """Raised for malformed config files, flags, or flag values."""


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path):
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    table = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        table[key] = value
    return table


def _check_config_keys(parser, config):
    """Reject a key that is no flag of any subcommand and not tol.*, e.g. a misspelling."""
    subcommands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    flags = {action.dest for sub in subcommands.choices.values() for action in sub._actions if action.option_strings}
    flags.discard("help")
    for key in config:
        if not key.startswith("tol.") and key not in flags:
            raise ConfigError(f"unknown config key {key!r}: it is no flag of any subcommand")


def _setting(args, config, key, parse, default):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace(".", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return parse(config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return default


def extract_tolerances(argv, config):
    """Pull --tol.<name> overrides out of argv and merge with config tol.* keys.

    Returns (remaining argv, {property: threshold}).  Unknown property names
    and unparsable values are config errors.
    """
    overrides = {}
    remaining = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--tol."):
            if "=" in token:
                name, value = token[len("--tol.") :].split("=", 1)
            else:
                name = token[len("--tol.") :]
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"--tol.{name} needs a value")
                value = argv[i]
            overrides[name] = value
        else:
            remaining.append(token)
        i += 1
    merged = {}
    for key, value in config.items():
        if key.startswith("tol."):
            merged[key[len("tol.") :]] = value
    merged.update(overrides)
    known = set(props.property_names())
    out = {}
    for name, value in merged.items():
        if name not in known:
            raise ConfigError(f"unknown property in tolerance override: {name!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"tolerance for {name} is not a number: {value!r}") from exc
    return remaining, out


def _positive(value, flag):
    """Reject counts and sizes below one instead of silently replacing them."""
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be a positive integer, not {value}")
    return value


def _finite(value, flag):
    """Reject nan and infinite values, which argparse's float accepts."""
    if not np.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, not {value}")
    return value


def _output_path(out):
    """Check that --out names a file in an existing directory before any work runs."""
    if out is None:
        return None
    if os.path.isdir(out):
        raise ConfigError(f"--out {out} is a directory, not a file path")
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise ConfigError(f"--out directory {directory} does not exist")
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj

def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".loopbundle-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text)


def write_csv(path, header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row])
    _atomic_write(path, buffer.getvalue())


def _sibling_csv(out, suffix):
    base = out[: -len(".json")] if out.endswith(".json") else out
    return f"{base}-{suffix}.csv"


def _print_records(records):
    for rec in records:
        tag = "PASS" if rec.passed else "FAIL"
        print(f"{tag} {rec.name}: observed={rec.observed:.6e} threshold={rec.threshold:.3e} ({rec.comparator})")


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config):
    """Run every registered property; exit 0 iff all pass."""
    seed = config["seed"]
    trials = config["trials"]
    tolerances = config["tolerances"]
    records = props.run_all(seed=seed, trials=trials, thresholds=tolerances)
    _print_records(records)
    failures = [rec.name for rec in records if not rec.passed]
    print(f"{len(records) - len(failures)}/{len(records)} properties passed (seed={seed})")
    out = config["out"]
    if out:
        payload = {
            "schema": 1,
            "command": "verify",
            "seed": seed,
            "trials": trials,
            "tolerance_overrides": tolerances,
            "properties": [rec.to_json_dict() for rec in records],
            "failures": failures,
            "all_passed": not failures,
        }
        write_json(out, payload)
        rows = props.hs_diagnostic_rows(props.child_rng(seed, "cli-hs-diagnostics"))
        write_csv(_sibling_csv(out, "hs"), ["degree", "dim", "hs_norm", "oracle_norm", "abs_err"], rows)
    return 0 if not failures else 1


def cmd_section(config):
    """Random section sweep over one group; exit 0 iff no trial broke tolerance."""
    group = config["group"]
    if group not in ("U", "SU", "SO"):
        raise ConfigError(f"group must be U, SU or SO, not {group!r}")
    dims = [config["dim"]] if config["dim"] is not None else [2, 3, 4, 5, 6]
    trials = config["trials"]
    r = config["r"]
    branch, split = 0.0, 0.0
    if group == "SO":
        if not -1.0 <= r <= 1.0:
            raise ConfigError("for SO the --r flag is the spectral split abscissa and must lie in [-1, 1]")
        split = r
    else:
        branch = r  # branch point exp(i * r) for the matrix logarithm
    seed = config["seed"]
    rng = props.child_rng(seed, f"cli-section-{group}")
    report = props.sweep_sections(group, dims, trials, rng, branch=branch, split=split)
    print(
        f"{group} sweep: {report['completed']}/{report['trials']} sections "
        f"({report['rejections']} chart rejections), dims {dims}"
    )
    print(
        f"max endpoint={report['max_endpoint_err']:.3e} group={report['max_group_residual']:.3e} "
        f"poly={report['max_poly_residual']:.3e} det={report['max_det_deviation']:.3e}"
    )
    ok = not report["failures"] and report["completed"] > 0
    if report["failures"]:
        print(f"FAIL ({len(report['failures'])} trials over threshold)")
    elif not report["completed"]:
        print("FAIL (no trial completed a section)")
    else:
        print("PASS")
    out = config["out"]
    if out:
        payload = {"schema": 1, "command": "section", "seed": seed, "r": r, "report": report}
        write_json(out, payload)
    return 0 if ok else 1


def _build_model(config):
    model_name = config["model"]
    grid = config["grid"]
    if grid < 1 or grid & (grid - 1):
        raise ConfigError(f"--grid must be a power of two, not {grid}")
    if 2 * config["modes"] + 1 > grid:
        raise ConfigError(f"--modes {config['modes']} needs 2 * modes + 1 <= --grid {grid}, or the basis aliases")
    if model_name not in ("torus", "sphere", "su2"):
        raise ConfigError(f"model must be torus, sphere or su2, not {model_name!r}")
    theta = config["theta"]
    if theta is not None and model_name != "sphere":
        raise ConfigError(f"theta is the sphere's colatitude; the {model_name} model has none")
    winding = config["winding"]
    if model_name == "torus":
        pair = winding if winding is not None else (1, 0)
        if len(pair) > 2:
            raise ConfigError(f"the torus takes one or two winding integers, not {len(pair)}")
        if len(pair) == 1:
            pair = (pair[0], 0)
        return geo.torus_model(winding=tuple(pair), grid=grid)
    if winding is not None and len(winding) != 1:
        raise ConfigError(f"the {model_name} model takes one winding integer, not {len(winding)}")
    w = winding[0] if winding else 1
    if model_name == "su2":
        return geo.su2_model(direction=(0.0, 0.0, 1.0), winding=w, grid=grid)
    try:
        return geo.sphere_model(np.pi / 3 if theta is None else theta, winding=w, grid=grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_holonomy(config):
    """Monodromy/Floquet pipeline over one model loop; JSON report + spectra CSV."""
    model, loop = _build_model(config)
    r = config["r"]
    if r <= 1.0:
        raise ConfigError("the annulus parameter --r must exceed 1")
    mode_bound = config["modes"]
    with np.errstate(over="ignore"):
        top_weight = geo.cosh_weight(mode_bound + 0.5, r)
    if not np.isfinite(top_weight):
        raise ConfigError(f"pairing weight cosh((P + 1/2) ln r)^2 overflows at --modes {mode_bound} --r {r}")
    data = geo.monodromy(model, loop)
    basis = geo.eigen_sections(model, loop, data, mode_bound)
    gram_error = float(np.max(np.abs(basis.gram() - np.eye(basis.count))))
    dhat_max = float(np.max(geo.dhat_residuals(basis)))
    periodicity = basis.periodicity_residual()
    cos_eigs = np.linalg.eigvalsh(geo.cos_gram(basis, r))
    checks = {
        "gram_orthonormal": gram_error < HOLONOMY_CHECK_THRESHOLDS["gram"],
        "dhat_within_tolerance": dhat_max < HOLONOMY_CHECK_THRESHOLDS["dhat"],
        "periodicity_within_tolerance": periodicity < HOLONOMY_CHECK_THRESHOLDS["periodicity"],
        "cos_gram_positive": bool(np.min(cos_eigs) > 0.0),
    }
    payload = {
        "schema": 1,
        "command": "holonomy",
        "model": model.tag,
        "loop": {
            "winding": loop.winding,
            "theta": loop.theta,
            "direction": list(loop.direction),
            "grid": loop.grid,
        },
        "r": r,
        "mode_bound": mode_bound,
        "holonomy": {"re": data.holonomy.real, "im": data.holonomy.imag},
        "exponents": data.exponents,
        "gram_error": gram_error,
        "dhat_max_residual": dhat_max,
        "periodicity_residual": periodicity,
        "checks": checks,
    }
    exps = " ".join(f"{s:+.6f}" for s in data.exponents)
    print(f"model={model.tag} exponents=[{exps}]")
    print(f"gram_error={gram_error:.3e} dhat_max={dhat_max:.3e} cos_gram_positive={checks['cos_gram_positive']}")
    out = config["out"]
    if out:
        write_json(out, payload)
        p_col = basis.pairs[:, 0].astype(int)
        j_col = np.tile(np.arange(data.exponents.size), 2 * mode_bound + 1)
        eigenvalues = basis.pairs[:, 0] - basis.pairs[:, 1]
        rows = zip(p_col, j_col, eigenvalues, geo.cosh_weight(eigenvalues, r))
        write_csv(_sibling_csv(out, "spectra"), ["p", "j", "eigenvalue", "weight"], rows)
    ok = all(checks.values())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_demo(config):
    """Run one named demonstration and report residuals against thresholds."""
    name = config["name"]
    if name not in DEMO_PROPERTIES:
        raise ConfigError(f"demo must be one of {sorted(DEMO_PROPERTIES)}, not {name!r}")
    seed = config["seed"]
    records = [props.run_property(prop, seed=seed) for prop in DEMO_PROPERTIES[name]]
    _print_records(records)
    failures = [rec.name for rec in records if not rec.passed]
    out = config["out"]
    if out:
        payload = {
            "schema": 1,
            "command": "demo",
            "name": name,
            "seed": seed,
            "properties": [rec.to_json_dict() for rec in records],
            "all_passed": not failures,
        }
        write_json(out, payload)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


def _parse_winding(text):
    parts = str(text).split(",")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(f"winding must be an integer or comma pair: {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loopbundle",
        description="Polynomial loop bundles: verification suites, sections, holonomy reports.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every registered property check")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--trials", type=int, help="per-property trial count override")
    p_verify.add_argument("--out", help="write a JSON report (plus HS diagnostics CSV) here")

    p_section = sub.add_parser("section", help="random local-section sweep over one group")
    p_section.add_argument("--group", choices=("U", "SU", "SO"))
    p_section.add_argument("--dim", type=int)
    p_section.add_argument("--trials", type=int)
    p_section.add_argument("--r", type=float, help="branch height (U/SU) or split abscissa in [-1,1] (SO)")
    p_section.add_argument("--seed", type=int)
    p_section.add_argument("--out")

    p_hol = sub.add_parser("holonomy", help="monodromy, Floquet exponents and fibre basis over one loop")
    p_hol.add_argument("--model", choices=("torus", "sphere", "su2"))
    p_hol.add_argument("--theta", type=float, help="sphere colatitude in (0, pi), default pi/3; sphere only")
    p_hol.add_argument("--winding", type=_parse_winding, help="integer (or comma pair for the torus)")
    p_hol.add_argument("--r", type=float, help="annulus parameter for the weighted pairing, > 1")
    p_hol.add_argument("--modes", type=int, help="Fourier mode bound P of the fibre basis")
    p_hol.add_argument("--grid", type=int, help="sample grid of the fibre basis (power of two)")
    p_hol.add_argument("--out")

    p_demo = sub.add_parser("demo", help="named demonstration runs")
    p_demo.add_argument("name", choices=sorted(DEMO_PROPERTIES))
    p_demo.add_argument("--seed", type=int)
    p_demo.add_argument("--out")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --config must be known before --tol validation, so peek at it first
        file_config = {}
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv):
                file_config = load_config(argv[i + 1])
            elif token.startswith("--config="):
                file_config = load_config(token[len("--config=") :])
        parser = build_parser()
        _check_config_keys(parser, file_config)
        argv, tolerances = extract_tolerances(argv, file_config)
        args = parser.parse_args(argv)

        config = {"tolerances": tolerances}
        config["seed"] = _setting(args, file_config, "seed", int, 0)
        config["out"] = _output_path(_setting(args, file_config, "out", str, None))
        if args.command == "verify":
            config["trials"] = _positive(_setting(args, file_config, "trials", int, None), "--trials")
            return cmd_verify(config)
        if args.command == "section":
            config["group"] = _setting(args, file_config, "group", str, "U")
            config["dim"] = _positive(_setting(args, file_config, "dim", int, None), "--dim")
            config["trials"] = _positive(_setting(args, file_config, "trials", int, 50), "--trials")
            config["r"] = _finite(_setting(args, file_config, "r", float, 0.0), "--r")
            return cmd_section(config)
        if args.command == "holonomy":
            config["model"] = _setting(args, file_config, "model", str, "sphere")
            config["theta"] = _setting(args, file_config, "theta", float, None)
            config["winding"] = _setting(args, file_config, "winding", _parse_winding, None)
            config["r"] = _finite(_setting(args, file_config, "r", float, 2.0), "--r")
            config["modes"] = _positive(_setting(args, file_config, "modes", int, 8), "--modes")
            config["grid"] = _setting(args, file_config, "grid", int, 4096)
            return cmd_holonomy(config)
        config["name"] = args.name
        return cmd_demo(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
