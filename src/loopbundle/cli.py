"""Command line driver: property suites, section sweeps, holonomy reports, demos.

Subcommands map onto the library's main entry points.  All randomness flows
from --seed, so a repeated invocation produces byte-identical output files
(reports carry no timestamps and are written atomically).  Exit codes: 0 all
checks passed, 1 at least one check failed (or a sweep completed no trial),
2 malformed configuration or arguments, found before any work starts and
reported as one 'config error:' line on stderr.

One table, COMMANDS, declares each subcommand's flags (type, default, help,
value check) and builds the parser.  A flat key=value config file (seed=3,
group=SU, tol.cosh-inequality=0.5, ...) may serve every subcommand: each key
must be a flag of some subcommand, and its value, converted once by that
flag's type, becomes the flag's default, so explicit flags win.  Only verify
and demo run properties, so only they take --tol.<name> X.
"""

import argparse
import collections
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import properties as props
from .modes import cosh_weight

geo = props.geo

DEMO_PROPERTIES = {
    "condiff": ["condiff-identity", "condiff-rotation", "condiff-generic"],
    "reparam": ["reparam-rotation-preserves", "reparam-generic-breaks", "reparam-transport-carries"],
    "counterexample": ["subbundle-counterexample", "subbundle-linear-phase"],
}

HOLONOMY_CHECK_THRESHOLDS = {"gram": 1e-8, "dhat": 1e-6, "periodicity": 1e-8, "cos_gram": 1e-8}


class ConfigError(Exception):
    """Raised for malformed config files, flags, or flag values."""


# ---------------------------------------------------------------------------
# config plumbing


def load_config(path):
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored, a repeated key is an error."""
    table, first_line = {}, {}
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
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        table[key] = value
    return table


def _positive(value, key):
    """Reject counts and sizes below one instead of silently replacing them."""
    if value is not None and value < 1:
        raise ConfigError(f"--{key} must be a positive integer, not {value}")


def _non_negative(value, key):
    """Reject a negative seed, which no generator seed sequence takes."""
    if value < 0:
        raise ConfigError(f"--{key} must be a non-negative integer, not {value}")


def _finite(value, key):
    """Reject nan and infinite values, which float() accepts; unset (None) values pass."""
    if value is not None and not np.isfinite(value):
        raise ConfigError(f"--{key} must be a finite number, not {value}")


def _output_path(out, key):
    """Check that --out names a file in an existing directory before any work runs."""
    if out is None:
        return
    if not out:
        raise ConfigError(f"--{key} is an empty path, not a file path")
    if os.path.isdir(out):
        raise ConfigError(f"--{key} {out} is a directory, not a file path")
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise ConfigError(f"--{key} directory {directory} does not exist")


def _parse_winding(text):
    """One integer, or a comma list of integers as a tuple."""
    try:
        parts = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        # argparse prints this message; for ValueError it would print the function's name
        raise argparse.ArgumentTypeError(f"winding must be an integer or comma pair: {text!r}") from None
    return parts[0] if len(parts) == 1 else parts


def _torus_model(winding, grid):
    """The torus of --winding, where one integer p means the pair (p, 0)."""
    return geo.torus_model(winding=(winding, 0) if isinstance(winding, int) else winding, grid=grid)


# --model name -> (constructor, {model flag it takes: its default}); a model flag not in its row is an error
MODELS = {
    "torus": (_torus_model, {"winding": (1, 0)}),
    "sphere": (geo.sphere_model, {"theta": np.pi / 3, "winding": 1}),
    "su2": (geo.su2_model, {"winding": 1}),
}
MODEL_FLAGS = sorted({key for _, taken in MODELS.values() for key in taken})


def _model_name(value, key):
    if value not in MODELS:
        raise ConfigError(f"--{key} must be one of {', '.join(MODELS)}, not {value!r}")


# type converts the text of a flag or config value; check(value, key) raises ConfigError
Flag = collections.namedtuple("Flag", "type default help check", defaults=(None,))

SEED = Flag(int, 0, "root seed of every random draw, >= 0", _non_negative)
OUT = Flag(str, None, "write a JSON report here (verify and holonomy add a CSV beside it)", _output_path)
TOLERANCES = {f"tol.{name}": Flag(float, None, argparse.SUPPRESS, _finite) for name in props.property_names()}
TOL_HELP = "; --tol.<name> X overrides one property's threshold"

COMMANDS = {
    "verify": ("run every registered property check" + TOL_HELP, {
        "seed": SEED,
        "trials": Flag(int, None, "per-property trial count override", _positive),
        "out": OUT,
        **TOLERANCES,
    }),
    "section": ("random local-section sweep over one group", {
        "group": Flag(str, "U", "U, SU or SO"),
        "dim": Flag(int, None, "one matrix size instead of 2..6", _positive),
        "trials": Flag(int, 50, "number of random sections", _positive),
        "r": Flag(float, 0.0, "branch height (U/SU) or split abscissa in [-1,1] (SO)", _finite),
        "seed": SEED,
        "out": OUT,
    }),
    "holonomy": ("monodromy, Floquet exponents and fibre basis over one loop", {
        "model": Flag(str, "sphere", ", ".join(MODELS), _model_name),
        "theta": Flag(float, None, "sphere colatitude in (0, pi), default pi/3; sphere only"),
        "winding": Flag(_parse_winding, None, "integer (or comma pair for the torus)"),
        "r": Flag(float, 2.0, "annulus parameter for the weighted pairing, > 1", _finite),
        "modes": Flag(int, 8, "Fourier mode bound P of the fibre basis", _positive),
        "grid": Flag(int, 4096, "sample grid of the fibre basis (power of two)"),
        "out": OUT,
    }),
    "demo": ("named demonstration runs" + TOL_HELP, {"seed": SEED, "out": OUT, **TOLERANCES}),
}


def _file_defaults(table):
    """Convert each config value by the type of the flag it names; a key naming no flag is an error."""
    types = {key: flag.type for _, flags in COMMANDS.values() for key, flag in flags.items()}
    defaults = {}
    for key, text in table.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}: it is no flag of any subcommand")
        try:
            defaults[key] = types[key](text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return defaults


class _Parser(argparse.ArgumentParser):
    """An argument error is one 'config error:' line on stderr and exit status 2."""

    def error(self, message):
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser(defaults):
    """The parser of COMMANDS, with converted config values (by key) replacing the table's defaults."""
    description = "Polynomial loop bundles: verification suites, sections, holonomy reports."
    parser = _Parser(prog="loopbundle", description=description, allow_abbrev=False)
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in COMMANDS.items():
        p_command = sub.add_parser(command, help=summary, description=summary, allow_abbrev=False)
        if command == "demo":
            p_command.add_argument("name", choices=sorted(DEMO_PROPERTIES))
        for key, flag in flags.items():
            default = defaults.get(key, flag.default)
            p_command.add_argument(f"--{key}", dest=key, type=flag.type, default=default, help=flag.help)
    return parser


# ---------------------------------------------------------------------------
# output plumbing


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
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist()) + "\n"
    _atomic_write(path, text)


def write_csv(path, header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row])
    _atomic_write(path, buffer.getvalue())


# the suffix of the CSV that a command writes beside its --out JSON
SIBLING_CSV = {"verify": "hs", "holonomy": "spectra"}


def _sibling_csv(out, command):
    base = out[: -len(".json")] if out.endswith(".json") else out
    return f"{base}-{SIBLING_CSV[command]}.csv"


def _run_properties(config, names, trials=None):
    """Run and print the named properties under the tolerance overrides; return (failures, shared report)."""
    records = props.run_properties(names, config["seed"], trials, config["tolerances"])
    for rec in records:
        if rec.error is not None:
            print(f"FAIL {rec.name}: raised {rec.error}")
            continue
        tag = "PASS" if rec.passed else "FAIL"
        print(f"{tag} {rec.name}: observed={rec.observed:.6e} threshold={rec.threshold:.3e} ({rec.comparator})")
    failures = [rec.name for rec in records if not rec.passed]
    properties = [dataclasses.asdict(rec) for rec in records]
    for row in properties:
        if row["error"] is None:
            del row["error"]  # only a record whose runner raised carries the key
    return failures, {"schema": 1, "seed": config["seed"], "properties": properties, "all_passed": not failures}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config):
    """Run every registered property; exit 0 iff all pass."""
    seed, trials, out = config["seed"], config["trials"], config["out"]
    names = props.property_names()
    failures, report = _run_properties(config, names, trials)
    print(f"{len(names) - len(failures)}/{len(names)} properties passed (seed={seed})")
    if out:
        report.update(command="verify", trials=trials, tolerance_overrides=config["tolerances"], failures=failures)
        write_json(out, report)
        rows = props.hs_diagnostic_rows(props.child_rng(seed, "cli-hs-diagnostics"))
        write_csv(_sibling_csv(out, "verify"), ["degree", "dim", "hs_norm", "oracle_norm", "abs_err"], rows)
    return 0 if not failures else 1


def cmd_section(config):
    """Random section sweep over one group; exit 0 iff no trial broke tolerance."""
    group = config["group"]
    if group not in ("U", "SU", "SO"):
        raise ConfigError(f"group must be U, SU or SO, not {group!r}")
    dims = [config["dim"]] if config["dim"] is not None else [2, 3, 4, 5, 6]
    r = config["r"]
    if group == "SO" and not -1.0 <= r <= 1.0:
        raise ConfigError("for SO the --r flag is the spectral split abscissa and must lie in [-1, 1]")
    seed = config["seed"]
    rng = props.child_rng(seed, f"cli-section-{group}")
    report = props.sweep_sections(group, dims, config["trials"], rng, r)
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
    build, params = MODELS[config["model"]]
    given = {key: config[key] for key in MODEL_FLAGS if config[key] is not None}
    untaken = sorted(given.keys() - params.keys())
    if untaken:
        raise ConfigError(f"the {config['model']} model takes no --{untaken[0]}")
    try:
        model, loop = build(grid=config["grid"], **{**params, **given})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # after the constructor's grid check; the basis checks this too, but only after the monodromy has run
    if 2 * config["modes"] + 1 > loop.grid:
        raise ConfigError(f"--modes {config['modes']} needs 2 * modes + 1 <= --grid {loop.grid}, or the basis aliases")
    return model, loop


def cmd_holonomy(config):
    """Monodromy/Floquet pipeline over one model loop; JSON report + spectra CSV."""
    model, loop = _build_model(config)
    r, mode_bound = config["r"], config["modes"]
    try:
        with np.errstate(over="ignore"):
            top_weight = cosh_weight(mode_bound + 0.5, r) ** 2
    except ValueError as exc:
        raise ConfigError(f"--r {r}: {exc}") from exc
    if not np.isfinite(top_weight):
        raise ConfigError(f"pairing weight cosh((P + 1/2) ln r)^2 overflows at --modes {mode_bound} --r {r}")
    data = geo.monodromy(model, loop)
    basis = geo.eigen_sections(model, loop, data, mode_bound)
    gram_error = basis.gram_error()
    dhat_max = float(np.max(geo.dhat_residuals(basis)))
    periodicity = basis.periodicity_residual()
    checks = {
        "gram_orthonormal": gram_error < HOLONOMY_CHECK_THRESHOLDS["gram"],
        "dhat_within_tolerance": dhat_max < HOLONOMY_CHECK_THRESHOLDS["dhat"],
        "periodicity_within_tolerance": periodicity < HOLONOMY_CHECK_THRESHOLDS["periodicity"],
        "cos_gram_positive": geo.cos_gram_floor(basis, r) > HOLONOMY_CHECK_THRESHOLDS["cos_gram"],
    }
    payload = {
        "schema": 2,
        "command": "holonomy",
        "model": model.tag,
        "loop": {"grid": loop.grid, **dict(model.params)},
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
        rows = zip(*basis.rows(), basis.eigenvalues, basis.pairing_weights(r))
        write_csv(_sibling_csv(out, "holonomy"), ["p", "j", "eigenvalue", "weight"], rows)
    ok = all(checks.values())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_demo(config):
    """Run one named demonstration and report residuals against thresholds."""
    failures, report = _run_properties(config, DEMO_PROPERTIES[config["name"]])
    if config["out"]:
        report.update(command="demo", name=config["name"])
        write_json(config["out"], report)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        pre = _Parser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv)[0].config
        file_defaults = _file_defaults(load_config(path)) if path else {}
        parser = build_parser(file_defaults)
        args, extra = parser.parse_known_args(argv)
        flags = COMMANDS[args.command][1]
        tol = next((token.split("=", 1)[0] for token in extra if token.startswith("--tol.")), None)
        if tol:
            why = "no such property" if TOLERANCES.keys() <= flags.keys() else f"{args.command} runs no property checks"
            raise ConfigError(f"{tol}: {why}")
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        config = vars(args)
        for key, flag in flags.items():
            if flag.check:
                flag.check(config[key], key)
        if config["out"] and args.command in SIBLING_CSV:
            sibling = _sibling_csv(config["out"], args.command)
            if os.path.isdir(sibling):
                raise ConfigError(f"--out {config['out']} writes its CSV to {sibling}, which is a directory")
        tolerances = ((key.removeprefix("tol."), value) for key, value in config.items() if key.startswith("tol."))
        config["tolerances"] = {name: value for name, value in tolerances if value is not None}
        command = {"verify": cmd_verify, "section": cmd_section, "holonomy": cmd_holonomy, "demo": cmd_demo}
        return command[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
