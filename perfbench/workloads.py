"""The benchmark's three workloads: inputs from a seed, one timed op, its gates.

Each op returns an `Op` with its wall time, whether every correctness gate
held, and its worst gate ratio (observed / threshold, or threshold / observed
for checks that must exceed their threshold).  The thresholds are copied from
the loopbundle sources at the commit that introduced this benchmark, so that
a later change to the program's own thresholds cannot move the gates.
"""

import filecmp
import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

SECTION_THRESHOLDS = {"endpoint": 1e-9, "group": 1e-9, "poly": 1e-8, "det": 1e-10}
HOLONOMY_THRESHOLDS = {"gram": 1e-8, "dhat": 1e-6, "periodicity": 1e-8, "exponents": 1e-8}
VERIFY_PROPERTIES = 61

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    ratio: float
    detail: str = ""
    bytes_written: int = 0


def _ratio(observed, threshold, comparator="<"):
    return threshold / observed if comparator == ">" else observed / threshold


class Verify:
    """One fresh `python -m loopbundle.cli verify --seed S --out DIR/report.json` process."""

    in_process = False
    cycle = 1
    min_ops = 2  # the byte-identity gate compares two ops

    def __init__(self, root, workdir, env):
        self.root, self.workdir, self.env = root, workdir, env
        self.reference = None
        self.started = 0

    def generate(self, seed):
        return int(seed)

    def run(self, seed, index, spans_path=None, timeout=None):
        self.started += 1
        out_dir = os.path.join(self.workdir, f"verify-{self.started}")
        os.makedirs(out_dir)
        report = os.path.join(out_dir, "report.json")
        argv = ["verify", "--seed", str(seed), "--out", report]
        if spans_path is None:
            cmd = [sys.executable, "-m", "loopbundle.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            return Op("verify", seconds, False, 0.0, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        files = (report, os.path.join(out_dir, "report-hs.csv"))
        with open(report, encoding="utf-8") as handle:
            records = json.load(handle)["properties"]
        ratio = max(_ratio(r["observed"], r["threshold"], r["comparator"]) for r in records if r["threshold"] != 0)
        failed = [r["name"] for r in records if not r["passed"]]
        if len(records) != VERIFY_PROPERTIES or failed:
            return Op("verify", seconds, False, ratio, f"{len(records)} records, failed: {failed}")
        if self.reference is None:
            self.reference = files
        elif not all(filecmp.cmp(a, b, shallow=False) for a, b in zip(files, self.reference)):
            return Op("verify", seconds, False, ratio, "report or CSV differs from the first op with this seed")
        size = sum(os.path.getsize(f) for f in files)
        return Op("verify", seconds, True, ratio, f"{len(records)} properties passed", size)


class Sections:
    """One 200-trial `sweep_sections` call over dims 2..6, cycling U, SU, SO as `section` does."""

    in_process = True
    groups = ("U", "SU", "SO")
    cycle = 3
    min_ops = 3
    dims = [2, 3, 4, 5, 6]
    trials = 200

    def __init__(self):
        self.props = importlib.import_module("loopbundle.properties")

    def generate(self, seed):
        return np.random.default_rng(seed).integers(0, 2**31, size=4096).tolist()

    def run(self, op_seeds, index):
        group = self.groups[index % len(self.groups)]
        rng = self.props.child_rng(op_seeds[index % len(op_seeds)], f"cli-section-{group}")
        start = time.perf_counter()
        report = self.props.sweep_sections(group, self.dims, self.trials, rng)
        seconds = time.perf_counter() - start
        maxima = {
            "endpoint": report["max_endpoint_err"],
            "group": report["max_group_residual"],
            "poly": report["max_poly_residual"],
            "det": report["max_det_deviation"],
        }
        ratio = max(_ratio(maxima[key], limit) for key, limit in SECTION_THRESHOLDS.items())
        over = [key for key, limit in SECTION_THRESHOLDS.items() if not maxima[key] <= limit]
        completed = report["completed"]
        ok = not over and completed > 0 and completed + report["rejections"] == self.trials
        return Op(group, seconds, ok, ratio, f"{completed}/{self.trials} completed, over threshold: {over}")


def _circular_gap(found, expected):
    """Largest distance on the circle R/Z between matched exponent lists (best matching)."""
    best = np.inf
    for perm in itertools.permutations(expected):
        diff = np.asarray(found) - np.asarray(perm)
        best = min(best, float(np.max(np.abs(diff - np.round(diff)))))
    return best


class Holonomy:
    """One fibre basis at the CLI defaults: monodromy, eigen_sections, dhat_residuals, gram, cos_gram."""

    in_process = True
    # torus, sphere, su2; a sine reparametrisation on every second loop; windings
    # 1, 2, 3 in turn, so every run holds the same mix of loop kinds
    cycle = 18
    min_ops = 18
    grid, mode_bound, r = 4096, 8, 2.0

    def __init__(self):
        self.geo = importlib.import_module("loopbundle.holonomy")

    def generate(self, seed, count=1800):
        geo = self.geo
        rng = np.random.default_rng(seed)
        loops = []
        for index in range(count):
            reparam = None
            if index % 2:
                reparam = geo.Reparam("sine", shift=float(rng.random()), amplitude=float(rng.uniform(0.02, 0.12)))
            kind = index % 3
            winding = 1 + (index // 6) % 3
            if kind == 0:
                pair = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                model, loop = geo.torus_model(winding=pair, grid=self.grid, reparam=reparam)
                expected = [0.0, 0.0]
            elif kind == 1:
                theta = float(rng.uniform(0.25, np.pi - 0.25))
                model, loop = geo.sphere_model(theta, winding=winding, grid=self.grid, reparam=reparam)
                shift = winding * (1.0 - np.cos(theta))
                expected = [shift, -shift]
            else:
                direction = rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                model, loop = geo.su2_model(direction=tuple(direction), winding=winding, grid=self.grid, reparam=reparam)
                expected = [0.0, 0.0, 0.0]
            loops.append((model, loop, expected))
        return loops

    def run(self, loops, index):
        geo = self.geo
        model, loop, expected = loops[index % len(loops)]
        kind = model.tag.split("-")[1] + ("+sine" if loop.reparam is not None else "")
        start = time.perf_counter()
        try:
            data = geo.monodromy(model, loop)
        except RuntimeError as exc:
            return Op(kind, time.perf_counter() - start, False, 0.0, str(exc))
        basis = geo.eigen_sections(model, loop, data, self.mode_bound)
        dhat = float(np.max(geo.dhat_residuals(basis)))
        gram = float(np.max(np.abs(basis.gram() - np.eye(basis.count))))
        weights = np.diag(geo.cos_gram(basis, self.r)).real
        periodicity = basis.periodicity_residual()
        seconds = time.perf_counter() - start
        observed = {
            "gram": gram,
            "dhat": dhat,
            "periodicity": periodicity,
            "exponents": _circular_gap(data.exponents, expected),
        }
        ratio = max(_ratio(observed[key], limit) for key, limit in HOLONOMY_THRESHOLDS.items())
        over = [key for key, limit in HOLONOMY_THRESHOLDS.items() if not observed[key] < limit]
        ok = not over and bool(np.all(weights >= 1.0))
        return Op(kind, seconds, ok, ratio, f"over threshold: {over}")
