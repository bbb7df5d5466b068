"""Spans around calls into loopbundle's public functions, recorded from outside.

`Tracer.install()` replaces each listed function, in every `loopbundle.*`
namespace that holds that same function object, by a wrapper that records a
span (op, name, start, end, parent, raised).  Callers bind these names with
`from ... import`, and `monodromy` looks `transport_frame` up in its module
globals, so patching only the defining module would miss most calls.
`Tracer.remove()` restores every original binding.  Spans stay in memory
until the caller writes them out.

Two counts are computed from call arguments rather than timed:
`holonomy.rk4_steps` (3 * steps per `transport`/`transport_defect` call,
which integrate at steps and 2 * steps; steps per `transport_frame` call) and
`holonomy.trig_points` (evaluation points * grid * channels per
`trig_interpolate` call).
"""

import collections
import functools
import importlib
import inspect
import sys
import time

import numpy as np

TRACED = {
    "laurent": ("laurent_mul", "fourier_project", "polynomiality_residual", "group_residual"),
    "modes": ("apply_loop", "apply_cosh_weight", "hs_commutator_norm_truncated"),
    "spectral": ("clustered_eig", "log_branch", "central_log", "so_log", "log0_decompose", "exp_skew"),
    "sections": ("un_section", "su_section", "so_section", "fiber_certificate", "path_group_residual"),
    "holonomy": (
        "transport",
        "transport_defect",
        "transport_frame",
        "monodromy",
        "floquet",
        "eigen_sections",
        "dhat_residuals",
        "cos_gram",
        "trig_interpolate",
        "condiff_residual",
        "reparam_actions",
    ),
    "properties": ("run_property", "hs_diagnostic_rows"),
    "cli": ("write_json", "write_csv"),
}

SECTION_CONSTRUCTORS = ("sections.un_section", "sections.su_section", "sections.so_section")


def _rk4_steps(fn, per_step):
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = bound.arguments["steps"]
        if steps is None:
            steps = bound.arguments["loop"].grid
        return "holonomy.rk4_steps", per_step * int(steps)

    return count


def _trig_points(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        values = bound.arguments["values"]
        new_ts = bound.arguments["new_ts"]
        return "holonomy.trig_points", int(np.size(new_ts)) * int(np.size(values))

    return count


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index or -1, raised)
        self.counts = collections.Counter()
        self.op = 0
        self._stack = []
        self._saved = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "loopbundle" or name.startswith("loopbundle.")]
        for short, names in TRACED.items():
            module = importlib.import_module(f"loopbundle.{short}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(original, short, fname)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._saved.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def remove(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, fn, module, fname):
        name = f"{module}.{fname}"
        count = None
        if name in ("holonomy.transport", "holonomy.transport_defect"):
            count = _rk4_steps(fn, 3)
        elif name == "holonomy.transport_frame":
            count = _rk4_steps(fn, 1)
        elif name == "holonomy.trig_interpolate":
            count = _trig_points(fn)
        per_property = name == "properties.run_property"
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"properties.{args[0] if args else kwargs['name']}" if per_property else name
            if count is not None:
                key, amount = count(args, kwargs)
                counts[key] += amount
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, span_name, start, end, parent, raised)

        return wrapper


def self_times(spans):
    """Per span name: (calls, total span seconds, self seconds, calls that raised).

    Self time is a span's duration minus the durations of its direct children;
    calls are synchronous, so children nest inside their parent.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
    for index, (_, name, start, end, _, raised) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[index]
        row[3] += int(raised)
    return table
