"""Spans around the public functions of each ebcred module, recorded from outside.

The tracer wraps a function at every module attribute of the ebcred package
that binds it, so a call is seen whichever module makes it: recentered_radii
is bound in samplers, credible_set and experiments, and contains is looked up
in credible_set at call time by draw_lawmu.  Nothing under src/ changes.

Each call records a span (request, name, start, end, parent).  Spans stay in
memory; a layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

# Span name -> (module, function).  The span name is the layer (module) name
# followed by the function name.
TARGETS = {
    "samplers.recentered_radii": ("ebcred.samplers", "recentered_radii"),
    "samplers.draw_lawmu": ("ebcred.samplers", "draw_lawmu"),
    "samplers.draw_posterior": ("ebcred.samplers", "draw_posterior"),
    "credible_set.radius_precise": ("ebcred.credible_set", "radius_precise"),
    "credible_set.radius_builtin": ("ebcred.credible_set", "radius_builtin"),
    "credible_set.contains": ("ebcred.credible_set", "contains"),
    "sequence_model.eb_fit": ("ebcred.sequence_model", "eb_fit"),
    "sequence_model.posterior_spec": ("ebcred.sequence_model", "posterior_spec"),
    "sequence_model.truncation_tail_bound": ("ebcred.sequence_model", "truncation_tail_bound"),
    "sequence_model.adequate_i_max": ("ebcred.sequence_model", "adequate_i_max"),
    "function_space.reconstruct": ("ebcred.function_space", "reconstruct"),
    "experiments.simulate_data": ("ebcred.experiments", "simulate_data"),
    "experiments.make_truth": ("ebcred.experiments", "make_truth"),
    "experiments.fpfn_experiment": ("ebcred.experiments", "fpfn_experiment"),
    "experiments.export_curves": ("ebcred.experiments", "export_curves"),
    "cli.run": ("ebcred.cli", "run"),
    "cli.emit_csv": ("ebcred.cli", "emit_csv"),
    "cli.emit_svg": ("ebcred.cli", "emit_svg"),
}

# Float32 normals pass memory four times in recentered_radii: written by the
# generator, read and written by the in-place square, read by the reduction.
_BYTES_PER_NORMAL = 4 * 4


def _argument(params, args, kwargs, name, default=None):
    if name in kwargs:
        return kwargs[name]
    pos = params.index(name)
    return args[pos] if pos < len(args) else default


def _work_before(name, params, args, kwargs):
    """Work a call is asked to do, read from its arguments."""
    if name == "samplers.recentered_radii":
        variances = _argument(params, args, kwargs, "variances")
        return int(_argument(params, args, kwargs, "m")) * len(variances)
    if name == "function_space.reconstruct":
        theta = _argument(params, args, kwargs, "theta")
        return theta.i_max * len(_argument(params, args, kwargs, "xs"))
    return 0


def _work_after(name, params, args, kwargs, result):
    """Work a call did, read from its result or its output file."""
    if name in ("cli.emit_csv", "cli.emit_svg"):
        return os.path.getsize(_argument(params, args, kwargs, "path"))
    if name == "sequence_model.eb_fit":
        lo, hi = _argument(params, args, kwargs, "search_interval", (0.01, 10.0))
        tol = 1e-3 * (hi - lo)
        return int(result.value - lo <= tol or hi - result.value <= tol)
    return 0


class Tracer:
    """In-memory span recorder; `install` puts it in front of ebcred functions."""

    def __init__(self):
        self.spans = []  # [request, name, start, end, parent, work]
        self.request = 0
        self._stack = []

    def wrap(self, name, fn):
        params = list(inspect.signature(fn).parameters)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            work = _work_before(name, params, args, kwargs)
            span = [self.request, name, 0.0, 0.0, stack[-1] if stack else -1, work]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] += _work_after(name, params, args, kwargs, result)
            return result

        return traced

    def install(self, names):
        """Wrap each named function at every ebcred module attribute bound to it.

        Returns the patches, which `uninstall` reverts.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == "ebcred" or key.startswith("ebcred.")]
        patches = []
        for name in names:
            module, attr = TARGETS[name]
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return patches

    @staticmethod
    def uninstall(patches):
        for mod, key, original in reversed(patches):
            setattr(mod, key, original)

    def summary(self):
        """Per span name: calls, self seconds and work; plus parent-name pairs."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        work = defaultdict(float)
        nested = defaultdict(int)
        for idx, (_, name, start, end, parent, amount) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[idx]
            work[name] += amount
            if parent >= 0:
                nested[(self.spans[parent][1], name)] += 1
        return calls, self_s, work, nested

    def write(self, path):
        """Spans as CSV: request, name, start and end seconds, parent index."""
        with open(path, "w") as fh:
            fh.write("index,request,name,start_s,end_s,parent\n")
            for idx, (request, name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{idx},{request},{name},{start:.9f},{end:.9f},{parent}\n")


def layer_metrics(tracer, passes, traced_wall_s, untraced_wall_s, warnings_count):
    """Per-layer metrics, per traced pass of the operation list."""
    calls, self_s, work, nested = tracer.summary()
    per = 1.0 / passes
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = self_s[name] * per

    def rate(num, den):
        return num / den if den > 0 else 0.0

    total = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0)
    normals = work["samplers.recentered_radii"]
    out["samplers.recentered_radii.normals"] = normals * per
    out["samplers.recentered_radii.normals_per_s"] = rate(
        normals, self_s["samplers.recentered_radii"])
    out["samplers.recentered_radii.bytes_computed"] = normals * _BYTES_PER_NORMAL * per
    out["samplers.recentered_radii.share"] = rate(self_s["samplers.recentered_radii"], total)
    attempts = nested[("samplers.draw_lawmu", "credible_set.contains")]
    out["samplers.draw_lawmu.attempts"] = attempts * per
    out["samplers.draw_lawmu.accept_ratio"] = rate(calls["samplers.draw_lawmu"], attempts)
    out["sequence_model.eb_fit.boundary_hits"] = work["sequence_model.eb_fit"] * per
    out["sequence_model.eb_fit.share"] = rate(self_s["sequence_model.eb_fit"], total)
    out["sequence_model.truncation_warnings"] = warnings_count * per
    evals = work["function_space.reconstruct"]
    out["function_space.reconstruct.basis_evals"] = evals * per
    out["function_space.reconstruct.basis_evals_per_s"] = rate(
        evals, self_s["function_space.reconstruct"])
    out["function_space.reconstruct.share"] = rate(self_s["function_space.reconstruct"], total)
    out["cli.emit_csv.bytes"] = work["cli.emit_csv"] * per
    out["cli.emit_svg.bytes"] = work["cli.emit_svg"] * per
    out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    return out
