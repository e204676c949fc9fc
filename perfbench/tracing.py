"""Span tracing of symbif's layers, installed from outside the package.

Tracer.install replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, job id).  Every
module-level reference to a wrapped function is replaced, so calls inside a
module and `from x import y` names are traced too.  The dense kernels that
`continuation` calls (numpy.linalg.lstsq, svd, eigvalsh) are traced through a
view of numpy given to that module alone, so other layers' numpy calls do
not land in the numpy.linalg layer.  Potentials returned by
potentials.builtin and potentials.from_config_file get traced grad/hess
callables (dataclasses.replace), which count the points they evaluate.

Spans stay in memory until write_jsonl.  A span shorter than FOLD_SECONDS
that kept no child span is folded into its parent's tallies, keyed by its
call path below the parent ("bessel.besseljp>bessel.besselj"), which keep
calls, time and self time: a disk pass makes about a million
bessel.besselj calls, and a record each would take hundreds of MB.  Folding
loses start and end times, not counts or times.  Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "bessel",
    "spectral",
    "polynomial",
    "potentials",
    "brouwer",
    "euler_ring",
    "predictor",
    "continuation",
    "cli",
)
LINALG = ("lstsq", "svd", "eigvalsh")

# span fields
NAME, START, END, PARENT, JOB, ATTRS, KEPT_KIDS, CHILD_S, TALLIES = range(9)
FOLD_SECONDS = 1e-3


def _points(args, result):
    u = np.asarray(args[0])
    return {"points": u.size // u.shape[-1] if u.ndim else 1}


def _problem_size(args, problem):
    return {"n_dof": problem.n_dof, "quad_nodes": int(problem.quad.weights.size)}


def _branch_size(args, branch):
    return {"points": len(branch.points)}


_ATTRS = {
    "continuation.build_problem": _problem_size,
    "continuation.continue_branch": _branch_size,
}


class _View:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.root_tallies = {}  # job -> tallies of folded top-level calls
        self.job = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, False, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            extra = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
            finally:
                span[END] = perf_counter()
                stack.pop()
                self._close(span, extra)
            return result

        return traced

    def _close(self, span, extra):
        """Keep the span, or fold it into its parent's tallies."""
        spans, parent = self.spans, span[PARENT]
        dur = span[END] - span[START]
        if parent >= 0:
            spans[parent][CHILD_S] += dur
        if span[KEPT_KIDS] or dur >= FOLD_SECONDS:
            span[ATTRS] = extra
            if parent >= 0:
                spans[parent][KEPT_KIDS] = True
            return
        spans.pop()  # it kept no child, so it is the last span
        if parent >= 0:
            target = spans[parent][TALLIES]
        else:
            target = self.root_tallies.setdefault(span[JOB], {})
        _add(target, span[NAME], 1, dur, dur - span[CHILD_S], extra)
        for path, (calls, seconds, own, more) in span[TALLIES].items():
            _add(target, f"{span[NAME]}>{path}", calls, seconds, own, more)

    def _counting(self, make):
        """Wrap a spec factory so its specs trace grad and hess."""

        @functools.wraps(make)
        def counted(*args, **kwargs):
            spec = make(*args, **kwargs)
            return dataclasses.replace(
                spec,
                grad=self.wrap("potentials.grad", spec.grad, _points),
                hess=self.wrap("potentials.hess", spec.hess, _points),
            )

        return counted

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self, modules):
        """Trace the public functions of the layer modules (name -> module)."""
        wrapped = {}
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                if name in ("potentials.builtin", "potentials.from_config_file"):
                    wrapped[fn] = self.wrap(name, self._counting(fn))
                else:
                    wrapped[fn] = self.wrap(name, fn, _ATTRS.get(name))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, key, wrapped[value])
        linalg = _View(
            np.linalg, **{k: self.wrap(f"numpy.linalg.{k}", getattr(np.linalg, k)) for k in LINALG}
        )
        self._patch(modules["continuation"], "np", _View(np, linalg=linalg))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write_jsonl(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                       "parent": s[PARENT], "job": s[JOB], **(s[ATTRS] or {})}
                if s[TALLIES]:
                    rec["folded"] = _tally_json(s[TALLIES])
                fh.write(json.dumps(rec) + "\n")
            for job, tallies in self.root_tallies.items():
                fh.write(json.dumps({"parent": -1, "job": job, "folded": _tally_json(tallies)}) + "\n")

    def records(self):
        """(name, calls, seconds, self seconds, names of callers, attrs) for
        every kept span and every tally."""
        spans = self.spans
        callers = []
        for s in spans:
            callers.append(callers[s[PARENT]] | {spans[s[PARENT]][NAME]} if s[PARENT] >= 0 else frozenset())
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            yield s[NAME], 1, dur, dur - s[CHILD_S], callers[i], s[ATTRS] or {}
        tallies = [(callers[i] | {s[NAME]}, s[TALLIES]) for i, s in enumerate(spans)]
        tallies += [(frozenset(), t) for t in self.root_tallies.values()]
        for above, group in tallies:
            for path, (calls, seconds, own, attrs) in group.items():
                *outer, name = path.split(">")
                yield name, calls, seconds, own, above | set(outer), attrs


def _add(tallies, path, calls, seconds, own, attrs):
    tally = tallies.get(path)
    if tally is None:
        tally = tallies[path] = [0, 0.0, 0.0, {}]
    tally[0] += calls
    tally[1] += seconds
    tally[2] += own
    for key, value in (attrs or {}).items():
        tally[3][key] = tally[3].get(key, 0) + value


def _tally_json(tallies):
    return {
        path: {"calls": calls, "seconds": seconds, "self_seconds": own, **attrs}
        for path, (calls, seconds, own, attrs) in tallies.items()
    }


def layer_metrics(tracer):
    """Per-layer metrics from one traced pass (names as in BENCHMARK.json)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    points = defaultdict(int)
    sweep_jacobians = branch_jacobians = branch_points = 0
    n_dof = quad_nodes = 0
    for name, n, seconds, own, ancestors, attrs in tracer.records():
        calls[name] += n
        self_s[name] += own
        if name not in ancestors:  # count a recursive call's time once
            incl_s[name] += seconds
        if name in ("potentials.grad", "potentials.hess"):
            points[name] += attrs["points"]
        elif name == "continuation.build_problem":
            n_dof = max(n_dof, attrs["n_dof"])
            quad_nodes = max(quad_nodes, attrs["quad_nodes"])
        elif name == "continuation.continue_branch":
            branch_points += attrs["points"]
        elif name == "continuation.jacobian":
            if "continuation.detect_bifurcation" in ancestors:
                sweep_jacobians += n
            if ancestors & {"continuation.switch_branch", "continuation.continue_branch"}:
                branch_jacobians += n

    linalg = tuple(f"numpy.linalg.{k}" for k in LINALG)
    out = {}
    for fn in ("bessel.besselj", "bessel.neumann_roots", "spectral.ball_neumann_spectrum_count",
               "continuation.jacobian", "continuation.assemble_residual",
               "continuation.newton_solve", "brouwer.degree_nd", "brouwer.degree_1d",
               "brouwer.degree_2d", "potentials.grad", "potentials.hess",
               "euler_ring.product_decision") + linalg:
        out[f"{fn}.calls"] = calls[fn]
    for fn in ("bessel.besselj", "continuation.jacobian", "continuation.assemble_residual",
               "continuation.min_offsym_singular", "brouwer.degree_nd", "potentials.grad",
               "potentials.hess", "cli.main") + linalg:
        out[f"{fn}.self_s"] = self_s[fn]
    for fn in ("spectral.basis", "continuation.build_problem", "continuation.detect_bifurcation",
               "continuation.switch_branch", "continuation.continue_branch", "brouwer.degree_nd",
               "potentials.slice_brouwer_degree", "predictor.degree_jump", "predictor.predict"):
        out[f"{fn}.incl_s"] = incl_s[fn]
    for fn in ("potentials.grad", "potentials.hess"):
        out[f"{fn}.points"] = points[fn]
    grad_calls = calls["potentials.grad"]
    out["potentials.grad.points_per_call"] = points["potentials.grad"] / grad_calls if grad_calls else 0.0
    out["continuation.detect_bifurcation.jacobian_calls"] = sweep_jacobians
    out["continuation.jacobian_per_point"] = branch_jacobians / branch_points if branch_points else 0.0
    out["size.n_dof_max"] = n_dof
    out["size.quad_nodes_max"] = quad_nodes
    out["trace.calls"] = sum(calls.values())
    return out
