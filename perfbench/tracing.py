"""Spans around the calls into each dpsco layer, and the layer metrics.

The benchmark wraps dpsco's public functions at the binding each caller
looks up (a module global or a class attribute) while a traced grid runs,
and restores the originals afterwards.  Nothing inside ``src/`` changes.

A span is ``[name, parent, start, end, rows, flag]``: ``parent`` is the
index of the span that was open when it started (-1 at the top), ``rows``
counts data rows the call handled and ``flag`` marks a mirror step that
returned the unconstrained point (residual 0.0).  Spans stay in memory
until the run ends.
"""

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

import dpsco.bench.runner as runner
import dpsco.euclidean as euclidean
import dpsco.mirror as mirror
from dpsco.problems import constraints, distributions, losses
from workloads import LAYER_METRICS

NAME, PARENT, START, END, ROWS, FLAG = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = [-1]

    def _start(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._open[-1], time.perf_counter(), None, 0, False])
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._start(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name, fn, rows=None, flag=None):
        """``fn`` recording one span per call; ``rows``/``flag`` read the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._start(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            span = self.spans[idx]
            if rows is not None:
                span[ROWS] = rows(args)
            if flag is not None:
                span[FLAG] = flag(out)
            return out

        return traced


def _grads_rows(args):  # (self, w, X, y)
    return int(np.shape(args[2])[0])


def _sample_rows(args):  # (self, n, rng)
    return int(args[1])


def _closed_form_step(out):  # (w, residual)
    return out[1] == 0.0


# (owner, attribute, span name, rows, flag): the binding each caller uses.
# runner.* are the names dpsco.bench.runner imported; mirror.* the names
# dpsco.mirror imported; class methods are looked up on the instance.
BINDINGS = (
    *((runner, f, "euclidean.solve", None, None) for f in ("app_objp", "app_objp_sc", "phased_dp_sgd")),
    *(
        (runner, f, "mirror.solve", None, None)
        for f in ("noisy_reg_md", "shuffled_truncated_md", "batched_truncated_md", "lipschitz_high_p")
    ),
    (runner, "excess_population_risk", "problems.risk", None, None),
    (euclidean, "gaussian_width_mc", "problems.width", None, None),
    (mirror, "mirror_step_constrained", "mirror.step", None, _closed_form_step),
    (mirror, "gg_sample", "mechanisms.gg_sample", None, None),
    *((mirror, f, "spaces.mirror_map", None, None) for f in ("grad_phi", "inv_grad_phi", "bregman")),
    *(
        (cls, "grads", "problems.loss_grads", _grads_rows, None)
        for cls in (losses.LogisticLoss, losses.MeanPointLoss, losses.PseudoHuberLoss)
    ),
    *(
        (cls, "sample", "problems.sample", _sample_rows, None)
        for cls in (distributions.BallCloud, distributions.LogisticSphere, distributions.HeavyTailLinear)
    ),
    *(
        (cls, "project", "problems.project", None, None)
        for cls in (constraints.L2Ball, constraints.L1Ball, constraints.LpBall)
    ),
    (distributions.HeavyTailLinear, "population_risk", "problems.risk.quad", None, None),
)


@contextmanager
def installed(tracer):
    """Route every binding through ``tracer`` for the duration of the block.

    A binding that no longer exists raises KeyError here, so a rename in
    dpsco fails the traced run instead of zeroing a layer.
    """
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in BINDINGS]
    try:
        for (owner, attr, name, rows, flag), (_, _, fn) in zip(BINDINGS, originals):
            setattr(owner, attr, tracer.wrap(name, fn, rows=rows, flag=flag))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# Metrics that are a pure function of the grid's inputs, so they repeat
# exactly from one traced grid to the next.
EXACT_METRICS = tuple(
    m for m, (unit, _) in LAYER_METRICS.items() if unit != "s" and m != "trace.overhead_frac"
)


def _ratio(num, den):
    return num / den if den else 0.0


def grid_layer_metrics(spans):
    """Layer metrics of one traced grid (everything but the overhead)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def under(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def pick(name, where=lambda i: True):
        return [i for i, s in enumerate(spans) if s[NAME] == name and where(i)]

    def busy(ids):
        return sum((dur[i] for i in ids), 0.0)

    def self_s(ids):
        return sum((dur[i] - child[i] for i in ids), 0.0)

    grads = pick("problems.loss_grads")
    project = pick("problems.project")
    data = pick("problems.sample", lambda i: parent_name(i) == "bench.cell")
    evals = pick("problems.sample", lambda i: parent_name(i) == "problems.risk")
    width = pick("problems.width")
    steps = pick("mirror.step")
    gg = pick("mechanisms.gg_sample")
    maps = pick("spaces.mirror_map")
    cells = pick("bench.cell")
    return {
        "problems.loss_grads.calls": len(grads),
        "problems.loss_grads.rows": sum(spans[i][ROWS] for i in grads),
        "problems.loss_grads.s": busy(grads),
        "problems.project.calls": len(project),
        "problems.project.s": busy(project),
        "problems.sample_data.rows": sum(spans[i][ROWS] for i in data),
        "problems.sample_data.s": busy(data),
        "problems.sample_eval.rows": sum(spans[i][ROWS] for i in evals),
        "problems.sample_eval.s": busy(evals),
        "problems.risk.self_s": self_s(pick("problems.risk")),
        "problems.risk.quad_s": busy(pick("problems.risk.quad")),
        "problems.width.calls": len(width),
        "problems.width.s": busy(width),
        "euclidean.solve.self_s": self_s(pick("euclidean.solve")),
        "euclidean.grad_calls_per_cell": _ratio(
            sum(1 for i in grads if under(i, "euclidean.solve")), len(cells)
        ),
        "mirror.solve.self_s": self_s(pick("mirror.solve")),
        "mirror.step.calls": len(steps),
        "mirror.step.self_s": self_s(steps),
        "mirror.step.closed_form_frac": _ratio(sum(1 for i in steps if spans[i][FLAG]), len(steps)),
        "mirror.step.projections_per_step": _ratio(
            sum(1 for i in project if parent_name(i) == "mirror.step"), len(steps)
        ),
        "mechanisms.gg_sample.calls": len(gg),
        "mechanisms.gg_sample.s": busy(gg),
        "spaces.mirror_map.calls": len(maps),
        "spaces.mirror_map.s": busy(maps),
        "bench.cells": len(cells),
        "bench.cell.self_s": self_s(cells),
    }


def fired(spans):
    """Span names that fired at least once."""
    return {s[NAME] for s in spans}


def layer_metrics(traced_grids, traced_grid_s, untraced_grid_s):
    """Per-layer metrics of a traced run.

    Times are medians over the traced grids; counts come from the first
    traced grid (the caller checks that they repeat).
    """
    per_grid = [grid_layer_metrics(spans) for spans in traced_grids]
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            continue
        if name in EXACT_METRICS:
            out[name] = per_grid[0][name]
        else:
            out[name] = statistics.median(g[name] for g in per_grid)
    out["trace.overhead_frac"] = statistics.median(traced_grid_s) / statistics.median(untraced_grid_s) - 1.0
    return out, per_grid
