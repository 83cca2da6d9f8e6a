"""Spans around the public functions of each jflow module.

The tracer lives in the benchmark, not in ``src/jflow``: it replaces a
function by a recording wrapper in its own module *and* in every jflow
module that imported it by name (``flow``, ``checks`` and ``cli`` bind
``lifted_value``, ``resolvent``, ``evolve`` and friends directly), so no
call escapes.  Spans are kept in memory as ``[name, start, end, parent,
iterations, outcome]`` and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, function, span name).  Private names are traced where they are
# the mechanism a layer metric is about: the snap ladder after a Newton
# step, and the per-call fiber geometry.
TRACED = [
    ("jflow.cli", "main", "cli"),
    ("jflow.problems", "load_problem", "problems.load"),
    ("jflow.checks", "check_invariance", "checks.positivity"),
    ("jflow.checks", "check_order_preserving", "checks.order"),
    ("jflow.checks", "check_comparison", "checks.comparison"),
    ("jflow.checks", "check_domination", "checks.domination"),
    ("jflow.checks", "check_linf_contractivity", "checks.linf"),
    ("jflow.checks", "check_complete_contractivity", "checks.complete"),
    ("jflow.flow", "semigroup_distance", "flow.semigroup_distance"),
    ("jflow.flow", "evolve", "flow.evolve"),
    ("jflow.flow", "resolvent", "flow.resolvent"),
    ("jflow.pairs", "lifted_value", "pairs.lifted"),
    ("jflow.pairs", "_fiber_slice", "pairs.fiber_slice"),
    ("jflow.solvers", "minimize", "solvers.minimize"),
    ("jflow.solvers", "newton", "solvers.newton"),
    ("jflow.solvers", "_try_snap", "solvers.snap"),
    ("jflow.solvers", "partial_anchor_tv", "solvers.pdhg"),
    ("jflow.solvers", "constrained_tv_min", "solvers.pdhg"),
]

# the outcome of a call: a solve certified its result, a snap lowered the
# gradient norm it was given
OUTCOME = {
    "solvers.minimize": lambda args, out: out.converged,
    "solvers.newton": lambda args, out: out.converged,
    "solvers.snap": lambda args, out: out[1] < args[2],
}

# energy evaluations: methods of ExtendedFunctional
ENERGY = {"smooth_grad": "energy.grad", "smooth_value": "energy.value", "value": "energy.value"}

SUITES = ("positivity", "order", "linf", "complete", "domination")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = OUTCOME.get(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = getattr(out, "iterations", None)
            if outcome is not None:
                span[5] = bool(outcome(args, out))
            return out

        return wrapper

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jflow" or mod_name.startswith("jflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import jflow.cli  # noqa: F401 - imports every traced module
        from jflow.energy import ExtendedFunctional

        for mod_name, attr, name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._span(name, original))
        for attr, name in ENERGY.items():
            original = getattr(ExtendedFunctional, attr)
            setattr(ExtendedFunctional, attr, self._span(name, original))
            self._undo.append((ExtendedFunctional, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark(self):
        """Position in the span list: a round's spans lie between two marks."""
        return len(self.spans)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "iterations", "outcome"], "spans": self.spans}, fh)


def _nested_in_same(spans, first, i):
    """Whether span ``i`` runs inside another span of its own name (the
    snap ladder calls itself), whose total already covers it."""
    name, parent = spans[i][0], spans[i][3]
    while parent >= first:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, first, last):
    """Per-layer figures for the spans ``spans[first:last]`` of one round.

    A span's self time is its duration minus that of its traced children.
    """
    child_time = {}
    for span in spans[first:last]:
        if span[3] >= first:
            child_time[span[3]] = child_time.get(span[3], 0.0) + (span[2] - span[1])
    total, self_time, calls, iters, outcomes, lifted_ms = {}, {}, {}, {}, {}, []
    suites = {s: 0.0 for s in SUITES}
    for i in range(first, last):
        name, start, end, parent, iterations, ok = spans[i]
        dur = end - start
        if not _nested_in_same(spans, first, i):
            total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        iters[name] = iters.get(name, 0) + (iterations or 0)
        outcomes[name] = outcomes.get(name, 0) + bool(ok)
        if name == "pairs.lifted":
            lifted_ms.append(1e3 * dur)
        # a suite's time is that of its outermost check: check_domination
        # verifies its hypotheses with nested invariance and order checks
        suite = name[len("checks."):]
        if suite in suites and not (parent >= first and spans[parent][0].startswith("checks.")):
            suites[suite] += dur

    m = {"problems.load_s": total.get("problems.load", 0.0), "cli.self_s": self_time.get("cli", 0.0)}
    m.update({f"checks.{suite}_s": t for suite, t in suites.items()})
    m["checks.self_s"] = sum(v for k, v in self_time.items() if k.startswith("checks."))
    m["flow.evolve_s"] = total.get("flow.evolve", 0.0)
    for name in ("flow.resolvent", "pairs.lifted", "solvers.minimize", "solvers.newton"):
        m[f"{name}_calls"] = calls.get(name, 0)
        m[f"{name}_s"] = total.get(name, 0.0)
        m[f"{name}_self_s"] = self_time.get(name, 0.0)
    for name in ("flow.resolvent", "solvers.minimize", "solvers.newton"):
        m[f"{name}_iterations"] = iters.get(name, 0)
    for name, what in (("solvers.minimize", "converged"), ("solvers.newton", "converged"), ("solvers.snap", "improved")):
        m[f"{name}_{what}_share"] = outcomes.get(name, 0) / max(calls.get(name, 0), 1)
    m["pairs.lifted_ms_p50"] = statistics.median(lifted_ms) if lifted_ms else 0.0
    for name in ("pairs.fiber_slice", "solvers.snap", "solvers.pdhg"):
        m[f"{name}_calls"] = calls.get(name, 0)
        m[f"{name}_s"] = total.get(name, 0.0)
    m["energy.grad_evals"] = calls.get("energy.grad", 0)
    m["energy.value_evals"] = calls.get("energy.value", 0)
    m["energy.eval_s"] = total.get("energy.grad", 0.0) + total.get("energy.value", 0.0)
    # share of the invocations' time that a layer below the CLI accounts for
    m["trace.layer_share"] = 1.0 - self_time.get("cli", 0.0) / max(total.get("cli", 0.0), 1e-300)
    return m
