"""In-memory spans around the public functions of thermopt's modules.

The tracer wraps, from outside the package, every public function of the
layer modules plus ``scipy.sparse.linalg.splu``/``spsolve``. A wrapper is
installed under every name that refers to the function in any thermopt
module, because ``from .assembly import solve_spd`` binds a second name
that patching ``thermopt.assembly`` alone would miss. Each call records a
span ``[name, start, end, parent]``; a layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("mesh", "config", "assembly", "state", "control", "transform", "reporting")
SCIPY_SOLVERS = ("splu", "spsolve")
ROOT_SPAN = "cli.main"

# Metric group -> span names. Only the outermost span of a group counts, so
# solve_spd calling solve_sparse is one sparse solve, not two.
GROUPS = {
    "mesh.build": ("mesh.build_rectangle_mesh", "mesh.refine_uniform",
                   "mesh.read_mesh_file"),
    "mesh.validate": ("mesh.validate",),
    "config.build_problem": ("config.build_problem",),
    "assembly.stiffness": ("assembly.assemble_weighted_stiffness",),
    "assembly.joule": ("assembly.assemble_joule_rhs_weak",
                       "assembly.assemble_joule_rhs_direct"),
    "assembly.robin": ("assembly.assemble_robin",),
    "assembly.dirichlet": ("assembly.apply_dirichlet",),
    "assembly.facet_integral": ("assembly.facet_integral",),
    "assembly.sparse_solve": ("assembly.solve_spd", "assembly.solve_sparse"),
    "assembly.factorization": ("scipy.splu", "scipy.spsolve"),
    "state.solve": ("state.solve_state",),
    "state.weak_residual": ("state.weak_residual",),
    "control.optimize": ("control.optimize",),
    "control.adjoint": ("control.solve_adjoint",),
    "transform.certificate": ("transform.compute_certificate",),
    "transform.poincare": ("transform.estimate_poincare",),
    "reporting.vtk": ("reporting.write_vtk",),
    "reporting.report": ("reporting.write_report",),
}

# Per-layer metrics, in the order they are reported, with their units.
METRICS = {
    "mesh.build_s": "s", "mesh.validate_s": "s",
    "config.build_problem_s": "s",
    "assembly.stiffness_calls": "count", "assembly.stiffness_s": "s",
    "assembly.joule_calls": "count", "assembly.joule_s": "s",
    "assembly.robin_calls": "count", "assembly.robin_s": "s",
    "assembly.dirichlet_s": "s",
    "assembly.facet_integral_calls": "count",
    "assembly.sparse_solve_calls": "count", "assembly.sparse_solve_s": "s",
    "assembly.factorizations": "count",
    "state.solve_calls": "count", "state.solve_self_s": "s",
    "state.picard_iters": "count", "state.weak_residual_s": "s",
    "control.outer_iters": "count", "control.adjoint_calls": "count",
    "control.adjoint_s": "s", "control.trial_solves": "count",
    "control.trial_accept_ratio": "ratio", "control.optimize_self_s": "s",
    "transform.certificate_s": "s", "transform.poincare_s": "s",
    "transform.eps_halvings": "count",
    "reporting.vtk_s": "s", "reporting.vtk_bytes": "bytes", "reporting.report_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("scipy",)},
    "trace.unaccounted_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "proc.cpu_s_per_op": "s",
    "proc.op_wall_s_p50": "s",
    "proc.kernel_s": "s",
}


def _count_picard(counters, args, kwargs, result):
    counters["state.picard_iters"] += getattr(result, "iterations", 0)


def _count_outer(counters, args, kwargs, result):
    counters["control.outer_iters"] += len(getattr(result, "history", ()))


def _count_halvings(counters, args, kwargs, result):
    notes = getattr(result, "notes", ())
    counters["transform.eps_halvings"] += sum("eps halved" in n for n in notes)


def _count_vtk_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if isinstance(path, str) and os.path.isfile(path):
        counters["reporting.vtk_bytes"] += os.path.getsize(path)


# Counts read from a function's arguments or result after it returns.
RESULT_HOOKS = {
    "state.solve_state": _count_picard,
    "control.optimize": _count_outer,
    "transform.compute_certificate": _count_halvings,
    "reporting.write_vtk": _count_vtk_bytes,
}


class Tracer:
    """Records spans while installed; `install()` and `uninstall()` patch and
    restore the module namespaces."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous op."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        hook = RESULT_HOOKS.get(name)
        if hook is not None:
            hook(self.counters, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_solver(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.split(".")[0] != "thermopt":
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"thermopt.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for attr in SCIPY_SOLVERS:
            fn = getattr(spla, attr)
            wrappers[fn] = self._wrap_solver(f"scipy.{attr}", fn)
            self._patch(spla, attr, wrappers[fn])
        for modname, module in list(sys.modules.items()):
            if modname != "thermopt" and not modname.startswith("thermopt."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _patch(self, namespace, attr, wrapper) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)


def op_metrics(spans: list[list], counters: dict) -> dict:
    """Per-layer metrics of one traced op, whose root span is ROOT_SPAN."""
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    children = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]
            children[p].append(i)
    self_t = [d - c for d, c in zip(dur, covered)]

    def outermost(group):
        members = set(GROUPS[group])
        found = []
        for i, name in enumerate(names):
            if name not in members:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in members:
                p = parents[p]
            if p < 0:
                found.append(i)
        return found

    calls = {g: outermost(g) for g in GROUPS}

    def count(group):
        return len(calls[group])

    def seconds(group):
        return sum(dur[i] for i in calls[group])

    def own_layer_time(i):
        layer = names[i].split(".")[0]
        return self_t[i] + sum(own_layer_time(c) for c in children[i]
                               if names[c].split(".")[0] == layer)

    m = {
        "mesh.build_s": seconds("mesh.build"),
        "mesh.validate_s": seconds("mesh.validate"),
        "config.build_problem_s": sum(own_layer_time(i)
                                      for i in calls["config.build_problem"]),
        "assembly.stiffness_calls": count("assembly.stiffness"),
        "assembly.stiffness_s": seconds("assembly.stiffness"),
        "assembly.joule_calls": count("assembly.joule"),
        "assembly.joule_s": seconds("assembly.joule"),
        "assembly.robin_calls": count("assembly.robin"),
        "assembly.robin_s": seconds("assembly.robin"),
        "assembly.dirichlet_s": seconds("assembly.dirichlet"),
        "assembly.facet_integral_calls": count("assembly.facet_integral"),
        "assembly.sparse_solve_calls": count("assembly.sparse_solve"),
        "assembly.sparse_solve_s": seconds("assembly.sparse_solve"),
        "assembly.factorizations": count("assembly.factorization"),
        "state.solve_calls": count("state.solve"),
        "state.solve_self_s": sum(self_t[i] for i in calls["state.solve"]),
        "state.weak_residual_s": seconds("state.weak_residual"),
        "control.adjoint_calls": count("control.adjoint"),
        "control.adjoint_s": seconds("control.adjoint"),
        "control.optimize_self_s": sum(self_t[i] for i in calls["control.optimize"]),
        "transform.certificate_s": seconds("transform.certificate"),
        "transform.poincare_s": seconds("transform.poincare"),
        "reporting.vtk_s": seconds("reporting.vtk"),
        "reporting.report_s": seconds("reporting.report"),
        **counters,
    }
    trials, kept = _trial_solves(names, parents, calls["control.optimize"])
    m["control.trial_solves"] = trials
    m["control.trial_accept_ratio"] = kept / trials if trials else 1.0
    for layer in LAYERS + ("scipy",):
        m[f"{layer}.self_s"] = sum(t for name, t in zip(names, self_t)
                                   if name.split(".")[0] == layer)
    m["trace.unaccounted_s"] = sum(t for name, t in zip(names, self_t)
                                   if name == ROOT_SPAN)
    m["trace.op_s"] = sum(d for name, d in zip(names, dur) if name == ROOT_SPAN)
    return m


def _trial_solves(names, parents, optimize_spans):
    """State solves at a new control inside `optimize`, and how many were kept.

    Every state solve after an optimizer's first one evaluates a new control;
    the optimizer keeps it when the next solve it makes is an adjoint solve.
    The sweep keeps every one; the Armijo line search discards rejected trials.
    """
    trials = kept = 0
    for root in optimize_spans:
        seq = []
        for i in range(root + 1, len(names)):
            p = parents[i]
            while p >= 0 and p != root and names[p] not in (
                    "state.solve_state", "control.solve_adjoint"):
                p = parents[p]
            if p == root and names[i] in ("state.solve_state", "control.solve_adjoint"):
                seq.append(names[i])
        solves = [j for j, name in enumerate(seq) if name == "state.solve_state"]
        for j in solves[1:]:
            trials += 1
            kept += j + 1 < len(seq) and seq[j + 1] == "control.solve_adjoint"
    return trials, kept


def summarize(per_op: list[dict], traced_s: list[float], untraced_s: list[float],
              untraced_cpu_s: list[float]) -> dict:
    """Mean of each per-op metric over the traced ops, so that layer self
    times add up to the mean traced op time, plus the tracing overhead."""
    out = {name: statistics.fmean(op.get(name, 0) for op in per_op) if per_op else 0.0
           for name in METRICS}
    out["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s)
                               if traced_s and untraced_s else 0.0)
    out["proc.cpu_s_per_op"] = (statistics.median(untraced_cpu_s)
                                if untraced_cpu_s else 0.0)
    return out
