"""Span tracer that wraps rmtlab's module functions from outside.

The package imports functions by name across modules (`experiments` binds
`eigenvalues_sym`, `graphenergy` binds `counter_uniforms`, ...), so wrapping
a function means rebinding every `rmtlab.*` module attribute that holds it.
`Tracer.uninstall` puts every original back.

A span is (id, name, start, end, parent id, thread id).  A span opened on a
thread with no open span of its own (a replicate worker) takes the open
`experiments.run_experiment` span as its parent.  Spans stay in memory and
are reduced to per-layer numbers by `layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

MODULES = ("cli", "experiments", "ensemble", "spectral", "laws", "walks",
           "graphenergy")

# Private hook wrapped in addition to the public functions: it is the
# replicate phase.  Its duration is recorded (not as a span, so that replicate
# spans on worker threads stay children of run_experiment), and wrapping its
# `fn` argument gives one span per replicate.
REPLICATE_MAP = "_map_replicates"
REPLICATE_SPAN = "experiments.replicate"
RUN_SPAN = "experiments.run_experiment"


def traced_functions(package) -> dict[str, object]:
    """Public functions defined in each traced module, by 'module.name'."""
    found = {}
    for mod_name in MODULES:
        mod = sys.modules[f"{package.__name__}.{mod_name}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name == REPLICATE_MAP)):
                found[f"{mod_name}.{name}"] = obj
    return found


class Tracer:
    """Installs span-recording wrappers into rmtlab and removes them."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.eig_orders: list[int] = []  # order n of each eigenvalues_sym call
        self.phases: list[float] = []  # seconds of each replicate phase
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_span = None
        self._rebound: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in traced_functions(self.package).items()}
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        if name == f"experiments.{REPLICATE_MAP}":
            @functools.wraps(fn)
            def phase(rep_fn, replicates):
                start = time.perf_counter()
                try:
                    return fn(tracer._replicate_fn(rep_fn), replicates)
                finally:
                    tracer.phases.append(time.perf_counter() - start)
            return phase
        if name == "spectral.eigenvalues_sym":
            @functools.wraps(fn)
            def eig(*args, **kwargs):
                tracer.eig_orders.append(
                    len(args[0]) if args else len(kwargs["M"]))
                return tracer._span(name, fn, args, kwargs)
            return eig

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _replicate_fn(self, rep_fn):
        @functools.wraps(rep_fn)
        def replicate(i):
            return self._span(REPLICATE_SPAN, rep_fn, (i,), {})
        return replicate

    def _span(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._run_span
        span_id = next(self._ids)
        stack.append(span_id)
        is_run = name == RUN_SPAN
        if is_run:
            outer_run, self._run_span = self._run_span, span_id
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_run:
                self._run_span = outer_run
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident()))


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds (outermost spans) and self seconds.

    Busy time sums span durations over threads, skipping spans nested in a
    span of the same name.  Self time is a span's duration minus the part
    of it that its child spans cover.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    table: dict[str, dict] = {}
    for span_id, name, start, end, parent, _ in spans:
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(span_id, ()),
                                                  start, end)
        anc = by_id.get(parent)
        while anc is not None and anc[1] != name:
            anc = by_id.get(anc[4])
        if anc is None:
            row["s"] += end - start
    return table


def graph_solves(spans) -> int:
    """Spectral calls made under a graphenergy span."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for s in spans:
        if not s[1].startswith("spectral."):
            continue
        anc = by_id.get(s[4])
        while anc is not None and not anc[1].startswith("graphenergy."):
            anc = by_id.get(anc[4])
        count += anc is not None
    return count


ANALYSIS = ("spectral.esd", "spectral.ks_distance", "spectral.empirical_moment",
            "spectral.stieltjes_empirical")
SEMICIRCLE = ("laws.semicircle_density", "laws.semicircle_cdf",
              "laws.semicircle_moment", "laws.semicircle_abs_mean",
              "laws.semicircle_stieltjes")
BUSY = ("experiments.run_experiment", "ensemble.sample_matrix",
        "ensemble.counter_uniforms", "ensemble.scale_matrix",
        "spectral.eigenvalues_sym", "spectral.singular_values",
        "spectral.spectrum_to_csv", "laws.pseudo_char",
        "laws.find_negativity_witness", "laws.hankel_report",
        "walks.limit_gamma_walks", "walks.enumerate_shapes",
        "walks.good_shape_count", "walks.shapes_to_csv",
        "graphenergy.sample_graph", "graphenergy.graph_energy",
        "graphenergy.energy_decomposition_check", "graphenergy.kyfan_check")
CALLS = ("ensemble.sample_matrix", "spectral.eigenvalues_sym",
         "spectral.singular_values", "laws.pseudo_char",
         "walks.limit_gamma_walks", "walks.enumerate_shapes")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, zero for layers that did not run.

    `<module>.<function>.s` is busy time, `.calls` a call count, and
    `<module>.self_s` the summed self time of the module's spans.
    """
    table = span_table(tracer.spans)

    def field(name, key):
        return table.get(name, {}).get(key, 0)

    def module_self(module):
        return sum(row["self_s"] for name, row in table.items()
                   if name.startswith(module + "."))

    phase_s = sum(tracer.phases)
    out = {
        "cli.self_s": module_self("cli"),
        "experiments.self_s": module_self("experiments"),
        "experiments.replicate_overlap":
            field(REPLICATE_SPAN, "s") / phase_s if phase_s else 0.0,
        "ensemble.fill_s": field("ensemble.sample_matrix", "self_s"),
        "spectral.eigenvalues_sym.flops_computed":
            sum(4 * n**3 // 3 for n in tracer.eig_orders),
        "spectral.analysis_s": sum(field(n, "s") for n in ANALYSIS),
        "laws.semicircle_s": sum(field(n, "s") for n in SEMICIRCLE),
        "graphenergy.solves": graph_solves(tracer.spans),
    }
    out.update({f"{name}.s": field(name, "s") for name in BUSY})
    out.update({f"{name}.calls": field(name, "calls") for name in CALLS})
    return out
