"""Timing wrappers around the public functions of each willmore module.

The wrappers live in the benchmark, not in the program: `Tracer.install`
replaces each function or method listed in SPANS with a wrapper that counts
calls and measures self time (the span's duration minus the time covered by
the spans it caused).  Names rebound by `from .x import y` are found by
identity in every loaded `willmore` module and replaced too, so a call
through `willmore.cli.solve_iwasawa_float` is timed like one through
`willmore.iwasawa.solve_iwasawa_float`.

Spans are aggregated in memory per name (calls, self time, calls that
raised); one span name also keeps every duration, for its percentiles.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# Span name, module, attribute (Class.method for methods), statistics the
# benchmark reports for it.  A span whose attribute ends in "()" times the
# callable that the named factory returns instead of the factory itself.
SPANS = (
    ("potentials.load_potential", "willmore.potentials", "load_potential", ("self_s",)),
    ("frames.integrate_frame", "willmore.frames", "integrate_frame", ("self_s",)),
    ("groups.get_context", "willmore.groups", "get_context", ("self_s",)),
    ("scalars.BiPoly.evaluate_float", "willmore.scalars", "BiPoly.evaluate_float",
     ("calls", "self_s")),
    ("scalars.RationalFn.reduced", "willmore.scalars", "RationalFn.reduced",
     ("calls", "self_s")),
    ("scalars.RationalFn.evaluate", "willmore.scalars", "RationalFn.evaluate",
     ("calls", "self_s")),
    ("loops.LoopMatrix.matmul", "willmore.loops", "LoopMatrix.__matmul__",
     ("calls", "self_s")),
    ("loops.LoopMatrix.to_float", "willmore.loops", "LoopMatrix.to_float",
     ("calls", "self_s")),
    ("loops.LoopMatrix.evaluate", "willmore.loops", "LoopMatrix.evaluate",
     ("calls", "self_s")),
    ("groups.iso_P", "willmore.groups", "GroupContext.iso_P", ("calls", "self_s")),
    ("groups.iso_P_indexwise", "willmore.groups", "GroupContext.iso_P_indexwise",
     ("calls", "self_s")),
    ("groups.check_membership", "willmore.groups", "GroupContext.check_membership",
     ("calls", "self_s")),
    ("iwasawa.solve_iwasawa_float", "willmore.iwasawa", "solve_iwasawa_float",
     ("calls", "self_s", "p50_us", "p99_us", "raised", "per_vertex")),
    ("iwasawa.solve_iwasawa_exact", "willmore.iwasawa", "solve_iwasawa_exact", ("self_s",)),
    ("iwasawa.assemble_frame", "willmore.iwasawa", "assemble_frame", ("calls", "self_s")),
    ("iwasawa.maurer_cartan", "willmore.iwasawa", "maurer_cartan", ("calls", "self_s")),
    ("surfaces.lift_columns_float", "willmore.surfaces", "lift_columns_float",
     ("calls", "self_s")),
    ("surfaces.SurfacePair.values", "willmore.surfaces", "SurfacePair.values",
     ("calls", "self_s")),
    ("surfaces.extract_pair", "willmore.surfaces", "extract_pair", ("self_s",)),
    ("surfaces.induced_metric", "willmore.surfaces", "induced_metric", ("self_s",)),
    ("surfaces.metric_eval", "willmore.surfaces", "induced_metric()", ("calls", "self_s")),
    ("surfaces.reference_lift", "willmore.surfaces", "reference_lift_eval()",
     ("calls", "self_s")),
    ("surfaces.branch_analysis", "willmore.surfaces", "branch_analysis", ("self_s",)),
    ("surfaces.isotropy_check", "willmore.surfaces", "isotropy_check", ("calls", "self_s")),
    ("surfaces.degeneracy_scan", "willmore.surfaces", "degeneracy_scan", ("self_s",)),
    ("verify.run_suite", "willmore.verify", "run_suite", ("self_s",)),
    ("cli.main", "willmore.cli", "main", ("self_s",)),
)

# Spans whose every duration is kept, for percentiles.
KEEP_DURATIONS = frozenset(name for name, _, _, stats in SPANS if "p50_us" in stats)


class Tracer:
    """Per-name span statistics for one process; install once, then snapshot."""

    def __init__(self):
        self.stats = {}      # span name -> [calls, self seconds, calls that raised]
        self.durations = {}  # span name -> list of inclusive durations
        self._stack = []     # per open span: seconds covered by its children
        self._originals = {}  # id(original) -> original, for the stale-binding scan

    def wrap(self, name, fn):
        """Return fn wrapped in a span called name."""
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        durations = self.durations.setdefault(name, []) if name in KEEP_DURATIONS else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if durations is not None:
                    durations.append(dt)

        return span

    def _wrap_factory(self, name, factory):
        """Wrap factory so that the callable it returns is timed as name."""
        @functools.wraps(factory)
        def make(*args, **kwargs):
            out = factory(*args, **kwargs)
            return self.wrap(name, out) if callable(out) else out

        return make

    def install(self):
        """Wrap every SPANS target and rebind every alias of it."""
        outermost = {}  # id(original) -> outermost wrapper, for module aliases
        origin = {}     # id(wrapper) -> the original function it wraps
        # Import everything first, so every alias is bound to an original.
        for _, modname, _, _ in SPANS:
            importlib.import_module(modname)
        for name, modname, attr, _ in SPANS:
            factory = attr.endswith("()")
            *outer, leaf = (attr[:-2] if factory else attr).split(".")
            owner = importlib.import_module(modname)
            for part in outer:
                owner = getattr(owner, part)
            is_class = isinstance(owner, type)
            current = owner.__dict__[leaf] if is_class else getattr(owner, leaf)
            new = (self._wrap_factory if factory else self.wrap)(name, current)
            setattr(owner, leaf, new)
            if not is_class:
                original = origin.get(id(current), current)
                self._originals[id(original)] = original
                outermost[id(original)] = new
                origin[id(new)] = original
        for mod in _willmore_modules():
            for key, value in list(vars(mod).items()):
                if self._originals.get(id(value)) is value:
                    setattr(mod, key, outermost[id(value)])

    def stale_bindings(self):
        """Module globals that still hold an unwrapped target (should be none)."""
        out = []
        for mod in _willmore_modules():
            for key, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    out.append("%s.%s" % (mod.__name__, key))
        return sorted(out)

    def self_total(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def snapshot(self) -> dict:
        """Calls, self time, raised count and duration percentiles per span."""
        out = {}
        for name, (calls, self_s, raised) in self.stats.items():
            entry = {"calls": calls, "self_s": self_s, "raised": raised}
            durs = self.durations.get(name)
            if durs is not None:
                entry["p50_us"] = 1e6 * _nearest_rank(durs, 0.50)
                entry["p99_us"] = 1e6 * _nearest_rank(durs, 0.99)
            out[name] = entry
        return out


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _willmore_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "willmore" or n.startswith("willmore."))]
