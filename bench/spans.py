"""Spans around the public functions of each cayleyspec layer.

The tracer replaces a function's name in every ``cayleyspec`` module
namespace that binds it (and on the class, for methods).  Python looks
those names up at call time, so the wrapper also catches calls the
library makes to itself, e.g. ``block_diagonalize`` -> ``adjacency_matrix``
or ``certify`` -> ``verify_eigenpairs``.

Spans are aggregated as they close instead of being stored one by one: a
catalog run makes tens of thousands of calls.  Per metric group the tracer
keeps the inclusive time of outermost calls (a nested call of the same
group is not counted twice) and the self time, which is a span's duration
minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("groups", "irreps", "cayley", "spectra", "verify", "cli")

# (module, attribute, metric group); attribute "Class.method" wraps a method
TARGETS = (
    ("groups", "construct_group", "groups.construct"),
    ("groups", "is_generating_set", "groups.generating"),
    ("groups", "FiniteGroup.conjugacy_classes", "groups.classes"),
    ("groups", "conjugacy_classes", "groups.classes"),
    ("groups", "conjugation_orbits_on_k", "groups.classes"),
    ("irreps", "builtin_irreps", "irreps.builtin"),
    ("irreps", "irreps_cyclic", "irreps.builtin"),
    ("irreps", "irreps_abelian", "irreps.builtin"),
    ("irreps", "irreps_dihedral", "irreps.builtin"),
    ("irreps", "irreps_metacyclic", "irreps.builtin"),
    ("irreps", "validate_irrep_set", "irreps.validate"),
    ("irreps", "build_p_matrix", "irreps.p_matrix"),
    ("irreps", "fourier_transform", "irreps.fourier"),
    ("cayley", "adjacency_matrix", "cayley.adjacency"),
    ("cayley", "classify_connection_set", "cayley.classify"),
    ("spectra", "spectrum_normal", "spectra.formula"),
    ("spectra", "spectrum_split", "spectra.formula"),
    ("spectra", "spectrum_metacyclic", "spectra.formula"),
    ("spectra", "Spectrum.multiset", "spectra.multiset"),
    ("spectra", "cluster_eigenvalues", "spectra.multiset"),
    ("spectra", "block_diagonalize", "spectra.block_diag"),
    ("spectra", "check_split_hypotheses", "spectra.hypotheses"),
    ("verify", "verify_eigenpairs", "verify.eigenpairs"),
    ("verify", "verify_basis", "verify.basis"),
    ("verify", "certify", "verify.certify"),
    ("verify", "verify_block_reconstruction", "verify.reconstruction"),
    ("verify", "compare_spectra", "verify.compare"),
    ("cli", "main", "cli.main"),
)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


class _Frame:
    __slots__ = ("group", "start", "children", "outermost")

    def __init__(self, group, start, outermost):
        self.group = group
        self.start = start
        self.children = []
        self.outermost = outermost


class Tracer:
    """Aggregates spans per metric group, per layer and per job tag."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.inclusive = {}     # group -> seconds in outermost calls
        self.self_s = {}        # group -> seconds of self time
        self.calls = {layer: 0 for layer in LAYERS}
        self.counters = {}      # name -> number (bytes, flops, lines, ...)
        self.top_level_s = 0.0  # seconds inside any span
        self.by_tag = {}        # tag -> group -> inclusive seconds
        self.tag = None
        self._stack = []
        self._active = {}       # group -> open calls of that group
        self._peaks = set()     # counters that keep a maximum, not a sum

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)
        self._peaks.add(name)

    def enter(self, group: str) -> _Frame:
        depth = self._active.get(group, 0)
        self._active[group] = depth + 1
        frame = _Frame(group, self.clock(), depth == 0)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.group} closed out of order")
        group = frame.group
        self._active[group] -= 1
        duration = end - frame.start
        self.calls[group.split(".", 1)[0]] += 1
        self.self_s[group] = (
            self.self_s.get(group, 0.0)
            + self_time(frame.start, end, frame.children)
        )
        if frame.outermost:
            self.inclusive[group] = self.inclusive.get(group, 0.0) + duration
            if self.tag is not None:
                per_tag = self.by_tag.setdefault(self.tag, {})
                per_tag[group] = per_tag.get(group, 0.0) + duration
        if self._stack:
            self._stack[-1].children.append((frame.start, end))
        else:
            self.top_level_s += duration

    def merge(self, summary: dict) -> None:
        """Fold in a ``summary()`` taken in another process."""
        for key in ("inclusive", "self_s", "calls"):
            mine = getattr(self, key)
            for name, value in summary[key].items():
                mine[name] = mine.get(name, 0) + value
        for name, value in summary["counters"].items():
            if name in summary["peaks"]:
                self.peak(name, value)
            else:
                self.add(name, value)
        self.top_level_s += summary["top_level_s"]

    def summary(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "peaks": sorted(self._peaks),
            "top_level_s": self.top_level_s,
        }


# -- observers: counts taken at the boundary where the work happens ---------


def _vector_rows(spectrum) -> int:
    return sum(
        0 if line.eigenvectors is None else int(line.eigenvectors.shape[0])
        for line in spectrum.lines
    )


def _observe_adjacency(tracer, args, kwargs, result):
    n = result.matrix.shape[0]
    tracer.add("cayley.adjacency_bytes", 16.0 * n * n)


def _observe_formula(tracer, args, kwargs, result):
    tracer.add("spectra.lines", len(result.lines))
    tracer.add("spectra.vectors", _vector_rows(result))


def _observe_eigenpairs(tracer, args, kwargs, result):
    spectrum = args[1] if len(args) > 1 else kwargs["spectrum"]
    tracer.add("verify.residual_flops", 8.0 * result.n ** 2 * _vector_rows(spectrum))


def _observe_certify(tracer, args, kwargs, result):
    bound = result.tolerance * result.scale
    tracer.peak("verify.worst_residual_ratio", result.max_residual / bound)


OBSERVERS = {
    "cayley.adjacency": _observe_adjacency,
    "spectra.formula": _observe_formula,
    "verify.eigenpairs": _observe_eigenpairs,
    "verify.certify": _observe_certify,
}


def _wrap(tracer: Tracer, fn, group: str):
    observe = OBSERVERS.get(group)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        frame = tracer.enter(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return spanned


def install(tracer: Tracer) -> None:
    """Wrap every target in place, for the rest of the process.

    Callers must reach the targets through their modules (``cayley.
    adjacency_matrix``), not through names they imported before this call.
    """
    import cayleyspec.cli  # noqa: F401  (loads every submodule)

    namespaces = [
        vars(module) for name, module in sorted(sys.modules.items())
        if name == "cayleyspec" or name.startswith("cayleyspec.")
    ]
    for module_name, attribute, group in TARGETS:
        module = sys.modules[f"cayleyspec.{module_name}"]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            setattr(cls, method, _wrap(tracer, vars(cls)[method], group))
            continue
        original = getattr(module, attribute)
        wrapped = _wrap(tracer, original, group)
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
