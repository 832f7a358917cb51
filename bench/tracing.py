"""Spans around the public functions of each trisplit module.

A span has a name, a start, an end and a parent span.  Spans live in flat
in-memory arrays while the run goes on and are written to one ``.npz`` file
when it ends.  The root span of each round is that round's identifier: every
span of the round descends from it.

Functions are wrapped wherever they are bound in a trisplit module, so a call
through a ``from trisplit.x import f`` name is traced as well as a call
through ``trisplit.x.f``.  The benchmark itself calls the program only through
module attributes, for the same reason.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, attribute) of every traced callable, by layer.
TRACED = (
    ("cli", "main"),
    ("harness", "verify_duhamel"),
    ("harness", "certify_algebra"),
    ("harness", "sample_constrained_triple"),
    ("harness", "run_convergence"),
    ("lie_symbolic", "splitting_taylor"),
    ("lie_symbolic", "reduce_mod_condition"),
    ("matrix_core", "solve_second_order_constraint"),
    ("matrix_core", "expm"),
    ("matrix_core", "op_norm"),
    ("splitting", "triple_splitting_error"),
    ("splitting", "apply_splitting"),
    ("duhamel", "duhamel_error"),
    ("duhamel", "error_bound"),
    ("duhamel", "Propagator"),
    ("schrodinger", "evolve"),
)


def _per_layer():
    """The per-layer metrics of BENCHMARK.json, (name, unit), in its order.

    Each value is computed from the metric's name: ``<layer>.<function>`` and
    a suffix ``calls``, ``s`` or ``self_s``, with the special forms handled in
    ``Tracer.metrics``.
    """
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)["per_layer"])


PER_LAYER = _per_layer()


def rebind(original, replacement):
    """Bind ``replacement`` wherever ``original`` is bound in a trisplit
    module; returns the (module, name, original) triples that undo it."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "trisplit":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` swap the
    wrappers in and out of every trisplit module namespace."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.names = array("q")
        self.labels = []
        self._ids = {}
        self._stack = [-1]
        self._undo = []
        self.rounds = 0
        #: evolve steps by grid size, the exact count of split steps taken
        self.steps = {}

    def _id(self, label: str) -> int:
        ident = self._ids.get(label)
        if ident is None:
            ident = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return ident

    def _open(self, ident: int) -> int:
        index = len(self.starts)
        self.names.append(ident)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def span(self, fn, label):
        ident = self._id(label)

        def traced(*args, **kwargs):
            index = self._open(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _cli_main(self, fn):
        def traced(argv=None):
            index = self._open(self._id(f"cli.{argv[0]}"))
            try:
                return fn(argv)
            finally:
                self._close(index)

        return traced

    def _evolve(self, fn):
        def traced(u, v, horizon, steps, *args, **kwargs):
            points = u.grid.points
            index = self._open(self._id(f"schrodinger.evolve.{points}pts"))
            try:
                return fn(u, v, horizon, steps, *args, **kwargs)
            finally:
                self._close(index)
                self.steps[points] = self.steps.get(points, 0) + steps

        return traced

    def install(self) -> None:
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"trisplit.{module_name}"], attr, None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            if module_name == "cli":
                wrapper = self._cli_main(original)
            elif module_name == "schrodinger":
                wrapper = self._evolve(original)
            elif isinstance(original, type):
                # a class is traced at its evaluation, ``__call__``
                call = original.__call__
                original.__call__ = self.span(call, f"{module_name}.{attr}")
                self._undo.append((original, "__call__", call))
                continue
            else:
                wrapper = self.span(original, f"{module_name}.{attr}")
            self._undo.extend(rebind(original, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def round(self, run):
        """Run ``run()`` under a root span; returns its result."""
        self.rounds += 1
        index = self._open(self._id("round"))
        try:
            return run()
        finally:
            self._close(index)

    # --- results ------------------------------------------------------------

    def _arrays(self):
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        names = np.frombuffer(self.names, dtype=np.int64)
        return starts, ends, parents, names

    def totals(self):
        """Per label: calls, inclusive seconds and self seconds, all runs summed.

        Self time is a span's duration minus the durations of its children;
        children never overlap, since the program is single-threaded.
        """
        starts, ends, parents, names = self._arrays()
        duration = ends - starts
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - child
        width = len(self.labels)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_total = np.bincount(names, weights=own, minlength=width)
        return {
            label: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, label in enumerate(self.labels)
        }

    def metrics(self, overhead_s: float) -> dict:
        """The PER_LAYER metrics, per round (per call for the ``cli.*`` times)."""
        totals = self.totals()
        rounds = max(self.rounds, 1)
        zero = (0, 0.0, 0.0)
        evolve = [v for label, v in totals.items() if label.startswith("schrodinger.evolve.")]
        values = {}
        for name, unit in PER_LAYER:
            head, _, kind = name.rpartition(".")
            if name.startswith("cli."):
                calls, seconds, _ = totals.get(head, zero)
                value = seconds / calls if calls else 0.0
            elif name.startswith("schrodinger.evolve.us_per_step."):
                points = int(kind[: -len("pts")])
                seconds = totals.get(f"schrodinger.evolve.{points}pts", zero)[1]
                steps = self.steps.get(points, 0)
                value = 1e6 * seconds / steps if steps else 0.0
            elif head == "schrodinger.evolve":
                value = {
                    "calls": sum(e[0] for e in evolve) / rounds,
                    "s": sum(e[1] for e in evolve) / rounds,
                    "steps": sum(self.steps.values()) / rounds,
                }[kind]
            elif name == "trace.overhead_s":
                value = overhead_s
            else:
                calls, seconds, own = totals.get(head, zero)
                value = {"calls": calls / rounds, "s": seconds / rounds, "self_s": own / rounds}[kind]
            values[name] = {"value": value, "unit": unit}
        return values

    def dump(self, path) -> None:
        starts, ends, parents, names = self._arrays()
        np.savez(
            path,
            labels=np.array(json.dumps(self.labels)),
            name=names,
            parent=parents,
            start=starts,
            end=ends,
        )
