"""Per-layer spans taken from outside the program.

`Tracer.install` replaces each traced function at every place it is looked
up: slcheck modules bind names with `from .x import y`, so `m_matrix` is
looked up as `slcheck.checkers.m_matrix`, `check_slc` as
`slcheck.family.check_slc` and `slcheck.cli.check_slc`, and so on.  Methods
are replaced on their class.  `Tracer.restore` puts every original binding
back.

A span is (name, start, end, parent span, op id), held in flat arrays in
memory and written out once, after the run.  Counts (pairs, points,
terms, ...) are taken from the same wrappers, at the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A traced function: span name, defining module, attribute path."""

    name: str
    module: str
    attr: str
    counter: Callable | None = None


def _verdict_name(v) -> str:
    return type(v).__name__


def _count_nlc(tr: Tracer, args, result) -> None:
    n = args[0].n
    if _verdict_name(result) == "Holds":
        pairs = result.certificate.pairs_checked
    else:
        w = result.witness
        pairs = (w.s_mask << n) + w.t_mask + 1
    tr.add("checkers.check_nlc.pairs", pairs)


def _count_slc(tr: Tracer, args, result) -> None:
    tr.add("checkers.check_slc.derivatives", len(result.subsets))


def _count_trivial(tr: Tracer, args, result) -> None:
    tr.add("checkers.trivial_log_concavity.hits", result is not None)


def _count_dominance(tr: Tracer, args, result) -> None:
    tr.add("checkers.certify_log_concavity_dominance.hits", result is not None)


def _count_sampled(tr: Tracer, args, result) -> None:
    tr.add("checkers.check_log_concavity_sampled.violations", _verdict_name(result) == "Violated")


def _count_log_hessian_many(tr: Tracer, args, result) -> None:
    points = len(args[1])
    tr.add("calculus.log_hessian_many.points", points)
    if tr.inside("checkers.check_log_concavity_sampled"):
        tr.add("checkers.check_log_concavity_sampled.points", points)


def _count_log_hessian(tr: Tracer, args, result) -> None:
    if tr.inside("checkers.check_log_concavity_sampled"):
        tr.add("checkers.check_log_concavity_sampled.log_hessian_calls", 1)


def _count_eval_many(tr: Tracer, args, result) -> None:
    # Fraction keeps its numerator in a slot; reading it directly keeps this
    # count, which runs outside any span, from dominating the overhead.
    nonzero = sum(1 for c in args[0].coeffs if c._numerator)
    tr.add("calculus.eval_many.terms", nonzero * len(args[1]))


def _count_eigvalsh(tr: Tracer, args, result) -> None:
    a = args[0]
    tr.add("numpy.linalg.eigvalsh.matrices", a.shape[0] if np.ndim(a) == 3 else 1)


def _count_load(tr: Tracer, args, result) -> None:
    tr.add("distfile.load_distribution.bytes", os.path.getsize(args[0]))


def _count_emit(tr: Tracer, args, result) -> None:
    tr.add("family.emit_region_tables.bytes", sum(os.path.getsize(p) for p in result))


TARGETS = (
    Target("cli.main", "slcheck.cli", "main"),
    Target("distfile.load_distribution", "slcheck.distfile", "load_distribution", _count_load),
    Target("family.sweep", "slcheck.family", "sweep"),
    Target("family.make_family", "slcheck.family", "make_family"),
    Target("family.emit_region_tables", "slcheck.family", "emit_region_tables", _count_emit),
    Target("checkers.check_nlc", "slcheck.checkers", "check_nlc", _count_nlc),
    Target("checkers.check_slc", "slcheck.checkers", "check_slc", _count_slc),
    Target("checkers.trivial_log_concavity", "slcheck.checkers", "trivial_log_concavity",
           _count_trivial),
    Target("checkers.certify_log_concavity_dominance", "slcheck.checkers",
           "certify_log_concavity_dominance", _count_dominance),
    Target("checkers.check_log_concavity_sampled", "slcheck.checkers",
           "check_log_concavity_sampled", _count_sampled),
    Target("calculus.m_matrix", "slcheck.calculus", "m_matrix"),
    Target("calculus.log_hessian_many", "slcheck.calculus", "log_hessian_many",
           _count_log_hessian_many),
    Target("calculus.eval_many", "slcheck.calculus", "eval_many", _count_eval_many),
    Target("calculus.log_hessian", "slcheck.calculus", "log_hessian", _count_log_hessian),
    Target("linalg.eigen_sym", "slcheck.linalg", "eigen_sym"),
    Target("poly.sparse_from_subset", "slcheck.poly", "sparse_from_subset"),
    Target("poly.SparsePoly.mul", "slcheck.poly", "SparsePoly.__mul__"),
    Target("poly.SubsetPoly.derivative_subset", "slcheck.poly", "SubsetPoly.derivative_subset"),
    Target("poly.SubsetPoly.derivative", "slcheck.poly", "SubsetPoly.derivative"),
    Target("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh", _count_eigvalsh),
)


def _lookup_sites(target: Target) -> list[tuple[object, str]]:
    """Every (namespace, attribute) through which the program reaches the target.

    A method is reached through its class.  A function is reached through
    each module of the package that binds it, under any name.
    """
    owner = sys.modules[target.module]
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        return [(owner, attr)]
    original = getattr(owner, attr)
    sites = [(owner, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == "slcheck" or mod_name.startswith("slcheck.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, name))
    return sites


class Tracer:
    """Records spans and counts while installed; restores the program after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._open: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ----- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._open.append(0)
        return self.names.index(name)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return name in self.names and self._open[self.names.index(name)] > 0

    def wrap(self, nid: int, fn: Callable, counter: Callable | None) -> Callable:
        clock = time.perf_counter
        stack, opened = self._stack, self._open
        names, starts, ends = self.name, self.start, self.end
        parents, ops, outers = self.parent, self.op, self.outer

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            outers.append(opened[nid] == 0)
            ends.append(0.0)
            opened[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                opened[nid] -= 1
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # ----- installing ---------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            sites = _lookup_sites(target)
            original = getattr(*sites[0])
            wrapper = self.wrap(self.name_id(target.name), original, target.counter)
            for owner, attr in sites:
                self._patched.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ----- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds s, and self seconds self_s."""
        a = self.arrays()
        self_s = self_times(a["start"], a["end"], a["parent"])
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"][a["outer"]], weights=(a["end"] - a["start"])[a["outer"]],
                           minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest, so the children of a span are
    disjoint intervals inside it and the covered time is their sum.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered
