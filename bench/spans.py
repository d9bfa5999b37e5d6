"""Layer spans and counters for a traced benchmark item.

``install`` wraps the public functions of each vangraph layer where
their callers look them up (``vangraph.dixon.poly_roots``, not
``vangraph.numth.poly_roots``), so a traced child records a span per
layer call and a count per cheap operation.  Spans stay in memory as
``[name, start, end, parent]`` and are summarised when the item ends.
A wrapped name that the program no longer defines is skipped, and its
metric then reads 0.
"""
from __future__ import annotations

import functools
from collections import Counter
from functools import cached_property
from time import perf_counter

# Span name -> the self-time metric it feeds.  Every span feeds exactly
# one, so the self times of one item add up to its item time.
SELF_METRIC = {
    "driver": "driver.self_s",
    "catalog.build": "catalog.build_s",
    "perms.chain": "perms.chain_s",
    "perms.enum": "perms.enum_s",
    "structure.classes": "structure.classes_s",
    "structure.report": "structure.report_s",
    "structure.p_solvable": "structure.p_solvable_s",
    "structure.minimal_normals": "structure.minimal_normals_s",
    "structure.sepsets": "structure.sepsets_s",
    "dixon.constants": "dixon.constants_s",
    "dixon.table": "dixon.table_s",
    "vanishing.report": "vanishing.report_s",
    "harness.checks": "harness.checks_s",
    "harness.check.CHK-P34": "harness.checks_s",
    "harness.report": "harness.report_s",
    "deleted.census": "deleted.census_s",
}

# Span name -> metric that takes the span's whole duration.
INCLUSIVE_METRIC = {
    "harness.check.CHK-P34": "harness.check_s.CHK-P34",
}

COUNT_METRICS = ("perms.products", "perms.sifts", "perms.groups_built",
                 "structure.normal_closures", "structure.quotients",
                 "dixon.class_planes", "dixon.split_rounds",
                 "deleted.orbits", "deleted.vectors", "caps.hits")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.input_groups: set[int] = set()
        self.opaque = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def spanned(self, name: str, fn, opaque: bool = False):
        """Wrap fn in a span.  Inside an opaque span no further spans
        open, so its whole duration is its self time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.opaque:
                return fn(*args, **kwargs)
            idx = self.open(name)
            self.opaque = opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self.opaque = False
                self.close(idx)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self) -> dict:
        """Self time per metric, inclusive times, counts, and the spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_s[SELF_METRIC[name]] += end - start - covered
            if name in INCLUSIVE_METRIC:
                inclusive[INCLUSIVE_METRIC[name]] += end - start
        return {"self_s": dict(self_s), "inclusive_s": dict(inclusive),
                "counts": {m: self.counts[m] for m in COUNT_METRICS},
                "spans": self.spans}


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping a cached
    property cached.  Missing names are skipped."""
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        return
    if isinstance(original, cached_property):
        wrapped = cached_property(make(original.func))
        wrapped.__set_name__(owner, attr)
        setattr(owner, attr, wrapped)
    else:
        setattr(owner, attr, make(original))


def install() -> Tracer:
    """Wrap every traced layer boundary; returns the recording tracer."""
    from vangraph import (caps, catalog, deleted, dixon, harness, perms,
                          structure)

    t = Tracer()

    def span(name):
        return lambda fn: t.spanned(name, fn)

    def count(name):
        return lambda fn: t.counted(name, fn)

    def tallied(name, tally):
        """A span that also tallies its result and arguments."""
        def make(fn):
            inner = t.spanned(name, fn)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                tally(result, *args)
                return result
            return wrapper
        return make

    def input_chain(fn):
        inner = t.spanned("perms.chain", fn)

        def wrapper(group):
            if id(group) in t.input_groups:
                return inner(group)
            return fn(group)
        return wrapper

    def cap_hit(fn):
        def wrapper(self, *args):
            t.counts["caps.hits"] += 1
            fn(self, *args)
        return wrapper

    catalog_build = tallied(
        "catalog.build", lambda group, *_: t.input_groups.add(id(group)))
    for module in (catalog, harness):
        _patch(module, "catalog_group", catalog_build)
    _patch(perms.PermGroup, "_chain", input_chain)
    _patch(perms.PermGroup, "_enumeration", span("perms.enum"))
    _patch(perms.Perm, "__mul__", count("perms.products"))
    _patch(perms.PermGroup, "__contains__", count("perms.sifts"))
    _patch(perms.PermGroup, "__init__", count("perms.groups_built"))
    for module in (structure, harness):
        _patch(module, "conjugacy_classes", span("structure.classes"))
        _patch(module, "normal_closure", count("structure.normal_closures"))
    _patch(harness, "structure_report", span("structure.report"))
    # The p-solvability walk (quotients, their classes and minimal
    # normals) counts as one unit: the structure-from-table change
    # replaces it whole.
    _patch(structure, "is_p_solvable",
           lambda fn: t.spanned("structure.p_solvable", fn, opaque=True))
    _patch(structure.GroupStructure, "minimal_normal_subgroups",
           span("structure.minimal_normals"))
    _patch(structure, "quotient_group", count("structure.quotients"))
    _patch(structure, "separating_subsets", span("structure.sepsets"))
    _patch(dixon, "class_constants", tallied(
        "dixon.constants",
        lambda consts, *_: t.counts.update({"dixon.class_planes":
                                            consts.count})))
    _patch(dixon, "poly_roots", count("dixon.split_rounds"))
    _patch(harness, "character_table", span("dixon.table"))
    _patch(harness, "vanishing_report", span("vanishing.report"))
    _patch(harness, "check_theorems", span("harness.checks"))
    _patch(harness, "check_almost_simple_edges",
           span("harness.check.CHK-P34"))
    _patch(harness, "report_dict", span("harness.report"))
    _patch(deleted, "orbit_census", tallied(
        "deleted.census",
        lambda out, n, q, *_: t.counts.update({
            "deleted.vectors": q ** (n - 1),
            "deleted.orbits": sum(c for _, c in out[0])})))
    caps.CapExceeded.__init__ = cap_hit(caps.CapExceeded.__init__)
    return t
