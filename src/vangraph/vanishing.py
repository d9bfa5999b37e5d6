"""Vanishing conjugacy classes and class-size prime graphs.

A class is vanishing when some irreducible character is exactly zero on
it (an exact cyclotomic test, never a numeric threshold).  From the
multiset of class sizes we build two graphs on primes: vertices are the
primes dividing some size in the chosen multiset, and an edge joins p
and q when a single size is divisible by pq.  The plain graph uses all
class sizes, the vanishing graph only the vanishing ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dixon import CharacterTable
from .numth import prime_divisors


@dataclass(frozen=True)
class PrimeGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def has_edge(self, p: int, q: int) -> bool:
        a, b = min(p, q), max(p, q)
        return (a, b) in self.edges

    def non_edges(self, vertices) -> list[tuple[int, int]]:
        """Pairs p < q of the given vertices that no edge joins."""
        vs = sorted(vertices)
        return [(p, q) for i, p in enumerate(vs) for q in vs[i + 1:]
                if not self.has_edge(p, q)]


def prime_graph(sizes) -> PrimeGraph:
    """Graph on primes dividing the given class sizes; {p,q} is an edge
    iff pq divides one single size."""
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for s in sizes:
        ps = prime_divisors(s)
        vertices.update(ps)
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                edges.add((p, q))
    return PrimeGraph(tuple(sorted(vertices)), tuple(sorted(edges)))


def vanishing_class_indices(table: CharacterTable) -> tuple[int, ...]:
    """Classes on which some irreducible character vanishes.  The
    identity class never qualifies: degrees are positive integers."""
    return tuple(j for j in range(table.classes.count)
                 if any(row[j].is_zero() for row in table.values))


@dataclass(frozen=True)
class VanishingReport:
    vanishing_classes: tuple[int, ...]
    graph: PrimeGraph              # on every class size
    vanishing_graph: PrimeGraph    # on the vanishing class sizes

    @property
    def size_primes(self) -> tuple[int, ...]:
        return self.graph.vertices

    @property
    def vanishing_size_primes(self) -> tuple[int, ...]:
        return self.vanishing_graph.vertices


def vanishing_report(table: CharacterTable) -> VanishingReport:
    sizes = table.classes.sizes
    vc = vanishing_class_indices(table)
    return VanishingReport(vc, prime_graph(sizes),
                           prime_graph(sizes[j] for j in vc))


def dot_text(g: PrimeGraph, bold_edges=()) -> str:
    """Byte-stable DOT rendering: vertices ascending, edges sorted; the
    empty graph collapses to a bare block."""
    if not g.vertices:
        return "graph G {}\n"
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f"  {v};")
    bold = {tuple(sorted(e)) for e in bold_edges}
    for p, q in g.edges:
        suffix = " [style=bold]" if (p, q) in bold else ""
        lines.append(f"  {p} -- {q}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
