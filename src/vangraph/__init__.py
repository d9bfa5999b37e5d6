"""Exact character tables, vanishing classes, and prime graphs for
finite permutation groups, with a harness that mechanically verifies a
family of solvability statements over a group corpus.  The package root
exports nothing: import each name from its module."""
