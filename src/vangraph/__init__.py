"""Exact character tables, vanishing classes, and prime graphs for
finite permutation groups, with a harness that mechanically verifies a
family of solvability statements over a group corpus."""

from .caps import CapExceeded
from .catalog import SpecError, catalog_group
from .cyclo import Cyc, cyclotomic_poly
from .deleted import (act, distinct_coordinate_vector, group_order,
                      orbit_census, orbit_size, stabilizer)
from .dixon import CharacterTable, character_table, class_matrix
from .harness import (Analysis, CorpusResult, DEFAULT_C44_CONFIGS,
                      DEFAULT_CORPUS, Verdict, analyze, check_theorems,
                      corpus_run, report_dict)
from .perms import (Perm, PermGroup, commutator, cycle_perm, parse_cycles,
                    read_generator_file)
from .structure import (ConjugacyClasses, GroupStructure, SeparationAnomaly,
                        conjugacy_classes, joint_stabilizer_index,
                        normal_closure, separating_subsets)
from .symchar import (conjugate, degree, is_self_associate, mn_value,
                      partitions, sn_table, witness_cycle_type,
                      witness_partition)
from .vanishing import (PrimeGraph, VanishingReport, dot_text, is_complete,
                        is_complete_vertex, is_subgraph, prime_graph,
                        vanishing_report)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "CapExceeded", "CharacterTable", "ConjugacyClasses",
    "CorpusResult", "Cyc", "DEFAULT_C44_CONFIGS", "DEFAULT_CORPUS",
    "GroupStructure", "Perm", "PermGroup", "PrimeGraph", "SeparationAnomaly",
    "SpecError", "VanishingReport", "Verdict", "act", "analyze",
    "catalog_group", "character_table", "check_theorems", "class_matrix",
    "commutator", "conjugacy_classes", "conjugate", "corpus_run",
    "cycle_perm", "cyclotomic_poly", "degree",
    "distinct_coordinate_vector", "dot_text", "group_order", "is_complete",
    "is_complete_vertex", "is_self_associate", "joint_stabilizer_index",
    "is_subgraph", "mn_value", "normal_closure", "orbit_census",
    "orbit_size", "parse_cycles", "partitions", "prime_graph",
    "read_generator_file", "report_dict", "separating_subsets", "sn_table",
    "stabilizer", "vanishing_report",
    "witness_cycle_type", "witness_partition",
]
