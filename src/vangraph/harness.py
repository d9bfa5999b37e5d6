"""Per-group analysis, theorem verdicts, and the corpus runner.

Each check encodes one published statement: its hypothesis is evaluated
mechanically, and the verdict is PASS or FAIL only when the hypothesis
holds (with a machine-checkable witness on FAIL), VACUOUS when it does
not.  INDETERMINATE comes only from a capped analysis: every requested
check of that corpus group gets it.  A corpus run emits one JSON report
line per group, sorted by the group description, and exits 0 only if
nothing FAILed.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import gcd

from . import caps
from .catalog import catalog_group
from .dixon import CharacterTable, character_table
from .numth import is_prime, is_prime_power, prime_divisors
from .perms import PermGroup, normal_closure, parse_cycles
from .structure import ClassFacts, GroupStructure, conjugacy_classes
from .symchar import partition_family, symmetric_classes, symmetric_table
from .vanishing import (PrimeGraph, VanishingReport, prime_graph,
                        vanishing_report)

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
INDETERMINATE = "INDETERMINATE"

# Each check id, in report order, with its function's name, looked up
# when the check runs so that a patched module attribute takes effect.
CHECKS = {
    "CHK-PROP": "check_same_vertices",
    "CHK-THMA": "check_missing_edge_solvability",
    "CHK-THMB": "check_trivial_fitting",
    "CHK-COR": "check_noncomplete_vertex",
    "CHK-L32": "check_unique_minimal_vertices",
    "CHK-P34": "check_almost_simple_edges",
    "CHK-DOLFI": "check_outside_vanishing_primes",
    "CHK-CD-A": "check_degree_size_pairs",
    "CHK-C44": "check_chief_factor_vanishing",
}
CHECK_IDS = tuple(CHECKS)

DEFAULT_CORPUS = tuple(
    [f"C{n}" for n in range(2, 13)]
    + ["D8", "D12", "S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7",
       "PSL(2,5)", "PSL(2,7)", "S3 x A5", "C6 x A5", "C2 x A5", "A5 x A5"])

# Chief-factor configurations: an abelian minimal normal subgroup A (a
# p-group), and a chief factor M/N with N centralizing A and |M/N|
# coprime to |A|.  Everything below N is re-verified before use.
DEFAULT_C44_CONFIGS = (
    {"group": "S4",
     "a": ["(1 2)(3 4)", "(1 3)(2 4)"],
     "m": ["(1 2 3)", "(1 2)(3 4)", "(1 3)(2 4)"],
     "n": ["(1 2)(3 4)", "(1 3)(2 4)"],
     "p": 2},
    {"group": "A4",
     "a": ["(1 2)(3 4)", "(1 3)(2 4)"],
     "m": ["(1 2 3)", "(1 2)(3 4)", "(1 3)(2 4)"],
     "n": ["(1 2)(3 4)", "(1 3)(2 4)"],
     "p": 2},
    {"group": "S3",
     "a": ["(1 2 3)"],
     "m": ["(1 2)", "(1 2 3)"],
     "n": ["(1 2 3)"],
     "p": 3},
)

@dataclass(frozen=True)
class Verdict:
    check: str
    status: str
    detail: str
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {"check": self.check, "status": self.status,
               "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class Analysis:
    """Everything the checks need about one group, computed once."""

    spec: str
    group: PermGroup
    classes: ClassFacts
    structure: GroupStructure
    table: CharacterTable
    vanishing: VanishingReport


def analyze(spec: str | PermGroup) -> Analysis:
    """The classes, table, structure and vanishing report of one group.

    The path is picked here, once, from the group itself: a group that
    ``symchar.partition_family`` reads as S_n or A_n on its points,
    however it was described, gets its classes and table from
    partitions (``symchar``), without enumerating the group; every
    other group gets them from the element enumeration and Dixon's
    method.  Both give the same classes, in the same order, and the
    same table, and refuse at the same caps."""
    if isinstance(spec, PermGroup):
        group, name = spec, "<group>"
    else:
        group, name = catalog_group(spec), spec
    if partition_family(group) is None:
        classes = conjugacy_classes(group)
        table = character_table(classes)
    else:
        classes = symmetric_classes(group)
        table = symmetric_table(classes)
    structure = GroupStructure(table)
    # both structure certificates raise here, before any check reads
    # the structure: the chief factors against |G|, then the derived
    # terms, which read the same kernels, against their orders and G'
    structure.chief_factors
    structure.derived_series
    return Analysis(
        spec=name,
        group=group,
        classes=classes,
        structure=structure,
        table=table,
        vanishing=vanishing_report(table),
    )


# -- individual checks ----------------------------------------------------

def _pair_solvability(analysis: Analysis, primes, check: str,
                      detail_ok: str) -> Verdict:
    """Shared tail of the two solvability checks: all named primes must
    be solvable-for."""
    bad = [p for p in primes if not analysis.structure.p_solvable(p)]
    if bad:
        return Verdict(check, FAIL, f"not p-solvable for p in {bad}",
                       {"primes": bad})
    return Verdict(check, PASS, detail_ok)


def check_same_vertices(analysis: Analysis) -> Verdict:
    """Nonabelian minimal normal subgroup forces V(G) = V_v(G)."""
    if not analysis.structure.nonabelian_minimal_normals:
        return Verdict("CHK-PROP", VACUOUS,
                       "no nonabelian minimal normal subgroup")
    v_all = set(analysis.vanishing.size_primes)
    v_van = set(analysis.vanishing.vanishing_size_primes)
    if v_all == v_van:
        return Verdict("CHK-PROP", PASS,
                       f"V = V_v = {sorted(v_all)}")
    return Verdict("CHK-PROP", FAIL,
                   "vertex sets differ",
                   {"V": sorted(v_all), "V_v": sorted(v_van)})


def check_missing_edge_solvability(analysis: Analysis) -> Verdict:
    """A missing vanishing-graph edge between class-size primes forces
    {p,q}-solvability, given a nonabelian minimal normal subgroup."""
    if not analysis.structure.nonabelian_minimal_normals:
        return Verdict("CHK-THMA", VACUOUS,
                       "no nonabelian minimal normal subgroup")
    pairs = analysis.vanishing.vanishing_graph.non_edges(
        analysis.vanishing.size_primes)
    if not pairs:
        return Verdict("CHK-THMA", VACUOUS,
                       "every prime pair of V(G) is joined in the"
                       " vanishing graph")
    primes = sorted({r for pair in pairs for r in pair})
    return _pair_solvability(
        analysis, primes, "CHK-THMA",
        f"{{p,q}}-solvable for every unjoined pair in {pairs}")


def check_trivial_fitting(analysis: Analysis) -> Verdict:
    """Trivial Fitting subgroup forces V_v = pi(G) with a complete
    vanishing graph."""
    structure = analysis.structure
    if structure.order(structure.fitting_subgroup) != 1:
        return Verdict("CHK-THMB", VACUOUS, "Fitting subgroup is nontrivial")
    primes = set(structure.primes)
    v_van = set(analysis.vanishing.vanishing_size_primes)
    missing = sorted(primes - v_van)
    if missing:
        return Verdict("CHK-THMB", FAIL,
                       "prime divisors missing from V_v",
                       {"missing": missing, "V_v": sorted(v_van)})
    g = analysis.vanishing.vanishing_graph
    absent = g.non_edges(g.vertices)
    if absent:
        return Verdict("CHK-THMB", FAIL, "vanishing graph is not complete",
                       {"missing_edges": absent})
    return Verdict("CHK-THMB", PASS,
                   f"V_v = pi(G) = {sorted(primes)} and the vanishing"
                   " graph is complete")


def check_noncomplete_vertex(analysis: Analysis) -> Verdict:
    """A prime that is not a complete vanishing-graph vertex forces
    p-solvability, given a nonabelian minimal normal subgroup."""
    if not analysis.structure.nonabelian_minimal_normals:
        return Verdict("CHK-COR", VACUOUS,
                       "no nonabelian minimal normal subgroup")
    graph_v = analysis.vanishing.vanishing_graph
    unjoined = {r for pair in graph_v.non_edges(graph_v.vertices)
                for r in pair}
    loose = [p for p in analysis.structure.primes
             if p not in graph_v.vertices or p in unjoined]
    if not loose:
        return Verdict("CHK-COR", VACUOUS,
                       "every prime divisor is a complete vertex of the"
                       " vanishing graph")
    return _pair_solvability(
        analysis, loose, "CHK-COR",
        f"p-solvable for every non-complete vertex in {loose}")


def _unique_nonabelian_minimal(analysis: Analysis) -> frozenset[int] | None:
    """The class set of the unique minimal normal subgroup, when there is
    exactly one and it is nonabelian."""
    structure = analysis.structure
    mins = structure.minimal_normal_subgroups
    if len(mins) == 1 and mins == structure.nonabelian_minimal_normals:
        return mins[0]
    return None


def _vanishing_graph_inside(analysis: Analysis, m_sub) -> PrimeGraph:
    """Prime graph of the vanishing class sizes inside a class set."""
    sizes = analysis.classes.sizes
    return prime_graph(sizes[k] for k in analysis.vanishing.vanishing_classes
                       if k in m_sub)


def check_unique_minimal_vertices(analysis: Analysis) -> Verdict:
    """Unique nonabelian minimal normal subgroup M forces pi(G) = V_v,
    with witnesses available inside M."""
    m_sub = _unique_nonabelian_minimal(analysis)
    if m_sub is None:
        return Verdict("CHK-L32", VACUOUS,
                       "no unique nonabelian minimal normal subgroup")
    witnessed = _vanishing_graph_inside(analysis, m_sub).vertices
    missing = [p for p in analysis.structure.primes if p not in witnessed]
    if missing:
        return Verdict("CHK-L32", FAIL,
                       "no vanishing witness inside the minimal normal"
                       f" subgroup for primes {missing}",
                       {"primes": missing})
    return Verdict("CHK-L32", PASS,
                   "pi(G) = V_v with all witnesses inside the socle")


def _is_simple(analysis: Analysis, m_sub: frozenset[int]) -> bool:
    """Whether a nonabelian minimal normal subgroup M = T^k is simple
    (k = 1).  M = G is simple with no permutation work: then G has no
    proper nontrivial normal subgroup.  Otherwise M is built once as the
    normal closure in G of the representative of one order-p class in
    M, for p the smallest prime dividing |M|, and its order checked
    against the class set (ArithmeticError if they differ).  M is simple
    iff the normal closure in M of the representative of every order-p
    class in M is M: if k > 1, one factor T holds an order-p element
    (Cauchy), and the closure of one in M is T; if k = 1, every
    nontrivial element closes to M."""
    classes = analysis.classes
    if len(m_sub) == classes.count:
        return True
    order = analysis.structure.order(m_sub)
    p = prime_divisors(order)[0]
    reps = [classes.reps[j] for j in sorted(m_sub) if classes.orders[j] == p]
    m_grp = normal_closure(analysis.group, reps[:1])
    if m_grp.order != order:
        raise ArithmeticError(f"the normal closure has order {m_grp.order},"
                              f" the socle's class set {order}")
    return all(normal_closure(m_grp, [x]).order == order for x in reps)


def check_almost_simple_edges(analysis: Analysis) -> Verdict:
    """In an almost simple group, every pair of prime divisors is an
    edge of the vanishing graph, witnessed inside the socle."""
    socle = _unique_nonabelian_minimal(analysis)
    if socle is None or not _is_simple(analysis, socle):
        return Verdict("CHK-P34", VACUOUS, "group is not almost simple")
    bad = _vanishing_graph_inside(analysis, socle).non_edges(
        analysis.structure.primes)
    if bad:
        return Verdict("CHK-P34", FAIL,
                       "prime pairs lacking a socle vanishing witness",
                       {"pairs": bad})
    return Verdict("CHK-P34", PASS,
                   "all prime pairs joined through socle witnesses")


def check_outside_vanishing_primes(analysis: Analysis) -> Verdict:
    """A prime divisor outside V_v forces p-nilpotency with abelian
    Sylow p-subgroups (checked through the normal complement)."""
    v_van = set(analysis.vanishing.vanishing_size_primes)
    outside = [p for p in analysis.structure.primes if p not in v_van]
    if not outside:
        return Verdict("CHK-DOLFI", VACUOUS,
                       "V_v contains every prime divisor")
    bad = []
    for p in outside:
        if analysis.structure.has_abelian_sylow(p) is not True:
            bad.append(p)
    if bad:
        return Verdict("CHK-DOLFI", FAIL,
                       "missing normal complement or nonabelian Sylow"
                       f" for p in {bad}", {"primes": bad})
    return Verdict("CHK-DOLFI", PASS,
                   f"p-nilpotent with abelian Sylow for p in {outside}")


def check_degree_size_pairs(analysis: Analysis) -> Verdict:
    """pq dividing a character degree forces pq to divide a class size."""
    pairs = list(prime_graph(analysis.table.degrees).edges)
    if not pairs:
        return Verdict("CHK-CD-A", VACUOUS,
                       "no character degree has two distinct prime"
                       " divisors")
    bad = [e for e in pairs if not analysis.vanishing.graph.has_edge(*e)]
    if bad:
        return Verdict("CHK-CD-A", FAIL,
                       "degree pairs with no matching class size",
                       {"pairs": bad})
    return Verdict("CHK-CD-A", PASS,
                   f"every degree pair {pairs} divides a class size")


def check_chief_factor_vanishing(analysis: Analysis, config: dict) -> Verdict:
    """One configured instance: A abelian minimal normal, M/N a chief
    factor with |M/N| coprime to |A| and N = C_M(A); then everything in
    M but not in N must be vanishing.  Each of A, M, N is read as the
    class set of its normal closure, which has the subgroup's order
    exactly when the subgroup is normal."""
    group = analysis.group
    structure = analysis.structure
    reps = analysis.classes.reps
    p = config["p"]
    subs = tuple(PermGroup([parse_cycles(s, group.degree)
                            for s in config[key]], degree=group.degree)
                 for key in ("a", "m", "n"))
    outside = [f"{name} is not a subgroup of G"
               for name, sub in zip("AMN", subs)
               if not all(g in group for g in sub.generators)]
    if outside:
        return Verdict("CHK-C44", VACUOUS,
                       "configuration hypothesis failed: "
                       + "; ".join(outside))
    a_grp, m_grp, n_grp = subs
    class_of = analysis.classes.class_of
    a_set, m_set, n_set = (
        structure.closure(class_of(g) for g in sub.generators) for sub in subs)
    problems = []
    if not is_prime(p) or not is_prime_power(a_grp.order, p):
        problems.append(f"A is not a {p}-group")
    if structure.order(a_set) != a_grp.order:
        problems.append("A is not normal")
    elif any(a * b != b * a for a in a_grp.generators
             for b in a_grp.generators):
        problems.append("A is not abelian")
    elif a_set not in structure.minimal_normal_subgroups:
        problems.append("A is not a minimal normal subgroup")
    if structure.order(m_set) != m_grp.order:
        problems.append("M is not normal")
    if structure.order(n_set) != n_grp.order:
        problems.append("N is not normal")
    if not all(g in m_grp for g in n_grp.generators):
        problems.append("N is not contained in M")
    elif n_grp.order >= m_grp.order:
        problems.append("M/N is trivial")
    elif not problems:
        if any(structure.closure(n_set | {j}) != m_set
               for j in m_set - n_set):
            problems.append("M/N is not a chief factor")
        if gcd(a_grp.order, m_grp.order // n_grp.order) != 1:
            problems.append("|M/N| is not coprime to |A|")
        # C_G(A) is normal, so C_M(A) is the classes of M whose
        # representative commutes with A
        cent = {j for j in m_set
                if all(reps[j] * a == a * reps[j] for a in a_grp.generators)}
        if cent != n_set:
            problems.append("N is not the centralizer of A in M")
    if problems:
        return Verdict("CHK-C44", VACUOUS,
                       "configuration hypothesis failed: "
                       + "; ".join(problems))
    van = set(analysis.vanishing.vanishing_classes)
    bad = [k for k in sorted(m_set - n_set) if k not in van]
    if bad:
        return Verdict("CHK-C44", FAIL,
                       "non-vanishing classes inside M minus N",
                       {"classes": bad,
                        "sizes": [analysis.classes.sizes[k] for k in bad]})
    return Verdict("CHK-C44", PASS,
                   "all classes in M minus N vanish"
                   f" (|A| = {a_grp.order}, |M/N| ="
                   f" {m_grp.order // n_grp.order})")


def select_checks(checks=None) -> tuple[str, ...]:
    """The selected check ids in ``CHECK_IDS`` order; None selects every
    check.  Raises ValueError on an unknown id."""
    if checks is None:
        return CHECK_IDS
    unknown = set(checks) - CHECKS.keys()
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    return tuple(c for c in CHECK_IDS if c in checks)


def check_theorems(analysis: Analysis, c44_configs=None,
                   checks=None) -> tuple[Verdict, ...]:
    if c44_configs is None:
        c44_configs = DEFAULT_C44_CONFIGS
    out = []
    for check_id in select_checks(checks):
        check = globals()[CHECKS[check_id]]
        if check_id != "CHK-C44":
            out.append(check(analysis))
            continue
        mine = [c for c in c44_configs if c["group"] == analysis.spec]
        out.extend([check(analysis, c) for c in mine] or [
            Verdict("CHK-C44", VACUOUS,
                    "no chief-factor configuration for this group")])
    return tuple(out)


# -- reports and the corpus runner ----------------------------------------

def report_dict(analysis: Analysis, verdicts) -> dict:
    structure = analysis.structure
    group = analysis.group
    van = analysis.vanishing
    sizes = analysis.classes.sizes
    return {
        "spec": analysis.spec,
        "order": group.order,
        "degree": group.degree,
        "primes": list(structure.primes),
        "class_sizes": list(sizes),
        "character_degrees": list(analysis.table.degrees),
        "vanishing_classes": list(van.vanishing_classes),
        "vanishing_class_sizes": [sizes[j] for j in van.vanishing_classes],
        "V": list(van.size_primes),
        "V_v": list(van.vanishing_size_primes),
        "graph": {"vertices": list(van.graph.vertices),
                  "edges": [list(e) for e in van.graph.edges]},
        "vanishing_graph": {
            "vertices": list(van.vanishing_graph.vertices),
            "edges": [list(e) for e in van.vanishing_graph.edges]},
        "center_order": structure.order(structure.center),
        "fitting_order": structure.order(structure.fitting_subgroup),
        "minimal_normals": [
            [structure.order(m), m not in structure.nonabelian_minimal_normals]
            for m in structure.minimal_normal_subgroups],
        "derived_series": [structure.order(s)
                           for s in structure.derived_series],
        "is_solvable": structure.is_solvable(),
        "p_nilpotent": {str(p): structure.normal_p_complement(p) is not None
                        for p in structure.primes},
        "p_solvable": {str(p): structure.p_solvable(p)
                       for p in structure.primes},
        "verdicts": [v.as_dict() for v in verdicts],
    }


def _corpus_worker(args) -> dict:
    """One group's report.  A cap hit makes every requested check
    INDETERMINATE in this group's report and leaves the others alone."""
    spec, c44, checks = args
    try:
        analysis = analyze(spec)
        verdicts = check_theorems(analysis, c44_configs=c44, checks=checks)
    except caps.CapExceeded as exc:
        return {"spec": spec,
                "verdicts": [Verdict(check, INDETERMINATE, str(exc)).as_dict()
                             for check in select_checks(checks)]}
    return report_dict(analysis, verdicts)


class WorkerDied(RuntimeError):
    """A corpus worker process ended without returning its report, as
    when the operating system kills it for want of memory."""


@dataclass(frozen=True)
class CorpusResult:
    reports: tuple[dict, ...]

    def json_lines(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in self.reports)

    def check_counts(self) -> dict:
        """Status tally per check id across all reports."""
        tally: dict = {}
        for rep in self.reports:
            for v in rep["verdicts"]:
                tally.setdefault(v["check"], Counter())[v["status"]] += 1
        return tally

    @property
    def counts(self) -> Counter:
        """Status totals across all checks."""
        return sum(self.check_counts().values(), Counter())

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[FAIL] else 0

    def summary(self) -> str:
        c = self.counts
        per = self.check_counts()
        vacuous = " ".join(
            f"{check}[{VACUOUS}]={per.get(check, {}).get(VACUOUS, 0)}"
            for check in ("CHK-THMA", "CHK-COR"))
        return (f"groups={len(self.reports)} PASS={c[PASS]}"
                f" FAIL={c[FAIL]} VACUOUS={c[VACUOUS]}"
                f" INDETERMINATE={c[INDETERMINATE]} {vacuous}")


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def validate_c44_config(config) -> None:
    if not isinstance(config, dict):
        raise ValueError("chief-factor configuration must be an object")
    keys = ("group", "a", "m", "n", "p")
    for key in keys:
        if key not in config:
            raise ValueError(f"chief-factor configuration lacks {key!r}")
    unknown = sorted(config.keys() - set(keys))
    if unknown:
        raise ValueError(f"unknown chief-factor configuration keys: {unknown}")
    if not (isinstance(config["group"], str) and type(config["p"]) is int
            and all(_is_strings(config[key]) for key in "amn")):
        raise ValueError("chief-factor configuration needs a string 'group',"
                         " lists of strings 'a', 'm', 'n' and an integer 'p'")
    if not is_prime(config["p"]):
        raise ValueError(f"configured p = {config['p']} is not prime")
    group = catalog_group(config["group"])
    for key in ("a", "m", "n"):
        for s in config[key]:
            parse_cycles(s, group.degree)


def corpus_run(specs=None, c44_configs=None, checks=None,
               jobs: int = 1) -> CorpusResult:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ordered = sorted(DEFAULT_CORPUS if specs is None else specs)
    for spec in ordered:
        catalog_group(spec)   # parse errors surface before any work
    for config in c44_configs or ():
        validate_c44_config(config)
    select_checks(checks)
    caps.enum_cap()   # a bad VG_ENUM_CAP is refused before any group runs
    args = [(spec, c44_configs, checks) for spec in ordered]
    # the pool forks all its workers at once, so never more than groups
    workers = min(jobs, len(args))
    if workers > 1:
        # imported here: it loads multiprocessing, costly at start-up
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        reports = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for report in pool.map(_corpus_worker, args):
                    reports.append(report)
        except BrokenProcessPool:
            raise WorkerDied("a corpus worker died before reporting"
                             f" {ordered[len(reports)]}") from None
    else:
        reports = [_corpus_worker(a) for a in args]
    return CorpusResult(tuple(reports))


def load_corpus_config(path) -> tuple[list, list | None, list | None]:
    """Read a corpus configuration file: {"groups": [...],
    "c44": [...], "checks": [...]}; groups is required, an absent c44 or
    checks reads None (the default).  Raises ValueError on a bad shape
    or any other key."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "groups" not in data:
        raise ValueError("configuration must be an object with 'groups'")
    unknown = sorted(data.keys() - {"groups", "c44", "checks"})
    if unknown:
        raise ValueError(f"unknown configuration keys: {unknown}")
    groups, c44, checks = data["groups"], data.get("c44"), data.get("checks")
    if not _is_strings(groups):
        raise ValueError("'groups' must be a list of strings")
    if checks is not None and not _is_strings(checks):
        raise ValueError("'checks' must be a list of strings")
    if c44 is not None and not isinstance(c44, list):
        raise ValueError("'c44' must be a list of objects")
    return groups, c44, checks
