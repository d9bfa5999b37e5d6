"""Per-group analysis, theorem verdicts, and the corpus runner."""

import concurrent.futures
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_dixon import two_generator_groups

from vangraph import harness
from vangraph.caps import CapExceeded
from vangraph.harness import (DEFAULT_C44_CONFIGS, DEFAULT_CORPUS,
                              FAIL, INDETERMINATE, PASS, VACUOUS, Verdict,
                              check_theorems, corpus_run,
                              load_corpus_config, report_dict,
                              validate_c44_config)
from vangraph.numth import prime_divisors
from vangraph.perms import PermGroup, normal_closure, parse_cycles
from vangraph.structure import GroupStructure
from vangraph.vanishing import PrimeGraph, prime_graph


def verdict_map(analysis, **kw):
    return {v.check: v for v in check_theorems(analysis, **kw)}


def test_analyze_s3(analyses):
    a = analyses("S3")
    rep = report_dict(a, check_theorems(a))
    assert rep["spec"] == "S3"
    assert rep["order"] == 6
    assert rep["class_sizes"] == [1, 3, 2]
    assert rep["character_degrees"] == [1, 1, 2]
    assert rep["V"] == [2, 3]
    assert rep["V_v"] == [3]
    assert rep["vanishing_classes"] == [1]
    assert rep["vanishing_class_sizes"] == [3]
    assert rep["graph"] == {"vertices": [2, 3], "edges": []}
    assert rep["vanishing_graph"] == {"vertices": [3], "edges": []}
    assert rep["is_solvable"] is True
    assert rep["p_nilpotent"] == {"2": True, "3": False}
    assert rep["fitting_order"] == 3


def test_verdicts_a5(analyses):
    v = verdict_map(analyses("A5"))
    assert v["CHK-PROP"].status == PASS
    assert v["CHK-THMB"].status == PASS
    assert v["CHK-THMA"].status == VACUOUS
    assert v["CHK-COR"].status == VACUOUS
    assert v["CHK-L32"].status == PASS
    assert v["CHK-P34"].status == PASS
    assert v["CHK-DOLFI"].status == VACUOUS
    assert v["CHK-C44"].status == VACUOUS


def test_verdicts_c6(analyses):
    v = verdict_map(analyses("C6"))
    # abelian group: structural hypotheses all fail, Dolfi direction fires
    assert v["CHK-DOLFI"].status == PASS
    for check in ("CHK-PROP", "CHK-THMA", "CHK-THMB", "CHK-COR", "CHK-L32",
                  "CHK-P34", "CHK-CD-A", "CHK-C44"):
        assert v[check].status == VACUOUS, check


def test_verdicts_s4_chief_factor(analyses):
    v = verdict_map(analyses("S4"))
    assert v["CHK-C44"].status == PASS
    assert "|A| = 4" in v["CHK-C44"].detail


def test_verdicts_d12_dolfi(analyses):
    v = verdict_map(analyses("D12"))
    assert v["CHK-DOLFI"].status == PASS
    assert "2" in v["CHK-DOLFI"].detail


def test_almost_simple_socle_witnesses(analyses):
    for spec in ("S5", "S6", "PSL(2,7)"):
        v = verdict_map(analyses(spec))
        assert v["CHK-P34"].status == PASS, spec
        assert v["CHK-L32"].status == PASS, spec


def test_unknown_check_id_rejected(analyses):
    with pytest.raises(ValueError, match="unknown check ids"):
        check_theorems(analyses("S3"), checks=["CHK-NOPE"])


def test_check_subset_only_runs_requested(analyses):
    verdicts = check_theorems(analyses("S3"), checks=["CHK-DOLFI"])
    assert [v.check for v in verdicts] == ["CHK-DOLFI"]


def test_c44_config_validation():
    # corpus_run validates only configurations it is given
    for config in DEFAULT_C44_CONFIGS:
        validate_c44_config(config)
    good = dict(DEFAULT_C44_CONFIGS[0])
    with pytest.raises(ValueError):
        validate_c44_config([])
    for key in ("group", "a", "m", "n", "p"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ValueError, match=key):
            validate_c44_config(bad)
    bad = dict(good, p=6)
    with pytest.raises(ValueError, match="not prime"):
        validate_c44_config(bad)
    bad = dict(good, a=["(1 99)"])
    with pytest.raises(ValueError):
        validate_c44_config(bad)
    for key, value in (("group", 5), ("a", [1]), ("a", "(1 2)(3 4)"),
                       ("m", None), ("p", "2"), ("p", True)):
        with pytest.raises(ValueError, match="needs a string 'group'"):
            validate_c44_config(dict(good, **{key: value}))
    with pytest.raises(ValueError, match=r"unknown .* keys: \['pp'\]"):
        validate_c44_config(dict(good, pp=5))


def test_c44_vacuous_when_hypotheses_fail(analyses):
    a = analyses("S4")
    # A not normal: seed a non-normal cyclic subgroup
    config = {"group": "S4", "a": ["(1 2)"], "m": ["(1 2)", "(1 2 3)"],
              "n": ["(1 2 3)"], "p": 2}
    (verdict,) = check_theorems(a, c44_configs=[config], checks=["CHK-C44"])
    assert verdict.status == VACUOUS
    assert "hypothesis failed" in verdict.detail


V4 = ["(1 2)(3 4)", "(1 3)(2 4)"]
A4 = ["(1 2 3)", "(1 2)(3 4)", "(1 3)(2 4)"]
D8_CENTER = ["(1 3)(2 4)"]


@pytest.mark.parametrize("spec, a, m, n, p, detail", [
    ("S4", V4, A4, V4, 3, "A is not a 3-group"),
    ("D8", ["(1 2 3 4)", "(1 3)"], ["(1 2 3 4)", "(1 3)"], D8_CENTER, 2,
     "A is not abelian"),
    # <(1 2 3 4)> is abelian and normal but contains the center
    ("D8", ["(1 2 3 4)"], ["(1 2 3 4)", "(1 3)"], D8_CENTER, 2,
     "A is not a minimal normal subgroup"),
    ("S4", V4, V4, A4, 2, "N is not contained in M"),
    ("S4", V4, V4, V4, 2, "M/N is trivial"),
    # S4/V4 = S3 has A4/V4 below it
    ("S4", V4, ["(1 2)", "(1 2 3 4)"], V4, 2,
     "M/N is not a chief factor; |M/N| is not coprime to |A|"),
    # A is central, so it is centralized by all of M
    ("D8", D8_CENTER, ["(1 2 3 4)"], D8_CENTER, 2,
     "|M/N| is not coprime to |A|; N is not the centralizer of A in M"),
])
def test_c44_hypothesis_reasons(analyses, spec, a, m, n, p, detail):
    config = {"group": spec, "a": a, "m": m, "n": n, "p": p}
    validate_c44_config(config)
    (verdict,) = check_theorems(analyses(spec), c44_configs=[config],
                                checks=["CHK-C44"])
    assert verdict.as_dict() == {
        "check": "CHK-C44", "status": VACUOUS,
        "detail": f"configuration hypothesis failed: {detail}"}


def test_c44_generators_outside_group(analyses):
    # (1 2) and (1 2 3 4) generate S4, which is not a subgroup of A4
    config = {"group": "A4",
              "a": ["(1 2)(3 4)", "(1 3)(2 4)"],
              "m": ["(1 2)", "(1 2 3 4)"],
              "n": ["(1 2)(3 4)", "(1 3)(2 4)"],
              "p": 2}
    (verdict,) = check_theorems(analyses("A4"), c44_configs=[config],
                                checks=["CHK-C44"])
    assert verdict.status == VACUOUS
    assert verdict.detail == ("configuration hypothesis failed:"
                              " M is not a subgroup of G")


# file: paths resolve against the working directory, so the tests that
# read the coverage config change to the repository root first
REPO_ROOT = Path(__file__).resolve().parents[1]
COVERAGE_CONFIG = REPO_ROOT / "corpora" / "coverage.json"


def test_solvability_checks_pass_past_their_hypotheses(monkeypatch):
    # corpora/f11_5.grp is F(11,5) = C11 x| C5, as x -> x + 1 and
    # x -> 3x on the residues mod 11.  PSL(2,7) is a nonabelian minimal
    # normal subgroup, and 5, 11 are class-size primes that the
    # vanishing graph leaves unjoined
    monkeypatch.chdir(REPO_ROOT)
    a = harness.analyze("PSL(2,7) x file:corpora/f11_5.grp")
    assert a.group.order == 168 * 55
    assert [v.as_dict() for v in check_theorems(
        a, checks=["CHK-THMA", "CHK-COR"])] == [
        {"check": "CHK-THMA", "status": PASS,
         "detail": "{p,q}-solvable for every unjoined pair in [(5, 11)]"},
        {"check": "CHK-COR", "status": PASS,
         "detail": "p-solvable for every non-complete vertex in [5, 11]"}]


def test_every_check_is_reached_past_its_hypothesis(analyses, monkeypatch):
    # CHK-THMA and CHK-COR are VACUOUS on every default-corpus group;
    # the coverage config holds the groups that reach their PASS branches
    monkeypatch.chdir(REPO_ROOT)
    groups, c44, checks = load_corpus_config(COVERAGE_CONFIG)
    reached = set()
    for spec in list(DEFAULT_CORPUS) + groups:
        reached.update(v.check for v in check_theorems(
            analyses(spec), c44_configs=c44, checks=checks)
            if v.status != VACUOUS)
    uncovered = [c for c in harness.CHECK_IDS if c not in reached]
    assert not uncovered, f"VACUOUS on every group: {uncovered}"


def test_analyze_runs_structure_certificates(monkeypatch):
    # analyze evaluates both certificates itself, chief factors first,
    # so a wrong table raises before any check or report reads the
    # structure
    class LinearKernelsWidened(GroupStructure):
        # every linear character trivial: claims G' = G
        def __init__(self, table):
            super().__init__(table)
            everything = frozenset(range(table.classes.count))
            self.kernels = tuple(everything if d == 1 else ker
                                 for d, ker in zip(table.degrees,
                                                   self.kernels))

    class BogusKernel(GroupStructure):
        # a kernel of classes 0 and 1 of S4, "a normal subgroup" of
        # order 7, in place of the degree-2 character's V4
        def __init__(self, table):
            super().__init__(table)
            self.kernels = tuple(frozenset({0, 1}) if d == 2 else ker
                                 for d, ker in zip(table.degrees,
                                                   self.kernels))

    monkeypatch.setattr(harness, "GroupStructure", LinearKernelsWidened)
    with pytest.raises(ArithmeticError, match="derived term"):
        harness.analyze("S4")
    monkeypatch.setattr(harness, "GroupStructure", BogusKernel)
    with pytest.raises(ArithmeticError, match="chief factor"):
        harness.analyze("S4")


def test_verdict_as_dict(analyses):
    v = check_theorems(analyses("S3"))[0]
    d = v.as_dict()
    # witness key only present when a witness exists
    assert set(d) <= {"check", "status", "detail", "witness"}
    assert {"check", "status", "detail"} <= set(d)
    assert d["check"] == "CHK-PROP"


def test_corpus_default_membership():
    assert "S3" in DEFAULT_CORPUS
    assert "A5 x A5" in DEFAULT_CORPUS
    assert [f"C{n}" for n in range(2, 13)] == \
        [s for s in DEFAULT_CORPUS if s.startswith("C") and " " not in s]
    assert len(DEFAULT_CORPUS) == 27


def test_corpus_run_small_and_deterministic():
    result = corpus_run(["S3", "C4", "A4"])
    assert result.exit_code == 0
    assert [r["spec"] for r in result.reports] == ["A4", "C4", "S3"]
    again = corpus_run(["A4", "S3", "C4"])          # order-insensitive
    assert result.json_lines() == again.json_lines()
    for line in result.json_lines().splitlines():
        json.loads(line)
    counts = result.counts
    assert counts[FAIL] == 0
    assert counts[PASS] + counts[VACUOUS] + counts[INDETERMINATE] == 27


def test_corpus_parallel_matches_serial():
    serial = corpus_run(["S3", "S4", "A4", "C6"], jobs=1)
    parallel = corpus_run(["S3", "S4", "A4", "C6"], jobs=3)
    assert serial.json_lines() == parallel.json_lines()
    assert serial.exit_code == parallel.exit_code == 0


def test_corpus_pool_never_exceeds_groups(monkeypatch):
    asked = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count it
        is asked for and maps in this process, so no worker is forked."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    serial = corpus_run(["S3", "C2"], jobs=1)
    assert corpus_run(["S3", "C2"], jobs=1000) == serial
    assert corpus_run(["S3", "C2", "A4"], jobs=2).reports[1:] == \
        serial.reports
    # one group runs in this process: no pool at all
    assert corpus_run(["S3"], jobs=1000).reports == serial.reports[1:]
    assert asked == [2, 2]
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            corpus_run(["S3"], jobs=jobs)
    assert asked == [2, 2]


def test_corpus_bad_spec_raises_before_work():
    from vangraph.catalog import SpecError
    with pytest.raises(SpecError):
        corpus_run(["S3", "NOT_A_GROUP"])


def test_corpus_fail_sets_exit_code(monkeypatch):
    def always_fail(analysis):
        return Verdict("CHK-PROP", FAIL, "forced", None)

    monkeypatch.setattr(harness, "check_same_vertices", always_fail)
    result = corpus_run(["S3"])
    assert result.exit_code == 1
    assert result.counts[FAIL] == 1


def test_summary_reports_vacuous_counts():
    result = corpus_run(["S3", "A5"])
    s = result.summary()
    assert "CHK-THMA[VACUOUS]=2" in s
    assert "CHK-COR[VACUOUS]=2" in s
    assert "FAIL=0" in s
    tallies = result.check_counts()
    assert tallies["CHK-THMA"][VACUOUS] == 2


def test_corpus_capped_group_reports_requested_checks():
    # C61 has more classes than the table cap; only the requested checks
    # appear, in the usual order
    result = corpus_run(["C61", "C4"], checks=["CHK-DOLFI", "CHK-PROP"])
    c4, capped = result.reports
    assert capped["spec"] == "C61"
    assert [(v["check"], v["status"]) for v in capped["verdicts"]] == \
        [("CHK-PROP", INDETERMINATE), ("CHK-DOLFI", INDETERMINATE)]
    assert c4["spec"] == "C4" and c4["order"] == 4
    assert result.counts[INDETERMINATE] == 2
    assert result.exit_code == 0


def test_load_corpus_config(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({
        "groups": ["S3", "C4"],
        "c44": [],
        "checks": ["CHK-DOLFI"],
    }))
    groups, c44, checks = load_corpus_config(path)
    assert groups == ["S3", "C4"]
    assert c44 == []
    assert checks == ["CHK-DOLFI"]
    path.write_text(json.dumps({"c44": []}))
    with pytest.raises(ValueError):
        load_corpus_config(path)
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_corpus_config(path)


def test_corpus_check_cap_is_indeterminate(monkeypatch):
    # a cap hit inside a check marks that group's report INDETERMINATE
    # and leaves the other group's report as it was
    clean = corpus_run(["S3", "C4"]).reports
    check = harness.check_same_vertices

    def boom(analysis):
        if analysis.spec == "S3":
            raise CapExceeded("forced")
        return check(analysis)

    monkeypatch.setattr(harness, "check_same_vertices", boom)
    result = corpus_run(["S3", "C4"])
    c4, s3 = result.reports
    assert c4 == clean[0]
    assert s3["spec"] == "S3"
    assert [v["check"] for v in s3["verdicts"]] == list(harness.CHECK_IDS)
    assert all(v["status"] == INDETERMINATE and "forced" in v["detail"]
               for v in s3["verdicts"])
    assert result.counts[INDETERMINATE] == len(harness.CHECK_IDS)
    assert result.exit_code == 0


def test_environment_enumeration_cap(analyses, monkeypatch):
    # analyze reads VG_ENUM_CAP each time it runs
    want = analyses("S5").table.degrees
    monkeypatch.setenv("VG_ENUM_CAP", "100")
    with pytest.raises(CapExceeded):
        harness.analyze("S5")
    monkeypatch.setenv("VG_ENUM_CAP", "1000")
    a = harness.analyze("S5")
    assert a.table.degrees == want
    # the classes hold the whole enumeration, so lookups check no cap
    assert [a.classes.class_of(rep) for rep in a.classes.reps] == \
        list(range(a.classes.count))


def test_environment_enumeration_cap_reaches_corpus_workers(monkeypatch):
    # pool workers inherit VG_ENUM_CAP; it is not in their arguments
    monkeypatch.setenv("VG_ENUM_CAP", "100")
    serial = corpus_run(["S3", "S5"], jobs=1)
    assert corpus_run(["S3", "S5"], jobs=2) == serial
    s3, s5 = serial.reports
    assert s3["spec"] == "S3" and s3["order"] == 6
    assert s5["spec"] == "S5"
    assert [v["check"] for v in s5["verdicts"]] == list(harness.CHECK_IDS)
    assert all(v["status"] == INDETERMINATE and
               v["detail"] == "order 120 exceeds enumeration cap 100"
               for v in s5["verdicts"])


# The six graph-reading checks written as loops over primes, class
# sizes and degrees, without PrimeGraph: an independent oracle.

def oracle_thma(analysis):
    if not analysis.structure.nonabelian_minimal_normals:
        return Verdict("CHK-THMA", VACUOUS,
                       "no nonabelian minimal normal subgroup")
    v_all = analysis.vanishing.size_primes
    graph_v = analysis.vanishing.vanishing_graph
    pairs = [(p, q) for i, p in enumerate(v_all) for q in v_all[i + 1:]
             if not graph_v.has_edge(p, q)]
    if not pairs:
        return Verdict("CHK-THMA", VACUOUS,
                       "every prime pair of V(G) is joined in the"
                       " vanishing graph")
    primes = sorted({r for pair in pairs for r in pair})
    return harness._pair_solvability(
        analysis, primes, "CHK-THMA",
        f"{{p,q}}-solvable for every unjoined pair in {pairs}")


def oracle_thmb(analysis):
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
    n = len(g.vertices)
    if len(g.edges) != n * (n - 1) // 2:
        absent = [[p, q] for i, p in enumerate(g.vertices)
                  for q in g.vertices[i + 1:] if not g.has_edge(p, q)]
        return Verdict("CHK-THMB", FAIL, "vanishing graph is not complete",
                       {"missing_edges": absent})
    return Verdict("CHK-THMB", PASS,
                   f"V_v = pi(G) = {sorted(primes)} and the vanishing"
                   " graph is complete")


def oracle_cor(analysis):
    if not analysis.structure.nonabelian_minimal_normals:
        return Verdict("CHK-COR", VACUOUS,
                       "no nonabelian minimal normal subgroup")
    sizes = analysis.classes.sizes
    vsizes = [sizes[k] for k in analysis.vanishing.vanishing_classes]
    primes = analysis.structure.primes
    verts = [p for p in primes if any(s % p == 0 for s in vsizes)]
    loose = [p for p in primes if p not in verts
             or any(not any(s % (p * q) == 0 for s in vsizes)
                    for q in verts if q != p)]
    if not loose:
        return Verdict("CHK-COR", VACUOUS,
                       "every prime divisor is a complete vertex of the"
                       " vanishing graph")
    return harness._pair_solvability(
        analysis, loose, "CHK-COR",
        f"p-solvable for every non-complete vertex in {loose}")


def oracle_l32(analysis):
    m_sub = harness._unique_nonabelian_minimal(analysis)
    if m_sub is None:
        return Verdict("CHK-L32", VACUOUS,
                       "no unique nonabelian minimal normal subgroup")
    sizes = analysis.classes.sizes
    van = set(analysis.vanishing.vanishing_classes)
    missing = []
    for p in analysis.structure.primes:
        if not any(k in van and sizes[k] % p == 0 for k in m_sub):
            missing.append(p)
    if missing:
        return Verdict("CHK-L32", FAIL,
                       "no vanishing witness inside the minimal normal"
                       f" subgroup for primes {missing}",
                       {"primes": missing})
    return Verdict("CHK-L32", PASS,
                   "pi(G) = V_v with all witnesses inside the socle")


def oracle_is_simple(analysis, m_sub):
    """Whether a nonabelian minimal normal subgroup M = T^k is simple,
    by permutation-level normal closures: M is simple iff every
    nontrivial G-class in M has normal closure M inside M, since for
    k > 1 a class meeting one factor T closes to that factor.  M = G is
    simple with no test."""
    if len(m_sub) == analysis.classes.count:
        return True
    reps = analysis.classes.reps
    seeds = [reps[j] for j in sorted(m_sub) if j]
    m_grp = normal_closure(analysis.group, seeds)
    return all(normal_closure(m_grp, [r]).order == m_grp.order
               for r in seeds)


def oracle_p34(analysis):
    socle = harness._unique_nonabelian_minimal(analysis)
    if socle is None or not oracle_is_simple(analysis, socle):
        return Verdict("CHK-P34", VACUOUS, "group is not almost simple")
    sizes = analysis.classes.sizes
    van = set(analysis.vanishing.vanishing_classes)
    primes = analysis.structure.primes
    bad = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if not any(k in van and sizes[k] % (p * q) == 0
                       for k in socle):
                bad.append([p, q])
    if bad:
        return Verdict("CHK-P34", FAIL,
                       "prime pairs lacking a socle vanishing witness",
                       {"pairs": bad})
    return Verdict("CHK-P34", PASS,
                   "all prime pairs joined through socle witnesses")


def oracle_cd_a(analysis):
    pairs = set()
    for d in analysis.table.degrees:
        ps = prime_divisors(d)
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                pairs.add((p, q))
    if not pairs:
        return Verdict("CHK-CD-A", VACUOUS,
                       "no character degree has two distinct prime"
                       " divisors")
    sizes = analysis.classes.sizes
    bad = [[p, q] for p, q in sorted(pairs)
           if not any(s % (p * q) == 0 for s in sizes)]
    if bad:
        return Verdict("CHK-CD-A", FAIL,
                       "degree pairs with no matching class size",
                       {"pairs": bad})
    return Verdict("CHK-CD-A", PASS,
                   f"every degree pair {sorted(pairs)} divides a class size")


ORACLES = {"CHK-THMA": oracle_thma, "CHK-THMB": oracle_thmb,
           "CHK-COR": oracle_cor, "CHK-L32": oracle_l32,
           "CHK-P34": oracle_p34, "CHK-CD-A": oracle_cd_a}


def with_vanishing(analysis, classes):
    """The analysis with only the given classes marked vanishing, so the
    theorems' FAIL branches are reached too."""
    sizes = analysis.classes.sizes
    van = dataclasses.replace(
        analysis.vanishing, vanishing_classes=tuple(classes),
        vanishing_graph=prime_graph(sizes[j] for j in classes))
    return dataclasses.replace(analysis, vanishing=van)


def assert_graph_checks_match_oracle(analysis):
    vc = analysis.vanishing.vanishing_classes
    for keep in (vc, vc[::2], vc[1::2], ()):
        doctored = with_vanishing(analysis, keep)
        verdicts = check_theorems(doctored, checks=list(ORACLES))
        assert [v.check for v in verdicts] == \
            [c for c in harness.CHECK_IDS if c in ORACLES]
        for v in verdicts:
            want = ORACLES[v.check](doctored)
            assert json.dumps(v.as_dict()) == json.dumps(want.as_dict()), \
                (v.check, keep)


@pytest.mark.parametrize("spec", ["S3 x A5", "A5 x A5", "C7 x A5", "S5"])
def test_graph_checks_match_loops(analyses, spec):
    assert_graph_checks_match_oracle(analyses(spec))


@settings(max_examples=25, deadline=None)
@given(two_generator_groups)
def test_graph_checks_match_loops_random(group):
    assert_graph_checks_match_oracle(harness.analyze(group))


def a5_wr_c2():
    """A5 wr C2 on 10 points, order 7200: its unique minimal normal
    subgroup A5 x A5 is not simple."""
    return PermGroup([parse_cycles(c, 10) for c in
                      ("(1 2 3)", "(1 2 3 4 5)",
                       "(1 6)(2 7)(3 8)(4 9)(5 10)")], degree=10)


def test_wreath_product_is_not_almost_simple():
    a = harness.analyze(a5_wr_c2())
    assert a.group.order == 7200
    socle = harness._unique_nonabelian_minimal(a)
    assert a.structure.order(socle) == 3600
    assert harness._is_simple(a, socle) is False
    assert verdict_map(a)["CHK-P34"].as_dict() == {
        "check": "CHK-P34", "status": VACUOUS,
        "detail": "group is not almost simple"}


def simple_socle_answers(analysis):
    """(engine, oracle) answers on the unique nonabelian minimal normal
    subgroup, or None when there is no such subgroup."""
    socle = harness._unique_nonabelian_minimal(analysis)
    if socle is None:
        return None
    return (harness._is_simple(analysis, socle),
            oracle_is_simple(analysis, socle))


def test_is_simple_matches_normal_closures(analyses):
    answers = {spec: simple_socle_answers(analyses(spec))
               for spec in DEFAULT_CORPUS + ("S7", "A8", "S8")}
    answers["A5 wr C2"] = simple_socle_answers(harness.analyze(a5_wr_c2()))
    compared = {spec: pair for spec, pair in answers.items() if pair}
    assert compared == {
        spec: (True, True)
        for spec in ("S5", "S6", "A5", "A6", "A7", "PSL(2,5)", "PSL(2,7)",
                     "S7", "A8", "S8")} | {"A5 wr C2": (False, False)}


@settings(max_examples=25, deadline=None)
@given(two_generator_groups)
def test_is_simple_matches_normal_closures_random(group):
    pair = simple_socle_answers(harness.analyze(group))
    assert pair is None or pair[0] == pair[1]


def test_check_fail_branches(analyses):
    # each analysis is doctored so that one check's FAIL return runs
    a5 = with_vanishing(analyses("A5"), ())
    assert verdict_map(a5, checks=["CHK-PROP"])["CHK-PROP"] == Verdict(
        "CHK-PROP", FAIL, "vertex sets differ", {"V": [2, 3, 5], "V_v": []})
    # S3 is 2-nilpotent with abelian Sylow 2, but has no normal
    # 3-complement, so has_abelian_sylow(3) is None
    s3 = with_vanishing(analyses("S3"), ())
    assert s3.structure.has_abelian_sylow(2) is True
    assert s3.structure.has_abelian_sylow(3) is None
    assert verdict_map(s3, checks=["CHK-DOLFI"])["CHK-DOLFI"] == Verdict(
        "CHK-DOLFI", FAIL,
        "missing normal complement or nonabelian Sylow for p in [3]",
        {"primes": [3]})
    s5 = analyses("S5")
    edgeless = PrimeGraph(s5.vanishing.graph.vertices, ())
    s5 = dataclasses.replace(
        s5, vanishing=dataclasses.replace(s5.vanishing, graph=edgeless))
    assert verdict_map(s5, checks=["CHK-CD-A"])["CHK-CD-A"] == Verdict(
        "CHK-CD-A", FAIL, "degree pairs with no matching class size",
        {"pairs": [(2, 3)]})
    s4 = with_vanishing(analyses("S4"), ())
    assert verdict_map(s4, checks=["CHK-C44"])["CHK-C44"] == Verdict(
        "CHK-C44", FAIL, "non-vanishing classes inside M minus N",
        {"classes": [3], "sizes": [8]})
