"""Per-group analysis, theorem verdicts, and the corpus runner."""

import json

import pytest

from vangraph import harness
from vangraph.caps import CapExceeded, Caps
from vangraph.harness import (DEFAULT_C44_CONFIGS, DEFAULT_CORPUS,
                              FAIL, INDETERMINATE, PASS, VACUOUS, Verdict,
                              check_theorems, corpus_run,
                              load_corpus_config, report_dict,
                              validate_c44_config)
from vangraph.structure import GroupStructure


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
    good = dict(DEFAULT_C44_CONFIGS[0])
    validate_c44_config(good)
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


def test_c44_vacuous_when_hypotheses_fail(analyses):
    a = analyses("S4")
    # A not normal: seed a non-normal cyclic subgroup
    config = {"group": "S4", "a": ["(1 2)"], "m": ["(1 2)", "(1 2 3)"],
              "n": ["(1 2 3)"], "p": 2}
    (verdict,) = check_theorems(a, c44_configs=[config], checks=["CHK-C44"])
    assert verdict.status == VACUOUS
    assert "hypothesis failed" in verdict.detail


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


def test_analyze_runs_structure_certificates(monkeypatch):
    # analyze evaluates both certificates itself, so a wrong table
    # raises before any check or report reads the structure
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
    with pytest.raises(ArithmeticError, match="derived subgroup"):
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


def test_indeterminate_on_cap(analyses, monkeypatch):
    def boom(analysis):
        raise CapExceeded("forced")

    monkeypatch.setattr(harness, "check_same_vertices", boom)
    (v,) = check_theorems(analyses("S3"), checks=["CHK-PROP"])
    assert v.status == INDETERMINATE
    assert "forced" in v.detail


def test_explicit_caps_override_environment(analyses, monkeypatch):
    # every stage of the analysis uses the caps it is given, not the
    # environment's default enumeration cap
    want = analyses("S5").table.degrees
    monkeypatch.setenv("VG_ENUM_CAP", "100")
    with pytest.raises(CapExceeded):
        harness.analyze("S5")
    a = harness.analyze("S5", Caps(enum_cap=1000))
    assert a.table.degrees == want
    # the classes hold the whole enumeration, so lookups check no cap
    assert [a.classes.class_of(rep) for rep in a.classes.reps] == \
        list(range(a.classes.count))
