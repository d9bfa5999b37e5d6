"""Command-line interface contract."""

import concurrent.futures
import functools
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

from vangraph import caps, cli, deleted, harness
from vangraph.cli import main
from vangraph.harness import FAIL, Verdict
from vangraph.structure import SeparationAnomaly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_stdout(capsys):
    code, out, _ = run(capsys, "analyze", "S3")
    assert code == 0
    assert "group S3: order 6, degree 3" in out
    assert "V = [2, 3]  V_v = [3]" in out
    assert "CHK-DOLFI PASS" in out


def test_analyze_json_and_dot(capsys, tmp_path):
    json_path = tmp_path / "a5.json"
    prefix = tmp_path / "a5"
    code, _, _ = run(capsys, "analyze", "A5", "--json", str(json_path),
                     "--dot-prefix", str(prefix))
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["order"] == 60
    assert data["V_v"] == [2, 3, 5]
    assert data["vanishing_graph"]["edges"] == [[2, 3], [2, 5], [3, 5]]
    class_dot = (tmp_path / "a5_class_graph.dot").read_text()
    van_dot = (tmp_path / "a5_vanishing_graph.dot").read_text()
    assert class_dot.startswith("graph G {")
    assert "2 -- 3 [style=bold];" in class_dot
    assert "2 -- 3;" in van_dot


def test_analyze_fail_exits_1(capsys, monkeypatch):
    # a FAIL sets exit code 1, as in check and corpus, and the report is
    # still printed whole
    _, clean, _ = run(capsys, "analyze", "S3")
    monkeypatch.setattr(harness, "check_same_vertices",
                        lambda analysis: Verdict("CHK-PROP", FAIL, "forced"))
    code, out, err = run(capsys, "analyze", "S3")
    assert (code, err) == (1, "")
    assert out == clean.replace(
        "CHK-PROP VACUOUS no nonabelian minimal normal subgroup",
        "CHK-PROP FAIL forced")


def test_analyze_bad_spec_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "Q8")
    assert code == 2
    assert err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "A5")
    assert code == 0
    assert "CHK-THMB PASS" in out
    code, _, _ = run(capsys, "check", "NOT_A_GROUP")
    assert code == 2


def test_internal_errors_exit_3(capsys, monkeypatch):
    # 1 means a check FAILed; an internal consistency failure must not
    # share that code
    for exc in (ArithmeticError("table inconsistent"),
                AssertionError("invariant broken")):
        def boom(spec, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "analyze", boom)
        code, out, err = run(capsys, "check", "S3")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert str(exc) in err


def test_memory_error_exits_2(capsys, monkeypatch):
    # running out of memory is not a verdict: exit 2 with one line, no
    # traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_check", exhausted)
    code, out, err = run(capsys, "check", "S3")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_corpus_inline(capsys, tmp_path):
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": ["S3", "C4"]}))
    code, out, err = run(capsys, "corpus", "--config", str(config))
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert [l["spec"] for l in lines] == ["C4", "S3"]
    assert "FAIL=0" in err
    assert "CHK-THMA[VACUOUS]" in err


def test_corpus_capped_group_is_indeterminate(capsys, tmp_path):
    # C61 has 61 classes, over the table cap of 60; it gets its own
    # INDETERMINATE report and the corpus goes on
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": ["S3", "C61"]}))
    code, out, err = run(capsys, "corpus", "--config", str(config))
    assert code == 0
    capped, s3 = [json.loads(l) for l in out.splitlines()]
    assert capped == {"spec": "C61", "verdicts": [
        {"check": check, "status": "INDETERMINATE",
         "detail": "61 classes exceeds table cap 60"}
        for check in harness.CHECK_IDS]}
    alone = harness.corpus_run(["S3"])
    assert s3 == alone.reports[0]
    assert "INDETERMINATE=9" in err
    assert "FAIL=0" in err


_corpus_worker = harness._corpus_worker


def _dies_on_a4(args):
    """A corpus worker whose process ends, as when the out-of-memory
    killer takes it, for the first of the groups below."""
    if args[0] == "A4":
        os._exit(9)
    return _corpus_worker(args)


def test_corpus_dead_worker_exits_2(capsys, monkeypatch, tmp_path):
    # a real pool under the fork start method, so the workers inherit
    # the patched worker function
    monkeypatch.setattr(harness, "_corpus_worker", _dies_on_a4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(
                            concurrent.futures.ProcessPoolExecutor,
                            mp_context=multiprocessing.get_context("fork")))
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": ["S3", "A4", "C4"]}))
    code, out, err = run(capsys, "corpus", "--config", str(config),
                         "--jobs", "2")
    assert (code, out) == (2, "")
    assert err == "error: a corpus worker died before reporting A4\n"


def test_corpus_bad_config_exits_2(capsys, tmp_path):
    config = tmp_path / "corpus.json"
    config.write_text("{broken")
    code, _, _ = run(capsys, "corpus", "--config", str(config))
    assert code == 2
    config.write_text(json.dumps({"groups": ["NOT_A_GROUP"]}))
    code, _, _ = run(capsys, "corpus", "--config", str(config))
    assert code == 2
    # malformed shapes are input errors, never the FAIL code or a crash
    good = dict(harness.DEFAULT_C44_CONFIGS[2])
    no_group = {key: v for key, v in good.items() if key != "group"}
    # every malformed shape the README lists
    for bad in ({"groups": "S3"}, {"groups": ["S3", 4]},
                {"groups": ["NOT_A_GROUP"]},
                {"checks": [["CHK-PROP"]]}, {"checks": "CHK-PROP"},
                {"checks": ["CHK-NONE"]}, {"chekcs": ["CHK-PROP"]},
                {"c44": dict(good)}, {"c44": [5]}, {"c44": [no_group]},
                {"c44": [dict(good, a=[1])]},
                {"c44": [dict(good, a="(1 2 3)")]},
                {"c44": [dict(good, group=5)]},
                {"c44": [dict(good, group="NOT_A_GROUP")]},
                {"c44": [dict(good, p="3")]},
                {"c44": [dict(good, p=4)]},
                {"c44": [dict(good, m=["(1 99)"])]},
                {"c44": [dict(good, pp=5)]}):
        config.write_text(json.dumps({"groups": ["S3"], **bad}))
        code, out, err = run(capsys, "corpus", "--config", str(config))
        assert code == 2, bad
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


def test_corpus_jobs_below_one_exits_2(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "corpus", "--jobs", jobs)
        assert (code, out) == (2, ""), jobs
        assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_symchar(capsys):
    code, out, _ = run(capsys, "symchar", "--lambda", "5,2,1",
                       "--mu", "2,2,2,2")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "symchar", "--lambda", "2,1", "--mu", "3")
    assert out.strip() == "-1"
    code, _, _ = run(capsys, "symchar", "--lambda", "2,1", "--mu", "4")
    assert code == 2


def test_symchar_long_cycle_type(capsys):
    # 600 cycles: the rule runs as a loop, so no recursion limit applies
    code, out, err = run(capsys, "symchar", "--lambda", "600",
                         "--mu", ",".join(["1"] * 600))
    assert (code, out, err) == (0, "1\n", "")


def test_symchar_bad_partition_exits_2(capsys):
    code, out, err = run(capsys, "symchar", "--lambda", "5,x",
                         "--mu", "2,2,2,2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_bad_generator_file_exits_2(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("degree: 3\n(1 2\n")
    code, out, err = run(capsys, "check", f"file:{gens}")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: bad generator file")


def test_modorbit(capsys, tmp_path):
    code, out, err = run(capsys, "modorbit", "--n", "3", "--q", "5")
    assert code == 0
    assert "orbit_size,count" in out
    assert "1,1" in out and "12,2" in out
    assert "# regular_orbit=yes" in out
    assert "(1, 2, 2)" in err
    csv_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "modorbit", "--n", "3", "--q", "5",
                       "--census", str(csv_path))
    assert code == 0
    assert csv_path.read_text() == "orbit_size,count\n1,1\n12,2\n"
    assert out.strip() == "regular_orbit=yes"


def test_modorbit_bad_field(capsys):
    code, _, _ = run(capsys, "modorbit", "--n", "5", "--q", "4")
    assert code == 2


def test_modorbit_refuses_oversize_input_quickly(capsys):
    # q^(n-1) passes the cap: refused before q is trial-divided (q near
    # 10^18) and before the power is formed (n = 10^6)
    for n, q in (("3", "1000000000000000003"), ("1000000", "1000003")):
        start = time.perf_counter()
        code, out, err = run(capsys, "modorbit", "--n", n, "--q", q)
        assert time.perf_counter() - start < 2, (n, q)
        assert (code, out) == (2, ""), (n, q)
        assert err == f"cap exceeded: {q}^{int(n) - 1} vectors exceeds" \
                      " the bound 20000000\n"


def test_modorbit_uncovered_census_exits_3(capsys, monkeypatch):
    # dropping the zero multiset loses one vector; every orbit size
    # still divides the group order, so only the covering certificate
    # can catch it
    def all_but_zero(values, r):
        return itertools.islice(
            itertools.combinations_with_replacement(values, r), 1, None)

    monkeypatch.setattr(deleted, "combinations_with_replacement",
                        all_but_zero)
    code, out, err = run(capsys, "modorbit", "--n", "3", "--q", "5")
    assert code == 3
    assert out == ""
    assert "do not cover the 25 vectors" in err


def test_sepsets(capsys):
    code, out, _ = run(capsys, "sepsets", "S3", "--p", "2", "--q", "3")
    assert code == 0
    assert "first subset: [1]" in out
    assert "second subset: [2]" in out
    assert "index 6" in out


def test_sepsets_huge_prime_answers_at_once(capsys):
    # 10^18 + 3 is prime; telling so takes Miller-Rabin, not trial division
    start = time.perf_counter()
    code, out, _ = run(capsys, "sepsets", "S4", "--p", "1000000000000000003",
                       "--q", "3")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out.startswith("first subset: [1]")


def test_primes_past_the_proof_bound_exit_2_at_once(capsys, tmp_path):
    # Miller-Rabin with fixed bases is a proof only below 3.3 * 10^24,
    # so a larger prime is refused up front, whatever command reads it
    big = str((2 ** 61 - 1) * (2 ** 31 - 1))
    config = tmp_path / "corpus.json"
    c44 = dict(harness.DEFAULT_C44_CONFIGS[2], p=int(big))
    config.write_text(json.dumps({"groups": ["S3"], "c44": [c44]}))
    for argv in (("sepsets", "S4", "--p", big, "--q", "3"),
                 ("check", "PSL(2,10000000000000000000000013)"),
                 ("corpus", "--config", str(config))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1, err
        assert err.startswith("error: ") and \
            "is too large to prove prime" in err, err


def test_degree_past_the_cap_exits_2_at_once(capsys, tmp_path):
    # the chain of C_n holds n tuples of n points, so building any of
    # these would need terabytes; each is refused before a group is built
    grp = tmp_path / "big.grp"
    grp.write_text("degree: 1000000000000\n(1 2)\n")
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": ["S3", "C99999999999"]}))
    for argv, degree in ((("check", "C99999999999"), 99999999999),
                         (("analyze", f"file:{grp}"), 10 ** 12),
                         (("corpus", "--config", str(config)), 99999999999)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1, err
        assert err.startswith("error: ") and err.endswith(
            f"degree {degree} exceeds degree cap {caps.DEGREE_CAP}\n"), err


def test_sepsets_anomaly_exits_1(capsys, monkeypatch):
    def no_witness(group, p, q):
        raise SeparationAnomaly(group, p, q)

    monkeypatch.setattr(cli, "separating_subsets", no_witness)
    code, out, err = run(capsys, "sepsets", "S4", "--p", "2", "--q", "3")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("anomaly: no separating subsets for primes 2,3")


def test_sepsets_beyond_enumeration_cap(capsys):
    # |S9| = 362880 is above the enumeration cap; sepsets never enumerates
    code, out, _ = run(capsys, "sepsets", "S9", "--p", "2", "--q", "3")
    assert code == 0
    assert out == ("first subset: [1]\nsecond subset: [2]\n"
                   "joint stabilizer order 5040, index 72\n")


def test_bad_enumeration_cap_is_an_input_error(capsys, monkeypatch, tmp_path):
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"groups": ["S3"]}))
    for raw in ("abc", "0"):
        monkeypatch.setenv("VG_ENUM_CAP", raw)
        for argv in (("check", "S3"), ("corpus", "--config", str(config))):
            code, out, err = run(capsys, *argv)
            assert code == 2, (raw, argv)
            assert out == ""
            assert err == ("error: VG_ENUM_CAP must be a positive integer,"
                           f" got {raw!r}\n")
    # sepsets never enumerates, so it does not read the variable
    monkeypatch.setenv("VG_ENUM_CAP", "abc")
    code, out, _ = run(capsys, "sepsets", "S4", "--p", "2", "--q", "3")
    assert code == 0
    assert out.startswith("first subset: [1]")


def test_sepsets_rejects_non_primes(capsys):
    for p, q in (("0", "3"), ("4", "6")):
        code, out, err = run(capsys, "sepsets", "S4", "--p", p, "--q", q)
        assert code == 2, (p, q)
        assert out == ""
        assert err.startswith("error: p and q must be prime")


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "vangraph", "check", "S3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "CHK-DOLFI PASS" in proc.stdout


def test_cli_import_leaves_out_the_process_pool():
    # only corpus --jobs > 1 needs multiprocessing; a fresh interpreter
    # importing the CLI must not load it
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vangraph.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
