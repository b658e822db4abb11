import json
import time

import pytest
from click.testing import CliRunner

import invcat.cli
import invcat.core
from invcat import (
    Budget,
    build_category,
    check_baer_star,
    check_coherence,
    check_exactness,
    check_inverse_category,
    classify_exactness,
    cyclic_group,
    is_group,
    parse_spec,
    symmetric_inverse_monoid,
    two_object_category,
)
from invcat.cli import main
from invcat.report import PASS, merge_reports
from test_golden import NOT_BAER_STAR
from test_monoid import CLASSIFICATION_CORPUS
from test_specfile import I5_DOC, UNREADABLE

FIXTURE_DOC = {
    "format-version": 1,
    "objects": [
        {"name": "A", "elements": ["1", "2", "3"]},
        {"name": "B", "elements": ["a", "b", "c"]},
    ],
    "morphisms": [
        {"name": "f", "dom": "A", "cod": "B", "pairs": [["1", "a"], ["2", "b"]]}
    ],
}

PBIJ23_DOC = {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": [2, 3]}}


def monoid_doc(monoid):
    """A spec whose inverse-monoid generator is the monoid's Cayley table."""
    table = [[monoid.product(x, y) for y in monoid.elements] for x in monoid.elements]
    return {"format-version": 1, "generators": {
        "kind": "inverse-monoid", "elements": list(monoid.elements),
        "identity": monoid.identity, "table": table}}

Z2_TABLE = {"elements": ["1", "a"], "identity": "1",
            "table": [["1", "a"], ["a", "1"]]}
SL2_TABLE = {"elements": ["1", "e"], "identity": "1",
             "table": [["1", "e"], ["e", "e"]]}
LEFT_ZERO_TABLE = {"elements": ["1", "x", "y"], "identity": "1",
                   "table": [["1", "x", "y"], ["x", "x", "x"], ["y", "y", "y"]]}
NON_ASSOCIATIVE_TABLE = {"elements": ["1", "a", "b"], "identity": "1",
                         "table": [["1", "a", "b"], ["a", "b", "a"], ["b", "b", "b"]]}


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_enumerate_prints_hom_count(runner):
    result = runner.invoke(main, ["enumerate", "--sizes", "3,3"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "34"


def test_enumerate_rejects_bad_sizes(runner):
    assert runner.invoke(main, ["enumerate", "--sizes", "3"]).exit_code == 2
    assert runner.invoke(main, ["enumerate", "--sizes", "x,y"]).exit_code == 2
    assert runner.invoke(main, ["enumerate", "--sizes", "-1,2"]).exit_code == 2


def test_enumerate_honors_budget(runner):
    assert runner.invoke(main, ["enumerate", "--sizes", "5,5"]).exit_code == 3
    grown = runner.invoke(main, ["enumerate", "--sizes", "5,5", "--max-size", "5"])
    assert grown.exit_code == 0
    assert grown.output.strip() == "1546"


@pytest.mark.parametrize(
    "sizes,count",
    [("20000,20000", "at least 210"), ("3,10000000", "1000000000000020000001")],
)
def test_enumerate_decides_the_budget_before_building_anything(runner, monkeypatch, sizes, count):
    # the closed-form count of hom(20000, 20000) sums 20,001 huge terms, and
    # S10000000 holds ten million labels: neither may be made to reject them
    real_count = invcat.cli.hom_count
    monkeypatch.setattr(invcat.cli, "size_finset", lambda k: pytest.fail(f"built S{k}"))
    monkeypatch.setattr(
        invcat.cli, "hom_count", lambda m, n: real_count(m, n) if min(m, n) <= 4 else pytest.fail(f"counted {m},{n}")
    )
    result = runner.invoke(main, ["enumerate", "--sizes", sizes])
    assert result.exit_code == 3, result.output
    m, n = sizes.split(",")
    assert f"hom(S{m}, S{n}) has {count} morphisms, over the enumeration budget" in result.output


@pytest.mark.parametrize(
    "args,env,code,output",
    [
        (["enumerate", "--sizes", "3,3", "--max-size", "20000"], {}, 0, "34"),
        (["enumerate", "--sizes", "3,3"], {"INVCAT_MAX_SIZE": "20000"}, 0, "34"),
        (
            ["enumerate", "--sizes", "2001,2001", "--max-size", "2000"],
            {},
            3,
            "hom(S2001, S2001) has at least 9223372036854775808 morphisms, over the enumeration budget",
        ),
        (["axioms", "--spec", "PBIJ01", "--max-size", "20000"], {}, 0, '"suite": "axioms"'),
    ],
)
def test_a_large_max_size_is_not_summed(runner, tmp_path, monkeypatch, args, env, code, output):
    # hom(20000, 20000) has 20,001 huge terms and about 77,000 digits: past
    # hom(18, 18) the limit is sys.maxsize, which no hom-set that fits in a
    # tuple passes, and neither it nor a count of more than 18 terms is summed
    def guarded(real):
        return lambda m, n: real(m, n) if min(m, n) <= 18 else pytest.fail(f"summed {m},{n}")

    monkeypatch.setattr(invcat.core, "pbij_counts_by_rank", guarded(invcat.core.pbij_counts_by_rank))
    monkeypatch.setattr(invcat.cli, "hom_count", guarded(invcat.cli.hom_count))
    spec = write(tmp_path, "pbij01.json", {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": [0, 1]}})
    result = runner.invoke(main, [spec if a == "PBIJ01" else a for a in args], env=env)
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert output in result.output


def test_enumerate_reads_env_budget(runner):
    result = runner.invoke(main, ["enumerate", "--sizes", "3,3"],
                           env={"INVCAT_MAX_SIZE": "2"})
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "functor,projection,expected",
    [
        ("P", "1,3", "{a}"),
        ("P'", "a,c", "{1,3}"),
        ("P''", "a,c", "{1}"),
        ("P'", "", "{3}"),
        ("P", "", "{}"),
    ],
)
def test_eval_fixture_values(runner, tmp_path, functor, projection, expected):
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    result = runner.invoke(main, [
        "eval", "--spec", spec, "--functor", functor,
        "--morphism", "f", "--projection", projection,
    ])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == expected


def test_eval_error_paths(runner, tmp_path):
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    unknown = runner.invoke(main, ["eval", "--spec", spec, "--functor", "P",
                                   "--morphism", "nope", "--projection", "1"])
    assert unknown.exit_code == 2
    wrong_side = runner.invoke(main, ["eval", "--spec", spec, "--functor", "P",
                                      "--morphism", "f", "--projection", "a"])
    assert wrong_side.exit_code == 2
    assert "must live on dom(f)" in wrong_side.output
    wrong_side = runner.invoke(main, ["eval", "--spec", spec, "--functor", "P''",
                                      "--morphism", "f", "--projection", "1"])
    assert wrong_side.exit_code == 2
    assert "must live on cod(f)" in wrong_side.output
    monoid_spec = write(tmp_path, "m.json", {
        "format-version": 1,
        "generators": {"kind": "inverse-monoid", "elements": ["1"],
                        "identity": "1", "table": [["1"]]},
    })
    no_pairs = runner.invoke(main, ["eval", "--spec", monoid_spec, "--functor", "P",
                                    "--morphism", "1", "--projection", ""])
    assert no_pairs.exit_code == 2


def test_eval_does_not_saturate_an_explicit_spec(runner, tmp_path, monkeypatch):
    # the declared morphisms are all eval needs; saturating I5 takes seconds
    def saturate(*args):
        raise AssertionError("eval saturated the spec")

    monkeypatch.setattr("invcat.specfile._saturate", saturate)
    spec = write(tmp_path, "i5.json", I5_DOC)
    result = runner.invoke(main, ["eval", "--spec", spec, "--functor", "P",
                                  "--morphism", "cycle", "--projection", "1,2"])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "{2,3}"


@pytest.mark.parametrize("functor,projection", [("P", "1,1"), ("P'", "a,c,a"), ("P''", "b,b")])
def test_eval_rejects_repeated_labels(runner, tmp_path, functor, projection):
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    result = runner.invoke(main, ["eval", "--spec", spec, "--functor", functor,
                                  "--morphism", "f", "--projection", projection])
    assert result.exit_code == 2
    assert "given more than once" in result.output


def test_eval_checks_many_labels_in_linear_time(runner, tmp_path):
    # each label is looked up in a set and counted once: a scan per label
    # made 60,000 repeated labels take seconds to reach exit 2
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    t0 = time.perf_counter()
    repeated = runner.invoke(main, ["eval", "--spec", spec, "--functor", "P",
                                    "--morphism", "f", "--projection", "1,2," * 30_000])
    labels = [f"x{i}" for i in range(20_000)]
    big = write(tmp_path, "big.json", {
        "format-version": 1,
        "objects": [{"name": "A", "elements": labels}, {"name": "B", "elements": ["b"]}],
        "morphisms": [{"name": "f", "dom": "A", "cod": "B", "pairs": [["x0", "b"]]}],
    })
    unknown = runner.invoke(main, ["eval", "--spec", big, "--functor", "P",
                                   "--morphism", "f", "--projection", ",".join(labels + ["y"])])
    elapsed = time.perf_counter() - t0
    assert repeated.exit_code == 2
    assert "labels ['1', '2'] are given more than once" in repeated.output
    assert unknown.exit_code == 2
    assert "labels ['y'] are not elements of A" in unknown.output
    assert elapsed < 3.0, elapsed


def test_boolean_size_is_invalid_input(runner, tmp_path):
    spec = write(tmp_path, "spec.json", {"format-version": 1,
                                         "generators": {"kind": "all-pbij", "sizes": [True, 2]}})
    result = runner.invoke(main, ["axioms", "--spec", spec])
    assert result.exit_code == 2, result.output
    assert "bad size True" in result.output


@pytest.mark.parametrize(
    "args,env",
    [
        (["--max-size", "two"], {}),
        ([], {"INVCAT_MAX_SIZE": "2.5"}),
        (["--max-size", "-1"], {}),
        ([], {"INVCAT_MAX_SIZE": "-1"}),
    ],
)
def test_budget_bounds_are_usage_errors(runner, tmp_path, args, env):
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    result = runner.invoke(main, ["axioms", "--spec", spec, *args], env=env)
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output and "Traceback" not in result.output


def test_axioms_green_on_generated_category(runner, tmp_path):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    result = runner.invoke(main, ["axioms", "--spec", spec])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["suite"] == "axioms"
    assert all(c["status"] != "fail" for c in doc["clauses"])
    assert doc["stats"]["morphisms-enumerated"] > 0


def test_axioms_exit_one_with_witness_on_truncated_category(runner, tmp_path):
    # the fixture category only contains composites of f, so annihilator
    # closure genuinely fails: a seeded, honest clause failure
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    result = runner.invoke(main, ["axioms", "--spec", spec])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    failing = {c["clause-id"]: c for c in doc["clauses"] if c["status"] == "fail"}
    assert "baer.projections-closed" in failing
    assert failing["baer.projections-closed"]["counterexample"]


def test_exactness_command(runner, tmp_path):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    result = runner.invoke(main, ["exactness", "--spec", spec])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["details"]["exact"] is True
    ids = {c["clause-id"] for c in doc["clauses"]}
    assert "theorem.exact-iff-baer" in ids
    assert "coherence.kernel-annihilator" in ids


def test_exactness_reports_a_missing_factorization(runner, tmp_path):
    # the README fixture is not exact: a missing construction is a failing
    # clause (exit 1 with a report), not malformed input (exit 2)
    spec = write(tmp_path, "spec.json", FIXTURE_DOC)
    result = runner.invoke(main, ["exactness", "--spec", spec])
    assert result.exit_code == 1, result.output
    doc = json.loads(result.output)
    assert doc["details"]["exact"] is False
    clause = next(c for c in doc["clauses"] if c["clause-id"] == "coherence.image-via-projection")
    assert clause["status"] == "fail"
    assert clause["counterexample"] == "A→A {1↦1, 2↦2} has no mono-epi factorization"


def test_theorems_command_and_suite_choice(runner, tmp_path):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    result = runner.invoke(main, ["theorems", "--suite", "3.5", "--spec", spec])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["suite"] == "theorems-3.5"
    bogus = runner.invoke(main, ["theorems", "--suite", "9.9", "--spec", spec])
    assert bogus.exit_code == 2


def test_theorems_missing_annihilator_exits_one(runner, tmp_path):
    spec = write(tmp_path, "spec.json", NOT_BAER_STAR)
    result = runner.invoke(main, ["theorems", "--suite", "3.3", "--spec", spec])
    assert result.exit_code == 1, result.output
    failing = [c for c in json.loads(result.output)["clauses"] if c["status"] == "fail"]
    assert any("no projection annihilates" in c["counterexample"] for c in failing)


def test_classify_command(runner, tmp_path):
    good = runner.invoke(main, ["classify", "--monoid",
                                write(tmp_path, "z2.json", Z2_TABLE)])
    assert good.exit_code == 0, good.output
    doc = json.loads(good.output)
    assert doc["details"]["is-group"] is True and doc["details"]["is-exact"] is True

    sl = runner.invoke(main, ["classify", "--monoid",
                              write(tmp_path, "sl2.json", SL2_TABLE)])
    assert sl.exit_code == 0, sl.output
    sl_doc = json.loads(sl.output)
    assert sl_doc["details"]["is-group"] is False
    assert sl_doc["details"]["failing-clauses"]

    broken = runner.invoke(main, ["classify", "--monoid",
                                  write(tmp_path, "lz.json", LEFT_ZERO_TABLE)])
    assert broken.exit_code == 1
    broken_doc = json.loads(broken.output)
    assert broken_doc["clauses"][0]["clause-id"] == "classify.monoid-axioms"
    assert broken_doc["clauses"][0]["counterexample"]

    malformed = runner.invoke(main, ["classify", "--monoid",
                                     write(tmp_path, "bad.json", {"elements": ["1"]})])
    assert malformed.exit_code == 2

    missing = runner.invoke(main, ["classify", "--monoid",
                                   str(tmp_path / "absent.json")])
    assert missing.exit_code == 2


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("command, option", [("axioms", "--spec"), ("classify", "--monoid")])
def test_unreadable_input_exits_two(runner, tmp_path, command, option, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[name])
    result = runner.invoke(main, [command, option, str(path)])
    assert result.exit_code == 2, result.output


def test_out_flag_writes_file(runner, tmp_path):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["axioms", "--spec", spec, "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["suite"] == "axioms"


# classify writes its monoid-axioms failure report through the same path
@pytest.mark.parametrize("command, option, doc", [
    ("axioms", "--spec", PBIJ23_DOC),
    ("classify", "--monoid", NON_ASSOCIATIVE_TABLE),
])
def test_unwritable_out_exits_two(runner, tmp_path, command, option, doc):
    out = tmp_path / "missing" / "r.json"
    result = runner.invoke(main, [command, option, write(tmp_path, "in.json", doc), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: cannot write {out}: " in result.output
    assert not out.exists()


def test_reports_deterministic_modulo_wall_time(runner, tmp_path):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    docs = []
    for _ in range(2):
        result = runner.invoke(main, ["exactness", "--spec", spec])
        doc = json.loads(result.output)
        doc["stats"].pop("wall-time")
        docs.append(doc)
    assert docs[0] == docs[1]


# S5 has 1,546 endomorphisms, over the default 209; hom(S400, S400) is
# counted, never drawn from, though its count is too large for a float
@pytest.mark.parametrize("size, count", [(5, "1546"), (400, "at least 2^2939")], ids=["S5", "S400"])
@pytest.mark.parametrize("command", [["axioms"], ["exactness"], ["theorems", "--suite", "all"]])
def test_over_budget_hom_set_exits_three(runner, tmp_path, command, size, count):
    # every run is exhaustive: a hom-set over the budget ends it with exit 3
    # and no report
    doc = {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": [0, size]}}
    result = runner.invoke(main, [*command, "--spec", write(tmp_path, "spec.json", doc)])
    assert result.exit_code == 3, result.output
    assert f"hom(S{size}, S{size}) has {count} morphisms, over the enumeration budget" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [["axioms"], ["exactness"], ["theorems", "--suite", "all"]])
def test_saturation_over_budget_exits_three(runner, tmp_path, command):
    spec = write(tmp_path, "i5.json", I5_DOC)
    result = runner.invoke(main, [*command, "--spec", spec])
    assert result.exit_code == 3, result.output
    assert "hom(A, A) has at least 210 morphisms" in result.output


# The reference is the merge of the public checks, each in its own run, that
# the composite commands used to make.
SEPARATE_RUNS = {
    "axioms": (check_inverse_category, check_baer_star),
    "exactness": (check_exactness, check_coherence),
}
COMPOSITE_INPUTS = {
    "readme-fixture": FIXTURE_DOC,
    "not-baer-star": NOT_BAER_STAR,
    "pbij23": PBIJ23_DOC,
    "I2": monoid_doc(symmetric_inverse_monoid(2)),
    "C3": monoid_doc(cyclic_group(3)),
}


@pytest.mark.parametrize("command", sorted(SEPARATE_RUNS))
@pytest.mark.parametrize("name", sorted(COMPOSITE_INPUTS))
def test_composite_report_equals_the_separate_runs(runner, tmp_path, command, name):
    doc = COMPOSITE_INPUTS[name]
    result = runner.invoke(main, [command, "--spec", write(tmp_path, "spec.json", doc)])
    assert result.exit_code in (0, 1), result.output
    got = json.loads(result.output)
    cat, _ = build_category(parse_spec(doc), Budget())
    want = merge_reports(command, *(check(cat) for check in SEPARATE_RUNS[command]))
    want = want.to_dict()
    for report in (got, want):
        del report["stats"]["wall-time"]
    assert got == want


@pytest.mark.parametrize("name", sorted(CLASSIFICATION_CORPUS))
def test_classify_equals_the_separate_runs(name):
    monoid = CLASSIFICATION_CORPUS[name]()
    cat = two_object_category(monoid)
    axioms, exactness = check_inverse_category(cat), check_exactness(cat)
    broken = axioms.failures()
    failing = [c.clause_id for c in exactness.failures()]
    agree = exactness.passed == is_group(monoid)
    assert not broken and agree, name
    want = {
        "format-version": 1,
        "suite": "classify",
        "clauses": [
            {"clause-id": "classify.inverse-category", "anchor": "1", "status": PASS,
             "checked": sum(c.checked for c in axioms.clauses)},
            {"clause-id": "classify.exact-iff-group", "anchor": "1", "status": PASS,
             "checked": 1},
        ],
        "stats": {"morphisms-enumerated": max(axioms.morphisms_enumerated,
                                              exactness.morphisms_enumerated)},
        "details": {"monoid-size": len(monoid), "is-group": is_group(monoid),
                    "is-exact": exactness.passed, "failing-clauses": failing,
                    "inconsistency": False},
    }
    got = classify_exactness(monoid).to_dict()
    del got["stats"]["wall-time"]
    assert json.dumps(got, ensure_ascii=False) == json.dumps(want, ensure_ascii=False)


@pytest.fixture()
def enumerations(monkeypatch):
    """Counts the Enumeration runs constructed while the test runs."""
    count = [0]
    init = invcat.core.Enumeration.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(invcat.core.Enumeration, "__init__", counting_init)
    return count


@pytest.mark.parametrize("command", ["axioms", "exactness"])
def test_composite_command_is_one_run(runner, tmp_path, enumerations, command):
    spec = write(tmp_path, "spec.json", PBIJ23_DOC)
    result = runner.invoke(main, [command, "--spec", spec])
    assert result.exit_code == 0, result.output
    assert enumerations[0] == 1


def test_classify_is_one_run(enumerations):
    # validating the Cayley table is a run of its own, on the one-object
    # category, made before the count for classify starts
    monoid = cyclic_group(2)
    assert enumerations[0] == 1
    enumerations[0] = 0
    classify_exactness(monoid)
    assert enumerations[0] == 1
