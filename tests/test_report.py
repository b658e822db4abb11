import json

import pytest

from invcat import (
    EXIT_CLAUSE_FAILURES,
    EXIT_OK,
    FAIL,
    PASS,
    SKIPPED,
    AnnihilatorNotFoundError,
    Clause,
    InvcatError,
    MissingConstructionError,
    NoCokernelError,
    NoFactorizationError,
    NoKernelError,
    NotBaerStarError,
    NotInverseCategoryError,
    VerificationReport,
    merge_reports,
)
from invcat.projections import AnnihilatorNotUniqueError
from invcat.report import Failed, Passed, run_clause


def test_clause_requires_witness_exactly_on_fail():
    Clause("x", "1", PASS, 3)
    Clause("x", "1", FAIL, 3, "bad thing")
    with pytest.raises(ValueError):
        Clause("x", "1", PASS, 3, "witness on a pass")
    with pytest.raises(ValueError):
        Clause("x", "1", FAIL, 3)
    with pytest.raises(ValueError):
        Clause("x", "1", "maybe", 3)


def test_clause_dict_shape():
    d = Clause("laws.assoc", "2.3.i", FAIL, 17, "f, g").to_dict()
    assert d == {
        "clause-id": "laws.assoc",
        "anchor": "2.3.i",
        "status": "fail",
        "checked": 17,
        "counterexample": "f, g",
    }
    d2 = Clause("laws.assoc", "2.3.i", PASS, 17).to_dict()
    assert "counterexample" not in d2


def test_report_exit_codes_and_lookup():
    ok = VerificationReport("s", [Clause("a", "1", PASS), Clause("b", "1", SKIPPED)])
    assert ok.passed and ok.exit_code() == EXIT_OK
    bad = VerificationReport("s", [Clause("a", "1", FAIL, 1, "w")])
    assert not bad.passed and bad.exit_code() == EXIT_CLAUSE_FAILURES
    assert bad.clause("a").counterexample == "w"
    with pytest.raises(KeyError):
        bad.clause("nope")


def test_report_json_shape_and_determinism():
    rep = VerificationReport(
        "s", [Clause("a", "1", PASS, 2)], morphisms_enumerated=9, wall_time=0.12345678
    )
    d = rep.to_dict()
    assert d["format-version"] == 1
    assert d["stats"] == {"morphisms-enumerated": 9, "wall-time": 0.123457}
    assert "seed" not in d["stats"] and "details" not in d
    assert rep.to_json() == rep.to_json()
    json.loads(rep.to_json())


def test_run_clause_stops_at_first_witness():
    seen = []

    def check(n):
        seen.append(n)
        return "too big" if n >= 3 else None

    clause = run_clause("c", "1", range(10), check)
    assert clause.status == FAIL
    assert clause.checked == 4
    assert seen == [0, 1, 2, 3]
    assert run_clause("c", "1", range(3), lambda n: None).checked == 3


def test_run_clause_reports_a_missing_construction():
    def check(n):
        if n == 2:
            raise NotBaerStarError(f"no annihilator for {n}")
        return None

    clause = run_clause("c", "1", range(5), check)
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, 3, "no annihilator for 2")

    def cases():
        yield 0
        raise MissingConstructionError("the cases ran out of a construction")

    clause = run_clause("c", "1", cases(), lambda n: None)
    assert (clause.status, clause.checked) == (FAIL, 1)
    assert clause.counterexample == "the cases ran out of a construction"


def test_run_clause_counts_passed_cases_without_checking_them():
    seen = []

    def check(case):
        seen.append(case)
        return None

    clause = run_clause("c", "1", [Passed(4), Passed(1), Passed(7)], check)
    assert (clause.status, clause.checked, seen) == (PASS, 12, [])
    assert type(clause.checked) is int


def test_run_clause_counts_passed_cases_before_a_witness():
    seen = []

    def check(case):
        seen.append(case)
        return "bad" if case == "w" else None

    clause = run_clause("c", "1", [Passed(5), "ok", "ok", "w", Passed(3)], check)
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, 8, "bad")
    assert seen == ["ok", "ok", "w"]


def test_run_clause_ends_at_a_failed_case_without_checking_it():
    # a Failed case counts once and its text is the counterexample, as a
    # plain string; a string case that is not Failed goes to check
    seen = []

    def check(case):
        seen.append(case)
        return None

    cases = [Passed(5), "ok", Failed("broken at ok"), "never"]
    clause = run_clause("c", "1", cases, check)
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, 7, "broken at ok")
    assert type(clause.counterexample) is str and seen == ["ok"]
    assert run_clause("c", "1", [Passed(2), Failed("x")], None).checked == 3


def test_run_clause_counts_passed_cases_before_a_missing_construction():
    def cases():
        yield Passed(6)
        yield 1
        raise MissingConstructionError("the cases ran out of a construction")

    clause = run_clause("c", "1", cases(), lambda n: None)
    assert (clause.status, clause.checked) == (FAIL, 7)

    def check(n):
        raise NotBaerStarError(f"no annihilator for {n}")

    clause = run_clause("c", "1", [Passed(2), 3], check)
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, 3, "no annihilator for 3")


def test_missing_construction_family():
    family = (
        NotInverseCategoryError,
        NotBaerStarError,
        AnnihilatorNotFoundError,
        AnnihilatorNotUniqueError,
        NoKernelError,
        NoCokernelError,
        NoFactorizationError,
    )
    assert all(issubclass(e, InvcatError) and issubclass(e, MissingConstructionError) for e in family)
    assert not issubclass(InvcatError, MissingConstructionError)


def test_run_clause_lets_other_errors_through():
    def check(n):
        raise InvcatError("composition table is missing a pair")

    with pytest.raises(InvcatError, match="composition table"):
        run_clause("c", "1", range(3), check)


def test_merge_reports_concatenates():
    r1 = VerificationReport("x", [Clause("a", "1", PASS)], 5, 0.5, details={"left": 1})
    r2 = VerificationReport("y", [Clause("b", "1", FAIL, 1, "w")], 9, 0.25, details={"right": 2})
    merged = merge_reports("both", r1, r2)
    assert merged.suite == "both"
    assert [c.clause_id for c in merged.clauses] == ["a", "b"]
    assert merged.morphisms_enumerated == 9
    assert merged.wall_time == 0.75
    assert merged.details == {"left": 1, "right": 2}
    assert merged.exit_code() == EXIT_CLAUSE_FAILURES
