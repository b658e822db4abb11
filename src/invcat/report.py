"""Structured verification reports: one clause per checked law, with witnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

EXIT_OK = 0
EXIT_CLAUSE_FAILURES = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET_EXCEEDED = 3

REPORT_FORMAT_VERSION = 1


class MissingConstructionError(Exception):
    """A construction a law needs (quasi-inverse, annihilator, kernel,
    cokernel, mono-epi factorization) does not exist in the category under
    test: a counterexample to the law, not malformed input."""


@dataclass(frozen=True)
class Clause:
    """Outcome of one verified law.

    `anchor` is the id of the law in the catalog documented in the README;
    `counterexample` is present exactly when the clause failed.
    """

    clause_id: str
    anchor: str
    status: str
    checked: int = 0
    counterexample: str | None = None

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"unknown clause status {self.status!r}")
        if (self.counterexample is not None) != (self.status == FAIL):
            raise ValueError("counterexample must be present exactly when status is fail")

    def to_dict(self) -> dict:
        out: dict = {
            "clause-id": self.clause_id,
            "anchor": self.anchor,
            "status": self.status,
            "checked": self.checked,
        }
        if self.status == FAIL:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class VerificationReport:
    suite: str
    clauses: list[Clause]
    morphisms_enumerated: int = 0
    wall_time: float = 0.0
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.clauses)

    def failures(self) -> list[Clause]:
        return [c for c in self.clauses if c.status == FAIL]

    def clause(self, clause_id: str) -> Clause:
        for c in self.clauses:
            if c.clause_id == clause_id:
                return c
        raise KeyError(clause_id)

    def exit_code(self) -> int:
        return EXIT_OK if self.passed else EXIT_CLAUSE_FAILURES

    def to_dict(self) -> dict:
        out: dict = {
            "format-version": REPORT_FORMAT_VERSION,
            "suite": self.suite,
            "clauses": [c.to_dict() for c in self.clauses],
            "stats": {
                "morphisms-enumerated": self.morphisms_enumerated,
                "wall-time": round(self.wall_time, 6),
            },
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)


class Passed(int):
    """Passed(n), in place of a case: n cases the caller checked in bulk and
    found passing.  `run_clause` counts them and does not call `check`."""

    __slots__ = ()


class Failed(str):
    """Failed(text), in place of a case: one case the caller checked in bulk
    and found failing, worded as text.  `run_clause` counts it and ends the
    clause with that text, without calling `check`."""

    __slots__ = ()


def run_clause(
    clause_id: str,
    anchor: str,
    cases: Iterable,
    check: Callable | None,
) -> Clause:
    """Evaluate `check` over `cases`, stopping at the first returned witness
    or Failed case; cases all Passed or Failed need no `check` (None).

    A MissingConstructionError ends the clause as a failure with the error's
    message as its counterexample; any other error (malformed input, an
    incomplete table) propagates."""
    checked = 0
    try:
        for case in cases:
            if type(case) is Passed:
                checked += case
                continue
            checked += 1
            witness = str(case) if type(case) is Failed else check(case)
            if witness is not None:
                return Clause(clause_id, anchor, FAIL, checked, witness)
    except MissingConstructionError as err:
        return Clause(clause_id, anchor, FAIL, checked, str(err))
    return Clause(clause_id, anchor, PASS, checked)


def merge_reports(suite: str, *reports: VerificationReport) -> VerificationReport:
    """Concatenate the clauses of several reports over the same category."""
    clauses: list[Clause] = []
    details: dict = {}
    for rep in reports:
        clauses.extend(rep.clauses)
        if rep.details:
            details.update(rep.details)
    return VerificationReport(
        suite=suite,
        clauses=clauses,
        morphisms_enumerated=max((r.morphisms_enumerated for r in reports), default=0),
        wall_time=sum(r.wall_time for r in reports),
        details=details or None,
    )
