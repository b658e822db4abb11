"""The acceptance gate.  Each test prints one PASS/FAIL line and enforces the
stated runtime bound; every numeric oracle here is recomputed independently."""

import time
from math import comb, factorial

from invcat import (
    Budget,
    CommutingSquare,
    Enumeration,
    FinSet,
    PBijCategory,
    VerificationReport,
    canonical_pbij_category,
    check_closed_forms,
    check_coherence,
    check_exactness,
    check_inverse_category,
    chain_semilattice,
    classify_exactness,
    cyclic_group,
    enumerate_pbij,
    hom_count,
    inclusion,
    is_group,
    make_pbij,
    pullback_witness,
    size_finset,
    symmetric_inverse_monoid,
    theorem_suite,
)
from invcat.report import run_clause

BUDGET = Budget(max_size=4)


def announce(number, name, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  {extra}" if extra else ""
    print(f"criterion {number} ({name}): {status} in {elapsed:.2f}s{tail}")


def test_criterion_1_enumeration_oracle():
    t0 = time.perf_counter()
    failures = []
    for m in range(5):
        for n in range(5):
            expected = sum(comb(m, k) * comb(n, k) * factorial(k) for k in range(5))
            got = len(enumerate_pbij(size_finset(m), size_finset(n)))
            if got != expected or hom_count(m, n) != expected:
                failures.append((m, n, got, expected))
    landmark = (hom_count(3, 3), hom_count(4, 4)) == (34, 209)
    elapsed = time.perf_counter() - t0
    ok = not failures and landmark and elapsed < 5.0
    announce(1, "enumeration oracle", ok, elapsed)
    assert not failures, failures
    assert landmark
    assert elapsed < 5.0


def test_criterion_2_inverse_category_axioms():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((0, 1, 2, 3))
    report = check_inverse_category(cat, BUDGET)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 30.0
    announce(2, "inverse-category axioms, sizes 0-3", ok, elapsed,
             f"{report.morphisms_enumerated} morphisms")
    assert report.passed, [(c.clause_id, c.counterexample) for c in report.failures()]
    assert elapsed < 30.0


def test_criterion_3_exactness_checklists():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((0, 1, 2, 3))
    report = check_exactness(cat, BUDGET)
    elapsed = time.perf_counter() - t0
    forward = {
        "baer.annihilator-exists", "baer.annihilator-unique",
        "baer.projections-closed", "baer.projection-factorization",
    }
    exact = {
        "exact.kernels", "exact.cokernels", "exact.normal",
        "exact.conormal", "exact.factorization",
    }
    ids = {c.clause_id for c in report.clauses}
    complete = forward <= ids and exact <= ids
    agree = report.clause("theorem.exact-iff-baer").status == "pass"
    ok = report.passed and complete and agree
    announce(3, "exactness and annihilator checklists", ok, elapsed)
    assert complete, ids
    assert report.passed, [(c.clause_id, c.counterexample) for c in report.failures()]
    assert agree


def test_criterion_4_coherence_identities():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((0, 1, 2, 3))
    report = check_coherence(cat, BUDGET)
    elapsed = time.perf_counter() - t0
    needed = {
        "coherence.kernel-annihilator", "coherence.annihilator-mono",
        "coherence.coannihilator-epi", "coherence.mono-is-kernel",
        "coherence.epi-is-cokernel",
    }
    ids = {c.clause_id for c in report.clauses}
    ok = report.passed and needed <= ids
    announce(4, "kernel-annihilator coherence", ok, elapsed)
    assert needed <= ids, ids
    assert report.passed, [(c.clause_id, c.counterexample) for c in report.failures()]


def test_criterion_5_transfer_suites():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((0, 1, 2, 3))
    report = theorem_suite(cat, "all", BUDGET)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    announce(5, "transfer law suites, exhaustive", ok, elapsed,
             f"{len(report.clauses)} clauses")
    assert report.passed, [(c.clause_id, c.counterexample) for c in report.failures()]
    assert elapsed < 120.0


def test_criterion_6_closed_form_agreement():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((0, 1, 2, 3))
    report = check_closed_forms(cat, BUDGET)
    elapsed = time.perf_counter() - t0
    total = sum(c.checked for c in report.clauses)
    ok = report.passed and total > 0
    announce(6, "closed forms vs definitional search", ok, elapsed,
             f"{total} comparisons")
    assert report.passed, [(c.clause_id, c.counterexample) for c in report.failures()]
    assert total > 0


def test_criterion_7_monoid_classification():
    t0 = time.perf_counter()
    corpus = {
        "trivial": cyclic_group(1),
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "semilattice2": chain_semilattice(2),
        "chain3": chain_semilattice(3),
        "I1": symmetric_inverse_monoid(1),
        "I2": symmetric_inverse_monoid(2),
    }
    problems = []
    for name, monoid in corpus.items():
        report = classify_exactness(monoid, BUDGET)
        details = report.details
        if details["is-exact"] != is_group(monoid) or details["inconsistency"]:
            problems.append((name, "verdict mismatch"))
        if not is_group(monoid) and not details["failing-clauses"]:
            problems.append((name, "no failing axioms reported"))
        if report.exit_code() != 0:
            problems.append((name, f"exit {report.exit_code()}"))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    announce(7, "exact-iff-group over the corpus", ok, elapsed,
             f"{len(corpus)} monoids")
    assert not problems, problems
    assert elapsed < 60.0


def test_criterion_8_mutation_sensitivity():
    t0 = time.perf_counter()
    cat = canonical_pbij_category((1, 2))
    s2 = cat.finset("S2")
    g = make_pbij(s2, s2, (("e1", "e2"),))
    wrong = make_pbij(s2, s2, (("e1", "e1"),))

    swapped = cat.with_corrupted_involution(g, wrong)
    r_inv = check_inverse_category(swapped, BUDGET)
    inv_ok = (r_inv.exit_code() == 1 and r_inv.failures()
              and all(c.counterexample for c in r_inv.failures()))

    h = cat.involve(g)
    corrupted = cat.with_corrupted_composition(g, h, wrong)
    r_comp = check_inverse_category(corrupted, BUDGET)
    comp_ok = (r_comp.exit_code() == 1 and r_comp.failures()
               and all(c.counterexample for c in r_comp.failures()))

    # fixture pullback square with the left leg shrunk; it still commutes,
    # but cones through the dropped element now have several mediators
    A = FinSet("A", ("1", "2", "3"))
    B = FinSet("B", ("a", "b", "c"))
    fixture = PBijCategory([A, B])
    f = make_pbij(A, B, (("1", "a"), ("2", "b")))
    v = inclusion(B, ("a", "c"))
    u = inclusion(A, ("1", "3"))
    top = fixture.compose(fixture.involve(v), fixture.compose(f, u))
    good = CommutingSquare(top=top, left=u, right=v, bottom=f)
    enum = Enumeration(fixture, BUDGET)
    assert pullback_witness(fixture, good, enum) is None
    bad_left = make_pbij(u.dom, A, (("1", "1"),))
    bad = CommutingSquare(top=top, left=bad_left, right=v, bottom=f)
    clause = run_clause("seeded.pullback-leg", "3.1", [bad],
                        lambda sq: pullback_witness(fixture, sq, enum))
    seeded = VerificationReport("seeded", [clause])
    pb_ok = (seeded.exit_code() == 1 and clause.counterexample)

    elapsed = time.perf_counter() - t0
    ok = bool(inv_ok and comp_ok and pb_ok)
    announce(8, "mutation sensitivity", ok, elapsed)
    assert inv_ok, r_inv.to_dict()
    assert comp_ok, r_comp.to_dict()
    assert pb_ok, clause
