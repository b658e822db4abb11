import itertools
import re
from collections import Counter

import pytest

import invcat.projections
from invcat import (
    Enumeration,
    InvcatError,
    LatticeError,
    Morphism,
    ObjectMismatchError,
    TableCategory,
    ZeroUnavailableError,
    apply_Pdoubleprime,
    apply_Pprime,
    canonical_pbij_category,
    check_baer_star,
    check_exactness,
    make_pbij,
    partial_identity,
    render_morphism,
    render_object,
    theorem_suite,
)
from invcat.specfile import build_category, parse_spec
from invcat.monoid import chain_semilattice, cyclic_group, symmetric_inverse_monoid, two_object_category
from invcat.pbij import annihilator_pbij, projection_labels
from invcat.projections import (
    AnnihilatorNotFoundError,
    AnnihilatorNotUniqueError,
    NotBaerStarError,
    annihilator,
    annihilator_candidates,
    double_annihilator,
    is_closed,
    lattice_on,
    leq,
    meet,
    projection_lattice,
    projections_on,
)
from invcat.report import FAIL, PASS, Clause
from invcat.transfer import SUITES as THEOREM_SUITES
from test_golden import CATEGORIES
from model_copies import endomorphism_clones, involution_clones, single_entry_clones, to_table
from test_golden import NOT_BAER_STAR, _clone


def test_projections_are_the_powerset(fixture_cat, A):
    ps = projections_on(fixture_cat, A)
    labels = {projection_labels(p) for p in ps}
    expected = set()
    for k in range(4):
        expected.update(itertools.combinations(A.elements, k))
    assert labels == expected
    assert len(ps) == 8


def test_meet_is_intersection_and_leq_is_subset(fixture_cat, A):
    i = partial_identity(A, ("1", "2"))
    j = partial_identity(A, ("2", "3"))
    assert projection_labels(meet(fixture_cat, i, j)) == ("2",)
    assert leq(fixture_cat, partial_identity(A, ("2",)), i)
    assert not leq(fixture_cat, i, j)


def test_meet_rejects_projections_on_different_objects(fixture_cat, A, B):
    i, j = partial_identity(A, ("1",)), partial_identity(B, ("a",))
    with pytest.raises(ObjectMismatchError, match="^projections live on different objects: A and B$"):
        meet(fixture_cat, i, j)
    with pytest.raises(ObjectMismatchError, match="^projections live on different objects: B and A$"):
        leq(fixture_cat, j, i)


def test_lattice_laws_verified(fixture_cat, A):
    lat = projection_lattice(fixture_cat, A)
    assert len(lat) == 8
    assert projection_labels(lat.top) == ("1", "2", "3") and lat.top == fixture_cat.identity(A)
    assert projection_labels(lat.bottom) == () and lat.bottom == fixture_cat.zero(A, A)


def test_lattice_detects_broken_meet(fixture_cat, A):
    i1 = partial_identity(A, ("1",))
    i13 = partial_identity(A, ("1", "3"))
    i3 = partial_identity(A, ("3",))
    twisted = fixture_cat.with_corrupted_composition(i1, i13, i3)
    with pytest.raises(LatticeError):
        projection_lattice(twisted, A)


def reference_projection_lattice(cat, a, enum):
    """The semilattice laws on P(a) by Morphism-level meets, kept as the
    oracle of projection_lattice: the same laws, loop order and texts."""
    lattice = lattice_on(enum, a)
    elements, one, zero = lattice.elements, lattice.top, lattice.bottom
    pool = set(elements)
    if one not in pool or zero not in pool:
        raise LatticeError(f"P({render_object(a)}) is missing top or bottom")
    for i in elements:
        if meet(cat, i, i) != i:
            raise LatticeError(f"meet is not idempotent at {render_morphism(i)}")
        if meet(cat, i, one) != i or meet(cat, one, i) != i:
            raise LatticeError(f"top is not neutral at {render_morphism(i)}")
        for j in elements:
            m = meet(cat, i, j)
            if m not in pool:
                raise LatticeError(
                    f"meet of {render_morphism(i)} and {render_morphism(j)} "
                    "leaves the projection set"
                )
            if m != meet(cat, j, i):
                raise LatticeError(
                    f"meet is not commutative at {render_morphism(i)}, {render_morphism(j)}"
                )
            for k in elements:
                if meet(cat, m, k) != meet(cat, i, meet(cat, j, k)):
                    raise LatticeError("meet is not associative")
    return lattice


@pytest.mark.hashseed
def test_lattice_laws_on_ids_agree_with_the_morphism_level_loop():
    # every golden category, then the single-entry clones of a partial-
    # bijection model and of a saturated table; each text but "not
    # idempotent" fires on some clone (P(a) holds only idempotents)
    def outcome(check, cat, a):
        try:
            return check(cat, a, Enumeration(cat)).elements
        except InvcatError as err:
            return type(err).__name__, str(err)

    cats = [build()[0] for build, _ in CATEGORIES.values()]
    for base in (canonical_pbij_category((1, 2)), build_category(parse_spec(NOT_BAER_STAR))[0]):
        cats += single_entry_clones(base)
    texts = {
        "missing": r"P\(.+\) is missing top or bottom",
        "idempotent": r"meet is not idempotent at .+",
        "top": r"top is not neutral at .+",
        "leaves": r"meet of .+ leaves the projection set",
        "commutative": r"meet is not commutative at .+",
        "associative": r"meet is not associative",
    }
    fired = Counter()
    for cat in cats:
        for a in cat.objects:
            got = outcome(projection_lattice, cat, a)
            assert got == outcome(reference_projection_lattice, cat, a)
            if got[0] == "LatticeError":
                fired[next(name for name, text in texts.items() if re.fullmatch(text, got[1]))] += 1
    assert set(fired) == set(texts) - {"idempotent"}, fired


@pytest.mark.hashseed
def test_a_projection_outside_the_model_pool_is_in_P(budget):
    # with t∘t made t, the swap t is a projection on the table under test,
    # though no partial identity
    cat = _clone("tt-to-t")
    s2 = cat.finset("S2")
    t = make_pbij(s2, s2, (("e1", "e2"), ("e2", "e1")))
    assert t in projections_on(cat, s2)
    clause = check_baer_star(cat, budget).clause("baer.projections-closed")
    assert clause.status == FAIL
    assert clause.counterexample == (
        "projection S2→S2 {e1↦e2, e2↦e1} is not closed: (i′)′ = S2→S2 {e1↦e1, e2↦e2}"
    )


@pytest.mark.hashseed
def test_a_zero_that_is_not_self_adjoint_is_not_in_P(budget):
    # with 0* made [e1>e1], the zero endomorphism of X is no projection
    base = two_object_category(symmetric_inverse_monoid(2))
    zero = base.zero("X", "X")
    cat = base.with_corrupted_involution(zero, Morphism("X", "X", "e1>e1"))
    elements = set(projections_on(cat, "X"))
    assert zero in projections_on(base, "X")
    assert zero not in elements and Morphism("X", "X", "e1>e1") in elements
    assert check_baer_star(cat, budget).clause("baer.annihilator-exists").status == FAIL


def test_annihilator_fixture_values(fixture_cat, A, B, f):
    assert projection_labels(annihilator(fixture_cat, f)) == ("3",)
    assert projection_labels(annihilator(fixture_cat, fixture_cat.involve(f))) == ("c",)
    assert projection_labels(annihilator(fixture_cat, fixture_cat.identity(A))) == ()
    zero = fixture_cat.zero(A, B)
    assert projection_labels(annihilator(fixture_cat, zero)) == ("1", "2", "3")


def test_search_agrees_with_closed_form(fixture_cat, A, B, budget):
    enum = Enumeration(fixture_cat, budget)
    for m in list(enum.morphisms()):
        assert annihilator(fixture_cat, m, enum) == annihilator_pbij(m)


@pytest.mark.hashseed
def test_annihilator_is_the_one_candidate_on_every_clone(budget):
    # f′ is read from the table under test: on a seeded defect it is the one
    # projection with f′'s defining property, or it is missing loudly
    base = canonical_pbij_category((1, 2))
    clones = [*endomorphism_clones(base), *involution_clones(base)]
    assert len(clones) == 53 + 9
    for cat in clones:
        enum = Enumeration(cat, budget)
        for f in list(enum.morphisms()):
            candidates = annihilator_candidates(cat, f, enum)
            if len(candidates) == 1:
                assert annihilator(cat, f, enum) == candidates[0], render_morphism(f)
                continue
            error = AnnihilatorNotUniqueError if candidates else AnnihilatorNotFoundError
            with pytest.raises(error):
                annihilator(cat, f, enum)
    # so the P′ laws and the Baer* laws fail at the same missing f′
    cat = _clone("p1p1-to-0")
    by_id = {c.clause_id: c for c in theorem_suite(cat, "3.3").clauses}
    assert by_id["inverse-image.bottom-top"].status == FAIL
    assert by_id["inverse-image.bottom-top"].counterexample == (
        "no projection annihilates exactly what S2→S1 {e2↦e1} kills"
    )
    by_id = {c.clause_id: c for c in check_baer_star(cat).clauses}
    assert by_id["baer.annihilator-exists"].status == FAIL
    assert by_id["baer.annihilator-exists"].counterexample == "no annihilator for S2→S1 {e2↦e1}"


def test_double_annihilator_and_closedness(fixture_cat, f, A):
    fp = annihilator(fixture_cat, f)
    assert double_annihilator(fixture_cat, f) == partial_identity(A, ("1", "2"))
    assert is_closed(fixture_cat, fp)
    for labels in [(), ("1",), ("1", "3"), ("1", "2", "3")]:
        assert is_closed(fixture_cat, partial_identity(A, labels))


def test_annihilator_candidates_unique_in_pbij(fixture_cat, f):
    enum = Enumeration(fixture_cat)
    assert len(annihilator_candidates(fixture_cat, f, enum)) == 1


def test_baer_suite_green_on_pbij3(pbij3, budget):
    report = check_baer_star(pbij3, budget)
    assert report.passed, [c.clause_id for c in report.failures()]
    ids = [c.clause_id for c in report.clauses]
    assert "baer.zero-object" in ids
    assert "baer.projections-closed" in ids
    assert "projections.meet-semilattice" in ids


def test_semilattice_category_fails_closedness(budget):
    # adjoining a fresh zero to the 2-chain gives annihilators but e'' = 1 != e
    cat = two_object_category(chain_semilattice(2))
    report = check_baer_star(cat, budget)
    by_id = {c.clause_id: c for c in report.clauses}
    assert by_id["baer.annihilator-exists"].status == PASS
    assert by_id["baer.annihilator-unique"].status == PASS
    assert by_id["baer.triple-annihilator"].status == PASS
    closed = by_id["baer.projections-closed"]
    assert closed.status == FAIL
    assert "e" in closed.counterexample


def test_annihilator_not_found_is_loud(fixture_cat, A, B, f):
    # restricting the probe pool cannot invent annihilators for a category
    # that lacks them: corrupt f's zero composite so no projection fits
    i3 = partial_identity(A, ("3",))
    wrong = make_pbij(A, B, (("3", "c"),))
    twisted = fixture_cat.with_corrupted_composition(f, i3, wrong)
    with pytest.raises(AnnihilatorNotFoundError):
        annihilator(twisted, f)
    # a failed search is cached per run and raises again from the cache
    enum = Enumeration(twisted)
    for _ in range(2):
        with pytest.raises(AnnihilatorNotFoundError):
            annihilator(twisted, f, enum)


def test_annihilator_is_found_once_per_run_and_a_missing_one_every_time(budget, monkeypatch):
    # a search that finds nothing is made once per run, and raises again,
    # with the same text, every time
    searched = []
    search = invcat.projections.annihilator_candidates

    def counting(cat, f, enum=None):
        searched.append(f)
        return search(cat, f, enum)

    monkeypatch.setattr(invcat.projections, "annihilator_candidates", counting)
    missing = build_category(parse_spec(NOT_BAER_STAR))[0]
    a, b = (o for o in missing.objects if o.name in ("A", "B"))
    g = next(m for m in missing.hom(b, a) if m.payload == frozenset({("b1", "a1")}))
    enum = Enumeration(missing, budget)
    texts = set()
    for _ in range(3):
        with pytest.raises(NotBaerStarError) as raised:
            annihilator(missing, g, enum)
        texts.add(str(raised.value))
    assert len(texts) == 1 and render_morphism(g) in texts.pop()
    assert searched == [g]


def test_annihilator_searched_once_per_morphism(pbij2, budget, monkeypatch):
    searched = []
    search = invcat.projections.annihilator_candidates

    def counting(cat, f, enum=None):
        searched.append(f)
        return search(cat, f, enum)

    monkeypatch.setattr(invcat.projections, "annihilator_candidates", counting)
    assert check_baer_star(pbij2, budget).passed
    assert searched and len(searched) == len(set(searched))


def test_projections_searched_once_per_object(budget, monkeypatch):
    # each P(A) is one search per run
    cat = two_object_category(symmetric_inverse_monoid(2))
    searched = []
    search = invcat.projections.projections_on

    def counting(cat, a, enum=None):
        searched.append(a)
        return search(cat, a, enum)

    monkeypatch.setattr(invcat.projections, "projections_on", counting)
    for run in (check_baer_star, check_exactness, lambda c, b: theorem_suite(c, "all", b)):
        searched.clear()
        run(cat, budget)
        assert sorted(searched) == sorted(cat.objects)


def test_one_off_calls_search_each_object_once(monkeypatch):
    # called without an enumeration, each call makes one and shares it
    # between the annihilators it needs
    cat = two_object_category(symmetric_inverse_monoid(2))
    searched = []
    search = invcat.projections.projections_on

    def counting(cat, a, enum=None):
        searched.append(a)
        return search(cat, a, enum)

    monkeypatch.setattr(invcat.projections, "projections_on", counting)
    f, one = cat.hom("X", "X")[1], cat.identity("X")
    for call in (
        lambda: apply_Pprime(cat, f, one),
        lambda: apply_Pdoubleprime(cat, f, one),
        lambda: double_annihilator(cat, f),
        lambda: is_closed(cat, one),
    ):
        searched.clear()
        call()
        assert searched == ["X"]


def test_missing_zero_object_is_loud():
    e = Morphism("X", "X", "e")
    cat = TableCategory(["X"], {("X", "X"): [e]}, {(e, e): e}, {"X": e})
    # with no objects, no clause asks for a zero morphism: it must not pass vacuously
    empty = TableCategory([], {}, {}, {})
    for c in (cat, empty):
        with pytest.raises(InvcatError, match="^no zero object designated$"):
            check_baer_star(c)
        with pytest.raises(InvcatError, match="^no zero object designated$"):
            check_exactness(c)


@pytest.mark.hashseed
def test_a_fake_zero_object_fails_the_clauses_that_need_a_zero():
    # the two-object C2 table with X, which has three endomorphisms, declared zero
    cat = to_table(two_object_category(cyclic_group(2)), zero_object="X")
    report = check_baer_star(cat)
    assert report.exit_code() == 1
    want = "X is not initial and terminal at X"
    assert report.clause("baer.zero-object") == Clause("baer.zero-object", "1", FAIL, 2, want)
    exists = report.clause("baer.annihilator-exists")
    assert exists.status == FAIL and exists.counterexample == want
    assert check_exactness(cat).details["exact"] is False
    # one Z → X but three X → X: X is not initial at X, whatever Z is
    with pytest.raises(ZeroUnavailableError, match=f"^{want}$"):
        cat.zero("Z", "X")


@pytest.mark.hashseed
def test_each_lattice_keeps_the_ids_of_its_elements_through_a_run():
    # the ids are given when P(a) is found; every suite that follows reads them
    checked = 0
    for build, _ in CATEGORIES.values():
        cat = build()[0]
        enum = Enumeration(cat)
        for group in THEOREM_SUITES["all"]:
            try:
                group(enum)
            except InvcatError:
                pass
        for a in cat.objects:
            try:
                lattice = lattice_on(enum, a)
            except InvcatError:
                continue
            assert lattice.ids == tuple(map(cat.intern, lattice.elements))
            checked += 1
    assert checked > 40

