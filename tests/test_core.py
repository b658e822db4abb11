import gc
import itertools
import operator
import sys
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from invcat import (
    Budget,
    BudgetExceededError,
    BudgetValueError,
    CompositionError,
    Enumeration,
    FinSet,
    InvcatError,
    Morphism,
    NotInverseCategoryError,
    PBijCategory,
    TableCategory,
    build_category,
    canonical_pbij_category,
    check_baer_star,
    check_closed_forms,
    check_coherence,
    check_exactness,
    check_functoriality,
    check_inverse_category,
    check_normal_conormal,
    cyclic_group,
    hom_count,
    is_generalized_inverse,
    is_projection,
    make_pbij,
    parse_spec,
    render_morphism,
    size_finset,
    symmetric_inverse_monoid,
    theorem_suite,
    two_object_category,
)
import invcat
import invcat.core as core
from invcat.core import ShapeMismatchError, morphism_sort_key, render_object
from invcat.exactness import exactness_clauses
from invcat.projections import AnnihilatorNotFoundError, baer_star_clauses
from invcat.report import FAIL, PASS, SKIPPED, Clause, Failed, Passed, run_clause
from invcat.transfer import SUITES, TransferKind, _row
from model_copies import (
    endomorphism_clones,
    involution_clones,
    morphism_tables,
    single_entry_defects,
    table_lacking,
)
from test_exactness import composable_pairs
from test_golden import NOT_BAER_STAR, README_FIXTURE, _clone
from test_pbij import _doc


def test_every_exported_name_resolves_and_is_listed_once():
    # a stale export of a deleted name fails here
    assert len(set(invcat.__all__)) == len(invcat.__all__)
    assert [name for name in invcat.__all__ if not hasattr(invcat, name)] == []


def test_morphism_name_does_not_affect_identity(A, B):
    named = make_pbij(A, B, (("1", "a"),), name="g")
    anon = make_pbij(A, B, (("1", "a"),))
    assert named == anon
    assert hash(named) == hash(anon)
    assert "g" in render_morphism(named)


def test_hash_is_stored_and_equals_the_field_tuple_hash(A, B):
    # equal to what the generated __hash__ returned, so the iteration order of
    # sets of morphisms, and with it every search order, stays as it was
    pbij = make_pbij(A, B, (("1", "a"),), name="g")
    label = two_object_category(symmetric_inverse_monoid(2)).hom("X", "X")[1]
    assert hash(pbij) == hash((A, B, frozenset({("1", "a")})))
    assert hash(label) == hash(("X", "X", label.payload))
    assert hash(A) == hash(("A", ("1", "2", "3")))
    assert hash(FinSet("A", ("3", "1", "2"))) == hash(A)
    assert hash(replace(pbij, name="h")) == hash(replace(pbij, name=None)) == hash(pbij)
    moved = replace(pbij, payload=frozenset())
    assert moved != pbij and replace(moved, payload=pbij.payload) == pbij
    assert hash(replace(moved, payload=pbij.payload)) == hash(pbij)
    assert hash(replace(A, elements=("2", "3", "1"))) == hash(A)


def test_compose_applies_right_factor_first(fixture_cat, A, B, f):
    # compose(g, f) means g after f
    g = make_pbij(B, A, (("a", "3"),))
    gf = fixture_cat.compose(g, f)
    assert gf.dom == A and gf.cod == A
    assert gf.payload == frozenset({("1", "3")})
    with pytest.raises(CompositionError):
        fixture_cat.compose(f, f)


def test_identity_and_involution(fixture_cat, A, B, f):
    id_a = fixture_cat.identity(A)
    assert fixture_cat.compose(f, id_a) == f
    assert fixture_cat.compose(fixture_cat.identity(B), f) == f
    fs = fixture_cat.involve(f)
    assert fs.payload == frozenset({("a", "1"), ("b", "2")})
    assert fixture_cat.involve(fs) == f


def test_quasi_inverse_unique_in_pbij(fixture_cat, f):
    qi = fixture_cat.quasi_inverses_of(f)
    assert qi == (fixture_cat.involve(f),)
    assert fixture_cat.unique_quasi_inverse(f) == fixture_cat.involve(f)
    assert is_generalized_inverse(fixture_cat, f, fixture_cat.involve(f))
    assert not is_generalized_inverse(fixture_cat, f, fixture_cat.zero(f.cod, f.dom))


def test_module_level_helpers(fixture_cat, f):
    assert fixture_cat.quasi_inverses_of(f) == (fixture_cat.involve(f),)
    assert is_projection(fixture_cat, fixture_cat.compose(fixture_cat.involve(f), f))
    assert not is_projection(fixture_cat, f)


def test_zero_routing(fixture_cat, A, B):
    z = fixture_cat.zero(A, B)
    assert z.payload == frozenset()
    assert fixture_cat.is_zero(z)
    assert not fixture_cat.is_zero(fixture_cat.identity(A))


def test_pbij_zero_is_composed_through_the_zero_object_once_per_category(monkeypatch):
    cat = canonical_pbij_category((1, 2))
    s0, s1, s2 = size_finset(0), size_finset(1), size_finset(2)
    calls, model = [], cat._compose

    def composed(f, g):
        calls.append((f, g))
        return model(f, g)

    monkeypatch.setattr(cat, "_compose", composed)
    z = cat.zero(s1, s2)
    assert z == Morphism(s1, s2, frozenset())
    assert cat.zero(s1, s2) is z
    assert calls == [(Morphism(s0, s2, frozenset()), Morphism(s1, s0, frozenset()))]
    assert cat.is_zero(z) and not cat.is_zero(cat.identity(s2))
    # a clone copies the table, not the zero ids: it composes its zero
    # again on its own table, where the entry is already written
    p1, composed = make_pbij(s2, s2, (("e1", "e1"),)), list(calls)
    twin = cat.with_corrupted_involution(p1, p1)
    assert twin.morphisms_by_id == [*cat.morphisms_by_id, p1] and twin.rows == [*cat.rows, {}]
    assert twin.zero(s1, s2) is z and calls == composed
    # so a defect on the pair through the zero object is the twin's zero
    up = make_pbij(s1, s2, (("e1", "e1"),))
    twin = cat.with_corrupted_composition(Morphism(s0, s2, frozenset()), Morphism(s1, s0, frozenset()), up)
    assert twin.zero(s1, s2) == up and cat.zero(s1, s2) is z and calls == composed


def test_identity_id_is_looked_up_once_per_category(monkeypatch):
    cat = canonical_pbij_category((1, 2))
    s2 = size_finset(2)
    calls, model = [], cat.identity
    monkeypatch.setattr(cat, "identity", lambda a: calls.append(a) or model(a))
    i = cat.identity_id(s2)
    assert cat.morphisms_by_id[i] == model(s2)
    assert cat.identity_id(s2) == i and calls == [s2]
    # a clone keeps the ids of its base's table, and looks the identity up again
    twin = cat.with_corrupted_involution(cat.morphisms_by_id[i], cat.morphisms_by_id[i])
    assert twin.morphisms_by_id == cat.morphisms_by_id and twin.morphisms_by_id is not cat.morphisms_by_id
    assert twin.identity_id(s2) == i and twin.identity_id(s2) == i and calls == [s2, s2]


def test_pbij_zero_is_the_object_an_equal_composite_returns():
    cat = canonical_pbij_category((1, 2))
    s1, s2 = size_finset(1), size_finset(2)
    p1, p2 = make_pbij(s2, s2, (("e1", "e1"),)), make_pbij(s2, s2, (("e2", "e2"),))
    empty = cat.compose(p1, p2)  # composed before the zero is asked for
    assert cat.zero(s2, s2) is empty
    z = cat.zero(s1, s2)  # asked for before any equal composite
    assert cat.compose(make_pbij(s1, s2, (("e1", "e1"),)), cat.zero(s1, s1)) is z
    assert cat.is_zero(Morphism(s1, s2, frozenset()))
    assert not cat.is_zero(make_pbij(s1, s2, (("e1", "e2"),)))


@pytest.mark.hashseed
def test_zero_is_composed_on_the_table_under_test():
    # the clone with (0→S2 ∅)∘(S1→0 ∅) made S1→S2 {e1↦e1}
    cat = _clone("zero-to-up")
    s1, s2 = size_finset(1), size_finset(2)
    assert cat.zero(s1, s2) == make_pbij(s1, s2, (("e1", "e1"),))


def test_axiom_suite_green_on_pbij2(pbij2, budget):
    report = check_inverse_category(pbij2, budget)
    assert report.passed, [c.clause_id for c in report.failures()]
    assert report.clause("involution.model-agreement").status == PASS
    assert report.morphisms_enumerated > 0


def test_axiom_suite_honest_on_total_functions(fn2_cat, budget):
    report = check_inverse_category(fn2_cat, budget)
    unique = report.clause("inverse.unique")
    assert unique.status == FAIL
    assert "ka" in unique.counterexample or "kb" in unique.counterexample
    assert report.clause("inverse.exists").status == PASS
    # no involution table was declared, so there is no model rule to compare
    assert report.clause("involution.model-agreement").status == SKIPPED
    assert report.exit_code() == 1


def test_involve_raises_outside_inverse_categories(fn2_cat):
    ka = Morphism("X", "X", "ka")
    with pytest.raises(NotInverseCategoryError):
        fn2_cat.involve(ka)


def test_corrupted_clones_leave_original_alone(pbij2, budget):
    s2 = pbij2.finset("S2")
    g = make_pbij(s2, s2, (("e1", "e2"),))
    bad = make_pbij(s2, s2, (("e1", "e1"),))
    twin = pbij2.with_corrupted_involution(g, bad)
    assert twin.involve(g) == bad
    assert pbij2.involve(g) != bad
    assert not check_inverse_category(twin, budget).passed
    assert check_inverse_category(pbij2, budget).passed

    h = pbij2.compose(g, pbij2.involve(g))
    twin2 = pbij2.with_corrupted_composition(g, pbij2.involve(g), bad)
    assert twin2.compose(g, pbij2.involve(g)) == bad
    assert pbij2.compose(g, pbij2.involve(g)) == h


def test_corruption_rejects_wrong_shapes(pbij2):
    s1, s2 = pbij2.finset("S1"), pbij2.finset("S2")
    g = make_pbij(s2, s2, (("e1", "e2"),))
    wrong = make_pbij(s1, s1, ())
    with pytest.raises(ShapeMismatchError):
        pbij2.with_corrupted_involution(g, wrong)
    with pytest.raises(ShapeMismatchError):
        pbij2.with_corrupted_composition(g, g, wrong)


def test_budget_limits_and_sampling():
    # nothing is sampled: an over-budget pool raises, any other is the whole hom-set
    tight = Budget(max_size=2)
    assert tight.homset_limit == 7
    big = PBijCategory([FinSet("S3", ("e1", "e2", "e3"))])
    s3 = big.finset("S3")
    with pytest.raises(BudgetExceededError, match="hom\\(S3, S3\\) has 34 morphisms, over the enumeration budget"):
        big.morphism_pool(s3, s3, tight)
    assert big.morphism_pool(s3, s3, Budget(max_size=3)) == big.hom(s3, s3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_size": -1},
        {"max_size": -2},
        {"max_size": -(core.LARGEST_LIMIT_SIZE + 1)},  # rejected before the limit is capped
    ],
)
def test_budget_rejects_out_of_range_values(kwargs):
    with pytest.raises(BudgetValueError, match=f"max_size must be at least 0, got {kwargs['max_size']}"):
        Budget(**kwargs)


def test_budget_accepts_the_smallest_values():
    assert issubclass(BudgetValueError, InvcatError)
    assert Budget(max_size=0).homset_limit == 1


def test_enumeration_reflects_sampling():
    # every enumerated pool is exhaustive: the count is the sum of the hom-set sizes
    big = PBijCategory([FinSet("S3", ("e1", "e2", "e3"))])
    full = Enumeration(big, Budget(max_size=3))
    seen = len(list(full.morphisms()))
    assert full.total_enumerated() == seen == 34 + 1 + 1 + 1
    with pytest.raises(BudgetExceededError):
        list(Enumeration(big, Budget(max_size=2)).morphisms())


def test_a_named_object_renders_without_its_repr(monkeypatch, A, B, f):
    def no_repr(obj):
        raise AssertionError("repr built")

    monkeypatch.setattr(FinSet, "__repr__", no_repr)
    assert render_object(A) == "A"
    assert render_morphism(f) == "f = A→B {1↦a, 2↦b}"
    assert sorted([f, make_pbij(B, A, ())], key=morphism_sort_key)[0] == f
    # an object with no name renders as its str
    assert (render_object("X"), render_object(3)) == ("X", "3")


def test_morphism_sort_key_is_total_on_mixed_payloads(A, B):
    ms = [
        make_pbij(A, B, (("1", "a"),)),
        make_pbij(A, B, ()),
        Morphism("X", "X", "label"),
    ]
    assert sorted(ms, key=morphism_sort_key)


def test_enumeration_memo_computes_once_per_run_and_key(pbij2):
    enum = Enumeration(pbij2)
    calls = []

    def empty(cat, key, run):
        assert cat is pbij2 and run.cat is pbij2
        calls.append(key)
        return ()

    # an empty result is a result: it is cached like any other
    assert enum.cached(empty, "a") == () and enum.cached(empty, "a") == ()
    enum.cached(empty, "b")
    assert calls == ["a", "b"]
    Enumeration(pbij2).cached(empty, "a")
    assert calls == ["a", "b", "a"]


def test_a_memo_fills_each_key_once_and_stores_no_failed_fill(budget):
    asked = []

    def fill(key):
        asked.append(key)
        if key < 0:
            raise InvcatError(f"no value at {key}")
        return key * key

    table = core.Memo(fill)
    assert [table[3], table[3], table[4], table[3]] == [9, 9, 16, 9]
    assert asked == [3, 4] and table == {3: 9, 4: 16}
    for _ in range(2):
        with pytest.raises(InvcatError, match="no value at -1"):
            table[-1]
    assert -1 not in table and asked == [3, 4, -1, -1]

    # an over-budget pool, asked for twice
    s3 = size_finset(3)
    enum = Enumeration(PBijCategory([s3]), Budget(max_size=2))
    for ask in (enum.pool, enum.pool, enum.pool_ids):
        with pytest.raises(BudgetExceededError):
            ask(s3, s3)
    assert enum._pools == {} and enum._pool_ids == {} and enum.total_enumerated() == 0

    # the run memo
    calls = []

    def failing(cat, key, run):
        calls.append(key)
        raise InvcatError("no value")

    for _ in range(2):
        with pytest.raises(InvcatError):
            enum.cached(failing, "a")
    assert calls == ["a", "a"] and enum._memo == {}

    # a transfer row: B→A {b1↦a1} has no annihilator, so P′ of it has no value at 0
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    enum = Enumeration(cat, budget)
    f = next(m for m in enum.morphisms() if render_morphism(m) == "B→A {b1↦a1}")
    row = _row(enum, TransferKind.INVERSE_IMAGE, cat.intern(f))
    assert isinstance(row, core.Memo)
    zero = cat.zero_id(f.cod, f.cod)
    for _ in range(2):
        with pytest.raises(AnnihilatorNotFoundError):
            row[zero]
    assert row == {}


def test_a_run_no_longer_used_is_freed_without_a_collection(pbij2):
    # the run's memo and transfer rows refer to it weakly, so no reference
    # cycle keeps its pools and memo alive until the collector runs
    enum = Enumeration(pbij2)
    gc.disable()
    try:
        for group in (core.inverse_category_clauses, baer_star_clauses, exactness_clauses, *SUITES["all"]):
            assert group(enum)
        assert enum._memo and enum._pools
        gone = weakref.ref(enum)
        del enum
        assert gone() is None
    finally:
        gc.enable()


def test_the_homset_limit_is_counted_up_to_sys_maxsize():
    assert Budget(max_size=core.LARGEST_LIMIT_SIZE).homset_limit == 2968971263911288999
    assert hom_count(18, 18) == 2968971263911288999 <= sys.maxsize < hom_count(19, 19)
    # hom(19, 19) has more members than any tuple holds: no limit is counted past it
    for max_size in (19, 20000, 10**100):
        assert Budget(max_size=max_size).homset_limit == sys.maxsize


def test_an_uncountable_hom_set_prints_a_power_of_two_below_its_size():
    huge = 3 * 2**2000
    assert "has at least 2^2001 morphisms" in str(BudgetExceededError(huge, "A", "B"))
    assert "has 1000000000000020000001 morphisms" in str(BudgetExceededError(10**21 + 2 * 10**7 + 1, "A", "B"))


@pytest.mark.parametrize("sizes", [(0, 6), (0, 2, 6), (1, 7)])
def test_no_suite_enumerates_a_hom_set_past_the_budget(sizes, monkeypatch):
    # every scan reads its hom-sets through the run's pools, which count a
    # hom-set before they enumerate it, so each suite stops at the budget
    limit, model_hom = Budget().homset_limit, PBijCategory._hom

    def bounded_hom(cat, a, b):
        if hom_count(len(a), len(b)) > limit:
            pytest.fail(f"hom({a.name}, {b.name}) enumerated past the budget")
        return model_hom(cat, a, b)

    monkeypatch.setattr(PBijCategory, "_hom", bounded_hom)
    suites = [
        check_inverse_category,
        check_baer_star,
        check_exactness,
        check_normal_conormal,
        check_coherence,
        check_functoriality,
        check_closed_forms,
        *(partial(theorem_suite, suite_id=suite_id) for suite_id in SUITES),
    ]
    for suite in suites:
        with pytest.raises(BudgetExceededError):
            suite(canonical_pbij_category(sizes))


@pytest.mark.parametrize(
    "suites, sizes",
    [
        ((check_inverse_category, check_exactness, check_coherence, partial(theorem_suite, suite_id="all")), (0, 1, 2, 3)),
        ((check_exactness, check_coherence), (0, 4)),
    ],
)
def test_no_hom_set_read_past_the_pools_is_larger_than_a_pool_already_checked(suites, sizes, monkeypatch):
    # quasi_inverses_of and _factorization_counts read hom-sets that are not
    # pools, some on undeclared subset objects; each is no larger than a pool
    # the run has already counted within its budget
    model_pool, model_hom = core.FiniteCategory.morphism_pool, PBijCategory._hom
    largest, enumerated = [0], []

    def counted_pool(cat, a, b, budget=None):
        size = cat._hom_size(a, b)
        if size <= (budget if budget is not None else Budget()).homset_limit:
            largest[0] = max(largest[0], size)
        return model_pool(cat, a, b, budget)

    def bounded_hom(cat, a, b):
        members = model_hom(cat, a, b)
        enumerated.append((a.name, b.name, len(members), largest[0]))
        return members

    monkeypatch.setattr(core.FiniteCategory, "morphism_pool", counted_pool)
    monkeypatch.setattr(PBijCategory, "_hom", bounded_hom)
    for suite in suites:
        largest[0] = 0
        suite(canonical_pbij_category(sizes))
    assert enumerated
    assert [e for e in enumerated if e[2] > e[3]] == []


@pytest.mark.hashseed
@pytest.mark.parametrize(
    "build",
    [
        partial(canonical_pbij_category, (0, 1, 2, 3)),
        partial(canonical_pbij_category, (0, 4)),
        lambda: two_object_category(symmetric_inverse_monoid(2)),
    ],
)
def test_pool_members_are_the_categorys_own_morphisms(build):
    # a suite interns identities and composites before it enumerates their
    # hom-sets; hom(a, b) and the pools still read the one instance that
    # hom_ids numbered, so interning a pool member is an identity hit
    cat = build()
    check_inverse_category(cat)
    enum = Enumeration(cat)
    for a, b in itertools.product(cat.objects, repeat=2):
        pool, ids = enum.pool(a, b), enum.pool_ids(a, b)
        assert len(pool) == len(ids)
        for m, i in zip(pool, ids):
            assert m is cat.morphisms_by_id[i]
        assert cat.hom(a, b) == cat._hom(a, b)


def test_a_table_category_needs_an_identity_for_every_object():
    one = Morphism("X", "X", "1")
    with pytest.raises(InvcatError, match="missing identity for object Y"):
        TableCategory(["X", "Y"], {("X", "X"): [one]}, {(one, one): one}, {"X": one})


def test_a_table_category_names_an_unknown_object_and_a_missing_involution_entry():
    # C2 = {1, a}, with an involution table that lacks a
    one, a = Morphism("X", "X", "1"), Morphism("X", "X", "a")
    table = {(one, one): one, (one, a): a, (a, one): a, (a, a): one}
    cat = TableCategory(["X"], {("X", "X"): [one, a]}, table, {"X": one}, {one: one})
    assert cat.has_involution_rule and cat.involve(one) == one
    with pytest.raises(InvcatError) as raised:
        cat.identity("Y")
    assert str(raised.value) == "unknown object Y"
    with pytest.raises(InvcatError) as raised:
        cat.involve(a)
    assert str(raised.value) == "involution table is missing X→X [a]"


def test_a_table_category_rejects_a_morphism_filed_under_the_wrong_hom_set():
    one, other = Morphism("X", "X", "1"), Morphism("Y", "Y", "1")
    with pytest.raises(InvcatError, match=r"Y→Y \[1\] filed under wrong hom-set"):
        TableCategory(
            ["X", "Y"], {("X", "X"): [one, other]}, {(one, one): one}, {"X": one, "Y": other}
        )


def test_a_table_category_rejects_a_composite_outside_its_hom_set():
    cat = canonical_pbij_category((0, 1, 2))
    s1, s2 = cat.finset("S1"), cat.finset("S2")
    objects = cat.objects
    homs = {(a, b): cat.hom(a, b) for a in objects for b in objects}
    table = {
        (f, g): cat.compose(f, g)
        for fs in homs.values()
        for f in fs
        for gs in homs.values()
        for g in gs
        if g.cod == f.dom
    }
    identities = {a: cat.identity(a) for a in objects}
    v = make_pbij(s1, s2, (("e1", "e1"),))
    assert TableCategory(objects, homs, table, identities).compose(v, identities[s1]) == v
    (table[v, identities[s1]],) = homs[cat.zero_object, s2]  # 0→S2 ∅
    with pytest.raises(InvcatError) as refused:
        TableCategory(objects, homs, table, identities)
    assert str(refused.value) == (
        "composition table gives 0→S2 ∅ as S1→S2 {e1↦e1} after S1→S1 {e1↦e1}, outside hom(S1, S2)"
    )


# ---- associativity over morphism ids, against the per-triple check ------


def _reference_associativity(cat, budget):
    """The per-triple check, kept as the oracle: every composable triple in
    pool order (objects a, b, c, d, then f: c→d, g: b→c, h: a→b), four
    cat.compose calls each."""
    enum = Enumeration(cat, budget)
    objs = cat.objects

    def triples():
        for a in objs:
            for b in objs:
                for c in objs:
                    for d in objs:
                        for f in enum.pool(c, d):
                            for g in enum.pool(b, c):
                                for h in enum.pool(a, b):
                                    yield f, g, h

    def check(triple):
        f, g, h = triple
        left = cat.compose(cat.compose(f, g), h)
        right = cat.compose(f, cat.compose(g, h))
        if left != right:
            return (
                f"(f∘g)∘h ≠ f∘(g∘h) for f={render_morphism(f)}, "
                f"g={render_morphism(g)}, h={render_morphism(h)}"
            )
        return None

    return run_clause("category.associativity", "cat", triples(), check)


@pytest.mark.hashseed
def test_associativity_agrees_with_the_per_triple_check(budget):
    base = canonical_pbij_category((1, 2))
    for cat in (canonical_pbij_category((0, 1, 2)), base):
        got = check_inverse_category(cat, budget).clause("category.associativity")
        assert got == _reference_associativity(cat, budget)
        assert got.status == PASS
    # one clone per composable pair of the checked base, each made after the
    # previous clone was checked, so nothing may carry over between them
    clones = failing = 0
    objs = base.objects
    for a in objs:
        for b in objs:
            for c in objs:
                for f in base.hom(b, c):
                    for g in base.hom(a, b):
                        fg = base.compose(f, g)
                        wrong = next((m for m in base.hom(a, c) if m != fg), None)
                        if wrong is None:
                            continue
                        twin = base.with_corrupted_composition(f, g, wrong)
                        got = check_inverse_category(twin, budget).clause("category.associativity")
                        assert got == _reference_associativity(twin, budget), (f, g, wrong)
                        clones += 1
                        failing += got.status == FAIL
    assert failing == clones > 100


def _reference_antihomomorphism(cat, budget):
    """The per-pair check, kept as the oracle: every composable pair in pool
    order (objects a, b, c, then f: b→c, g: a→b), through cat.compose and
    cat.involve."""
    enum = Enumeration(cat, budget)
    objs = cat.objects

    def pairs():
        for a in objs:
            for b in objs:
                for c in objs:
                    for f in enum.pool(b, c):
                        for g in enum.pool(a, b):
                            yield f, g

    def check(pair):
        f, g = pair
        left = cat.involve(cat.compose(f, g))
        right = cat.compose(cat.involve(g), cat.involve(f))
        if left != right:
            return f"(f∘g)* ≠ g*∘f* for f={render_morphism(f)}, g={render_morphism(g)}"
        return None

    return run_clause("involution.antihomomorphism", "1", pairs(), check)


def _verdict(clause):
    return clause.status, clause.checked, clause.counterexample


def _non_associative():
    """A one-object Cayley table on 1, a, b that is not associative:
    (a·a)·a = b·a = b but a·(a·a) = a·b = a.  The triple (a, a, a) has four
    passing triples before it in the block of f = a."""
    ms = {label: Morphism("X", "X", label) for label in "1ab"}
    rows = {"1": "1ab", "a": "aba", "b": "bbb"}
    table = {(ms[x], ms[y]): ms[rows[x]["1ab".index(y)]] for x in ms for y in ms}
    return TableCategory(("X",), {("X", "X"): tuple(ms.values())}, table, {"X": ms["1"]})


@pytest.mark.hashseed
def test_block_compares_agree_with_the_per_case_checks_cold_and_warm(fn2_cat, budget):
    # each category is checked twice: the first run starts from an empty
    # table, the second reads what the first filled, so the block compares
    # meet filled blocks that pass and filled blocks that fail
    base = canonical_pbij_category((1, 2))
    composition, involution = list(endomorphism_clones(base)), list(involution_clones(base))
    assert (len(composition), len(involution)) == (53, 9)
    clones = composition + involution
    # the dict-table model, as specs and Cayley tables build it; on the
    # total functions of a 2-set, an involution raises inside a block
    tables = [
        two_object_category(cyclic_group(4)),
        two_object_category(symmetric_inverse_monoid(2)),
        fn2_cat,
        _non_associative(),
    ]
    cases = [canonical_pbij_category(sizes) for sizes in ((0, 1, 2), (1, 2))] + clones + tables
    failing = Counter()
    for cat in cases:
        runs = [check_inverse_category(cat, budget) for _ in range(2)]
        want = {
            "category.associativity": _reference_associativity(cat, budget),
            "involution.antihomomorphism": _reference_antihomomorphism(cat, budget),
        }
        for clause_id, clause in want.items():
            for report in runs:
                assert _verdict(report.clause(clause_id)) == _verdict(clause), (clause_id, cat)
            if any(cat is clone for clone in clones):
                failing[clause_id] += clause.status == FAIL
        if cat is tables[-1]:
            assert want["category.associativity"].checked == 9 + 4 + 1
        if cat is fn2_cat:
            want_antihomomorphism = ("fail", 2, "X→X [ka] has 2 quasi-inverses")
            assert _verdict(want["involution.antihomomorphism"]) == want_antihomomorphism
    # every composition clone breaks associativity and 44 of them the
    # antihomomorphism law; every involution clone breaks the latter only
    assert failing == {"category.associativity": 53, "involution.antihomomorphism": 44 + 9}


def test_antihomomorphism_fails_on_the_first_involution_the_law_asks_for(budget):
    # all maps of a 3-set: f = (1↦1, 2↦1, 3↦2) comes first and f∘g first
    # meets the constant g = 1↦1, 2↦1, 3↦1; neither f nor f∘g has a unique
    # quasi-inverse, and the law reads (f∘g)* before g* and f*
    maps = list(itertools.product("123", repeat=3))
    ms = {m: Morphism("X", "X", "f" if m == ("1", "1", "2") else "m" + "".join(m)) for m in maps}
    table = {(ms[a], ms[b]): ms[tuple(a[int(x) - 1] for x in b)] for a in maps for b in maps}
    cat = TableCategory(("X",), {("X", "X"): tuple(ms.values())}, table, {"X": ms[("1", "2", "3")]})
    got = check_inverse_category(cat, budget).clause("involution.antihomomorphism")
    assert _verdict(got) == _verdict(_reference_antihomomorphism(cat, budget))
    assert _verdict(got) == (FAIL, 1, "X→X [m111] has 3 quasi-inverses")


def test_antihomomorphism_block_compare_reads_only_filled_entries(monkeypatch, budget):
    # every involution is filled and no composite is: both sides of each
    # block read as missing, which must not count as agreeing
    real = core.run_clause

    def antihomomorphism_only(clause_id, anchor, cases, check):
        if clause_id == "involution.antihomomorphism":
            return real(clause_id, anchor, cases, check)
        return Clause(clause_id, anchor, SKIPPED)

    monkeypatch.setattr(core, "run_clause", antihomomorphism_only)
    clones = list(involution_clones(canonical_pbij_category((1, 2))))
    for cat in clones:
        for a in cat.objects:
            for b in cat.objects:
                for m in cat.hom(a, b):
                    cat.involve(m)
        assert cat.rows and not any(cat.rows)
        got = check_inverse_category(cat, budget).clause("involution.antihomomorphism")
        assert _verdict(got) == _verdict(_reference_antihomomorphism(cat, budget))
        assert got.status == FAIL


def test_block_compares_hand_a_warm_passing_category_over_as_passed_cases(monkeypatch, budget):
    cat = canonical_pbij_category((0, 1, 2, 3))
    check_inverse_category(cat, budget)
    handed = {}
    real = core.run_clause

    def spy(clause_id, anchor, cases, check):
        if clause_id in ("category.associativity", "involution.antihomomorphism"):
            cases = handed[clause_id] = list(cases)
        return real(clause_id, anchor, cases, check)

    monkeypatch.setattr(core, "run_clause", spy)
    report = check_inverse_category(cat, budget)
    assert report.passed
    for clause_id, total in (("category.associativity", 134_920), ("involution.antihomomorphism", 3_396)):
        cases = handed[clause_id]
        assert cases and all(type(case) is Passed for case in cases), clause_id
        assert sum(cases) == report.clause(clause_id).checked == total


def test_associativity_hands_over_passed_cases_and_one_failing_triple_per_block(monkeypatch, budget):
    # a cold run: each block of one f and hom blocks of g and h comes as
    # Passed cases, followed by one Failed case, worded for its first failing
    # triple, when it has one; the clause ends there, as the reference does
    handed = []
    real = core.run_clause

    def spy(clause_id, anchor, cases, check):
        if clause_id == "category.associativity":
            cases = list(cases)
            handed.append(cases)
        return real(clause_id, anchor, cases, check)

    def first_failures(cat):
        enum, objs, out = Enumeration(cat, budget), cat.objects, []
        for a in objs:
            for b in objs:
                for c in objs:
                    for d in objs:
                        for f in enum.pool(c, d):
                            out += [
                                f"(f∘g)∘h ≠ f∘(g∘h) for f={render_morphism(f)}, "
                                f"g={render_morphism(g)}, h={render_morphism(h)}"
                                for g in enum.pool(b, c)
                                for h in enum.pool(a, b)
                                if cat.compose(cat.compose(f, g), h) != cat.compose(f, cat.compose(g, h))
                            ][:1]
        return out

    monkeypatch.setattr(core, "run_clause", spy)
    base = canonical_pbij_category((1, 2))
    report = check_inverse_category(base, budget)
    assert all(type(case) is Passed for case in handed[-1])
    assert sum(handed[-1]) == report.clause("category.associativity").checked > 0
    for cat in endomorphism_clones(base):
        clause = check_inverse_category(cat, budget).clause("category.associativity")
        cases = handed[-1]
        failed = [case for case in cases if type(case) is not Passed]
        assert all(type(case) is Failed for case in failed)
        assert failed == first_failures(cat) != []
        first = cases.index(failed[0])
        assert _verdict(clause) == (FAIL, sum(cases[:first]) + 1, failed[0])
        assert _verdict(clause) == _verdict(_reference_associativity(cat, budget))


def test_antihomomorphism_hands_over_passed_cases_and_one_failing_pair_per_block(monkeypatch, budget):
    # a cold run: each block of one f and a hom block of g comes as Passed
    # cases, followed by one Failed case, worded for its first failing pair,
    # when it has one; the clause ends there, as the reference does
    handed = []
    real = core.run_clause

    def spy(clause_id, anchor, cases, check):
        if clause_id == "involution.antihomomorphism":
            cases = list(cases)
            handed.append(cases)
        return real(clause_id, anchor, cases, check)

    def first_failures(cat):
        enum, objs, out = Enumeration(cat, budget), cat.objects, []
        for a in objs:
            for b in objs:
                for c in objs:
                    for f in enum.pool(b, c):
                        out += [
                            f"(f∘g)* ≠ g*∘f* for f={render_morphism(f)}, g={render_morphism(g)}"
                            for g in enum.pool(a, b)
                            if cat.involve(cat.compose(f, g)) != cat.compose(cat.involve(g), cat.involve(f))
                        ][:1]
        return out

    monkeypatch.setattr(core, "run_clause", spy)
    clones = list(involution_clones(canonical_pbij_category((1, 2))))
    assert len(clones) == 9
    for cat in clones:
        clause = check_inverse_category(cat, budget).clause("involution.antihomomorphism")
        cases = handed[-1]
        failed = [case for case in cases if type(case) is not Passed]
        assert all(type(case) is Failed for case in failed)
        assert failed == first_failures(cat) != []
        # run_clause stops at the first Failed case, after the Passed cases before it
        first = cases.index(failed[0])
        assert _verdict(clause) == (FAIL, sum(cases[:first]) + 1, failed[0])
        assert _verdict(clause) == _verdict(_reference_antihomomorphism(cat, budget))


def _cyclic3():
    """Z/3 on one object X, labelled so that the pools list the generator
    "a", the unit "b", then "c": the per-triple check asks for (g, h)
    before (fg, h), and on this order that changes which composite is
    needed first, so a block filled in another order asks in another order."""
    ms = {label: Morphism("X", "X", label) for label in "abc"}
    power = {"b": 0, "a": 1, "c": 2}
    label = {k: x for x, k in power.items()}
    table = {
        (ms[x], ms[y]): ms[label[(power[x] + power[y]) % 3]] for x in ms for y in ms
    }
    return TableCategory(("X",), {("X", "X"): tuple(ms.values())}, table, {"X": ms["b"]})


@pytest.mark.parametrize("make", [_cyclic3, lambda: canonical_pbij_category((0, 1, 2))])
def test_associativity_computes_each_composite_once(make, monkeypatch, budget):
    # the model composes each distinct composite at most once, whichever
    # hook asks for it, and associativity fills the entries the per-triple
    # oracle fills, in its own order
    def record(cat):
        composed, rule = [], cat._compose
        cat._compose = lambda f, g: composed.append(rule(f, g)) or composed[-1]
        return composed

    def entries(cat):
        by_id = cat.morphisms_by_id
        return {(by_id[i], by_id[j]): by_id[k] for i, row in enumerate(cat.rows) for j, k in row.items()}

    reference = make()
    first_composed = record(reference)
    _reference_associativity(reference, budget)
    assert len(set(first_composed)) == len(first_composed)

    cat = make()
    composed, by_clause = record(cat), {}
    real = core.run_clause

    def measure(clause_id, anchor, cases, check):
        before = entries(cat)
        clause = real(clause_id, anchor, cases, check)
        by_clause[clause_id] = before, entries(cat).items() - before.items()
        return clause

    monkeypatch.setattr(core, "run_clause", measure)
    check_inverse_category(cat, budget)
    assert len(set(composed)) == len(composed)
    # the identity laws run first and leave their entries in the table;
    # associativity fills the rest a block at a time
    earlier, during = by_clause["category.associativity"]
    assert during == entries(reference).items() - earlier.items()
    # a complete table is filled at construction: no suite asks its rule
    if make is _cyclic3:
        assert composed == first_composed == [] and not during
    else:
        assert earlier and during


def test_associativity_fills_the_table_every_clause_and_run_shares(budget):
    cat = canonical_pbij_category((0, 1, 2))
    enum = Enumeration(cat, budget)
    core.inverse_category_clauses(enum)
    calls = []
    real = cat._compose
    cat._compose = lambda f, g: calls.append((f, g)) or real(f, g)
    pairs = list(composable_pairs(enum))
    for f, g in pairs:
        fg = cat.morphisms_by_id[cat.compose_id(cat.intern(f), cat.intern(g))]
        assert fg == cat.compose(f, g) == real(f, g)
    check_inverse_category(cat, budget)  # a second run on the same category
    assert len(pairs) == 166 and calls == []


def test_compose_id_goes_through_compose_once_per_pair():
    base = canonical_pbij_category((1, 2))
    s2 = size_finset(2)
    p1, p2 = make_pbij(s2, s2, (("e1", "e1"),)), make_pbij(s2, s2, (("e2", "e2"),))
    twin = base.with_corrupted_composition(p1, p2, p1)
    assert base.morphisms_by_id == [] and twin.morphisms_by_id == [p1, p2]
    calls = []
    real = twin._compose
    twin._compose = lambda f, g: calls.append((f, g)) or real(f, g)
    i, j = twin.intern(p1), twin.intern(p2)
    assert twin.intern(make_pbij(s2, s2, (("e1", "e1"),))) == i
    assert twin.rows[i] == {j: i}  # the defect is written when the clone is made
    assert twin.compose_id(i, j) == i  # and the model rule is never asked for it
    assert calls == []
    for _ in range(2):
        assert twin.morphisms_by_id[twin.compose_id(j, i)] == twin.zero(s2, s2)
    assert calls == [(p2, p1)]
    assert twin.rows[i] == {j: i}


def test_clone_overrides_land_in_the_clone_table_only(budget):
    base = canonical_pbij_category((2,))
    s2 = size_finset(2)
    p1, p2 = make_pbij(s2, s2, (("e1", "e1"),)), make_pbij(s2, s2, (("e2", "e2"),))
    swap = make_pbij(s2, s2, (("e1", "e2"), ("e2", "e1")))
    truth = base.compose(p1, p2)
    i, j = base.intern(p1), base.intern(p2)
    rows = [dict(row) for row in base.rows]
    # the twin's table is its base's, each row a copy, with the defect written in
    twin = base.with_corrupted_composition(p1, p2, p1)
    assert twin.morphisms_by_id == base.morphisms_by_id
    assert twin.rows == [{**row, j: i} if n == i else row for n, row in enumerate(rows)]
    assert not any(map(operator.is_, twin.rows, base.rows))
    assert twin.compose(p1, p2) == p1 != truth
    assert base.rows == rows and base.compose(p1, p2) == truth
    # a clone of a clone copies the twin's table and keeps both defects
    twin2 = twin.with_corrupted_involution(swap, p1)
    assert twin2.morphisms_by_id == [*twin.morphisms_by_id, swap]
    assert twin2.rows == [*twin.rows, {}]
    assert twin2.compose(p1, p2) == p1 and twin2.involve(swap) == p1
    twin3 = twin2.with_corrupted_involution(p1, swap)._clone()  # and so on down
    assert twin3.compose(p1, p2) == p1 and twin3.involve(swap) == p1 and twin3.involve(p1) == swap
    assert twin.involve(swap) == swap == base.involve(swap)
    assert not check_inverse_category(twin2, budget).passed
    assert check_inverse_category(base, budget).passed


def test_a_table_clone_answers_its_overrides_and_reads_the_rest_from_its_table(budget):
    # a table clone starts from a copy of its base's table with the
    # defects written in, before and after suites have run on the base;
    # the base keeps its own table
    base = build_category(parse_spec(NOT_BAER_STAR))[0]
    table, involution = morphism_tables(base)
    rows = [dict(row) for row in base.rows]
    identities = {base.identity(a) for a in base.objects}
    f, g = next(
        (f, g) for f, g in table if identities.isdisjoint((f, g)) and len(base.hom(g.dom, f.cod)) > 1
    )
    wrong = next(m for m in base.hom(g.dom, f.cod) if m != table[f, g])
    h = next(m for m in involution if m not in identities and len(base.hom(m.cod, m.dom)) > 1)
    bad_star = next(m for m in base.hom(h.cod, h.dom) if m != involution[h])

    def no_rule(*pair):
        raise AssertionError(f"the model rule was asked for {pair}")

    for suites_run in (False, True):
        if suites_run:
            check_inverse_category(base, budget)
            check_exactness(base, budget)
        composition = base.with_corrupted_composition(f, g, wrong)
        twins = (
            (composition, {(f, g): wrong}, {}),
            (base.with_corrupted_involution(h, bad_star), {}, {h: bad_star}),
            (composition.with_corrupted_involution(h, bad_star), {(f, g): wrong}, {h: bad_star}),
        )
        for twin, composites, stars in twins:
            twin._compose = twin._involve = no_rule
            assert {pair: twin.compose(*pair) for pair in table} == {**table, **composites}
            assert {m: twin.involve(m) for m in involution} == {**involution, **stars}
            assert not check_inverse_category(twin, budget).passed
        assert [dict(row) for row in base.rows[: len(rows)]] == rows
        assert base.compose(f, g) == table[f, g] and base.involve(h) == involution[h]


def _outcome(answer, *args):
    """answer(*args), or the type of the library error it raises."""
    try:
        return answer(*args)
    except InvcatError as error:
        return type(error)


def test_warm_and_fresh_bases_give_the_same_clone(budget):
    # a clone copies its base's table as it stands: one made after the
    # suites ran on the base answers as one made from a fresh base
    warm = canonical_pbij_category((1, 2))
    checks = (check_inverse_category, check_exactness, check_coherence)
    for check in checks:
        check(warm, budget)
    objects = warm.objects
    pairs = [
        (f, g)
        for a, b, c in itertools.product(objects, repeat=3)
        for f, g in itertools.product(warm.hom(b, c), warm.hom(a, b))
    ]
    morphisms = [f for a, b in itertools.product(objects, repeat=2) for f in warm.hom(a, b)]

    def answers(cat):
        return [_outcome(cat.compose, *pair) for pair in pairs], [_outcome(cat.involve, f) for f in morphisms]

    seeded = Counter()
    for n, (corrupt, args) in enumerate(single_entry_defects(warm)):
        seeded[corrupt.__name__] += 1
        twins = corrupt(warm, *args), corrupt(canonical_pbij_category((1, 2)), *args)
        if n % 8 == 0:
            for check in checks:
                assert _doc(check(twins[0], budget)) == _doc(check(twins[1], budget)), (check.__name__, args)
        assert answers(twins[0]) == answers(twins[1]), args
    assert seeded == {"with_corrupted_composition": 480, "with_corrupted_involution": 56}


def test_a_clone_of_a_clone_of_a_table_with_no_involution_rule_searches_its_own_table():
    i2 = symmetric_inverse_monoid(2)
    m = {s: Morphism("X", "X", s) for s in i2.elements}
    cat = TableCategory(
        ("X",),
        {("X", "X"): tuple(m.values())},
        {(m[x], m[y]): m[i2.product(x, y)] for x in m for y in m},
        {"X": m[i2.identity]},
    )
    assert not cat.has_involution_rule
    searched = {f: cat.involve(f) for f in m.values()}  # every involution asked for first
    assert searched[m["e1>e1"]] == m["e1>e1"] and searched[m["e1>e2"]] == m["e2>e1"]
    twin = cat.with_corrupted_involution(m["e1>e2"], m["0"])
    twin2 = twin.with_corrupted_composition(m["e1>e1"], m["e1>e1"], m["0"])
    assert twin2.involve(m["e1>e2"]) == m["0"]
    # searched again on twin2's table, where e1>e1 ∘ e1>e1 = 0 leaves e1>e1
    # no quasi-inverse; the searched answers of its bases are not copied
    with pytest.raises(NotInverseCategoryError):
        twin2.involve(m["e1>e1"])
    assert twin.involve(m["e1>e1"]) == cat.involve(m["e1>e1"]) == m["e1>e1"]


def test_moore_penrose_unique_fails_by_value_on_a_left_zero_band_with_identity(budget):
    # x·y = x for x ≠ 1 and x* = x: fgf = f and gfg = g for f, g in {a, b},
    # and fg = f, gf = g are self-adjoint, so a has two Moore-Penrose inverses
    one, a, b = elements = tuple(Morphism("X", "X", s) for s in ("1", "a", "b"))
    table = {(x, y): y if x == one else x for x in elements for y in elements}
    cat = TableCategory(("X",), {("X", "X"): elements}, table, {"X": one}, {x: x for x in elements})
    clause = check_inverse_category(cat, budget).clause("involution.moore-penrose-unique")
    assert (clause.status, clause.checked, clause.counterexample) == (
        FAIL,
        2,
        "X→X [a] has 2 Moore-Penrose inverses, e.g. X→X [a] and X→X [b]",
    )


def test_involve_asks_the_model_once_per_morphism_per_category(budget):
    cat = canonical_pbij_category((1, 2))
    calls = []
    real = cat._involve
    cat._involve = lambda f: calls.append(f) or real(f)
    for _ in range(2):
        check_inverse_category(cat, budget)
    first = list(calls)
    assert first and len(set(first)) == len(first)
    calls.clear()
    check_inverse_category(cat._clone(), budget)  # the clone asks again, once each
    assert sorted(calls, key=morphism_sort_key) == sorted(first, key=morphism_sort_key)


def test_missing_table_entry_raises_the_same_text_inside_associativity(monkeypatch, budget):
    base = build_category(parse_spec(README_FIXTURE))[0]
    identities = {base.identity(a) for a in base.objects}
    pairs = [(f, g) for f, g in morphism_tables(base)[0] if f not in identities and g not in identities]
    assert len(pairs) > 20
    started = []
    real = core.run_clause

    def spy(clause_id, anchor, cases, check):
        started.append(clause_id)
        return real(clause_id, anchor, cases, check)

    monkeypatch.setattr(core, "run_clause", spy)
    for pair in pairs:
        damaged = [table_lacking(base, pairs=[pair]) for _ in range(2)]
        with pytest.raises(InvcatError) as want:
            _reference_associativity(damaged[0], budget)
        with pytest.raises(InvcatError) as got:
            check_inverse_category(damaged[1], budget)
        assert started[-1] == "category.associativity"
        assert str(got.value) == str(want.value)


@pytest.mark.hashseed
def test_every_memo_is_answered_from_the_memo(monkeypatch):
    # a memoised function whose value no caller asks for twice in one run
    # only keeps its entries: it should be a plain call
    asks, hits = Counter(), Counter()
    cached = Enumeration.cached

    def counted(enum, fn, key):
        asks[fn.__name__] += 1
        hits[fn.__name__] += (fn, key) in enum._memo
        return cached(enum, fn, key)

    monkeypatch.setattr(Enumeration, "cached", counted)
    for cat in (canonical_pbij_category((0, 1, 2)), two_object_category(symmetric_inverse_monoid(2))):
        for run in (check_inverse_category, check_baer_star, check_exactness, check_coherence):
            run(cat)
        theorem_suite(cat, "all")
    assert asks
    assert [name for name in asks if not hits[name]] == []
