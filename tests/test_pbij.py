"""The enumeration oracle here is deliberately independent of the library:
partial bijections are re-derived by filtering every subset of A x B for
functionality and injectivity, and counts are re-derived by summation."""

import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from invcat import (
    CompositionError,
    Enumeration,
    FiniteCategory,
    FinSet,
    InvcatError,
    Morphism,
    PBijCategory,
    PBijValidationError,
    build_category,
    canonical_pbij_category,
    check_coherence,
    check_exactness,
    check_inverse_category,
    compose_pbij,
    enumerate_pbij,
    hom_count,
    identity_pbij,
    inclusion,
    invert_pbij,
    make_pbij,
    parse_spec,
    partial_identity,
    size_finset,
    theorem_suite,
)
from invcat.core import pbij_counts_by_rank
from invcat.pbij import (
    ZERO_FINSET,
    DuplicateCodomainElementError,
    DuplicateDomainElementError,
    UnknownElementError,
    corestriction,
    image_labels,
    image_subset,
    inverse_code,
    inverse_image_subset,
    pbij_code,
    pbij_pairs,
    preimage_subset,
    projection_labels,
    subset_finset,
    undefined_labels,
    unhit_labels,
    zero_pbij,
)
from model_copies import endomorphism_clones, involution_clones, table_lacking
from test_exactness import composable_pairs
from test_golden import README_FIXTURE


def brute_force_pbijs(a: FinSet, b: FinSet) -> set[frozenset]:
    """Filter every relation on a.elements x b.elements down to the partial
    bijections.  Exponential, fine at size 3."""
    grid = list(itertools.product(a.elements, b.elements))
    out = set()
    for bits in itertools.product((0, 1), repeat=len(grid)):
        rel = [p for p, keep in zip(grid, bits) if keep]
        xs = [x for x, _ in rel]
        ys = [y for _, y in rel]
        if len(set(xs)) == len(xs) and len(set(ys)) == len(ys):
            out.add(frozenset(rel))
    return out


@pytest.mark.parametrize("m,n", [(0, 0), (0, 2), (1, 1), (2, 2), (2, 3), (3, 3)])
def test_enumeration_matches_brute_force(m, n):
    a, b = size_finset(m), size_finset(n)
    enumerated = {f.payload for f in enumerate_pbij(a, b)}
    assert enumerated == brute_force_pbijs(a, b)


def brute_counts_by_rank(m: int, n: int) -> list[int]:
    return [comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1)]


def brute_count(m: int, n: int) -> int:
    return sum(brute_counts_by_rank(m, n))


def test_counts_by_rank_follow_the_binomial_formula():
    # pbij_counts_by_rank steps from rank k to k + 1 by (m−k)(n−k)/(k+1)
    for m, n in [*itertools.product(range(13), repeat=2), (400, 400)]:
        assert pbij_counts_by_rank(m, n) == brute_counts_by_rank(m, n)


@pytest.mark.parametrize("m,n", list(itertools.product(range(5), repeat=2)))
def test_hom_count_formula(m, n):
    assert hom_count(m, n) == brute_count(m, n)


def test_hom_count_landmarks():
    assert hom_count(2, 2) == 7
    assert hom_count(3, 3) == 34
    assert hom_count(4, 4) == 209
    assert hom_count(2, 3) == 13
    assert hom_count(3, 0) == 1


def test_enumeration_is_deterministic():
    a, b = size_finset(2), size_finset(3)
    assert enumerate_pbij(a, b) == enumerate_pbij(a, b)
    assert len(enumerate_pbij(a, b)) == 13


def test_make_pbij_validation(A, B):
    with pytest.raises(UnknownElementError):
        make_pbij(A, B, (("9", "a"),))
    with pytest.raises(UnknownElementError):
        make_pbij(A, B, (("1", "z"),))
    with pytest.raises(DuplicateDomainElementError):
        make_pbij(A, B, (("1", "a"), ("1", "b")))
    with pytest.raises(DuplicateCodomainElementError):
        make_pbij(A, B, (("1", "a"), ("2", "a")))
    assert issubclass(UnknownElementError, PBijValidationError)


def test_make_pbij_reads_an_iterator_of_pairs_once():
    s3 = size_finset(3)
    as_tuple = make_pbij(s3, s3, (("e1", "e2"), ("e2", "e3")))
    assert make_pbij(s3, s3, iter([("e1", "e2"), ("e2", "e3")])) == as_tuple
    assert make_pbij(s3, s3, zip(("e1", "e2"), ("e2", "e3"))) == as_tuple
    assert make_pbij(s3, s3, ((x, y) for x, y in as_tuple.payload)).payload == as_tuple.payload
    with pytest.raises(DuplicateCodomainElementError):
        make_pbij(s3, s3, iter([("e1", "e2"), ("e3", "e2")]))


def test_label_views(f):
    assert image_labels(f) == ("a", "b")
    assert undefined_labels(f) == ("3",)
    assert unhit_labels(f) == ("c",)
    assert pbij_pairs(f) == (("1", "a"), ("2", "b"))


def test_compose_and_invert_oracle(A, B, f):
    g = make_pbij(B, A, (("a", "2"), ("c", "3")))
    gf = compose_pbij(g, f)
    assert gf.payload == frozenset({("1", "2")})
    assert invert_pbij(f).payload == frozenset({("a", "1"), ("b", "2")})
    assert compose_pbij(invert_pbij(f), f).payload == frozenset(
        {("1", "1"), ("2", "2")}
    )
    assert identity_pbij(A).payload == frozenset({("1", "1"), ("2", "2"), ("3", "3")})
    assert zero_pbij(A, B).payload == frozenset()


def test_partial_identities_and_projections(A):
    i = partial_identity(A, ("1", "3"))
    assert i.payload == frozenset({("1", "1"), ("3", "3")})
    assert partial_identity(A, ("3", "1")) == i
    assert projection_labels(i) == ("1", "3")
    with pytest.raises(UnknownElementError):
        partial_identity(A, ("9",))


def test_inclusion_and_corestriction(A):
    u = inclusion(A, ("1", "3"))
    assert u.dom == subset_finset(("1", "3"))
    assert u.dom.elements == ("1", "3")
    assert u.cod == A
    assert u.payload == frozenset({("1", "1"), ("3", "3")})
    q = corestriction(A, ("2",))
    assert q.dom == A and q.cod.elements == ("2",)
    assert q.payload == frozenset({("2", "2")})
    assert subset_finset(()) == ZERO_FINSET


def test_subset_transfer_closed_forms(f):
    assert image_subset(f, ("1", "3")) == ("a",)
    assert inverse_image_subset(f, ("a", "c")) == ("1", "3")
    assert preimage_subset(f, ("a", "c")) == ("1",)
    assert image_subset(f, ()) == ()
    assert inverse_image_subset(f, ()) == ("3",)
    assert preimage_subset(f, ()) == ()


@st.composite
def pbij_payloads(draw, xs=("1", "2", "3"), ys=("a", "b", "c")):
    k = draw(st.integers(min_value=0, max_value=min(len(xs), len(ys))))
    dom = draw(st.permutations(list(xs)))[:k]
    img = draw(st.permutations(list(ys)))[:k]
    return frozenset(zip(dom, img))


@given(pbij_payloads(), pbij_payloads(xs=("a", "b", "c"), ys=("1", "2", "3")))
def test_composition_against_relation_composition(p1, p2):
    A = FinSet("A", ("1", "2", "3"))
    B = FinSet("B", ("a", "b", "c"))
    f = make_pbij(A, B, p1)
    g = make_pbij(B, A, p2)
    gf = compose_pbij(g, f)
    relational = {(x, z) for (x, y) in p1 for (y2, z) in p2 if y == y2}
    assert gf.payload == frozenset(relational)
    # involution is an antihomomorphism on the nose for pair sets
    assert invert_pbij(gf) == compose_pbij(invert_pbij(f), invert_pbij(g))


@given(pbij_payloads(), st.sets(st.sampled_from(["1", "2", "3"])))
def test_subset_routes_agree_with_composition_route(payload, subset):
    A = FinSet("A", ("1", "2", "3"))
    B = FinSet("B", ("a", "b", "c"))
    f = make_pbij(A, B, payload)
    i = partial_identity(A, tuple(subset))
    via_comp = compose_pbij(compose_pbij(f, i), invert_pbij(f))
    assert set(image_subset(f, subset)) == {x for x, _ in via_comp.payload}


def test_category_homs_match_closed_count(pbij3, budget):
    for a in pbij3.objects:
        for b in pbij3.objects:
            assert len(pbij3.hom(a, b)) == hom_count(len(a.elements), len(b.elements))


def test_category_zero_object_and_accessors(pbij2):
    assert pbij2.zero_object == ZERO_FINSET
    assert pbij2.finset("S1").elements == ("e1",)
    with pytest.raises(Exception):
        pbij2.finset("nope")


def test_size_finset_shapes():
    assert size_finset(0) == ZERO_FINSET
    assert size_finset(3).elements == ("e1", "e2", "e3")
    cat = canonical_pbij_category((2, 2, 3))
    names = [o.name for o in cat.objects]
    assert names.count("S2") == 1  # duplicate sizes collapse


@pytest.mark.parametrize(
    "name, labels, text",
    [
        ("", ("a",), "object name must be non-empty"),
        ("A", ("a", ""), "empty element label in A"),
        ("A", ("a", "b", "a"), "duplicate element labels in A"),
    ],
)
def test_finset_rejects_an_empty_name_an_empty_label_and_duplicate_labels(name, labels, text):
    with pytest.raises(InvcatError) as raised:
        FinSet(name, labels)
    assert str(raised.value) == text


def test_equal_composites_are_one_object():
    cat = canonical_pbij_category((2,))
    s2 = cat.finset("S2")
    swap = make_pbij(s2, s2, (("e1", "e2"), ("e2", "e1")))
    first = cat.compose(swap, swap)
    again = cat.compose(cat.identity(s2), cat.identity(s2))
    assert first == again == cat.identity(s2)
    assert first is again
    # the empty map arises from many distinct pairs
    e1 = partial_identity(s2, ("e1",))
    e2 = partial_identity(s2, ("e2",))
    assert cat.compose(e1, e2) is cat.compose(e2, e1) is cat.compose(e1, zero_pbij(s2, s2))


def test_interning_leaves_corrupted_composites_alone():
    cat = canonical_pbij_category((2,))
    s2 = cat.finset("S2")
    e1 = partial_identity(s2, ("e1",))
    wrong = partial_identity(s2, ("e2",))
    clone = cat.with_corrupted_composition(e1, e1, wrong)
    assert clone.compose(e1, e1) is wrong
    assert clone.compose(e1, cat.identity(s2)) == e1
    assert cat.compose(e1, e1) == e1
    assert clone.compose(cat.identity(s2), e1) is clone.compose(e1, cat.identity(s2))


# ---- composite ids from codes --------------------------------------------


def test_pbij_code_names_each_member_of_a_hom_set_and_composes_by_lookup():
    s2, s3 = size_finset(2), size_finset(3)
    assert pbij_code(make_pbij(s2, s3, (("e1", "e3"),))) == "\0\3\0"
    assert pbij_code(identity_pbij(ZERO_FINSET)) == "\0"
    for dom, mid, cod in ((s2, s3, s2), (s3, s2, s3), (s3, s3, s2)):
        assert len({pbij_code(h) for h in enumerate_pbij(dom, cod)}) == hom_count(len(dom), len(cod))
        for f in enumerate_pbij(mid, cod):
            for g in enumerate_pbij(dom, mid):
                assert pbij_code(g).translate(pbij_code(f)) == pbij_code(compose_pbij(f, g))


def test_inverse_code_is_the_code_of_the_inverse():
    sizes = [size_finset(k) for k in range(4)]
    for dom, cod in itertools.product(sizes, repeat=2):
        for f in enumerate_pbij(dom, cod):
            assert inverse_code(pbij_code(f), len(cod)) == pbij_code(invert_pbij(f))
    # positions past chr(255) invert too
    big = FinSet("Big", tuple(f"x{n:03d}" for n in range(300)))
    labels = big.elements
    flip = make_pbij(big, big, tuple(zip(labels[::2], labels[::-2])))
    into = make_pbij(sizes[2], big, (("e1", labels[-1]),))
    for f in (flip, into, invert_pbij(into)):
        assert inverse_code(pbij_code(f), len(f.cod)) == pbij_code(invert_pbij(f))


def test_codes_past_latin1_compose_as_the_model_does():
    # 300 labels put positions past chr(255); the hom-set is never enumerated
    big = FinSet("Big", tuple(f"x{n:03d}" for n in range(300)))
    cat = PBijCategory([big])
    labels, zero = big.elements, cat.zero_object
    shift = make_pbij(big, big, tuple(zip(labels, labels[1:])))
    flip = make_pbij(big, big, tuple(zip(labels[::2], labels[::-2])))
    top = make_pbij(big, big, ((labels[0], labels[-1]), (labels[-1], labels[256])))
    assert max(map(ord, pbij_code(top))) == 300 and pbij_code(identity_pbij(zero)) == "\0"
    assert max(map(ord, pbij_code(flip))) == 300 and len(shift.payload) == 299
    ends = (zero_pbij(zero, big), zero_pbij(big, zero), identity_pbij(zero))
    ms = (shift, flip, top, identity_pbij(big), *ends)
    for f in ms:
        for dom in (big, zero):
            gs = [g for g in ms if g.cod == f.dom and g.dom == dom]
            want = [compose_pbij(f, g) for g in gs]
            pairs = [cat.compose_id(cat.intern(f), cat.intern(g)) for g in gs]
            assert [cat.morphisms_by_id[k] for k in pairs] == want
            twin = PBijCategory([big])  # an empty table: every g of the block misses
            block = twin.compose_ids(twin.intern(f), list(map(twin.intern, gs)))
            assert [twin.morphisms_by_id[k] for k in block] == want
    # hom(Big, 0) and hom(0, Big) have one member each, so their id tuples
    # are hom blocks, which the block hook reads from codes alone
    twin, into = PBijCategory([big]), ends[0]
    model_hom = twin._hom
    twin._hom = lambda a, b: model_hom(a, b) if zero in (a, b) else pytest.fail("hom(Big, Big) enumerated")
    hooked = _count_block_hook(twin)
    # the two composites the blocks land on, each composed once by the pair rule
    every, empty = twin.compose(shift, zero_pbij(big, big)), twin.compose(top, into)
    assert twin.compose_ids(twin.intern(into), twin.hom_ids(big, zero)) == [twin.intern(every)]
    assert twin.compose_ids(twin.intern(flip), twin.hom_ids(zero, big)) == [twin.intern(empty)]
    assert hooked == [(twin.intern(into), True), (twin.intern(flip), True)]


def _count_block_hook(cat) -> list:
    """Wraps cat's whole-block hook; the list gets (row id, whether the
    hook filled the row) for each call."""
    calls, block_rule = [], cat._compose_block_ids

    def counted(i, a, js):
        ks = block_rule(i, a, js)
        calls.append((i, ks is not None))
        return ks

    cat._compose_block_ids = counted
    return calls


@pytest.mark.hashseed
@pytest.mark.parametrize("sizes", [(0, 1, 2, 3), (0, 4)])
def test_block_hook_composes_every_row_over_every_pool_as_the_model_does(sizes, budget):
    cat = canonical_pbij_category(sizes)
    enum, hooked, objs = Enumeration(cat, budget), _count_block_hook(cat), cat.objects
    for b, c in itertools.product(objs, repeat=2):
        for i, f in zip(enum.pool_ids(b, c), enum.pool(b, c)):
            for a in objs:
                row = cat.compose_ids(i, enum.pool_ids(a, b))
                assert row == [cat.intern(compose_pbij(f, g)) for g in enum.pool(a, b)]
    # every row is asked once per pool, so each call of the hook is a fresh
    # row, and the hook fills it even where a composite of its block is new
    assert len(hooked) == len(cat.morphisms_by_id) * len(objs)
    assert all(filled for _, filled in hooked)


def test_a_defect_row_takes_the_block_hook_and_keeps_its_defect():
    base = canonical_pbij_category((2,))
    s2 = base.finset("S2")
    e1, e2 = partial_identity(s2, ("e1",)), partial_identity(s2, ("e2",))
    twin = base.with_corrupted_composition(e1, e2, e1)  # e1∘e2 is ∅, made e1
    hooked, ids = _count_block_hook(twin), twin.hom_ids(s2, s2)
    one, left, right = twin.identity_id(s2), twin.intern(e1), twin.intern(e2)
    assert twin.rows[left] == {right: left}
    for i in (one, left, right):
        assert twin.compose_ids(i, ids) == [twin.compose_id(i, j) for j in ids]
    by_id = twin.morphisms_by_id
    assert twin.compose_ids(left, ids) == [
        left if j == right else twin.intern(compose_pbij(e1, by_id[j])) for j in ids
    ]
    assert hooked == [(one, True), (left, True), (right, True)]


def test_a_partly_filled_row_takes_the_block_hook_and_composes_each_composite_once():
    cat = canonical_pbij_category((3,))
    s3 = cat.finset("S3")
    ids, by_id = cat.hom_ids(s3, s3), cat.morphisms_by_id
    composed, rule = [], cat._compose
    cat._compose = lambda f, g: composed.append(rule(f, g)) or composed[-1]
    hooked = _count_block_hook(cat)
    for i in ids:
        for j in ids[::3]:  # a third of the row first, pair by pair
            cat.compose_id(i, j)
        row = cat.compose_ids(i, ids)
        assert row == [cat.intern(compose_pbij(by_id[i], by_id[j])) for j in ids]
    assert hooked == [(i, True) for i in ids]
    assert len(set(composed)) == len(composed) == len(ids)


class PairRulePBij(PBijCategory):
    """Partial bijections with FiniteCategory's rule for every hook: every
    table entry composes its pair and interns the result."""

    _compose_rule_id = FiniteCategory._compose_rule_id
    _compose_block_ids = FiniteCategory._compose_block_ids


class PairScanPBij(PBijCategory):
    """Partial bijections whose block scans call compose_id for every pair."""

    def compose_ids(self, i, js):
        return [self.compose_id(i, j) for j in js]


def _doc(report) -> dict:
    doc = report.to_dict()
    del doc["stats"]["wall-time"]
    return doc


def _assert_rules_agree(by_code, by_pair, runs) -> None:
    for run in runs:
        assert _doc(run(by_code)) == _doc(run(by_pair))
    # entries are filled in the same order, so the two tables are equal
    assert by_code.morphisms_by_id == by_pair.morphisms_by_id
    assert by_code.rows == by_pair.rows


def _assert_agree_on_every_composite_asked_for(reference, budget) -> None:
    by_code = canonical_pbij_category((0, 1, 2, 3))
    by_pair = reference(by_code.objects)
    runs = (
        lambda cat: check_inverse_category(cat, budget),
        lambda cat: check_exactness(cat, budget),
        lambda cat: check_coherence(cat, budget),
        lambda cat: theorem_suite(cat, "all", budget),
    )
    _assert_rules_agree(by_code, by_pair, runs)
    pairs = sum(1 for _ in composable_pairs(Enumeration(by_code, budget)))
    assert sum(map(len, by_code.rows)) > pairs == 3_396


def _assert_agree_on_clones(reference, budget) -> None:
    by_code = canonical_pbij_category((1, 2))
    by_pair = reference(by_code.objects)
    runs = (
        lambda cat: check_inverse_category(cat, budget),
        lambda cat: check_exactness(cat, budget),
        lambda cat: check_coherence(cat, budget),
    )
    clones = 0
    for make in (endomorphism_clones, involution_clones):
        for code_clone, pair_clone in zip(make(by_code), make(by_pair), strict=True):
            assert type(pair_clone) is reference
            _assert_rules_agree(code_clone, pair_clone, runs)
            clones += 1
    assert clones == 53 + 9


def _assert_agree_on_the_largest_hom_set_in_budget(reference, budget) -> None:
    by_code = canonical_pbij_category((0, 4))
    by_pair = reference(by_code.objects)
    runs = (lambda cat: check_exactness(cat, budget), lambda cat: check_coherence(cat, budget))
    _assert_rules_agree(by_code, by_pair, runs)
    s4 = by_code.finset("S4")
    assert len(by_code.hom(s4, s4)) == budget.homset_limit == 209


@pytest.mark.hashseed
def test_code_rule_agrees_with_pair_rule_on_every_composite_asked_for(budget):
    _assert_agree_on_every_composite_asked_for(PairRulePBij, budget)


@pytest.mark.hashseed
def test_code_rule_agrees_with_pair_rule_on_clones(budget):
    _assert_agree_on_clones(PairRulePBij, budget)


@pytest.mark.hashseed
def test_code_rule_agrees_with_pair_rule_on_the_largest_hom_set_in_budget(budget):
    _assert_agree_on_the_largest_hom_set_in_budget(PairRulePBij, budget)


@pytest.mark.hashseed
def test_block_scans_agree_with_pair_scans_on_every_composite_asked_for(budget):
    _assert_agree_on_every_composite_asked_for(PairScanPBij, budget)


@pytest.mark.hashseed
def test_block_scans_agree_with_pair_scans_on_clones(budget):
    _assert_agree_on_clones(PairScanPBij, budget)


@pytest.mark.hashseed
def test_block_scans_agree_with_pair_scans_on_the_largest_hom_set_in_budget(budget):
    _assert_agree_on_the_largest_hom_set_in_budget(PairScanPBij, budget)


def test_block_scans_check_the_shape_as_compose_id_does():
    cat = canonical_pbij_category((1, 2))
    s1, s2 = cat.finset("S1"), cat.finset("S2")
    f = cat.intern(identity_pbij(s1))
    good = cat.hom_ids(s1, s1)
    bad = cat.hom_ids(s2, s2)[-1]
    with pytest.raises(CompositionError) as pair:
        cat.compose_id(f, bad)
    with pytest.raises(CompositionError) as block:
        cat.compose_ids(f, [*good, bad])
    assert str(block.value) == str(pair.value)
    assert bad not in cat.rows[f] and cat.compose_ids(f, good) == list(good)


def test_block_scans_read_hits_in_place_and_compute_misses_in_order():
    cat = canonical_pbij_category((2,))
    s2 = cat.finset("S2")
    ids = cat.hom_ids(s2, s2)
    assert ids == cat.hom_ids(s2, s2) == tuple(map(cat.intern, cat.hom(s2, s2)))
    f = ids[3]
    hit = cat.compose_id(f, ids[1])
    asked = []
    compose_rule_id = cat._compose_rule_id
    cat._compose_rule_id = lambda i, j: asked.append(j) or compose_rule_id(i, j)
    # ids[0] twice: a repeated miss reaches the rule once
    got = cat.compose_ids(f, ids[::-1] + ids[:1])
    misses = [j for j in ids[::-1] if j != ids[1]]
    assert asked == misses
    assert got[:-1] == [cat.compose_id(f, j) for j in ids[::-1]] and got[-3] == hit
    assert got[-1] == got[-2]
    assert cat.compose_ids(f, ids) == got[-2::-1] and asked == misses
    del cat._compose_rule_id
    # a clone starts with a copy of the table, the defect written in
    by_id = cat.morphisms_by_id
    twin = cat.with_corrupted_composition(by_id[f], by_id[ids[0]], by_id[f])
    assert twin.hom_ids(s2, s2) == ids and twin.rows[f] is not cat.rows[f]
    assert twin.rows == [{**row, ids[0]: f} if n == f else row for n, row in enumerate(cat.rows)]
    row = twin.compose_ids(f, ids)
    assert row == [twin.compose_id(f, j) for j in ids]
    assert row[0] == f != cat.compose_id(f, ids[0])


class OnePairRaisesPBij(PairRulePBij):
    """Partial bijections whose rule raises for one pair, as a table that
    lacks it would, and fills every other entry on first need."""

    missing: tuple = ()

    def _compose(self, f, g):
        if (f, g) == self.missing:
            raise InvcatError("composition table is missing the pair")
        return super()._compose(f, g)


def test_block_scans_store_nothing_for_a_pair_whose_composite_raises():
    # a table that lacks a pair from construction on raises for it and
    # stores nothing: the rest of its row was filled at construction
    base = build_category(parse_spec(README_FIXTURE))[0]
    a = base.objects[0]
    _, f, last = base.hom_ids(a, a)
    damaged = table_lacking(base, pairs=[(base.morphisms_by_id[f], base.morphisms_by_id[last])])
    ids = damaged.hom_ids(a, a)
    f, row = ids[1], dict(damaged.rows[ids[1]])
    assert ids[0] in row and f in row and ids[2] not in row
    with pytest.raises(InvcatError, match="composition table is missing"):
        damaged.compose_ids(f, ids)
    assert damaged.rows[f] == row
    # a model that fills on first need stores the pairs before the one
    # that raises, as compose_id would have filled them
    lazy = OnePairRaisesPBij([size_finset(2)])
    ids = lazy.hom_ids(lazy.finset("S2"), lazy.finset("S2"))
    f = ids[3]
    lazy.missing = (lazy.morphisms_by_id[f], lazy.morphisms_by_id[ids[-1]])
    with pytest.raises(InvcatError, match="composition table is missing"):
        lazy.compose_ids(f, ids)
    assert list(lazy.rows[f]) == list(ids[:-1])


def test_an_override_never_answers_another_pair():
    s2 = size_finset(2)
    e1, e2 = partial_identity(s2, ("e1",)), partial_identity(s2, ("e2",))
    base = canonical_pbij_category((2,))
    empty = base.compose(e1, e2)
    assert empty == zero_pbij(s2, s2) and base._code_ids
    for first, then in (((e1, e2), (e2, e1)), ((e2, e1), (e1, e2))):
        twin = base.with_corrupted_composition(e1, e2, e1)  # e1∘e2 is ∅, made e1
        assert twin._codes == twin._code_ids == {}  # a clone starts with no codes
        assert twin.compose(*first) == (e1 if first == (e1, e2) else empty)
        assert twin.compose(*then) == (e1 if then == (e1, e2) else empty)
        assert twin.compose(e1, empty) == empty
        assert twin.compose(e1, e1) == e1 and twin.compose(e2, e2) == e2
    assert base.compose(e1, e2) == base.compose(e2, e1) == empty


def test_compose_runs_once_per_distinct_composite(budget):
    cat = canonical_pbij_category((0, 1, 2, 3))
    made = []
    real = cat._compose
    cat._compose = lambda f, g: made.append(real(f, g)) or made[-1]
    check_inverse_category(cat, budget)
    check_exactness(cat, budget)
    assert made and len(set(made)) == len(made)
    assert sum(map(len, cat.rows)) > 20 * len(made)


def test_block_rule_composes_each_distinct_composite_once(budget):
    # exactness alone: no identity law has put every code in the table first
    cat = canonical_pbij_category((0, 1, 2, 3))
    made = []
    real = cat._compose
    cat._compose = lambda f, g: made.append(real(f, g)) or made[-1]
    check_exactness(cat, budget)
    assert made and len(set(made)) == len(made)


def test_a_block_over_several_domains_keeps_each_composite_in_its_hom_set():
    # g: A → C and h: B → C have one code, but f∘g and f∘h lie in two
    # hom-sets; s∘(s∘m) = m puts every code involved in the code dicts first
    a, b, c = (FinSet(n, (f"{n}1", f"{n}2")) for n in "ABC")
    cat = PBijCategory([a, b, c])
    g, h = make_pbij(a, c, (("A1", "C2"),)), make_pbij(b, c, (("B1", "C2"),))
    s = make_pbij(c, c, (("C1", "C2"), ("C2", "C1")))
    assert pbij_code(g) == pbij_code(h)
    for m in (g, h):
        assert cat.compose(s, cat.compose(s, m)) == m
    got = cat.compose_ids(cat.intern(identity_pbij(c)), [cat.intern(g), cat.intern(h)])
    assert [cat.morphisms_by_id[k] for k in got] == [g, h]


@pytest.mark.parametrize("sizes", [(0, 1, 2, 3), (0, 4)])
def test_proposals_subsets_and_identities_are_built_once_per_category(sizes):
    cat = canonical_pbij_category(sizes)
    fs = [f for a in cat.objects for b in cat.objects for f in cat.hom(a, b)]

    def answers(cat):
        return [(cat._kernel(f, True), cat._kernel(f, False), cat._factorization(f)) for f in fs]

    first = answers(cat)
    for f, (kernel, cokernel, epi) in zip(fs, first):
        assert kernel == inclusion(f.dom, undefined_labels(f))
        assert cokernel == corestriction(f.cod, unhit_labels(f))
        assert epi == Morphism(f.dom, subset_finset(image_labels(f)), f.payload)
    for a in cat.objects:
        assert cat.identity(a) == identity_pbij(a)
        assert cat.identity(a) is cat.identity(a)
    # asked again: the same instances, and one subset object per label tuple
    for (kernel, cokernel, epi), again in zip(first, answers(cat)):
        assert again[0] is kernel and again[1] is cokernel and again[2].cod is epi.cod
    subsets = {}
    for kernel, cokernel, epi in first:
        for sub in (kernel.dom, cokernel.cod, epi.cod):
            assert subsets.setdefault(sub.elements, sub) is sub

    # a clone builds its own: it starts empty and proposes equal morphisms
    a = cat.objects[-1]
    clone = cat.with_corrupted_composition(cat.identity(a), cat.identity(a), cat.zero(a, a))
    assert clone._built == {}
    for (kernel, cokernel, epi), theirs in zip(first, answers(clone)):
        assert theirs == (kernel, cokernel, epi) and theirs[0] is not kernel
    assert clone.identity(a) == cat.identity(a) and clone.identity(a) is not cat.identity(a)
