import itertools
from collections import Counter

import pytest

import invcat.exactness
import invcat.projections
from invcat import (
    CommutingSquare,
    Enumeration,
    FiniteCategory,
    InvcatError,
    NoCokernelError,
    NoFactorizationError,
    NoKernelError,
    NonCommutingSquareError,
    PBijCategory,
    canonical_pbij_category,
    check_coherence,
    check_exactness,
    check_normal_conormal,
    cokernel,
    inclusion,
    is_epi,
    is_iso,
    is_mono,
    is_pullback,
    kernel,
    make_pbij,
    mono_epi_factorize,
    partial_identity,
    pullback_witness,
    render_morphism,
    size_finset,
    theorem_suite,
)
from invcat.exactness import (
    Factorization,
    _checked_factorization,
    _same,
    _unique_factorization_witness,
    cokernel_witness,
    is_epi_by_cancellation,
    is_mono_by_cancellation,
    kernel_witness,
    quotient_iso,
    subobject_iso,
)
from invcat.monoid import chain_semilattice, cyclic_group, symmetric_inverse_monoid, two_object_category
from invcat.pbij import ZERO_FINSET, corestriction, image_labels, zero_pbij
from invcat.projections import annihilator_candidates, lattice_on
from invcat.report import FAIL, PASS
from invcat.specfile import build_category, parse_spec
from invcat.transfer import TransferKind, _moved_mono, square_for_inverse_image
from model_copies import (
    endomorphism_clones,
    involution_clones,
    morphism_tables,
    single_entry_clones,
    table_lacking,
    table_with,
    to_table,
)
from test_golden import README_FIXTURE
from test_golden import _clone as _golden_clone


def test_mono_epi_iso_closed_forms(fixture_cat, A, B, f):
    assert not is_mono(fixture_cat, f)
    assert not is_epi(fixture_cat, f)
    u = inclusion(A, ("1", "3"))
    assert is_mono(fixture_cat, u) and not is_epi(fixture_cat, u)
    assert is_iso(fixture_cat, fixture_cat.identity(A))
    total = make_pbij(A, B, (("1", "a"), ("2", "b"), ("3", "c")))
    assert is_mono(fixture_cat, total) and is_epi(fixture_cat, total)


def test_cancellation_route_agrees(pbij2, budget):
    enum = Enumeration(pbij2, budget)
    for m in list(enum.morphisms()):
        assert is_mono(pbij2, m) == is_mono_by_cancellation(pbij2, m, enum)
        assert is_epi(pbij2, m) == is_epi_by_cancellation(pbij2, m, enum)


# ---- reference scans -------------------------------------------------------
#
# The library checks cancellation with one pass per pool and counts
# factorizations once per object; these are the plain pairwise and rescan
# definitions it must agree with.


def pairwise_cancellable(cat, f, enum, left):
    for w in cat.objects:
        pool = enum.pool(w, f.dom) if left else enum.pool(f.cod, w)
        for x in pool:
            for y in pool:
                if left and x != y and cat.compose(f, x) == cat.compose(f, y):
                    return False
                if not left and x != y and cat.compose(x, f) == cat.compose(y, f):
                    return False
    return True


def rescan_kernel_witness(cat, f, u, enum):
    if u.cod != f.dom:
        return f"{render_morphism(u)} does not land in dom(f)"
    if not cat.is_zero(cat.compose(f, u)):
        return f"f∘u ≠ 0 for u = {render_morphism(u)}"
    for w in cat.objects:
        for g in enum.pool(w, f.dom):
            if not cat.is_zero(cat.compose(f, g)):
                continue
            hits = [h for h in cat.hom(w, u.dom) if cat.compose(u, h) == g]
            if len(hits) != 1:
                return f"{render_morphism(g)} factors through {render_morphism(u)} in {len(hits)} ways"
    return None


def rescan_cokernel_witness(cat, f, q, enum):
    if q.dom != f.cod:
        return f"{render_morphism(q)} does not start at cod(f)"
    if not cat.is_zero(cat.compose(q, f)):
        return f"q∘f ≠ 0 for q = {render_morphism(q)}"
    for w in cat.objects:
        for g in enum.pool(f.cod, w):
            if not cat.is_zero(cat.compose(g, f)):
                continue
            hits = [h for h in cat.hom(q.cod, w) if cat.compose(h, q) == g]
            if len(hits) != 1:
                return f"{render_morphism(g)} factors through {render_morphism(q)} in {len(hits)} ways"
    return None


def assert_scans_agree_with_reference(cat, budget):
    enum = Enumeration(cat, budget)
    for f in list(enum.morphisms()):
        assert is_mono_by_cancellation(cat, f, enum) == pairwise_cancellable(cat, f, enum, True), f
        assert is_epi_by_cancellation(cat, f, enum) == pairwise_cancellable(cat, f, enum, False), f
        for u in list(enum.morphisms_into(f.dom)):
            assert kernel_witness(cat, f, u, enum) == rescan_kernel_witness(cat, f, u, enum)
        for q in list(enum.morphisms_out_of(f.cod)):
            assert cokernel_witness(cat, f, q, enum) == rescan_cokernel_witness(cat, f, q, enum)


def test_scans_agree_with_reference_on_models(pbij3, budget):
    assert_scans_agree_with_reference(pbij3, budget)
    assert_scans_agree_with_reference(two_object_category(symmetric_inverse_monoid(2)), budget)


# ---- annihilator search and factorization witnesses on morphism ids ----------
#
# The library runs both searches on per-run morphism ids, from per-run masks,
# killed tables and factorization counts; these are the Morphism-level
# searches it replaced, kept as the oracle.


def reference_annihilator_candidates(cat, f, enum):
    candidates = lattice_on(enum, f.dom).elements
    probes = list(enum.morphisms_into(f.dom))
    out = []
    for p in candidates:
        ok = True
        for g in probes:
            if cat.is_zero(cat.compose(f, g)) != (cat.compose(p, g) == g):
                ok = False
                break
        if ok:
            out.append(p)
    return tuple(out)


def reference_factorization_witness(cat, f, u, enum, left):
    then = cat.compose if left else (lambda a, b: cat.compose(b, a))
    for w in cat.objects:
        pool, hom = (enum.pool(w, u.cod), (w, u.dom)) if left else (enum.pool(u.dom, w), (u.cod, w))
        ways = None
        for g in pool:
            if not cat.is_zero(then(f, g)):
                continue
            if ways is None:
                ways = Counter(then(u, h) for h in cat.hom(*hom))
            if ways[g] != 1:
                return f"{render_morphism(g)} factors through {render_morphism(u)} in {ways[g]} ways"
    return None


def composable_pairs(enum):
    """Every composable pair (f, g) of enum's pools, f ∈ pool(b, c) and
    g ∈ pool(a, b), over objects a, b, c in order: the per-pair order of
    the laws over pairs."""
    objs = enum.cat.objects
    for a, b, c in itertools.product(objs, repeat=3):
        for f in enum.pool(b, c):
            for g in enum.pool(a, b):
                yield f, g


@pytest.mark.hashseed
def test_a_construction_on_the_table_copy_is_found_on_the_clone():
    # a model's proposal only comes first in the search, so a clone finds
    # every kernel, cokernel and factorization that its own table has
    clones = list(single_entry_clones(canonical_pbij_category((1, 2))))
    assert len(clones) == 480 + 56
    missing = []
    for cat in clones:
        table = to_table(cat)
        on_cat, on_table = Enumeration(cat), Enumeration(table)
        for f in list(on_table.morphisms()):
            for construct in (kernel, cokernel, mono_epi_factorize):
                try:
                    construct(table, f, enum=on_table)
                except InvcatError:
                    continue
                try:
                    construct(cat, f, enum=on_cat)
                except InvcatError as err:
                    missing.append(str(err))
    assert missing == []


def assert_searches_agree_with_reference(cat, budget) -> Counter:
    """Compare every annihilator search and every shape-correct witness in one
    run, so that they share its tables; how many of each outcome were seen."""
    enum = Enumeration(cat, budget)
    seen = Counter()
    for f in list(enum.morphisms()):
        got = annihilator_candidates(cat, f, enum)
        assert got == reference_annihilator_candidates(cat, f, enum), render_morphism(f)
        seen[f"{len(got)} candidates"] += 1
        for left, others in ((True, enum.morphisms_into(f.dom)), (False, enum.morphisms_out_of(f.cod))):
            for u in list(others):
                got = _unique_factorization_witness(cat, f, u, enum, left)
                assert got == reference_factorization_witness(cat, f, u, enum, left), (f, u, left)
                seen["witness" if got is not None else "none"] += 1
    return seen


def test_searches_agree_with_reference(budget):
    base = canonical_pbij_category((1, 2))
    cats = [canonical_pbij_category((0, 1, 2)), base, build_category(parse_spec(README_FIXTURE))[0]]
    for monoid in (symmetric_inverse_monoid(2), symmetric_inverse_monoid(3), cyclic_group(4), chain_semilattice(3)):
        cats.append(two_object_category(monoid))
    seen = Counter()
    for cat in cats:
        seen.update(assert_searches_agree_with_reference(cat, budget))
    # the clones are made from a base already checked, so tables kept on the
    # category instead of the run would show up as stale answers
    composition, involution = list(endomorphism_clones(base)), list(involution_clones(base))
    assert (len(composition), len(involution)) == (53, 9)
    for cat in composition + involution:
        seen.update(assert_searches_agree_with_reference(cat, budget))
    assert seen["0 candidates"] and seen["1 candidates"], seen
    assert seen["witness"] > seen["none"] > 0, seen


def test_missing_table_entry_raises_from_exactness_and_coherence(budget):
    # the searches compose through the id table, so a table that lacks a
    # pair from construction on raises where the pair is first needed
    base = build_category(parse_spec(README_FIXTURE))[0]
    pairs = list(morphism_tables(base)[0])
    assert len(pairs) == 81
    for f, g in pairs:
        expected = f"composition table is missing {render_morphism(f)} after {render_morphism(g)}"
        for check in (check_exactness, check_coherence):
            damaged = table_lacking(base, pairs=[(f, g)])
            with pytest.raises(InvcatError) as raised:
                check(damaged, budget)
            assert str(raised.value) == expected
            assert damaged.intern(g) not in damaged.rows[damaged.intern(f)]


def _mono_collision(cat):
    # u∘∅ := u∘id for the mono u = S1↪S2, so x ↦ u∘x is no longer injective
    s1, s2 = cat.finset("S1"), cat.finset("S2")
    u = make_pbij(s1, s2, (("e1", "e1"),))
    return cat.with_corrupted_composition(u, zero_pbij(s1, s1), u), u


def test_scans_agree_with_reference_on_corrupted_clones(pbij2, budget):
    s1, s2 = pbij2.finset("S1"), pbij2.finset("S2")
    swap = make_pbij(s2, s2, (("e1", "e2"), ("e2", "e1")))
    top = make_pbij(s2, s2, (("e1", "e1"),))
    point = make_pbij(s1, s2, (("e1", "e2"),))
    clones = [
        _mono_collision(pbij2)[0],
        # a killed composite made non-zero, and a non-zero one made zero
        pbij2.with_corrupted_composition(top, zero_pbij(s2, s2), top),
        pbij2.with_corrupted_composition(swap, point, zero_pbij(s1, s2)),
        pbij2.with_corrupted_involution(swap, pbij2.identity(s2)),
        pbij2.with_corrupted_involution(point, zero_pbij(s2, s1)),
    ]
    for clone in clones:
        assert_scans_agree_with_reference(clone, budget)


def test_mono_collision_fails_the_criterion(pbij2, budget):
    clone, u = _mono_collision(pbij2)
    assert is_mono(clone, u)
    assert not is_mono_by_cancellation(clone, u)
    clause = check_exactness(clone, budget).clause("exact.mono-epi-criterion")
    assert clause.status == FAIL
    assert clause.counterexample == f"mono criterion and cancellation disagree on {render_morphism(u)}"


def test_witness_text_counts_factorizations(fixture_cat, A, B, f):
    too_small = kernel_witness(fixture_cat, f, inclusion(A, ()))
    assert too_small == "A→A {1↦3} factors through 0→A ∅ in 0 ways"
    too_small = cokernel_witness(fixture_cat, f, corestriction(B, ()))
    assert too_small == "B→A {c↦1} factors through B→0 ∅ in 0 ways"
    # the empty map on S1 is neither mono nor epi: ∅ factors through it via ∅ and id
    cat = canonical_pbij_category((0, 1, 2))
    s1 = cat.finset("S1")
    empty = zero_pbij(s1, s1)
    expected = "S1→S1 ∅ factors through S1→S1 ∅ in 2 ways"
    assert kernel_witness(cat, empty, empty) == expected
    assert cokernel_witness(cat, empty, empty) == expected


def test_kernel_fixture(fixture_cat, A, f):
    k = kernel(fixture_cat, f)
    assert k.cod == A
    assert k.dom.elements == ("3",)
    assert k.payload == frozenset({("3", "3")})
    k_id = kernel(fixture_cat, fixture_cat.identity(A))
    assert k_id.dom == ZERO_FINSET and k_id.payload == frozenset()


def test_kernel_universal_property_witness(fixture_cat, A, f):
    good = inclusion(A, ("3",))
    assert kernel_witness(fixture_cat, f, good) is None
    too_big = inclusion(A, ("2", "3"))
    assert kernel_witness(fixture_cat, f, too_big) is not None
    too_small = inclusion(A, ())
    assert kernel_witness(fixture_cat, f, too_small) is not None


def test_cokernel_fixture(fixture_cat, B, f):
    q = cokernel(fixture_cat, f)
    assert q.dom == B
    assert q.cod.elements == ("c",)
    assert q.payload == frozenset({("c", "c")})
    q_id = cokernel(fixture_cat, fixture_cat.identity(B))
    assert q_id.cod == ZERO_FINSET


def test_factorization_fixture(fixture_cat, A, B, f):
    fac = mono_epi_factorize(fixture_cat, f)
    assert isinstance(fac, Factorization)
    assert fixture_cat.compose(fac.p, fac.q) == f
    assert is_mono(fixture_cat, fac.p) and is_epi(fixture_cat, fac.q)
    assert image_labels(fac.p) == ("a", "b")
    assert fac.p.dom.elements == ("a", "b")
    zfac = mono_epi_factorize(fixture_cat, fixture_cat.zero(A, B))
    assert zfac.p.dom == ZERO_FINSET


def test_subobject_and_quotient_isos(fixture_cat, A):
    u = inclusion(A, ("1", "3"))
    # another presentation of the same subobject, through a renamed midpoint
    mid = u.dom
    flip = make_pbij(mid, A, (("1", "3"), ("3", "1")))
    j = subobject_iso(fixture_cat, flip, u)
    assert j is not None and fixture_cat.compose(u, j) == flip
    other = inclusion(A, ("2",))
    assert subobject_iso(fixture_cat, other, u) is None

    q1 = fixture_cat.involve(u)
    q2 = fixture_cat.involve(flip)
    assert quotient_iso(fixture_cat, q1, q2) is not None
    assert quotient_iso(fixture_cat, q1, fixture_cat.involve(other)) is None


def test_same_passes_the_morphism_under_test_first():
    # on this clone the iso test is not symmetric: (0→S1 ∅)∘(S1→0 ∅) made
    # the identity of S1 makes 0→S1 ∅ an iso one way round only
    s0, s1, s2 = (size_finset(n) for n in range(3))
    cat = canonical_pbij_category((1, 2)).with_corrupted_composition(
        make_pbij(s0, s1, ()), make_pbij(s1, s0, ()), make_pbij(s1, s1, (("e1", "e1"),))
    )
    for left, iso, x, y in (
        (True, subobject_iso, make_pbij(s0, s2, ()), make_pbij(s1, s2, (("e1", "e1"),))),
        (False, quotient_iso, make_pbij(s2, s0, ()), make_pbij(s2, s1, (("e1", "e1"),))),
    ):
        forward = iso(cat, x, y) is not None
        assert forward != (iso(cat, y, x) is not None)
        assert _same(cat, x, y, left) == forward, left


def test_exactness_suite_green_on_pbij3(pbij3, budget):
    report = check_exactness(pbij3, budget)
    assert report.passed, [c.clause_id for c in report.failures()]
    assert report.details["exact"] is True
    assert report.details["baer-star-with-closed-projections"] is True
    assert report.clause("theorem.exact-iff-baer").status == PASS


def test_semilattice_category_fails_factorization(budget):
    cat = two_object_category(chain_semilattice(2))
    report = check_exactness(cat, budget)
    by_id = {c.clause_id: c for c in report.clauses}
    assert by_id["exact.kernels"].status == PASS
    assert by_id["exact.cokernels"].status == PASS
    assert by_id["exact.factorization"].status == FAIL
    assert by_id["baer.projections-closed"].status == FAIL
    assert by_id["baer.projection-factorization"].status == FAIL
    # both checklist verdicts are negative, so the biconditional holds
    assert by_id["theorem.exact-iff-baer"].status == PASS
    assert report.details["exact"] is False
    assert report.details["baer-star-with-closed-projections"] is False


def test_symmetric_monoid_category_lacks_kernels(budget):
    cat = two_object_category(symmetric_inverse_monoid(2))
    i_a = None
    for m in cat.hom("X", "X"):
        if m.payload == "e1>e1":
            i_a = m
    assert i_a is not None
    with pytest.raises(NoKernelError):
        kernel(cat, i_a)
    report = check_exactness(cat, budget)
    by_id = {c.clause_id: c for c in report.clauses}
    assert by_id["exact.kernels"].status == FAIL
    assert by_id["baer.projections-closed"].status == PASS
    assert by_id["theorem.exact-iff-baer"].status == PASS


def test_no_factorization_is_loud(budget):
    cat = two_object_category(chain_semilattice(2))
    e = None
    for m in cat.hom("X", "X"):
        if m.payload == "e1":
            e = m
    assert e is not None
    with pytest.raises(NoFactorizationError):
        mono_epi_factorize(cat, e)


def test_factorization_is_checked_once_per_run_and_a_missing_one_every_time(budget):
    cat = two_object_category(chain_semilattice(2))
    e = next(m for m in cat.hom("X", "X") if m.payload == "e1")
    searched = []
    model = cat._factorization
    cat._factorization = lambda g: searched.append(g) or model(g)
    enum = Enumeration(cat, budget)
    texts = set()
    for _ in range(3):
        with pytest.raises(NoFactorizationError) as raised:
            mono_epi_factorize(cat, e, enum)
        texts.add(str(raised.value))
    assert texts == {f"{render_morphism(e)} has no mono-epi factorization"}
    assert len(searched) == 3
    one = cat.identity("X")
    found = mono_epi_factorize(cat, one, enum)
    assert mono_epi_factorize(cat, one, enum) is found and len(searched) == 4
    # without a run there is no memo, and the result is the same
    assert mono_epi_factorize(cat, one) == found and len(searched) == 5


def test_a_clone_starts_with_an_empty_memo(fixture_cat, f, budget):
    enum = Enumeration(fixture_cat, budget)
    fac = mono_epi_factorize(fixture_cat, f, enum)
    # in a clone, p∘q is no longer f: its own run must check the closed form again
    twin = fixture_cat.with_corrupted_composition(fac.p, fac.q, fixture_cat.zero(f.dom, f.cod))
    twin_enum = Enumeration(twin, budget)
    assert twin_enum._memo == {}
    with pytest.raises(NoFactorizationError):
        mono_epi_factorize(twin, f, twin_enum)
    assert mono_epi_factorize(fixture_cat, f, enum) is fac
    image = "coherence.image-via-projection"
    assert check_coherence(fixture_cat, budget).clause(image).status == PASS
    assert check_coherence(twin, budget).clause(image).status == FAIL


def test_pullback_fixture(fixture_cat, A, B, f):
    v = inclusion(B, ("a", "c"))
    u = inclusion(A, ("1", "3"))
    top = fixture_cat.compose(fixture_cat.involve(v), fixture_cat.compose(f, u))
    square = CommutingSquare(top=top, left=u, right=v, bottom=f)
    assert pullback_witness(fixture_cat, square) is None
    assert is_pullback(fixture_cat, square)


def test_perturbed_pullback_leg_detected(fixture_cat, A, B, f):
    v = inclusion(B, ("a", "c"))
    u = inclusion(A, ("1", "3"))
    top = fixture_cat.compose(fixture_cat.involve(v), fixture_cat.compose(f, u))
    bad_left = make_pbij(u.dom, A, (("1", "1"),))
    square = CommutingSquare(top=top, left=bad_left, right=v, bottom=f)
    witness = pullback_witness(fixture_cat, square)
    assert witness is not None and witness != ""
    assert not is_pullback(fixture_cat, square)


def test_square_shape_and_commutation_errors(fixture_cat, A, B, f):
    u = inclusion(A, ("1", "3"))
    v = inclusion(B, ("a", "c"))
    with pytest.raises(NonCommutingSquareError):
        CommutingSquare(top=f, left=u, right=v, bottom=f)
    # shape-correct but non-commuting: top sends 1 to c instead of a
    bad_top = make_pbij(u.dom, v.dom, (("1", "c"),))
    square = CommutingSquare(top=bad_top, left=u, right=v, bottom=f)
    with pytest.raises(NonCommutingSquareError):
        pullback_witness(fixture_cat, square)


# ---- pullback witnesses against the per-square scan ---------------------------


def reference_pullback_witness(cat, square):
    """The per-square scan, kept as the oracle: for each object w the
    mediator, x and y tables are rebuilt, all three before any cone at w is
    visited, and cones are visited y first, then x, each in hom order."""
    if cat.compose(square.bottom, square.left) != cat.compose(square.right, square.top):
        raise NonCommutingSquareError(
            f"square does not commute: bottom∘left ≠ right∘top for bottom = "
            f"{render_morphism(square.bottom)}, left = {render_morphism(square.left)}"
        )
    vertex = square.left.dom
    a, y_obj = square.bottom.dom, square.right.dom
    for w in cat.objects:
        mediators: dict = {}
        for m in cat.hom(w, vertex):
            key = (cat.compose(square.left, m), cat.compose(square.top, m))
            mediators.setdefault(key, []).append(m)
        xs_by_composite: dict = {}
        for x in cat.hom(w, a):
            xs_by_composite.setdefault(cat.compose(square.bottom, x), []).append(x)
        legs = [(y, cat.compose(square.right, y)) for y in cat.hom(w, y_obj)]
        for y, z in legs:
            for x in xs_by_composite.get(z, ()):
                hits = mediators.get((x, y), ())
                if len(hits) != 1:
                    return (
                        f"cone x = {render_morphism(x)}, y = {render_morphism(y)} "
                        f"has {len(hits)} mediating morphisms"
                    )
    return None


def pullback_outcome(witness, cat, square, *enum):
    try:
        return witness(cat, square, *enum)
    except NonCommutingSquareError as err:
        return f"raises {err}"


def test_pullback_witness_agrees_on_every_inverse_image_square(budget):
    # the squares suite 3.1 builds, all checked in one run so that they share tables
    cat = canonical_pbij_category((0, 1, 2))
    enum = Enumeration(cat, budget)
    squares = 0
    for f in list(enum.morphisms()):
        for v in list(enum.morphisms_into(f.cod)):
            if not is_mono(cat, v):
                continue
            u = cat.morphisms_by_id[_moved_mono(cat, TransferKind.INVERSE_IMAGE, cat.intern(f), cat.intern(v), enum)]
            square = square_for_inverse_image(cat, f, v, u)
            assert pullback_witness(cat, square, enum) == reference_pullback_witness(cat, square)
            squares += 1
    assert squares == theorem_suite(cat, "3.1", budget).clause("inverse-image.pullback").checked


def test_pullback_witness_agrees_on_perturbed_fixture_squares(fixture_cat, A, B, f):
    cat = fixture_cat
    v = inclusion(B, ("a", "c"))
    u = inclusion(A, ("1", "3"))
    top = cat.compose(cat.involve(v), cat.compose(f, u))
    squares = [CommutingSquare(top=top, left=left, right=v, bottom=f) for left in cat.hom(u.dom, A)]
    squares += [CommutingSquare(top=edge, left=u, right=v, bottom=f) for edge in cat.hom(u.dom, v.dom)]
    enum = Enumeration(cat)
    outcomes = []
    for square in squares:
        expected = pullback_outcome(reference_pullback_witness, cat, square)
        assert pullback_outcome(pullback_witness, cat, square) == expected, square
        assert pullback_outcome(pullback_witness, cat, square, enum) == expected, square
        outcomes.append(expected)
    assert outcomes.count(None) == 2  # the square itself, once in each list
    assert outcomes[1] == "cone x = A→A ∅, y = A→{a,c} ∅ has 4 mediating morphisms"


def commuting_squares(cat, enum):
    """Every commuting square of cat with a mono right leg, pullback or not,
    bottom leg outermost, each leg in enumeration or hom order."""
    for bottom in list(enum.morphisms()):
        for right in list(enum.morphisms_into(bottom.cod)):
            if not is_mono(cat, right):
                continue
            for vertex in cat.objects:
                for left in cat.hom(vertex, bottom.dom):
                    for top in cat.hom(vertex, right.dom):
                        if cat.compose(bottom, left) == cat.compose(right, top):
                            yield CommutingSquare(top=top, left=left, right=right, bottom=bottom)


def test_pullback_witness_agrees_on_every_commuting_square(budget):
    # every commuting square of (0,1,2) on a mono right leg, pullback or not, so
    # that the first failing cone depends on the order the cones are visited in
    cat = canonical_pbij_category((0, 1, 2))
    enum = Enumeration(cat, budget)
    outcomes = Counter()
    for square in commuting_squares(cat, enum):
        witness = pullback_witness(cat, square, enum)
        assert witness == reference_pullback_witness(cat, square), square
        outcomes[witness is None] += 1
    assert outcomes[True] and outcomes[False] > outcomes[True], outcomes


@pytest.mark.hashseed
def test_pullback_witness_on_a_table_lacking_an_entry_raises_or_fails_as_the_walk(monkeypatch):
    # a table less one entry, for each of its entries, and its commuting
    # squares on a mono right leg: the count reads only the hom-sets the walk
    # reads, so a square it certifies needs no walk, and any other square is
    # walked: the first failing cone before the missing entry is read, or
    # the missing entry's error.  The README fixture has squares of every
    # outcome; the pullbacks of (0,1,2) have legs whose composites, such as
    # (bottom∘left)∘m, lie outside the hom-sets the walk reads
    walks = []
    walk = invcat.exactness._first_failing_cone
    monkeypatch.setattr(invcat.exactness, "_first_failing_cone", lambda *args: walks.append(args) or walk(*args))

    def outcome(witness, *args):
        try:
            return witness(*args)
        except InvcatError as err:
            return f"raises {err}"

    def outcomes(base, squares) -> Counter:
        seen = Counter()
        for pair in morphism_tables(base)[0]:
            damaged = table_lacking(base, pairs=[pair])
            enum = Enumeration(damaged)
            for square in squares:
                walks.clear()
                expected = outcome(reference_pullback_witness, damaged, square)
                assert outcome(pullback_witness, damaged, square, enum) == expected, (pair, square)
                if expected is None:
                    assert not walks, (pair, square)
                    seen["pullback"] += 1
                else:
                    seen["raises" if expected.startswith("raises") else "fails"] += 1
        return seen

    fixture = build_category(parse_spec(README_FIXTURE))[0]
    squares = list(commuting_squares(fixture, Enumeration(fixture)))
    assert len(squares) == 129
    assert outcomes(fixture, squares) == {"pullback": 1824, "fails": 7370, "raises": 1255}
    pbij = to_table(canonical_pbij_category((0, 1, 2)))
    squares = [s for s in commuting_squares(pbij, Enumeration(pbij)) if pullback_witness(pbij, s) is None]
    assert len(squares) == 96
    assert outcomes(pbij, squares) == {"pullback": 13390, "raises": 2546}


def cone_counts(cat, square):
    """Over every object w: the cones (x, y), the pairs (left∘m, top∘m)
    given by exactly one m, and how many of those are cones."""
    cones = singles = single_cones = 0
    for w in cat.objects:
        xs = {x: cat.compose(square.bottom, x) for x in cat.hom(w, square.bottom.dom)}
        ys = {y: cat.compose(square.right, y) for y in cat.hom(w, square.right.dom)}
        cones += sum(xs[x] == ys[y] for x in xs for y in ys)
        pairs = Counter((cat.compose(square.left, m), cat.compose(square.top, m)) for m in cat.hom(w, square.left.dom))
        for (x, y), n in pairs.items():
            if n == 1:
                singles += 1
                single_cones += x in xs and y in ys and xs[x] == ys[y]
    return cones, singles, single_cones


def test_a_pair_that_is_not_a_cone_mediates_no_cone():
    # top∘m for m: S1 → 0 is corrupted from the zero to the identity of S1, so
    # the pair of m is no cone and the cone (S1→0 ∅, S1→S1 ∅) has no
    # mediator, while cones and pairs with one mediator are equally many: a
    # count that did not test each pair for being a cone would pass it
    base = canonical_pbij_category((1, 2))
    zero, s1, s2 = base.objects
    top, to_zero = base.hom(zero, s1)[0], base.hom(s1, zero)[0]
    clone = base.with_corrupted_composition(top, to_zero, base.identity(s1))
    square = CommutingSquare(
        top=top, left=base.identity(zero), right=make_pbij(s1, s2, (("e1", "e1"),)), bottom=base.hom(zero, s2)[0]
    )
    assert pullback_witness(base, square) is None
    assert cone_counts(clone, square) == (3, 3, 2)
    expected = "cone x = S1→0 ∅, y = S1→S1 ∅ has 0 mediating morphisms"
    assert pullback_witness(clone, square) == reference_pullback_witness(clone, square) == expected


def test_composites_outside_their_hom_set_leave_the_square_to_the_walk():
    # the identity square of S2 is a pullback; the table copy below swaps
    # id∘m and id∘m2 for m: S1 → S2 and m2: S2 → S2, so each mediator lands
    # in the other's hom-set.  Over every w at once the pairs are the same
    # as before, all cones and each given once, but at w = S1 the cone
    # (m, m) has no mediator: the count must see that a composite left its
    # hom-set and hand the square to the walk
    base = to_table(canonical_pbij_category((0, 1, 2)))
    zero, s1, s2 = base.objects
    identity = base.identity(s2)
    square = CommutingSquare(top=identity, left=identity, right=identity, bottom=identity)
    assert pullback_witness(base, square) is None
    m, m2 = base.hom(s1, s2)[1], base.hom(s2, s2)[1]
    swapped = table_with(base, {(identity, m): m2, (identity, m2): m})
    expected = "cone x = S1→S2 {e1↦e1}, y = S1→S2 {e1↦e1} has 0 mediating morphisms"
    assert pullback_witness(swapped, square) == reference_pullback_witness(swapped, square) == expected


def test_coherence_and_normal_conormal_green(pbij2, budget):
    assert check_coherence(pbij2, budget).passed
    assert check_normal_conormal(pbij2, budget).passed


def test_normality_fails_by_value_when_no_iso_is_found(monkeypatch):
    # no category at hand reaches these texts; with both iso tests finding
    # nothing, a mono (epi) that is not its canonical kernel (cokernel) must
    # be reported on its own side
    monkeypatch.setattr(invcat.exactness, "subobject_iso", lambda cat, u, k: None)
    monkeypatch.setattr(invcat.exactness, "quotient_iso", lambda cat, q1, q2: None)
    report = check_coherence(canonical_pbij_category((1, 2)))
    failed = {c.clause_id: (c.checked, c.counterexample) for c in report.clauses if c.status == FAIL}
    assert failed == {
        "coherence.mono-is-kernel": (
            4,
            "mono S1→S1 {e1↦e1} and canonical kernel {e1}→S1 {e1↦e1} present different subobjects",
        ),
        "coherence.epi-is-cokernel": (
            3,
            "epi S1→S1 {e1↦e1} and canonical cokernel S1→{e1} {e1↦e1} present different quotients",
        ),
    }


def test_normality_scans_its_own_direction_when_the_annihilator_is_missing():
    # with id∘id on S1 made 0, S1→0 ∅ has no annihilator: the mono 0→S1 ∅
    # is shown normal only by the scan of the morphisms out of S1, and the
    # epi S1→0 ∅ conormal only by the scan of the morphisms into S1
    base = canonical_pbij_category((1, 2))
    one = base.identity(base.objects[1])
    cat = base.with_corrupted_composition(one, one, zero_pbij(one.dom, one.dom))
    status = {c.clause_id: (c.status, c.checked, c.counterexample) for c in check_exactness(cat).clauses}
    assert status["baer.annihilator-exists"] == (FAIL, 4, "no annihilator for S1→0 ∅")
    assert status["exact.normal"] == status["exact.conormal"] == (PASS, 7, None)


@pytest.mark.parametrize(
    "make",
    [lambda: canonical_pbij_category((0, 1, 2)), lambda: two_object_category(cyclic_group(4))],
)
def test_exactness_then_coherence_compose_each_pair_once(make, budget):
    # the partial-bijection model composes each pair once, on first need; a
    # complete table is filled at construction and asks its rule nothing
    cat = make()
    calls = []
    real = cat._compose
    cat._compose = lambda f, g: calls.append((f, g)) or real(f, g)
    assert check_exactness(cat, budget).passed
    made = len(calls)
    assert check_coherence(cat, budget).passed
    assert len(set(calls)) == len(calls)
    assert bool(made) == bool(calls) == isinstance(cat, PBijCategory)


def test_coherence_spot_values(fixture_cat, A, f):
    # ker f composed with its involution is exactly the annihilator projection
    k = kernel(fixture_cat, f)
    kk = fixture_cat.compose(k, fixture_cat.involve(k))
    assert kk == partial_identity(A, ("3",))


def test_a_closed_form_cokernel_is_checked_on_the_table_under_test():
    # with p1∘p1 = 0 on S2, p1 kills itself but does not factor through the
    # proposed S2→{e2} {e2↦e2}, and no epi out of S2 in the pools has the
    # universal property either, so p1 has no cokernel in the clone
    clone = _golden_clone("p1p1-to-0")
    s2 = size_finset(2)
    p1 = make_pbij(s2, s2, [("e1", "e1")])
    with pytest.raises(NoCokernelError) as raised:
        cokernel(clone, p1)
    assert str(raised.value) == "no cokernel for S2→S2 {e1↦e1}: no enumerated epi has the universal property"


def test_a_proposal_that_fails_its_witness_is_only_the_first_candidate():
    # with up∘id_S1 = 0, the proposed kernel 0→S1 ∅ of up fails its witness;
    # the search goes on through the pools and finds id_S1, which is a
    # kernel of up on this table
    clone = _golden_clone("up-id-to-0")
    s1, s2 = size_finset(1), size_finset(2)
    up = make_pbij(s1, s2, [("e1", "e1")])
    proposal = clone._kernel(up, True)
    assert proposal == make_pbij(size_finset(0), s1, [])
    assert kernel_witness(clone, up, proposal) is not None
    assert kernel(clone, up) == clone.identity(s1)
    assert kernel_witness(clone, up, clone.identity(s1)) is None


DUALITY_FAILURES = {
    "p1p1-to-0": (15, "no cokernel for S2→S2 {e1↦e1}: no enumerated epi has the universal property"),
    "down-up-to-0": (8, "no cokernel for S1→S2 {e1↦e1}: no enumerated epi has the universal property"),
    # up is the zero S1→S2 of this table, so its cokernel is id_S2: found, and wrong by value
    "zero-to-up": (8, "coker f ≠ (ker f*)* for S1→S2 {e1↦e1}"),
    "up-id-to-0": (6, "no cokernel for S1→S1 {e1↦e1}: no enumerated epi has the universal property"),
}


@pytest.mark.parametrize("name", list(DUALITY_FAILURES))
@pytest.mark.hashseed
def test_kernel_cokernel_duality_fails_where_a_cokernel_is_missing(name):
    clause = check_coherence(_golden_clone(name)).clause("coherence.kernel-cokernel-duality")
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, *DUALITY_FAILURES[name])


def test_coherence_asks_each_closed_form_once_per_run(budget):
    cat = canonical_pbij_category((0, 1, 2))
    asked = Counter()
    model = cat._kernel
    cat._kernel = lambda f, left: asked.update([(f, left)]) or model(f, left)
    assert check_coherence(cat, budget).passed
    assert asked and max(asked.values()) == 1
    assert {left for _, left in asked} == {True, False}


def reference_factorization(cat, f, enum):
    """The pool × pool search: every epi q, then every mono p, with p∘q = f."""
    for mid in cat.objects:
        for q in enum.pool(f.dom, mid):
            if is_epi(cat, q):
                for p in enum.pool(mid, f.cod):
                    if is_mono(cat, p) and cat.compose(p, q) == f:
                        return p, q
    return None


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_object_category(symmetric_inverse_monoid(2)),
        lambda: two_object_category(cyclic_group(3)),
        lambda: two_object_category(chain_semilattice(3)),
        lambda: build_category(parse_spec(README_FIXTURE))[0],
    ],
)
def test_factorization_search_agrees_with_the_pool_by_pool_loop(make, budget):
    cat = make()
    enum = Enumeration(cat, budget)
    found = 0
    for f in list(enum.morphisms()):
        expected = reference_factorization(cat, f, enum)
        if expected is None:
            with pytest.raises(NoFactorizationError):
                _checked_factorization(cat, f, enum)
        else:
            assert _checked_factorization(cat, f, enum) == Factorization(*expected), render_morphism(f)
            found += 1
    assert found


# ---- closed forms against the search route ----------------------------------


class SearchRoutePBij(PBijCategory):
    """Partial bijections with the proposing hooks switched back to
    FiniteCategory's, so every construction is found in the run's pools."""

    _kernel = FiniteCategory._kernel
    _factorization = FiniteCategory._factorization


def test_closed_forms_agree_with_search_route(budget):
    fast = canonical_pbij_category((0, 1, 2))
    slow = SearchRoutePBij(fast.objects)
    fast_enum, slow_enum = Enumeration(fast, budget), Enumeration(slow, budget)
    for f in list(fast_enum.morphisms()):
        u, k = kernel(slow, f, enum=slow_enum), kernel(fast, f, enum=fast_enum)
        assert subobject_iso(fast, u, k) is not None, render_morphism(f)
        q1, q2 = cokernel(slow, f, enum=slow_enum), cokernel(fast, f, enum=fast_enum)
        assert quotient_iso(fast, q1, q2) is not None, render_morphism(f)
        p1 = mono_epi_factorize(slow, f, slow_enum).p
        p2 = mono_epi_factorize(fast, f, fast_enum).p
        assert subobject_iso(fast, p1, p2) is not None, render_morphism(f)
    monos = [m for m in fast_enum.morphisms() if is_mono(fast, m)]
    epis = [m for m in fast_enum.morphisms() if is_epi(fast, m)]
    for u, k in itertools.product(monos, repeat=2):
        assert _same(slow, u, k, True) == _same(fast, u, k, True), (u, k)
    for q1, q2 in itertools.product(epis, repeat=2):
        assert _same(slow, q1, q2, False) == _same(fast, q1, q2, False), (q1, q2)
    for check in (check_exactness, check_coherence):
        on_search, on_closed = check(slow, budget), check(fast, budget)
        assert [(c.clause_id, c.status, c.checked) for c in on_search.clauses] == [
            (c.clause_id, c.status, c.checked) for c in on_closed.clauses
        ]


def test_exactness_evaluates_only_the_clauses_it_reports(pbij2, budget, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("check_exactness verified a projection lattice")

    monkeypatch.setattr(invcat.projections, "projection_lattice", unexpected)
    report = check_exactness(pbij2, budget)
    assert [c.clause_id for c in report.clauses] == [
        "exact.kernels",
        "exact.cokernels",
        "exact.normal",
        "exact.conormal",
        "exact.factorization",
        "exact.mono-epi-criterion",
        "baer.annihilator-exists",
        "baer.annihilator-unique",
        "baer.projections-closed",
        "baer.projection-factorization",
        "theorem.exact-iff-baer",
    ]
    assert report.passed
