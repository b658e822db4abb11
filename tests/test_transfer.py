from collections import Counter
from itertools import takewhile

import pytest

from invcat import (
    Enumeration,
    ObjectMismatchError,
    ShapeMismatchError,
    apply_P,
    apply_Pdoubleprime,
    apply_Pprime,
    build_category,
    canonical_pbij_category,
    chain_semilattice,
    check_closed_forms,
    check_functoriality,
    cyclic_group,
    image_of,
    inclusion,
    inverse_image_of,
    make_pbij,
    parse_spec,
    partial_identity,
    render_morphism,
    size_finset,
    theorem_suite,
    transfer_table,
    two_object_category,
)
from invcat.exactness import NotMonoError, is_epi, is_mono
from invcat.pbij import image_labels, projection_labels
from invcat.exactness import CommutingSquare, NoFactorizationError, NonCommutingSquareError
from invcat.projections import AnnihilatorNotFoundError, NotBaerStarError, annihilator, lattice_on
import invcat.transfer as transfer_module
from invcat.transfer import (
    _KIND_NAMES,
    SUITES,
    TransferCertificationError,
    TransferKind,
    _monos_into,
    _moved_mono,
    _row,
    _source,
    _target,
    image_smallest_subobject_clauses,
    inverse_image_pullback_clauses,
    square_for_inverse_image,
    transfer,
)
from invcat.core import InvcatError, build_report, render_object
from invcat.report import FAIL, PASS, Failed, Passed, run_clause
from model_copies import endomorphism_clones, single_entry_clones, table_with, to_table
from test_exactness import composable_pairs, reference_pullback_witness
from test_golden import CATEGORIES as GOLDEN_CATEGORIES
from test_golden import CLONES, NOT_BAER_STAR
from test_golden import _clone as _golden_clone


def test_transfer_conjugates(fixture_cat, A, f):
    i = partial_identity(A, ("1", "3"))
    moved = transfer(fixture_cat, f, i)
    assert moved.payload == frozenset({("a", "a")})
    with pytest.raises(ShapeMismatchError):
        transfer(fixture_cat, f, f)


def test_fixture_transfer_values(fixture_cat, A, B, f):
    assert projection_labels(apply_P(fixture_cat, f, partial_identity(A, ("1", "3")))) == ("a",)
    assert projection_labels(
        apply_Pprime(fixture_cat, f, partial_identity(B, ("a", "c")))
    ) == ("1", "3")
    assert projection_labels(
        apply_Pdoubleprime(fixture_cat, f, partial_identity(B, ("a", "c")))
    ) == ("1",)
    # the inverse image of the empty projection is the annihilator
    assert projection_labels(apply_Pprime(fixture_cat, f, partial_identity(B, ()))) == ("3",)


def test_transfer_rejects_wrong_lattice(fixture_cat, A, B, f):
    with pytest.raises(ObjectMismatchError):
        apply_P(fixture_cat, f, partial_identity(B, ("a",)))
    with pytest.raises(ObjectMismatchError):
        apply_Pprime(fixture_cat, f, partial_identity(A, ("1",)))


def test_transfer_table_round_trip(fixture_cat, A, B, f, budget):
    enum = Enumeration(fixture_cat, budget)
    table = transfer_table(fixture_cat, TransferKind.IMAGE, f, enum)
    assert table.kind is TransferKind.IMAGE
    i = partial_identity(A, ("2",))
    assert table.apply(i) == apply_P(fixture_cat, f, i)
    assert not table.is_injective()  # f is not mono, so P(f) cannot be injective
    inv = transfer_table(fixture_cat, TransferKind.INVERSE_IMAGE, f, enum)
    assert inv.apply(partial_identity(B, ("a", "c"))) == partial_identity(A, ("1", "3"))


def test_image_of_fixture(fixture_cat, A, B, f):
    u = inclusion(A, ("1", "3"))
    p = image_of(fixture_cat, f, u)
    assert image_labels(p) == ("a",)
    zero_sub = inclusion(A, ())
    p0 = image_of(fixture_cat, f, zero_sub)
    assert image_labels(p0) == ()
    not_mono = partial_identity(A, ("1", "2"))
    with pytest.raises(NotMonoError):
        image_of(fixture_cat, f, not_mono)


def test_inverse_image_of_fixture(fixture_cat, A, B, f):
    v = inclusion(B, ("a", "c"))
    u = inverse_image_of(fixture_cat, f, v)
    assert image_labels(u) == ("1", "3")
    u_full = inverse_image_of(fixture_cat, f, fixture_cat.identity(B))
    assert image_labels(u_full) == ("1", "2", "3")
    u_zero = inverse_image_of(fixture_cat, f, inclusion(B, ()))
    assert image_labels(u_zero) == ("3",)


def test_inverse_image_square_commutes(fixture_cat, B, f):
    v = inclusion(B, ("a", "c"))
    square = square_for_inverse_image(fixture_cat, f, v, inverse_image_of(fixture_cat, f, v))
    lhs = fixture_cat.compose(square.bottom, square.left)
    rhs = fixture_cat.compose(square.right, square.top)
    assert lhs == rhs


def test_inverse_image_square_on_every_pair_of_inclusions(fixture_cat, A, B, f):
    # the square's top edge is v*∘f∘u on plain morphisms, or it names the
    # legs that do not commute
    cat, commuting, failing = fixture_cat, 0, 0
    for v in (inclusion(B, labels) for labels in ((), ("a",), ("a", "c"), ("a", "b", "c"))):
        for u in (inclusion(A, labels) for labels in ((), ("1",), ("3",), ("1", "2"), ("1", "3"))):
            fu = cat.compose(f, u)
            top = cat.compose(cat.involve(v), fu)
            if cat.compose(v, top) == fu:
                square = square_for_inverse_image(cat, f, v, u)
                assert square == CommutingSquare(top=top, left=u, right=v, bottom=f)
                commuting += 1
                continue
            with pytest.raises(NonCommutingSquareError) as raised:
                square_for_inverse_image(cat, f, v, u)
            assert str(raised.value) == (
                f"f∘u ≠ v∘(v*∘f∘u) for f = {render_morphism(f)}, u = {render_morphism(u)}, "
                f"v = {render_morphism(v)}: f∘u does not factor through v's subobject"
            )
            failing += 1
    assert commuting and failing


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_all_suites_green_on_pbij2(pbij2, budget, suite_id):
    report = theorem_suite(pbij2, suite_id, budget)
    assert report.passed, [
        (c.clause_id, c.counterexample) for c in report.failures()
    ]
    assert report.suite == f"theorems-{suite_id}"
    assert all(c.checked > 0 for c in report.clauses), "no clause may be vacuous"


def test_unknown_suite_rejected(pbij2):
    with pytest.raises(KeyError):
        theorem_suite(pbij2, "9.9")


def test_suite_wrappers(pbij2, budget):
    assert check_functoriality(pbij2, budget=budget).passed
    one = check_functoriality(pbij2, TransferKind.IMAGE, budget)
    assert {c.clause_id for c in one.clauses} == {
        "functor.image.identity",
        "functor.image.composition",
    }


def test_group_category_transfer_maps_are_bijections(budget):
    # in a group every morphism is iso, so P(f) is a lattice isomorphism
    cat = two_object_category(cyclic_group(3))
    enum = Enumeration(cat, budget)
    a = next(m for m in cat.hom("X", "X") if m.payload == "a")
    table = transfer_table(cat, TransferKind.IMAGE, a, enum)
    assert table.is_injective() and table.is_surjective()
    report = theorem_suite(cat, "all", budget)
    assert report.passed, [c.clause_id for c in report.failures()]


def test_closed_forms_agree(pbij2, budget):
    report = check_closed_forms(pbij2, budget)
    assert report.passed
    assert {c.clause_id for c in report.clauses} == {
        "fastpath.annihilator",
        "fastpath.image",
        "fastpath.inverse-image",
        "fastpath.preimage",
    }


def test_closed_forms_need_pbij_model(budget):
    cat = two_object_category(cyclic_group(2))
    with pytest.raises(InvcatError):
        check_closed_forms(cat, budget)


def test_missing_annihilator_is_a_failing_clause(budget):
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    report = theorem_suite(cat, "3.3", budget)
    assert report.exit_code() == 1
    failing = {c.clause_id: c.counterexample for c in report.failures()}
    assert failing["inverse-image.bottom-top"] == (
        "no projection annihilates exactly what B→A {b1↦a1} kills"
    )


def test_closed_forms_report_a_missing_annihilator(pbij2, budget):
    s2 = size_finset(2)
    p1 = make_pbij(s2, s2, (("e1", "e1"),))
    twisted = pbij2.with_corrupted_composition(p1, p1, make_pbij(s2, s2, ()))
    report = check_closed_forms(twisted, budget)
    ann = report.clause("fastpath.annihilator")
    assert ann.status == FAIL
    assert ann.counterexample.startswith("no projection annihilates exactly what")


def test_package_attribute_transfer_is_the_module():
    import invcat

    assert invcat.transfer is transfer_module
    assert invcat.transfer.apply_P is apply_P


def _count_transfer_values(monkeypatch) -> Counter:
    computed = Counter()
    for name in ("apply_P", "apply_Pprime", "apply_Pdoubleprime"):

        def counting(cat, f, p, *enum, name=name, real=getattr(transfer_module, name)):
            computed[name, f, p] += 1
            return real(cat, f, p, *enum)

        monkeypatch.setattr(transfer_module, name, counting)
    return computed


def test_transfer_values_computed_once_per_run(budget, monkeypatch):
    # "all" includes 2.1 and 3.1, whose image_of and inverse_image_of share the run's values
    computed = _count_transfer_values(monkeypatch)
    for suite in ("functoriality", "all"):
        computed.clear()
        assert theorem_suite(canonical_pbij_category((0, 1, 2)), suite, budget).passed
        assert computed and max(computed.values()) == 1, suite
        assert {name for name, _, _ in computed} == {"apply_P", "apply_Pprime", "apply_Pdoubleprime"}


def test_transfer_errors_are_not_cached(budget, monkeypatch):
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    enum = Enumeration(cat, budget)
    f = next(m for m in enum.morphisms() if render_morphism(m) == "B→A {b1↦a1}")
    computed = _count_transfer_values(monkeypatch)
    row, zero = _row(enum, TransferKind.INVERSE_IMAGE, cat.intern(f)), cat.zero_id(f.cod, f.cod)
    texts = []
    for _ in range(2):
        with pytest.raises(AnnihilatorNotFoundError) as raised:
            row[zero]
        texts.append(str(raised.value))
    assert texts == ["no projection annihilates exactly what B→A {b1↦a1} kills"] * 2
    assert sum(computed.values()) == 2


# ---- the id-level laws against their Morphism-level definitions -------------
#
# The library checks every law that reads a whole lattice or a whole transfer
# map, the smallest subobject and the pullback property on per-run morphism
# ids and transfer rows; these are the Morphism-level bodies they must agree
# with, clause for clause, each transfer value computed by apply_P,
# apply_Pprime or apply_Pdoubleprime directly.

P, P1, P2 = TransferKind.IMAGE, TransferKind.INVERSE_IMAGE, TransferKind.STRICT_PREIMAGE


def _reference_transfer(cat, enum):
    """fn(kind, f, p), kind(f)(p) by definition, and lattice(a), the elements of P(a)."""
    values = {}

    def fn(kind, f, p):
        # kind(f)(p) by definition, kept once per run; a raised error is not kept
        key = (kind, f, p)
        if key not in values:
            if kind is P:
                values[key] = apply_P(cat, f, p)
            elif kind is P1:
                values[key] = apply_Pprime(cat, f, p, enum)
            else:
                values[key] = apply_Pdoubleprime(cat, f, p, enum)
        return values[key]

    def lattice(a):
        return lattice_on(enum, a).elements

    return fn, lattice


def _reference_functor_clauses(cat, enum, fn, lattice, kind):
    """The identity law of kind per object and its composition law per pair."""
    prefix, anchor, _ = _KIND_NAMES[kind]

    def identity_law(a):
        ida = cat.identity(a)
        for p in lattice(a):
            if fn(kind, ida, p) != p:
                return f"{kind.value}(id) moves {render_morphism(p)} on {render_object(a)}"
        return None

    if kind is P:
        law = f"{kind.value}(f∘g) ≠ {kind.value}(f)∘{kind.value}(g) at i"
    else:
        law = f"{kind.value}(f∘g) ≠ {kind.value}(g)∘{kind.value}(f) at j"

    def composition_law(pair):
        f, g = pair
        fg = cat.compose(f, g)
        first, then = (g, f) if kind is P else (f, g)
        for p in lattice(_source(kind, fg)):
            if fn(kind, fg, p) != fn(kind, then, fn(kind, first, p)):
                return (
                    f"{law} = {render_morphism(p)} for f = {render_morphism(f)}, "
                    f"g = {render_morphism(g)}"
                )
        return None

    return [
        run_clause(f"functor.{prefix}.identity", anchor, cat.objects, identity_law),
        run_clause(f"functor.{prefix}.composition", anchor, composable_pairs(enum), composition_law),
    ]


def _reference_law_clauses(cat, budget):
    enum = Enumeration(cat, budget)
    fn, lattice = _reference_transfer(cat, enum)

    def table(kind, f):
        # kind(f) as a dict from its source lattice to projections, and its target
        source, target = lattice(_source(kind, f)), lattice(f.cod if kind is P else f.dom)
        return {p: fn(kind, f, p) for p in source}, target

    def injective(kind, f):
        t, _ = table(kind, f)
        return len(set(t.values())) == len(t)

    def surjective(kind, f):
        t, target = table(kind, f)
        return set(t.values()) >= set(target)

    clauses = []
    for kind in TransferKind:
        prefix, _, _ = _KIND_NAMES[kind]

        def meets(f, kind=kind):
            lat = lattice(_source(kind, f))
            for i in lat:
                fi = fn(kind, f, i)
                for j in lat:
                    left = fn(kind, f, cat.compose(i, j))
                    right = cat.compose(fi, fn(kind, f, j))
                    if left != right:
                        return (
                            f"meet not preserved by {kind.value}(f) for f = {render_morphism(f)}, "
                            f"i = {render_morphism(i)}, j = {render_morphism(j)}"
                        )
            return None

        def order(f, kind=kind):
            lat = lattice(_source(kind, f))
            for i in lat:
                for j in lat:
                    if cat.compose(i, j) != i:
                        continue
                    fi, fj = fn(kind, f, i), fn(kind, f, j)
                    if cat.compose(fi, fj) != fi:
                        return (
                            f"i ≤ j but {kind.value}(f)(i) ≰ {kind.value}(f)(j) for "
                            f"f = {render_morphism(f)}, i = {render_morphism(i)}, "
                            f"j = {render_morphism(j)}"
                        )
            return None

        clauses += [
            run_clause(f"{prefix}.meet-homomorphism", "", enum.morphisms(), meets),
            run_clause(f"{prefix}.order-preserving", "", enum.morphisms(), order),
            *_reference_functor_clauses(cat, enum, fn, lattice, kind),
        ]

    for kind in (P1, P2):
        prefix, _, noun = _KIND_NAMES[kind]

        def injective_iff_epi(f, kind=kind, noun=noun):
            inj, epi = injective(kind, f), is_epi(cat, f)
            if inj != epi:
                return (
                    f"{noun} map of f = {render_morphism(f)} is "
                    f"{'injective' if inj else 'not injective'} but f is {'epi' if epi else 'not epi'}"
                )
            return None

        def surjective_iff_mono(f, kind=kind, noun=noun):
            surj, mono = surjective(kind, f), is_mono(cat, f)
            if surj != mono:
                return (
                    f"{noun} map of f = {render_morphism(f)} is "
                    f"{'surjective' if surj else 'not surjective'} but f is {'mono' if mono else 'not mono'}"
                )
            return None

        clauses += [
            run_clause(f"{prefix}.injective-iff-epi", "", enum.morphisms(), injective_iff_epi),
            run_clause(f"{prefix}.surjective-iff-mono", "", enum.morphisms(), surjective_iff_mono),
        ]

    def preserves_mono(f):
        if is_mono(cat, f) and not injective(P, f):
            return f"f = {render_morphism(f)} is mono but its image map is not injective"
        return None

    def preserves_epi(f):
        if is_epi(cat, f) and not surjective(P, f):
            return f"f = {render_morphism(f)} is epi but its image map is not surjective"
        return None

    def mono_match(f):
        same = table(P1, f)[0] == table(P, cat.involve(f))[0]
        if same != is_mono(cat, f):
            return (
                f"P'(f) {'=' if same else '≠'} P(f*) but f is "
                f"{'mono' if is_mono(cat, f) else 'not mono'} for f = {render_morphism(f)}"
            )
        return None

    def epi_match(f):
        same = table(P, f)[0] == table(P1, cat.involve(f))[0]
        if same != is_epi(cat, f):
            return (
                f"P(f) {'=' if same else '≠'} P'(f*) but f is "
                f"{'epi' if is_epi(cat, f) else 'not epi'} for f = {render_morphism(f)}"
            )
        return None

    def triple_identities(f):
        for i in lattice(f.dom):
            fi = fn(P, f, i)
            if fn(P, f, fn(P1, f, fi)) != fi:
                return f"P(f)P'(f)P(f) ≠ P(f) at i = {render_morphism(i)} for f = {render_morphism(f)}"
        for j in lattice(f.cod):
            fj = fn(P1, f, j)
            if fn(P1, f, fn(P, f, fj)) != fj:
                return f"P'(f)P(f)P'(f) ≠ P'(f) at j = {render_morphism(j)} for f = {render_morphism(f)}"
        return None

    def complement_identity(f):
        for j in lattice(f.cod):
            moved = fn(P1, f, annihilator(cat, j, enum))
            if fn(P2, f, j) != annihilator(cat, moved, enum):
                return f"P''(f)(j) ≠ (P'(f)(j′))′ for f = {render_morphism(f)}, j = {render_morphism(j)}"
        return None

    def equivalence_mono_epi(f):
        if injective(P1, f) != injective(P2, f):
            return f"P'(f) and P''(f) disagree on injectivity for f = {render_morphism(f)}"
        if surjective(P1, f) != surjective(P2, f):
            return f"P'(f) and P''(f) disagree on surjectivity for f = {render_morphism(f)}"
        return None

    # the bound and saturation laws of 2.3, 3.4 and 4.2
    def bounded(f):
        ff = cat.compose(f, cat.involve(f))
        for i in lattice(f.dom):
            moved = fn(P, f, i)
            if cat.compose(moved, ff) != moved:
                return f"P(f)(i) ≰ f∘f* for f = {render_morphism(f)}, i = {render_morphism(i)}"
        return None

    def saturation(f):
        dom_proj, ff = cat.compose(cat.involve(f), f), cat.compose(f, cat.involve(f))
        for i in lattice(f.dom):
            if cat.compose(dom_proj, i) == dom_proj and fn(P, f, i) != ff:
                return f"i ≥ f*∘f but P(f)(i) ≠ f∘f* for f = {render_morphism(f)}, i = {render_morphism(i)}"
        return None

    def bounded_below(f):
        ann = annihilator(cat, f, enum)
        for j in lattice(f.cod):
            moved = fn(P1, f, j)
            if cat.compose(ann, moved) != ann:
                return f"P'(f)(j) ≱ f′ for f = {render_morphism(f)}, j = {render_morphism(j)}"
        return None

    def saturation_to_top(f):
        ff, one = cat.compose(f, cat.involve(f)), cat.identity(f.dom)
        for j in lattice(f.cod):
            if cat.compose(ff, j) == ff and fn(P1, f, j) != one:
                return f"j ≥ f∘f* but P'(f)(j) ≠ 1 for f = {render_morphism(f)}, j = {render_morphism(j)}"
        return None

    def bounded_above(f):
        double = annihilator(cat, annihilator(cat, f, enum), enum)
        for j in lattice(f.cod):
            moved = fn(P2, f, j)
            if cat.compose(moved, double) != moved:
                return f"P''(f)(j) ≰ f″ for f = {render_morphism(f)}, j = {render_morphism(j)}"
        return None

    def annihilated_below(f):
        co, zero = annihilator(cat, cat.involve(f), enum), cat.zero(f.dom, f.dom)
        for j in lattice(f.cod):
            if cat.compose(j, co) == j and fn(P2, f, j) != zero:
                return f"j ≤ (f*)′ but P''(f)(j) ≠ 0 for f = {render_morphism(f)}, j = {render_morphism(j)}"
        return None

    # the point laws of 2.2, 3.3 and 4.1 and the equivalences of 4, each
    # evaluated in the library's order, so a missing construction raises first
    # where it does there
    def ff(f):
        return cat.compose(f, cat.involve(f))

    def image_bottom_top(f):
        if fn(P, f, cat.zero(f.dom, f.dom)) != cat.zero(f.cod, f.cod):
            return f"P(f)(0) ≠ 0 for f = {render_morphism(f)}"
        if fn(P, f, cat.identity(f.dom)) != ff(f):
            return f"P(f)(1) ≠ f∘f* for f = {render_morphism(f)}"
        return None

    def domain_projection(f):
        if fn(P, f, cat.compose(cat.involve(f), f)) != ff(f):
            return f"P(f)(f*∘f) ≠ f∘f* for f = {render_morphism(f)}"
        return None

    def inverse_image_bottom_top(f):
        ann = annihilator(cat, f, enum)
        if fn(P1, f, cat.zero(f.cod, f.cod)) != ann:
            return f"P'(f)(0) ≠ f′ for f = {render_morphism(f)}"
        if fn(P1, f, cat.identity(f.cod)) != cat.identity(f.dom):
            return f"P'(f)(1) ≠ 1 for f = {render_morphism(f)}"
        return None

    def image_to_top(f):
        if fn(P1, f, ff(f)) != cat.identity(f.dom):
            return f"P'(f)(f∘f*) ≠ 1 for f = {render_morphism(f)}"
        return None

    def preimage_bottom_top(f):
        if fn(P2, f, cat.zero(f.cod, f.cod)) != cat.zero(f.dom, f.dom):
            return f"P''(f)(0) ≠ 0 for f = {render_morphism(f)}"
        double = annihilator(cat, annihilator(cat, f, enum), enum)
        if fn(P2, f, cat.identity(f.cod)) != double:
            return f"P''(f)(1) ≠ f″ for f = {render_morphism(f)}"
        return None

    def coannihilator_to_bottom(f):
        if fn(P2, f, annihilator(cat, cat.involve(f), enum)) != cat.zero(f.dom, f.dom):
            return f"P''(f)((f*)′) ≠ 0 for f = {render_morphism(f)}"
        return None

    def equivalence_units(f):
        prime_top = fn(P1, f, cat.identity(f.cod)) == cat.identity(f.dom)
        double_bottom = fn(P2, f, cat.zero(f.cod, f.cod)) == cat.zero(f.dom, f.dom)
        if prime_top != double_bottom:
            return (
                f"P'(f)(1) = 1 is {prime_top} but P''(f)(0) = 0 is {double_bottom} "
                f"for f = {render_morphism(f)}"
            )
        return None

    def equivalence_annihilators(f):
        ann = annihilator(cat, f, enum)
        prime_side = fn(P1, f, cat.zero(f.cod, f.cod)) == ann
        double_side = fn(P2, f, cat.identity(f.cod)) == annihilator(cat, ann, enum)
        if prime_side != double_side:
            return (
                f"P'(f)(0) = f′ is {prime_side} but P''(f)(1) = f″ is {double_side} "
                f"for f = {render_morphism(f)}"
            )
        return None

    per_morphism = {
        "image.preserves-mono": preserves_mono,
        "image.preserves-epi": preserves_epi,
        "connection.mono-match": mono_match,
        "connection.epi-match": epi_match,
        "connection.triple-identities": triple_identities,
        "connection.complement-identity": complement_identity,
        "connection.equivalence-mono-epi": equivalence_mono_epi,
        "image.bounded-by-image": bounded,
        "image.saturation": saturation,
        "inverse-image.bounded-below": bounded_below,
        "inverse-image.saturation-to-top": saturation_to_top,
        "preimage.bounded-above": bounded_above,
        "preimage.annihilated-below": annihilated_below,
        "image.bottom-top": image_bottom_top,
        "image.domain-projection": domain_projection,
        "inverse-image.bottom-top": inverse_image_bottom_top,
        "inverse-image.image-to-top": image_to_top,
        "preimage.bottom-top": preimage_bottom_top,
        "preimage.coannihilator-to-bottom": coannihilator_to_bottom,
        "connection.equivalence-units": equivalence_units,
        "connection.equivalence-annihilators": equivalence_annihilators,
    }
    clauses += [run_clause(clause_id, "", enum.morphisms(), check) for clause_id, check in per_morphism.items()]
    clauses += reference_certified_clauses(enum)
    return {c.clause_id: c for c in clauses}


def reference_certified_clauses(enum):
    """Clauses 2.1 and 3.1 with each case decided by its per-case
    reference: the smallest-subobject scan and the per-square pullback
    walk, on morphisms."""
    cat = enum.cat

    def smallest(case):
        f, u = case
        try:
            p = cat.morphisms_by_id[_moved_mono(cat, TransferKind.IMAGE, cat.intern(f), cat.intern(u), enum)]
            witness = reference_smallest_subobject_witness(cat, f, u, p, enum)
            if witness is not None:
                raise TransferCertificationError(witness)
        except (TransferCertificationError, NoFactorizationError) as err:
            return f"f = {render_morphism(f)}, u = {render_morphism(u)}: {err}"
        return None

    def pullback(case):
        f, v = case
        try:
            u = cat.morphisms_by_id[_moved_mono(cat, TransferKind.INVERSE_IMAGE, cat.intern(f), cat.intern(v), enum)]
            try:
                witness = reference_pullback_witness(cat, square_for_inverse_image(cat, f, v, u))
            except NonCommutingSquareError as err:
                witness = str(err)
            if witness is not None:
                raise TransferCertificationError(witness)
        except (TransferCertificationError, NoFactorizationError, NotBaerStarError) as err:
            return f"f = {render_morphism(f)}, v = {render_morphism(v)}: {err}"
        return None

    return [
        run_clause("image.smallest-subobject", "2.1", mono_pairs(enum, into_dom=True), smallest),
        run_clause("inverse-image.pullback", "3.1", mono_pairs(enum, into_dom=False), pullback),
    ]


def mono_pairs(enum, into_dom):
    """(f, mono) pairs, f outermost: monos into dom(f) when into_dom, else into cod(f)."""
    for f in enum.morphisms():
        for s in enum.cached(_monos_into, f.dom if into_dom else f.cod):
            yield f, s


def reference_smallest_subobject_witness(cat, f, u, p, enum):
    fu = cat.compose(f, u)
    pp = cat.compose(p, cat.involve(p))
    if cat.compose(pp, fu) != fu:
        return f"f∘u = {render_morphism(fu)} does not factor through {render_morphism(p)}"
    for s in enum.cached(_monos_into, f.cod):
        ss = cat.compose(s, cat.involve(s))
        if cat.compose(ss, fu) == fu and cat.compose(ss, p) != p:
            return (
                f"f∘u = {render_morphism(fu)} factors through {render_morphism(s)} "
                f"but {render_morphism(p)} does not"
            )
    return None


# the suites holding the clauses above, run in one pass as in suite "all"
LAW_GROUPS = SUITES["all"]


def _assert_laws_agree(cat, budget) -> int:
    """Compare on one category; the number of compared clauses that fail."""
    expected = _reference_law_clauses(cat, budget)
    report = build_report("laws", cat, LAW_GROUPS, budget)
    for clause_id, want in expected.items():
        got = report.clause(clause_id)
        assert (got.status, got.checked, got.counterexample) == (
            want.status,
            want.checked,
            want.counterexample,
        ), clause_id
    return sum(c.status == FAIL for c in expected.values())




@pytest.mark.hashseed
def test_id_level_laws_agree_with_projection_level_definitions(budget):
    # every golden category: the models, the monoid categories, the seeded
    # defects, the README fixture and a non-Baer* spec
    failing = {
        name: _assert_laws_agree(build()[0], budget)
        for name, (build, _) in GOLDEN_CATEGORIES.items()
    }
    assert failing["pbij012"] == failing["pbij12"] == 0
    assert sum(failing[f"pbij12-{name}"] > 0 for name in CLONES) >= 4
    assert failing["not-baer-star"] > 0 and failing["two-object-chain3"] > 0
    clones = list(endomorphism_clones(canonical_pbij_category((1, 2))))
    failing = sum(_assert_laws_agree(clone, budget) > 0 for clone in clones)
    assert len(clones) == 53 and failing > 40, failing
    # clones of the chain 1 > e1 > e2 where a connection law fails by value,
    # not through a missing annihilator
    by_value = {
        ("e1", "e2", "0"): (
            "connection.complement-identity",
            6,
            "P''(f)(j) ≠ (P'(f)(j′))′ for f = X→X [e1], j = X→X [e2]",
        ),
        ("0", "1", "e1"): (
            "connection.equivalence-units",
            4,
            "P'(f)(1) = 1 is False but P''(f)(0) = 0 is True for f = X→X [0]",
        ),
    }
    for (f, g, wrong), (clause_id, checked, counterexample) in by_value.items():
        clone = _chain3_clone(f, g, wrong)
        assert _assert_laws_agree(clone, budget) > 0
        got = theorem_suite(clone, "connection", budget).clause(clause_id)
        assert (got.status, got.checked, got.counterexample) == (FAIL, checked, counterexample)


def test_an_inverse_image_square_whose_legs_do_not_meet_fails_3_1(budget):
    # a table copy of (0,1,2) whose v∘id for v: S1 → S2 lies outside
    # hom(S1, S2): the top edge v*∘f∘u then starts at 0, not at dom u
    base = to_table(canonical_pbij_category((0, 1, 2)))
    zero, s1, s2 = base.objects
    v = make_pbij(s1, s2, (("e1", "e1"),))
    cat = table_with(base, {(v, base.identity(s1)): base.hom(zero, s2)[0]})
    clause = theorem_suite(cat, "3.1", budget).clause("inverse-image.pullback")
    expected = f"f = {render_morphism(v)}, v = {render_morphism(v)}: left and top legs start at different objects"
    assert (clause.status, clause.checked, clause.counterexample) == (FAIL, 20, expected)


@pytest.mark.hashseed
def test_certified_clauses_agree_with_their_per_case_references_on_every_clone(budget):
    # 2.1 and 3.1 on each of the 536 single-entry clones of (1, 2), against
    # the smallest-subobject scan and the per-square walk: 141 clones fail
    # 3.1 by value on a cone with no mediator, and 7 on a square that does
    # not commute
    groups = [image_smallest_subobject_clauses, inverse_image_pullback_clauses]
    outcomes = Counter()
    for clone in single_entry_clones(canonical_pbij_category((1, 2))):
        expected = reference_certified_clauses(Enumeration(clone, budget))
        report = build_report("certified", clone, groups, budget)
        for got, want in zip(report.clauses, expected, strict=True):
            assert (got.clause_id, got.status, got.checked, got.counterexample) == (
                want.clause_id,
                want.status,
                want.checked,
                want.counterexample,
            ), got.clause_id
        pullback = report.clauses[1]
        if pullback.status == FAIL:
            text = pullback.counterexample
            outcomes["no mediator" if "0 mediating" in text else "not commuting" if "f∘u ≠" in text else "missing"] += 1
        outcomes[report.clauses[0].clause_id, report.clauses[0].status] += 1
    assert outcomes == {
        "no mediator": 141,
        "not commuting": 7,
        "missing": 358,
        ("image.smallest-subobject", FAIL): 358,
        ("image.smallest-subobject", PASS): 178,
    }


def _reference_functoriality(cat, budget):
    enum = Enumeration(cat, budget)
    fn, lattice = _reference_transfer(cat, enum)
    return [c for kind in TransferKind for c in _reference_functor_clauses(cat, enum, fn, lattice, kind)]


def _spy_on_composition_cases(monkeypatch) -> dict:
    """The cases each functor composition clause is handed, by clause id."""
    handed = {}
    real = transfer_module.run_clause

    def spy(clause_id, anchor, cases, check):
        if clause_id.endswith(".composition"):
            cases = handed[clause_id] = list(cases)
        return real(clause_id, anchor, cases, check)

    monkeypatch.setattr(transfer_module, "run_clause", spy)
    return handed


@pytest.mark.hashseed
def test_functor_laws_agree_with_their_per_pair_definitions_on_every_clone(monkeypatch, budget):
    # a composition law compares a hom block at a time and falls back to
    # single pairs; 530 of the 536 clones fail a functor law, by value or
    # through a missing annihilator, so every way out of a block is taken
    handed = _spy_on_composition_cases(monkeypatch)
    base = canonical_pbij_category((1, 2))
    report = check_functoriality(base, budget=budget)
    for clause in report.clauses[1::2]:
        cases = handed[clause.clause_id]
        assert clause.status == PASS and all(type(case) is Passed for case in cases)
        assert sum(cases) == clause.checked == 166 > len(cases)
    clones = list(single_entry_clones(base))
    failing = by_value = 0
    for clone in clones:
        report = check_functoriality(clone, budget=budget)
        assert report.clauses == _reference_functoriality(clone, budget)
        failing += not report.passed
        # failing by value: the blocks before the failing pair come as
        # Passed cases, then that pair, and the count is theirs plus one
        for clause in report.failures():
            if "(f∘g) ≠" in clause.counterexample:
                cases = handed[clause.clause_id]
                first = next(k for k, case in enumerate(cases) if type(case) is not Passed)
                assert clause.checked == sum(cases[:first]) + 1
                by_value += 1
    assert (len(clones), failing, by_value) == (536, 530, 521 + 120 + 120)


def test_functor_composition_walks_a_block_with_a_missing_annihilator_pair_by_pair(monkeypatch, budget):
    # P′ and P″ of m2: A → B need an annihilator this category lacks, so
    # their composition laws fail at the per-pair reference's pair and text
    handed = _spy_on_composition_cases(monkeypatch)
    calls = []  # (id of f, ids of the g) of each call of a law's sides
    real = Enumeration.pair_blocks

    def recording(enum, sides, word):
        def recorded(fi, gids):
            calls.append((fi, gids))
            return sides(fi, gids)

        return real(enum, recorded, word)

    monkeypatch.setattr(Enumeration, "pair_blocks", recording)
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    report = check_functoriality(cat, budget=budget)
    assert report.clauses == _reference_functoriality(cat, budget)
    for kind in (P1, P2):
        clause = report.clause(f"functor.{_KIND_NAMES[kind][0]}.composition")
        assert clause.status == FAIL
        assert clause.counterexample.startswith("no projection annihilates exactly what")
        # Passed cases, then one Failed case with the clause's text and count
        cases = handed[clause.clause_id]
        first = next(k for k, case in enumerate(cases) if type(case) is not Passed)
        assert type(cases[first]) is Failed
        assert (clause.checked, clause.counterexample) == (sum(cases[:first]) + 1, cases[first])
    # a block whose sides raised is asked again one g at a time, in block
    # order, up to its first failing pair
    walks = [
        k for k, ((fi, gids), after) in enumerate(zip(calls, calls[1:]))
        if len(gids) > 1 and after == (fi, gids[:1])
    ]
    assert walks
    for k in walks:
        fi, gids = calls[k]
        walked = list(takewhile(lambda call: call[0] == fi and len(call[1]) == 1, calls[k + 1:]))
        assert walked == [(fi, (gi,)) for gi in gids[:len(walked)]]


@pytest.mark.hashseed
def test_functor_laws_agree_with_their_per_pair_definitions_on_the_clones_of_a_category_missing_annihilators(budget):
    # a walked pair asks kind(f∘g)(p), kind(first)(p) and kind(then) of that,
    # p by p, and stops at the first p where the sides differ, as the per-pair
    # definition does; a walk that asked all of one side first, or went on
    # past a differing p, words two of these clones with another missing
    # annihilator
    clones = list(single_entry_clones(build_category(parse_spec(NOT_BAER_STAR))[0]))
    failing = Counter()
    for clone in clones:
        report = check_functoriality(clone, budget=budget)
        assert report.clauses == _reference_functoriality(clone, budget)
        failing.update(c.clause_id for c in report.failures() if c.counterexample.startswith("no projection"))
    assert len(clones) == 446
    assert failing["functor.inverse-image.composition"] > 0 and failing["functor.preimage.composition"] > 0


def _chain3_clone(f: str, g: str, wrong: str):
    """The two-object category of the chain 1 > e1 > e2 with f∘g made `wrong`."""
    cat = two_object_category(chain_semilattice(3))
    e = {m.payload: m for m in cat.hom("X", "X")}
    return cat.with_corrupted_composition(e[f], e[g], e[wrong])


def test_transfer_values_live_on_their_morphisms_domain(budget, monkeypatch):
    # a transfer row keeps a value by its id alone, so each value must be an
    # endomorphism of the target of kind(f)
    values = []
    for name, kind in (("apply_P", P), ("apply_Pprime", P1), ("apply_Pdoubleprime", P2)):

        def recording(cat, f, p, *enum, real=getattr(transfer_module, name), kind=kind):
            values.append((_target(kind, f), real(cat, f, p, *enum)))
            return values[-1][1]

        monkeypatch.setattr(transfer_module, name, recording)
    cats = [canonical_pbij_category((0, 1, 2)), two_object_category(cyclic_group(3))]
    cats += [_golden_clone(name) for name in CLONES]
    for cat in cats:
        theorem_suite(cat, "all", budget)
    assert len(values) > 1000
    assert all(q.dom == q.cod == target for target, q in values)


def test_transfer_rows_store_no_failed_value(budget, monkeypatch):
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    enum = Enumeration(cat, budget)
    f = next(m for m in enum.morphisms() if render_morphism(m) == "B→A {b1↦a1}")
    computed = _count_transfer_values(monkeypatch)
    row = _row(enum, TransferKind.INVERSE_IMAGE, cat.intern(f))
    zero = cat.zero_id(f.cod, f.cod)
    for _ in range(2):
        with pytest.raises(AnnihilatorNotFoundError):
            row[zero]
    assert zero not in row and sum(computed.values()) == 2
    one = cat.intern(cat.identity(f.cod))
    assert cat.morphisms_by_id[row[one]] == cat.identity(f.dom)
    assert row[one] == row[one] and sum(computed.values()) == 3
