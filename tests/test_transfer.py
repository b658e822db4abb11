from collections import Counter

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
    check_closed_forms,
    check_functoriality,
    cyclic_group,
    image_of,
    inclusion,
    inverse_image_of,
    make_pbij,
    parse_spec,
    render_morphism,
    size_finset,
    subset_projection,
    theorem_suite,
    transfer_table,
    two_object_category,
)
from invcat.exactness import NotMonoError
from invcat.pbij import image_labels, projection_labels
from invcat.projections import AnnihilatorNotFoundError, bottom
import invcat.transfer as transfer_module
from invcat.transfer import SUITES, TransferKind, _apply, square_for_inverse_image, transfer
from invcat.core import InvcatError
from invcat.report import FAIL
from test_golden import NOT_BAER_STAR


def test_transfer_conjugates(fixture_cat, A, f):
    i = subset_projection(A, ("1", "3")).morphism
    moved = transfer(fixture_cat, f, i)
    assert moved.payload == frozenset({("a", "a")})
    with pytest.raises(ShapeMismatchError):
        transfer(fixture_cat, f, f)


def test_fixture_transfer_values(fixture_cat, A, B, f):
    assert projection_labels(apply_P(fixture_cat, f, subset_projection(A, ("1", "3")))) == ("a",)
    assert projection_labels(
        apply_Pprime(fixture_cat, f, subset_projection(B, ("a", "c")))
    ) == ("1", "3")
    assert projection_labels(
        apply_Pdoubleprime(fixture_cat, f, subset_projection(B, ("a", "c")))
    ) == ("1",)
    # the inverse image of the empty projection is the annihilator
    assert projection_labels(apply_Pprime(fixture_cat, f, subset_projection(B, ()))) == ("3",)


def test_transfer_rejects_wrong_lattice(fixture_cat, A, B, f):
    with pytest.raises(ObjectMismatchError):
        apply_P(fixture_cat, f, subset_projection(B, ("a",)))
    with pytest.raises(ObjectMismatchError):
        apply_Pprime(fixture_cat, f, subset_projection(A, ("1",)))


def test_transfer_table_round_trip(fixture_cat, A, B, f, budget):
    enum = Enumeration(fixture_cat, budget)
    table = transfer_table(fixture_cat, TransferKind.IMAGE, f, enum)
    assert table.kind is TransferKind.IMAGE
    i = subset_projection(A, ("2",))
    assert table.apply(i) == apply_P(fixture_cat, f, i)
    assert not table.is_injective()  # f is not mono, so P(f) cannot be injective
    inv = transfer_table(fixture_cat, TransferKind.INVERSE_IMAGE, f, enum)
    assert inv.apply(subset_projection(B, ("a", "c"))) == subset_projection(A, ("1", "3"))


def test_image_of_fixture(fixture_cat, A, B, f):
    u = inclusion(A, ("1", "3"))
    p = image_of(fixture_cat, f, u)
    assert image_labels(p) == ("a",)
    zero_sub = inclusion(A, ())
    p0 = image_of(fixture_cat, f, zero_sub)
    assert image_labels(p0) == ()
    not_mono = subset_projection(A, ("1", "2")).morphism
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
    square = square_for_inverse_image(fixture_cat, f, v)
    lhs = fixture_cat.compose(square.bottom, square.left)
    rhs = fixture_cat.compose(square.right, square.top)
    assert lhs == rhs


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
    computed = _count_transfer_values(monkeypatch)
    assert theorem_suite(canonical_pbij_category((0, 1, 2)), "functoriality", budget).passed
    assert computed and max(computed.values()) == 1
    assert {name for name, _, _ in computed} == {"apply_P", "apply_Pprime", "apply_Pdoubleprime"}


def test_transfer_errors_are_not_cached(budget, monkeypatch):
    cat = build_category(parse_spec(NOT_BAER_STAR))[0]
    enum = Enumeration(cat, budget)
    f = next(m for m in enum.morphisms() if render_morphism(m) == "B→A {b1↦a1}")
    computed = _count_transfer_values(monkeypatch)
    texts = []
    for _ in range(2):
        with pytest.raises(AnnihilatorNotFoundError) as raised:
            _apply(cat, TransferKind.INVERSE_IMAGE, f, bottom(cat, f.cod), enum)
        texts.append(str(raised.value))
    assert texts == ["no projection annihilates exactly what B→A {b1↦a1} kills"] * 2
    assert sum(computed.values()) == 2
