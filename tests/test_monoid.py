import random
from itertools import product

import pytest

import invcat.core
import invcat.monoid
from invcat import (
    Budget,
    BudgetExceededError,
    InverseMonoid,
    MonoidAxiomError,
    TableShapeError,
    chain_semilattice,
    classify_exactness,
    cyclic_group,
    is_group,
    symmetric_inverse_monoid,
    two_object_category,
    validate_inverse_monoid,
)
from invcat.report import FAIL, PASS


def square_table(elements, rule):
    return {(a, b): rule(a, b) for a in elements for b in elements}


def test_validate_happy_paths():
    z2 = validate_inverse_monoid(
        ("1", "a"), {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "1"}, "1"
    )
    assert z2.identity == "1"
    assert z2.inverse("a") == "a"
    assert z2.idempotents == ("1",)
    assert z2.zero is None
    assert len(z2) == 2

    sl = chain_semilattice(2)
    assert set(sl.elements) == {"1", "e1"}
    assert sl.product("e1", "e1") == "e1"
    assert sl.idempotents == ("1", "e1")
    assert sl.zero == "e1"  # e1 absorbs everything in the 2-chain


def test_table_shape_errors():
    with pytest.raises(TableShapeError):
        validate_inverse_monoid((), {}, "1")
    with pytest.raises(TableShapeError):
        validate_inverse_monoid(("1", "1"), {("1", "1"): "1"}, "1")
    with pytest.raises(TableShapeError):  # missing cells
        validate_inverse_monoid(("1", "a"), {("1", "1"): "1"}, "1")
    with pytest.raises(TableShapeError):  # product leaves the element set
        validate_inverse_monoid(
            ("1", "a"), square_table(("1", "a"), lambda x, y: "zz"), "1"
        )
    with pytest.raises(MonoidAxiomError) as err:  # unknown identity label
        validate_inverse_monoid(("1",), {("1", "1"): "1"}, "e")
    assert err.value.violation == "no-identity"


def test_axiom_violations_are_witnessed():
    # "1" does not act as an identity
    with pytest.raises(MonoidAxiomError) as err:
        validate_inverse_monoid(
            ("1", "a"), square_table(("1", "a"), lambda x, y: "a"), "1"
        )
    assert err.value.violation == "no-identity"

    # (aa)a != a(aa) with aa = b, ab = a, ba = b, bb = b
    table = {
        ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
        ("a", "1"): "a", ("a", "a"): "b", ("a", "b"): "a",
        ("b", "1"): "b", ("b", "a"): "b", ("b", "b"): "b",
    }
    with pytest.raises(MonoidAxiomError) as err:
        validate_inverse_monoid(("1", "a", "b"), table, "1")
    assert err.value.violation == "non-associative"
    assert err.value.witness

    # both constants are quasi-inverses of each constant (total functions on 2 points)
    fn = {
        "1": {"1": "1", "2": "2"}, "s": {"1": "2", "2": "1"},
        "ka": {"1": "1", "2": "1"}, "kb": {"1": "2", "2": "2"},
    }

    def compose(a, b):
        mapping = {x: fn[a][fn[b][x]] for x in ("1", "2")}
        return next(k for k, v in fn.items() if v == mapping)

    with pytest.raises(MonoidAxiomError) as err:
        validate_inverse_monoid(
            ("1", "s", "ka", "kb"), square_table(("1", "s", "ka", "kb"), compose), "1"
        )
    assert err.value.violation == "non-unique-inverse"


def reference_validate(elements, table, identity):
    """The inverse-monoid axioms checked by loops of their own, on a
    shape-checked table whose identity label is an element: the reference
    for validate_inverse_monoid, which checks them through the
    inverse-category clauses."""
    tbl = dict(table)
    for x in elements:
        if tbl[(identity, x)] != x or tbl[(x, identity)] != x:
            raise MonoidAxiomError(
                "no-identity",
                f"{identity}·{x} = {tbl[(identity, x)]} and {x}·{identity} = {tbl[(x, identity)]}",
            )
    for x in elements:
        for y in elements:
            xy = tbl[(x, y)]
            for z in elements:
                if tbl[(xy, z)] != tbl[(x, tbl[(y, z)])]:
                    raise MonoidAxiomError(
                        "non-associative",
                        f"({x}·{y})·{z} = {tbl[(xy, z)]} but {x}·({y}·{z}) = {tbl[(x, tbl[(y, z)])]}",
                    )
    inverses = {}
    for x in elements:
        found = [
            y
            for y in elements
            if tbl[(tbl[(x, y)], x)] == x and tbl[(tbl[(y, x)], y)] == y
        ]
        if len(found) != 1:
            detail = (
                f"{x} has no generalized inverse"
                if not found
                else f"{x} has {len(found)} generalized inverses, e.g. {found[0]} and {found[1]}"
            )
            raise MonoidAxiomError("non-unique-inverse", detail)
        inverses[x] = found[0]
    idempotents = tuple(x for x in elements if tbl[(x, x)] == x)
    zero = next(
        (z for z in elements if all(tbl[(z, x)] == z and tbl[(x, z)] == z for x in elements)),
        None,
    )
    return InverseMonoid(tuple(elements), identity, tbl, inverses, idempotents, zero)


def outcome(validate, elements, table, identity):
    """The validated monoid, or the name of the violated axiom."""
    try:
        return validate(elements, table, identity)
    except MonoidAxiomError as err:
        return err.violation


def with_identity(elements, product_of_others):
    """The table on elements where "1" is a two-sided identity and each
    other product, in row-major order, is product_of_others()."""
    return square_table(
        elements, lambda x, y: y if x == "1" else x if y == "1" else product_of_others()
    )


def agreement_corpus():
    """(elements, table, identity): every 3-element table with a two-sided
    identity, 400 seeded 4-element ones, every 2-element table under either
    identity label, and the stock monoids."""
    three = ("1", "a", "b")
    for values in product(three, repeat=4):
        yield three, with_identity(three, iter(values).__next__), "1"
    four = ("1", "a", "b", "c")
    rng = random.Random(15)
    for _ in range(400):
        yield four, with_identity(four, lambda: rng.choice(four)), "1"
    two = ("0", "1")
    for values in product(two, repeat=4):
        for identity in two:
            yield two, dict(zip(product(two, repeat=2), values)), identity
    for monoid in (cyclic_group(4), chain_semilattice(3), symmetric_inverse_monoid(2)):
        yield monoid.elements, monoid.table, monoid.identity


def test_validation_agrees_with_the_reference_loops():
    seen = set()
    for elements, table, identity in agreement_corpus():
        got = outcome(validate_inverse_monoid, elements, table, identity)
        want = outcome(reference_validate, elements, table, identity)
        assert got == want, (elements, table, identity)
        seen.add(got if isinstance(got, str) else "valid")
    assert seen == {"valid", "no-identity", "non-associative", "non-unique-inverse"}


def test_validation_runs_only_the_clauses_it_reads(monkeypatch):
    # the involution clauses follow from the four that decide the axioms
    monoid, ran = symmetric_inverse_monoid(2), []
    real = invcat.core.run_clause
    monkeypatch.setattr(invcat.core, "run_clause", lambda clause_id, *args: ran.append(clause_id) or real(clause_id, *args))
    validate_inverse_monoid(monoid.elements, monoid.table, monoid.identity)
    assert ran == list(invcat.monoid._VIOLATIONS) == [
        "category.identity-laws",
        "category.associativity",
        "inverse.exists",
        "inverse.unique",
    ]


def test_validation_never_samples():
    # Z/210 has more elements than the default budget enumerates; validation
    # reads the whole table all the same, so a broken entry is found
    labels = [str(k) for k in range(210)]
    assert len(labels) > Budget().homset_limit
    table = {(x, y): str((int(x) + int(y)) % 210) for x in labels for y in labels}
    assert validate_inverse_monoid(labels, table, "0").inverse("1") == "209"
    table[("5", "7")] = "3"
    with pytest.raises(MonoidAxiomError) as err:
        validate_inverse_monoid(labels, table, "0")
    assert err.value.violation == "non-associative"


def test_stock_monoids():
    z3 = cyclic_group(3)
    assert is_group(z3)
    assert z3.product("a", "a2") == "1"
    assert z3.inverse("a") == "a2"

    i3 = symmetric_inverse_monoid(3)
    assert len(i3) == 34
    assert not is_group(i3)
    assert i3.zero == "0"

    chain = chain_semilattice(3)
    assert len(chain) == 3
    assert chain.product("e1", "e2") == "e2"
    assert not is_group(chain)


def test_two_object_category_reuses_reachable_zero():
    # in I2 the empty map is a product of nonzero elements, so it is the zero
    i2 = symmetric_inverse_monoid(2)
    cat = two_object_category(i2)
    endos = cat.hom("X", "X")
    assert len(endos) == 7
    assert {m.payload for m in endos} == set(i2.elements)


def test_two_object_category_adjoins_fresh_zero():
    trivial = cyclic_group(1)
    cat = two_object_category(trivial)
    endos = cat.hom("X", "X")
    assert {m.payload for m in endos} == {"1", "0"}
    z = cat.zero("X", "X")
    assert z.payload == "0"
    assert cat.compose(z, cat.identity("X")) == z


def test_fresh_zero_label_avoids_collision():
    # I1 already contains an absorbing "0" that is NOT reachable as a product
    # of nonzero elements, so a distinct zero is adjoined alongside it
    i1 = symmetric_inverse_monoid(1)
    assert i1.zero == "0"
    cat = two_object_category(i1)
    payloads = {m.payload for m in cat.hom("X", "X")}
    assert payloads == {"e1>e1", "0", "0_"}
    assert cat.zero("X", "X").payload == "0_"


def test_two_object_category_is_inverse(budget):
    from invcat import check_inverse_category

    for monoid in (cyclic_group(2), chain_semilattice(3), symmetric_inverse_monoid(2)):
        report = check_inverse_category(two_object_category(monoid), budget)
        assert report.passed, [c.clause_id for c in report.failures()]


CLASSIFICATION_CORPUS = {
    "trivial": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "semilattice2": lambda: chain_semilattice(2),
    "chain3": lambda: chain_semilattice(3),
    "I1": lambda: symmetric_inverse_monoid(1),
    "I2": lambda: symmetric_inverse_monoid(2),
}


def test_classification_corpus(budget):
    for name, make in CLASSIFICATION_CORPUS.items():
        monoid = make()
        report = classify_exactness(monoid, budget)
        details = report.details
        assert details["is-exact"] == details["is-group"], name
        assert details["is-group"] == is_group(monoid), name
        assert not details["inconsistency"], name
        assert report.exit_code() == 0, name
        assert report.clause("classify.inverse-category").status == PASS
        assert report.clause("classify.exact-iff-group").status == PASS
        if is_group(monoid):
            assert details["failing-clauses"] == [], name
        else:
            assert details["failing-clauses"], name


def test_classify_keeps_raw_failures_out_of_clauses(budget):
    report = classify_exactness(chain_semilattice(2), budget)
    ids = {c.clause_id for c in report.clauses}
    assert ids == {"classify.inverse-category", "classify.exact-iff-group"}
    assert "exact.factorization" in report.details["failing-clauses"]


def test_classify_flags_broken_axioms(budget):
    # corrupt Z2's inverse map after validation: the category then carries an
    # involution rule that contradicts the actual quasi-inverses
    z2 = cyclic_group(2)
    inverses = dict(z2.inverses)
    inverses["a"] = "1"
    broken = type(z2)(
        elements=z2.elements,
        identity=z2.identity,
        table=z2.table,
        inverses=inverses,
        idempotents=z2.idempotents,
        zero=None,
    )
    report = classify_exactness(broken, budget)
    clause = report.clause("classify.inverse-category")
    assert clause.status == FAIL
    assert clause.counterexample
    assert report.exit_code() == 1


def test_classify_over_budget_raises():
    # End(X) of C2 holds its two elements and a zero, one more than
    # Budget(max_size=1) admits: no verdict rests on part of it
    with pytest.raises(BudgetExceededError, match="hom\\(X, X\\) has 3 morphisms, over the enumeration budget"):
        classify_exactness(cyclic_group(2), Budget(max_size=1))


@pytest.mark.hashseed
def test_cayley_table_rows_are_its_products(monkeypatch):
    # the one-object category validation checks, and the two-object
    # category, are numbered by element position and filled from the table
    checked = []
    real = invcat.monoid.Enumeration
    monkeypatch.setattr(invcat.monoid, "Enumeration", lambda cat, budget: checked.append(cat) or real(cat, budget))
    for make in (lambda: symmetric_inverse_monoid(2), lambda: cyclic_group(5), lambda: chain_semilattice(4)):
        checked.clear()
        monoid = make()
        one_object, = checked
        assert [m.payload for m in one_object.morphisms_by_id] == list(monoid.elements)
        assert one_object.rows == [
            {j: monoid.elements.index(monoid.product(x, y)) for j, y in enumerate(monoid.elements)}
            for x in monoid.elements
        ]
        cat = two_object_category(monoid)
        endos = {m.payload: i for i, m in enumerate(cat.morphisms_by_id) if m.dom == m.cod == "X"}
        zero = cat.zero_id("X", "X")
        for x, y in product(monoid.elements, repeat=2):
            i, j = endos[x], endos[y]
            want = zero if zero in (i, j) else endos[monoid.product(x, y)]
            assert cat.rows[i][j] == want
        assert {x: cat._involution_ids[endos[x]] for x in monoid.elements} == {
            x: endos[monoid.inverse(x)] for x in monoid.elements
        }
