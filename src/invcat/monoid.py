"""Finite inverse monoids from Cayley tables, the two-object category they
seed, and the classification suite checking that the category is exact
precisely when the monoid is a group."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .core import (
    Budget,
    Enumeration,
    InvcatError,
    Morphism,
    TableCategory,
    _quasi_inverses,
    build_report,
    category_axiom_clauses,
    inverse_category_clauses,
)
from .exactness import exactness_clauses
from .pbij import compose_pbij, enumerate_pbij, pbij_pairs, size_finset
from .report import FAIL, PASS, Clause, VerificationReport


class TableShapeError(InvcatError):
    """The table is not even a binary operation on the element list."""


class MonoidAxiomError(InvcatError):
    """One of the inverse-monoid axioms fails; `violation` names which."""

    def __init__(self, violation: str, witness: str):
        self.violation = violation
        self.witness = witness
        super().__init__(f"{violation}: {witness}")


@dataclass(frozen=True)
class InverseMonoid:
    """A validated finite inverse monoid.

    `table` maps (x, y) to the product xy; `inverses` carries each element's
    unique generalized inverse; `zero` is the absorbing element when the
    table has one.  Construct through validate_inverse_monoid.
    """

    elements: tuple[str, ...]
    identity: str
    table: dict
    inverses: dict
    idempotents: tuple[str, ...]
    zero: str | None

    def __len__(self) -> int:
        return len(self.elements)

    def product(self, x: str, y: str) -> str:
        return self.table[(x, y)]

    def inverse(self, x: str) -> str:
        return self.inverses[x]


# The clauses of category_axiom_clauses, which decide the inverse-monoid
# axioms, in the order they run, and the violation each failure names.
_VIOLATIONS = {
    "category.identity-laws": "no-identity",
    "category.associativity": "non-associative",
    "inverse.exists": "non-unique-inverse",
    "inverse.unique": "non-unique-inverse",
}


def validate_inverse_monoid(elements, table, identity: str) -> InverseMonoid:
    """Check the inverse-monoid axioms, returning the validated structure or
    raising MonoidAxiomError naming the broken axiom with a witness."""
    elements = tuple(elements)
    if not elements:
        raise TableShapeError("empty element list")
    position = {x: i for i, x in enumerate(elements)}
    if len(position) != len(elements):
        raise TableShapeError("duplicate element labels")
    # rows[i][j] is the position of the product of elements i and j: the id
    # table of the one-object category, numbered by element position
    tbl = dict(table)
    rows = []
    for x in elements:
        row = {}
        for j, y in enumerate(elements):
            z = tbl.get((x, y))
            if z is None:
                raise TableShapeError(f"table is missing the product {x}·{y}")
            k = position.get(z)
            if k is None:
                raise TableShapeError(f"product {x}·{y} = {z} is not an element")
            row[j] = k
        rows.append(row)

    if identity not in position:
        raise MonoidAxiomError("no-identity", f"{identity!r} is not an element")

    # An inverse monoid is a one-object inverse category, so the category
    # checker decides the axioms on a budget that fits the whole table; with
    # no involution table given, involve is the unique quasi-inverse.
    n = len(elements)
    cat = TableCategory.from_ids(
        objects=("X",),
        morphisms=[Morphism("X", "X", x) for x in elements],
        homs={("X", "X"): range(n)},
        rows=rows,
        identities={"X": position[identity]},
    )
    enum = Enumeration(cat, Budget(max_size=n))
    for clause in category_axiom_clauses(enum):
        if clause.status == FAIL:
            raise MonoidAxiomError(_VIOLATIONS[clause.clause_id], clause.counterexample)
    # the clauses passed, so each element's one quasi-inverse is in the run's memo
    inverses = {m.payload: enum.cached(_quasi_inverses, m)[0].payload for m in cat.morphisms_by_id}

    idempotents = tuple(x for i, x in enumerate(elements) if rows[i][i] == i)
    zero = next(
        (elements[z] for z in range(n) if all(rows[z][i] == z and rows[i][z] == z for i in range(n))),
        None,
    )
    return InverseMonoid(elements, identity, tbl, inverses, idempotents, zero)


def is_group(monoid: InverseMonoid) -> bool:
    """True when the identity is the only idempotent."""
    return monoid.idempotents == (monoid.identity,)


# ---- the two-object category ----------------------------------------------


def _zero_is_reachable(monoid: InverseMonoid) -> bool:
    """True when the absorbing element is a product of two other elements.
    An unreachable zero is a freely adjoined one; reusing it as the
    categorical zero would collapse the very structure being classified
    (a group with a free zero would come out exact), so only woven-in
    zeros are reused.
    """
    z = monoid.zero
    if z is None:
        return False
    others = [x for x in monoid.elements if x != z]
    return any(monoid.table[(x, y)] == z for x in others for y in others)


def two_object_category(monoid: InverseMonoid) -> TableCategory:
    """Objects Z and X with End(X) the monoid and Z a zero object.

    The categorical zero of End(X) is the monoid's own absorbing element
    when that element is a product of nonzero elements, else a fresh label.
    """
    labels = list(monoid.elements)
    if _zero_is_reachable(monoid):
        zero_label = monoid.zero
    else:
        used = set(labels)
        zero_label = next(c for c in ("0" + "_" * k for k in count()) if c not in used)
        labels.append(zero_label)

    # ids: the endomorphisms of X in label order, then 1 on Z, Z → X and X → Z
    position = {s: i for i, s in enumerate(labels)}
    zero_endo, id_z, z_in, z_out = position[zero_label], len(labels), len(labels) + 1, len(labels) + 2
    morphisms = [Morphism("X", "X", s) for s in labels]
    morphisms += [Morphism("Z", "Z", zero_label), Morphism("Z", "X", zero_label), Morphism("X", "Z", zero_label)]
    homs = {
        ("X", "X"): range(len(labels)),
        ("Z", "Z"): (id_z,),
        ("Z", "X"): (z_in,),
        ("X", "Z"): (z_out,),
    }

    def product(i: int, j: int) -> int:
        if i == zero_endo or j == zero_endo:
            return zero_endo
        return position[monoid.table[(labels[i], labels[j])]]

    zero_of = {("X", "X"): zero_endo, ("Z", "Z"): id_z, ("Z", "X"): z_in, ("X", "Z"): z_out}
    rows: list[dict] = [{} for _ in morphisms]
    for (b, c), fs in homs.items():
        for (a, b2), gs in homs.items():
            if b2 != b:
                continue
            for f in fs:
                if a == b == c == "X":
                    rows[f].update((g, product(f, g)) for g in gs)
                else:
                    rows[f].update(dict.fromkeys(gs, zero_of[(a, c)]))

    involution = {id_z: id_z, z_in: z_out, z_out: z_in, zero_endo: zero_endo}
    for s in monoid.elements:
        if s != zero_label:
            involution[position[s]] = position[monoid.inverses[s]]

    return TableCategory.from_ids(
        objects=("Z", "X"),
        morphisms=morphisms,
        homs=homs,
        rows=rows,
        identities={"X": position[monoid.identity], "Z": id_z},
        involution=involution,
        zero_object="Z",
    )


# ---- classification --------------------------------------------------------


def classify_exactness(monoid: InverseMonoid, budget: Budget | None = None) -> VerificationReport:
    """Run the inverse-category axioms and exactness checklists on the
    two-object category and assert the exactness verdict matches is_group;
    a mismatch would be loud and interesting."""
    group = is_group(monoid)

    def verdicts(enum: Enumeration) -> list[Clause]:
        axioms = inverse_category_clauses(enum)
        broken = [c for c in axioms if c.status == FAIL]
        failing = [c.clause_id for c in exactness_clauses(enum) if c.status == FAIL]
        exact = not failing
        # The verdict clauses are the contract here.  A non-group is SUPPOSED
        # to fail some exactness clause, so those raw failures stay out of the
        # clause list (they would poison the exit code) and land in details.
        enum.details = {
            "monoid-size": len(monoid),
            "is-group": group,
            "is-exact": exact,
            "failing-clauses": failing,
            "inconsistency": exact != group,
        }
        inverse_clause = Clause(
            "classify.inverse-category",
            "1",
            PASS if not broken else FAIL,
            sum(c.checked for c in axioms),
            None if not broken else f"{broken[0].clause_id}: {broken[0].counterexample}",
        )
        agree = Clause(
            "classify.exact-iff-group",
            "1",
            PASS if exact == group else FAIL,
            1,
            None
            if exact == group
            else (
                f"category is {'exact' if exact else 'not exact'} but the monoid is "
                f"{'a group' if group else 'not a group'}; failing clauses: {failing or 'none'}"
            ),
        )
        return [inverse_clause, agree]

    return build_report("classify", two_object_category(monoid), [verdicts], budget)


# ---- stock monoids ---------------------------------------------------------


def pbij_label(pairs) -> str:
    pairs = tuple(sorted(pairs))
    if not pairs:
        return "0"
    return "+".join(f"{x}>{y}" for x, y in pairs)


def symmetric_inverse_monoid(n: int) -> InverseMonoid:
    """All partial bijections of an n-element set under composition."""
    a = size_finset(n)
    morphisms = enumerate_pbij(a, a)
    labels = {f: pbij_label(pbij_pairs(f)) for f in morphisms}
    table = {}
    for f in morphisms:
        for g in morphisms:
            table[(labels[f], labels[g])] = pbij_label(compose_pbij(f, g).payload)
    identity = pbij_label((e, e) for e in a.elements)
    return validate_inverse_monoid(sorted(labels.values()), table, identity)


def cyclic_group(n: int) -> InverseMonoid:
    if n < 1:
        raise InvcatError("cyclic group needs n >= 1")
    labels = ["1"] + [f"a{k}" if k > 1 else "a" for k in range(1, n)]
    table = {
        (labels[i], labels[j]): labels[(i + j) % n] for i in range(n) for j in range(n)
    }
    return validate_inverse_monoid(labels, table, "1")


def chain_semilattice(n: int) -> InverseMonoid:
    """The chain 1 > e1 > ... > e(n-1) under meet."""
    if n < 1:
        raise InvcatError("chain needs n >= 1")
    labels = ["1"] + [f"e{k}" for k in range(1, n)]
    table = {
        (labels[i], labels[j]): labels[max(i, j)] for i in range(n) for j in range(n)
    }
    return validate_inverse_monoid(labels, table, "1")
