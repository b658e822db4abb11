"""Transfer maps between projection lattices.

For f: A → B three maps are realized as explicit finite tables:

  image           P(f)(i)  = f∘i∘f*        covariant,     P(A) → P(B)
  inverse image   P'(f)(j) = (j′∘f)′       contravariant, P(B) → P(A)
  strict preimage P''(f)(j) = (j∘f)″       contravariant, P(B) → P(A)

plus the suites checking the law catalog for them: smallest-subobject and
pullback characterizations, lattice-map properties, the mono/epi
biconditionals, the complement identity tying P'' to P', and functoriality.

Most catalog laws take one of three shapes, each checked by one helper.  A
point law says kind(f) sends one named projection to another, as
P(f)(1) = f∘f*; a bound law, that every value of kind(f) lies below or above
one, as P'(f)(j) ≥ f′; a saturation law, that kind(f) is constant on the
up-set or down-set of one, as j ≥ f∘f* ⇒ P'(f)(j) = 1.  The names are 0, 1,
f∘f*, f*∘f, f′, f″ and (f*)′; 0 and 1 are taken on the source lattice where
kind(f) reads them and on the target where a value is compared with them.
A counterexample prints the same name that picks the projection.  The
mono/epi dual pairs are likewise one helper each, the test on f and on the
map picked by the word the clause prints.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, repeat

from .core import (
    Budget,
    Enumeration,
    FiniteCategory,
    InvcatError,
    Memo,
    Morphism,
    ObjectMismatchError,
    ShapeMismatchError,
    build_report,
    render_morphism,
    render_object,
)
from .exactness import (
    CommutingSquare,
    NoFactorizationError,
    NonCommutingSquareError,
    NotMonoError,
    is_epi,
    is_mono,
    mono_epi_factorize,
    pullback_witness,
)
from .pbij import (
    PBijCategory,
    annihilator_pbij,
    image_subset,
    inverse_image_subset,
    partial_identity,
    preimage_subset,
    projection_labels,
)
from .projections import (
    NotBaerStarError,
    ProjectionLattice,
    annihilator,
    lattice_on,
)
from .report import Clause, VerificationReport, run_clause


class TransferCertificationError(InvcatError):
    pass


class TransferKind(str, Enum):
    IMAGE = "P"
    INVERSE_IMAGE = "P'"
    STRICT_PREIMAGE = "P''"


# clause-id prefix, catalog anchor and report noun of each kind
_KIND_NAMES = {
    TransferKind.IMAGE: ("image", "2", "image"),
    TransferKind.INVERSE_IMAGE: ("inverse-image", "3", "inverse image"),
    TransferKind.STRICT_PREIMAGE: ("preimage", "4", "strict preimage"),
}

# the partial-bijection closed form of each kind, on subsets of element labels
SUBSET_FORMS = {
    TransferKind.IMAGE: image_subset,
    TransferKind.INVERSE_IMAGE: inverse_image_subset,
    TransferKind.STRICT_PREIMAGE: preimage_subset,
}


def transfer(cat: FiniteCategory, f: Morphism, h: Morphism) -> Morphism:
    """Conjugation f∘h∘f* of an arbitrary endomorphism h of dom(f)."""
    if h.dom != f.dom or h.cod != f.dom:
        raise ShapeMismatchError(f"{render_morphism(h)} is not an endomorphism of dom(f)")
    return cat.compose(cat.compose(f, h), cat.involve(f))


def _check_source(kind: TransferKind, f: Morphism, p: Morphism) -> None:
    """Raise unless p lives on the source lattice of kind(f)."""
    a = _source(kind, f)
    if p.dom != a:
        raise ObjectMismatchError(f"projection lives on {render_object(p.dom)}, not on {_source_side(kind)}(f) = {render_object(a)}")


def apply_P(cat: FiniteCategory, f: Morphism, i: Morphism) -> Morphism:
    _check_source(TransferKind.IMAGE, f, i)
    return transfer(cat, f, i)


def apply_Pprime(cat: FiniteCategory, f: Morphism, j: Morphism, enum: Enumeration) -> Morphism:
    _check_source(TransferKind.INVERSE_IMAGE, f, j)
    return annihilator(cat, cat.compose(annihilator(cat, j, enum), f), enum)


def apply_Pdoubleprime(cat: FiniteCategory, f: Morphism, j: Morphism, enum: Enumeration) -> Morphism:
    _check_source(TransferKind.STRICT_PREIMAGE, f, j)
    return annihilator(cat, annihilator(cat, cat.compose(j, f), enum), enum)


def _by_definition(cat: FiniteCategory, kind: TransferKind, f: Morphism, p: Morphism, enum: Enumeration) -> Morphism:
    """kind(f)(p) from its definition: the one dispatch over P, P′ and P″,
    shared by the rows and the closed-form check."""
    if kind is TransferKind.IMAGE:
        return apply_P(cat, f, p)
    if kind is TransferKind.INVERSE_IMAGE:
        return apply_Pprime(cat, f, p, enum)
    return apply_Pdoubleprime(cat, f, p, enum)


def _transfer_row(cat: FiniteCategory, key, enum: Enumeration) -> Memo:
    """kind(f) on morphism ids, the one store of transfer values: the id of
    a projection p maps to the id of kind(f)(p), filled by the one dispatch
    over P, P′ and P″.  It refers to the run weakly, as the run's memo does."""
    kind, f = key
    f, run = cat.morphisms_by_id[f], weakref.ref(enum)
    return Memo(lambda p: cat.intern(_by_definition(cat, kind, f, cat.morphisms_by_id[p], run())))


def _row(enum: Enumeration, kind: TransferKind, f: int) -> Memo:
    """The row of kind(f), for the morphism with id f, kept once per run."""
    return enum.cached(_transfer_row, (kind, f))


def _source(kind: TransferKind, f: Morphism):
    """dom f for the covariant P, cod f for the contravariant P′ and P″."""
    return f.dom if kind is TransferKind.IMAGE else f.cod


def _source_side(kind: TransferKind) -> str:
    """The name error texts give _source(kind, f)."""
    return "dom" if kind is TransferKind.IMAGE else "cod"


def _target(kind: TransferKind, f: Morphism):
    return f.cod if kind is TransferKind.IMAGE else f.dom


def _variable(kind: TransferKind) -> str:
    """The name law texts give a projection of the source lattice of kind(f)."""
    return "i" if kind is TransferKind.IMAGE else "j"


def _row_and_source(enum: Enumeration, kind: TransferKind, f: Morphism) -> tuple:
    """The row of kind(f) and (p, id of p) for each p of its source lattice."""
    source = lattice_on(enum, _source(kind, f))
    return _row(enum, kind, enum.cat.intern(f)), tuple(zip(source.elements, source.ids))


# ---- explicit tables -------------------------------------------------------


@dataclass(frozen=True)
class TransferMap:
    """One transfer map as a finite table over its source lattice: `values`
    holds the id of kind(f)(p) for each p in source order, read from the
    run's row of kind(f)."""

    kind: TransferKind
    morphism: Morphism
    source: ProjectionLattice
    target: ProjectionLattice
    values: tuple[int, ...]
    cat: FiniteCategory = field(compare=False, repr=False)

    def apply(self, p: Morphism) -> Morphism:
        return self.cat.morphisms_by_id[self.values[self.source.elements.index(p)]]

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_surjective(self) -> bool:
        return set(self.values) >= set(self.target.ids)


def transfer_table(cat: FiniteCategory, kind: TransferKind, f: Morphism, enum: Enumeration) -> TransferMap:
    source = lattice_on(enum, _source(kind, f))
    target = lattice_on(enum, _target(kind, f))
    row = _row(enum, kind, cat.intern(f))
    return TransferMap(kind, f, source, target, tuple(map(row.__getitem__, source.ids)), cat)


# ---- subobject transfer ----------------------------------------------------


def _monos_into(cat: FiniteCategory, b, enum: Enumeration) -> tuple[Morphism, ...]:
    return tuple(s for s in enum.morphisms_into(b) if is_mono(cat, s))


def _mono_projections(cat: FiniteCategory, b, enum: Enumeration) -> tuple[int, ...]:
    """The id of s∘s* for every enumerated mono s into b, in _monos_into order."""
    ids = map(cat.intern, enum.cached(_monos_into, b))
    return tuple(cat.compose_id(si, cat.involve_id(si)) for si in ids)


def _moved_mono(cat: FiniteCategory, kind: TransferKind, f: int, s: int, enum: Enumeration) -> int:
    """The id of the mono part p of the factorization of kind(f)(s∘s*) =
    p∘p*, for the ids of f and of a mono s into the source of kind(f)."""
    moved = _row(enum, kind, f)[cat.compose_id(s, cat.involve_id(s))]
    return cat.intern(mono_epi_factorize(cat, cat.morphisms_by_id[moved], enum).p)


def image_of(cat: FiniteCategory, f: Morphism, u: Morphism, enum: Enumeration) -> Morphism:
    """The image of f∘u, for a mono u into dom(f): the mono part p of the
    factorization of P(f)(u∘u*) = p∘p*, checked by
    smallest_subobject_witness, or TransferCertificationError."""
    return _certified(cat, TransferKind.IMAGE, f, u, enum)


def inverse_image_of(cat: FiniteCategory, f: Morphism, v: Morphism, enum: Enumeration) -> Morphism:
    """The mono u with u∘u* = P'(f)(v∘v*), for a mono v into cod(f),
    checked to make square_for_inverse_image(f, v, u) a pullback, or
    TransferCertificationError."""
    return _certified(cat, TransferKind.INVERSE_IMAGE, f, v, enum)


def _certified(cat: FiniteCategory, kind: TransferKind, f: Morphism, s: Morphism, enum: Enumeration) -> Morphism:
    """The image (kind P) or inverse image (kind P′) of s under f, checked
    by its smallest-subobject or pullback property, on ids: f, s and the
    moved mono are interned once, and the square of P′ is built from its
    ids and checked to commute once, by pullback_witness."""
    if s.cod != _source(kind, f):
        raise ShapeMismatchError(f"{render_morphism(s)} does not land in {_source_side(kind)}(f)")
    if not is_mono(cat, s):
        raise NotMonoError(f"{render_morphism(s)} is not a monomorphism")
    fi, si = cat.intern(f), cat.intern(s)
    u = _moved_mono(cat, kind, fi, si, enum)
    moved = cat.morphisms_by_id[u]
    if kind is TransferKind.IMAGE:
        witness = enum.cached(smallest_subobject_witness, (cat.compose_id(fi, si), u, f.cod))
    else:
        top, square = cat.compose_id(cat.involve_id(si), cat.compose_id(fi, u)), None
        try:
            square = CommutingSquare(top=cat.morphisms_by_id[top], left=moved, right=s, bottom=f)
            witness = pullback_witness(cat, square, enum)
        except NonCommutingSquareError as err:
            # legs that do not meet, or a square that does not commute
            witness = str(err) if square is None else _not_through_v(f, moved, s)
    if witness is not None:
        raise TransferCertificationError(witness)
    return moved


def smallest_subobject_witness(cat: FiniteCategory, key, enum: Enumeration) -> str | None:
    """For key (id of f∘u, id of p, b = cod f): None when f∘u factors
    through p and p factors through every enumerated mono into b that f∘u
    factors through.  A run memo, since it depends on f and u only through
    f∘u and cod f."""
    fu, p, b = key
    compose_id, by_id = cat.compose_id, cat.morphisms_by_id
    if compose_id(compose_id(p, cat.involve_id(p)), fu) != fu:
        return f"f∘u = {render_morphism(by_id[fu])} does not factor through {render_morphism(by_id[p])}"
    for s, ss in zip(enum.cached(_monos_into, b), enum.cached(_mono_projections, b)):
        if compose_id(ss, fu) == fu and compose_id(ss, p) != p:
            return (
                f"f∘u = {render_morphism(by_id[fu])} factors through {render_morphism(s)} "
                f"but {render_morphism(by_id[p])} does not"
            )
    return None


def square_for_inverse_image(cat: FiniteCategory, f: Morphism, v: Morphism, u: Morphism) -> CommutingSquare:
    """The square with left leg u, bottom f, right v, and top edge v*∘f∘u."""
    fi, vi, ui = cat.intern(f), cat.intern(v), cat.intern(u)
    compose_id = cat.compose_id
    vstar = cat.involve_id(vi)
    fu = compose_id(fi, ui)
    top = compose_id(vstar, fu)
    square = CommutingSquare(top=cat.morphisms_by_id[top], left=u, right=v, bottom=f)
    if fu != compose_id(vi, top):
        raise NonCommutingSquareError(_not_through_v(f, u, v))
    return square


def _not_through_v(f: Morphism, u: Morphism, v: Morphism) -> str:
    """What a square of inverse_image_of that does not commute prints."""
    return (
        f"f∘u ≠ v∘(v*∘f∘u) for f = {render_morphism(f)}, u = {render_morphism(u)}, "
        f"v = {render_morphism(v)}: f∘u does not factor through v's subobject"
    )


# ---- law shapes: point, bound and saturation laws, mono/epi dual pairs -----

# the named projections of f other than 0 and 1
_NAMED = {
    "f∘f*": lambda cat, f, enum: cat.compose(f, cat.involve(f)),
    "f*∘f": lambda cat, f, enum: cat.compose(cat.involve(f), f),
    "f′": lambda cat, f, enum: annihilator(cat, f, enum),
    "f″": lambda cat, f, enum: annihilator(cat, annihilator(cat, f, enum), enum),
    "(f*)′": lambda cat, f, enum: annihilator(cat, cat.involve(f), enum),
}


def _named(enum: Enumeration, name: str, f: Morphism, a) -> int:
    """The id of the projection called `name` for f; 0 and 1 are those on a."""
    cat = enum.cat
    if name == "0":
        return cat.zero_id(a, a)
    if name == "1":
        return cat.identity_id(a)
    return cat.intern(_NAMED[name](cat, f, enum))


def _holds(compose_id, x: int, relation: str, y: int) -> bool:
    """x ≤ y or x ≥ y between projection ids, p ≤ q meaning p∘q = p."""
    low, high = (x, y) if relation == "≤" else (y, x)
    return compose_id(low, high) == low


def _sends(enum: Enumeration, kind: TransferKind, f: Morphism, at: str, want: str) -> bool:
    """Whether kind(f) sends the projection named `at` to the one named `want`."""
    at_id = _named(enum, at, f, _source(kind, f))
    want_id = _named(enum, want, f, _target(kind, f))
    return _row(enum, kind, enum.cat.intern(f))[at_id] == want_id


def _point_clause(enum: Enumeration, kind: TransferKind, name: str, anchor: str, *laws) -> Clause:
    """kind(f)(at) = want for each (at, want) pair of names, in turn."""

    def point(f: Morphism):
        for at, want in laws:
            if not _sends(enum, kind, f, at, want):
                return f"{kind.value}(f)({at}) ≠ {want} for f = {render_morphism(f)}"
        return None

    return run_clause(f"{_KIND_NAMES[kind][0]}.{name}", anchor, enum.morphisms(), point)


def _equivalence_clause(enum: Enumeration, clause_id: str, anchor: str, prime: tuple, double: tuple) -> Clause:
    """P′(f) satisfies the point law `prime` exactly when P″(f) satisfies `double`."""

    def equivalent(f: Morphism):
        prime_holds = _sends(enum, TransferKind.INVERSE_IMAGE, f, *prime)
        double_holds = _sends(enum, TransferKind.STRICT_PREIMAGE, f, *double)
        if prime_holds != double_holds:
            return (
                f"P'(f)({prime[0]}) = {prime[1]} is {prime_holds} but "
                f"P''(f)({double[0]}) = {double[1]} is {double_holds} for f = {render_morphism(f)}"
            )
        return None

    return run_clause(clause_id, anchor, enum.morphisms(), equivalent)


def _bound_clause(enum: Enumeration, kind: TransferKind, name: str, anchor: str, relation: str, bound: str) -> Clause:
    """kind(f)(p) ≤ bound, or ≥ bound, for every p in the source lattice."""
    compose_id, v = enum.cat.compose_id, _variable(kind)

    def bounded(f: Morphism):
        b = _named(enum, bound, f, _target(kind, f))
        row, source = _row_and_source(enum, kind, f)
        for p, pi in source:
            if not _holds(compose_id, row[pi], relation, b):
                return (
                    f"{kind.value}(f)({v}) {'≰' if relation == '≤' else '≱'} {bound} for "
                    f"f = {render_morphism(f)}, {v} = {render_morphism(p)}"
                )
        return None

    return run_clause(f"{_KIND_NAMES[kind][0]}.{name}", anchor, enum.morphisms(), bounded)


def _saturation_clause(
    enum: Enumeration, kind: TransferKind, name: str, anchor: str, relation: str, guard: str, value: str
) -> Clause:
    """kind(f)(p) = value for every p ≥ guard, or every p ≤ guard."""
    compose_id, v = enum.cat.compose_id, _variable(kind)

    def saturated(f: Morphism):
        g = _named(enum, guard, f, _source(kind, f))
        want = _named(enum, value, f, _target(kind, f))
        row, source = _row_and_source(enum, kind, f)
        for p, pi in source:
            if _holds(compose_id, pi, relation, g) and row[pi] != want:
                return (
                    f"{v} {relation} {guard} but {kind.value}(f)({v}) ≠ {value} for "
                    f"f = {render_morphism(f)}, {v} = {render_morphism(p)}"
                )
        return None

    return run_clause(f"{_KIND_NAMES[kind][0]}.{name}", anchor, enum.morphisms(), saturated)


# the tests of the mono/epi dual pairs, by the word the clause id and text print
_MORPHISM_TESTS = {"mono": is_mono, "epi": is_epi}
_MAP_TESTS = {"injective": TransferMap.is_injective, "surjective": TransferMap.is_surjective}


def _maybe(holds: bool, word: str) -> str:
    return word if holds else f"not {word}"


def _preserves_clause(enum: Enumeration, side: str, property: str) -> Clause:
    """P(f) is `property` whenever f is `side`."""
    cat, is_side, has = enum.cat, _MORPHISM_TESTS[side], _MAP_TESTS[property]

    def preserves(f: Morphism):
        if is_side(cat, f) and not has(transfer_table(cat, TransferKind.IMAGE, f, enum)):
            return f"f = {render_morphism(f)} is {side} but its image map is not {property}"
        return None

    return run_clause(f"image.preserves-{side}", "2.2.i", enum.morphisms(), preserves)


def _iff_clause(enum: Enumeration, kind: TransferKind, anchor: str, property: str, side: str) -> Clause:
    """kind(f) is `property` exactly when f is `side`."""
    cat = enum.cat
    prefix, _, noun = _KIND_NAMES[kind]

    def iff(f: Morphism):
        holds, f_is = _MAP_TESTS[property](transfer_table(cat, kind, f, enum)), _MORPHISM_TESTS[side](cat, f)
        if holds != f_is:
            return (
                f"{noun} map of f = {render_morphism(f)} is {_maybe(holds, property)} "
                f"but f is {_maybe(f_is, side)}"
            )
        return None

    return run_clause(f"{prefix}.{property}-iff-{side}", anchor, enum.morphisms(), iff)


def _match_clause(enum: Enumeration, kind: TransferKind, anchor: str, side: str) -> Clause:
    """kind(f) = K(f*), K the other of P and P′, exactly when f is `side`."""
    cat = enum.cat
    other = TransferKind.IMAGE if kind is TransferKind.INVERSE_IMAGE else TransferKind.INVERSE_IMAGE

    def match(f: Morphism):
        values = transfer_table(cat, kind, f, enum).values
        same = values == transfer_table(cat, other, cat.involve(f), enum).values
        f_is = _MORPHISM_TESTS[side](cat, f)
        if same != f_is:
            return (
                f"{kind.value}(f) {'=' if same else '≠'} {other.value}(f*) but f is "
                f"{_maybe(f_is, side)} for f = {render_morphism(f)}"
            )
        return None

    return run_clause(f"connection.{side}-match", anchor, enum.morphisms(), match)


# ---- law suites ------------------------------------------------------------


def _certified_clause(enum: Enumeration, kind: TransferKind, name: str, anchor: str) -> Clause:
    """Each (f, s), s a mono into the source of kind(f), visiting f outermost,
    has the certified image (kind P) or inverse image (kind P′) of s."""
    variable = "u" if kind is TransferKind.IMAGE else "v"

    def certified(case):
        f, s = case
        try:
            _certified(enum.cat, kind, f, s, enum)
        except (TransferCertificationError, NoFactorizationError, NotBaerStarError) as err:
            return f"f = {render_morphism(f)}, {variable} = {render_morphism(s)}: {err}"
        return None

    cases = ((f, s) for f in enum.morphisms() for s in enum.cached(_monos_into, _source(kind, f)))
    return run_clause(f"{_KIND_NAMES[kind][0]}.{name}", anchor, cases, certified)


def image_smallest_subobject_clauses(enum: Enumeration) -> list[Clause]:
    return [_certified_clause(enum, TransferKind.IMAGE, "smallest-subobject", "2.1")]


def image_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    return [
        _preserves_clause(enum, "mono", "injective"),
        _preserves_clause(enum, "epi", "surjective"),
        _point_clause(enum, TransferKind.IMAGE, "bottom-top", "2.2.ii", ("0", "0"), ("1", "f∘f*")),
        _point_clause(enum, TransferKind.IMAGE, "domain-projection", "2.2.iii", ("f*∘f", "f∘f*")),
    ]


def _semilattice_map_clauses(enum: Enumeration, kind: TransferKind, anchors: tuple[str, str]) -> list[Clause]:
    """The two lattice-map laws every transfer map satisfies: meets are
    preserved, hence so is the order."""
    prefix = _KIND_NAMES[kind][0]
    cat = enum.cat
    compose_id = cat.compose_id

    def meets(f: Morphism):
        row, source = _row_and_source(enum, kind, f)
        for i, ii in source:
            fi = row[ii]
            for j, ji in source:
                if row[compose_id(ii, ji)] != compose_id(fi, row[ji]):
                    return (
                        f"meet not preserved by {kind.value}(f) for f = {render_morphism(f)}, "
                        f"i = {render_morphism(i)}, j = {render_morphism(j)}"
                    )
        return None

    def order(f: Morphism):
        row, source = _row_and_source(enum, kind, f)
        for i, ii in source:
            for j, ji in source:
                if compose_id(ii, ji) != ii:
                    continue
                fi, fj = row[ii], row[ji]
                if compose_id(fi, fj) != fi:
                    return (
                        f"i ≤ j but {kind.value}(f)(i) ≰ {kind.value}(f)(j) for "
                        f"f = {render_morphism(f)}, i = {render_morphism(i)}, j = {render_morphism(j)}"
                    )
        return None

    return [
        run_clause(f"{prefix}.meet-homomorphism", anchors[0], enum.morphisms(), meets),
        run_clause(f"{prefix}.order-preserving", anchors[1], enum.morphisms(), order),
    ]


def image_order_clauses(enum: Enumeration) -> list[Clause]:
    return [
        *_semilattice_map_clauses(enum, TransferKind.IMAGE, ("2.3.i", "2.3.ii")),
        _bound_clause(enum, TransferKind.IMAGE, "bounded-by-image", "2.3.iii", "≤", "f∘f*"),
        _saturation_clause(enum, TransferKind.IMAGE, "saturation", "2.3.iv", "≥", "f*∘f", "f∘f*"),
    ]


def inverse_image_pullback_clauses(enum: Enumeration) -> list[Clause]:
    return [_certified_clause(enum, TransferKind.INVERSE_IMAGE, "pullback", "3.1")]


def inverse_image_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    return [
        _iff_clause(enum, TransferKind.INVERSE_IMAGE, "3.3.i", "injective", "epi"),
        _iff_clause(enum, TransferKind.INVERSE_IMAGE, "3.3.i", "surjective", "mono"),
        _point_clause(enum, TransferKind.INVERSE_IMAGE, "bottom-top", "3.3.ii", ("0", "f′"), ("1", "1")),
        _point_clause(enum, TransferKind.INVERSE_IMAGE, "image-to-top", "3.3.iii", ("f∘f*", "1")),
    ]


def inverse_image_order_clauses(enum: Enumeration) -> list[Clause]:
    return [
        *_semilattice_map_clauses(enum, TransferKind.INVERSE_IMAGE, ("3.4.i", "3.4.ii")),
        _bound_clause(enum, TransferKind.INVERSE_IMAGE, "bounded-below", "3.4.iii", "≥", "f′"),
        _saturation_clause(enum, TransferKind.INVERSE_IMAGE, "saturation-to-top", "3.4.iv", "≥", "f∘f*", "1"),
    ]


def connection_mono_epi_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def triple_identities(f: Morphism):
        fid = cat.intern(f)
        image, prime = _row(enum, TransferKind.IMAGE, fid), _row(enum, TransferKind.INVERSE_IMAGE, fid)
        source, target = lattice_on(enum, f.dom), lattice_on(enum, f.cod)
        for i, ii in zip(source.elements, source.ids):
            fi = image[ii]
            if image[prime[fi]] != fi:
                return f"P(f)P'(f)P(f) ≠ P(f) at i = {render_morphism(i)} for f = {render_morphism(f)}"
        for j, ji in zip(target.elements, target.ids):
            fj = prime[ji]
            if prime[image[fj]] != fj:
                return f"P'(f)P(f)P'(f) ≠ P'(f) at j = {render_morphism(j)} for f = {render_morphism(f)}"
        return None

    return [
        _match_clause(enum, TransferKind.INVERSE_IMAGE, "3.5.i", "mono"),
        _match_clause(enum, TransferKind.IMAGE, "3.5.ii", "epi"),
        run_clause("connection.triple-identities", "3.5.iii", enum.morphisms(), triple_identities),
    ]


def preimage_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    return [
        _iff_clause(enum, TransferKind.STRICT_PREIMAGE, "4.1.i", "injective", "epi"),
        _iff_clause(enum, TransferKind.STRICT_PREIMAGE, "4.1.i", "surjective", "mono"),
        _point_clause(enum, TransferKind.STRICT_PREIMAGE, "bottom-top", "4.1.ii", ("0", "0"), ("1", "f″")),
        _point_clause(enum, TransferKind.STRICT_PREIMAGE, "coannihilator-to-bottom", "4.1.iii", ("(f*)′", "0")),
    ]


def preimage_order_clauses(enum: Enumeration) -> list[Clause]:
    return [
        *_semilattice_map_clauses(enum, TransferKind.STRICT_PREIMAGE, ("4.2.v", "4.2.vi")),
        _bound_clause(enum, TransferKind.STRICT_PREIMAGE, "bounded-above", "4.2.vii", "≤", "f″"),
        _saturation_clause(enum, TransferKind.STRICT_PREIMAGE, "annihilated-below", "4.2.viii", "≤", "(f*)′", "0"),
    ]


def connection_complement_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def complement_identity(f: Morphism):
        prime = _row(enum, TransferKind.INVERSE_IMAGE, cat.intern(f))
        double, source = _row_and_source(enum, TransferKind.STRICT_PREIMAGE, f)
        for j, ji in source:
            j_ann = annihilator(cat, j, enum)
            via = annihilator(cat, cat.morphisms_by_id[prime[cat.intern(j_ann)]], enum)
            if double[ji] != cat.intern(via):
                return (
                    f"P''(f)(j) ≠ (P'(f)(j′))′ for f = {render_morphism(f)}, "
                    f"j = {render_morphism(j)}"
                )
        return None

    def equivalence_mono_epi(f: Morphism):
        prime = transfer_table(cat, TransferKind.INVERSE_IMAGE, f, enum)
        double = transfer_table(cat, TransferKind.STRICT_PREIMAGE, f, enum)
        if prime.is_injective() != double.is_injective():
            return f"P'(f) and P''(f) disagree on injectivity for f = {render_morphism(f)}"
        if prime.is_surjective() != double.is_surjective():
            return f"P'(f) and P''(f) disagree on surjectivity for f = {render_morphism(f)}"
        return None

    return [
        run_clause("connection.complement-identity", "4", enum.morphisms(), complement_identity),
        run_clause("connection.equivalence-mono-epi", "4.i", enum.morphisms(), equivalence_mono_epi),
        _equivalence_clause(enum, "connection.equivalence-units", "4.ii", ("1", "1"), ("0", "0")),
        _equivalence_clause(enum, "connection.equivalence-annihilators", "4.iii", ("0", "f′"), ("1", "f″")),
    ]


# ---- functoriality ---------------------------------------------------------


def functoriality_clauses_for(kind: TransferKind):
    name, anchor, _ = _KIND_NAMES[kind]
    # P is covariant, P(f∘g) = P(f)∘P(g) on P(dom g); P′ and P″ are
    # contravariant, K(f∘g) = K(g)∘K(f) on P(cod f)
    covariant = kind is TransferKind.IMAGE
    outer, inner = ("f", "g") if covariant else ("g", "f")
    law = f"{kind.value}(f∘g) ≠ {kind.value}({outer})∘{kind.value}({inner}) at {_variable(kind)}"

    def source(f, g):
        return g.dom if covariant else f.cod

    def group(enum: Enumeration) -> list[Clause]:
        cat = enum.cat
        compose_ids, morphisms_by_id = cat.compose_ids, cat.morphisms_by_id
        row_of = Memo(partial(_row, enum, kind))  # id → row of kind(id), looked up once per clause

        def sides(fi, gids):
            """kind(f∘g)(p) and the composite of kind(f) and kind(g) at p, for
            g over gids and p over the source lattice, each pair's entries
            asked p by p as the law reads them."""
            at_f, fgs = row_of[fi], compose_ids(fi, gids)
            ps = lattice_on(enum, source(morphisms_by_id[fi], morphisms_by_id[gids[0]])).ids
            at_g = map(row_of.__getitem__, gids)
            firsts, thens = (at_g, repeat(at_f)) if covariant else (repeat(at_f), at_g)
            lefts = chain.from_iterable(map(row_of[fg].__getitem__, ps) for fg in fgs)
            rights = chain.from_iterable(
                map(then.__getitem__, map(first.__getitem__, ps)) for first, then in zip(firsts, thens)
            )
            return lefts, rights

        def word(f, g, e):
            p = lattice_on(enum, source(f, g)).elements[e]
            return f"{law} = {render_morphism(p)} for f = {render_morphism(f)}, g = {render_morphism(g)}"

        def identity_law(a):
            row, lattice = _row(enum, kind, cat.identity_id(a)), lattice_on(enum, a)
            for p, pi in zip(lattice.elements, lattice.ids):
                if row[pi] != pi:
                    return f"{kind.value}(id) moves {render_morphism(p)} on {render_object(a)}"
            return None

        return [
            run_clause(f"functor.{name}.identity", anchor, cat.objects, identity_law),
            run_clause(f"functor.{name}.composition", anchor, enum.pair_blocks(sides, word), None),
        ]

    return group


def check_functoriality(cat: FiniteCategory, kind: TransferKind | None = None, budget: Budget | None = None) -> VerificationReport:
    """Identity and composition laws for one transfer map, or all three."""
    kinds = [kind] if kind is not None else list(TransferKind)
    return build_report(
        "functoriality", cat, [functoriality_clauses_for(k) for k in kinds], budget
    )


# ---- suite registry --------------------------------------------------------

SUITES: dict[str, tuple] = {
    "2.1": (image_smallest_subobject_clauses,),
    "2.2": (image_lattice_map_clauses,),
    "2.3": (image_order_clauses,),
    "3.1": (inverse_image_pullback_clauses,),
    "3.3": (inverse_image_lattice_map_clauses,),
    "3.4": (inverse_image_order_clauses,),
    "3.5": (connection_mono_epi_clauses,),
    "4.1": (preimage_lattice_map_clauses,),
    "4.2": (preimage_order_clauses,),
    "connection": (connection_complement_clauses,),
    "functoriality": tuple(functoriality_clauses_for(k) for k in TransferKind),
}
SUITES["all"] = tuple(g for groups in SUITES.values() for g in groups)


def theorem_suite(cat: FiniteCategory, suite_id: str, budget: Budget | None = None) -> VerificationReport:
    if suite_id not in SUITES:
        raise KeyError(f"unknown suite {suite_id!r}; choose from {sorted(SUITES)}")
    return build_report(f"theorems-{suite_id}", cat, SUITES[suite_id], budget)


# ---- closed form vs definitional agreement ---------------------------------


def closed_form_clauses(enum: Enumeration) -> list[Clause]:
    """The subset-arithmetic fast paths for partial bijections, re-derived the
    slow way: annihilators from their defining property by enumeration,
    transfers from their definitions, never from a row."""
    cat = enum.cat
    if not isinstance(cat, PBijCategory):
        raise InvcatError("closed-form agreement checks only make sense for partial bijections")

    def ann_agree(f: Morphism):
        fast = annihilator_pbij(f)
        slow = annihilator(cat, f, enum)
        if fast != slow:
            return (
                f"closed-form annihilator {render_morphism(fast)} differs from "
                f"searched {render_morphism(slow)} for f = {render_morphism(f)}"
            )
        return None

    def transfer_agree(kind: TransferKind):
        name, anchor, noun = _KIND_NAMES[kind]

        def agree(f: Morphism):
            for p in lattice_on(enum, _source(kind, f)).elements:
                labels = SUBSET_FORMS[kind](f, projection_labels(p))
                fast = partial_identity(_target(kind, f), labels)
                # the definition, not the row, so that agreement means something
                if fast != _by_definition(cat, kind, f, p, enum):
                    return (
                        f"{noun} transfer mismatch at {_variable(kind)} = {render_morphism(p)}, "
                        f"f = {render_morphism(f)}"
                    )
            return None

        return run_clause(f"fastpath.{name}", anchor, enum.morphisms(), agree)

    return [
        run_clause("fastpath.annihilator", "1", enum.morphisms(), ann_agree),
        *(transfer_agree(kind) for kind in TransferKind),
    ]


def check_closed_forms(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    return build_report("closed-forms", cat, [closed_form_clauses], budget)
