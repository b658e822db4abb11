"""Transfer maps between projection lattices.

For f: A → B three maps are realized as explicit finite tables:

  image           P(f)(i)  = f∘i∘f*        covariant,     P(A) → P(B)
  inverse image   P'(f)(j) = (j′∘f)′       contravariant, P(B) → P(A)
  strict preimage P''(f)(j) = (j∘f)″       contravariant, P(B) → P(A)

plus the suites checking the law catalog for them: smallest-subobject and
pullback characterizations, lattice-map properties, the mono/epi
biconditionals, the complement identity tying P'' to P', and functoriality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import (
    Budget,
    Enumeration,
    FiniteCategory,
    InvcatError,
    Morphism,
    ObjectMismatchError,
    Projection,
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
    preimage_subset,
    projection_labels,
    subset_projection,
)
from .projections import (
    NotBaerStarError,
    ProjectionLattice,
    annihilator,
    annihilator_by_search,
    bottom,
    lattice_on,
    top,
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


def apply_P(cat: FiniteCategory, f: Morphism, i: Projection) -> Projection:
    if i.obj != f.dom:
        raise ObjectMismatchError(
            f"projection lives on {render_object(i.obj)}, not on dom(f) = {render_object(f.dom)}"
        )
    return Projection(f.cod, transfer(cat, f, i.morphism))


def apply_Pprime(cat: FiniteCategory, f: Morphism, j: Projection, enum: Enumeration | None = None) -> Projection:
    if j.obj != f.cod:
        raise ObjectMismatchError(
            f"projection lives on {render_object(j.obj)}, not on cod(f) = {render_object(f.cod)}"
        )
    enum = enum if enum is not None else Enumeration(cat)
    j_ann = annihilator(cat, j.morphism, enum)
    return annihilator(cat, cat.compose(j_ann.morphism, f), enum)


def apply_Pdoubleprime(cat: FiniteCategory, f: Morphism, j: Projection, enum: Enumeration | None = None) -> Projection:
    if j.obj != f.cod:
        raise ObjectMismatchError(
            f"projection lives on {render_object(j.obj)}, not on cod(f) = {render_object(f.cod)}"
        )
    enum = enum if enum is not None else Enumeration(cat)
    once = annihilator(cat, cat.compose(j.morphism, f), enum)
    return annihilator(cat, once.morphism, enum)


class _TransferRow(dict):
    """kind(f) on morphism ids, the one store of transfer values: the id of
    a projection p maps to the id of kind(f)(p).  A projection's id is its
    morphism's id, since p.obj is dom(p.morphism).  A missing entry is
    filled once, by the one dispatch over P, P′ and P″; an entry whose
    computation raises is not stored."""

    __slots__ = ("kind", "f", "enum")

    def __init__(self, kind: TransferKind, f: Morphism, enum: Enumeration):
        super().__init__()
        self.kind, self.f, self.enum = kind, f, enum

    def __missing__(self, p: int) -> int:
        cat = self.enum.cat
        m = cat.morphisms_by_id[p]
        j = Projection(m.dom, m)
        if self.kind is TransferKind.IMAGE:
            moved = apply_P(cat, self.f, j)
        elif self.kind is TransferKind.INVERSE_IMAGE:
            moved = apply_Pprime(cat, self.f, j, self.enum)
        else:
            moved = apply_Pdoubleprime(cat, self.f, j, self.enum)
        q = self[p] = cat.intern(moved.morphism)
        return q


def _transfer_row(cat: FiniteCategory, key, enum: Enumeration) -> _TransferRow:
    kind, f = key
    return _TransferRow(kind, cat.morphisms_by_id[f], enum)


def _row(enum: Enumeration, kind: TransferKind, f: int) -> _TransferRow:
    """The row of kind(f), for the morphism with id f, kept once per run."""
    return enum.cached(_transfer_row, (kind, f))


def _apply(cat: FiniteCategory, kind: TransferKind, f: Morphism, p: Projection, enum: Enumeration) -> Projection:
    """kind(f)(p) as a Projection, read from the row of kind(f)."""
    m = cat.morphisms_by_id[_row(enum, kind, cat.intern(f))[cat.intern(p.morphism)]]
    return Projection(m.dom, m)


def _projection_ids(cat: FiniteCategory, a, enum: Enumeration) -> tuple:
    """(p, id of p) for every p in P(a), in lattice order."""
    return tuple((p, cat.intern(p.morphism)) for p in lattice_on(enum, a).elements)


def _source(kind: TransferKind, f: Morphism):
    """dom f for the covariant P, cod f for the contravariant P′ and P″."""
    return f.dom if kind is TransferKind.IMAGE else f.cod


def _target(kind: TransferKind, f: Morphism):
    return f.cod if kind is TransferKind.IMAGE else f.dom


def _row_and_source(enum: Enumeration, kind: TransferKind, f: Morphism) -> tuple:
    """The row of kind(f) and (p, id of p) for its source lattice."""
    return _row(enum, kind, enum.cat.intern(f)), enum.cached(_projection_ids, _source(kind, f))


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

    def apply(self, p: Projection) -> Projection:
        m = self.cat.morphisms_by_id[self.values[self.source.elements.index(p)]]
        return Projection(m.dom, m)

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    def is_surjective(self) -> bool:
        return set(self.values) >= {self.cat.intern(p.morphism) for p in self.target.elements}


def transfer_table(cat: FiniteCategory, kind: TransferKind, f: Morphism, enum: Enumeration | None = None) -> TransferMap:
    enum = enum if enum is not None else Enumeration(cat)
    source = lattice_on(enum, _source(kind, f))
    target = lattice_on(enum, _target(kind, f))
    row, source_ids = _row_and_source(enum, kind, f)
    return TransferMap(kind, f, source, target, tuple(row[i] for _, i in source_ids), cat)


# ---- subobject transfer ----------------------------------------------------


def _monos_into(cat: FiniteCategory, b, enum: Enumeration) -> tuple[Morphism, ...]:
    return tuple(s for s in enum.morphisms_into(b) if is_mono(cat, s))


def _mono_projections(cat: FiniteCategory, b, enum: Enumeration) -> tuple[int, ...]:
    """The id of s∘s* for every enumerated mono s into b, in _monos_into order."""
    return tuple(
        cat.compose_id(cat.intern(s), cat.intern(cat.involve(s))) for s in enum.cached(_monos_into, b)
    )


def image_of(cat: FiniteCategory, f: Morphism, u: Morphism, certify: bool = True, enum: Enumeration | None = None) -> Morphism:
    """The image of f∘u: the mono part p of the factorization of the
    transferred projection P(f)(u∘u*) = p∘p*.

    With `certify`, p is checked to be the smallest subobject of cod(f)
    through which f∘u factors, by scanning every enumerated mono.
    """
    enum = enum if enum is not None else Enumeration(cat)
    if u.cod != f.dom:
        raise ShapeMismatchError(f"{render_morphism(u)} does not land in dom(f)")
    if not is_mono(cat, u):
        raise NotMonoError(f"{render_morphism(u)} is not a monomorphism")
    uu = Projection(f.dom, cat.compose(u, cat.involve(u)))
    moved = _apply(cat, TransferKind.IMAGE, f, uu, enum)
    p = mono_epi_factorize(cat, moved.morphism, enum).p
    if certify:
        witness = smallest_subobject_witness(cat, f, u, p, enum)
        if witness is not None:
            raise TransferCertificationError(witness)
    return p


def smallest_subobject_witness(cat: FiniteCategory, f: Morphism, u: Morphism, p: Morphism, enum: Enumeration | None = None) -> str | None:
    """None when f∘u factors through p and p factors through every
    enumerated mono that f∘u factors through."""
    enum = enum if enum is not None else Enumeration(cat)
    fu = cat.compose(f, u)
    pp = cat.compose(p, cat.involve(p))
    if cat.compose(pp, fu) != fu:
        return f"f∘u = {render_morphism(fu)} does not factor through {render_morphism(p)}"
    fu_id, p_id, compose_id = cat.intern(fu), cat.intern(p), cat.compose_id
    for s, ss in zip(enum.cached(_monos_into, f.cod), enum.cached(_mono_projections, f.cod)):
        if compose_id(ss, fu_id) == fu_id and compose_id(ss, p_id) != p_id:
            return (
                f"f∘u = {render_morphism(fu)} factors through {render_morphism(s)} "
                f"but {render_morphism(p)} does not"
            )
    return None


def inverse_image_of(cat: FiniteCategory, f: Morphism, v: Morphism, certify: bool = True, enum: Enumeration | None = None) -> Morphism:
    """The mono u with u∘u* = P'(f)(v∘v*), certified (when asked) by the
    pullback property of the square assembled in square_for_inverse_image."""
    enum = enum if enum is not None else Enumeration(cat)
    if v.cod != f.cod:
        raise ShapeMismatchError(f"{render_morphism(v)} does not land in cod(f)")
    if not is_mono(cat, v):
        raise NotMonoError(f"{render_morphism(v)} is not a monomorphism")
    vv = Projection(f.cod, cat.compose(v, cat.involve(v)))
    moved = _apply(cat, TransferKind.INVERSE_IMAGE, f, vv, enum)
    u = mono_epi_factorize(cat, moved.morphism, enum).p
    if certify:
        try:
            witness = pullback_witness(cat, square_for_inverse_image(cat, f, v, u), enum)
        except NonCommutingSquareError as err:
            witness = str(err)
        if witness is not None:
            raise TransferCertificationError(witness)
    return u


def square_for_inverse_image(cat: FiniteCategory, f: Morphism, v: Morphism, u: Morphism | None = None, enum: Enumeration | None = None) -> CommutingSquare:
    """The square with left leg u, bottom f, right v, and top edge v*∘f∘u."""
    if u is None:
        u = inverse_image_of(cat, f, v, certify=False, enum=enum)
    top_edge = cat.compose(cat.involve(v), cat.compose(f, u))
    square = CommutingSquare(top=top_edge, left=u, right=v, bottom=f)
    if cat.compose(square.bottom, square.left) != cat.compose(square.right, square.top):
        raise NonCommutingSquareError(
            f"f∘u ≠ v∘(v*∘f∘u) for f = {render_morphism(f)}, u = {render_morphism(u)}, "
            f"v = {render_morphism(v)}: f∘u does not factor through v's subobject"
        )
    return square


# ---- law suites ------------------------------------------------------------


def _mono_pairs(enum: Enumeration, into_dom: bool):
    """(f, mono) pairs: monos into dom(f) when into_dom, else into cod(f)."""
    for f in enum.morphisms():
        for s in enum.cached(_monos_into, f.dom if into_dom else f.cod):
            yield f, s


def image_smallest_subobject_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def smallest(case):
        f, u = case
        try:
            image_of(cat, f, u, certify=True, enum=enum)
        except (TransferCertificationError, NoFactorizationError) as err:
            return f"f = {render_morphism(f)}, u = {render_morphism(u)}: {err}"
        return None

    return [run_clause("image.smallest-subobject", "2.1", _mono_pairs(enum, into_dom=True), smallest)]


def image_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def preserves_mono(f: Morphism):
        if is_mono(cat, f) and not transfer_table(cat, TransferKind.IMAGE, f, enum).is_injective():
            return f"f = {render_morphism(f)} is mono but its image map is not injective"
        return None

    def preserves_epi(f: Morphism):
        if is_epi(cat, f) and not transfer_table(cat, TransferKind.IMAGE, f, enum).is_surjective():
            return f"f = {render_morphism(f)} is epi but its image map is not surjective"
        return None

    def bottom_top(f: Morphism):
        if _apply(cat, TransferKind.IMAGE, f, bottom(cat, f.dom), enum) != bottom(cat, f.cod):
            return f"P(f)(0) ≠ 0 for f = {render_morphism(f)}"
        ff = cat.compose(f, cat.involve(f))
        if _apply(cat, TransferKind.IMAGE, f, top(cat, f.dom), enum) != Projection(f.cod, ff):
            return f"P(f)(1) ≠ f∘f* for f = {render_morphism(f)}"
        return None

    def domain_projection(f: Morphism):
        dom_proj = Projection(f.dom, cat.compose(cat.involve(f), f))
        moved = _apply(cat, TransferKind.IMAGE, f, dom_proj, enum)
        if moved != Projection(f.cod, cat.compose(f, cat.involve(f))):
            return f"P(f)(f*∘f) ≠ f∘f* for f = {render_morphism(f)}"
        return None

    return [
        run_clause("image.preserves-mono", "2.2.i", enum.morphisms(), preserves_mono),
        run_clause("image.preserves-epi", "2.2.i", enum.morphisms(), preserves_epi),
        run_clause("image.bottom-top", "2.2.ii", enum.morphisms(), bottom_top),
        run_clause("image.domain-projection", "2.2.iii", enum.morphisms(), domain_projection),
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
                        f"i = {render_morphism(i.morphism)}, j = {render_morphism(j.morphism)}"
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
                        f"f = {render_morphism(f)}, i = {render_morphism(i.morphism)}, "
                        f"j = {render_morphism(j.morphism)}"
                    )
        return None

    return [
        run_clause(f"{prefix}.meet-homomorphism", anchors[0], enum.morphisms(), meets),
        run_clause(f"{prefix}.order-preserving", anchors[1], enum.morphisms(), order),
    ]


def image_order_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat
    compose_id = cat.compose_id
    clauses = _semilattice_map_clauses(enum, TransferKind.IMAGE, ("2.3.i", "2.3.ii"))

    def bounded(f: Morphism):
        ff = cat.intern(cat.compose(f, cat.involve(f)))
        row, source = _row_and_source(enum, TransferKind.IMAGE, f)
        for i, ii in source:
            moved = row[ii]
            if compose_id(moved, ff) != moved:
                return f"P(f)(i) ≰ f∘f* for f = {render_morphism(f)}, i = {render_morphism(i.morphism)}"
        return None

    def saturation(f: Morphism):
        dom_proj = cat.intern(cat.compose(cat.involve(f), f))
        ff = cat.intern(cat.compose(f, cat.involve(f)))
        row, source = _row_and_source(enum, TransferKind.IMAGE, f)
        for i, ii in source:
            if compose_id(dom_proj, ii) != dom_proj:
                continue
            if row[ii] != ff:
                return (
                    f"i ≥ f*∘f but P(f)(i) ≠ f∘f* for f = {render_morphism(f)}, "
                    f"i = {render_morphism(i.morphism)}"
                )
        return None

    clauses.append(run_clause("image.bounded-by-image", "2.3.iii", enum.morphisms(), bounded))
    clauses.append(run_clause("image.saturation", "2.3.iv", enum.morphisms(), saturation))
    return clauses


def inverse_image_pullback_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def pullback(case):
        f, v = case
        try:
            inverse_image_of(cat, f, v, certify=True, enum=enum)
        except (TransferCertificationError, NoFactorizationError, NotBaerStarError) as err:
            return f"f = {render_morphism(f)}, v = {render_morphism(v)}: {err}"
        return None

    return [run_clause("inverse-image.pullback", "3.1", _mono_pairs(enum, into_dom=False), pullback)]


def _contravariant_mono_epi_clauses(enum: Enumeration, kind: TransferKind, anchor: str) -> list[Clause]:
    """The laws P′ and P″ share: kind(f) is injective iff f is epi, and
    surjective iff f is mono."""
    cat = enum.cat
    prefix, _, noun = _KIND_NAMES[kind]

    def injective_iff_epi(f: Morphism):
        injective, epi = transfer_table(cat, kind, f, enum).is_injective(), is_epi(cat, f)
        if injective != epi:
            return (
                f"{noun} map of f = {render_morphism(f)} is "
                f"{'injective' if injective else 'not injective'} but f is "
                f"{'epi' if epi else 'not epi'}"
            )
        return None

    def surjective_iff_mono(f: Morphism):
        surjective, mono = transfer_table(cat, kind, f, enum).is_surjective(), is_mono(cat, f)
        if surjective != mono:
            return (
                f"{noun} map of f = {render_morphism(f)} is "
                f"{'surjective' if surjective else 'not surjective'} but f is "
                f"{'mono' if mono else 'not mono'}"
            )
        return None

    return [
        run_clause(f"{prefix}.injective-iff-epi", anchor, enum.morphisms(), injective_iff_epi),
        run_clause(f"{prefix}.surjective-iff-mono", anchor, enum.morphisms(), surjective_iff_mono),
    ]


def inverse_image_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat
    clauses = _contravariant_mono_epi_clauses(enum, TransferKind.INVERSE_IMAGE, "3.3.i")

    def bottom_top(f: Morphism):
        ann = annihilator(cat, f, enum)
        if _apply(cat, TransferKind.INVERSE_IMAGE, f, bottom(cat, f.cod), enum) != ann:
            return f"P'(f)(0) ≠ f′ for f = {render_morphism(f)}"
        if _apply(cat, TransferKind.INVERSE_IMAGE, f, top(cat, f.cod), enum) != top(cat, f.dom):
            return f"P'(f)(1) ≠ 1 for f = {render_morphism(f)}"
        return None

    def image_to_top(f: Morphism):
        ff = Projection(f.cod, cat.compose(f, cat.involve(f)))
        if _apply(cat, TransferKind.INVERSE_IMAGE, f, ff, enum) != top(cat, f.dom):
            return f"P'(f)(f∘f*) ≠ 1 for f = {render_morphism(f)}"
        return None

    clauses.append(run_clause("inverse-image.bottom-top", "3.3.ii", enum.morphisms(), bottom_top))
    clauses.append(run_clause("inverse-image.image-to-top", "3.3.iii", enum.morphisms(), image_to_top))
    return clauses


def inverse_image_order_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat
    compose_id = cat.compose_id
    clauses = _semilattice_map_clauses(enum, TransferKind.INVERSE_IMAGE, ("3.4.i", "3.4.ii"))

    def bounded_below(f: Morphism):
        ann = cat.intern(annihilator(cat, f, enum).morphism)
        row, source = _row_and_source(enum, TransferKind.INVERSE_IMAGE, f)
        for j, ji in source:
            moved = row[ji]
            if compose_id(ann, moved) != ann:
                return f"P'(f)(j) ≱ f′ for f = {render_morphism(f)}, j = {render_morphism(j.morphism)}"
        return None

    def saturation_to_top(f: Morphism):
        ff = cat.intern(cat.compose(f, cat.involve(f)))
        one = cat.intern(cat.identity(f.dom))
        row, source = _row_and_source(enum, TransferKind.INVERSE_IMAGE, f)
        for j, ji in source:
            if compose_id(ff, ji) != ff:
                continue
            if row[ji] != one:
                return (
                    f"j ≥ f∘f* but P'(f)(j) ≠ 1 for f = {render_morphism(f)}, "
                    f"j = {render_morphism(j.morphism)}"
                )
        return None

    clauses.append(run_clause("inverse-image.bounded-below", "3.4.iii", enum.morphisms(), bounded_below))
    clauses.append(run_clause("inverse-image.saturation-to-top", "3.4.iv", enum.morphisms(), saturation_to_top))
    return clauses


def connection_mono_epi_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def mono_match(f: Morphism):
        same = (
            transfer_table(cat, TransferKind.INVERSE_IMAGE, f, enum).values
            == transfer_table(cat, TransferKind.IMAGE, cat.involve(f), enum).values
        )
        if same != is_mono(cat, f):
            return (
                f"P'(f) {'=' if same else '≠'} P(f*) but f is "
                f"{'mono' if is_mono(cat, f) else 'not mono'} for f = {render_morphism(f)}"
            )
        return None

    def epi_match(f: Morphism):
        same = (
            transfer_table(cat, TransferKind.IMAGE, f, enum).values
            == transfer_table(cat, TransferKind.INVERSE_IMAGE, cat.involve(f), enum).values
        )
        if same != is_epi(cat, f):
            return (
                f"P(f) {'=' if same else '≠'} P'(f*) but f is "
                f"{'epi' if is_epi(cat, f) else 'not epi'} for f = {render_morphism(f)}"
            )
        return None

    def triple_identities(f: Morphism):
        fid = cat.intern(f)
        image, prime = _row(enum, TransferKind.IMAGE, fid), _row(enum, TransferKind.INVERSE_IMAGE, fid)
        for i, ii in enum.cached(_projection_ids, f.dom):
            fi = image[ii]
            if image[prime[fi]] != fi:
                return f"P(f)P'(f)P(f) ≠ P(f) at i = {render_morphism(i.morphism)} for f = {render_morphism(f)}"
        for j, ji in enum.cached(_projection_ids, f.cod):
            fj = prime[ji]
            if prime[image[fj]] != fj:
                return f"P'(f)P(f)P'(f) ≠ P'(f) at j = {render_morphism(j.morphism)} for f = {render_morphism(f)}"
        return None

    return [
        run_clause("connection.mono-match", "3.5.i", enum.morphisms(), mono_match),
        run_clause("connection.epi-match", "3.5.ii", enum.morphisms(), epi_match),
        run_clause("connection.triple-identities", "3.5.iii", enum.morphisms(), triple_identities),
    ]


def preimage_lattice_map_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat
    clauses = _contravariant_mono_epi_clauses(enum, TransferKind.STRICT_PREIMAGE, "4.1.i")

    def bottom_top(f: Morphism):
        zero = _apply(cat, TransferKind.STRICT_PREIMAGE, f, bottom(cat, f.cod), enum)
        if zero != bottom(cat, f.dom):
            return f"P''(f)(0) ≠ 0 for f = {render_morphism(f)}"
        double = annihilator(cat, annihilator(cat, f, enum).morphism, enum)
        if _apply(cat, TransferKind.STRICT_PREIMAGE, f, top(cat, f.cod), enum) != double:
            return f"P''(f)(1) ≠ f″ for f = {render_morphism(f)}"
        return None

    def coannihilator_to_bottom(f: Morphism):
        co = annihilator(cat, cat.involve(f), enum)
        if _apply(cat, TransferKind.STRICT_PREIMAGE, f, co, enum) != bottom(cat, f.dom):
            return f"P''(f)((f*)′) ≠ 0 for f = {render_morphism(f)}"
        return None

    clauses.append(run_clause("preimage.bottom-top", "4.1.ii", enum.morphisms(), bottom_top))
    clauses.append(
        run_clause("preimage.coannihilator-to-bottom", "4.1.iii", enum.morphisms(), coannihilator_to_bottom)
    )
    return clauses


def preimage_order_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat
    compose_id = cat.compose_id
    clauses = _semilattice_map_clauses(enum, TransferKind.STRICT_PREIMAGE, ("4.2.v", "4.2.vi"))

    def bounded_above(f: Morphism):
        double = cat.intern(annihilator(cat, annihilator(cat, f, enum).morphism, enum).morphism)
        row, source = _row_and_source(enum, TransferKind.STRICT_PREIMAGE, f)
        for j, ji in source:
            moved = row[ji]
            if compose_id(moved, double) != moved:
                return f"P''(f)(j) ≰ f″ for f = {render_morphism(f)}, j = {render_morphism(j.morphism)}"
        return None

    def annihilated_below(f: Morphism):
        co = cat.intern(annihilator(cat, cat.involve(f), enum).morphism)
        zero = cat.zero_id(f.dom, f.dom)
        row, source = _row_and_source(enum, TransferKind.STRICT_PREIMAGE, f)
        for j, ji in source:
            if compose_id(ji, co) != ji:
                continue
            if row[ji] != zero:
                return (
                    f"j ≤ (f*)′ but P''(f)(j) ≠ 0 for f = {render_morphism(f)}, "
                    f"j = {render_morphism(j.morphism)}"
                )
        return None

    clauses.append(run_clause("preimage.bounded-above", "4.2.vii", enum.morphisms(), bounded_above))
    clauses.append(run_clause("preimage.annihilated-below", "4.2.viii", enum.morphisms(), annihilated_below))
    return clauses


def connection_complement_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def complement_identity(f: Morphism):
        prime = _row(enum, TransferKind.INVERSE_IMAGE, cat.intern(f))
        double, source = _row_and_source(enum, TransferKind.STRICT_PREIMAGE, f)
        for j, ji in source:
            j_ann = annihilator(cat, j.morphism, enum).morphism
            via = annihilator(cat, cat.morphisms_by_id[prime[cat.intern(j_ann)]], enum).morphism
            if double[ji] != cat.intern(via):
                return (
                    f"P''(f)(j) ≠ (P'(f)(j′))′ for f = {render_morphism(f)}, "
                    f"j = {render_morphism(j.morphism)}"
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

    def equivalence_units(f: Morphism):
        prime_top = (
            _apply(cat, TransferKind.INVERSE_IMAGE, f, top(cat, f.cod), enum) == top(cat, f.dom)
        )
        double_bottom = (
            _apply(cat, TransferKind.STRICT_PREIMAGE, f, bottom(cat, f.cod), enum)
            == bottom(cat, f.dom)
        )
        if prime_top != double_bottom:
            return (
                f"P'(f)(1) = 1 is {prime_top} but P''(f)(0) = 0 is {double_bottom} "
                f"for f = {render_morphism(f)}"
            )
        return None

    def equivalence_annihilators(f: Morphism):
        ann = annihilator(cat, f, enum)
        prime_side = _apply(cat, TransferKind.INVERSE_IMAGE, f, bottom(cat, f.cod), enum) == ann
        double_side = _apply(cat, TransferKind.STRICT_PREIMAGE, f, top(cat, f.cod), enum) == (
            annihilator(cat, ann.morphism, enum)
        )
        if prime_side != double_side:
            return (
                f"P'(f)(0) = f′ is {prime_side} but P''(f)(1) = f″ is {double_side} "
                f"for f = {render_morphism(f)}"
            )
        return None

    return [
        run_clause("connection.complement-identity", "4", enum.morphisms(), complement_identity),
        run_clause("connection.equivalence-mono-epi", "4.i", enum.morphisms(), equivalence_mono_epi),
        run_clause("connection.equivalence-units", "4.ii", enum.morphisms(), equivalence_units),
        run_clause("connection.equivalence-annihilators", "4.iii", enum.morphisms(), equivalence_annihilators),
    ]


# ---- functoriality ---------------------------------------------------------


def functoriality_clauses_for(kind: TransferKind):
    name, anchor, _ = _KIND_NAMES[kind]
    # P is covariant, P(f∘g) = P(f)∘P(g) on P(dom g); P′ and P″ are
    # contravariant, K(f∘g) = K(g)∘K(f) on P(cod f)
    if kind is TransferKind.IMAGE:
        law = f"{kind.value}(f∘g) ≠ {kind.value}(f)∘{kind.value}(g) at i"
    else:
        law = f"{kind.value}(f∘g) ≠ {kind.value}(g)∘{kind.value}(f) at j"

    def group(enum: Enumeration) -> list[Clause]:
        cat = enum.cat

        def identity_law(a):
            row = _row(enum, kind, cat.intern(cat.identity(a)))
            for p, pi in enum.cached(_projection_ids, a):
                if row[pi] != pi:
                    return (
                        f"{kind.value}(id) moves {render_morphism(p.morphism)} "
                        f"on {render_object(a)}"
                    )
            return None

        def composition_law(pair):
            f, g = pair
            fi, gi = cat.intern(f), cat.intern(g)
            fg = cat.compose_id(fi, gi)
            first, then = (gi, fi) if kind is TransferKind.IMAGE else (fi, gi)
            at_fg, at_first, at_then = (_row(enum, kind, i) for i in (fg, first, then))
            source = _source(kind, cat.morphisms_by_id[fg])
            for p, pi in enum.cached(_projection_ids, source):
                if at_fg[pi] != at_then[at_first[pi]]:
                    return (
                        f"{law} = {render_morphism(p.morphism)} for f = {render_morphism(f)}, "
                        f"g = {render_morphism(g)}"
                    )
            return None

        return [
            run_clause(f"functor.{name}.identity", anchor, cat.objects, identity_law),
            run_clause(f"functor.{name}.composition", anchor, enum.composable_pairs(), composition_law),
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
    transfers from raw composition and search-based annihilators."""
    cat = enum.cat
    if not isinstance(cat, PBijCategory):
        raise InvcatError("closed-form agreement checks only make sense for partial bijections")

    def ann_agree(f: Morphism):
        fast = annihilator_pbij(f)
        slow = annihilator_by_search(cat, f, enum)
        if fast != slow:
            return (
                f"closed-form annihilator {render_morphism(fast.morphism)} differs from "
                f"searched {render_morphism(slow.morphism)} for f = {render_morphism(f)}"
            )
        return None

    def definitional(kind: TransferKind, f: Morphism, p: Projection) -> Projection:
        # the definitions, by composition and search, never through the transfer
        # rows or the _annihilator hook, so that agreement with the fast path means something
        if kind is TransferKind.IMAGE:
            return Projection(f.cod, cat.compose(cat.compose(f, p.morphism), cat.involve(f)))
        if kind is TransferKind.INVERSE_IMAGE:
            p_ann = annihilator_by_search(cat, p.morphism, enum)
            return annihilator_by_search(cat, cat.compose(p_ann.morphism, f), enum)
        once = annihilator_by_search(cat, cat.compose(p.morphism, f), enum)
        return annihilator_by_search(cat, once.morphism, enum)

    def transfer_agree(kind: TransferKind):
        name, anchor, noun = _KIND_NAMES[kind]
        at = "i" if kind is TransferKind.IMAGE else "j"

        def agree(f: Morphism):
            for p in lattice_on(enum, _source(kind, f)).elements:
                labels = SUBSET_FORMS[kind](f, projection_labels(p))
                fast = subset_projection(_target(kind, f), labels)
                if fast != definitional(kind, f, p):
                    return (
                        f"{noun} transfer mismatch at {at} = {render_morphism(p.morphism)}, "
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
