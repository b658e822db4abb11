"""Projection algebra on each object: the meet semilattice P(A), annihilators
f′ (the largest projection killed by f), and the closure operation f″ = (f′)′.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import ne
from typing import Iterator

from .core import (
    Budget,
    Enumeration,
    FiniteCategory,
    InvcatError,
    LatticeError,
    Memo,
    Morphism,
    NotInverseCategoryError,
    ObjectMismatchError,
    build_report,
    is_projection,
    morphism_sort_key,
    render_morphism,
    render_object,
)
from .report import Clause, MissingConstructionError, VerificationReport, run_clause


class NotBaerStarError(InvcatError, MissingConstructionError):
    pass


class AnnihilatorNotFoundError(NotBaerStarError):
    def __init__(self, f: Morphism):
        self.morphism = f
        super().__init__(f"no projection annihilates exactly what {render_morphism(f)} kills")


class AnnihilatorNotUniqueError(NotBaerStarError):
    def __init__(self, f: Morphism, candidates):
        self.morphism = f
        self.candidates = tuple(candidates)
        super().__init__(
            f"{len(self.candidates)} projections all act as the annihilator of {render_morphism(f)}"
        )


def meet(cat: FiniteCategory, i: Morphism, j: Morphism) -> Morphism:
    if i.dom != j.dom:
        raise ObjectMismatchError(
            f"projections live on different objects: {render_object(i.dom)} and {render_object(j.dom)}"
        )
    return cat.compose(i, j)


def leq(cat: FiniteCategory, i: Morphism, j: Morphism) -> bool:
    return meet(cat, i, j) == i


def projections_on(cat: FiniteCategory, a, enum: Enumeration) -> tuple[Morphism, ...]:
    """All projections on `a`: every candidate that is a projection on the
    table under test.  The candidates are the endomorphisms of `a`, and 1
    and 0 on `a`."""
    found = set()
    for m in chain(enum.pool(a, a), (cat.identity(a), cat.zero(a, a))):
        try:
            if m not in found and is_projection(cat, m):
                found.add(m)
        except NotInverseCategoryError:
            continue
    return tuple(sorted(found, key=morphism_sort_key))


@dataclass(frozen=True)
class ProjectionLattice:
    """P(obj): its elements in sort order, with their ids in the category
    they were found in."""

    obj: object
    elements: tuple[Morphism, ...]
    ids: tuple[int, ...]
    top: Morphism
    bottom: Morphism

    def __len__(self) -> int:
        return len(self.elements)


def lattice_on(enum: Enumeration, a) -> ProjectionLattice:
    """P(a) as found by enumeration, derived once per run.  The semilattice
    laws are projection_lattice's business, not verified here."""
    return enum.cached(_lattice, a)


def _lattice(cat: FiniteCategory, a, enum: Enumeration) -> ProjectionLattice:
    elements = projections_on(cat, a, enum)
    return ProjectionLattice(a, elements, tuple(map(cat.intern, elements)), cat.identity(a), cat.zero(a, a))


def projection_cases(enum: Enumeration) -> Iterator[Morphism]:
    """Every projection on every object, for the clauses quantifying over
    them.  Each P(a) is found when first reached, so a missing zero fails
    the clause that iterates, not the suite."""
    for a in enum.cat.objects:
        yield from lattice_on(enum, a).elements


def projection_lattice(cat: FiniteCategory, a, enum: Enumeration) -> ProjectionLattice:
    """Build P(a) and verify it is a meet semilattice with top and bottom.

    The laws are checked in the order of their definitions, on ids: the
    meets of an element with every element of P(a) are one row of the id
    table, read whole when first needed, and a meet with an id outside P(a)
    is composed on its own."""
    lattice = lattice_on(enum, a)
    elements, ids = lattice.elements, lattice.ids
    position = {p: n for n, p in enumerate(ids)}
    one, zero = cat.intern(lattice.top), cat.intern(lattice.bottom)
    if one not in position or zero not in position:
        raise LatticeError(f"P({render_object(a)}) is missing top or bottom")
    # id p of P(a) → the ids of p∧q for q in P(a), in lattice order
    meets = Memo(partial(cat.compose_ids, js=ids))
    top = position[one]
    for n, i in enumerate(ids):
        row = meets[i]
        if row[n] != i:
            raise LatticeError(f"meet is not idempotent at {render_morphism(elements[n])}")
        if row[top] != i or meets[one][n] != i:
            raise LatticeError(f"top is not neutral at {render_morphism(elements[n])}")
        for q, j in enumerate(ids):
            m = row[q]
            if m not in position:
                raise LatticeError(
                    f"meet of {render_morphism(elements[n])} and {render_morphism(elements[q])} "
                    "leaves the projection set"
                )
            if m != meets[j][n]:
                raise LatticeError(
                    f"meet is not commutative at {render_morphism(elements[n])}, "
                    f"{render_morphism(elements[q])}"
                )
            # (i∧j)∧k against i∧(j∧k) for every k
            jks = meets[j]
            at = list(map(position.get, jks))
            if None not in at:
                rights = list(map(row.__getitem__, at))
            else:
                rights = (row[p] if p is not None else cat.compose_id(i, jk) for p, jk in zip(at, jks))
            if any(map(ne, meets[m], rights)):
                raise LatticeError("meet is not associative")
    return lattice


# ---- annihilators -------------------------------------------------------


def annihilator_candidates(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> tuple[Morphism, ...]:
    """All projections p on dom(f) with: f∘g = 0  ⇔  p∘g = g, for every
    enumerated g into dom(f).  In a Baer*-category there is exactly one.

    Works on morphism ids: the candidates are the projections
    whose "fixes" mask (see _fixes_masks) equals f's "killed" mask, whose
    bit k is set when f∘g = 0 for the k-th enumerated g into dom(f)."""
    a, fi = f.dom, cat.intern(f)
    lattice = lattice_on(enum, a)
    killed_mask, offset = 0, 0
    for w in cat.objects:
        killed_mask |= enum.cached(_killed, (fi, w, True))[0] << offset
        offset += len(enum.pool(w, a))
    fixes = enum.cached(_fixes_masks, a)
    return tuple(p for p, mask in zip(lattice.elements, fixes) if mask == killed_mask)


def _fixes_masks(cat: FiniteCategory, a, enum: Enumeration) -> tuple[int, ...]:
    """The "fixes" mask of each projection p on a, in lattice order: bit k
    is set when p∘g = g for the k-th enumerated g into a."""
    ids = lattice_on(enum, a).ids
    probes = [g for w in cat.objects for g in enum.pool_ids(w, a)]
    masks = []
    for p in ids:
        mask = 0
        for k, (composite, g) in enumerate(zip(cat.compose_ids(p, probes), probes)):
            if composite == g:
                mask |= 1 << k
        masks.append(mask)
    return tuple(masks)


def _killed(cat: FiniteCategory, key, enum: Enumeration) -> tuple[int, tuple]:
    """For key (f, w, left): what the morphism with id f kills among the g
    in pool(w, dom f) when left (f∘g = 0), or in pool(cod f, w) otherwise
    (g∘f = 0): a mask with bit k set when the k-th g is killed, and the pool
    position of each killed g, in pool order.  Kept in the run's memo, which
    the annihilator search and the kernel and cokernel witnesses share."""
    f, w, left = key
    m = cat.morphisms_by_id[f]
    if left:
        composites = cat.compose_ids(f, enum.pool_ids(w, m.dom))
    else:
        composites = cat.precompose_ids(f, enum.pool_ids(m.cod, w))
    if not composites:
        return 0, ()
    zero = cat.zero_id(w, m.cod) if left else cat.zero_id(m.dom, w)
    mask, out = 0, []
    for k, composite in enumerate(composites):
        if composite == zero:
            mask |= 1 << k
            out.append(k)
    return mask, tuple(out)


def annihilator(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Morphism:
    """The annihilator f′, found from its defining property on the table
    under test, searched once per run."""
    candidates = enum.cached(annihilator_candidates, f)
    if not candidates:
        raise AnnihilatorNotFoundError(f)
    if len(candidates) > 1:
        raise AnnihilatorNotUniqueError(f, candidates)
    return candidates[0]


def double_annihilator(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Morphism:
    return annihilator(cat, annihilator(cat, f, enum), enum)


def is_closed(cat: FiniteCategory, i: Morphism, enum: Enumeration) -> bool:
    """A projection is closed when it is its own double annihilator."""
    return double_annihilator(cat, i, enum) == i


# ---- the Baer* suite ----------------------------------------------------


def annihilator_clauses(enum: Enumeration) -> list[Clause]:
    """The annihilator laws shared with check_exactness: existence, uniqueness, closure."""
    cat = enum.cat
    cat.designated_zero()  # so that a category with no objects cannot pass vacuously

    def annihilator_exists(f: Morphism):
        if not enum.cached(annihilator_candidates, f):
            return f"no annihilator for {render_morphism(f)}"
        return None

    def annihilator_unique(f: Morphism):
        candidates = enum.cached(annihilator_candidates, f)
        if len(candidates) > 1:
            return (
                f"{len(candidates)} annihilators for {render_morphism(f)}: "
                + ", ".join(map(render_morphism, candidates[:2]))
                + ", ..."
            )
        return None

    def projections_closed(i: Morphism):
        back = double_annihilator(cat, i, enum)
        if back != i:
            return f"projection {render_morphism(i)} is not closed: (i′)′ = {render_morphism(back)}"
        return None

    return [
        run_clause("baer.annihilator-exists", "1", enum.morphisms(), annihilator_exists),
        run_clause("baer.annihilator-unique", "1", enum.morphisms(), annihilator_unique),
        run_clause("baer.projections-closed", "1.1", projection_cases(enum), projections_closed),
    ]


def baer_star_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def zero_object_ok(a):
        cat.zero_id(a, a)  # raises when the zero object is not one at a
        return None

    def triple_annihilator(f: Morphism):
        first = annihilator(cat, f, enum)
        third = double_annihilator(cat, first, enum)
        if first != third:
            return f"f′ ≠ f‴ for {render_morphism(f)}"
        return None

    def semilattice_ok(a):
        try:
            projection_lattice(cat, a, enum)
        except LatticeError as err:
            return f"P({render_object(a)}): {err}"
        return None

    return [
        run_clause("baer.zero-object", "1", cat.objects, zero_object_ok),
        *annihilator_clauses(enum),
        run_clause("baer.triple-annihilator", "1.1", enum.morphisms(), triple_annihilator),
        run_clause("projections.meet-semilattice", "2", cat.objects, semilattice_ok),
    ]


def check_baer_star(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    """Verify annihilator existence and uniqueness, closure of projections,
    and the semilattice structure of P(A), all from the definitions."""
    return build_report("baer-star", cat, [baer_star_clauses], budget)
