"""Finite categories with involution and exhaustive checks of the
inverse-category axioms: every morphism f has a unique g with fgf = f and
gfg = g, and the induced involution satisfies the Moore-Penrose laws.
"""

from __future__ import annotations

import copy
import sys
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from operator import eq
from typing import Any, Callable, Iterable, Iterator, Sequence

from .report import (
    SKIPPED,
    Clause,
    Failed,
    MissingConstructionError,
    Passed,
    VerificationReport,
    run_clause,
)


class InvcatError(Exception):
    """Base class for all library errors."""


class CompositionError(InvcatError):
    pass


class ObjectMismatchError(InvcatError):
    pass


class ShapeMismatchError(InvcatError):
    pass


class ZeroUnavailableError(InvcatError, MissingConstructionError):
    """The designated zero object is not initial and terminal at some object."""


class LatticeError(InvcatError):
    pass


class NotInverseCategoryError(InvcatError, MissingConstructionError):
    """A morphism with no, or more than one, quasi-inverse."""

    def __init__(self, morphism: "Morphism", candidates: tuple):
        self.morphism = morphism
        self.candidates = candidates
        what = "no quasi-inverse" if not candidates else f"{len(candidates)} quasi-inverses"
        super().__init__(f"{render_morphism(morphism)} has {what}")


class BudgetExceededError(InvcatError):
    """A hom-set larger than the enumeration budget allows."""

    def __init__(self, hom_size: int, dom: Any, cod: Any, at_least: bool = False):
        self.hom_size = hom_size
        self.dom = dom
        self.cod = cod
        bits = hom_size.bit_length()
        if bits > 1000:  # hundreds of digits tell no more than a power of two below them
            count = f"at least 2^{bits - 1}"
        else:
            count = f"at least {hom_size}" if at_least else str(hom_size)
        super().__init__(
            f"hom({render_object(dom)}, {render_object(cod)}) has {count} morphisms, "
            "over the enumeration budget"
        )


class BudgetValueError(InvcatError):
    """A Budget with max_size below 0."""


def render_object(obj: Any) -> str:
    return getattr(obj, "name", str(obj))


@dataclass(frozen=True, slots=True, repr=False)
class Morphism:
    """A morphism between two objects, identified by its extensional payload.

    The payload is model data: a frozenset of (x, y) pairs for partial
    bijections, an element label for monoid-presented categories.  `name`
    is documentation only and is excluded from equality and hashing.
    The hash is computed once, at construction, as hash((dom, cod, payload)).
    """

    dom: Any
    cod: Any
    payload: Any
    name: str | None = field(default=None, compare=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.payload)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{render_morphism(self)}>"


def render_morphism(f: Morphism) -> str:
    if isinstance(f.payload, frozenset):
        inner = ", ".join(f"{x}↦{y}" for x, y in sorted(f.payload))
        body = "{" + inner + "}" if inner else "∅"
    else:
        body = f"[{f.payload}]"
    label = f"{f.name} = " if f.name else ""
    return f"{label}{render_object(f.dom)}→{render_object(f.cod)} {body}"


def payload_sort_key(payload: Any):
    if isinstance(payload, frozenset):
        return (1, tuple(sorted(payload)))
    return (0, str(payload))


def morphism_sort_key(f: Morphism):
    return (render_object(f.dom), render_object(f.cod), payload_sort_key(f.payload))


@dataclass(frozen=True)
class Budget:
    """Enumeration budget.  A hom-set larger than hom(max_size, max_size)
    in the partial-bijection count is rejected with BudgetExceededError.
    """

    max_size: int = 4

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise BudgetValueError(f"max_size must be at least 0, got {self.max_size}")

    @cached_property
    def homset_limit(self) -> int:
        """The size of hom(max_size, max_size), or sys.maxsize past
        LARGEST_LIMIT_SIZE: no tuple holds more, so a larger limit would
        admit no more hom-sets, only take longer to count."""
        if self.max_size > LARGEST_LIMIT_SIZE:
            return sys.maxsize
        return sum(pbij_counts_by_rank(self.max_size, self.max_size))


# the largest n with at most sys.maxsize partial bijections of an n-set:
# hom(18, 18) has 2,968,971,263,911,288,999 and hom(19, 19) about 7·10^19
LARGEST_LIMIT_SIZE = 18


def pbij_counts_by_rank(m: int, n: int) -> list[int]:
    """C(m,k)·C(n,k)·k!, the number of partial bijections of rank k from an
    m-set to an n-set, for k = 0 … min(m, n)."""
    counts = [1]
    for k in range(min(m, n)):  # exact: the quotient is the next count
        counts.append(counts[k] * (m - k) * (n - k) // (k + 1))
    return counts


class Memo(dict):
    """A table that fills itself: a missing key is stored as fill(key), once,
    and a fill that raises stores nothing, so asking again raises again.
    Every run-scoped cache is one of these; the per-category tables of
    FiniteCategory are plain dicts, built for every category and clone."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Any], Any]):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class FiniteCategory:
    """A finite category presented by enumerable hom-sets.

    Subclasses supply the model rules `_hom`, `_compose`, `_involve` and
    `identity`.  Composition follows the right-factor-first convention:
    compose(f, g) is f∘g, defined when cod(g) = dom(f).
    """

    has_involution_rule = False
    # the id table the category was built with, if any: (morphisms_by_id,
    # rows, involution ids or None)
    _given: tuple | None = None

    def __init__(self, objects: Iterable, zero_object: Any = None):
        self._objects = tuple(objects)
        names = [render_object(a) for a in self._objects]
        if len(set(names)) != len(names):
            raise InvcatError("duplicate object names in category")
        self._zero_object = zero_object
        self._compose_overrides: dict = {}
        self._involve_overrides: dict = {}
        self._empty_table()

    def _empty_table(self) -> None:
        # morphisms_by_id[i] has id i; rows[i] maps an id j to the id of
        # morphisms_by_id[i]∘morphisms_by_id[j].  Entries here and in the
        # involution and zero ids are filled on first need, unless given at
        # construction, and an entry whose computation raises is not stored.
        self._ids: dict = {}
        self.morphisms_by_id: list[Morphism] = []
        self.rows: list[dict] = []
        self._involution_ids: dict = {}
        self._identity_ids: dict = {}
        self._zero_ids: dict = {}
        self._hom_ids: dict = {}

    # ---- model hooks -------------------------------------------------

    def _hom(self, a, b) -> tuple[Morphism, ...]:
        raise NotImplementedError

    def _compose(self, f: Morphism, g: Morphism) -> Morphism:
        raise NotImplementedError

    def _compose_rule_id(self, i: int, j: int) -> int:
        """The id of morphisms_by_id[i]∘morphisms_by_id[j] by the model rule,
        for a shape-checked pair with no override.  Models that can find the
        id of a composite without building it override this."""
        return self.intern(self._compose(self.morphisms_by_id[i], self.morphisms_by_id[j]))

    def _compose_block_ids(self, i: int, a, js: tuple[int, ...]) -> list[int] | None:
        """The ids of morphisms_by_id[i]∘g for g over js, the hom_ids tuple of
        hom(a, dom i), for a row with no override on its left.  Models that
        can read a whole block's composites at once override this and give
        every id; None, the default, sends each missing entry to compose_id."""
        return None

    def _involve(self, f: Morphism) -> Morphism | None:
        return None

    def identity(self, a) -> Morphism:
        raise NotImplementedError

    def _hom_size(self, a, b) -> int:
        return len(self.hom_ids(a, b))

    # Proposals for the constructions of exactness.py, read from the pure
    # model; None proposes nothing.  A proposal is only the first candidate
    # of the search, which goes on through the run's pools and applies one
    # test on the table under test to every candidate.  A proposal may lie
    # outside the declared objects; a pool member never does.

    def _kernel(self, f: Morphism, left: bool) -> Morphism | None:
        """A kernel of f (left) or a cokernel of f."""
        return None

    def _factorization(self, f: Morphism) -> Morphism | None:
        """The epi q of f = p∘q, p mono; p is then f∘q*."""
        return None

    # ---- public surface ----------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._objects

    @property
    def zero_object(self):
        return self._zero_object

    def hom(self, a, b) -> tuple[Morphism, ...]:
        """The hom-set in hom order, as the category's own morphisms."""
        return tuple(map(self.morphisms_by_id.__getitem__, self.hom_ids(a, b)))

    def intern(self, m: Morphism) -> int:
        """The id of m in this category, given out on first sight."""
        i = self._ids.get(m)
        if i is None:
            i = self._ids[m] = len(self.morphisms_by_id)
            self.morphisms_by_id.append(m)
            self.rows.append({})
        return i

    def hom_ids(self, a, b) -> tuple[int, ...]:
        """The ids of hom(a, b), in hom order: the one store of a hom-set,
        enumerated by the model and numbered once per category."""
        key = (a, b)
        ids = self._hom_ids.get(key)
        if ids is None:
            ids = self._hom_ids[key] = tuple(map(self.intern, self._hom(a, b)))
        return ids

    def compose_id(self, i: int, j: int) -> int:
        """The id of morphisms_by_id[i]∘morphisms_by_id[j], computed once per
        category: from a clone's override when it has one, otherwise by the
        model rule, so a missing table entry raises where it is first needed."""
        row = self.rows[i]
        k = row.get(j)
        if k is None:
            f, g = self.morphisms_by_id[i], self.morphisms_by_id[j]
            if g.cod is not f.dom and g.cod != f.dom:
                raise CompositionError(
                    f"cannot compose {render_morphism(f)} after {render_morphism(g)}: "
                    f"domain {render_object(f.dom)} does not match codomain {render_object(g.cod)}"
                )
            fg = self._compose_overrides.get((f, g)) if self._compose_overrides else None
            k = row[j] = self.intern(fg) if fg is not None else self._compose_rule_id(i, j)
        return k

    def compose_ids(self, i: int, js: Sequence[int]) -> list[int]:
        """[compose_id(i, j) for j in js], reading the entries already in
        row i in place: a scan over a whole hom block mostly hits.  When js
        is the category's hom_ids tuple of hom(a, dom i) and no override has
        i on its left, the model's block hook may fill the block in one
        call; otherwise each missing entry goes through compose_id, once
        and in js order."""
        row = self.rows[i]
        try:
            return list(map(row.__getitem__, js))
        except KeyError:
            pass
        by_id, overrides = self.morphisms_by_id, self._compose_overrides
        f, a = by_id[i], by_id[js[0]].dom
        if js is self._hom_ids.get((a, f.dom)) and not (overrides and any(left == f for left, _ in overrides)):
            ks = self._compose_block_ids(i, a, js)
            if ks is not None:
                row.update(zip(js, ks))
                return ks
        for j in js:
            if j not in row:
                self.compose_id(i, j)
        return list(map(row.__getitem__, js))

    def precompose_ids(self, i: int, js: Iterable[int]) -> list[int]:
        """[compose_id(j, i) for j in js], reading filled entries in place."""
        rows, compose_id = self.rows, self.compose_id
        return [k if (k := rows[j].get(i)) is not None else compose_id(j, i) for j in js]

    def compose(self, f: Morphism, g: Morphism) -> Morphism:
        return self.morphisms_by_id[self.compose_id(self.intern(f), self.intern(g))]

    def involve_id(self, i: int) -> int:
        """The id of morphisms_by_id[i]*, the canonical involution, computed
        once per category: from a clone's override, the model rule, or else
        the unique quasi-inverse found by search (raising when it is not
        unique)."""
        k = self._involution_ids.get(i)
        if k is None:
            f = self.morphisms_by_id[i]
            g = self._involve_overrides.get(f)
            if g is None:
                g = self._involve(f)
            if g is None:
                g = self.unique_quasi_inverse(f)
            k = self._involution_ids[i] = self.intern(g)
        return k

    def involve(self, f: Morphism) -> Morphism:
        return self.morphisms_by_id[self.involve_id(self.intern(f))]

    def quasi_inverses_of(self, f: Morphism) -> tuple[Morphism, ...]:
        """Every g in hom(cod f, dom f), in hom order, with fgf = f and
        gfg = g; each g asks for (f, g), (fg, f), (g, f), (gf, g)."""
        fi, compose_id = self.intern(f), self.compose_id
        return tuple(
            self.morphisms_by_id[gi]
            for gi in self.hom_ids(f.cod, f.dom)
            if compose_id(compose_id(fi, gi), fi) == fi and compose_id(compose_id(gi, fi), gi) == gi
        )

    def unique_quasi_inverse(self, f: Morphism) -> Morphism:
        candidates = self.quasi_inverses_of(f)
        if len(candidates) != 1:
            raise NotInverseCategoryError(f, candidates)
        return candidates[0]

    def identity_id(self, a) -> int:
        """The id of identity(a), looked up once per category."""
        i = self._identity_ids.get(a)
        if i is None:
            i = self._identity_ids[a] = self.intern(self.identity(a))
        return i

    def designated_zero(self):
        """The zero object; the one place that decides a missing one."""
        if self._zero_object is None:
            raise InvcatError("no zero object designated")
        return self._zero_object

    def zero_id(self, a, b) -> int:
        """The id of the zero morphism a → b, computed once per category: the
        one morphism 0 → b after the one a → 0, composed on the table under
        test.  A composite is zero exactly when its id is this one."""
        key = (a, b)
        i = self._zero_ids.get(key)
        if i is None:
            o = self.designated_zero()
            into, outof = self.hom_ids(a, o), self.hom_ids(o, b)
            if len(into) != 1 or len(outof) != 1:
                at = a if len(into) != 1 else b
                raise ZeroUnavailableError(
                    f"{render_object(o)} is not initial and terminal at {render_object(at)}"
                )
            i = self._zero_ids[key] = self.compose_id(outof[0], into[0])
        return i

    def zero(self, a, b) -> Morphism:
        return self.morphisms_by_id[self.zero_id(a, b)]

    def is_zero(self, f: Morphism) -> bool:
        return self.intern(f) == self.zero_id(f.dom, f.cod)

    def morphism_pool(self, a, b, budget: Budget | None = None) -> tuple[Morphism, ...]:
        """The hom-set, counted before it is enumerated: BudgetExceededError
        when it is over budget."""
        budget = budget if budget is not None else Budget()
        size = self._hom_size(a, b)
        if size > budget.homset_limit:
            raise BudgetExceededError(size, a, b)
        return self.hom(a, b)

    # ---- seeded defects, for mutation testing -------------------------

    def with_corrupted_composition(self, f: Morphism, g: Morphism, result: Morphism) -> "FiniteCategory":
        if g.cod != f.dom or result.dom != g.dom or result.cod != f.cod:
            raise ShapeMismatchError("corrupted composite must be shape-correct")
        return self._clone(compose={(f, g): result})

    def with_corrupted_involution(self, f: Morphism, result: Morphism) -> "FiniteCategory":
        if result.dom != f.cod or result.cod != f.dom:
            raise ShapeMismatchError("corrupted involution must be shape-correct")
        return self._clone(involve={f: result})

    def _clone(self, compose=(), involve=()) -> "FiniteCategory":
        """A twin with these overrides added to this category's.  It starts
        from a copy of the table the category was built with, less every
        overridden entry, which it reads from its override at first need;
        all else it computes again, on its own table."""
        twin = copy.copy(self)
        twin._compose_overrides = {**self._compose_overrides, **dict(compose)}
        twin._involve_overrides = {**self._involve_overrides, **dict(involve)}
        twin._empty_table()
        if self._given is not None:
            morphisms, rows, involution = self._given
            twin.morphisms_by_id = list(morphisms)
            twin._ids = ids = dict(zip(morphisms, range(len(morphisms))))
            twin.rows = [row.copy() for row in rows]
            twin._involution_ids = dict(involution or {})
            for f, g in twin._compose_overrides:
                if f in ids and g in ids:
                    twin.rows[ids[f]].pop(ids[g], None)
            for f in twin._involve_overrides:
                twin._involution_ids.pop(ids.get(f), None)
        return twin


class TableCategory(FiniteCategory):
    """A category given by explicit hom-sets and a composition table.  Its id
    table is the table it was given, numbered and filled at construction;
    the model rules only answer a pair or a morphism the table lacks, by
    raising."""

    def __init__(
        self,
        objects: Iterable,
        homs: dict,
        compose_table: dict,
        identities: dict,
        involution_table: dict | None = None,
        zero_object: Any = None,
    ):
        """The table keyed by morphisms: compose_table[(f, g)] is f∘g and
        involution_table[f] is f*.  Numbered once, hom-sets first; an entry
        for a pair that does not compose is never read, so it is dropped,
        and one outside hom(dom g, cod f) is refused."""
        ids: dict = {}

        def number(m: Morphism) -> int:
            return ids.setdefault(m, len(ids))

        hom_ids = {pair: list(map(number, morphisms)) for pair, morphisms in homs.items()}
        for (f, g), fg in compose_table.items():
            if g.cod == f.dom and (fg.dom != g.dom or fg.cod != f.cod):
                raise InvcatError(
                    f"composition table gives {render_morphism(fg)} as {render_morphism(f)} after "
                    f"{render_morphism(g)}, outside hom({render_object(g.dom)}, {render_object(f.cod)})"
                )
        entries = [
            (number(f), number(g), number(fg))
            for (f, g), fg in compose_table.items()
            if g.cod == f.dom
        ]
        involution = (
            None
            if involution_table is None
            else {number(f): number(star) for f, star in involution_table.items()}
        )
        identity_ids = {a: number(m) for a, m in identities.items()}
        rows: list[dict] = [{} for _ in ids]
        for i, j, k in entries:
            rows[i][j] = k
        self._take(objects, list(ids), hom_ids, rows, identity_ids, involution, zero_object)

    @classmethod
    def from_ids(
        cls,
        objects: Iterable,
        morphisms: Sequence[Morphism],
        homs: dict,
        rows: Sequence[dict],
        identities: dict,
        involution: dict | None = None,
        zero_object: Any = None,
    ) -> "TableCategory":
        """The table on ids, taken over as it is: morphisms[i], all distinct,
        has id i; homs[(a, b)] holds the ids of hom(a, b); rows[i][j] is the
        id of morphisms[i]∘morphisms[j], for composable pairs only;
        identities[a] is the id of the identity on a; and involution[i],
        when given, the id of morphisms[i]*.  Composites are not checked
        against their hom-sets: its builders, saturation and the Cayley
        tables, give each composite the right shape by construction."""
        cat = cls.__new__(cls)
        cat._take(objects, morphisms, homs, rows, identities, involution, zero_object)
        return cat

    def _take(self, objects, morphisms, homs, rows, identities, involution, zero_object) -> None:
        super().__init__(objects, zero_object)
        self._homs = {
            pair: tuple(sorted(map(morphisms.__getitem__, ids), key=morphism_sort_key))
            for pair, ids in homs.items()
        }
        self._identities = {a: morphisms[i] for a, i in identities.items()}
        self.has_involution_rule = involution is not None
        for a in self._objects:
            if a not in self._identities:
                raise InvcatError(f"missing identity for object {render_object(a)}")
        for (a, b), members in self._homs.items():
            for m in members:
                if m.dom != a or m.cod != b:
                    raise InvcatError(f"{render_morphism(m)} filed under wrong hom-set")
        # the category's own table shares its rows and involution with the
        # given one: without an override, no entry of either ever changes
        self._given = (tuple(morphisms), tuple(rows), involution)
        self.morphisms_by_id, self.rows = list(morphisms), list(rows)
        self._ids = dict(zip(morphisms, range(len(morphisms))))
        self._involution_ids = involution if involution is not None else {}

    def _hom(self, a, b) -> tuple[Morphism, ...]:
        return self._homs.get((a, b), ())

    def _compose(self, f: Morphism, g: Morphism) -> Morphism:
        raise InvcatError(
            f"composition table is missing {render_morphism(f)} after {render_morphism(g)}"
        )

    def _involve(self, f: Morphism) -> Morphism | None:
        if self.has_involution_rule:
            raise InvcatError(f"involution table is missing {render_morphism(f)}")
        return None

    def identity(self, a) -> Morphism:
        try:
            return self._identities[a]
        except KeyError:
            raise InvcatError(f"unknown object {render_object(a)}") from None


class Enumeration:
    """One verification run: its deterministic morphism pools under a
    budget, its memo, and the details its clause groups record for the
    report.  Morphism ids and composites live on the category."""

    def __init__(self, cat: FiniteCategory, budget: Budget | None = None):
        self.cat = cat
        # the hom-set per (a, b), and the category's hom_ids tuple of each
        # pool, asked for once the pool is in budget
        self._pools = pools = Memo(lambda key: cat.morphism_pool(*key, budget))
        self._pool_ids = Memo(lambda key: (pools[key], cat.hom_ids(*key))[1])
        # the memo refers to the run weakly, so that a run no longer used is
        # freed at once, not at the next collection of reference cycles
        run = weakref.ref(self)
        self._memo = Memo(lambda slot: slot[0](cat, slot[1], run()))
        self.details: dict = {}

    def pool(self, a, b) -> tuple[Morphism, ...]:
        return self._pools[a, b]

    def pool_ids(self, a, b) -> tuple[int, ...]:
        """The category's hom_ids tuple itself, once pool(a, b) is in budget."""
        return self._pool_ids[a, b]

    def cached(self, fn: Callable, key):
        """fn(cat, key, self), computed once per run for each fn and key.
        Callers name fn as a module global, so a wrapper put there sees every call."""
        return self._memo[fn, key]

    def morphisms(self) -> Iterator[Morphism]:
        for a in self.cat.objects:
            for b in self.cat.objects:
                yield from self.pool(a, b)

    def morphisms_into(self, b) -> Iterator[Morphism]:
        for a in self.cat.objects:
            yield from self.pool(a, b)

    def morphisms_out_of(self, a) -> Iterator[Morphism]:
        for b in self.cat.objects:
            yield from self.pool(a, b)

    def pair_blocks(self, sides: Callable, word: Callable) -> Iterator:
        """The cases of a law over every composable pair (f, g), a block of
        one f ∈ pool(b, c) and every g ∈ pool(a, b) at a time, over objects
        a, b, c.  sides(id of f, ids of the g) gives the law's two sides, the
        same number of entries per pair, asking a lone pair's entries in the
        order the law reads them, lazily where it has several; word(f, g, e)
        words a pair whose e-th entries differ.  A block whose sides agree is
        Passed(n); any other, or one whose sides raise a missing construction,
        is walked pair by pair, comparing each entry as it is asked: Passed(1)
        per pair before its first failing one, then Failed(word(f, g, e)) or
        Failed(the error's text), as that pair fails alone."""
        objs = self.cat.objects
        for a in objs:
            for b in objs:
                gids, gs = self.pool_ids(a, b), self.pool(a, b)
                for c in objs:
                    # enumerated even when no g composes with it, so every
                    # law counts the same pools in morphisms_enumerated
                    fs = self.pool(b, c)
                    if not gids:
                        continue
                    for fi, f in zip(self.pool_ids(b, c), fs):
                        try:
                            if eq(*map(list, sides(fi, gids))):
                                yield Passed(len(gids))
                                continue
                        except MissingConstructionError:
                            pass
                        for gi, g in zip(gids, gs):
                            try:
                                pairs = enumerate(zip(*sides(fi, (gi,))))
                                text = next((word(f, g, e) for e, (left, right) in pairs if left != right), None)
                            except MissingConstructionError as err:
                                text = str(err)
                            if text is not None:
                                yield Failed(text)
                                break
                            yield Passed(1)

    def total_enumerated(self) -> int:
        return sum(map(len, self._pools.values()))


def build_report(
    suite: str,
    cat: FiniteCategory,
    groups: Iterable[Callable[[Enumeration], list[Clause]]],
    budget: Budget | None = None,
) -> VerificationReport:
    """Run the clause groups in order on one Enumeration, so they share its
    pools and memo, and report their clauses and the details they recorded."""
    enum = Enumeration(cat, budget)
    start = time.perf_counter()
    clauses: list[Clause] = []
    for group in groups:
        clauses.extend(group(enum))
    elapsed = time.perf_counter() - start
    return VerificationReport(
        suite=suite,
        clauses=clauses,
        morphisms_enumerated=enum.total_enumerated(),
        wall_time=elapsed,
        details=enum.details or None,
    )


# ---- predicates -------------------------------------------------------


def is_generalized_inverse(cat: FiniteCategory, f: Morphism, g: Morphism) -> bool:
    """fgf = f, gfg = g, and both composites fg and gf are self-adjoint."""
    if g.dom != f.cod or g.cod != f.dom:
        raise ShapeMismatchError(
            f"{render_morphism(g)} cannot be a generalized inverse of {render_morphism(f)}"
        )
    fg = cat.compose(f, g)
    gf = cat.compose(g, f)
    return (
        cat.compose(fg, f) == f
        and cat.compose(gf, g) == g
        and cat.involve(fg) == fg
        and cat.involve(gf) == gf
    )


def is_projection(cat: FiniteCategory, f: Morphism) -> bool:
    return f.dom == f.cod and cat.compose(f, f) == f and cat.involve(f) == f


# ---- the inverse-category axiom suite ----------------------------------


def _quasi_inverses(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> tuple[Morphism, ...]:
    return cat.quasi_inverses_of(f)


def inverse_category_clauses(enum: Enumeration) -> list[Clause]:
    """The category laws, the existence and uniqueness of quasi-inverses,
    then the involution clauses, in that order."""
    return category_axiom_clauses(enum) + involution_clauses(enum)


def category_axiom_clauses(enum: Enumeration) -> list[Clause]:
    """The identity laws, associativity, and that every morphism has a
    quasi-inverse and only one: what decides an inverse monoid."""
    cat = enum.cat

    def identity_laws(f: Morphism):
        if cat.compose(f, cat.identity(f.dom)) != f:
            return f"f∘id ≠ f for {render_morphism(f)}"
        if cat.compose(cat.identity(f.cod), f) != f:
            return f"id∘f ≠ f for {render_morphism(f)}"
        return None

    # Associativity and the antihomomorphism law work on the category's
    # morphism ids, a hom block at a time: each fills every entry a block
    # needs, then compares two lists; a block's verdict is final.
    compose_ids, pool_ids = cat.compose_ids, enum.pool_ids

    def concatenated(rows, ids):
        """rows[i] for each i in ids, concatenated."""
        return list(chain.from_iterable(map(rows.__getitem__, ids)))

    def associativity_cases():
        """Per f ∈ pool(c, d) and blocks g ∈ pool(b, c), h ∈ pool(a, b) over
        objects a, b, c, d: (f∘g)∘h and f∘(g∘h) as two lists in triple order,
        every entry filled first.  A block that holds is Passed(n); any other
        is Passed(k) for the k triples before its first failing one, then
        that triple as a Failed case."""
        objs = cat.objects
        for a in objs:
            for b in objs:
                hids, hs = pool_ids(a, b), enum.pool(a, b)
                if not hids:
                    continue
                for c in objs:
                    gids, gs = pool_ids(b, c), enum.pool(b, c)
                    if not gids:
                        continue
                    # id i → ids of i∘h over hids: g∘h for a g, (fg)∘h for an fg;
                    # a filled entry never changes, so each is kept
                    over_h = Memo(partial(compose_ids, js=hids))
                    gh_all = concatenated(over_h, gids)
                    for d in objs:
                        for fi, f in zip(pool_ids(c, d), enum.pool(c, d)):
                            lefts = concatenated(over_h, compose_ids(fi, gids))
                            rights = compose_ids(fi, gh_all)
                            if rights == lefts:
                                yield Passed(len(lefts))
                                continue
                            k = next(k for k, left in enumerate(lefts) if left != rights[k])
                            g, h = divmod(k, len(hids))
                            yield Passed(k)
                            yield Failed(
                                f"(f∘g)∘h ≠ f∘(g∘h) for f={render_morphism(f)}, "
                                f"g={render_morphism(gs[g])}, h={render_morphism(hs[h])}"
                            )

    def inverse_exists(f: Morphism):
        if not enum.cached(_quasi_inverses, f):
            return f"{render_morphism(f)} has no quasi-inverse"
        return None

    def inverse_unique(f: Morphism):
        candidates = enum.cached(_quasi_inverses, f)
        if len(candidates) > 1:
            return (
                f"{render_morphism(f)} has {len(candidates)} quasi-inverses, e.g. "
                f"{render_morphism(candidates[0])} and {render_morphism(candidates[1])}"
            )
        return None

    return [
        run_clause("category.identity-laws", "cat", enum.morphisms(), identity_laws),
        run_clause("category.associativity", "cat", associativity_cases(), None),
        run_clause("inverse.exists", "1", enum.morphisms(), inverse_exists),
        run_clause("inverse.unique", "1", enum.morphisms(), inverse_unique),
    ]


def involution_clauses(enum: Enumeration) -> list[Clause]:
    """The laws of the involution f ↦ f*, and its agreement with the unique
    quasi-inverse when the model has an involution rule."""
    cat = enum.cat

    def involutory(f: Morphism):
        gg = cat.involve(cat.involve(f))
        if gg != f:
            return f"(f*)* = {render_morphism(gg)} ≠ f = {render_morphism(f)}"
        return None

    involve_id, compose_id, compose_ids = cat.involve_id, cat.compose_id, cat.compose_ids
    # the ids of a hom block → the ids of their involutions
    stars = Memo(lambda gids: list(map(involve_id, gids)))

    def star_sides(fi, gids):
        """(f∘g)* and g*∘f* for g over gids, every entry and involution
        filled in the order the law reads them for one pair: (f∘g)*, then g*,
        then f*.  An involution missing (a morphism with no unique
        quasi-inverse) raises NotInverseCategoryError."""
        lefts = list(map(involve_id, compose_ids(fi, gids)))
        gstars, fstar = stars[gids], involve_id(fi)
        return lefts, [compose_id(s, fstar) for s in gstars]

    def star_word(f, g, e):
        return f"(f∘g)* ≠ g*∘f* for f={render_morphism(f)}, g={render_morphism(g)}"

    def moore_penrose(f: Morphism):
        if not is_generalized_inverse(cat, f, cat.involve(f)):
            return f"f* fails the Moore-Penrose laws for {render_morphism(f)}"
        return None

    def moore_penrose_unique(f: Morphism):
        # a quasi-inverse g already has fgf = f and gfg = g
        hits = []
        for g in enum.cached(_quasi_inverses, f):
            fg, gf = cat.compose(f, g), cat.compose(g, f)
            try:
                if cat.involve(fg) == fg and cat.involve(gf) == gf:
                    hits.append(g)
            except NotInverseCategoryError:
                continue
        if len(hits) > 1:
            return (
                f"{render_morphism(f)} has {len(hits)} Moore-Penrose inverses, e.g. "
                f"{render_morphism(hits[0])} and {render_morphism(hits[1])}"
            )
        return None

    clauses = [
        run_clause("involution.involutory", "1", enum.morphisms(), involutory),
        run_clause("involution.antihomomorphism", "1", enum.pair_blocks(star_sides, star_word), None),
        run_clause("involution.moore-penrose", "1", enum.morphisms(), moore_penrose),
        run_clause("involution.moore-penrose-unique", "1", enum.morphisms(), moore_penrose_unique),
    ]

    if cat.has_involution_rule:
        def model_agreement(f: Morphism):
            candidates = enum.cached(_quasi_inverses, f)
            if len(candidates) != 1:
                return f"{render_morphism(f)} has {len(candidates)} quasi-inverses"
            if cat.involve(f) != candidates[0]:
                return (
                    f"model involution {render_morphism(cat.involve(f))} disagrees with the "
                    f"unique quasi-inverse {render_morphism(candidates[0])} of {render_morphism(f)}"
                )
            return None

        clauses.append(
            run_clause("involution.model-agreement", "1", enum.morphisms(), model_agreement)
        )
    else:
        clauses.append(Clause("involution.model-agreement", "1", SKIPPED, 0))

    return clauses


def check_inverse_category(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    """Verify the inverse-category axioms over every enumerated morphism."""
    return build_report("inverse-category", cat, [inverse_category_clauses], budget)
