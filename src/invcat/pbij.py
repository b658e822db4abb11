"""Finite sets and partial bijections: the concrete model and its closed forms.

A partial bijection A ⇀ B is a set of (x, y) pairs that is functional and
injective.  Composition is relational (right factor first), the involution
is pair reversal, and hom(A, B) has Σ_k C(|A|,k)·C(|B|,k)·k! elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .core import FiniteCategory, InvcatError, Morphism, pbij_counts_by_rank


class PBijValidationError(InvcatError):
    def __init__(self, message: str, witness):
        self.witness = witness
        super().__init__(message)


class UnknownElementError(PBijValidationError):
    pass


class DuplicateDomainElementError(PBijValidationError):
    pass


class DuplicateCodomainElementError(PBijValidationError):
    pass


@dataclass(frozen=True, slots=True)
class FinSet:
    """A finite set of string labels with a name.  Labels are kept sorted,
    and also as a set, so membership is one lookup.  The hash is computed
    once, at construction, as hash((name, elements))."""

    name: str
    elements: tuple[str, ...]
    _hash: int = field(init=False, compare=False, repr=False)
    _members: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvcatError("object name must be non-empty")
        if any(not e for e in self.elements):
            raise InvcatError(f"empty element label in {self.name}")
        object.__setattr__(self, "_members", frozenset(self.elements))
        if len(self._members) != len(self.elements):
            raise InvcatError(f"duplicate element labels in {self.name}")
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        object.__setattr__(self, "_hash", hash((self.name, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, label: str) -> bool:
        return label in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinSet({self.name})"


def subset_finset(labels: Iterable[str]) -> FinSet:
    """The canonical FinSet carrying a subset: named by its elements, "0" if empty."""
    labels = tuple(sorted(labels))
    name = "{" + ",".join(labels) + "}" if labels else "0"
    return FinSet(name, labels)


ZERO_FINSET = subset_finset(())


def make_pbij(dom: FinSet, cod: FinSet, pairs: Iterable[tuple[str, str]], name: str | None = None) -> Morphism:
    """Validate pairs as a partial bijection dom ⇀ cod and build the morphism."""
    pairs = tuple(pairs)  # read once: an iterator is used up by the checks
    seen_x: set[str] = set()
    seen_y: set[str] = set()
    for x, y in pairs:
        if x not in dom:
            raise UnknownElementError(f"{x!r} is not an element of {dom.name}", x)
        if y not in cod:
            raise UnknownElementError(f"{y!r} is not an element of {cod.name}", y)
        if x in seen_x:
            raise DuplicateDomainElementError(f"{x!r} is mapped twice", x)
        if y in seen_y:
            raise DuplicateCodomainElementError(f"{y!r} is hit twice", y)
        seen_x.add(x)
        seen_y.add(y)
    return Morphism(dom, cod, frozenset(pairs), name)


def pbij_pairs(f: Morphism) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(f.payload))


def mapping(f: Morphism) -> dict[str, str]:
    return dict(f.payload)


def image_labels(f: Morphism) -> tuple[str, ...]:
    return tuple(sorted(y for _, y in f.payload))


def undefined_labels(f: Morphism) -> tuple[str, ...]:
    taken = {x for x, _ in f.payload}
    return tuple(x for x in f.dom.elements if x not in taken)


def unhit_labels(f: Morphism) -> tuple[str, ...]:
    hit = {y for _, y in f.payload}
    return tuple(y for y in f.cod.elements if y not in hit)


def compose_pbij(f: Morphism, g: Morphism) -> Morphism:
    # g first, then f
    fm = dict(f.payload)
    pairs = frozenset((x, fm[y]) for x, y in g.payload if y in fm)
    return Morphism(g.dom, f.cod, pairs)


def pbij_code(f: Morphism) -> str:
    """The code of f: "\\0", then one character per element of dom, in
    order: chr of the 1-based position in cod of its image, "\\0" where f
    is undefined.  Within one hom-set the code determines f.  A code is its
    own str.translate table: code_g.translate(code_f) is the code of f∘g,
    code g read through code f a character at a time, in C."""
    position = {y: chr(n) for n, y in enumerate(f.cod.elements, 1)}
    image = dict(f.payload)
    return "\0" + "".join(position[image[x]] if x in image else "\0" for x in f.dom.elements)


def invert_pbij(f: Morphism) -> Morphism:
    return Morphism(f.cod, f.dom, frozenset((y, x) for x, y in f.payload))


def identity_pbij(a: FinSet) -> Morphism:
    return Morphism(a, a, frozenset((x, x) for x in a.elements))


def zero_pbij(a: FinSet, b: FinSet) -> Morphism:
    return Morphism(a, b, frozenset())


def partial_identity(a: FinSet, labels: Iterable[str]) -> Morphism:
    labels = set(labels)
    missing = labels - set(a.elements)
    if missing:
        raise UnknownElementError(f"{sorted(missing)!r} not elements of {a.name}", sorted(missing))
    return Morphism(a, a, frozenset((x, x) for x in labels))


def projection_labels(p: Morphism) -> tuple[str, ...]:
    return tuple(sorted(x for x, _ in p.payload))


def inclusion(a: FinSet, labels: Iterable[str]) -> Morphism:
    """The canonical mono S ↪ a on the subset S of a's labels."""
    sub = subset_finset(labels)
    missing = set(sub.elements) - set(a.elements)
    if missing:
        raise UnknownElementError(f"{sorted(missing)!r} not elements of {a.name}", sorted(missing))
    return Morphism(sub, a, frozenset((x, x) for x in sub.elements))


def corestriction(a: FinSet, labels: Iterable[str]) -> Morphism:
    """The canonical epi a ⇀ S, the partial identity onto the subset S."""
    sub = subset_finset(labels)
    missing = set(sub.elements) - set(a.elements)
    if missing:
        raise UnknownElementError(f"{sorted(missing)!r} not elements of {a.name}", sorted(missing))
    return Morphism(a, sub, frozenset((x, x) for x in sub.elements))


def hom_count(m: int, n: int) -> int:
    """Number of partial bijections from an m-set to an n-set."""
    return sum(pbij_counts_by_rank(m, n))


def enumerate_pbij(a: FinSet, b: FinSet) -> tuple[Morphism, ...]:
    """All partial bijections a ⇀ b, sorted by their sorted pair list."""
    out = []
    for k in range(min(len(a), len(b)) + 1):
        for xs in itertools.combinations(a.elements, k):
            for ys in itertools.permutations(b.elements, k):
                out.append(Morphism(a, b, frozenset(zip(xs, ys))))
    out.sort(key=lambda f: tuple(sorted(f.payload)))
    return tuple(out)


# ---- closed forms ------------------------------------------------------


def image_subset(f: Morphism, labels: Iterable[str]) -> tuple[str, ...]:
    fm = mapping(f)
    return tuple(sorted(fm[x] for x in labels if x in fm))


def preimage_subset(f: Morphism, labels: Iterable[str]) -> tuple[str, ...]:
    wanted = set(labels)
    return tuple(sorted(x for x, y in f.payload if y in wanted))


def inverse_image_subset(f: Morphism, labels: Iterable[str]) -> tuple[str, ...]:
    """Preimage of the subset, together with everything where f is undefined."""
    return tuple(sorted(set(preimage_subset(f, labels)) | set(undefined_labels(f))))


def annihilator_pbij(f: Morphism) -> Morphism:
    return partial_identity(f.dom, undefined_labels(f))


# ---- the category ------------------------------------------------------


class PBijCategory(FiniteCategory):
    """The category of the declared finite sets and all partial bijections.

    Hom-sets, composition and involution also work for undeclared FinSets
    (canonical subset carriers show up as kernel and image objects); the
    declared objects only bound quantification in the checking suites.
    """

    has_involution_rule = True

    def __init__(self, sets: Iterable[FinSet]):
        sets = list(sets)
        zero = next((s for s in sets if len(s) == 0), None)
        if zero is None:
            zero = ZERO_FINSET
            sets.insert(0, zero)
        super().__init__(sets, zero)

    def _hom(self, a: FinSet, b: FinSet) -> tuple[Morphism, ...]:
        return enumerate_pbij(a, b)

    def _hom_size(self, a: FinSet, b: FinSet) -> int:
        return hom_count(len(a), len(b))

    def _empty_table(self) -> None:
        super()._empty_table()
        # _codes[i] is pbij_code(morphisms_by_id[i]).  _joined[(a, b)] is
        # the codes of hom(a, b), joined in hom order, and the slices that
        # cut it back into codes.
        # _code_ids[(a, b)] maps the code of a model composite a → b to its
        # id; a clone's override never enters it.
        self._codes: dict = {}
        self._joined: dict = {}
        self._code_ids: dict = {}

    def _compose(self, f: Morphism, g: Morphism) -> Morphism:
        return compose_pbij(f, g)

    def _code(self, i: int) -> str:
        code = self._codes.get(i)
        if code is None:
            code = self._codes[i] = pbij_code(self.morphisms_by_id[i])
        return code

    def _compose_rule_id(self, i: int, j: int) -> int:
        # the model composes each distinct composite once per category
        code = self._code(j).translate(self._code(i))
        f, g = self.morphisms_by_id[i], self.morphisms_by_id[j]
        ids = self._code_ids.setdefault((g.dom, f.cod), {})
        k = ids.get(code)
        if k is None:
            k = ids[code] = self.intern(self._compose(f, g))
            self._codes.setdefault(k, code)
        return k

    def _compose_block_ids(self, i: int, a: FinSet, js: tuple[int, ...]) -> list[int]:
        # one translate gives the code of every composite of the block; a
        # code not yet known goes to the pair rule, which composes the
        # composite and records its code, so a repeated new code is composed once
        f = self.morphisms_by_id[i]
        key = (a, f.dom)
        if key not in self._joined:
            n = len(a) + 1
            self._joined[key] = "".join(map(self._code, js)), [slice(n * k, n * k + n) for k in range(len(js))]
        codes, cuts = self._joined[key]
        composites = codes.translate(self._code(i))
        ids = self._code_ids.setdefault((a, f.cod), {})
        ks = list(map(ids.get, map(composites.__getitem__, cuts)))
        if None in ks:
            for n, k in enumerate(ks):
                if k is None:
                    ks[n] = self._compose_rule_id(i, js[n])
        return ks

    def _involve(self, f: Morphism) -> Morphism:
        return invert_pbij(f)

    def identity(self, a: FinSet) -> Morphism:
        return identity_pbij(a)

    def _kernel(self, f: Morphism, left: bool) -> Morphism:
        # the inclusion of the subset where f is undefined, or the
        # corestriction of cod(f) onto the labels f does not hit
        return inclusion(f.dom, undefined_labels(f)) if left else corestriction(f.cod, unhit_labels(f))

    def _factorization(self, f: Morphism) -> Morphism:
        # f corestricted onto its image; f∘q* is the inclusion of the image
        return Morphism(f.dom, subset_finset(image_labels(f)), f.payload)

    def finset(self, name: str) -> FinSet:
        for s in self.objects:
            if s.name == name:
                return s
        raise InvcatError(f"no object named {name!r}")


def size_finset(k: int) -> FinSet:
    """Canonical k-element object: S<k> with elements e1..ek ("0" when empty)."""
    if k == 0:
        return ZERO_FINSET
    return FinSet(f"S{k}", tuple(f"e{i}" for i in range(1, k + 1)))


def canonical_pbij_category(sizes: Iterable[int]) -> PBijCategory:
    return PBijCategory([size_finset(k) for k in sorted(set(sizes))])
