"""Kernels, cokernels, mono-epi factorization, pullback squares, and the
two exactness checklists: the exactness axioms themselves (normal, conormal,
kernels, cokernels, factorization) against the annihilator-based account
(annihilators exist and are unique, projections closed, projections factor),
with the biconditional between the two verdicts checked last.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import eq, itemgetter, mul
from typing import Iterable, Iterator

from .core import (
    Budget,
    Enumeration,
    FiniteCategory,
    InvcatError,
    Morphism,
    build_report,
    render_morphism,
)
from .projections import (
    NotBaerStarError,
    _killed,
    annihilator,
    annihilator_clauses,
    projection_cases,
)
from .report import FAIL, PASS, Clause, MissingConstructionError, VerificationReport, run_clause


class NoKernelError(InvcatError, MissingConstructionError):
    def __init__(self, f: Morphism, reason: str):
        self.morphism = f
        super().__init__(f"no kernel for {render_morphism(f)}: {reason}")


class NoCokernelError(InvcatError, MissingConstructionError):
    def __init__(self, f: Morphism, reason: str):
        self.morphism = f
        super().__init__(f"no cokernel for {render_morphism(f)}: {reason}")


class NoFactorizationError(InvcatError, MissingConstructionError):
    def __init__(self, f: Morphism):
        self.morphism = f
        super().__init__(f"{render_morphism(f)} has no mono-epi factorization")


class NonCommutingSquareError(InvcatError):
    pass


class NotMonoError(InvcatError):
    pass


# ---- mono / epi ---------------------------------------------------------


def is_mono(cat: FiniteCategory, f: Morphism) -> bool:
    """f*∘f = id; equivalent to left cancellability (cross-checked in tests)."""
    return cat.compose_id(cat.involve_id(i := cat.intern(f)), i) == cat.identity_id(f.dom)


def is_epi(cat: FiniteCategory, f: Morphism) -> bool:
    return cat.compose_id(i := cat.intern(f), cat.involve_id(i)) == cat.identity_id(f.cod)


def is_iso(cat: FiniteCategory, f: Morphism) -> bool:
    return is_mono(cat, f) and is_epi(cat, f)


def is_mono_by_cancellation(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> bool:
    return _cancellable(cat, f, enum, left=True)


def is_epi_by_cancellation(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> bool:
    return _cancellable(cat, f, enum, left=False)


def _cancellable(cat: FiniteCategory, f: Morphism, enum: Enumeration, left: bool) -> bool:
    """Whether x ↦ f∘x (left) or x ↦ x∘f is injective on every enumerated
    pool it applies to, on morphism ids, stopping at the first
    repeated composite."""
    fi, compose_id = cat.intern(f), cat.compose_id
    for w in cat.objects:
        seen: dict = {}
        for x in enum.pool_ids(w, f.dom) if left else enum.pool_ids(f.cod, w):
            composite = compose_id(fi, x) if left else compose_id(x, fi)
            if seen.setdefault(composite, x) != x:
                return False
    return True


# ---- kernels and cokernels ----------------------------------------------


def kernel_witness(cat: FiniteCategory, f: Morphism, u: Morphism, enum: Enumeration) -> str | None:
    """None when u satisfies the kernel universal property for f: f∘u = 0 and
    every g with f∘g = 0 factors through u exactly once."""
    if u.cod != f.dom:
        return f"{render_morphism(u)} does not land in dom(f)"
    if not cat.is_zero(cat.compose(f, u)):
        return f"f∘u ≠ 0 for u = {render_morphism(u)}"
    return _unique_factorization_witness(cat, f, u, enum, left=True)


def cokernel_witness(cat: FiniteCategory, f: Morphism, q: Morphism, enum: Enumeration) -> str | None:
    if q.dom != f.cod:
        return f"{render_morphism(q)} does not start at cod(f)"
    if not cat.is_zero(cat.compose(q, f)):
        return f"q∘f ≠ 0 for q = {render_morphism(q)}"
    return _unique_factorization_witness(cat, f, q, enum, left=False)


def _unique_factorization_witness(
    cat: FiniteCategory, f: Morphism, u: Morphism, enum: Enumeration, left: bool
) -> str | None:
    """The first g killed by f (f∘g = 0 if left, else g∘f = 0) that is not u∘h
    (h∘u) for exactly one h, or None, visiting w, then g, in pool order.

    Works on morphism ids: the killed g of each (f, w, side) and
    the factorization counts of each (u, w, side) are built once per run; a
    failing g is rendered from its pool, by position."""
    fi, ui = cat.intern(f), cat.intern(u)
    for w in cat.objects:
        hits = enum.cached(_killed, (fi, w, left))[1]
        if not hits:
            continue
        ways = enum.cached(_factorization_counts, (ui, w, left))
        a, b = (w, f.dom) if left else (f.cod, w)
        ids = enum.pool_ids(a, b)
        for k in hits:
            count = ways[ids[k]]
            if count != 1:
                return f"{render_morphism(enum.pool(a, b)[k])} factors through {render_morphism(u)} in {count} ways"
    return None


def _factorization_counts(cat: FiniteCategory, key, enum: Enumeration) -> Counter:
    """How many h give each composite id: u∘h for h: w → dom u when left,
    h∘u for h: cod u → w otherwise."""
    u, w, left = key
    m = cat.morphisms_by_id[u]
    if left:
        return Counter(cat.compose_ids(u, cat.hom_ids(w, m.dom)))
    return Counter(cat.precompose_ids(u, cat.hom_ids(m.cod, w)))


def kernel(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Morphism:
    """The canonical kernel of f: the first mono u, among the model's
    proposal and then the run's pools, with kernel_witness(f, u) None.
    Found once per run, or NoKernelError."""
    return enum.cached(_universal, (f, True))


def cokernel(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Morphism:
    """The canonical cokernel of f, found by cokernel_witness as the kernel
    is, or NoCokernelError."""
    return enum.cached(_universal, (f, False))


def _candidates(proposal: Morphism | None, pools: Iterable) -> Iterator[Morphism]:
    """The model's proposal, if there is one, then the members of each pool
    in pool order; a pool is enumerated only when the search reaches it."""
    return chain(() if proposal is None else (proposal,), chain.from_iterable(pools))


def _universal(cat: FiniteCategory, key, enum: Enumeration) -> Morphism:
    """The kernel of f (left) or its cokernel: the first candidate, the
    model's proposal and then the pools by w, that is a mono (epi) with the
    universal property on the table under test."""
    f, left = key
    is_side, witness_of = (is_mono, kernel_witness) if left else (is_epi, cokernel_witness)
    pools = (enum.pool(w, f.dom) if left else enum.pool(f.cod, w) for w in cat.objects)
    for u in _candidates(cat._kernel(f, left), pools):
        if is_side(cat, u) and witness_of(cat, f, u, enum) is None:
            return u
    error = NoKernelError if left else NoCokernelError
    raise error(f, f"no enumerated {'mono' if left else 'epi'} has the universal property")


# ---- factorization -------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """f = p∘q with p mono and q epi, through p.dom = q.cod."""

    p: Morphism
    q: Morphism


def mono_epi_factorize(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Factorization:
    """Found and checked once per run, or NoFactorizationError."""
    return enum.cached(_checked_factorization, f)


def _checked_factorization(cat: FiniteCategory, f: Morphism, enum: Enumeration) -> Factorization:
    """The first candidate q out of dom f, the model's proposal and then the
    pools in pool order, that is an epi with p = f∘q* mono and p∘q = f: on an
    associative table p∘q = f gives p = p∘q∘q* = f∘q*."""
    for q in _candidates(cat._factorization(f), (enum.pool(f.dom, mid) for mid in cat.objects)):
        if is_epi(cat, q):
            p = cat.compose(f, cat.involve(q))
            if is_mono(cat, p) and cat.compose(p, q) == f:
                return Factorization(p, q)
    raise NoFactorizationError(f)


def _iso(cat: FiniteCategory, x: Morphism, y: Morphism, left: bool) -> Morphism | None:
    """An iso j with y∘j = x (left), when monos x and y present the same
    subobject, or with j∘x = y, when epis x and y present the same quotient."""
    if (x.cod != y.cod) if left else (x.dom != y.dom):
        return None
    j = cat.compose(cat.involve(y), x) if left else cat.compose(y, cat.involve(x))
    if is_iso(cat, j) and (cat.compose(y, j) == x if left else cat.compose(j, x) == y):
        return j
    return None


def _same(cat: FiniteCategory, x: Morphism, y: Morphism, left: bool) -> bool:
    """Whether monos x and y into one object present the same subobject
    (left), or epis x and y out of one object the same quotient: they are
    equal or differ by an iso."""
    return x == y or _iso(cat, x, y, left) is not None


# ---- pullback squares -----------------------------------------------------


@dataclass(frozen=True)
class CommutingSquare:
    """A square with vertex dom(left) = dom(top):

        .   --top-->    .
        |left           |right
        v               v
        .   --bottom--> .
    """

    top: Morphism
    left: Morphism
    right: Morphism
    bottom: Morphism

    def __post_init__(self) -> None:
        if self.left.dom != self.top.dom:
            raise NonCommutingSquareError("left and top legs start at different objects")
        if self.bottom.dom != self.left.cod:
            raise NonCommutingSquareError("bottom leg does not start where left ends")
        if self.right.dom != self.top.cod:
            raise NonCommutingSquareError("right leg does not start where top ends")
        if self.bottom.cod != self.right.cod:
            raise NonCommutingSquareError("bottom and right legs end at different objects")


def pullback_witness(cat: FiniteCategory, square: CommutingSquare, enum: Enumeration) -> str | None:
    """None when the square is a pullback: every cone (x, y) with
    bottom∘x = right∘y is mediated by exactly one morphism into the vertex.

    Works on morphism ids and decides by two counts over every object w at
    once: the cones, and the pairs (left∘m, top∘m) that have exactly one m
    and are cones; the square is a pullback exactly when they are equal.
    Their tables are kept once per run, by morphism id.  A square whose
    counts differ, or whose count raises, is walked cone by cone to its
    first failing cone, which the walk words; the count reads no composite
    outside the hom-sets the walk reads, so the walk raises the same error
    unless a failing cone comes first."""
    left, top = cat.intern(square.left), cat.intern(square.top)
    right, bottom = cat.intern(square.right), cat.intern(square.bottom)
    if cat.compose_id(bottom, left) != cat.compose_id(right, top):
        raise NonCommutingSquareError(
            f"square does not commute: bottom∘left ≠ right∘top for bottom = "
            f"{render_morphism(square.bottom)}, left = {render_morphism(square.left)}"
        )
    try:
        if _each_cone_mediated_once(enum, left, top, right, bottom):
            return None
    except InvcatError:
        pass  # a missing entry: the walk reaches it, unless a failing cone comes first
    return _first_failing_cone(cat, square, left, top, right, bottom)


def _each_cone_mediated_once(enum: Enumeration, left: int, top: int, right: int, bottom: int) -> bool:
    """Whether the cones, over every object w at once, are as many as the
    pairs (left∘m, top∘m) that have exactly one m and are cones.  The
    cones are counted as Σ_z |{x : bottom∘x = z}|·|{y : right∘y = z}|, and
    a pair (x, y) is a cone when rows[bottom][x] = rows[right][y].  Over
    every w at once is the same as w by w, since every composite read
    lies in the hom-set of its w; where one does not, the count declines
    (False)."""
    singles = enum.cached(_single_pairs, (left, top))
    bz, rz = enum.cached(_composites, bottom), enum.cached(_composites, right)
    if singles is None or bz is None or rz is None:
        return False
    if len(rz) < len(bz):
        bz, rz = rz, bz
    cones = sum(map(mul, bz.values(), map(rz.get, bz, repeat(0))))
    xs, ys = singles
    rows = enum.cat.rows
    return cones == sum(map(eq, map(rows[bottom].__getitem__, xs), map(rows[right].__getitem__, ys)))


def _single_pairs(cat: FiniteCategory, key, enum: Enumeration) -> tuple | None:
    """For key (left, top): the ids x and y of the pairs (x, y) = (left∘m,
    top∘m) given by exactly one m into dom left, from any object, as two
    lists; None when _composites is None for either."""
    left, top = key
    if enum.cached(_composites, left) is None or enum.cached(_composites, top) is None:
        return None
    vertex = cat.morphisms_by_id[left].dom
    ms = list(chain.from_iterable(cat.hom_ids(w, vertex) for w in cat.objects))
    pairs = Counter(zip(map(cat.rows[left].__getitem__, ms), map(cat.rows[top].__getitem__, ms)))
    singles = [pair for pair, n in pairs.items() if n == 1]
    return list(map(itemgetter(0), singles)), list(map(itemgetter(1), singles))


def _composites(cat: FiniteCategory, i: int, enum: Enumeration) -> Counter | None:
    """How many x: w → dom i, over every object w, give each composite i∘x,
    every one of them read into row i of the table; None when one lies
    outside hom(w, cod i)."""
    m = cat.morphisms_by_id[i]
    counts: Counter = Counter()
    for w in cat.objects:
        zs = cat.compose_ids(i, cat.hom_ids(w, m.dom))
        if not enum.cached(_hom_id_set, (w, m.cod)).issuperset(zs):
            return None
        counts.update(zs)
    return counts


def _hom_id_set(cat: FiniteCategory, key, enum: Enumeration) -> frozenset:
    """The ids of hom(a, b), for key (a, b), as a set."""
    return frozenset(cat.hom_ids(*key))


def _first_failing_cone(cat: FiniteCategory, square: CommutingSquare, left, top, right, bottom) -> str | None:
    """The first cone without exactly one mediator, visiting w, then y, then
    x, each in hom order, or None; its tables are built here, w by w, as
    the walk reaches them.  A failing cone's x and y are rendered from
    their hom-sets, by position."""
    a, b, vertex = square.bottom.dom, square.right.dom, square.left.dom
    compose_ids = cat.compose_ids
    for w in cat.objects:
        ms = cat.hom_ids(w, vertex)
        mediators = Counter(zip(compose_ids(left, ms), compose_ids(top, ms)))
        xs, fibres = cat.hom_ids(w, a), {}
        for xi, z in zip(xs, compose_ids(bottom, xs)):
            fibres.setdefault(z, []).append(xi)
        ys = cat.hom_ids(w, b)
        for k, (yi, z) in enumerate(zip(ys, compose_ids(right, ys))):
            for xi in fibres.get(z, ()):
                count = mediators[xi, yi]
                if count != 1:
                    x, y = cat.hom(w, a)[xs.index(xi)], cat.hom(w, b)[k]
                    return (
                        f"cone x = {render_morphism(x)}, y = {render_morphism(y)} "
                        f"has {count} mediating morphisms"
                    )
    return None


def is_pullback(cat: FiniteCategory, square: CommutingSquare, enum: Enumeration) -> bool:
    return pullback_witness(cat, square, enum) is None


# ---- the exactness checklists ---------------------------------------------


EXACTNESS_CLAUSE_IDS = (
    "exact.kernels",
    "exact.cokernels",
    "exact.normal",
    "exact.conormal",
    "exact.factorization",
)
BAER_SIDE_CLAUSE_IDS = (
    "baer.annihilator-exists",
    "baer.annihilator-unique",
    "baer.projections-closed",
    "baer.projection-factorization",
)


def _sided(enum: Enumeration, left: bool):
    """The enumerated monos (left) or epis, in enumeration order."""
    is_side = is_mono if left else is_epi
    return (f for f in enum.morphisms() if is_side(enum.cat, f))


# what each direction prints: the morphism, its construction, the annihilator
# it is the construction of, and what two of them present
_WORDS = {True: ("mono", "kernel", "(u*)′", "subobjects"), False: ("epi", "cokernel", "v′", "quotients")}


def exactness_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def exists(construct, f: Morphism):
        # the construction is found and certified, or it raises
        construct(cat, f, enum=enum)
        return None

    def normal(v: Morphism, left: bool):
        # the annihilator of u* (of v) is the natural candidate, then every
        # morphism out of cod u (into dom v), so the clause still decides
        # "is u a kernel at all"
        witness_of = kernel_witness if left else cokernel_witness
        try:
            natural = annihilator(cat, cat.involve(v) if left else v, enum)
        except NotBaerStarError:
            natural = None
        pools = (enum.pool(v.cod, w) if left else enum.pool(w, v.dom) for w in cat.objects)
        if any(witness_of(cat, h, v, enum) is None for h in _candidates(natural, pools)):
            return None
        side, construction = _WORDS[left][:2]
        return f"{side} {render_morphism(v)} is not the {construction} of any enumerated morphism"

    def mono_epi_criterion(f: Morphism):
        if is_mono(cat, f) != is_mono_by_cancellation(cat, f, enum):
            return f"mono criterion and cancellation disagree on {render_morphism(f)}"
        if is_epi(cat, f) != is_epi_by_cancellation(cat, f, enum):
            return f"epi criterion and cancellation disagree on {render_morphism(f)}"
        return None

    clauses = [
        run_clause("exact.kernels", "1.1", enum.morphisms(), lambda f: exists(kernel, f)),
        run_clause("exact.cokernels", "1.1", enum.morphisms(), lambda f: exists(cokernel, f)),
        run_clause("exact.normal", "1.1", _sided(enum, True), lambda u: normal(u, True)),
        run_clause("exact.conormal", "1.1", _sided(enum, False), lambda v: normal(v, False)),
        run_clause("exact.factorization", "1", enum.morphisms(), lambda f: exists(mono_epi_factorize, f)),
        run_clause("exact.mono-epi-criterion", "1", enum.morphisms(), mono_epi_criterion),
    ]

    clauses.extend(annihilator_clauses(enum))
    clauses.append(
        run_clause("baer.projection-factorization", "1.1", projection_cases(enum), lambda f: exists(mono_epi_factorize, f))
    )

    a_ok = all(c.status == PASS for c in clauses if c.clause_id in EXACTNESS_CLAUSE_IDS)
    b_ok = all(c.status == PASS for c in clauses if c.clause_id in BAER_SIDE_CLAUSE_IDS)
    if a_ok == b_ok:
        clauses.append(Clause("theorem.exact-iff-baer", "1.1", PASS, 1))
    else:
        clauses.append(
            Clause(
                "theorem.exact-iff-baer",
                "1.1",
                FAIL,
                1,
                f"exactness verdict {a_ok} but annihilator-side verdict {b_ok}",
            )
        )
    enum.details.update({
        "exact": a_ok,
        "baer-star-with-closed-projections": b_ok,
        "failing-clauses": [c.clause_id for c in clauses if c.status == FAIL],
    })
    return clauses


def check_exactness(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    """Run both checklists and the biconditional between their verdicts."""
    return build_report("exactness", cat, [exactness_clauses], budget)


# ---- coherence identities --------------------------------------------------


def normal_conormal_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def canonical(v: Morphism, left: bool):
        # u is the kernel of (u*)′ (v the cokernel of v′) and presents the same
        # subobject (quotient) as the canonical one
        witness_of, construct = (kernel_witness, kernel) if left else (cokernel_witness, cokernel)
        side, construction, of, presents = _WORDS[left]
        h = annihilator(cat, cat.involve(v) if left else v, enum)
        witness = witness_of(cat, h, v, enum)
        if witness is not None:
            return f"{side} {render_morphism(v)} is not the {construction} of {of}: {witness}"
        k = construct(cat, h, enum=enum)
        if not _same(cat, v, k, left):
            return (
                f"{side} {render_morphism(v)} and canonical {construction} {render_morphism(k)} "
                f"present different {presents}"
            )
        return None

    return [
        run_clause("coherence.mono-is-kernel", "1.1", _sided(enum, True), lambda u: canonical(u, True)),
        run_clause("coherence.epi-is-cokernel", "1.1", _sided(enum, False), lambda v: canonical(v, False)),
    ]


def check_normal_conormal(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    """Every mono is the kernel of the annihilator of its involution, and
    every epi is the cokernel of its own annihilator."""
    return build_report("normal-conormal", cat, [normal_conormal_clauses], budget)


def coherence_clauses(enum: Enumeration) -> list[Clause]:
    cat = enum.cat

    def kernel_annihilator(f: Morphism):
        u = kernel(cat, f, enum=enum)
        left = cat.compose(u, cat.involve(u))
        right = annihilator(cat, f, enum)
        if left != right:
            return f"ker(f)∘ker(f)* ≠ f′ for {render_morphism(f)}"
        return None

    def annihilator_part(f: Morphism, left: bool):
        # the mono part of f′ presents ker f, the epi part of (f*)′ coker f
        i = annihilator(cat, f if left else cat.involve(f), enum)
        factors = mono_epi_factorize(cat, i, enum)
        part = factors.p if left else factors.q
        k = (kernel if left else cokernel)(cat, f, enum=enum)
        if not _same(cat, part, k, left):
            side, name, of = ("mono", "f′", "ker") if left else ("epi", "(f*)′", "coker")
            return (
                f"{side} part of {name} is {render_morphism(part)} but {of} f is "
                f"{render_morphism(k)} for {render_morphism(f)}"
            )
        return None

    def kernel_cokernel_duality(f: Morphism):
        left = cokernel(cat, f, enum=enum)
        right = cat.involve(kernel(cat, cat.involve(f), enum=enum))
        if not _same(cat, left, right, False):
            return f"coker f ≠ (ker f*)* for {render_morphism(f)}"
        return None

    def image_via_projection(f: Morphism):
        ff_star = cat.compose(f, cat.involve(f))
        p_proj = mono_epi_factorize(cat, ff_star, enum).p
        p_f = mono_epi_factorize(cat, f, enum).p
        if not _same(cat, p_proj, p_f, True):
            return (
                f"mono part of f∘f* is {render_morphism(p_proj)} but image of f is "
                f"{render_morphism(p_f)} for {render_morphism(f)}"
            )
        return None

    return [
        run_clause("coherence.kernel-annihilator", "1.1", enum.morphisms(), kernel_annihilator),
        run_clause("coherence.annihilator-mono", "1.1", enum.morphisms(), lambda f: annihilator_part(f, True)),
        run_clause("coherence.coannihilator-epi", "1.1", enum.morphisms(), lambda f: annihilator_part(f, False)),
        run_clause("coherence.kernel-cokernel-duality", "1.1", enum.morphisms(), kernel_cokernel_duality),
        run_clause("coherence.image-via-projection", "1.1", enum.morphisms(), image_via_projection),
    ]


def check_coherence(cat: FiniteCategory, budget: Budget | None = None) -> VerificationReport:
    """The construction identities tying kernels, cokernels, annihilators and
    factorizations together, plus the normality and conormality witnesses."""
    return build_report("coherence", cat, [coherence_clauses, normal_conormal_clauses], budget)
