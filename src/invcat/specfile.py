"""Category spec files: a small JSON format describing either an explicit
finite collection of partial bijections (saturated into a category), or a
generator directive ("all-pbij" over given sizes, or "inverse-monoid" from a
Cayley table)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .core import Budget, BudgetExceededError, FiniteCategory, InvcatError, Morphism, TableCategory
from .monoid import InverseMonoid, two_object_category, validate_inverse_monoid
from .pbij import (
    ZERO_FINSET,
    FinSet,
    PBijValidationError,
    canonical_pbij_category,
    compose_pbij,
    identity_pbij,
    invert_pbij,
    make_pbij,
    pbij_code,
    pbij_pairs,
    precomposer,
    zero_pbij,
)

SPEC_FORMAT_VERSION = 1

GENERATOR_KINDS = ("all-pbij", "inverse-monoid")


class SpecFormatError(InvcatError):
    pass


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    elements: tuple[str, ...]


@dataclass(frozen=True)
class MorphismSpec:
    name: str
    dom: str
    cod: str
    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    sizes: tuple[int, ...] = ()
    elements: tuple[str, ...] = ()
    identity: str = ""
    table: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class CategorySpec:
    objects: tuple[ObjectSpec, ...] = ()
    morphisms: tuple[MorphismSpec, ...] | None = None
    generators: GeneratorSpec | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecFormatError(message)


def _string_list(value, where: str) -> tuple[str, ...]:
    _require(isinstance(value, list), f"{where} must be a list")
    for entry in value:
        _require(isinstance(entry, str) and entry, f"{where} entries must be non-empty strings")
    return tuple(value)


def parse_spec(data) -> CategorySpec:
    _require(isinstance(data, dict), "spec must be a mapping")
    version = data.get("format-version")
    _require(
        version == SPEC_FORMAT_VERSION,
        f"unsupported format-version {version!r}, expected {SPEC_FORMAT_VERSION}",
    )
    known = {"format-version", "objects", "morphisms", "generators"}
    extra = set(data) - known
    _require(not extra, f"unknown spec fields: {sorted(extra)}")

    objects: list[ObjectSpec] = []
    seen_objects: dict[str, ObjectSpec] = {}
    # only null (or a missing field) stands for the empty list
    raw_objects = [] if data.get("objects") is None else data["objects"]
    _require(isinstance(raw_objects, list), "objects must be a list")
    for raw in raw_objects:
        _require(isinstance(raw, dict), "each object must be a mapping")
        name = raw.get("name")
        _require(isinstance(name, str) and name, "object name must be a non-empty string")
        _require(name not in seen_objects, f"duplicate object name {name!r}")
        elements = _string_list(raw.get("elements", []), f"elements of object {name!r}")
        _require(len(set(elements)) == len(elements), f"duplicate elements in object {name!r}")
        _require(
            name != "0" or not elements,
            'the object name "0" is reserved for the empty object',
        )
        _require(
            name == "0" or bool(elements),
            f"object {name!r} needs elements; only \"0\" may be empty",
        )
        spec = ObjectSpec(name, elements)
        seen_objects[name] = spec
        objects.append(spec)

    has_morphisms = "morphisms" in data
    has_generators = "generators" in data
    _require(
        has_morphisms != has_generators,
        "spec needs exactly one of 'morphisms' and 'generators'",
    )

    if has_generators:
        raw = data["generators"]
        _require(isinstance(raw, dict), "generators must be a mapping")
        kind = raw.get("kind")
        _require(kind in GENERATOR_KINDS, f"generator kind must be one of {GENERATOR_KINDS}")
        if kind == "all-pbij":
            extra = set(raw) - {"kind", "sizes"}
            _require(not extra, f"unknown all-pbij fields: {sorted(extra)}")
            sizes = raw.get("sizes")
            _require(
                isinstance(sizes, list) and sizes, "all-pbij needs a non-empty list of sizes"
            )
            for n in sizes:
                # JSON true and false load as bool, a subclass of int
                _require(type(n) is int and 0 <= n, f"bad size {n!r}")
            gen = GeneratorSpec("all-pbij", sizes=tuple(sizes))
        else:
            gen = _cayley_table(raw, {"kind"})
        return CategorySpec(tuple(objects), None, gen)

    _require(bool(objects), "explicit specs need at least one object")
    finsets = _finsets(objects)
    morphisms: list[MorphismSpec] = []
    seen_names: set[str] = set()
    raw_morphisms = [] if data["morphisms"] is None else data["morphisms"]
    _require(isinstance(raw_morphisms, list), "morphisms must be a list")
    for raw in raw_morphisms:
        _require(isinstance(raw, dict), "each morphism must be a mapping")
        name = raw.get("name")
        _require(isinstance(name, str) and name, "morphism name must be a non-empty string")
        _require(name not in seen_names, f"duplicate morphism name {name!r}")
        seen_names.add(name)
        dom, cod = raw.get("dom"), raw.get("cod")
        for side, label in (("dom", dom), ("cod", cod)):
            _require(
                isinstance(label, str) and label in seen_objects,
                f"morphism {name!r} has unknown {side} {label!r}",
            )
        raw_pairs = raw.get("pairs", [])
        _require(isinstance(raw_pairs, list), f"pairs of morphism {name!r} must be a list")
        pairs = []
        for entry in raw_pairs:
            _require(
                isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry),
                f"each pair of morphism {name!r} must be a [from, to] label pair",
            )
            pairs.append((entry[0], entry[1]))
        try:
            make_pbij(finsets[dom], finsets[cod], pairs)
        except PBijValidationError as err:
            raise SpecFormatError(f"morphism {name!r} is invalid: {err}") from err
        morphisms.append(MorphismSpec(name, dom, cod, tuple(sorted(pairs))))
    return CategorySpec(tuple(objects), tuple(morphisms), None)


def serialize_spec(spec: CategorySpec) -> dict:
    out: dict = {"format-version": SPEC_FORMAT_VERSION}
    if spec.objects:
        out["objects"] = [
            {"name": o.name, "elements": list(o.elements)} for o in spec.objects
        ]
    if spec.generators is not None:
        gen = spec.generators
        if gen.kind == "all-pbij":
            out["generators"] = {"kind": "all-pbij", "sizes": list(gen.sizes)}
        else:
            out["generators"] = {
                "kind": "inverse-monoid",
                "elements": list(gen.elements),
                "identity": gen.identity,
                "table": [list(row) for row in gen.table],
            }
    else:
        out["morphisms"] = [
            {
                "name": m.name,
                "dom": m.dom,
                "cod": m.cod,
                "pairs": [list(p) for p in sorted(m.pairs)],
            }
            for m in (spec.morphisms or ())
        ]
    return out


def dumps_spec(spec: CategorySpec) -> str:
    return json.dumps(serialize_spec(spec), indent=2, ensure_ascii=False)


def _json(text: str | bytes):
    """The JSON document in text, bytes read as UTF-8.  Input that is not
    UTF-8, not JSON, or nested too deeply to parse is a SpecFormatError."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SpecFormatError(f"not valid JSON: {err}") from err
    except RecursionError as err:
        raise SpecFormatError("not valid JSON: nested too deeply") from err


def loads_spec(text: str) -> CategorySpec:
    return parse_spec(_json(text))


def load_spec(path) -> CategorySpec:
    with open(path, "rb") as handle:
        return parse_spec(_json(handle.read()))


# ---- turning specs into categories ----------------------------------------


def _cayley_table(data, also_allowed: set) -> GeneratorSpec:
    """Shape-check a Cayley-table document {elements, identity, table}, the
    table row-major over the elements; validate_inverse_monoid does the algebra."""
    _require(isinstance(data, dict), "monoid table must be a mapping")
    extra = set(data) - {"elements", "identity", "table"} - also_allowed
    _require(not extra, f"unknown monoid fields: {sorted(extra)}")
    elements = _string_list(data.get("elements", []), "monoid elements")
    _require(bool(elements), "monoid needs elements")
    _require(len(set(elements)) == len(elements), "duplicate monoid elements")
    identity = data.get("identity")
    _require(isinstance(identity, str) and identity, "monoid needs an identity label")
    table = data.get("table")
    _require(
        isinstance(table, list) and len(table) == len(elements),
        "table must have one row per element",
    )
    rows = tuple(_string_list(row, "table row") for row in table)
    _require(all(len(row) == len(elements) for row in rows), "table rows must match element count")
    return GeneratorSpec("inverse-monoid", elements=elements, identity=identity, table=rows)


def _monoid_parts(gen: GeneratorSpec) -> tuple[tuple[str, ...], dict, str]:
    """(elements, {(x, y): xy}, identity): the arguments of validate_inverse_monoid."""
    table = {
        (x, y): gen.table[i][j]
        for i, x in enumerate(gen.elements)
        for j, y in enumerate(gen.elements)
    }
    return gen.elements, table, gen.identity


def monoid_from_generator(gen: GeneratorSpec) -> InverseMonoid:
    return validate_inverse_monoid(*_monoid_parts(gen))


def parse_monoid_table(data) -> tuple[tuple[str, ...], dict, str]:
    """Shape-check a Cayley-table document and return the pieces for
    validate_inverse_monoid."""
    return _monoid_parts(_cayley_table(data, set()))


def load_monoid_table(path) -> tuple[tuple[str, ...], dict, str]:
    with open(path, "rb") as handle:
        return parse_monoid_table(_json(handle.read()))


def _saturate(
    objects: tuple[FinSet, ...], seeds: list[Morphism], budget: Budget | None = None
) -> TableCategory:
    """Close the given partial bijections under identities, zero morphisms,
    involution and composition, and present the result as an explicit table.

    Each member is numbered when it is found, and each composable pair is
    composed once, on the string codes of its members (pbij_code,
    precomposer), when the later of the two leaves the frontier: its id is
    written into the id table.  A code names one member of its hom-set, so a
    Morphism is built only for a new member.  With a budget, a hom-set that
    grows past budget.homset_limit raises BudgetExceededError at once."""
    objs = list(objects)
    if ZERO_FINSET not in objs:
        objs.append(ZERO_FINSET)
    limit = budget.homset_limit if budget is not None else math.inf
    # objects by position: by_code[x][y] maps the code of each member from
    # objs[x] to objs[y] to its id, in order found
    position = {a: x for x, a in enumerate(objs)}
    by_code: list = [[{} for _ in objs] for _ in objs]
    morphisms: list[Morphism] = []
    rows: list[dict] = []
    # (id, dom position, cod position, code) of each member not yet composed
    frontier: list[tuple[int, int, int, str]] = []

    def add(m: Morphism, x: int, y: int, code: str | None = None) -> int:
        """The id of the member equal to m, from objs[x] to objs[y]; m is
        numbered when it is new."""
        code = pbij_code(m) if code is None else code
        members = by_code[x][y]
        k = members.get(code)
        if k is None:
            k = members[code] = len(morphisms)
            morphisms.append(m)
            rows.append({})
            frontier.append((k, x, y, code))
            if len(members) > limit:
                raise BudgetExceededError(len(members), m.dom, m.cod, at_least=True)
        return k

    identities = {}
    for x, a in enumerate(objs):
        identities[a] = add(identity_pbij(a), x, x)
        for y, b in enumerate(objs):
            add(zero_pbij(a, b), x, y)
    for m in seeds:
        add(m, position[m.dom], position[m.cod])

    # the members that have left the frontier: by dom, each with its cod
    # and the map that composes after it (precomposer), and by cod, each
    # with its dom and its code
    done_from: list = [[] for _ in objs]
    done_into: list = [[] for _ in objs]
    involution: dict = {}
    while frontier:
        m, x, y, code_m = frontier.pop()
        after_m = precomposer(code_m)
        done_from[x].append((m, y, after_m))
        done_into[y].append((m, x, code_m))
        involution[m] = add(invert_pbij(morphisms[m]), y, x)
        out_of_m = by_code[x]
        for n, z, after_n in done_from[y]:
            code = after_n(code_m)
            nm = out_of_m[z].get(code)
            rows[n][m] = nm if nm is not None else add(compose_pbij(morphisms[n], morphisms[m]), x, z, code)
        row_m = rows[m]
        for n, w, code_n in done_into[x]:
            if n != m:  # m∘m, for an endomorphism m, was made just above
                code = after_m(code_n)
                mn = by_code[w][y].get(code)
                row_m[n] = mn if mn is not None else add(compose_pbij(morphisms[m], morphisms[n]), w, y, code)

    return TableCategory.from_ids(
        objects=tuple(objs),
        morphisms=morphisms,
        homs={(a, b): members.values() for a, codes in zip(objs, by_code) for b, members in zip(objs, codes)},
        rows=rows,
        identities=identities,
        involution=involution,
        zero_object=ZERO_FINSET,
    )


def build_category(
    spec: CategorySpec, budget: Budget | None = None
) -> tuple[FiniteCategory, dict[str, Morphism]]:
    """Instantiate a spec.  Returns the category and the declared morphisms
    by name (empty for generator specs).  With a budget, saturating an
    explicit spec stops with BudgetExceededError as soon as one of its
    hom-sets is over budget.homset_limit."""
    if spec.generators is not None:
        if spec.generators.kind == "all-pbij":
            return canonical_pbij_category(spec.generators.sizes), {}
        cat = two_object_category(monoid_from_generator(spec.generators))
        named = {s: Morphism("X", "X", s) for s in spec.generators.elements}
        return cat, named

    finsets, named = declared_morphisms(spec)
    cat = _saturate(finsets, list(named.values()), budget)
    return cat, named


def _finsets(objects: Iterable[ObjectSpec]) -> dict[str, FinSet]:
    """The FinSet of each object by name, built once per spec."""
    return {o.name: FinSet(o.name, o.elements) if o.elements else ZERO_FINSET for o in objects}


def declared_morphisms(spec: CategorySpec) -> tuple[tuple[FinSet, ...], dict[str, Morphism]]:
    """The objects and the declared morphisms by name of an explicit spec,
    validated as partial bijections but not saturated."""
    finsets = _finsets(spec.objects)
    named = {
        m.name: make_pbij(finsets[m.dom], finsets[m.cod], m.pairs)
        for m in spec.morphisms or ()
    }
    return tuple(finsets.values()), named


def spec_from_category_fixture(objects: tuple[FinSet, ...], named: dict[str, Morphism]) -> CategorySpec:
    """Convenience for tests and docs: an explicit spec from concrete pieces."""
    return CategorySpec(
        objects=tuple(ObjectSpec(o.name, o.elements) for o in objects),
        morphisms=tuple(
            MorphismSpec(name, m.dom.name, m.cod.name, tuple(sorted(pbij_pairs(m))))
            for name, m in sorted(named.items())
        ),
        generators=None,
    )
