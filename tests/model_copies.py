"""Copies of a category for the tests: single-entry clones with a seeded
defect, a hook-free table copy of any model, and a table rebuilt with
entries missing from construction on."""

import itertools

from invcat import TableCategory


def endomorphism_clones(base):
    """One clone of base per composable pair of endomorphisms, with the
    composite replaced by another member of its hom-set."""
    for a in base.objects:
        for f in base.hom(a, a):
            for g in base.hom(a, a):
                fg = base.compose(f, g)
                wrong = next((m for m in base.hom(a, a) if m != fg), None)
                if wrong is not None:
                    yield base.with_corrupted_composition(f, g, wrong)


def involution_clones(base):
    """One clone of base per endomorphism, with its involution replaced by
    another member of its hom-set."""
    for a in base.objects:
        for f in base.hom(a, a):
            star = base.involve(f)
            wrong = next((m for m in base.hom(a, a) if m != star), None)
            if wrong is not None:
                yield base.with_corrupted_involution(f, wrong)


def single_entry_clones(base):
    """One clone of base per composable pair (f, g) and per other member of
    the hom-set of f∘g, with that member as the composite; then one per
    morphism f and per other member of the hom-set of f*, as its involution."""
    objects = base.objects
    for a, b, c in itertools.product(objects, repeat=3):
        for f, g in itertools.product(base.hom(b, c), base.hom(a, b)):
            fg = base.compose(f, g)
            yield from (base.with_corrupted_composition(f, g, m) for m in base.hom(a, c) if m != fg)
    for a, b in itertools.product(objects, repeat=2):
        for f in base.hom(a, b):
            star = base.involve(f)
            yield from (base.with_corrupted_involution(f, m) for m in base.hom(b, a) if m != star)


def to_table(cat, zero_object=None) -> TableCategory:
    """cat copied into a TableCategory, which has no model hooks: its
    hom-sets, the composite of every composable pair of members and every
    member's involution, read from cat's own id table (so a clone's
    overrides carry over), and its identities; its zero object unless
    another is given."""
    objects = cat.objects
    homs = {(a, b): cat.hom_ids(a, b) for a, b in itertools.product(objects, repeat=2)}
    rows = {}
    for a, b, c in itertools.product(objects, repeat=3):
        for f in homs[b, c]:
            rows.setdefault(f, {}).update(zip(homs[a, b], cat.compose_ids(f, homs[a, b])))
    involution = {i: cat.involve_id(i) for ids in homs.values() for i in ids}
    identities = {a: cat.identity_id(a) for a in objects}
    morphisms = list(cat.morphisms_by_id)
    return TableCategory.from_ids(
        objects,
        morphisms,
        homs,
        [rows.get(i, {}) for i in range(len(morphisms))],
        identities,
        involution,
        cat.zero_object if zero_object is None else zero_object,
    )


def morphism_tables(cat) -> tuple[dict, dict | None]:
    """The composition and involution tables of a table category, keyed by
    morphisms, as its morphism-keyed constructor takes them: every entry of
    its id table, and its involution when it was given one."""
    by_id = cat.morphisms_by_id
    table = {(by_id[i], by_id[j]): by_id[k] for i, row in enumerate(cat.rows) for j, k in row.items()}
    if not cat.has_involution_rule:
        return table, None
    return table, {by_id[i]: by_id[k] for i, k in cat._involution_ids.items()}


def table_lacking(cat, pairs=(), stars=()) -> TableCategory:
    """A table category's table built again through the morphism-keyed
    constructor, less the composites of `pairs` and the involutions of
    `stars`: a table that lacks those entries from construction on."""
    table, involution = morphism_tables(cat)
    for pair in pairs:
        del table[pair]
    for f in stars:
        del involution[f]
    return TableCategory(cat.objects, cat._homs, table, cat._identities, involution, cat.zero_object)


def table_with(cat, composites) -> TableCategory:
    """A copy of a table category whose table gives h as f∘g for each
    (f, g): h of `composites`, whatever the hom-set of h: the id table is
    taken over as given, and no clause checks the shape of a composite."""
    rows = [dict(row) for row in cat.rows]
    for (f, g), h in composites.items():
        rows[cat.intern(f)][cat.intern(g)] = cat.intern(h)
    objects = cat.objects
    return TableCategory.from_ids(
        objects,
        cat.morphisms_by_id,
        {(a, b): cat.hom_ids(a, b) for a in objects for b in objects},
        rows,
        {a: cat.identity_id(a) for a in objects},
        dict(cat._involution_ids) if cat.has_involution_rule else None,
        cat.zero_object,
    )
