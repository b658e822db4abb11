import dataclasses
import json
import os
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import Phase, given, seed, settings, strategies as st

import invcat
import invcat.monoid
import invcat.specfile
from invcat import (
    Budget,
    BudgetExceededError,
    build_category,
    canonical_pbij_category,
    check_inverse_category,
    dumps_spec,
    load_monoid_table,
    load_spec,
    loads_spec,
    make_pbij,
    parse_spec,
    render_morphism,
    serialize_spec,
    symmetric_inverse_monoid,
    two_object_category,
)
from invcat.core import morphism_sort_key
from invcat.pbij import ZERO_FINSET, UnknownElementError, compose_pbij, identity_pbij, invert_pbij, zero_pbij
from invcat.specfile import (
    CategorySpec,
    GeneratorSpec,
    MorphismSpec,
    ObjectSpec,
    SpecFormatError,
    declared_morphisms,
    monoid_from_generator,
    parse_monoid_table,
    spec_from_category_fixture,
)
from model_copies import to_table
from test_golden import NOT_BAER_STAR, README_FIXTURE

FIXTURE_DOC = {
    "format-version": 1,
    "objects": [
        {"name": "A", "elements": ["1", "2", "3"]},
        {"name": "B", "elements": ["a", "b", "c"]},
    ],
    "morphisms": [
        {"name": "f", "dom": "A", "cod": "B", "pairs": [["1", "a"], ["2", "b"]]}
    ],
}


def test_a_large_spec_is_read_in_linear_time():
    # each label is looked up in its object's set, and each object's FinSet
    # is built once per spec: a scan of the labels per pair, or a FinSet per
    # morphism, made each half of this spec take seconds
    labels = [f"x{i}" for i in range(20_000)]
    doc = {
        "format-version": 1,
        "objects": [{"name": "A", "elements": labels}],
        "morphisms": [{"name": "id", "dom": "A", "cod": "A", "pairs": [[x, x] for x in labels]}]
        + [{"name": f"p{k}", "dom": "A", "cod": "A", "pairs": [[labels[k], labels[k]]]} for k in range(1_000)],
    }
    t0 = time.perf_counter()
    _, named = declared_morphisms(parse_spec(doc))
    elapsed = time.perf_counter() - t0
    assert len(named) == 1_001 and len(named["id"].payload) == 20_000
    assert elapsed < 2.0, elapsed


def test_parse_fixture_doc():
    spec = parse_spec(FIXTURE_DOC)
    assert [o.name for o in spec.objects] == ["A", "B"]
    assert spec.morphisms[0] == MorphismSpec("f", "A", "B", (("1", "a"), ("2", "b")))
    assert spec.generators is None


def test_pairs_are_normalized_sorted():
    doc = dict(FIXTURE_DOC)
    doc["morphisms"] = [
        {"name": "f", "dom": "A", "cod": "B", "pairs": [["2", "b"], ["1", "a"]]}
    ]
    assert parse_spec(doc) == parse_spec(FIXTURE_DOC)


FALSY_NON_LISTS = (False, 0, "", {})
ALL_PBIJ_1 = {"kind": "all-pbij", "sizes": [1]}


@pytest.mark.parametrize(
    "mutate,why",
    [
        (lambda d: d.update({"format-version": 2}), "wrong version"),
        (lambda d: d.pop("format-version"), "missing version"),
        (lambda d: d.update({"surprise": 1}), "unknown field"),
        (lambda d: d.update({"generators": {"kind": "all-pbij", "sizes": [1]}}),
         "morphisms and generators together"),
        (lambda d: d.pop("morphisms"), "neither morphisms nor generators"),
        (lambda d: d["objects"].append({"name": "A", "elements": ["9"]}),
         "duplicate object"),
        (lambda d: d["objects"].append({"name": "0", "elements": ["x"]}),
         "reserved empty-object name"),
        (lambda d: d["objects"].append({"name": "E", "elements": []}),
         "empty object with a non-reserved name"),
        (lambda d: d["objects"][0]["elements"].append("1"), "duplicate element"),
        (lambda d: d["morphisms"].append(
            {"name": "g", "dom": "Q", "cod": "B", "pairs": []}), "unknown dom"),
        (lambda d: d["morphisms"].append(
            {"name": "f", "dom": "A", "cod": "B", "pairs": []}), "duplicate name"),
        (lambda d: d["morphisms"][0]["pairs"].append(["3", "b"]),
         "pair reuses a codomain element"),
        (lambda d: d["morphisms"][0]["pairs"].append(["9", "c"]),
         "pair uses unknown label"),
        (lambda d: d.update({"objects": 5}), "objects not a list"),
        (lambda d: d.update({"objects": True}), "objects a boolean"),
        (lambda d: d.update({"morphisms": 7}), "morphisms not a list"),
        # only null or a missing field stands for an empty list
        *(
            (lambda d, v=v: d.update({"morphisms": v}), f"morphisms {v!r}")
            for v in FALSY_NON_LISTS
        ),
        *(
            (lambda d, v=v: (d.pop("morphisms"), d.update({"objects": v, "generators": ALL_PBIJ_1})),
             f"objects {v!r} in a generator doc")
            for v in FALSY_NON_LISTS
        ),
    ],
)
def test_invalid_docs_rejected(mutate, why):
    doc = json.loads(json.dumps(FIXTURE_DOC))
    mutate(doc)
    with pytest.raises(SpecFormatError):
        parse_spec(doc)


def test_null_or_missing_lists_are_empty():
    generated = {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": [1]}}
    assert parse_spec({**generated, "objects": None}) == parse_spec(generated)
    assert parse_spec({**FIXTURE_DOC, "morphisms": None}).morphisms == ()


def test_generator_docs():
    spec = parse_spec({"format-version": 1,
                       "generators": {"kind": "all-pbij", "sizes": [0, 2]}})
    assert spec.generators == GeneratorSpec("all-pbij", sizes=(0, 2))
    with pytest.raises(SpecFormatError):
        parse_spec({"format-version": 1, "generators": {"kind": "all-pbij", "sizes": []}})
    for flag in (True, False):  # JSON booleans are not sizes
        with pytest.raises(SpecFormatError):
            parse_spec({"format-version": 1,
                        "generators": {"kind": "all-pbij", "sizes": [flag, 2]}})
    with pytest.raises(SpecFormatError):
        parse_spec({"format-version": 1, "generators": {"kind": "wat"}})
    mono = parse_spec({
        "format-version": 1,
        "generators": {"kind": "inverse-monoid", "elements": ["1"], "identity": "1",
                        "table": [["1"]]},
    })
    assert monoid_from_generator(mono.generators).identity == "1"
    with pytest.raises(SpecFormatError):  # ragged table
        parse_spec({
            "format-version": 1,
            "generators": {"kind": "inverse-monoid", "elements": ["1", "a"],
                            "identity": "1", "table": [["1", "a"]]},
        })


labels = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=4)


@st.composite
def explicit_specs(draw):
    n_objects = draw(st.integers(min_value=1, max_value=3))
    # "0" is reserved for the empty object; rename it before asking for
    # uniqueness so that drawing both "0" and "o0" cannot yield a duplicate.
    object_names = labels.map(lambda name: "o0" if name == "0" else name)
    names = draw(st.lists(object_names, min_size=n_objects, max_size=n_objects,
                          unique=True))
    objects = []
    for name in names:
        els = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
        objects.append(ObjectSpec(name, tuple(els)))
    morphisms = []
    n_morphisms = draw(st.integers(min_value=0, max_value=2))
    for i in range(n_morphisms):
        dom = draw(st.sampled_from(objects))
        cod = draw(st.sampled_from(objects))
        k = draw(st.integers(min_value=0,
                             max_value=min(len(dom.elements), len(cod.elements))))
        xs = draw(st.permutations(list(dom.elements)))[:k]
        ys = draw(st.permutations(list(cod.elements)))[:k]
        morphisms.append(
            MorphismSpec(f"m{i}", dom.name, cod.name, tuple(sorted(zip(xs, ys))))
        )
    return CategorySpec(tuple(objects), tuple(morphisms), None)


@given(explicit_specs())
def test_round_trip_parse_serialize(spec):
    assert parse_spec(serialize_spec(spec)) == spec
    assert loads_spec(dumps_spec(spec)) == spec
    assert dumps_spec(spec) == dumps_spec(spec)


def test_round_trip_generator_specs():
    for doc in (
        {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": [1, 2]}},
        {"format-version": 1,
         "generators": {"kind": "inverse-monoid", "elements": ["1", "a"],
                         "identity": "1", "table": [["1", "a"], ["a", "1"]]}},
    ):
        spec = parse_spec(doc)
        assert parse_spec(serialize_spec(spec)) == spec


def test_build_category_explicit_saturates(budget):
    cat, named = build_category(parse_spec(FIXTURE_DOC))
    assert sorted(named) == ["f"]
    f = named["f"]
    assert f.payload == frozenset({("1", "a"), ("2", "b")})
    homs = cat.hom(f.dom, f.cod)
    assert f in homs
    assert cat.involve(f).payload == frozenset({("a", "1"), ("b", "2")})
    # closure keeps the axioms intact even though hom-sets are small
    assert check_inverse_category(cat, budget).passed
    assert len(homs) < 34  # decidedly not the full partial-bijection hom-set


def test_build_category_generators(budget):
    cat, named = build_category(
        parse_spec({"format-version": 1,
                    "generators": {"kind": "all-pbij", "sizes": [2]}})
    )
    assert named == {}
    sizes = sorted(len(o.elements) for o in cat.objects)
    assert sizes == [0, 2]

    cat2, named2 = build_category(
        parse_spec({"format-version": 1,
                    "generators": {"kind": "inverse-monoid", "elements": ["1", "a"],
                                    "identity": "1",
                                    "table": [["1", "a"], ["a", "1"]]}})
    )
    assert sorted(named2) == ["1", "a"]
    assert check_inverse_category(cat2, budget).passed


def test_file_loading(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FIXTURE_DOC), encoding="utf-8")
    assert load_spec(path) == parse_spec(FIXTURE_DOC)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpecFormatError):
        load_spec(bad)

    table = tmp_path / "monoid.json"
    table.write_text(json.dumps({
        "elements": ["1"], "identity": "1", "table": [["1"]],
    }), encoding="utf-8")
    elements, flat, identity = load_monoid_table(table)
    assert elements == ("1",) and identity == "1"
    assert flat[("1", "1")] == "1"
    with pytest.raises(SpecFormatError):
        load_monoid_table(bad)


# files that are not UTF-8 JSON at all: undecodable bytes, and nesting deeper
# than the parser recurses
UNREADABLE = {"non-utf8": b'\xff\xfe{"objects": []}', "deeply-nested": b"[" * 100_000}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_files_rejected(tmp_path, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[name])
    for load in (load_spec, load_monoid_table):
        with pytest.raises(SpecFormatError):
            load(path)


def test_deeply_nested_text_rejected():
    with pytest.raises(SpecFormatError, match="nested too deeply"):
        loads_spec("[" * 100_000)


def test_spec_from_category_fixture(A, B, f):
    spec = spec_from_category_fixture((A, B), {"f": f})
    assert parse_spec(serialize_spec(spec)) == spec
    cat, named = build_category(spec)
    assert named["f"].payload == f.payload


@pytest.mark.parametrize(
    "table",
    [
        {"elements": [], "identity": "1", "table": []},
        {"elements": ["1", "1"], "identity": "1", "table": [["1", "1"], ["1", "1"]]},
        {"elements": ["1"], "identity": "", "table": [["1"]]},
        {"elements": ["1", "a"], "identity": "1", "table": [["1", "a"]]},
        {"elements": ["1", "a"], "identity": "1", "table": [["1", "a"], ["a"]]},
        {"elements": ["1"], "identity": "1", "table": [[1]]},
        {"elements": ["1"], "identity": "1", "table": [["1"]], "zero": "1"},
    ],
)
def test_cayley_tables_shape_checked_alike(table):
    # a spec's inverse-monoid generator and a classify table share one parser
    with pytest.raises(SpecFormatError) as from_table:
        parse_monoid_table(table)
    with pytest.raises(SpecFormatError) as from_spec:
        parse_spec({"format-version": 1, "generators": {"kind": "inverse-monoid", **table}})
    assert str(from_table.value) == str(from_spec.value)


# ---- saturation ------------------------------------------------------------

# one object on 5 elements: a 5-cycle, a transposition and a rank-4 partial
# identity generate all of I5, 1,546 endomorphisms
I5_DOC = {
    "format-version": 1,
    "objects": [{"name": "A", "elements": ["1", "2", "3", "4", "5"]}],
    "morphisms": [
        {"name": "cycle", "dom": "A", "cod": "A",
         "pairs": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]]},
        {"name": "swap", "dom": "A", "cod": "A",
         "pairs": [["1", "2"], ["2", "1"], ["3", "3"], ["4", "4"], ["5", "5"]]},
        {"name": "drop", "dom": "A", "cod": "A",
         "pairs": [["1", "1"], ["2", "2"], ["3", "3"], ["4", "4"]]},
    ],
}


# a 4-cycle, a transposition and a rank-3 partial identity generate all of
# I4, 209 endomorphisms
I4_DOC = {
    "format-version": 1,
    "objects": [{"name": "A", "elements": ["1", "2", "3", "4"]}],
    "morphisms": [
        {"name": "cycle", "dom": "A", "cod": "A", "pairs": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "1"]]},
        {"name": "swap", "dom": "A", "cod": "A", "pairs": [["1", "2"], ["2", "1"], ["3", "3"], ["4", "4"]]},
        {"name": "drop", "dom": "A", "cod": "A", "pairs": [["1", "1"], ["2", "2"], ["3", "3"]]},
    ],
}


def _reference_closure(objects, seeds) -> set:
    """Add inverses and every composite of the whole pool until nothing new
    appears: the closure, by the plainest route."""
    objects = set(objects) | {ZERO_FINSET}
    pool = set(seeds) | {identity_pbij(a) for a in objects}
    pool |= {zero_pbij(a, b) for a in objects for b in objects}
    while True:
        grown = pool | {invert_pbij(m) for m in pool}
        grown |= {compose_pbij(f, g) for f in pool for g in pool if g.cod == f.dom}
        if grown == pool:
            return pool
        pool = grown


def _assert_the_id_table_is_the_closure(cat) -> None:
    """The id table holds every member once, the hom-set members themselves,
    and is complete from construction: the id of compose_pbij for every
    composable pair of members, and of invert_pbij for every member."""
    pool = {m for hom in cat._homs.values() for m in hom}
    by_id = cat.morphisms_by_id
    assert len(by_id) == len(pool) and set(by_id) == pool
    assert all(any(m is member for member in cat._homs[(m.dom, m.cod)]) for m in by_id)
    ids = {m: i for i, m in enumerate(by_id)}
    assert [dict(row) for row in cat.rows] == [
        {ids[g]: ids[compose_pbij(f, g)] for g in by_id if g.cod == f.dom} for f in by_id
    ]
    assert cat._involution_ids == {ids[f]: ids[invert_pbij(f)] for f in by_id}


def _assert_saturation_builds_each_member_once(spec) -> None:
    made, inverted = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            invcat.specfile, "compose_pbij", lambda f, g: made.append(compose_pbij(f, g)) or made[-1]
        )
        patch.setattr(invcat.specfile, "invert_pbij", lambda f: inverted.append(invert_pbij(f)) or inverted[-1])
        cat, named = build_category(spec)
    # a composite or an inverse is built only when its code is new: each
    # member not given is built once, by one of the two, and no given one is
    pool = {m for hom in cat._homs.values() for m in hom}
    given = {identity_pbij(a) for a in cat.objects} | set(named.values())
    given |= {zero_pbij(a, b) for a in cat.objects for b in cat.objects}
    built = made + inverted
    assert len(set(built)) == len(built) == len(pool) - len(given)
    assert set(built) <= pool - given
    assert pool == _reference_closure(cat.objects, named.values())
    _assert_the_id_table_is_the_closure(cat)


def test_saturation_builds_each_member_once_on_the_readme_fixture():
    _assert_saturation_builds_each_member_once(parse_spec(README_FIXTURE))


@settings(max_examples=40, deadline=None)
@given(explicit_specs())
def test_saturation_builds_each_member_once(spec):
    _assert_saturation_builds_each_member_once(spec)


def _assert_homs_numbered_at_construction(cat) -> None:
    """Every hom(a, b) of a fresh table category is in morphism_sort_key
    order, every member is in one of them, and hom_ids answers them all
    without interning a member again."""

    def intern(m):
        raise AssertionError(f"interned {render_morphism(m)}")

    cat.intern = intern
    try:
        homs = {(a, b): cat.hom(a, b) for a in cat.objects for b in cat.objects}
    finally:
        del cat.intern
    for (a, b), hom in homs.items():
        assert all(m.dom == a and m.cod == b for m in hom)
        assert list(hom) == sorted(hom, key=morphism_sort_key)
    ids = sorted(i for a, b in homs for i in cat.hom_ids(a, b))
    assert ids == list(range(len(cat.morphisms_by_id)))


@pytest.mark.hashseed
def test_table_categories_number_each_hom_set_once_in_sort_order(monkeypatch):
    cats = [build_category(parse_spec(doc))[0] for doc in (README_FIXTURE, I4_DOC)]

    @seed(43)
    @settings(max_examples=20, database=None, phases=[Phase.generate], deadline=None)
    @given(explicit_specs())
    def draw(spec):
        cats.append(build_category(spec)[0])

    draw()
    cats += [to_table(canonical_pbij_category((0, 1, 2, 3)))]
    # I3's one-object category, checked before validation runs on it
    one_object = []
    real = invcat.monoid.Enumeration

    def checked(cat, budget):
        _assert_homs_numbered_at_construction(cat)
        one_object.append(cat)
        return real(cat, budget)

    monkeypatch.setattr(invcat.monoid, "Enumeration", checked)
    cats.append(two_object_category(symmetric_inverse_monoid(3)))
    assert len(one_object) == 1 and len(one_object[0].morphisms_by_id) == 34
    for cat in cats:
        _assert_homs_numbered_at_construction(cat)


def test_saturation_budget_stops_at_the_first_hom_set_over_it():
    spec = parse_spec(I5_DOC)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as raised:
        build_category(spec, Budget())
    assert time.perf_counter() - start < 5
    assert str(raised.value) == "hom(A, A) has at least 210 morphisms, over the enumeration budget"
    # under a budget it stays within, the closure is the same as without one
    cat = build_category(parse_spec(README_FIXTURE), Budget(max_size=2))[0]
    assert cat._homs == build_category(parse_spec(README_FIXTURE))[0]._homs
    with pytest.raises(BudgetExceededError):
        build_category(parse_spec(README_FIXTURE), Budget(max_size=1))


def numbering(doc: dict) -> list:
    """What saturating the spec numbers, in id order: each member, the
    entries of its row and its involution, as JSON data."""
    cat = build_category(parse_spec(doc))[0]
    return [
        [render_morphism(m), list(row.items()), cat._involution_ids[i]]
        for i, (m, row) in enumerate(zip(cat.morphisms_by_id, cat.rows))
    ]


NUMBERING_ELSEWHERE = """
import json, sys
from test_specfile import numbering
print(json.dumps([numbering(doc) for doc in json.load(sys.stdin)]))
"""


@pytest.mark.hashseed
def test_saturation_numbers_alike_under_every_hash_seed():
    # the README fixture, NOT_BAER_STAR and a seeded handful of random specs
    specs = [parse_spec(README_FIXTURE), parse_spec(NOT_BAER_STAR)]

    @seed(31)
    @settings(max_examples=8, database=None, phases=[Phase.generate], deadline=None)
    @given(explicit_specs())
    def draw(spec):
        specs.append(spec)

    draw()
    assert len(specs) == 10
    for spec in specs:
        _assert_the_id_table_is_the_closure(build_category(spec)[0])
    docs = [serialize_spec(spec) for spec in specs]
    here = [numbering(doc) for doc in docs]
    assert here == [numbering(doc) for doc in docs]
    # and in a process with another hash seed
    tests, src = Path(__file__).parent, Path(invcat.__file__).parent.parent
    other = "7" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = {**os.environ, "PYTHONHASHSEED": other, "PYTHONPATH": os.pathsep.join(map(str, (tests, src)))}
    elsewhere = subprocess.run(
        [sys.executable, "-c", NUMBERING_ELSEWHERE],
        input=json.dumps(docs), env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(elsewhere.stdout) == json.loads(json.dumps(here))


def test_parse_then_build_validates_each_declared_morphism_once(monkeypatch):
    calls = []

    def counted(dom, cod, pairs, name=None):
        calls.append(name)
        return make_pbij(dom, cod, pairs, name)

    monkeypatch.setattr(invcat.specfile, "make_pbij", counted)
    for doc in (README_FIXTURE, NOT_BAER_STAR, I4_DOC):
        calls.clear()
        spec = parse_spec(doc)
        _, named = build_category(spec)
        named.clear()  # the caller's copy: the spec keeps its own
        assert sorted(declared_morphisms(spec)[1]) == sorted(m["name"] for m in doc["morphisms"])
        assert len(calls) == len(doc["morphisms"])
    # a spec built by hand, or copied by replace, is validated when it is built
    for hand in (CategorySpec(spec.objects, spec.morphisms, None), dataclasses.replace(spec)):
        calls.clear()
        assert build_category(hand)[1] == build_category(spec)[1]
        assert len(calls) == len(spec.morphisms)
    bad = CategorySpec((ObjectSpec("A", ("1",)),), (MorphismSpec("m", "A", "A", (("1", "2"),)),), None)
    with pytest.raises(UnknownElementError, match="'2' is not an element of A"):
        build_category(bad)
