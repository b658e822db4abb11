"""Golden reports: every suite on a fixed set of categories, compared with the
reports recorded in golden_reports.json, byte for byte apart from wall time.
Where a suite raises, the exception type and text are recorded instead.

After a change that is meant to move a report, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write

and name every entry that moved in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from invcat import (
    InvcatError,
    build_category,
    canonical_pbij_category,
    chain_semilattice,
    check_baer_star,
    check_closed_forms,
    check_coherence,
    check_exactness,
    check_inverse_category,
    check_normal_conormal,
    classify_exactness,
    cyclic_group,
    make_pbij,
    parse_spec,
    size_finset,
    symmetric_inverse_monoid,
    theorem_suite,
    two_object_category,
)

GOLDEN = Path(__file__).with_name("golden_reports.json")

# reports walk sets and dicts of morphisms: CI runs them under two hash seeds
pytestmark = pytest.mark.hashseed

README_FIXTURE = {
    "format-version": 1,
    "objects": [
        {"name": "A", "elements": ["1", "2", "3"]},
        {"name": "B", "elements": ["a", "b", "c"]},
    ],
    "morphisms": [{"name": "f", "dom": "A", "cod": "B", "pairs": [["1", "a"], ["2", "b"]]}],
}

# saturates to 19 morphisms in which B→A {b1↦a1} has no annihilator
NOT_BAER_STAR = {
    "format-version": 1,
    "objects": [
        {"name": "A", "elements": ["a1", "a2"]},
        {"name": "B", "elements": ["b1", "b2", "b3"]},
    ],
    "morphisms": [
        {"name": "m0", "dom": "A", "cod": "A", "pairs": [["a2", "a2"], ["a1", "a1"]]},
        {"name": "m1", "dom": "B", "cod": "B", "pairs": [["b2", "b3"]]},
        {"name": "m2", "dom": "A", "cod": "B", "pairs": [["a1", "b1"]]},
    ],
}

MONOIDS = {
    "I1": lambda: symmetric_inverse_monoid(1),
    "I2": lambda: symmetric_inverse_monoid(2),
    "C3": lambda: cyclic_group(3),
    "chain3": lambda: chain_semilattice(3),
}


def _two_object(monoid):
    return two_object_category(monoid), monoid


def _clone(name: str):
    """A seeded defect in canonical_pbij_category((1, 2))."""
    s1, s2 = size_finset(1), size_finset(2)
    cat = canonical_pbij_category((1, 2))

    def pb(a, b, *pairs):
        return make_pbij(a, b, pairs)

    p1, p2 = pb(s2, s2, ("e1", "e1")), pb(s2, s2, ("e2", "e2"))
    s, t = pb(s2, s2, ("e1", "e2")), pb(s2, s2, ("e1", "e2"), ("e2", "e1"))
    down, up = pb(s2, s1, ("e1", "e1")), pb(s1, s2, ("e1", "e1"))
    zero = size_finset(0)
    if name == "p1p1-to-0":
        return cat.with_corrupted_composition(p1, p1, pb(s2, s2))
    if name == "p1p2-to-s":
        return cat.with_corrupted_composition(p1, p2, s)
    if name == "tt-to-t":
        return cat.with_corrupted_composition(t, t, t)
    if name == "down-up-to-0":
        return cat.with_corrupted_composition(down, up, pb(s1, s1))
    if name == "zero-to-up":
        return cat.with_corrupted_composition(pb(zero, s2), pb(s1, zero), up)
    if name == "up-id-to-0":
        return cat.with_corrupted_composition(up, cat.identity(s1), pb(s1, s2))
    if name == "s-star-to-s":
        return cat.with_corrupted_involution(s, s)
    return cat.with_corrupted_involution(p1, cat.identity(s2))


CLONES = (
    "p1p1-to-0",
    "p1p2-to-s",
    "tt-to-t",
    "down-up-to-0",
    "s-star-to-s",
    "p1-star-to-id",
    "zero-to-up",
    "up-id-to-0",
)

# name -> (builds (category, monoid or None), whether it is a partial-bijection model)
CATEGORIES = {
    "pbij012": (lambda: (canonical_pbij_category((0, 1, 2)), None), True),
    "pbij12": (lambda: (canonical_pbij_category((1, 2)), None), True),
    **{
        f"two-object-{name}": (lambda make=make: _two_object(make()), False)
        for name, make in MONOIDS.items()
    },
    **{f"pbij12-{name}": (lambda name=name: (_clone(name), None), True) for name in CLONES},
    "readme-fixture": (lambda: (build_category(parse_spec(README_FIXTURE))[0], None), False),
    "not-baer-star": (lambda: (build_category(parse_spec(NOT_BAER_STAR))[0], None), False),
}

SUITES = {
    "inverse-category": lambda cat, monoid: check_inverse_category(cat),
    "baer-star": lambda cat, monoid: check_baer_star(cat),
    "exactness": lambda cat, monoid: check_exactness(cat),
    "coherence": lambda cat, monoid: check_coherence(cat),
    "normal-conormal": lambda cat, monoid: check_normal_conormal(cat),
    "theorems-all": lambda cat, monoid: theorem_suite(cat, "all"),
    "closed-forms": lambda cat, monoid: check_closed_forms(cat),
    "classify": lambda cat, monoid: classify_exactness(monoid),
}


def _cases():
    for cat_name, (_, pbij) in CATEGORIES.items():
        monoid = cat_name.startswith("two-object-")
        for suite in SUITES:
            if suite == "closed-forms" and not pbij or suite == "classify" and not monoid:
                continue
            yield f"{cat_name}/{suite}"


def _observe(case: str) -> dict:
    cat_name, suite = case.split("/")
    cat, monoid = CATEGORIES[cat_name][0]()
    try:
        report = SUITES[suite](cat, monoid)
    except InvcatError as err:
        return {"raises": type(err).__name__, "text": str(err)}
    doc = report.to_dict()
    del doc["stats"]["wall-time"]
    return doc


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert list(golden) == list(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_golden_report(case, golden):
    assert _render(_observe(case)) == _render(golden[case])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    docs = {case: _observe(case) for case in _cases()}
    GOLDEN.write_text(json.dumps(docs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
