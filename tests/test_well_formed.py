"""A well-formed category never makes a suite raise: whatever construction
is missing, every suite ends in a report with exit 0 or 1.  Exit 2 is left
to malformed input and incomplete tables."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from invcat import (
    EXIT_CLAUSE_FAILURES,
    EXIT_OK,
    build_category,
    canonical_pbij_category,
    check_baer_star,
    check_coherence,
    check_exactness,
    check_inverse_category,
    check_normal_conormal,
    parse_spec,
    theorem_suite,
    two_object_category,
)
from model_copies import endomorphism_clones
from test_golden import MONOIDS

SUITES = {
    "inverse-category": check_inverse_category,
    "baer-star": check_baer_star,
    "exactness": check_exactness,
    "coherence": check_coherence,
    "normal-conormal": check_normal_conormal,
    "theorems-all": lambda cat: theorem_suite(cat, "all"),
}

# endomorphism_clones of canonical_pbij_category((1, 2)); test_exactness checks the count
CLONE_COUNT = 53


@st.composite
def small_explicit_specs(draw):
    """One or two objects of one or two elements and one or two declared
    partial bijections, which build_category saturates."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2))
    objects = [
        {"name": f"A{k}", "elements": [f"x{i}" for i in range(n)]} for k, n in enumerate(sizes)
    ]
    morphisms = []
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        dom, cod = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        k = draw(st.integers(min_value=0, max_value=min(len(dom["elements"]), len(cod["elements"]))))
        xs = draw(st.permutations(dom["elements"]))[:k]
        ys = draw(st.permutations(cod["elements"]))[:k]
        morphisms.append(
            {"name": f"m{i}", "dom": dom["name"], "cod": cod["name"], "pairs": [list(p) for p in zip(xs, ys)]}
        )
    return {"format-version": 1, "objects": objects, "morphisms": morphisms}


# (kind, argument) rather than the category itself, so a failing example
# names what to rebuild
well_formed = st.one_of(
    st.tuples(st.just("two-object"), st.sampled_from(sorted(MONOIDS))),
    st.tuples(st.just("clone"), st.integers(min_value=0, max_value=CLONE_COUNT - 1)),
    st.tuples(st.just("spec"), small_explicit_specs()),
)


def build(kind: str, arg):
    if kind == "two-object":
        return two_object_category(MONOIDS[arg]())
    if kind == "clone":
        return list(endomorphism_clones(canonical_pbij_category((1, 2))))[arg]
    return build_category(parse_spec(arg))[0]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(well_formed)
@example(("two-object", "I1"))
@example(("two-object", "I2"))
@example(("two-object", "C3"))
@example(("two-object", "chain3"))
def test_every_suite_returns_a_report(case):
    cat = build(*case)
    for name, suite in SUITES.items():
        code = suite(cat).exit_code()
        assert code in (EXIT_OK, EXIT_CLAUSE_FAILURES), (name, code)
