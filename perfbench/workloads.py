"""The four benchmark workloads: their seeded inputs, the commands each runs
and the verdict oracle for every command.

A command makes the library calls its CLI namesake makes: parse the input
document, build the category, run the suites, merge the reports and render
them as JSON.  Each command builds its own category, as a CLI invocation
does.  `Workload.setup()` does only the document-to-category part of every
command, for the `setup_s` metric.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import invcat
import invcat.specfile

# Library functions are called through their modules, never through names
# bound here, so that the layer trace, which rebinds module attributes,
# sees every call the benchmark makes.

# The CLI's default budget: sizes up to 4 are enumerated in full.
BUDGET = invcat.Budget()

# check_coherence raises these on a category that is not exact, so
# `invcat exactness` exits 2 where exit 1 is the right answer.  Such a command
# still counts as failed; only its exception name is known in advance, and
# only on the commands marked `known_defect`, whose categories may not be
# exact.  From any other command these exceptions are unexpected.
KNOWN_DEFECT = frozenset({"NoKernelError", "NoCokernelError", "NoFactorizationError"})

# the explicit fixture from the README, whose `exactness` run hits that defect
README_FIXTURE = {
    "format-version": 1,
    "objects": [
        {"name": "A", "elements": ["1", "2", "3"]},
        {"name": "B", "elements": ["a", "b", "c"]},
    ],
    "morphisms": [
        {"name": "f", "dom": "A", "cod": "B", "pairs": [["1", "a"], ["2", "b"]]}
    ],
}

INVERSE_CATEGORY_PREFIXES = ("category.", "inverse.", "involution.")


def all_pbij_doc(sizes) -> dict:
    return {"format-version": 1, "generators": {"kind": "all-pbij", "sizes": list(sizes)}}


@dataclass
class Outcome:
    """What one command returned: the problem with its verdict (None when
    the oracle accepts it), the cases its clauses checked and, for a seeded
    defect, whether the report caught it."""

    problem: str | None
    cases: int
    caught: bool | None = None


@dataclass
class Command:
    """`build` turns the input document into what `run` checks; `setup`, when
    given, is the whole document-to-category work for `setup_s`, where the
    command itself does part of it inside `run`.  `known_defect` marks a
    command that may raise one of KNOWN_DEFECT."""

    suite: str
    label: str
    build: Callable[[], object]
    run: Callable[[object], Outcome]
    known_defect: bool = False
    setup: Callable[[], object] | None = None

    def __call__(self) -> Outcome:
        return self.run(self.build())


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict

    def setup(self) -> None:
        for command in self.commands:
            (command.setup or command.build)()


# ---- suites, as the CLI commands run them ----------------------------------


def _cases(report) -> int:
    return sum(c.checked for c in report.clauses)


def _axioms(cat):
    return invcat.merge_reports(
        "axioms", invcat.check_inverse_category(cat, BUDGET), invcat.check_baer_star(cat, BUDGET)
    )


def _exactness(cat):
    return invcat.merge_reports(
        "exactness", invcat.check_exactness(cat, BUDGET), invcat.check_coherence(cat, BUDGET)
    )


SUITES = {
    "axioms": _axioms,
    "exactness": _exactness,
    "theorems": lambda cat: invcat.theorem_suite(cat, "all", BUDGET),
    "closed-forms": lambda cat: invcat.check_closed_forms(cat, BUDGET),
}


def _not_passing(report) -> list[str]:
    return [c.clause_id for c in report.clauses if c.status != invcat.PASS]


def expect_all_pass(report) -> str | None:
    bad = _not_passing(report)
    if bad or report.exit_code() != 0:
        return f"clauses not passing: {bad}"
    return None


def expect_inverse_category(report) -> str | None:
    """A saturated spec is an inverse category; its Baer* clauses may fail."""
    bad = [i for i in _not_passing(report) if i.startswith(INVERSE_CATEGORY_PREFIXES)]
    return f"inverse-category clauses not passing: {bad}" if bad else None


def expect_consistent_exactness(report) -> str | None:
    """No oracle decides exactness of a fragment; the two checklists must
    agree and a passing report must say the category is exact."""
    if report.clause("theorem.exact-iff-baer").status != invcat.PASS:
        return "theorem.exact-iff-baer failed"
    if report.passed and not report.details["exact"]:
        return "report passes but says the category is not exact"
    return None


def expect_not_exact(report) -> str | None:
    if report.passed or report.details["exact"]:
        return "a category known not to be exact passed"
    return expect_consistent_exactness(report)


def expect_caught(report) -> str | None:
    failures = report.failures()
    if report.exit_code() != 1 or not failures:
        return "seeded defect not caught"
    if not all(c.counterexample for c in failures):
        return "failing clause without a counterexample"
    return None


def spec_command(
    suite: str, label: str, doc: dict, expect, corrupt=None, known_defect: bool = False
) -> Command:
    """`corrupt` seeds a defect into the freshly built category."""

    def build():
        cat = invcat.build_category(invcat.parse_spec(doc))[0]
        return cat if corrupt is None else corrupt(cat)

    def run(cat):
        report = SUITES[suite](cat)
        report.to_json()
        caught = None if corrupt is None else report.exit_code() == 1
        return Outcome(expect(report), _cases(report), caught)

    return Command(suite, label, build, run, known_defect)


# ---- gate-0123 and wide-04 -------------------------------------------------


def gate(seed: int, tiny: bool) -> Workload:
    sizes = (0, 1, 2) if tiny else (0, 1, 2, 3)
    doc = all_pbij_doc(sizes)
    label = "pbij" + "".join(map(str, sizes))
    commands = [
        spec_command(suite, label, doc, expect_all_pass)
        for suite in ("axioms", "exactness", "theorems", "closed-forms")
    ]
    return Workload("gate-0123", commands, {"sizes": list(sizes)})


def wide(seed: int, tiny: bool) -> Workload:
    sizes = (0, 2) if tiny else (0, 4)
    doc = all_pbij_doc(sizes)
    label = "pbij" + "".join(map(str, sizes))
    return Workload(
        "wide-04", [spec_command("exactness", label, doc, expect_all_pass)], {"sizes": list(sizes)}
    )


# ---- table-search -----------------------------------------------------------

# An explicit spec is kept when its saturated category has a morphism count
# in EXPLICIT_MORPHISMS and a composable-triple count in EXPLICIT_TRIPLES.
# Associativity over every triple is most of the work of a spec and
# saturation most of its set-up, so both windows keep the work of a corpus
# nearly the same for every seed, and no spec outweighs the I3 `classify`.
EXPLICIT_MORPHISMS = (44, 56)
EXPLICIT_TRIPLES = (12_000, 20_000)
EXPLICIT_COUNT = 16
TINY_EXPLICIT = ((12, 24), (500, 4_000), 2)


def random_explicit_spec(rng: random.Random) -> dict:
    """Two or three objects of 2-3 elements and 2-3 random partial bijections."""
    names = "ABC"[: rng.choice((2, 3))]
    elements = {n: [f"{n.lower()}{i}" for i in range(1, rng.randint(2, 3) + 1)] for n in names}
    morphisms = []
    for k in range(rng.randint(2, 3)):
        dom, cod = rng.choice(names), rng.choice(names)
        size = rng.randint(1, min(len(elements[dom]), len(elements[cod])))
        xs = rng.sample(elements[dom], size)
        ys = rng.sample(elements[cod], size)
        morphisms.append(
            {"name": f"m{k}", "dom": dom, "cod": cod, "pairs": [list(p) for p in zip(xs, ys)]}
        )
    return {
        "format-version": 1,
        "objects": [{"name": n, "elements": elements[n]} for n in names],
        "morphisms": morphisms,
    }


def saturated_shape(doc: dict, cap: int) -> tuple[int, int] | None:
    """Morphism and composable-triple counts of the category that
    `build_category` saturates an explicit spec into, worked out here on
    plain tuples: the declared objects plus the empty one, closed under
    identities, empty maps, inverses and composites.  None as soon as the
    closure passes `cap` morphisms, so that a candidate never costs more
    time or memory than a kept spec."""
    elements = {o["name"]: o["elements"] for o in doc["objects"]}
    elements[""] = []
    objects = list(elements)
    pool = {(a, a, frozenset((x, x) for x in elements[a])) for a in objects}
    pool |= {(a, b, frozenset()) for a in objects for b in objects}
    pool |= {(m["dom"], m["cod"], frozenset(map(tuple, m["pairs"]))) for m in doc["morphisms"]}
    frontier = list(pool)
    while frontier:
        dom, cod, pairs = frontier.pop()
        grown = [(cod, dom, frozenset((y, x) for x, y in pairs))]
        for dom2, cod2, pairs2 in list(pool):
            if dom2 == cod:
                after = dict(pairs2)
                grown.append((dom, cod2, frozenset((x, after[y]) for x, y in pairs if y in after)))
            if cod2 == dom:
                after = dict(pairs)
                grown.append((dom2, cod, frozenset((x, after[y]) for x, y in pairs2 if y in after)))
        for m in grown:
            if m not in pool:
                pool.add(m)
                frontier.append(m)
                if len(pool) > cap:
                    return None
    size = Counter((dom, cod) for dom, cod, _ in pool)
    triples = sum(
        size[(a, b)] * size[(b, c)] * size[(c, d)]
        for a, b, c, d in itertools.product(objects, repeat=4)
    )
    return len(pool), triples


def explicit_corpus(rng: random.Random, morphisms, triples, count: int) -> list[dict]:
    kept = []
    for _ in range(2_000 * count):
        doc = random_explicit_spec(rng)
        shape = saturated_shape(doc, morphisms[1])
        if shape and morphisms[0] <= shape[0] and triples[0] <= shape[1] <= triples[1]:
            kept.append({"doc": doc, "morphisms": shape[0], "triples": shape[1]})
            if len(kept) == count:
                return kept
    raise RuntimeError(f"no {count} explicit specs with {morphisms} morphisms and {triples} triples")


def pbij_monoid(n: int) -> tuple[list, dict, object]:
    """The symmetric inverse monoid I_n, from plain tuples: entry k of a
    partial bijection of {0..n-1} is the image of k, or -1 where undefined."""
    elements = [
        tuple(p)
        for p in itertools.product(range(-1, n), repeat=n)
        if len([v for v in p if v >= 0]) == len({v for v in p if v >= 0})
    ]
    table = {
        (x, y): tuple(-1 if y[k] < 0 else x[y[k]] for k in range(n))
        for x in elements
        for y in elements
    }
    return elements, table, tuple(range(n))


def cyclic_monoid(n: int):
    return list(range(n)), {(x, y): (x + y) % n for x in range(n) for y in range(n)}, 0


def chain_monoid(n: int):
    return list(range(n)), {(x, y): max(x, y) for x in range(n) for y in range(n)}, 0


def monoid_doc(elements, table, identity, rng: random.Random, prefix: str) -> dict:
    """A Cayley-table document with seeded labels and element order."""
    names = {x: f"{prefix}{k}" for k, x in enumerate(rng.sample(elements, len(elements)))}
    order = rng.sample(elements, len(elements))
    return {
        "elements": [names[x] for x in order],
        "identity": names[identity],
        "table": [[names[table[(x, y)]] for y in order] for x in order],
    }


def is_group_table(doc: dict) -> bool:
    """Group verdict from the table alone: every element has a two-sided
    inverse.  Independent of the library's idempotent-count test."""
    elements, identity = doc["elements"], doc["identity"]
    product = {
        (x, y): doc["table"][i][j]
        for i, x in enumerate(elements)
        for j, y in enumerate(elements)
    }
    return all(
        any(product[(x, y)] == identity == product[(y, x)] for y in elements) for x in elements
    )


def classify_command(label: str, doc: dict) -> Command:
    group = is_group_table(doc)

    def build():
        return invcat.validate_inverse_monoid(*invcat.specfile.parse_monoid_table(doc))

    def run(monoid):
        report = invcat.classify_exactness(monoid, BUDGET)
        report.to_json()
        problem = None
        bad = _not_passing(report)
        if bad:
            problem = f"clauses not passing: {bad}"
        elif report.details["is-group"] != group or report.details["is-exact"] != group:
            problem = f"group verdict {group} but report says {report.details}"
        return Outcome(problem, _cases(report))

    # classify_exactness builds the two-object category itself, as the CLI
    # does; set-up times that step too
    return Command("classify", label, build, run,
                   setup=lambda: invcat.two_object_category(build()))


def table_search(seed: int, tiny: bool) -> Workload:
    rng = random.Random(f"table-search|{seed}")
    morphisms, triples, count = (
        TINY_EXPLICIT if tiny else (EXPLICIT_MORPHISMS, EXPLICIT_TRIPLES, EXPLICIT_COUNT)
    )
    corpus = explicit_corpus(rng, morphisms, triples, count)
    commands = []
    for k, spec in enumerate(corpus):
        doc = spec["doc"]
        commands.append(spec_command("axioms", f"explicit{k}", doc, expect_inverse_category))
        commands.append(spec_command(
            "exactness", f"explicit{k}", doc, expect_consistent_exactness, known_defect=True
        ))

    i2 = monoid_doc(*pbij_monoid(2), rng, "p")
    commands.append(spec_command(
        "exactness", "readme-fixture", README_FIXTURE, expect_not_exact, known_defect=True
    ))
    i2_spec = {"format-version": 1, "generators": {"kind": "inverse-monoid", **i2}}
    commands.append(spec_command(
        "exactness", "I2-generator", i2_spec, expect_not_exact, known_defect=True
    ))

    monoids = {"I2": i2}
    if not tiny:
        monoids["I3"] = monoid_doc(*pbij_monoid(3), rng, "q")
    for n in sorted(rng.sample(range(3, 13), 1 if tiny else 3)):
        monoids[f"C{n}"] = monoid_doc(*cyclic_monoid(n), rng, "g")
    for n in sorted(rng.sample(range(2, 9), 1 if tiny else 2)):
        monoids[f"chain{n}"] = monoid_doc(*chain_monoid(n), rng, "e")
    commands += [classify_command(label, doc) for label, doc in monoids.items()]

    inputs = {
        "explicit_morphism_range": list(morphisms),
        "explicit_triple_range": list(triples),
        "explicit_morphisms": [spec["morphisms"] for spec in corpus],
        "explicit_triples": [spec["triples"] for spec in corpus],
        "monoids": {label: len(doc["elements"]) for label, doc in monoids.items()},
    }
    return Workload("table-search", commands, inputs)


# ---- mutants-0123 -----------------------------------------------------------

# Hom-set shapes, as object sizes, that defects are drawn from: (dom g,
# cod g = dom f, cod f) for a wrong composite f∘g and (dom f, cod f) for a
# wrong involution f*.  How far the suites get before they meet a defect
# depends mostly on its shape, so every seed uses the same shapes.
COMPOSE_SHAPES = ((3, 3, 3), (2, 3, 3), (3, 3, 2), (3, 2, 3))
INVOLVE_SHAPES = ((3, 3), (3, 2), (2, 3), (2, 2))
TINY_SHAPES = (((2, 2, 2),), ((2, 1),))


def mutants(seed: int, tiny: bool) -> Workload:
    """Seeded defects, alternately a wrong composite and a wrong involution.
    Every defect replaces a value with another member of the same hom-set."""
    rng = random.Random(f"mutants-0123|{seed}")
    sizes = (0, 1, 2) if tiny else (0, 1, 2, 3)
    doc = all_pbij_doc(sizes)
    base = invcat.build_category(invcat.parse_spec(doc))[0]
    obj = {len(o): o for o in base.objects}
    compose_shapes, involve_shapes = TINY_SHAPES if tiny else (COMPOSE_SHAPES, INVOLVE_SHAPES)
    defects = []
    for (a, b, c), (d, e) in zip(compose_shapes, involve_shapes):
        a, b, c, d, e = (obj[n] for n in (a, b, c, d, e))
        f, g = rng.choice(base.hom(b, c)), rng.choice(base.hom(a, b))
        right = base.compose(f, g)
        bad = rng.choice([m for m in base.hom(a, c) if m != right])
        defects.append((
            f"compose({f!r}, {g!r}) := {bad!r}",
            lambda cat, f=f, g=g, bad=bad: cat.with_corrupted_composition(f, g, bad),
        ))
        f = rng.choice(base.hom(d, e))
        right = base.involve(f)
        bad = rng.choice([m for m in base.hom(e, d) if m != right])
        defects.append((
            f"involve({f!r}) := {bad!r}",
            lambda cat, f=f, bad=bad: cat.with_corrupted_involution(f, bad),
        ))
    # whether `exactness` catches a defect is counted, not checked
    expect = {"axioms": expect_caught, "exactness": lambda report: None}
    commands = [
        spec_command(suite, f"mutant{k}", doc, expect[suite], corrupt, suite == "exactness")
        for k, (_, corrupt) in enumerate(defects)
        for suite in expect
    ]
    inputs = {
        "sizes": list(sizes),
        "morphisms": sum(len(base.hom(x, y)) for x in base.objects for y in base.objects),
        "defects": [text for text, _ in defects],
    }
    return Workload("mutants-0123", commands, inputs)


# Builders by workload name; gate-0123 and wide-04 ignore the seed.
BUILDERS = {
    "gate-0123": gate,
    "wide-04": wide,
    "table-search": table_search,
    "mutants-0123": mutants,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tiny)
