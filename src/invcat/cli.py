"""Command line front end: run verification suites over a spec file and emit
one structured JSON report, with the exit code telling the story (0 all laws
hold, 1 clause failures, 2 bad input, 3 enumeration budget exceeded)."""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path

import click

from .core import (
    LARGEST_LIMIT_SIZE,
    Budget,
    BudgetExceededError,
    InvcatError,
    build_report,
    inverse_category_clauses,
)
from .exactness import coherence_clauses, exactness_clauses, normal_conormal_clauses
from .monoid import MonoidAxiomError, classify_exactness, validate_inverse_monoid
from .pbij import enumerate_pbij, hom_count, size_finset
from .projections import baer_star_clauses
from .report import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CLAUSE_FAILURES,
    EXIT_INVALID_INPUT,
    FAIL,
    Clause,
    VerificationReport,
)
from .specfile import (
    SpecFormatError,
    build_category,
    declared_morphisms,
    load_monoid_table,
    load_spec,
)
from .transfer import SUBSET_FORMS, SUITES, TransferKind, _source, _source_side, theorem_suite


def _emit(report: VerificationReport, out: str | None) -> None:
    text = report.to_json()
    if not out:
        click.echo(text)
        return
    try:
        Path(out).write_text(text + "\n", encoding="utf-8")
    except OSError as err:
        click.echo(f"error: cannot write {out}: {err.strerror or err}", err=True)
        sys.exit(EXIT_INVALID_INPUT)


def _finish(report: VerificationReport, out: str | None) -> None:
    _emit(report, out)
    sys.exit(report.exit_code())


def _guarded(fn):
    """Map the library's exceptions onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_BUDGET_EXCEEDED)
        except MonoidAxiomError as err:
            report = VerificationReport(
                "classify",
                [Clause("classify.monoid-axioms", "1", FAIL, 1, str(err))],
            )
            _emit(report, kwargs.get("out"))
            sys.exit(EXIT_CLAUSE_FAILURES)
        except InvcatError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_INVALID_INPUT)

    return wrapper


def _budget_option(fn):
    return click.option(
        "--max-size",
        "budget",
        type=click.IntRange(min=0),
        default=4,
        envvar="INVCAT_MAX_SIZE",
        show_default=True,
        callback=lambda ctx, param, max_size: Budget(max_size=max_size),
        help="Largest object size whose full hom-sets are enumerated; "
        "a larger hom-set ends the run with exit 3.",
    )(fn)


def _spec_options(fn):
    fn = click.option(
        "--spec",
        "spec_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="Category spec file (JSON).",
    )(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write the report here instead of stdout.")(fn)
    return fn


@click.group()
def main() -> None:
    """Exhaustive law checking for finite inverse categories."""


@main.command()
@_spec_options
@_budget_option
@_guarded
def axioms(spec_path, out, budget):
    """Inverse-category axioms plus the annihilator (Baer*) laws."""
    cat, _ = build_category(load_spec(spec_path), budget)
    groups = [inverse_category_clauses, baer_star_clauses]
    _finish(build_report("axioms", cat, groups, budget), out)


@main.command()
@_spec_options
@_budget_option
@_guarded
def exactness(spec_path, out, budget):
    """Both exactness checklists, their biconditional, and the coherence
    identities tying kernels, annihilators and factorizations together."""
    cat, _ = build_category(load_spec(spec_path), budget)
    groups = [exactness_clauses, coherence_clauses, normal_conormal_clauses]
    _finish(build_report("exactness", cat, groups, budget), out)


@main.command()
@click.option("--suite", required=True, type=click.Choice(sorted(SUITES)),
              help="Which law group to verify.")
@_spec_options
@_budget_option
@_guarded
def theorems(suite, spec_path, out, budget):
    """One transfer-map law group (or all of them)."""
    cat, _ = build_category(load_spec(spec_path), budget)
    _finish(theorem_suite(cat, suite, budget), out)


@main.command(name="eval")
@click.option("--functor", required=True, type=click.Choice([k.value for k in TransferKind]))
@click.option("--morphism", "morphism_name", required=True,
              help="Name of a declared morphism in the spec.")
@click.option("--projection", "projection_csv", required=True,
              help="Comma-separated element labels; empty string for the empty projection.")
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@_guarded
def eval_(functor, morphism_name, projection_csv, spec_path):
    """Apply one transfer map to one projection, via the closed forms.  An
    explicit spec is not saturated: only its declared morphisms are built."""
    spec = load_spec(spec_path)
    _, named = declared_morphisms(spec) if spec.generators is None else build_category(spec)
    f = named.get(morphism_name)
    if f is None:
        raise SpecFormatError(f"no morphism named {morphism_name!r} in the spec")
    if not isinstance(f.payload, frozenset):
        raise SpecFormatError("eval needs a spec with explicit partial bijections")
    labels = tuple(x for x in projection_csv.split(",") if x)
    kind = TransferKind(functor)
    base = _source(kind, f)
    unknown = [x for x in labels if x not in base]
    if unknown:
        raise SpecFormatError(
            f"labels {unknown} are not elements of {base.name} "
            f"(the projection must live on {_source_side(kind)}(f))"
        )
    repeated = sorted(x for x, n in Counter(labels).items() if n > 1)
    if repeated:
        raise SpecFormatError(f"labels {repeated} are given more than once")
    click.echo("{" + ",".join(SUBSET_FORMS[kind](f, labels)) + "}")


@main.command()
@click.option("--sizes", required=True, help="Two sizes, e.g. 3,3.")
@_budget_option
@_guarded
def enumerate(sizes, budget):
    """Count the partial bijections between sets of the given sizes."""
    parts = sizes.split(",")
    if len(parts) != 2:
        raise SpecFormatError(f"--sizes wants m,n, got {sizes!r}")
    try:
        m, n = (int(p) for p in parts)
    except ValueError:
        raise SpecFormatError(f"--sizes wants integers, got {sizes!r}") from None
    if m < 0 or n < 0:
        raise SpecFormatError("sizes must be non-negative")
    names = [f"S{k}" if k else "0" for k in (m, n)]  # size_finset's names, without the sets
    # hom(m, n) holds hom(k, k), k = min(m, n), which is over the limit past
    # max_size and past LARGEST_LIMIT_SIZE: no need to sum k + 1 terms
    if min(m, n) > min(budget.max_size, LARGEST_LIMIT_SIZE):
        raise BudgetExceededError(budget.homset_limit + 1, *names, at_least=True)
    expected = hom_count(m, n)
    if expected > budget.homset_limit:
        raise BudgetExceededError(expected, *names)
    found = len(enumerate_pbij(size_finset(m), size_finset(n)))
    click.echo(str(found))
    if found != expected:
        click.echo(
            f"error: enumerated {found} but the closed-form count is {expected}", err=True
        )
        sys.exit(EXIT_CLAUSE_FAILURES)


@main.command()
@click.option("--monoid", "monoid_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Cayley table file: {elements, identity, table}.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_budget_option
@_guarded
def classify(monoid_path, out, budget):
    """Validate an inverse monoid and check its two-object category is exact
    exactly when the monoid is a group."""
    elements, table, identity = load_monoid_table(monoid_path)
    monoid = validate_inverse_monoid(elements, table, identity)
    _finish(classify_exactness(monoid, budget), out)


if __name__ == "__main__":
    main()
