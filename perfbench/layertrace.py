"""Layer trace taken from outside the program.

`Tracer.install()` replaces public functions and methods of the `invcat`
modules with wrappers and rebinds every `invcat.*` module attribute that
still points at the original, so calls made through a name imported with
`from .x import f` are seen too.  Hot calls (composition, involution,
hom-set lookup, transfer maps) only bump counters; coarse calls record spans
with parent links, kept in memory and written out at the end of the run.
`uninstall()` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, counter name).  Counted calls pay one list increment.
COUNTED = [
    ("invcat.core", "FiniteCategory.compose", "core.compose"),
    ("invcat.core", "FiniteCategory.involve", "core.involve"),
    ("invcat.core", "FiniteCategory.hom", "core.hom"),
    ("invcat.pbij", "PBijCategory._compose", "core.compose_rule"),
    ("invcat.core", "TableCategory._compose", "core.compose_rule"),
    ("invcat.pbij", "compose_pbij", "pbij.compose_pbij"),
]

# Counted and timed, without span records: hot, but their time is a per-layer metric.
TIMED = [
    ("invcat.transfer", "apply_P", "transfer.apply"),
    ("invcat.transfer", "apply_Pprime", "transfer.apply"),
    ("invcat.transfer", "apply_Pdoubleprime", "transfer.apply"),
]

# (module, attribute).  The span is named "<module suffix>.<attribute>".
SPANNED = [
    ("invcat.core", "FiniteCategory.quasi_inverses_of"),
    ("invcat.core", "FiniteCategory._clone"),
    ("invcat.core", "check_inverse_category"),
    ("invcat.report", "run_clause"),
    ("invcat.report", "merge_reports"),
    ("invcat.report", "VerificationReport.to_json"),
    ("invcat.pbij", "enumerate_pbij"),
    ("invcat.projections", "annihilator_candidates"),
    ("invcat.projections", "projections_on"),
    ("invcat.projections", "projection_lattice"),
    ("invcat.projections", "check_baer_star"),
    ("invcat.exactness", "kernel_witness"),
    ("invcat.exactness", "cokernel_witness"),
    ("invcat.exactness", "is_mono_by_cancellation"),
    ("invcat.exactness", "is_epi_by_cancellation"),
    ("invcat.exactness", "mono_epi_factorize"),
    ("invcat.exactness", "pullback_witness"),
    ("invcat.exactness", "check_exactness"),
    ("invcat.exactness", "check_coherence"),
    ("invcat.transfer", "transfer_table"),
    ("invcat.transfer", "theorem_suite"),
    ("invcat.transfer", "check_closed_forms"),
    ("invcat.specfile", "parse_spec"),
    ("invcat.specfile", "parse_monoid_table"),
    ("invcat.specfile", "build_category"),
    ("invcat.specfile", "_saturate"),
    ("invcat.monoid", "validate_inverse_monoid"),
    ("invcat.monoid", "two_object_category"),
    ("invcat.monoid", "classify_exactness"),
]

# per-layer metric -> spans whose inclusive time it sums
SPAN_METRICS = {
    "core.quasi_inverse_s": ["core.FiniteCategory.quasi_inverses_of"],
    "core.clone_s": ["core.FiniteCategory._clone"],
    "core.associativity_s": ["clause category.associativity"],
    "pbij.enumerate_s": ["pbij.enumerate_pbij"],
    "projections.annihilator_search_s": ["projections.annihilator_candidates"],
    "projections.projections_on_s": ["projections.projections_on"],
    "projections.lattice_s": ["projections.projection_lattice"],
    "exactness.witness_s": ["exactness.kernel_witness", "exactness.cokernel_witness"],
    "exactness.cancellation_s": [
        "exactness.is_mono_by_cancellation",
        "exactness.is_epi_by_cancellation",
    ],
    "exactness.factorize_s": ["exactness.mono_epi_factorize"],
    "exactness.pullback_s": ["exactness.pullback_witness"],
    "transfer.table_s": ["transfer.transfer_table"],
    "specfile.parse_s": ["specfile.parse_spec", "specfile.parse_monoid_table"],
    "specfile.build_s": ["specfile.build_category"],
    "monoid.validate_s": ["monoid.validate_inverse_monoid"],
    "monoid.two_object_s": ["monoid.two_object_category"],
    "report.to_json_s": ["report.VerificationReport.to_json"],
}


def _lookup(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Counters and spans for one traced pass.  Not thread-safe; the
    benchmark runs one thread."""

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.timed: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        # span record: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---- wrappers ----------------------------------------------------

    def _counted(self, fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, cell):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - start

        return wrapper

    def _spanned(self, fn, name):
        by_clause = name == "report.run_clause"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(f"clause {args[0]}" if by_clause else name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark itself."""
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    # ---- installing ----------------------------------------------------

    def _replace(self, module_name: str, dotted: str, make) -> None:
        module = sys.modules[module_name]
        owner, attr = _lookup(module, dotted)
        original = owner.__dict__[attr]
        wrapper = make(original)
        targets = [(owner, attr)]
        if "." not in dotted:
            # every module that did `from .x import attr` holds its own binding
            targets += [
                (mod, attr)
                for name, mod in list(sys.modules.items())
                if (name == "invcat" or name.startswith("invcat."))
                and mod is not module
                and mod.__dict__.get(attr) is original
            ]
        for target, name in targets:
            setattr(target, name, wrapper)
            self._undo.append((target, name, original))

    def install(self) -> None:
        for module_name, dotted, counter in COUNTED:
            cell = self.counts[counter]
            self._replace(module_name, dotted, lambda fn, c=cell: self._counted(fn, c))
        for module_name, dotted, counter in TIMED:
            cell = self.timed[counter]
            self._replace(module_name, dotted, lambda fn, c=cell: self._timed(fn, c))
        for module_name, dotted in SPANNED:
            name = f"{module_name.split('.', 1)[1]}.{dotted}"
            self._replace(module_name, dotted, lambda fn, n=name: self._spanned(fn, n))

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    # ---- results -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: count, inclusive time of the outermost spans of
        that name (so recursion is not counted twice), and self time (each
        span minus the time its direct children cover)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, parent, start, end) in enumerate(spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                entry["total_s"] += end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        totals = self.aggregate()
        compose = self.counts["core.compose"][0]
        rule = self.counts["core.compose_rule"][0]
        annihilator = totals.get("projections.annihilator_candidates", {})
        metrics = {
            "core.compose_calls": compose,
            "core.compose_hit_ratio": 1.0 - rule / compose if compose else 0.0,
            "core.involve_calls": self.counts["core.involve"][0],
            "core.hom_calls": self.counts["core.hom"][0],
            "pbij.compose_calls": self.counts["pbij.compose_pbij"][0],
            "projections.annihilator_search_calls": annihilator.get("count", 0),
            "transfer.apply_calls": self.timed["transfer.apply"][0],
            "transfer.apply_s": self.timed["transfer.apply"][1],
        }
        for metric, names in SPAN_METRICS.items():
            metrics[metric] = sum(totals.get(n, {}).get("total_s", 0.0) for n in names)
        return metrics

    def dump(self, path, header: dict) -> None:
        """Write the header, the per-name aggregate and every span."""
        base = self.spans[0][2] if self.spans else 0.0
        doc = dict(header)
        doc["counters"] = {k: v[0] for k, v in self.counts.items()}
        doc["timed"] = {k: {"count": v[0], "total_s": v[1]} for k, v in self.timed.items()}
        doc["by_name"] = self.aggregate()
        doc["span_fields"] = ["name", "parent", "start_s", "end_s"]
        doc["spans"] = [
            [name, parent, round(start - base, 7), round(end - base, 7)]
            for name, parent, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, ensure_ascii=False)
