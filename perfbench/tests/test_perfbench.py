"""Self-test of the benchmark runner, on shrunken workloads.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.cache
def tiny_run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = invoke(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        w["name"]: {"value": result["metrics"][w["name"]]["value"], "unit": w["unit"]}
        for w in wanted
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("{")}
    for w in wanted:
        assert printed[w["name"]] == w["unit"]
    assert printed["failed_ratio"] == "ratio"
    record = json.loads(lines[0])["record"]
    assert record["seed"] == 3 and record["inputs"]


def test_transfer_maps_run_on_gate_and_not_on_wide():
    gate = tiny_run("gate-0123", 1)[1]["metrics"]
    wide = tiny_run("wide-04", 1)[1]["metrics"]
    assert gate["transfer.apply_calls"]["value"] > 0
    assert wide["transfer.apply_calls"]["value"] == 0


@pytest.mark.parametrize("workload", ["table-search", "mutants-0123"])
def test_counts_repeat_exactly_for_one_seed(workload):
    counts = [w["name"] for w in SPEC["per_layer"] if w["unit"] == "count"]
    runs = [json.loads(invoke(ROOT, workload, 1, seed=4).stdout.splitlines()[-1]) for _ in range(2)]
    first, second = ({m: r["metrics"][m]["value"] for m in counts} for r in runs)
    assert first == second
    assert first != {m: tiny_run(workload, 1)[1]["metrics"][m]["value"] for m in counts}


def test_known_coherence_defect_is_counted_as_failed():
    record = json.loads(tiny_run("table-search", 0)[0][0])["record"]
    assert record["failed"] > 0
    assert set(record["failures"]) <= {
        "exactness NoKernelError", "exactness NoCokernelError", "exactness NoFactorizationError",
    }


def test_known_defect_is_unexpected_where_the_category_is_exact():
    """The known coherence defect is tolerated only on commands marked for
    it; on gate-0123, whose category is exact, it makes `correct` false."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import invcat
    import run
    import workloads

    def raise_no_kernel(cat):
        obj = cat.objects[0]
        raise invcat.NoKernelError(cat.hom(obj, obj)[0], "seeded")

    def outcome(command) -> bool:
        tally = run.Tally(workloads.KNOWN_DEFECT)
        tally.run(dataclasses.replace(command, run=raise_no_kernel))
        assert tally.failed == 1
        return tally.correct

    gate = workloads.make("gate-0123", 3, tiny=True)
    assert [c.known_defect for c in gate.commands] == [False] * len(gate.commands)
    assert not outcome(next(c for c in gate.commands if c.suite == "exactness"))
    mutants = workloads.make("mutants-0123", 3, tiny=True)
    assert outcome(next(c for c in mutants.commands if c.suite == "exactness"))
    assert not outcome(next(c for c in mutants.commands if c.suite == "axioms"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(tmp_path, "gate-0123", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
