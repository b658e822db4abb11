"""invcat benchmark runner.

    python3 perfbench/run.py --workload gate-0123 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout: the library is imported from
`src/` next to this directory and nowhere else.  With `--trace 0` it times
set-up and repeated passes over the workload's commands and reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it runs one plain
pass and one traced pass and reports the per-layer metrics.  The last line
of standard output is the JSON result; the lines before it are a record of
the run (seed, input sizes, machine) and every metric by name and unit.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is timed again and again between commands, on SETUP_SHARE of the
# time the commands take, so its median covers the whole run and not one
# stretch of it; the last round tops the samples up to SETUP_MIN_SAMPLES.
SETUP_SHARE = 0.1
SETUP_MIN_SAMPLES = 5

# The whole machine's speed drifts under outside load, by up to 2x for a
# minute at a time, which no run length here averages away.  So times are
# scaled to a reference speed: a reference loop of REF_ROUNDS rounds runs
# between commands, one of TICK_ROUNDS rounds every TICK_S seconds during
# them, and REF_NOMINAL_S is the REF_ROUNDS loop's time on the recording
# machine at its quiet speed.
REF_ROUNDS = 40
REF_NOMINAL_S = 0.008
TICK_S = 0.5
TICK_ROUNDS = 10


def pin_hash_seed(seed: int) -> None:
    """Make the string hash seed part of the input.  Saturation and other
    searches walk sets of morphisms, so their work, and the call counts of
    the trace, depend on set order; with the hash seed taken from --seed the
    same seed repeats them exactly.  Re-executes this process once."""
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def import_invcat() -> None:
    """Put the checkout's src/ first on the path and make sure the package
    really comes from there; exit 1 when it does not."""
    package = SRC / "invcat"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no invcat sources at {package}")
    sys.path.insert(0, str(SRC))
    import invcat

    if Path(invcat.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: invcat was imported from {invcat.__file__}, not {package}")


class Tally:
    """Attempted and failed commands, failure kinds, catches per suite."""

    def __init__(self, known_defect) -> None:
        self.known_defect = known_defect
        self.attempted = 0
        self.failures: Counter = Counter()
        self.unexpected = 0
        self.catches: Counter = Counter()
        self.defect_runs: Counter = Counter()
        self.cases = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No failure other than the known defect on a command marked for it."""
        return self.unexpected == 0

    def run(self, command) -> None:
        """Run one command and record its outcome."""
        self.attempted += 1
        try:
            outcome = command()
        except Exception as err:  # a command's failure must not stop the run
            kind = type(err).__name__
            if not (command.known_defect and kind in self.known_defect):
                self.unexpected += 1
                if self.failures[f"{command.suite} {kind}"] == 0:
                    traceback.print_exc()
            self.failures[f"{command.suite} {kind}"] += 1
            return
        self.cases += outcome.cases
        if outcome.caught is not None:
            self.defect_runs[command.suite] += 1
            self.catches[command.suite] += outcome.caught
        if outcome.problem is not None:
            self.unexpected += 1
            if self.failures[f"{command.suite} wrong-verdict"] == 0:
                print(f"wrong verdict: {command.suite} {command.label}: {outcome.problem}",
                      file=sys.stderr)
            self.failures[f"{command.suite} wrong-verdict"] += 1


def reference_seconds(rounds: int) -> float:
    """Time `rounds` rounds of a fixed piece of pure-Python work that shares
    no code with invcat but has the character of its hot paths: building
    and hashing small frozensets and tuples, dict lookups, short loops.
    Ints only, so the hash seed does not change it; the collector is off,
    so it never pays for the workload's garbage."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            table = {}
            for xs in itertools.product(range(3), repeat=2):
                for ys in itertools.product(range(3), repeat=2):
                    f, g = frozenset(zip(xs, ys)), frozenset(zip(ys, xs))
                    after = dict(f)
                    table[(f, g)] = frozenset((x, after[y]) for x, y in g if y in after)
        return time.perf_counter() - start
    finally:
        gc.enable()


class ReferenceClock:
    """Follows the machine's speed through a run.  The reference loop runs
    between timed regions (REF_ROUNDS rounds, after a full collection, so
    every command starts on a clean heap as a CLI process does) and, from a
    SIGALRM timer, every TICK_S seconds inside them (TICK_ROUNDS rounds), so
    that a long command is followed too.  `stolen` is the time the ticks
    took, which the timed regions leave out.  Use as a context manager."""

    def __init__(self) -> None:
        self.per_round: list[float] = []
        self.stolen = 0.0
        self._quiet = True
        self._last = 0

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._between()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self) -> None:
        self._quiet = True
        gc.collect()
        self.per_round.append(reference_seconds(REF_ROUNDS) / REF_ROUNDS)
        self._quiet = False

    def _tick(self, signum, frame) -> None:
        if self._quiet:
            return
        start = time.perf_counter()
        self.per_round.append(reference_seconds(TICK_ROUNDS) / TICK_ROUNDS)
        self.stolen += time.perf_counter() - start

    def factor(self) -> float:
        """End a timed region: run the reference loop and return the factor
        that scales the region to the reference speed, REF_NOMINAL_S over
        the mean reference time seen from the region's start to its end."""
        first = self._last
        self._between()
        self._last = len(self.per_round) - 1
        return REF_NOMINAL_S / (REF_ROUNDS * statistics.mean(self.per_round[first:]))

    def timed(self, fn) -> float:
        """Wall time of fn(), without the ticks that fell inside it."""
        start, stolen = time.perf_counter(), self.stolen
        fn()
        return time.perf_counter() - start - (self.stolen - stolen)


class SetupSampler:
    """Times `work.setup()` in rounds, each lasting until set-up has had
    SETUP_SHARE of the time spent on commands so far."""

    def __init__(self, work, clock: ReferenceClock) -> None:
        self.work = work
        self.clock = clock
        self.count = 0
        self.spent = 0.0

    def round(self, command_time: float, least: int = 1) -> list[float]:
        samples = []
        while self.count < least or self.spent < SETUP_SHARE * command_time:
            samples.append(self.clock.timed(self.work.setup))
            self.count += 1
            self.spent += samples[-1]
        return samples


def plain_run(work, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Passes over the commands until the next pass would end after
    `seconds`; at least one pass.  Each command's time is the median over
    the passes, and one pass takes their sum.  Every command, and the set-up
    round before it, is scaled to the reference speed; the wall times go
    into the record."""
    deadline = time.perf_counter() + seconds
    passes: list[list[float]] = []
    walls: list[list[float]] = []
    setup_scaled: list[float] = []
    setup_wall: list[float] = []
    command_time = 0.0
    with ReferenceClock() as clock:
        setup = SetupSampler(work, clock)
        while True:
            pass_start = time.perf_counter()
            scaled, wall = [], []
            for command in work.commands:
                samples = setup.round(command_time)
                wall.append(clock.timed(lambda: tally.run(command)))
                factor = clock.factor()
                scaled.append(wall[-1] * factor)
                setup_wall += samples
                setup_scaled += [t * factor for t in samples]
                command_time += wall[-1]
            passes.append(scaled)
            walls.append(wall)
            now = time.perf_counter()
            if now + (now - pass_start) > deadline:
                break
        samples = setup.round(command_time, SETUP_MIN_SAMPLES)
        factor = clock.factor()
    setup_wall += samples
    setup_scaled += [t * factor for t in samples]

    def summary(runs: list[list[float]], setup_times: list[float]) -> dict:
        per_command = [statistics.median(column) for column in zip(*runs)]
        return {
            "setup_s": statistics.median(setup_times),
            "verify_s": sum(per_command),
            "command_max_s": max(per_command),
        }

    metrics = summary(passes, setup_scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {
        "setup_samples": setup.count,
        "wall": summary(walls, setup_wall),
        "wall_pass_s": [round(sum(p), 4) for p in walls],
        "reference_s": statistics.median(clock.per_round) * REF_ROUNDS,
        "reference_samples": len(clock.per_round),
    }
    return metrics, extra


def traced_run(work, seed: int, tally: Tally, header: dict) -> tuple[dict, dict]:
    """One plain pass, then one traced pass; their ratio, each scaled to the
    reference speed, is the trace overhead."""

    def plain_pass() -> None:
        for command in work.commands:
            tally.run(command)

    def traced_pass() -> None:
        for command in work.commands:
            with tracer.span(f"command {command.suite} {command.label}"):
                tally.run(command)

    tracer = Tracer()
    with ReferenceClock() as clock:
        plain = clock.timed(plain_pass) * clock.factor()
        cases_before = tally.cases
        tracer.install()
        try:
            traced = clock.timed(traced_pass)
        finally:
            tracer.uninstall()
        traced *= clock.factor()
    metrics = tracer.layer_metrics()
    metrics["report.cases_checked"] = tally.cases - cases_before
    metrics["trace.overhead_ratio"] = traced / plain
    path = OUT / f"trace-{work.name}-seed{seed}.json"
    tracer.dump(path, dict(header, plain_verify_s=plain, traced_verify_s=traced))
    return metrics, {"spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload, for the benchmark's self-test")
    args = parser.parse_args()

    pin_hash_seed(args.seed)
    import_invcat()
    import workloads

    work = workloads.make(args.workload, args.seed, args.tiny)
    tally = Tally(workloads.KNOWN_DEFECT)
    header = {
        "workload": work.name,
        "seed": args.seed,
        "tiny": args.tiny,
        "inputs": work.inputs,
        "commands": len(work.commands),
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
        },
    }
    if args.trace:
        metrics, extra = traced_run(work, args.seed, tally, header)
        wanted = spec["per_layer"]
    else:
        metrics, extra = plain_run(work, args.seconds, tally)
        wanted = spec["end_to_end"]

    record = dict(header, **extra, attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted,
                  failures=dict(tally.failures), cases_checked=tally.cases)
    if tally.defect_runs:
        record["catches"] = {
            suite: f"{tally.catches[suite]}/{runs}" for suite, runs in tally.defect_runs.items()
        }
    print(json.dumps({"record": record}))
    print(f"{'failed_ratio':40s} {record['failed_ratio']:.6g} ratio")
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        print(f"{entry['name']:40s} {value:.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
