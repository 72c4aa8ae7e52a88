"""Benchmark of the cuntzboson package: four workloads, timed from outside.

    python3 perfbench/run.py --workload ccr --seed 7 --seconds 15 --trace 0

Run from the root of a checkout.  Each timed unit runs in a fresh interpreter
(``worker.py``) that imports the package from ``src/``.  A run repeats the
same unit (same seed, same ops) until ``--seconds`` have passed and at least
MIN_UNITS times.  Every time is scaled to a fixed host speed (``speed.py``):
a unit by the host's mean speed over the unit, an op by its speed around the
op.  wall_s is the median unit; where ops are timed one by one, each op's
latency is the median of its repeats and op_p50_ms and op_p99_ms are taken
over ops.
README.md gives the measurements behind that choice.  Outputs are checked
against known answers; a failed check, wrong output, wrong exit code or
exception is a failed op.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one traced
unit and one untraced unit and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is the result object;
the line before it records the environment and the workload's size.  See
README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_UNITS = 4
SETUP_SPAWNS = 25
SETUP_PROBES = 10  # reference passes each set-up process times after its import
DEADLINE = time.monotonic() + 170  # a run must end within 180 s, hung workers included

CCR = {"modes": 6, "samples": 50}  # CLI defaults
BASES = {"cutoff": 4, "exps": 3}  # CLI defaults
LADDER_DEEP = {"ops": 1080, "min_exp": 6, "max_exp": 14}

WORKLOADS = ("ccr", "ladder-deep", "bases", "cli-mix")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a worker died)."""


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _time_left() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def measure_setup() -> float:
    """Median time from a fresh interpreter to ``import cuntzboson.cli`` done.

    After its import each process times reference passes, which give the
    scale of its spawn (a child need not run on the parent's core); the
    spawn's time excludes them.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import cuntzboson.cli; "
            f"start = time.perf_counter(); sys.path.insert(0, {str(HERE)!r}); "
            f"from speed import time_reference; "
            f"probes = [time_reference() for _ in range({SETUP_PROBES})]; "
            f"print(sum(probes), time.perf_counter() - start)")
    times = []
    for spawn in range(SETUP_SPAWNS + 1):  # the first spawn writes the bytecode cache
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, timeout=_time_left())
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"cannot import cuntzboson from {SRC}: {done.stderr.decode()[-500:]}")
        probes_s, probing_s = map(float, done.stdout.split())
        if spawn:
            times.append((elapsed - probing_s) * REF_S * SETUP_PROBES / probes_s)
    return statistics.median(times)


def run_unit(workload: str, seed: int, params: dict, trace: bool) -> dict:
    request = json.dumps({"workload": workload, "seed": seed, "params": params, "trace": trace})
    done = subprocess.run([sys.executable, str(WORKER)], input=request.encode(), env=_child_env(),
                          cwd=ROOT, capture_output=True, timeout=_time_left())
    if done.returncode != 0:
        raise BenchError(f"{workload} worker failed: {done.stderr.decode()[-2000:]}")
    return json.loads(done.stdout.decode().splitlines()[-1])


class Workload:
    """Unit parameters, expected counts and output checks of one workload."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.corpus: list[dict] = []
        self._verdicts: dict = {}
        if name == "ccr":
            self.params = dict(CCR)
            self.ops = 3 * CCR["samples"] * CCR["modes"] ** 2 * 3
        elif name == "bases":
            self.params = dict(BASES)
            self.ops = bases_checks(**BASES)
        elif name == "ladder-deep":
            self.params = dict(LADDER_DEEP)
            self.ops = LADDER_DEEP["ops"]
        else:
            sys.path.insert(0, str(SRC))  # the expected answers use the defining series
            import corpus

            self.corpus = corpus.build(seed)
            self.check_output = corpus.check
            self.params = {"argv": [entry["argv"] for entry in self.corpus]}
            self.ops = len(self.corpus)
            self.mix = corpus.MIX

    def size(self) -> dict:
        if self.name == "cli-mix":
            return {"calls_per_unit": self.ops, "mix": self.mix}
        return {**self.params, "ops_per_unit": self.ops}

    def failed_ops(self, unit: dict) -> int:
        """Failed ops of one unit; a unit that did fewer ops than it should fails them all."""
        if unit["ops"] != self.ops:
            return self.ops
        if self.name != "cli-mix":
            return unit["ops"] - unit["passed"]
        failed = 0
        for index, (entry, output) in enumerate(zip(self.corpus, unit["outputs"])):
            key = (index, *output)
            if key not in self._verdicts:
                self._verdicts[key] = _safe_check(self.check_output, entry["expect"], *output)
            failed += not self._verdicts[key]
        return failed

    def expected_counts(self) -> dict:
        """Per-function call counts a traced unit must reproduce exactly."""
        if self.name == "ccr":
            ladder = 3 * CCR["samples"] * CCR["modes"] ** 2 * 6
            return {"boson.apply_create": ladder, "boson.apply_annihilate": ladder,
                    "verify.add": self.ops}
        if self.name == "bases":
            return {"verify.add": self.ops}
        if self.name == "ladder-deep":
            return {"boson.apply_create": 2 * self.ops, "boson.apply_annihilate": 2 * self.ops}
        parsed = sum(e["argv"][0] == "act" and "--expr" in e["argv"] for e in self.corpus)
        return {"cli.main": self.ops, "expr.parse_expression": parsed}


def _safe_check(check, expect: dict, code, stdout: str, stderr: str) -> bool:
    try:
        return check(expect, code, stdout, stderr)
    except (ValueError, KeyError, AttributeError, IndexError, TypeError):
        return False  # output that does not parse is a wrong output


def bases_checks(cutoff: int, exps: int) -> int:
    """Checks of ``verify bases``: orthonormality pairs plus one span check per family."""
    def family(n: int) -> int:
        return n * (n + 1) // 2 + 1

    lambda_size = cutoff ** cutoff
    typej = [(1 + exps + min(j - 1, exps)) ** cutoff for j in (1, 2)]
    onetwov = (1 + exps) ** ((cutoff + 1) // 2) * (2 + exps) ** (cutoff // 2)
    vacuum = 2 * 4 * 4 * 2
    return 2 * family(lambda_size) + sum(family(n) for n in typej) + family(onetwov) + vacuum


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "src_files": len(src_files),
    }


def _commit() -> str | None:
    """HEAD of the checkout's git repository; None outside one or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # no repository above ROOT
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=_time_left())
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_untraced(work: Workload, seconds: float) -> tuple[dict, int, int, dict]:
    setup_s = measure_setup()
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        units.append(run_unit(work.name, work.seed, work.params, trace=False))
    attempted = len(units) * work.ops
    failed = sum(work.failed_ops(unit) for unit in units)
    wall_s = statistics.median(unit["wall_s"] * unit["scale"] for unit in units)
    if units[0]["op_ms"]:  # ops timed one by one: each op's median repeat
        op_ms = [statistics.median(op) for op in
                 zip(*(map(operator.mul, unit["op_ms"], unit["op_scale"]) for unit in units))]
    else:  # checks run inside run_suite: the median unit's time per check
        op_ms = [1e3 * wall_s / work.ops]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (work.ops / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p99_ms": (percentile(op_ms, 0.99), "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(unit["peak_rss_mb"] for unit in units), "MB"),
    }
    info = {"units": len(units), "unit_wall_s": [unit["wall_s"] for unit in units],
            "unit_scale": [unit["scale"] for unit in units], "latency_samples": len(op_ms)}
    return metrics, attempted, failed, info


def run_traced(work: Workload) -> tuple[dict, int, int, dict]:
    """One traced unit for the per-layer metrics, one untraced unit for the overhead."""
    from spans import metric_names, unit_of

    traced = run_unit(work.name, work.seed, work.params, trace=True)
    plain = run_unit(work.name, work.seed, work.params, trace=False)
    failed = work.failed_ops(traced) + work.failed_ops(plain)
    mismatched = {key: [traced["fn_calls"].get(key, 0), n]
                  for key, n in work.expected_counts().items()
                  if traced["fn_calls"].get(key, 0) != n}
    metrics = {name: (traced["layers"][name], unit_of(name)) for name in metric_names()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    info = {"units": 2, "count_mismatches": mismatched}
    return metrics, 2 * work.ops, min(2 * work.ops, failed + len(mismatched)), info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuntzboson" / "cli.py").is_file():
        print(f"error: no cuntzboson sources under {SRC}", file=sys.stderr)
        return 2
    try:
        work = Workload(args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed, info = run_traced(work)
        else:
            metrics, attempted, failed, info = run_untraced(work, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "size": work.size(), **info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
