"""One timed unit of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per unit and writes a JSON request to its
standard input::

    {"workload": "ccr", "seed": 7, "params": {...}, "trace": false}

The script imports ``cuntzboson`` from the checkout's ``src/`` (never from an
installed copy), prepares the unit's inputs, times the unit and prints one
JSON object: the unit's wall time, per-op latencies, op and pass counts,
peak resident memory, the host-speed scales of ``speed.py`` (of the unit and
of each op) and, when traced, the per-layer metrics.  Timing starts after the import, as it does for a
``cuntzboson`` user whose interpreter has just loaded the package.  Untraced
units run under the speed probe; every time the script reports excludes the
probe's own time and is still in measured seconds (``run.py`` scales them).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LADDER_CYCLES = ((1,), (2,), (1, 2))


def import_program():
    sys.path.insert(0, str(SRC))
    import cuntzboson.cli

    origin = Path(cuntzboson.cli.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SystemExit(f"cuntzboson was imported from {origin}, not from {SRC}")
    return cuntzboson


def suite_unit(name: str):
    def run(program, seed: int, params: dict) -> tuple:
        verify = program.verify

        def timed(probe):
            probed, start = probe.handler_s, time.perf_counter()
            result = verify.run_suite(name, seed=seed, **params)
            wall = time.perf_counter() - start - (probe.handler_s - probed)
            return wall, {"ops": result.total, "passed": result.passed, "op_ms": []}

        return timed

    return run


def ladder_deep_ops(program, seed: int, ops: int, min_exp: int, max_exp: int) -> list:
    """Seeded (n, m, ket) cases; strata cycle through depth, representation and n == m.

    Each ket has one label, so the cost of an op is set by its depth stratum
    and not by how many labels the seed happened to draw.
    """
    from cuntzboson.cuntz import RepSpec

    rng = random.Random(seed)
    specs = [RepSpec(c) for c in LADDER_CYCLES]
    depths = max_exp - min_exp + 1
    cases = []
    for i in range(ops):
        n = 2 ** (min_exp + i % depths)
        spec = specs[(i // depths) % len(specs)]
        diagonal = (i // (depths * len(specs))) % 2 == 0
        m = n if diagonal else n - rng.randint(1, n // 2)
        cases.append((n, m, program.verify.random_ket(rng, spec, max_labels=1)))
    return cases


def ladder_deep_unit(program, seed: int, params: dict):
    from cuntzboson.boson import apply_annihilate, apply_create
    from cuntzboson.states import Ket

    cases = ladder_deep_ops(program, seed, **params)

    def timed(probe):
        latencies, midpoints, passed = [], [], 0
        perf = time.perf_counter
        start_probed, start = probe.handler_s, perf()
        for n, m, v in cases:
            probed, t = probe.handler_s, perf()
            try:
                lhs = apply_annihilate(n, apply_create(m, v)) - apply_create(m, apply_annihilate(n, v))
                ok = lhs == (v if n == m else Ket())
            except Exception:  # a raising op counts as failed, the unit goes on
                ok = False
            end = perf()
            latencies.append(1e3 * (end - t - (probe.handler_s - probed)))
            midpoints.append((t + end) / 2)
            passed += ok
        wall = perf() - start - (probe.handler_s - start_probed)
        return wall, {"ops": len(cases), "passed": passed, "op_ms": latencies,
                      "op_scale": [probe.scale_near(moment) for moment in midpoints]}

    return timed


def cli_mix_unit(program, seed: int, params: dict):
    main = program.cli.main
    corpus = params["argv"]

    def timed(probe):
        latencies, midpoints, outputs = [], [], []
        perf = time.perf_counter
        start_probed, start = probe.handler_s, perf()
        for argv in corpus:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                probed, t = probe.handler_s, perf()
                try:
                    code = main(list(argv))
                except Exception as exc:  # recorded as a wrong exit code
                    code = None
                    err.write(f"Traceback: {exc!r}")
                end = perf()
                latencies.append(1e3 * (end - t - (probe.handler_s - probed)))
                midpoints.append((t + end) / 2)
            outputs.append([code, out.getvalue(), err.getvalue()])
        wall = perf() - start - (probe.handler_s - start_probed)
        return wall, {"ops": len(corpus), "op_ms": latencies, "outputs": outputs,
                      "op_scale": [probe.scale_near(moment) for moment in midpoints]}

    return timed


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it exec'd.

    ``ru_maxrss`` also keeps the peak of the parent's image that was forked
    before the exec, so the kernel's per-image high-water mark is preferred.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


UNITS = {
    "ccr": suite_unit("ccr"),
    "bases": suite_unit("bases"),
    "ladder-deep": ladder_deep_unit,
    "cli-mix": cli_mix_unit,
}


def main() -> None:
    request = json.load(sys.stdin)
    program = import_program()
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    timed = UNITS[request["workload"]](program, request["seed"], request["params"])
    probe = SpeedProbe()
    if tracer is not None:  # traced units are not probed: they report raw seconds
        tracer.reset()
        wall, result = timed(probe)
    else:
        with probe:
            wall, result = timed(probe)
    result["wall_s"] = wall
    result["scale"] = probe.scale()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["fn_calls"] = dict(tracer.calls)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
