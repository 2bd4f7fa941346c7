"""One workload process, started in a fresh interpreter by ``run.py``.

``--mode setup`` imports the CLI and runs one untimed warm-up instance,
then reports how long that took from the parent's launch timestamp, less
the time spent generating the warm-up input.  ``--mode run`` does the same
and then times a closed loop: one client calls the library sequentially on
the seeded instance list until the calls have been busy for ``--seconds``
(and for at least ``MIN_INSTANCES`` instances), reading the yardstick
after every ``CHUNK_SECONDS`` of calls.  With ``--trace 1`` the first
``TRACE_SECONDS`` worth of those instances are replayed, each once under the
tracer and once without, for the per-layer numbers and the tracing overhead.

numpy and the library are imported only after the timed ``import
conjlim.cli``.  The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

#: p90 needs at least ten samples beyond it.
MIN_INSTANCES = 100

#: Untraced busy seconds' worth of instances replayed under the tracer.
TRACE_SECONDS = 10.0

#: Busy seconds of library calls between two yardstick readings.
CHUNK_SECONDS = 0.5

#: Yardstick readings that scale one process's set-up time.
SETUP_YARDSTICKS = 3

#: Instances hashed by the determinism self-check.
DIGEST_INSTANCES = 8


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class Tally:
    """Outcome counts of the timed instances.

    ``failed`` counts operations that failed: an exception, or a verdict
    the oracle contradicts.  A search that returned normally but fell short
    of the certificate it was asked for is ``incomplete``, not failed; it
    still counts against ``certified``.
    """

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.incomplete = 0
        self.starved = 0
        self.wrong = 0
        self.examples: list[str] = []

    def add(self, index: int, status: str) -> None:
        self.attempted += 1
        if status == "ok":
            return
        if status.startswith("error"):
            self.errors += 1
        elif status.startswith("incomplete"):
            self.incomplete += 1
            self.starved += status == "incomplete: starved"
        else:
            self.wrong += 1
        if len(self.examples) < 10:
            self.examples.append(f"instance {index}: {status}")

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def certified(self) -> int:
        return self.attempted - self.failed - self.incomplete


def _call(wl, inst):
    """Run one instance; return (seconds, output or None, error status)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inst)
    except Exception as exc:  # a library failure is counted, not fatal
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, f"error: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def _close_chunk(raw, latencies, slowness) -> None:
    """Read the yardstick and scale the chunk's latencies by it."""
    import yardstick

    if len(latencies) == len(raw):
        return
    slow = yardstick.slowness()
    slowness.append(slow)
    latencies.extend(dt / slow for dt in raw[len(latencies):])


def _self_checks(wl, seed: int, first) -> list[str]:
    """Harness checks that need no timing; returns the ones that failed."""
    problems = []

    def digest(s):
        return [wl.make(s, i).digest() for i in range(DIGEST_INSTANCES)]

    if digest(seed) != digest(seed):
        problems.append("the same seed gave different inputs")
    if digest(seed) == digest(seed + 1):
        problems.append("a different seed gave the same inputs")
    if first is not None:
        inst, out = first
        injected = Tally()
        injected.add(inst.index, wl.check(inst, wl.corrupt(inst, out)))
        if injected.wrong != 1 or injected.failed != 1:
            problems.append("an injected wrong verdict was not counted as failed")
    else:
        problems.append("no instance passed its oracle, so none could be corrupted")
    return problems


def _search_observer(sig, record):
    """Collect evaluations and starvation of every divergence_search call."""
    import numpy as np

    def observe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = np.asarray(bound.arguments["a"])
        scalar = not np.any(a - a[0, 0] * np.eye(a.shape[0]))
        stop_at = bound.arguments["stop_at"]
        stop_at = np.inf if stop_at is None else stop_at
        record["evaluations"] += result.evaluations
        record["starved"] += int(
            not scalar and result.evaluations < bound.arguments["budget"] and result.norm < stop_at
        )

    return observe


def _layer_metrics(summary, wall: float, untraced_wall: float, sizes, search) -> dict:
    import numpy as np

    from workloads import GRID_POINTS, SIZES

    m: dict[str, tuple[float, str]] = {}
    sizes = np.array(sizes)

    def p50(name, scale=1.0, per=1.0):
        return _percentile(summary.durations(name) / per, 50) * scale

    def binned(metric, name, scale, unit, per=1.0):
        d = summary.durations(name) / per
        n = sizes[summary.instances(name)]
        for size in SIZES:
            m[f"{metric}.n{size}"] = (_percentile(d[n == size], 50) * scale, unit)

    for layer in ("numkit", "criteria", "goodpath", "modifier", "pathsim", "linalg"):
        self_s = summary.layer_self_s(layer)
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (self_s / wall, "ratio")

    m["pathsim.simulate.calls"] = (summary.calls("pathsim.simulate"), "count")
    m["pathsim.simulate.us_per_point"] = (p50("pathsim.simulate", 1e6, GRID_POINTS), "us")
    binned("pathsim.simulate.us_per_point", "pathsim.simulate", 1e6, "us", GRID_POINTS)
    m["modifier.apply.calls"] = (summary.calls("modifier.apply"), "count")
    m["modifier.apply.self_s"] = (summary.self_s("modifier.apply"), "s")
    for name in ("criteria.keeps_kernel_invariant", "goodpath.construct_good_path", "modifier.some_path_bounded"):
        m[f"{name}.calls"] = (summary.calls(name), "count")
        m[f"{name}.p50_us"] = (p50(name, 1e6), "us")
    for name in ("numkit.kernel_basis", "numkit.operator_norm"):
        m[f"{name}.calls"] = (summary.calls(name), "count")

    m["goodpath.laurent_inverse.calls"] = (summary.calls("goodpath.laurent_inverse"), "count")
    m["goodpath.laurent_inverse.p50_ms"] = (p50("goodpath.laurent_inverse", 1e3), "ms")
    m["goodpath.laurent_inverse.self_s"] = (summary.self_s("goodpath.laurent_inverse"), "s")
    binned("goodpath.laurent_inverse.p50_ms", "goodpath.laurent_inverse", 1e3, "ms")
    m["pathsim.polynomial_path_bounded.calls"] = (summary.calls("pathsim.polynomial_path_bounded"), "count")
    m["pathsim.polynomial_path_bounded.p50_ms"] = (p50("pathsim.polynomial_path_bounded", 1e3), "ms")
    binned("pathsim.polynomial_path_bounded.p50_ms", "pathsim.polynomial_path_bounded", 1e3, "ms")
    for name in ("lstsq", "det", "svd"):
        m[f"linalg.{name}.calls"] = (summary.calls(f"linalg.{name}"), "count")
        m[f"linalg.{name}.self_s"] = (summary.self_s(f"linalg.{name}"), "s")
    m["linalg.solve.calls"] = (summary.calls("linalg.solve"), "count")

    ds = "pathsim.divergence_search"
    evals = search["evaluations"]
    m[f"{ds}.calls"] = (summary.calls(ds), "count")
    m[f"{ds}.evaluations"] = (evals, "count")
    m[f"{ds}.us_per_eval"] = (float(summary.durations(ds).sum()) * 1e6 / max(1, evals), "us")
    m[f"{ds}.svd_per_eval"] = (summary.calls_under("linalg.svd", ds) / max(1, evals), "ratio")
    m[f"{ds}.starved"] = (search["starved"], "count")
    m["pathsim.locality_probe.calls"] = (summary.calls("pathsim.locality_probe"), "count")
    m["pathsim.locality_probe.p50_ms"] = (p50("pathsim.locality_probe", 1e3), "ms")
    m["trace.overhead_share"] = (wall / untraced_wall - 1.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launch-ns", type=int, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import conjlim.cli  # noqa: F401  (the import a CLI user pays for)

    import_s = time.perf_counter() - t0
    if Path(conjlim.cli.__file__).resolve().parents[1] != Path(args.src).resolve():
        print(f"conjlim was imported from {conjlim.cli.__file__}, not {args.src}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    g0 = time.perf_counter()
    warm = wl.make(args.seed, wl.warmup_index)
    gen_s = time.perf_counter() - g0
    w0 = time.perf_counter()
    wl.run(warm)
    warmup_s = time.perf_counter() - w0
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9 - gen_s
    import yardstick

    slow = statistics.median(yardstick.slowness() for _ in range(SETUP_YARDSTICKS))
    report = {
        "setup_s": setup_s / slow,
        "raw_setup_s": setup_s,
        "import_s": import_s,
        "warmup_s": warmup_s,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    # nothing per instance is kept but its latency, so memory does not grow
    # with the number of instances a faster program gets through
    tally = Tally()
    raw = array("d")
    latencies = array("d")  # raw latencies divided by the machine's slowness
    slowness = array("d")  # one yardstick reading per chunk
    first_ok = None
    busy = chunk_busy = 0.0
    while busy < args.seconds or len(raw) < MIN_INSTANCES:
        inst = wl.make(args.seed, len(raw))
        dt, out, status = _call(wl, inst)
        busy += dt
        chunk_busy += dt
        raw.append(dt)
        if status is None:
            status = wl.check(inst, out)
            if status == "ok" and first_ok is None:
                first_ok = (inst, out)
        tally.add(inst.index, status)
        if chunk_busy >= CHUNK_SECONDS:
            _close_chunk(raw, latencies, slowness)
            chunk_busy = 0.0
    _close_chunk(raw, latencies, slowness)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = _self_checks(wl, args.seed, first_ok)

    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        certified=tally.certified,
        wrong=tally.wrong,
        errors=tally.errors,
        incomplete=tally.incomplete,
        starved=tally.starved,
        examples=tally.examples,
        busy_s=busy,
        instances_per_s=len(latencies) / sum(latencies),
        p50_ms=_percentile(latencies, 50) * 1e3,
        p90_ms=_percentile(latencies, 90) * 1e3,
        raw_instances_per_s=len(raw) / busy,
        raw_p50_ms=_percentile(raw, 50) * 1e3,
        raw_p90_ms=_percentile(raw, 90) * 1e3,
        slowness=_percentile(slowness, 50),
        peak_rss_mb=rss_mb,
        environment=_environment(),
    )

    if args.trace:
        from conjlim import pathsim
        from tracing import Tracer

        original = pathsim.simulate
        search = {"evaluations": 0, "starved": 0}
        observer = _search_observer(inspect.signature(pathsim.divergence_search), search)
        tracer = Tracer({"pathsim.divergence_search": observer})
        tracer.install()
        replay, first_pass = 0, 0.0
        while replay < len(raw) and first_pass < TRACE_SECONDS:
            first_pass += raw[replay]
            replay += 1
        # each instance runs once untraced and once traced, in alternating
        # order, so the overhead is measured in the same stretch of time
        sizes = []
        untraced, traced, inconclusive = 0.0, 0.0, 0
        try:
            for idx in range(replay):
                inst = wl.make(args.seed, idx)
                sizes.append(inst.n)
                tracer.instance = idx
                for on in (idx % 2 == 0, idx % 2 == 1):
                    tracer.active = on
                    dt, out, _ = _call(wl, inst)
                    tracer.active = False
                    if on:
                        traced += dt
                        inconclusive += 0 if out is None else wl.inconclusive(out)
                    else:
                        untraced += dt
        finally:
            tracer.active = False
            tracer.uninstall()
        if pathsim.simulate is not original:
            problems.append("conjlim.pathsim.simulate was not restored after tracing")
        if args.trace_out:
            tracer.save(args.trace_out)
        layers = _layer_metrics(tracer.summary(), traced, untraced, sizes, search)
        layers["pathsim.simulate.inconclusive"] = {"value": float(inconclusive), "unit": "count"}
        report["layers"] = layers

    report["self_check_problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
