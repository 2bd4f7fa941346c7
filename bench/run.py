"""conjlim benchmark: one seeded workload, timed end to end, oracle-checked.

    python3 bench/run.py --workload {sweep,exact,locality} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Every measurement happens in fresh interpreters started
by this script, with BLAS pinned to ``BLAS_THREADS`` threads:

* ``SETUP_SAMPLES - 1`` set-up probes plus the workload process itself each
  import ``conjlim.cli`` and run one warm-up instance; ``setup_s`` is the
  median of their launch-to-warm time.
* The workload process then runs a closed loop of seeded instances (one
  client, sequential calls) for ``--seconds`` of library time, and checks
  every result against its oracle.
* Every end-to-end timing is divided by the machine's slowness, read from
  ``yardstick.py`` next to it, so that runs made minutes apart on a host
  whose speed drifts can be compared.
* With ``--trace 1`` the workload process replays the same instances under
  the tracer, and one more probe runs under ``python -X importtime`` to
  attribute import time to scipy.

The last line of standard output is the result object; the line before it
records the machine and library build.  The script exits non-zero without a
result when the checkout has no ``src/conjlim`` or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("sweep", "exact", "locality")
SETUP_SAMPLES = 5
BLAS_THREADS = 1

#: Seconds any one worker may take before it is killed.
WORKER_TIMEOUT = 150


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(mode: str, args, *, importtime: bool = False, extra=()) -> tuple[dict, str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(BENCH / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", str(SRC),
        "--launch-ns", str(time.monotonic_ns()),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if importtime else None,
            text=True,
            timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1]), proc.stderr or ""


def _scipy_import_s(importtime: str) -> float:
    """Total self time of ``scipy`` modules in ``-X importtime`` output."""
    total_us = 0
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    if not (SRC / "conjlim" / "__init__.py").is_file():
        raise BenchError(f"no conjlim package under {SRC}")
    load = os.getloadavg()
    probes = [_worker("setup", args)[0] for _ in range(SETUP_SAMPLES - 1)]
    extra = []
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        extra = ["--trace-out", str(TRACE_DIR / f"trace-{args.workload}.npz")]
    main, _ = _worker("run", args, extra=extra)
    if main["self_check_problems"]:
        raise BenchError("self-check failed: " + "; ".join(main["self_check_problems"]))
    samples = probes + [main]
    setup_s = statistics.median(s["setup_s"] for s in samples)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        **main["environment"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": load,
        "attempted": main["attempted"],
        "outcomes": {k: main[k] for k in ("errors", "wrong", "incomplete", "starved")},
        "failed_share": main["failed"] / main["attempted"],
        "incomplete_share": main["incomplete"] / main["attempted"],
        "outcome_examples": main["examples"],
        "busy_s": main["busy_s"],
        "slowness": main["slowness"],
        "raw": {
            "setup_s": statistics.median(s["raw_setup_s"] for s in samples),
            **{k: main[f"raw_{k}"] for k in ("instances_per_s", "p50_ms", "p90_ms")},
        },
    }

    if args.trace:
        _, stderr = _worker("setup", args, importtime=True)
        metrics = {
            "cli.import_s": _metric(statistics.median(s["import_s"] for s in samples), "s"),
            "cli.import_scipy_s": _metric(_scipy_import_s(stderr), "s"),
            "cli.warmup_s": _metric(statistics.median(s["warmup_s"] for s in samples), "s"),
            **main["layers"],
        }
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "instances_per_s": _metric(main["instances_per_s"], "1/s"),
            "instance_p50_ms": _metric(main["p50_ms"], "ms"),
            "instance_p90_ms": _metric(main["p90_ms"], "ms"),
            "certified_share": _metric(main["certified"] / main["attempted"], "ratio"),
            "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": main["wrong"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return env, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        env, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
