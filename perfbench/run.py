"""Benchmark of toricstrata: end-to-end metrics and a traced per-layer run.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload suite200 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py              # every workload, default seed

Workloads (inputs are a pure function of ``--seed``; one caller issues one
item at a time):

* ``suite200``  -- ``stratify`` on 200 random cones (rank 2-4, <= 6 rays).
* ``polygon``   -- ``stratify`` on rank-3 cones over 8..12 vertices of a
  lattice 12-gon, where the Luna enumeration and Fourier-Motzkin dominate.
* ``roots_box`` -- ``enumerate_roots`` at bound 8 over the ``suite200`` cones.
* ``cli``       -- ``python -m toricstrata.cli`` as a subprocess, all six
  commands on the four fixture files, 8 rounds.

A run makes ``seconds // PASS_SECONDS`` passes (at least one), each over
its own inputs and in a fresh worker process, so process-wide caches start
cold.  ``--trace 1`` instead runs the first pass once untraced and once
traced and reports the per-layer metrics and the tracing overhead, which
compares the host-normalised times of the two passes.

Time metrics are normalised by host speed.  The shared 2-core hosts this
runs on drift by up to a quarter in speed over seconds to minutes, so each
pass also times a fixed pure-Python loop (``worker.calibrate_once``) about
every half second, outside the item timers, and each item's time is scaled
by the nominal loop time over the loop time sampled around it.  A value thus
reads as seconds on the host at its usual speed; raw pass times and the host
factors are in the record line.

End-to-end metrics (``--trace 0``), the same in every workload:

* ``setup_s`` -- median over at least five fresh workers of the time to
  import toricstrata and generate the inputs, before the first timed call;
* ``wall_s`` -- median over passes of the summed item times;
* ``latency_p50_ms`` / ``latency_tail_ms`` -- per-item time (one cone or
  one invocation) over all passes: the median, and the highest percentile
  of :data:`TAIL_LADDER` that leaves at least ten items of one pass beyond
  it (the maximum when a pass has fewer than twenty items);
* ``largest_cone_s`` -- median item time over the inputs with the most rays
  (see :func:`largest_class`): the 12-ray cones for ``polygon``;
* ``resolved_rate`` -- share of items whose result leaves nothing
  inconclusive or unverified (``1 - unresolved_rate``);
* ``success_rate`` -- share of items that neither raise, exit non-zero nor
  fail the output check (``1 - fail_rate``);
* ``peak_rss_mb`` -- median over passes of the peak resident set of the
  process that ran the items (for ``cli``, of its largest child).

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment, the seed and a digest of the
inputs.  The exit code is 1 when an output check fails and 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "largest_cone_s": "s",
    "resolved_rate": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
DEFAULT_SECONDS = 25
# Nominal seconds of one pass on a 2-core x86-64 host.
PASS_SECONDS = {"suite200": 12, "polygon": 8, "roots_box": 6, "cli": 17}
SETUP_SAMPLES = 5
# Seconds per calibration call (see worker.calibrate_once) on the reference
# 2-core x86-64 host when it runs at its usual speed.
CAL_NOMINAL_S = 0.00085
TAIL_LADDER = (95, 90, 75, 50)
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def worker(root: Path, spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['mode']} worker ran past the time limit")
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{spec['mode']} worker failed: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(items_per_pass: int):
    """Highest ladder percentile with at least ten items of one pass beyond
    it; ``None`` (the maximum) when a pass has fewer than twenty items."""
    return next((q for q in TAIL_LADDER if items_per_pass * (100 - q) >= 1000), None)


def percentile(values, q) -> float:
    ordered = sorted(values)
    if q is None:
        return ordered[-1]
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def largest_class(sizes) -> int:
    """Fewest rays among the largest inputs: the top tenth of the items by
    ray count, widened to whole ray-count classes."""
    return sorted(sizes, reverse=True)[math.ceil(len(sizes) / 10) - 1]


def environment(root: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def host_factor(run: dict) -> float:
    """Mean host slowness during a worker: calibration time over nominal."""
    return statistics.mean(run["host"]) / CAL_NOMINAL_S


def normalized(run: dict) -> list[float]:
    """Item times of a pass, each divided by the host slowness around it."""
    return [t * CAL_NOMINAL_S / h for t, h in zip(run["times"], run["host"])]


def passes_per_run(workload: str, seconds: int) -> int:
    return max(1, seconds // PASS_SECONDS[workload])


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = {"workload": workload, "seed": seed}
    worker(root, dict(spec, part=0, mode="setup"), deadline)  # writes bytecode, warms the file cache
    if trace:
        passes = [worker(root, dict(spec, part=0, mode="pass"), deadline)]
        traced = worker(root, dict(spec, part=0, mode="trace"), deadline)
    else:
        passes = [
            worker(root, dict(spec, part=part, mode="pass"), deadline)
            for part in range(passes_per_run(workload, seconds))
        ]
        traced = None
    probes = list(passes)
    while not trace and len(probes) < SETUP_SAMPLES:
        probes.append(worker(root, dict(spec, part=0, mode="setup"), deadline))
    setups = [p["setup_s"] / host_factor(p) for p in probes]

    every = passes + ([traced] if traced else [])
    problems = [p for run in every for p in run["problems"]]
    if traced and traced["input_digest"] != passes[0]["input_digest"]:
        problems.append("the traced pass saw other inputs than the untraced one")
    if traced and traced["self_sum_s"] > traced["wall_s"]:
        problems.append("traced self times exceed the traced wall time")
    walls = [sum(normalized(p)) for p in passes]
    times = [t for p in passes for t in normalized(p)]
    sizes = [s for p in passes for s in p["sizes"]]
    ok = [v for p in every for v in p["ok"]]
    resolved = [v for p in passes for v in p["resolved"]]
    failed = ok.count(False)
    q = tail_percentile(len(passes[0]["times"]))
    largest = largest_class(sizes)
    record = {
        "workload": workload,
        "seed": seed,
        "input_digest": hashlib.sha256(
            " ".join(p["input_digest"] for p in passes).encode()
        ).hexdigest(),
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "passes": len(passes),
        "host_factors": [host_factor(p) for p in probes],
        "raw_wall_s": [p["wall_s"] for p in passes],
        "items_per_pass": len(passes[0]["times"]),
        "tail_percentile": q if q is not None else 100,
        "tail_samples_beyond": sum(t > percentile(times, q) for t in times),
        "largest_cone_min_rays": largest,
        "largest_cone_samples": sum(s >= largest for s in sizes),
        "fail_rate": failed / len(ok),
        "unresolved_rate": resolved.count(False) / len(resolved),
        "problems": problems[:20],
    }

    if trace:
        layers = traced["layers"]
        untraced = traced.get("untraced", passes[0])
        layers["trace.wall_s"] = (traced["wall_s"], "s")
        layers["trace.overhead_ratio"] = (
            sum(normalized(traced)) / sum(normalized(untraced)) - 1, "ratio"
        )
        layers["trace.self_share"] = (traced["self_sum_s"] / traced["wall_s"], "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": percentile(times, q) * 1e3,
            "largest_cone_s": statistics.median(t for t, s in zip(times, sizes) if s >= largest),
            "resolved_rate": resolved.count(True) / len(resolved),
            "success_rate": 1 - failed / len(ok),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not problems,
        "attempted": len(ok),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def report(workload: str, result: dict, record: dict) -> None:
    print(f"{workload}: {record['passes']} pass(es) of {record['items_per_pass']} items, "
          f"seed {record['seed']}, inputs {str(record['input_digest'])[:16]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  tail percentile p{record['tail_percentile']} "
          f"({record['tail_samples_beyond']} samples beyond), "
          f"fail_rate {record['fail_rate']:.4g}, unresolved_rate {record['unresolved_rate']:.4g}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toricstrata" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/toricstrata", file=sys.stderr)
        return 2
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result, record = measure(root, workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        report(workload, result, record)
        print(json.dumps({"record": record}))
        results[workload] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {w: r["metrics"] for w, r in results.items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
