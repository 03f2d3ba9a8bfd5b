"""One set-up probe or one measured pass of a workload, in a fresh process.

    python3 perfbench/worker.py '{"workload": "suite200", "seed": 1, "part": 0, "mode": "pass"}'

``mode`` is ``setup`` (import and input generation, then host-speed
samples), ``pass`` (every input of pass ``part`` once, untraced, with
host-speed samples between items) or ``trace`` (the same pass with the
tracer installed, plus the ``cli.*`` probes).  A fresh process per pass means every input is
seen once with toricstrata's process-wide caches cold, as a CLI user sees
it.  The worker prints one JSON object on stdout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, clear_caches  # noqa: E402

PROBES = 10
CLI_TIMEOUT_S = 60
CAL_SAMPLE_S = 0.03
CAL_EVERY_S = 0.5
SETUP_CAL_SAMPLES = 5


def cli_argv(invocation) -> list[str]:
    command, name = invocation
    return [command, str(workloads.FIXTURES / name), "--format", "json"]


def run_cli_process(invocation):
    proc = subprocess.run(
        [sys.executable, "-m", "toricstrata.cli", *cli_argv(invocation)],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(invocation):
    """``main(argv)`` in this process, caches emptied first as in a fresh one."""
    from toricstrata.cli import main

    clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(cli_argv(invocation))
    return code, out.getvalue()


def item_runner(workload: str, in_process_cli: bool):
    if workload == "cli":
        return run_cli_in_process if in_process_cli else run_cli_process
    import toricstrata as ts

    if workload == "roots_box":
        return lambda item: ts.enumerate_roots(ts.build_cone(*item), workloads.ROOTS_BOUND)
    return lambda item: ts.stratify(*item)


def calibrate_once() -> None:
    """Fixed interpreter work independent of toricstrata: small integer row
    reductions and Fraction sums, the operations the library is made of."""
    total = Fraction(0)
    for k in range(40):
        m = [[(i * 7 + j * 3 + k) % 11 - 5 for j in range(5)] for i in range(5)]
        for c in range(4):
            for r in range(c + 1, 5):
                m[r] = [m[c][c] * y - m[r][c] * x for x, y in zip(m[c], m[r])]
        total += Fraction(m[4][4] % 97, 1 + k)


def host_sample() -> float:
    """Seconds per :func:`calibrate_once`, averaged over CAL_SAMPLE_S."""
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < CAL_SAMPLE_S:
        calibrate_once()
        calls += 1
    return (time.perf_counter() - start) / calls


def timed_pass(run, items, calibrate: bool = False):
    """Time each item.  With ``calibrate``, also sample host speed (outside
    the item timers) before the first item, after the last, and before any
    item that starts CAL_EVERY_S or more after the previous sample; each
    item then gets the mean of the two samples around it."""
    times, results, speeds, bracket = [], [], [], []
    sampled_at = None
    for item in items:
        if calibrate and (sampled_at is None or time.perf_counter() - sampled_at >= CAL_EVERY_S):
            speeds.append(host_sample())
            sampled_at = time.perf_counter()
        bracket.append(len(speeds) - 1)
        t = time.perf_counter()
        try:
            result = run(item)
        except Exception as exc:  # an item that raises is a failed item
            result = exc
        times.append(time.perf_counter() - t)
        results.append(result)
    if not calibrate:
        return times, results, []
    speeds.append(host_sample())
    return times, results, [(speeds[b] + speeds[b + 1]) / 2 for b in bracket]


def examine_all(workload, seed, part, items, results, digest):
    reference = check.load_reference(workload, seed, part)
    ok, resolved, problems = [], [], []
    if reference is not None and reference["input_digest"] != digest:
        problems.append("inputs differ from the reference inputs of this seed")
    for index, (item, result) in enumerate(zip(items, results)):
        if isinstance(result, Exception):
            found, done, record = [f"{type(result).__name__}: {result}"], False, None
        else:
            found, done, record = check.examine(workload, item, result, workloads.ROOTS_BOUND)
        if reference is not None and not found and record != reference["items"][index]:
            found = ["differs from the reference"]
        ok.append(not found)
        resolved.append(done)
        problems.extend(f"item {index}: {p}" for p in found)
    return ok, resolved, problems


def wall_of(argv) -> float:
    t = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t


def cli_probes(seed: int) -> dict:
    """Interpreter start, import of the CLI, and in-process ``main`` per command."""
    spawn, imported = [], []
    for _ in range(PROBES):  # interleaved, so drift in host speed hits both alike
        spawn.append(wall_of([sys.executable, "-c", "pass"]))
        imported.append(wall_of([sys.executable, "-c", "import toricstrata.cli"]))
    one_round = workloads.cli_invocations(workloads.stream(seed, 0), rounds=1)
    times, _, _ = timed_pass(run_cli_in_process, one_round)
    return {
        "cli.spawn_ms": (statistics.median(spawn) * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(imported) - statistics.median(spawn)) * 1e3, "ms"),
        "cli.main_ms": (statistics.median(times) * 1e3, "ms"),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    workload, seed, part, mode = spec["workload"], spec["seed"], spec["part"], spec["mode"]
    if workload == "cli":
        import toricstrata.cli  # noqa: F401
    else:
        import toricstrata  # noqa: F401
    items = workloads.generate(workload, seed, part)
    out = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        out["host"] = [host_sample() for _ in range(SETUP_CAL_SAMPLES)]
        print(json.dumps(out))
        return

    run = item_runner(workload, in_process_cli=mode == "trace")
    if mode == "trace":
        if workload == "cli":
            untraced_times, _, untraced_host = timed_pass(run, items, calibrate=True)
            out["untraced"] = {"times": untraced_times, "host": untraced_host}
        with Tracer() as tracer:
            times, results, out["host"] = timed_pass(run, items, calibrate=True)
        layers = tracer.metrics()
        layers.update(cli_probes(seed))
        out["layers"] = layers
        out["self_sum_s"] = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    else:
        times, results, out["host"] = timed_pass(run, items, calibrate=True)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" and mode == "pass" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    digest = workloads.digest(workload, items)
    ok, resolved, problems = examine_all(workload, seed, part, items, results, digest)
    out.update(
        wall_s=sum(times),
        times=times,
        sizes=[workloads.item_size(workload, item) for item in items],
        ok=ok,
        resolved=resolved,
        problems=problems[:10],
        input_digest=digest,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
