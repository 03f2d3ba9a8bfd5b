"""Record the reference outputs that the default-seed runs are checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json`` for every pass a run of the
default length makes on the default seed.  Run it only when the
library's output changes on purpose, and say so in the change log: the
files pin the answers the benchmark accepts.
"""

from __future__ import annotations

import json
import sys

import check
import workloads
from run import DEFAULT_SECONDS, passes_per_run
from worker import item_runner, timed_pass


def reference_pass(workload: str, seed: int, part: int) -> dict:
    items = workloads.generate(workload, seed, part)
    _, results, _ = timed_pass(item_runner(workload, in_process_cli=False), items)
    records = []
    for index, (item, result) in enumerate(zip(items, results)):
        if isinstance(result, Exception):
            raise SystemExit(f"{workload} pass {part} item {index} raised {result!r}")
        problems, _, record = check.examine(workload, item, result, workloads.ROOTS_BOUND)
        if problems:
            raise SystemExit(f"{workload} pass {part} item {index}: {problems}")
        records.append(record)
    return {"input_digest": workloads.digest(workload, items), "items": records}


def main(names) -> int:
    seed = workloads.DEFAULT_SEED
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        passes = [
            reference_pass(workload, seed, part)
            for part in range(passes_per_run(workload, DEFAULT_SECONDS))
        ]
        path = check.REFERENCE_DIR / f"{workload}.json"
        payload = {"seed": seed, "passes": passes}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        print(f"wrote {path.name}: {len(passes)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
