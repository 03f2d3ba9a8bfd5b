"""Seeded inputs of the four workloads.

Every input is a pure function of the seed and the pass number, and is
built without importing toricstrata, so two commits of the library always
receive identical inputs for the same seed; :func:`digest` fingerprints
them for the run record.  Each pass of a run gets its own inputs, drawn
from its own random stream, so a run averages over more cones.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from geometry import is_valid_cone, primitive

DEFAULT_SEED = 20260814
WORKLOADS = ("suite200", "polygon", "roots_box", "cli")

SUITE_SIZE = 200  # the sum of SUITE_CLASSES
ROOTS_BOUND = 8

# A strictly convex lattice 12-gon: the cumulative sums of twelve edge
# vectors with increasing slope angles, shifted to coordinates in [-3, 3].
POLYGON = (
    (-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2),
    (2, 3), (1, 3), (-1, 2), (-2, 1), (-3, -1), (-3, -2),
)
POLYGON_SIZES = (8, 9, 10, 11, 12)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CONE_COMMANDS = ("stratify", "roots", "connections", "classgroup")
WEIGHT_COMMANDS = ("luna", "stable")
CLI_ROUNDS = 8


# Cones per (rank, number of rays) in every suite: the make-up of the
# default seed's draw, which is the test suite's 200 cones.
SUITE_CLASSES = {(2, 2): 39, (3, 3): 31, (3, 4): 14, (3, 5): 7, (4, 4): 58, (4, 5): 42, (4, 6): 9}


def stream(seed: int, part: int) -> random.Random:
    """Random stream of pass ``part``; pass 0 uses the seed itself."""
    return random.Random(seed if part == 0 else f"{seed}.{part}")


def suite_cones(rng: random.Random) -> list[tuple[int, tuple]]:
    """Random pointed full-dimensional cones: rank 2-4, at most 6 primitive
    distinct rays, coordinates in [-5, 5].

    Draws the same random stream as the test suite's ``sample_cones`` but
    keeps a cone only while its (rank, rays) class is short of
    :data:`SUITE_CLASSES`.  Every seed thus gets the same mix of cone sizes,
    which sets most of the running time, and the default seed gives the
    test suite's cones in the same order.
    """
    wanted = dict(SUITE_CLASSES)
    cones = []
    while len(cones) < SUITE_SIZE:
        rank = rng.randint(2, 4)
        nrays = rng.randint(rank, 6)
        rays, seen = [], set()
        for _ in range(nrays):
            for _attempt in range(60):
                v = tuple(rng.randint(-5, 5) for _ in range(rank))
                if any(v):
                    p = primitive(v)
                    if p not in seen:
                        seen.add(p)
                        rays.append(p)
                        break
            else:
                break
        else:
            if wanted.get((rank, nrays)) and is_valid_cone(rank, rays):
                wanted[(rank, nrays)] -= 1
                cones.append((rank, tuple(rays)))
    return cones


def polygon_cones(rng: random.Random) -> list[tuple[int, tuple]]:
    """One rank-3 cone per size m in 8..12 over seeded vertices of the 12-gon.

    Rays are ``(x, y, 1)`` in a seeded order; any vertex subset of a
    strictly convex polygon is in convex position, so every ray is extremal.
    """
    return [
        (3, tuple((x, y, 1) for x, y in rng.sample(POLYGON, m))) for m in POLYGON_SIZES
    ]


def cli_invocations(rng: random.Random, rounds: int = CLI_ROUNDS) -> list[tuple[str, str]]:
    """Rounds of all six commands on the four fixture files (14
    invocations), each round in its own seeded order."""
    one_round = [
        (command, name)
        for name in ("cone_a1.json", "cone_quadrant2.json", "cone_rank3.json")
        for command in CONE_COMMANDS
    ] + [(command, "weights_k7.json") for command in WEIGHT_COMMANDS]
    out = []
    for _ in range(rounds):
        rng.shuffle(one_round)
        out.extend(one_round)
    return out


def generate(workload: str, seed: int, part: int = 0):
    rng = stream(seed, part)
    if workload in ("suite200", "roots_box"):
        return suite_cones(rng)
    if workload == "polygon":
        return polygon_cones(rng)
    if workload == "cli":
        return cli_invocations(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, inputs) -> str:
    """SHA-256 of the canonical JSON of the inputs (fixture bytes included)."""
    h = hashlib.sha256(json.dumps([workload, inputs]).encode())
    if workload == "cli":
        for name in sorted({name for _, name in inputs}):
            h.update((FIXTURES / name).read_bytes())
    return h.hexdigest()


def item_size(workload: str, item) -> int:
    """Rays of a cone input, or rays/weights in a CLI fixture file."""
    if workload == "cli":
        doc = json.loads((FIXTURES / item[1]).read_text())
        return len(doc.get("rays") or doc.get("weights"))
    return len(item[1])
