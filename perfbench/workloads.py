"""The benchmark's workloads: which equations each one solves, from a seed.

The seed only reaches this module.  The program under test receives the
generated equation text and configuration and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CATALAN = "psi - 1 - x*psi**2"
# Tutte's general planar maps, shifted so the catalytic point is y = 0
MAPS = "y*psi - y - x*y*(1+y)**2*psi**2 - x*(1+y)*((1+y)*psi - g)"
FLAGSHIP = "y**2*psi**2 + (x + x*g*y - y - y**2)*psi + y - x*g"

# Walks on the nonnegative integers with one down step of size 1: psi
# counts them by length (x) and final height (y), g = psi(x, 0) counts
# excursions.
WALK_STEPS = {
    "dyck": (-1, 1),
    "motzkin": (-1, 0, 1),
    "luk2": (-1, 2),
    "luk3": (-1, 3),
    "walk112": (-1, 1, 2),
    "walk102": (-1, 0, 2),
}


def walk_equation(steps: tuple[int, ...]) -> str:
    ups = " + ".join(f"y**{s + 1}" for s in steps if s >= 0)
    return f"y*psi - y - x*({ups})*psi - x*psi + x*g"


EQUATIONS = {"catalan": CATALAN, "maps": MAPS, "flagship": FLAGSHIP,
             **{name: walk_equation(s) for name, s in WALK_STEPS.items()}}


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a solve, a table build or a column build."""

    kind: str                 # "solve" | "table" | "column"
    name: str                 # key of EQUATIONS and of the oracle
    guess_order: int = 24     # solve: the PipelineConfig defaults
    max_complexity: int = 8
    eval_at: int = 1000
    order: int = 0            # table, column: expansion order N
    ypow: int = 0             # table: last power of y; column: the power

    @property
    def equation(self) -> str:
        return EQUATIONS[self.name]

    def label(self) -> str:
        if self.kind == "solve":
            return f"solve {self.name} eval_at={self.eval_at}"
        return f"{self.kind} {self.name} N={self.order} m={self.ypow}"


CORPUS = ("catalan", "maps", *WALK_STEPS)

# far-coeff: each equation at three indices spread over [5000, 30000],
# each moved by the seed within +-FAR_JITTER; even, since odd Dyck terms
# are 0.  No window holds an index where a coefficient first exceeds 4300
# digits (maps 3993, Catalan 7153, Motzkin 9025, Dyck 14306), so the set
# of ops that hit the report's digit limit is the same for every seed.
FAR_EQUATIONS = ("catalan", "maps", "dyck", "motzkin")
FAR_GRID = (5000, 17500, 30000)
FAR_JITTER = 250

# series-table: expansion order per equation
TABLE_ORDERS = {"flagship": 40, "dyck": 128, "motzkin": 96, "luk2": 96,
                "luk3": 96, "walk112": 64, "walk102": 64}


def _flagship(rng: random.Random) -> list[Op]:
    return [Op("solve", "flagship", guess_order=30, max_complexity=5,
               eval_at=1000)]


def _corpus(rng: random.Random) -> list[Op]:
    ops = [Op("solve", name) for name in CORPUS]
    rng.shuffle(ops)
    return ops


def _far_index(rng: random.Random, centre: int) -> int:
    lo = max(5000, centre - FAR_JITTER)
    hi = min(30000, centre + FAR_JITTER)
    return 2 * rng.randint((lo + 1) // 2, hi // 2)


def _far_coeff(rng: random.Random) -> list[Op]:
    ops = [Op("solve", name, eval_at=_far_index(rng, c))
           for name in FAR_EQUATIONS for c in FAR_GRID]
    rng.shuffle(ops)
    return ops


def _series_table(rng: random.Random) -> list[Op]:
    ops = []
    for name, N in TABLE_ORDERS.items():
        # the flagship has no direct count, so its columns are only
        # checkable as part of a whole table
        if name == "flagship" or rng.random() < 0.5:
            ops.append(Op("table", name, order=N, ypow=rng.randint(2, 8)))
        else:
            ops.append(Op("column", name, order=N, ypow=rng.randint(1, 8)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"flagship": _flagship, "corpus": _corpus,
             "far-coeff": _far_coeff, "series-table": _series_table}


def passes(workload: str, seed: int):
    """Endless passes of ops; a run always measures whole passes."""
    rng = random.Random(f"{workload}/{seed}")
    make = WORKLOADS[workload]
    while True:
        yield make(rng)
