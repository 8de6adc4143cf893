"""Seeded inputs of the four benchmark workloads.

The benchmark writes every metric file itself; the program only reads them.
The generators below are the benchmark's own copies of the `dmax`, `dmin`
and `random` families, so that a change to the library's generators cannot
change what the benchmark feeds it.  They produce the same metrics as
`tightspan.metrics.gen_dmax`, `gen_dmin` and `gen_random`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def dmax(n: int) -> list[Fraction]:
    return [1 + Fraction(1, n * n + i * n + j) for i, j in pairs(n)]


def dmin(n: int) -> list[Fraction]:
    """Distance 2 inside the triangles {1,2,3},{4,5,6},..., dmax values elsewhere."""

    def cluster(i: int, j: int) -> bool:
        return (i - 1) // 3 == (j - 1) // 3 and not (n % 3 == 2 and j >= n)

    return [
        Fraction(2) if cluster(i, j) else 1 + Fraction(1, n * n + i * n + j)
        for i, j in pairs(n)
    ]


def random_metric(n: int, seed: int, resolution: int = 0) -> list[Fraction]:
    """Entries 1 + k/resolution, k uniform in [1, resolution/n]; default resolution max(10^4, n^4)."""
    if resolution <= 0:
        resolution = max(10_000, n**4)
    rng = random.Random(seed)
    top = max(1, resolution // n)
    return [1 + Fraction(rng.randint(1, top), resolution) for _ in pairs(n)]


@dataclass(frozen=True)
class Input:
    """One metric file and the exit codes its report may document.

    `family` selects the family-specific checks of the correctness gate.
    Exit 3 is accepted only together with a witness the gate verifies.
    """

    name: str
    family: str
    n: int
    upper: tuple[Fraction, ...]
    expect: frozenset[int]

    def to_json(self) -> str:
        return '{"n": %d, "upper": [%s]}\n' % (
            self.n,
            ", ".join('"%s"' % q for q in self.upper),
        )


GENERIC = frozenset({0})
GENERIC_OR_WITNESS = frozenset({0, 3})


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    flags: tuple[str, ...]
    families: tuple[str, ...]  # one cycle; a run covers whole cycles
    resolution: int  # of the random family; 0 is the library default
    why: str
    sweep: bool = False  # whether its traced run also makes the scaling sweep

    def inputs(self, seed: int):
        """Endless round-robin over the families; each random input draws a fresh seed."""
        rng = random.Random(f"{self.name}/{seed}")
        for family in itertools.cycle(self.families):
            if family == "dmax":
                yield Input(f"dmax{self.n}", family, self.n, tuple(dmax(self.n)), GENERIC)
            elif family == "dmin":
                yield Input(f"dmin{self.n}", family, self.n, tuple(dmin(self.n)), GENERIC)
            else:
                s = rng.randrange(1, 2**31)
                upper = tuple(random_metric(self.n, s, self.resolution))
                yield Input(f"random{self.n}-{s}", family, self.n, upper, GENERIC_OR_WITNESS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compute-enum", 7, (), ("dmax", "dmin", "random"), 0,
            "n=7 dmax, dmin, random at 10^4; exit 0, or 3 with a verified witness. "
            "Candidate pool and filtration of 45,615 candidates do most of the work",
            sweep=True,
        ),
        Workload(
            # Three rounds per cycle: every run holds nine reports, so one failed
            # input moves the run's figures by a ninth.  About 1 in 13 random n=11
            # inputs hits SeedSearchFailed.  A cycle with more random inputs made
            # reports_per_s spread as wide as its bound, because each failure also
            # takes a good report out of the run.
            "compute-traverse", 11, (), ("dmax", "dmin", "random") * 3, 10**12,
            "n=11 dmax, dmin, random at 10^12; exit 0, or 3 with a verified witness. Traversal "
            "and face closure do most of the work; SeedSearchFailed inputs stay in as failures",
        ),
        Workload(
            "verdict-degenerate", 7, (), ("random",), 100,
            "n=7 random at resolution 100, mostly non-generic; exit 3 with a verified "
            "witness, else 0. Same filtration as compute-enum, ends on the witness path",
        ),
        Workload(
            # Two rounds per cycle: a round takes longer than a run, so every run
            # is one cycle, and two rounds give it six reports rather than three.
            "oracle", 6, ("--oracle",), ("dmax", "dmin", "random") * 2, 0,
            "n=6 dmax, dmin, random at 10^4 with --oracle; exit 0, or 3 with a verified "
            "witness. Primal vertex enumeration and bounded faces do most of the work",
        ),
    )
}
