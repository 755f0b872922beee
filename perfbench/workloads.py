"""Seeded job streams for the four benchmark workloads.

A workload is a fixed round of job shapes that repeats for as long as a run
lasts.  Each shape draws its map (or suite seed) and its size (N, budget)
from fixed families with the parameter ranges below.  Draws are dealt in
passes: each pass is a seeded shuffle of the whole range, so a run covers
nearly the same mix whatever its seed, and the seed mostly changes the order
and the coefficients within a stratum of maps that cost about the same.
Jobs are never filtered by how long they take.

The rounds are laid out so that the median job falls inside a block of one
shape or of a continuously sized shape, and the 90th percentile falls inside
the block of the heaviest shape: a percentile that sat on the edge between
two shapes of very different cost would jump between them from run to run.
A round costs about 1.2-1.7 s on the pure-Python backend (2 CPUs), so a
25 s run completes well over 100 jobs and more than ten lie above the 90th
percentile.

Every command-line job passes --window and --max-window explicitly, so that
CHARP_WINDOW in the environment cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WINDOW = 64
MAX_WINDOW = 8192
BSERIES_POOL = 8  # bseries maps per prime in one run
BSERIES_N = range(30, 51)
WITNESS_UNITS = (1, 2)
SUITE_SEEDS = 8  # quick-gate suite seeds in one run
QUICK_BUDGETS = range(20, 151, 10)  # within the suite's 180 fixture cases

WORKLOADS = ("lin-family", "two-term", "dense-series", "release-gate")


@dataclass(frozen=True)
class Map:
    """f(z) = z*(lambda + sum a_i z^i) as the literals a user would type."""

    p: int
    lam: str
    coeffs: tuple  # ((i, Laurent literal), ...), sorted by i

    @property
    def a_spec(self) -> str:
        return ",".join(f"{i}:{lit}" for i, lit in self.coeffs)


@dataclass(frozen=True)
class Job:
    """One thing a user asks for: a CLI invocation or a witness request."""

    kind: str  # "analyze", "bseries", "lemmas" or "witness"
    shape: str
    map: Map | None = None
    Kmax: int = 0
    N: int = 0
    ks: tuple = ()
    seed: int = 0
    budget: int = 0
    expect: str = ""  # "inconclusive" for maps that can never be certified

    def argv(self) -> list[str]:
        win = ["--window", str(WINDOW), "--max-window", str(MAX_WINDOW)]
        if self.kind == "lemmas":
            return ["lemmas", "--seed", str(self.seed), "--budget", str(self.budget)] + win
        m = self.map
        base = [self.kind, "--p", str(m.p), "--lambda", m.lam, "--a", m.a_spec]
        if self.kind == "analyze":
            return base + ["--Kmax", str(self.Kmax)] + win
        if self.kind == "bseries":
            return base + ["--N", str(self.N)] + win
        raise ValueError(f"{self.kind} jobs have no command line")


def _mono(c: int, e: int) -> str:
    return f"{c}*t^{e}"


def lin_family(p, support, e):
    """The linearizable family: every support index i has p | i+1; here
    a_i = c*t^e for each 1 <= c < p."""
    return [Map(p, "1 + t", tuple((i, _mono(c, e)) for i in support)) for c in range(1, p)]


def two_term_family(p, e1, e2):
    """{1: c1*t^e1, p-1: c2*t^e2} for every pair of units c1, c2."""
    return [
        Map(p, "1 + t", ((1, _mono(c1, e1)), (p - 1, _mono(c2, e2))))
        for c1 in range(1, p)
        for c2 in range(1, p)
    ]


def dense_family(p, units):
    """lambda = 1 + t + c*t^2, a_1 = c0 + c1*t, a_2 = c2*t + t^2, with every
    c drawn from units (nonzero mod p).  a_1 is a unit and a_2 has positive
    valuation, so the quadratic term decides level 1 and every map is
    non-linearizable there."""
    return [
        Map(p, f"1 + t + {c}*t^2", ((1, f"{c0} + {c1}*t"), (2, f"{c2}*t + t^2")))
        for c in units
        for c0 in units
        for c1 in units
        for c2 in units
    ]


class Workload:
    """The map families and job stream of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self._rng = random.Random(f"{name}:{seed}")
        self.maps: list[Map] = []  # every map the stream can use
        self._shapes: dict = {}
        self._round: list[str] = []
        getattr(self, "_" + name.replace("-", "_"))()

    def job(self, i: int) -> Job:
        """Job i of the stream; jobs are built in order, so call with i = 0, 1, ..."""
        return self._shapes[self._round[i % len(self._round)]]()

    def _deal(self, items):
        """A draw function that deals items in seeded shuffled passes."""
        rng = self._rng
        left = []

        def draw():
            if not left:
                left.extend(items)
                rng.shuffle(left)
            return left.pop()

        return draw

    def _strata(self, strata):
        """Deal strata of maps, then pick a map within the stratum."""
        for stratum in strata:
            self.maps.extend(stratum)
        deal = self._deal(strata)
        return lambda: self._rng.choice(deal())

    # -- the four workloads --------------------------------------------------

    def _lin_family(self):
        # (p, support, Kmax), with Kmax per map so that one job takes
        # 0.01-0.75 s; "H" is the z^5 map at Kmax=4, a ROADMAP row
        table = {
            "A": (7, (6,), 2),
            "B": (3, (2,), 5),
            "C": (5, (4,), 3),
            "D": (3, (5,), 4),
            "E": (5, (9,), 3),
            "H": (5, (4,), 4),
        }
        for shape, (p, support, kmax) in table.items():
            draw = self._strata([lin_family(p, support, e) for e in range(0, 5)])
            self._shapes[shape] = lambda shape=shape, draw=draw, kmax=kmax: Job(
                "analyze", shape, draw(), Kmax=kmax, expect="inconclusive"
            )
        self._round = ["C", "D", "H", "B", "D", "E", "C", "A", "H", "D"]

    def _two_term(self):
        # deep exponents at p=5 and p=3 stay inconclusive and load the
        # residues; the p=7 range is certified at level 1
        table = {
            "P7": (7, range(0, 4), range(0, 2), 2),
            "P3": (3, range(4, 9), range(0, 2), 3),
            "P5": (5, range(6, 13), range(0, 3), 2),
        }
        for shape, (p, e1s, e2s, kmax) in table.items():
            draw = self._strata([two_term_family(p, e1, e2) for e1 in e1s for e2 in e2s])
            self._shapes[shape] = lambda shape=shape, draw=draw, kmax=kmax: Job(
                "analyze", shape, draw(), Kmax=kmax
            )
        self._round = ["P5", "P3", "P7", "P5", "P3", "P5", "P3", "P7", "P5", "P3"]

    def _dense_series(self):
        rng = self._rng
        # witnesses cost 0.3-1 s each and a run holds about 40, so they use
        # a family of 16 maps that every run covers twice over
        witness = self._strata([[m] for m in dense_family(5, WITNESS_UNITS)])
        # bseries draws from a small pool per prime: each pooled map's
        # conjugacy residual is checked once per run, at the largest N
        pools = {
            p: self._strata([[m] for m in rng.sample(dense_family(p, range(1, p)), BSERIES_POOL)]) for p in (3, 5)
        }
        sizes = self._deal(BSERIES_N)
        self._shapes = {
            "B5": lambda: Job("bseries", "B5", pools[5](), N=sizes()),
            "B3": lambda: Job("bseries", "B3", pools[3](), N=sizes()),
            "W1": lambda: Job("witness", "W1", witness(), ks=(1,)),
            "W2": lambda: Job("witness", "W2", witness(), ks=(1, 2)),
        }
        self._round = ["B5", "B3", "W2", "B3", "W1", "B5", "B3", "W2", "B5", "B3"]

    def _release_gate(self):
        rng = self._rng
        seeds = self._deal([rng.randrange(1 << 16) for _ in range(SUITE_SEEDS)])
        budgets = self._deal(QUICK_BUDGETS)
        # "F" is the gate the README documents, the whole suite at seed 0;
        # "Q" a quick gate over the suite's fixture cases at a drawn seed.
        # Many other seeds of the whole suite fail a level-lift case today,
        # so "F" stays at seed 0 until that is fixed.
        self._shapes = {
            "F": lambda: Job("lemmas", "F", seed=0, budget=400),
            "Q": lambda: Job("lemmas", "Q", seed=seeds(), budget=budgets()),
        }
        self._round = ["Q", "Q", "F", "Q", "Q", "Q", "Q", "Q", "F", "Q", "Q", "Q"]
