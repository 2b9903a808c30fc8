"""Scaling sweeps: single public functions timed against one size.

Each point is the median of ``REPEATS`` calls on the same input, timed
from outside with tracing off, and its result is checked against the
oracles.  Metric names are ``<module>.<function>.scale.n<k>``; the
hom-set grid uses ``n<|source|>x<|target|>``.
"""

from __future__ import annotations

import random
import statistics
import time

import mealymoore as mm
from mealymoore import generate as gen

import oracles as O
from workloads import alphabet, bisim_pair

REPEATS = 3
BISIM_CHAIN_STATES = range(8, 14)
HOM_GRID = [(s, t) for s in (2, 4, 6, 8) for t in (2, 3, 4)]
EXT_MAXLEN = range(6, 15)
COMPOSE_STATES = (2, 4, 8, 16, 32)


def _timed(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run(seed):
    """Return ({name: seconds per call}, number of wrong results)."""
    rng = random.Random(seed)
    a = alphabet(2)
    seconds, wrong = {}, 0
    for n in BISIM_CHAIN_STATES:
        m, s, k, t = bisim_pair(rng, "chain", n, True)
        seconds[f"semantics.bisimilar.scale.n{n}"], same = _timed(
            lambda: mm.bisimilar(mm.PointedMachine(m, s), mm.PointedMachine(k, t)))
        wrong += same is not True
    for s, t in HOM_GRID:
        m1, m2 = gen.random_mealy(rng, a, a, s), gen.random_mealy(rng, a, a, t)
        seconds[f"lab.enumerate_homs.scale.n{s}x{t}"], homset = _timed(
            lambda: mm.enumerate_homs(m1, m2))
        found = [tuple(phi.map[e] for e in m1.states) for phi in homset.homs]
        wrong += found != O.homs(O.tab(m1), O.tab(m2))
    n = gen.random_moore(rng, a, a, 3)
    for maxlen in EXT_MAXLEN:
        seconds[f"semantics.check_extension_square.scale.n{maxlen}"], holds = _timed(
            lambda: mm.check_extension_square(n, maxlen))
        wrong += holds is not True
    for k in COMPOSE_STATES:
        g, f = gen.random_mealy(rng, a, a, k), gen.random_mealy(rng, a, a, k)
        seconds[f"compose.compose_cells.scale.n{k}"], composite = _timed(
            lambda: mm.compose_cells(g, f))
        wrong += len(composite.states) != k * k
    return seconds, wrong
