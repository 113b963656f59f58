"""Scaling benchmark for the word-problem solver.

Generates trivial words of increasing lengths on a fixed graph, times
the solver on each, and fits a least-squares slope to the log-log
(length, mean time) points. A slope near 1 is the linear-time signature.
"""

from __future__ import annotations

import math
import random
import time
from typing import Sequence

from .graphs import Record, SimplicialGraph
from .raag import Raag, _check_trivial_length, is_trivial, sample_trivial_word

__all__ = ["BenchPoint", "BenchResult", "fit_loglog_slope", "run_word_benchmark"]


class BenchPoint(Record):
    __slots__ = ("length", "samples")  # samples: seconds, one per repetition

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


class BenchResult(Record):
    __slots__ = ("points", "slope")  # points: a tuple of BenchPoint, by ascending length


def fit_loglog_slope(lengths: Sequence[int], means: Sequence[float]) -> float:
    xs = [math.log(n) for n in lengths]
    ys = [math.log(t) for t in means]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def run_word_benchmark(graph: SimplicialGraph, lengths: Sequence[int],
                       repetitions: int, seed: int) -> BenchResult:
    """Per-length timing samples plus the fitted log-log slope.

    One warm-up run precedes the timed repetitions at each length. The
    timed calls are ``is_trivial`` as shipped, with its abelianization
    re-check only where ``raag.PARITY_ASSERTS`` is turned on (the test
    suite does; the package does not).
    """
    lengths = list(lengths)
    if len(lengths) < 3:
        raise ValueError("need at least 3 lengths for a slope fit")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly ascending")
    if repetitions < 1:
        raise ValueError("need at least 1 repetition")
    if not graph.vertices:
        raise ValueError("benchmark graph must have at least one vertex")
    for length in lengths:  # every length, before the first word is sampled
        _check_trivial_length(length)
    group = Raag(graph)
    rng = random.Random(seed)
    points = []
    for length in lengths:
        word = sample_trivial_word(group, length, rng.getrandbits(64))
        if not is_trivial(group, word):
            raise AssertionError("benchmark word unexpectedly nontrivial")
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            verdict = is_trivial(group, word)
            samples.append(time.perf_counter() - t0)
            if not verdict:
                raise AssertionError("benchmark word unexpectedly nontrivial")
        points.append(BenchPoint(length=length, samples=tuple(samples)))
    slope = fit_loglog_slope([p.length for p in points], [p.mean for p in points])
    return BenchResult(points=tuple(points), slope=slope)
