"""Shared test helpers: independent brute-force oracles.

Everything here is deliberately naive. These functions exist to check
the real implementations against methods too simple to be wrong, so they
must not share code or ideas with the modules under test. The
exceptions are ``reference_sample``, the word sampler as it was written
before its draws were inlined, ``reference_shuffle_commuting``, its
shuffle as it was written before it read its draws off one
``getrandbits`` product, ``reference_random_images`` and
``reference_shuffle``, the authentication draws as they were written
before they too were inlined, and ``reference_forward_check``, the
search as it was written before its per-node lists stopped being rebuilt
from slices: kept so that the faster code must reproduce their words,
swaps, images, orders, maps and node counts.
"""

from __future__ import annotations

import itertools
import random
from itertools import repeat, starmap
from math import trunc
from operator import mul

import pytest

from raagcrypt import raag
from raagcrypt.graphs import SearchBudgetExceeded, SimplicialGraph
from raagcrypt.words import Word, free_reduce


@pytest.fixture(scope="session", autouse=True)
def parity_rechecks():
    """Re-check every trivial verdict of ``is_trivial`` in the session
    against the abelianization (``raag.PARITY_ASSERTS``)."""
    raag.PARITY_ASSERTS = True
    yield
    raag.PARITY_ASSERTS = False


def brute_force_three_colorable(g: SimplicialGraph) -> bool:
    """Try all 3^n assignments; True iff some makes every edge bichromatic."""
    n = len(g.vertices)
    edges = [(g.index_of(u), g.index_of(v)) for u, v in g.edge_list()]
    for colors in itertools.product(range(3), repeat=n):
        if all(colors[i] != colors[j] for i, j in edges):
            return True
    return False


def brute_force_homomorphism_exists(source: SimplicialGraph, target: SimplicialGraph) -> bool:
    """Try all |T|^n assignments against the strict edge condition."""
    src = source.vertices
    edges = source.edge_list()
    for images in itertools.product(target.vertices, repeat=len(src)):
        f = dict(zip(src, images))
        if all(target.has_edge(f[u], f[v]) for u, v in edges):
            return True
    return False


def brute_force_induced_isomorphism_exists(g: SimplicialGraph, s1, s2) -> bool:
    """Try every bijection from s1 onto s2 against the induced condition:
    a pair of s1 is an edge exactly when its image pair is."""
    left = sorted(s1)
    if len(left) != len(set(s2)):
        return False
    for images in itertools.permutations(sorted(set(s2))):
        f = dict(zip(left, images))
        if all((frozenset((u, v)) in g.edges) == (frozenset((f[u], f[v])) in g.edges)
               for u, v in itertools.combinations(left, 2)):
            return True
    return False


def _syllable_reduce_free_product(word, left_gens: set[str]) -> bool:
    """Word problem in (Z^2) * Z style free products: repeatedly drop
    maximal one-factor syllables that evaluate to the factor identity.
    ``left_gens`` generate the abelian factor; the rest is the other factor.
    Returns True iff the word is trivial."""
    letters = list(word)
    while True:
        if not letters:
            return True
        # split into maximal same-factor runs
        runs = []
        for gen, sign in letters:
            side = gen in left_gens
            if runs and runs[-1][0] == side:
                runs[-1][1].append((gen, sign))
            else:
                runs.append([side, [(gen, sign)]])
        dropped = False
        out = []
        for side, run in runs:
            if side:
                sums = {}
                for gen, sign in run:
                    sums[gen] = sums.get(gen, 0) + sign
                if any(sums.values()):
                    out.extend(run)
                else:
                    dropped = True
            else:
                reduced = free_reduce(tuple(run))
                if reduced:
                    out.extend(reduced)
                else:
                    dropped = True
        if not dropped:
            return False
        letters = out


def structure_is_trivial(g: SimplicialGraph, w: Word) -> bool:
    """Exact triviality for graphs with at most 3 vertices, decided by the
    direct/free product structure of the group rather than by any search.

    Shapes: free groups (free reduction), free abelian (exponent sums),
    path on 3 vertices (center times free group of rank 2), one edge plus
    an isolated vertex (free product of Z^2 and Z).
    """
    n = len(g.vertices)
    assert n <= 3, "structure oracle only covers up to 3 vertices"
    edges = g.edge_list()
    sums: dict[str, int] = {}
    for gen, sign in w:
        sums[gen] = sums.get(gen, 0) + sign

    if len(edges) == n * (n - 1) // 2:  # complete: free abelian
        return not any(sums.values())
    if not edges:  # empty: free
        return not free_reduce(w)
    if n == 3 and len(edges) == 2:  # path: center x F2
        degree = {v: 0 for v in g.vertices}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        center = max(degree, key=degree.get)
        if sums.get(center, 0) != 0:
            return False
        projected = tuple(l for l in w if l[0] != center)
        return not free_reduce(projected)
    # one edge, one isolated vertex: Z^2 * Z
    assert n == 3 and len(edges) == 1
    left = {edges[0][0], edges[0][1]}
    return _syllable_reduce_free_product(free_reduce(w), left)


def quadratic_is_trivial(g: SimplicialGraph, w: Word) -> bool:
    """Triviality by repeated deletion of cancelable pairs: x^e ... x^-e
    where everything in between commutes with x. Deletion preserves the
    group element and a stuck nonempty word is never trivial, so greedy
    deletion is exact. Quadratic, but reaches word lengths the
    breadth-first oracle cannot."""
    letters = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            gi, si = letters[i]
            adj = g.adjacency[gi]
            for j in range(i + 1, len(letters)):
                gj, sj = letters[j]
                if gj == gi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        changed = True
                    break  # same-sign occurrence blocks the scan
                if gj not in adj:
                    break  # non-commuting letter blocks the scan
            if changed:
                break
    return not letters


def normal_closure_ball(g: SimplicialGraph, cap: int) -> set[Word]:
    """All freely reduced words of length <= cap reachable from the empty
    word by inserting cancelling pairs or defining commutators anywhere.
    Every member is a product of conjugates of relators, hence trivial."""
    inserts: list[Word] = []
    for v in g.vertices:
        inserts.append(((v, 1), (v, -1)))
        inserts.append(((v, -1), (v, 1)))
    for a, b in g.edge_list():
        inserts.append(((a, 1), (b, 1), (a, -1), (b, -1)))
        inserts.append(((b, 1), (a, 1), (b, -1), (a, -1)))
    ball: set[Word] = {()}
    frontier: list[Word] = [()]
    while frontier:
        base = frontier.pop()
        for piece in inserts:
            for k in range(len(base) + 1):
                candidate = free_reduce(base[:k] + piece + base[k:])
                if len(candidate) <= cap and candidate not in ball:
                    ball.add(candidate)
                    frontier.append(candidate)
    return ball


def reference_sample(g: SimplicialGraph, seed: int, even: int, extra: bool) -> Word:
    """The word sampler written with ``random.Random._randbelow`` for every draw below k
    and an int mask per letter code for the commute test: the words that the package's
    inlined draws and byte-row table must reproduce, letter for letter."""
    n = len(g.vertices)
    letters = tuple(l for v in g.vertices for l in ((v, 1), (v, -1)))
    doubled = [sum(3 << 2 * j for j in range(n) if m >> j & 1) for m in g.adjacency_masks()]
    commute = [doubled[c >> 1] for c in range(2 * n)]  # bit b set iff codes c and b commute
    edges = [(2 * g.index_of(u), 2 * g.index_of(v)) for u, v in g.edge_list()]
    rng = random.Random(seed)
    below, rand = rng._randbelow, rng.random

    def shuffle(codes: list[int]) -> None:
        for _ in range(4 * len(codes) if len(codes) > 1 else 0):
            i = int(rand() * (len(codes) - 1))
            if commute[codes[i]] >> codes[i + 1] & 1:
                codes[i], codes[i + 1] = codes[i + 1], codes[i]

    out: list[int] = []
    while len(out) < even:
        remaining = even - len(out)
        if edges and remaining >= 4 and rand() < 0.7:
            a, b = edges[below(len(edges))]
            if rand() < 0.5:
                a, b = b, a
            max_conj = min(3, (remaining - 4) // 2)
            conj = [2 * below(n) + below(2) for _ in range(below(max_conj + 1))]
            out += conj + [a, b, a + 1, b + 1] + [c ^ 1 for c in reversed(conj)]
        else:
            c = 2 * below(n) + below(2)
            out += [c, c ^ 1]
    shuffle(out)
    if extra:
        out.append(2 * below(n) + below(2))
        shuffle(out)
    return tuple(letters[c] for c in out)


def reference_shuffle_commuting(rng: random.Random, codes: list[int], commute) -> None:
    """``raag._shuffle_commuting`` as it was written with one ``rng.random()`` per draw: the
    swaps and generator states that the package's draws off one ``getrandbits`` must
    reproduce."""
    n = len(codes)
    if n < 2:
        return
    # int(rng.random() * (n - 1)), 4n times, with no bytecode per draw
    for i in map(trunc, map(mul, starmap(rng.random, repeat((), 4 * n)), repeat(float(n - 1)))):
        a = codes[i]
        b = codes[i + 1]
        if commute[a][b]:
            codes[i] = b
            codes[i + 1] = a


def reference_random_images(target: SimplicialGraph, count: int, rng: random.Random) -> list[str]:
    """``auth._random_images`` as it was written, one ``rng._randbelow`` per image: the images
    and generator states that the package's inlined draws must reproduce."""
    targets = target.vertices
    return [targets[rng._randbelow(len(targets))] for _ in range(count)]


def reference_shuffle(x: list, rng: random.Random) -> None:
    """``random.Random.shuffle`` as the standard library writes it: position i, from the last
    down to 1, swaps with position ``rng._randbelow(i + 1)``."""
    randbelow = rng._randbelow
    for i in reversed(range(1, len(x))):
        j = randbelow(i + 1)
        x[i], x[j] = x[j], x[i]


def reference_forward_check(masks, domains, on, off, budget: int, problem: str):
    """``graphs._forward_check`` as it was written with each node's free positions and
    domains rebuilt from slices: the (assignment, nodes) and the SearchBudgetExceeded
    messages that the package's search must reproduce, node for node."""
    assigned = [0] * (max(domains, default=-1) + 1)
    nodes = 0
    stack = []
    free = sorted(domains, key=lambda i: -masks[i].bit_count())
    child = [domains[i] for i in free]
    while free:
        sizes = [d.bit_count() for d in child]
        k = sizes.index(min(sizes))
        i, dom = free[k], child[k]
        free, rest = free[:k] + free[k + 1:], child[:k] + child[k + 1:]
        m = masks[i]
        while True:
            while not dom:
                if not stack:
                    return None, nodes
                free, rest, i, m, dom = stack.pop()
            low = dom & -dom
            dom ^= low
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"{problem} search exceeded {budget} nodes")
            c = low.bit_length() - 1
            yes, no = on[c], off[c]
            child = [d & (yes if m >> j & 1 else no) for d, j in zip(rest, free)]
            if all(child):
                assigned[i] = c
                stack.append((free, rest, i, m, dom))
                break
    return assigned, nodes
