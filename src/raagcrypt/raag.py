"""Right-angled Artin groups and their word problem.

A RAAG is presented by a simplicial graph: one generator per vertex, one
commutation relation per edge. The word problem is solved by a piling
(Crisp, Godelle and Wiest, J. Topology 2 (2009)), run in timestamp form:
the letters still left sit oldest first in two word-sized arrays below a
local height, each recording the top of its vertex it covered. A letter
cancels its vertex's top when that letter has the opposite sign and no
non-adjacent letter is left after it (nothing non-commuting intervened),
and the top it covered becomes the top again; otherwise it is pushed.
A letter whose vertex has no letter left is pushed untested. Whether a
non-adjacent letter is left is found by one OR over the one or two letters
newer than the top, by walking back over more, or, when more than
|Nbar(v)| are newer, by reading the non-adjacent tops. A push costs O(1)
and a cancel attempt O(1 + |Nbar(v)|), so a check is linear in the word
length for a fixed graph. ``push_letter`` is the pure marker-form reference,
with one stack per vertex and a 0 marker written onto every non-adjacent stack.

An independent breadth-first oracle double-checks the solver at small
scale: a word is trivial iff the empty word is reachable from it using
only swaps of adjacent commuting letters and deletions of adjacent
inverse pairs. Both moves preserve the represented group element and
never lengthen the word, so the search is finite and exact.
"""

from __future__ import annotations

import _random
from collections import deque
from itertools import repeat, starmap
from math import trunc
from operator import mul

from .graphs import Record, SimplicialGraph
from .words import Letter, Word, WordError, exponent_sums, free_reduce, letter

__all__ = [
    "Raag",
    "Piling",
    "OracleBoundError",
    "empty_piling",
    "push_letter",
    "is_trivial",
    "oracle_is_trivial",
    "sample_trivial_word",
    "sample_nontrivial_word",
]

# When true, every trivial verdict from is_trivial is re-checked against
# the abelianization (all signed exponent sums must vanish). Off in the
# package, so every timing sees the solver alone; the test suite turns it
# on for the whole session.
PARITY_ASSERTS = False


class OracleBoundError(ValueError):
    """The oracle refuses words longer than its configured bound."""


class Raag(Record):
    """A right-angled Artin group, carried by its defining graph."""

    __slots__ = ("graph",)

    @property
    def generators(self) -> tuple[str, ...]:
        return self.graph.vertices


class Piling(Record):
    """Solver state: one stack per vertex, aligned with declaration order."""

    __slots__ = ("stacks",)

    def is_empty(self) -> bool:
        return all(not s for s in self.stacks)


def empty_piling(g: SimplicialGraph | Raag) -> Piling:
    graph = g.graph if isinstance(g, Raag) else g
    return Piling(tuple(() for _ in graph.vertices))


def _check_letter(graph: SimplicialGraph, l: Letter) -> None:
    gen, sign = l
    if not isinstance(gen, str) or not graph.has_vertex(gen):
        raise WordError(f"unknown generator {gen!r}")
    letter(gen, sign)  # rejects signs other than +1/-1


def push_letter(p: Piling, l: Letter, g: SimplicialGraph) -> Piling:
    """One transition of the piling. Pure: returns a new Piling.

    With v the letter's generator and Nbar(v) the non-adjacent distinct
    vertices: if v's stack shows the opposite sign on top and every stack
    in Nbar(v) shows a 0, pop all of those entries (cancellation);
    otherwise push the sign onto v's stack and a 0 onto every Nbar(v)
    stack.
    """
    _check_letter(g, l)
    gen, sign = l
    v = g.index_of(gen)
    nbar = g.nonneighbors()[v]
    stacks = [list(s) for s in p.stacks]
    st = stacks[v]
    if st and st[-1] == -sign and all(stacks[u] and stacks[u][-1] == 0 for u in nbar):
        st.pop()
        for u in nbar:
            stacks[u].pop()
    else:
        st.append(sign)
        for u in nbar:
            stacks[u].append(0)
    return Piling(tuple(tuple(s) for s in stacks))


def is_trivial(g: Raag, w: Word) -> bool:
    """Decide whether ``w`` represents the identity of the group.

    Runs the timestamp piling over the whole word in one pass, in two
    arrays of ``len(w) + 1`` slots and a height ``h``. Slot 0 of ``left``
    is a guard; slots 1 to ``h`` hold one entry per letter left, oldest
    first: its vertex bit, or 0 once it has cancelled below the newest
    letter. A push fills slot ``h + 1`` of ``left`` and ``covered``, a
    cancel restores v's top from ``covered``, and slots above ``h`` are
    stale and never read. A letter whose vertex has none left (``top[v]``
    0) is pushed untested. A cancel attempt for v tests the letters newer than v's
    top against v's non-neighbour mask, one or two of them in one OR and more
    by a walk, or, when more than |Nbar(v)| are left, reads the |Nbar(v)|
    non-adjacent tops.
    Either way it costs O(1 + |Nbar(v)|), and ``h`` drops past cancelled
    entries at the top, so on a fixed graph the pass is linear in ``len(w)``.
    A sign that is no ``int`` gets ``letter``'s WordError where ``top[v] * sign``
    reaches a slice or an index, else (``(("a", 1.0), ("a", -1))``) its value's verdict.
    """
    graph = g.graph
    index = graph._index
    nbar = graph.nonneighbors()
    nbar_masks, bits = graph._nbar_masks, graph._bits
    w = tuple(w)
    # ``left[1:h + 1]`` holds the letters left, above a nonzero guard in slot 0;
    # ``top[v]`` is the slot of v's newest letter left, signed with its sign,
    # or 0; ``covered[i]`` is the ``top`` that slot i's letter covered
    top = [0] * len(graph.vertices)
    left = [-1] * (len(w) + 1)
    covered = [0] * (len(w) + 1)
    h = 0
    try:
        for gen, sign in w:
            v = index[gen]
            if sign != 1 and sign != -1:
                _check_letter(graph, (gen, sign))  # raises WordError
            t = top[v]
            if t:
                tv = t * sign
                if tv < 0:
                    newer = h + tv
                    if not newer:
                        top[v] = covered[h]
                        h -= 1
                        while not left[h]:
                            h -= 1
                        continue
                    tv = -tv
                    if newer <= 2:  # slots tv + 1 and h, the same slot when newer is 1
                        if not (left[tv + 1] | left[h]) & nbar_masks[v]:
                            top[v] = covered[tv]
                            left[tv] = 0
                            continue
                    elif newer <= len(nbar[v]):
                        mask = nbar_masks[v]
                        for b in left[tv + 1:h + 1]:
                            if b & mask:
                                break
                        else:
                            top[v] = covered[tv]
                            left[tv] = 0
                            continue
                    else:
                        for u in nbar[v]:
                            if abs(top[u]) > tv:
                                break
                        else:
                            top[v] = covered[tv]
                            left[tv] = 0
                            continue
            h += 1
            covered[h] = t
            left[h] = bits[v]
            top[v] = sign * h
    except (KeyError, TypeError):  # an unknown generator, or a sign equal to 1 or -1 but no int
        for l in w:
            _check_letter(graph, l)  # raises WordError at the first bad letter
        raise
    verdict = not h
    if verdict and PARITY_ASSERTS:
        assert not any(exponent_sums(w).values()), \
            "trivial verdict with nonzero exponent sum"
    return verdict


def oracle_is_trivial(g: Raag, w: Word, max_reduced_length: int = 14) -> bool:
    """Exact small-scale triviality check, independent of the piling.

    Breadth-first search over the words reachable by (i) swapping
    adjacent letters whose generators are adjacent in the graph and
    (ii) deleting adjacent inverse pairs; trivial iff the empty word is
    reached. Two sound shortcuts prune the search without changing the
    answer, since both moves preserve the represented element: a word
    whose abelianization is nonzero is refuted outright, as is a word
    whose projection onto some non-adjacent generator pair (a free group
    retract) does not freely reduce to the empty word. When a deletion is
    available only deletions are explored; the shortened word still
    represents the same element, so completeness is unaffected.

    Refuses words whose free reduction is longer than
    ``max_reduced_length`` rather than risk an oversized search.
    """
    graph = g.graph
    for l in w:
        _check_letter(graph, l)
    start = free_reduce(w)
    if len(start) > max_reduced_length:
        raise OracleBoundError(
            f"reduced length {len(start)} exceeds oracle bound {max_reduced_length}")
    if not start:
        return True
    if any(exponent_sums(start).values()):
        return False
    gens = sorted({gen for gen, _ in start}, key=graph.index_of)
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if not graph.has_edge(a, b):
                projection = tuple(l for l in start if l[0] in (a, b))
                if free_reduce(projection):
                    return False
    adjacency = graph.adjacency
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if not cur:
            return True
        n = len(cur)
        deleted = False
        for i in range(n - 1):
            (g1, s1), (g2, s2) = cur[i], cur[i + 1]
            if g1 == g2 and s1 == -s2:
                nxt = cur[:i] + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                deleted = True
                break
        if deleted:
            continue
        for i in range(n - 1):
            if cur[i + 1][0] in adjacency[cur[i][0]]:
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


# ---------------------------------------------------------------------------
# word samplers


# 64-bit lanes for up to 1024 random() draws: keep a, the first output, less its 5 low bits
_LANES = int.from_bytes(b"\xe0\xff\xff\xff\0\0\0\0" * 1024, "little")


def _shuffle_commuting(rng: _random.Random, codes: list[int], commute: tuple[bytes, ...]) -> None:
    """In-place obfuscation of letter codes: 4*len random attempts to swap an
    adjacent commuting pair. Length-preserving, triviality-preserving."""
    n = len(codes)
    if n < 2:
        return
    m = n - 1
    # int(rng.random() * m), 4n times, with no bytecode per draw. random() reads outputs a, b
    # off one getrandbits lane, a lowest, as ((a >> 5) * 2**26 + (b >> 6)) / 2**53. Up to 256
    # letters the lane times m holds the index in byte 4, unless byte 3 is 255 (b may carry)
    if m < 256:
        x = rng.getrandbits(256 * n)
        lanes = ((x & _LANES) * m).to_bytes(32 * n, "little")
        draws, top = bytearray(lanes[4::8]), lanes[3::8]
        j = top.find(255)
        while j >= 0:
            lane = x >> 64 * j
            draws[j] = int(((lane >> 5 & 0x7FFFFFF) << 26 | lane >> 38 & 0x3FFFFFF) / 2**53 * m)
            j = top.find(255, j + 1)
    else:
        draws = map(trunc, map(mul, starmap(rng.random, repeat((), 4 * n)), repeat(float(m))))
    for i in draws:
        a = codes[i]
        b = codes[i + 1]
        if commute[a][b]:
            codes[i] = b
            codes[i + 1] = a


def _sample(graph: SimplicialGraph, seed: int, even: int, extra: bool) -> Word:
    """A shuffled trivial word of ``even`` letters, times one more random
    letter and shuffled again when ``extra``. Runs on letter codes."""
    if not graph.vertices:
        raise ValueError("the group needs at least one generator")
    # Each draw below k is random's _randbelow_with_getrandbits(k), the draw behind
    # randrange(k), randint(0, k - 1) and choice() of k items, written out with no Python
    # call per draw: k.bit_length() bits, drawn again while k or more. A letter's sign is
    # a draw below 2, so two bits with 2 and 3 rejected; one bit would change every word
    letters, commute, edges = graph._letter_codes
    n, ne = len(graph.vertices), len(edges)
    nb, eb = n.bit_length(), ne.bit_length()
    rng = _random.Random(seed)  # random.Random's C base: the same draws, no Python layer
    bits, rand = rng.getrandbits, rng.random
    out: list[int] = []
    while len(out) < even:
        remaining = even - len(out)
        if ne and remaining >= 4 and rand() < 0.7:
            while (r := bits(eb)) >= ne:
                pass
            a, b = edges[r]
            if rand() < 0.5:
                a, b = b, a
            k = min(4, remaining // 2 - 1)  # randint(0, k - 1) conjugating letters
            while (r := bits(k.bit_length())) >= k:
                pass
            conj = []
            for _ in range(r):
                while (v := bits(nb)) >= n:
                    pass
                while (s := bits(2)) > 1:
                    pass
                conj.append(2 * v + s)
            out += conj
            out += (a, b, a + 1, b + 1)
            out += [c ^ 1 for c in reversed(conj)]
        else:
            while (v := bits(nb)) >= n:
                pass
            while (s := bits(2)) > 1:
                pass
            c = 2 * v + s
            out += (c, c ^ 1)
    _shuffle_commuting(rng, out, commute)
    if extra:
        while (v := bits(nb)) >= n:
            pass
        while (s := bits(2)) > 1:
            pass
        out.append(2 * v + s)
        _shuffle_commuting(rng, out, commute)
    return tuple(map(letters.__getitem__, out))


def _check_trivial_length(target_length: int) -> None:
    if target_length <= 0 or target_length % 2:
        raise ValueError("target length must be a positive even integer")


def sample_trivial_word(g: Raag, target_length: int, seed: int) -> Word:
    """A word of exactly ``target_length`` letters representing the identity.

    Built as a product of conjugated defining commutators and inverse-pair
    insertions, then obfuscated by random legal commuting swaps.
    Deterministic in the seed.
    """
    _check_trivial_length(target_length)
    return _sample(g.graph, seed, target_length, False)


def sample_nontrivial_word(g: Raag, target_length: int, seed: int) -> Word:
    """A word that is not the identity: exactly ``target_length`` letters
    when that is odd, ``target_length + 1`` when it is even.

    A sampled trivial word of the largest even length up to
    ``target_length`` times one extra random letter x^±1, re-obfuscated.
    So the length's parity alone tells this word from a trivial one.
    The trivial word's exponent sums are all 0 and commuting swaps keep
    them, so x's exponent sum is ±1 and the word is never trivial.
    """
    if target_length <= 0:
        raise ValueError("target length must be positive")
    return _sample(g.graph, seed, target_length - target_length % 2, True)
