import hashlib
import itertools
import random
import signal
import struct
import time
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    normal_closure_ball,
    quadratic_is_trivial,
    reference_sample,
    reference_shuffle_commuting,
    structure_is_trivial,
)
from raagcrypt.graphs import SimplicialGraph, induced_subgraph, random_graph
from raagcrypt.raag import (
    OracleBoundError,
    Raag,
    _sample,
    _shuffle_commuting,
    empty_piling,
    is_trivial,
    oracle_is_trivial,
    push_letter,
    sample_nontrivial_word,
    sample_trivial_word,
)
from raagcrypt.words import (
    WordError, concat, exponent_sums, free_reduce, invert, letter, parse_word,
)

EDGE = Raag(SimplicialGraph(("a", "b"), [("a", "b")]))
FREE2 = Raag(SimplicialGraph(("a", "b")))
COMMUTATOR = parse_word("a b a^-1 b^-1")


def random_word(rng, graph, max_len=12):
    verts = graph.vertices
    return tuple((verts[rng.randrange(len(verts))], rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len)))


def conjugated_commutator(rng, graph, a, b):
    """c [a,b] c^-1 for a random conjugator c: trivial iff a, b commute."""
    c = random_word(rng, graph, max_len=4)
    return concat(c, ((a, 1), (b, 1), (a, -1), (b, -1)), invert(c))


class TestPushLetter:
    def test_push_on_nonadjacent_pair(self):
        g = FREE2.graph
        p = push_letter(empty_piling(g), ("a", 1), g)
        assert p.stacks == ((1,), (0,))

    def test_cancellation_empties(self):
        g = FREE2.graph
        p = push_letter(empty_piling(g), ("a", 1), g)
        p = push_letter(p, ("a", -1), g)
        assert p.is_empty()

    def test_adjacent_vertex_gets_no_marker(self):
        g = EDGE.graph
        p = push_letter(empty_piling(g), ("a", 1), g)
        assert p.stacks == ((1,), ())

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            push_letter(empty_piling(EDGE.graph), ("zz", 1), EDGE.graph)

    def test_is_trivial_matches_stepwise_pushes(self):
        rng = random.Random(6)
        for _ in range(300):
            g = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            w = random_word(rng, g)
            p = empty_piling(g)
            for l in w:
                p = push_letter(p, l, g)
            assert p.is_empty() == is_trivial(Raag(g), w)

    def test_marker_counts_stay_consistent(self):
        # number of 0s on a stack == total nonzero entries on the stacks
        # of its non-neighbors
        rng = random.Random(7)
        for _ in range(200):
            g = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            nbar = g.nonneighbors()
            p = empty_piling(g)
            for l in random_word(rng, g, max_len=20):
                p = push_letter(p, l, g)
                for u in range(len(g.vertices)):
                    zeros = sum(1 for e in p.stacks[u] if e == 0)
                    expected = sum(sum(1 for e in p.stacks[v] if e != 0) for v in nbar[u])
                    assert zeros == expected


class TestIsTrivial:
    def test_commutator_of_adjacent_generators(self):
        assert is_trivial(EDGE, COMMUTATOR)

    def test_commutator_in_free_group(self):
        assert not is_trivial(FREE2, COMMUTATOR)

    def test_empty_word(self):
        assert is_trivial(EDGE, ())
        assert is_trivial(FREE2, ())

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            is_trivial(EDGE, (("zz", 1),))

    @pytest.mark.parametrize("group,w", [
        (FREE2, (("a", 0), ("a", 0))),
        (EDGE, (("a", 2), ("a", -2))),
        (EDGE, (("a", 1), ("b", -2), ("a", -1))),
    ])
    def test_rejects_letter_signs_other_than_one(self, group, w):
        with pytest.raises(WordError, match="sign"):
            is_trivial(group, w)
        with pytest.raises(WordError, match="sign"):
            oracle_is_trivial(group, w)
        with pytest.raises(WordError, match="sign"):
            p = empty_piling(group)
            for l in w:
                p = push_letter(p, l, group.graph)

    def test_a_float_sign_is_refused_where_it_reaches_an_index(self):
        # 1.0 == 1, so a check by value passes it; in FREE2 the third letter's cancel
        # attempt then slices at the float slot of the first
        w = (("a", 1.0), ("b", 1), ("a", -1))
        with pytest.raises(WordError, match="sign"):
            letter("a", 1.0)
        with pytest.raises(WordError, match="sign"):
            is_trivial(FREE2, w)
        with pytest.raises(WordError, match="sign"):
            oracle_is_trivial(FREE2, w)
        with pytest.raises(WordError, match="sign"):
            p = empty_piling(FREE2)
            for l in w:
                p = push_letter(p, l, FREE2.graph)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_word_times_its_inverse_is_trivial(self, data):
        n = data.draw(st.integers(1, 5))
        g = random_graph(n, data.draw(st.floats(0, 1)), data.draw(st.integers(0, 2**32)))
        verts = g.vertices
        w = tuple((verts[data.draw(st.integers(0, n - 1))], data.draw(st.sampled_from((1, -1))))
                  for _ in range(data.draw(st.integers(0, 10))))
        assert is_trivial(Raag(g), concat(w, invert(w)))

    def test_trivial_words_have_zero_exponent_sums(self):
        rng = random.Random(9)
        seen_trivial = 0
        for _ in range(2000):
            g = random_graph(rng.randint(1, 4), rng.random(), rng.getrandbits(32))
            w = random_word(rng, g, max_len=8)
            if is_trivial(Raag(g), w):
                seen_trivial += 1
                assert not any(exponent_sums(w).values())
        assert seen_trivial > 50

    def test_adding_an_edge_preserves_triviality(self):
        rng = random.Random(10)
        checked = 0
        while checked < 300:
            g = random_graph(rng.randint(2, 5), rng.random(), rng.getrandbits(32))
            w = sample_trivial_word(Raag(g), 2 * rng.randint(1, 5), rng.getrandbits(32))
            nonedges = [(u, v) for i, u in enumerate(g.vertices)
                        for v in g.vertices[i + 1:] if not g.has_edge(u, v)]
            if not nonedges:
                continue
            u, v = nonedges[rng.randrange(len(nonedges))]
            bigger = SimplicialGraph(g.vertices, [*g.edge_list(), (u, v)])
            assert is_trivial(Raag(bigger), w)
            checked += 1

    def test_full_subgraph_words_agree_with_ambient(self):
        rng = random.Random(12)
        checked = 0
        while checked < 300:
            g = random_graph(rng.randint(2, 6), rng.random(), rng.getrandbits(32))
            members = [v for v in g.vertices if rng.random() < 0.6]
            if not members:
                continue
            small = Raag(induced_subgraph(g, members))
            w = random_word(rng, small.graph, max_len=10)
            assert is_trivial(small, w) == is_trivial(Raag(g), w)
            checked += 1


class TestOracle:
    def test_empty_word(self):
        assert oracle_is_trivial(EDGE, ())

    def test_single_letter_never_trivial(self):
        rng = random.Random(15)
        for _ in range(50):
            g = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            v = g.vertices[rng.randrange(len(g.vertices))]
            assert not oracle_is_trivial(Raag(g), ((v, 1),))

    def test_commutator_both_ways(self):
        assert oracle_is_trivial(EDGE, COMMUTATOR)
        assert not oracle_is_trivial(FREE2, COMMUTATOR)

    def test_refuted_by_the_search_itself(self):
        # [[a,b],c] on three isolated vertices passes both shortcuts: its exponent
        # sums vanish and every pair projection freely reduces to the empty word
        free3 = Raag(SimplicialGraph(("a", "b", "c")))
        w = parse_word("a b a^-1 b^-1 c b a b^-1 a^-1 c^-1")
        assert not any(exponent_sums(w).values())
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            assert free_reduce(tuple(l for l in w if l[0] in pair)) == ()
        assert not oracle_is_trivial(free3, w)
        assert not is_trivial(free3, w)

    def test_bound_measured_after_free_reduction(self):
        w = concat(*([(("a", 1), ("a", -1))] * 20))
        assert oracle_is_trivial(EDGE, w)  # 40 letters, reduces to none

    def test_refuses_oversized_words(self):
        w = tuple(("a", 1) if i % 2 == 0 else ("b", 1) for i in range(16))
        with pytest.raises(OracleBoundError):
            oracle_is_trivial(EDGE, w)
        assert not oracle_is_trivial(EDGE, w, max_reduced_length=16)

    def test_agrees_with_solver_on_random_corpus(self):
        rng = random.Random(16)
        for _ in range(1500):
            g = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            w = random_word(rng, g)
            assert oracle_is_trivial(Raag(g), w) == is_trivial(Raag(g), w)

    def test_solver_agrees_with_quadratic_deletion_at_medium_length(self):
        # the BFS oracle stops at reduced length 14; the quadratic
        # pair-deletion method covers words an order of magnitude longer
        rng = random.Random(23)
        for _ in range(300):
            g = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            group = Raag(g)
            kind = rng.random()
            if kind < 0.4:
                w = random_word(rng, g, max_len=200)
            elif kind < 0.7:
                w = sample_trivial_word(group, 2 * rng.randint(10, 100), rng.getrandbits(32))
            else:
                w = sample_nontrivial_word(group, rng.randint(20, 200), rng.getrandbits(32))
            assert is_trivial(group, w) == quadratic_is_trivial(g, w)

    def test_solver_agrees_with_quadratic_deletion_on_larger_graphs(self):
        # up to 64 vertices, so a cancel attempt scans long non-neighbor
        # lists; words are products of conjugated edge commutators, with
        # one conjugated non-edge commutator in the nontrivial half, read
        # from a random cyclic rotation (a conjugate, same verdict)
        rng = random.Random(24)
        checked = 0
        while checked < 200:
            g = random_graph(rng.randint(8, 64), rng.uniform(0.1, 0.9), rng.getrandbits(32))
            edges = g.edge_list()
            nonedges = [(u, v) for i, u in enumerate(g.vertices)
                        for v in g.vertices[i + 1:] if not g.has_edge(u, v)]
            if not edges or not nonedges:
                continue
            trivial = checked % 2 == 0
            w = () if trivial else conjugated_commutator(rng, g, *rng.choice(nonedges))
            length = rng.randint(200, 600)
            while len(w) < length:
                w += conjugated_commutator(rng, g, *rng.sample(rng.choice(edges), 2))
            r = rng.randrange(len(w))
            w = w[r:] + w[:r]
            assert is_trivial(Raag(g), w) == quadratic_is_trivial(g, w) == trivial
            checked += 1

    def test_solver_agrees_with_references_on_long_commuting_runs(self):
        # blocks x^e R x^-e R^-1, R a run of letters commuting with x that is
        # longer than |Nbar(x)|: x^-e is settled by reading the non-adjacent
        # stack tops, and R^-1 then cancels at the end of the reduced word down
        # to x's cancelled entries; commutators and random letters mix in
        # cancellations a few letters below the newest
        rng = random.Random(25)
        checked = 0
        while checked < 300:
            g = random_graph(rng.randint(3, 10), rng.uniform(0.3, 0.9), rng.getrandbits(32))
            edges, nbar = g.edge_list(), g.nonneighbors()
            if not edges:
                continue
            w = ()
            while len(w) < 60:
                kind = rng.random()
                if kind < 0.5:
                    x = rng.choice(rng.choice(edges))
                    adjacent = sorted(g.adjacency[x])
                    head = ((x, rng.choice((1, -1))),) * rng.randint(1, 3)
                    run = tuple((rng.choice(adjacent), rng.choice((1, -1)))
                                for _ in range(len(nbar[g.index_of(x)]) + rng.randint(1, 3)))
                    w += head + run + invert(head) + invert(run)
                elif kind < 0.8:
                    w += conjugated_commutator(rng, g, *rng.sample(rng.choice(edges), 2))
                else:
                    w += random_word(rng, g, max_len=3)
            if rng.random() < 0.5:
                r = rng.randrange(len(w))
                w = w[r:] + w[:r]
            p = empty_piling(g)
            for l in w:
                p = push_letter(p, l, g)
            assert is_trivial(Raag(g), w) == quadratic_is_trivial(g, w) == p.is_empty()
            checked += 1

    def test_long_commuting_run_stays_linear(self):
        # a^M c^L a^-M c^-L with a, c adjacent and b adjacent to neither: every
        # a^-1 has all L c's after its partner, so walking back over them
        # without the |Nbar(a)| cap would take about M * L = 10^10 steps
        g = Raag(SimplicialGraph(("a", "b", "c"), [("a", "c")]))
        m = l = 100_000
        w = (("a", 1),) * m + (("c", 1),) * l + (("a", -1),) * m + (("c", -1),) * l
        limit = 20.0
        alarm = getattr(signal, "SIGALRM", None)
        if alarm is not None:
            def timed_out(signum, frame):
                raise TimeoutError(f"not decided within {limit} s")
            previous = signal.signal(alarm, timed_out)
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            t0 = time.perf_counter()
            assert is_trivial(g, w)
            assert not is_trivial(g, w[:m] + (("b", 1),) + w[m:])
            elapsed = time.perf_counter() - t0
        finally:
            if alarm is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(alarm, previous)
        assert elapsed < limit

    def test_agrees_with_structure_oracle_exhaustively(self):
        # every graph shape on <= 3 vertices, every word of length <= 4,
        # plus a random slab of longer words
        shapes = [
            SimplicialGraph(("a",)),
            SimplicialGraph(("a", "b")),
            SimplicialGraph(("a", "b"), [("a", "b")]),
            SimplicialGraph(("a", "b", "c")),
            SimplicialGraph(("a", "b", "c"), [("a", "b")]),
            SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")]),
            SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")]),
        ]
        rng = random.Random(17)
        for g in shapes:
            gr = Raag(g)
            alphabet = [(v, s) for v in g.vertices for s in (1, -1)]
            for length in range(0, 5):
                for w in itertools.product(alphabet, repeat=length):
                    assert oracle_is_trivial(gr, w) == structure_is_trivial(g, w)
            for _ in range(400):
                w = tuple(alphabet[rng.randrange(len(alphabet))]
                          for _ in range(rng.randint(5, 6)))
                assert oracle_is_trivial(gr, w) == structure_is_trivial(g, w)

    def test_accepts_every_relator_product(self):
        # everything reachable by inserting relators and cancelling pairs
        # is trivial by construction; the oracle must agree
        shapes = [
            SimplicialGraph(("a", "b"), [("a", "b")]),
            SimplicialGraph(("a", "b", "c"), [("a", "b")]),
            SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")]),
        ]
        for g in shapes:
            gr = Raag(g)
            ball = normal_closure_ball(g, cap=6)
            assert len(ball) > 10
            for w in ball:
                assert oracle_is_trivial(gr, w)
                assert is_trivial(gr, w)


class TestSamplers:
    def test_trivial_sampler_contract(self):
        rng = random.Random(18)
        for _ in range(200):
            g = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            length = 2 * rng.randint(1, 15)
            w = sample_trivial_word(Raag(g), length, rng.getrandbits(32))
            assert len(w) == length
            assert is_trivial(Raag(g), w)

    def test_trivial_sampler_verified_by_oracle_at_small_length(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_graph(rng.randint(1, 4), rng.random(), rng.getrandbits(32))
            w = sample_trivial_word(Raag(g), 2 * rng.randint(1, 6), rng.getrandbits(32))
            assert oracle_is_trivial(Raag(g), w)

    def test_nontrivial_sampler_contract(self):
        rng = random.Random(20)
        for _ in range(200):
            g = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            length = rng.randint(1, 30)
            w = sample_nontrivial_word(Raag(g), length, rng.getrandbits(32))
            assert not is_trivial(Raag(g), w)
            assert abs(len(w) - length) <= max(1, length // 4)

    def test_nontrivial_sampler_verified_by_oracle_at_small_length(self):
        rng = random.Random(21)
        for _ in range(100):
            g = random_graph(rng.randint(1, 4), rng.random(), rng.getrandbits(32))
            w = sample_nontrivial_word(Raag(g), rng.randint(1, 11), rng.getrandbits(32))
            assert not oracle_is_trivial(Raag(g), w)

    def test_determinism(self):
        g = Raag(random_graph(5, 0.5, 77))
        assert sample_trivial_word(g, 20, 123) == sample_trivial_word(g, 20, 123)
        assert sample_nontrivial_word(g, 20, 123) == sample_nontrivial_word(g, 20, 123)
        assert sample_trivial_word(g, 20, 123) != sample_trivial_word(g, 20, 124)

    def test_single_vertex_nontrivial_word_has_odd_exponent(self):
        g = Raag(SimplicialGraph(("a",)))
        for seed in range(20):
            w = sample_nontrivial_word(g, 9, seed)
            assert exponent_sums(w)["a"] % 2 == 1

    def test_nontrivial_word_has_exactly_one_nonzero_exponent_sum(self):
        # why the sampler needs no triviality check: a trivial word times one
        # letter x^+-1 sums to +-1 at x and to 0 at every other generator
        rng = random.Random(23)
        for _ in range(300):
            g = random_graph(rng.randint(2, 12), rng.random(), rng.getrandbits(32))
            w = sample_nontrivial_word(Raag(g), rng.randint(1, 64), rng.getrandbits(32))
            assert [s for s in exponent_sums(w).values() if s] in ([1], [-1])

    def test_length_is_checked_before_the_generators(self):
        empty = Raag(SimplicialGraph(()))
        with pytest.raises(ValueError, match="target length must be a positive even integer"):
            sample_trivial_word(empty, 0, 0)
        with pytest.raises(ValueError, match="target length must be positive"):
            sample_nontrivial_word(empty, 0, 0)
        for sample in (sample_trivial_word, sample_nontrivial_word):
            with pytest.raises(ValueError, match="the group needs at least one generator"):
                sample(empty, 2, 0)

    def test_edgeless_graph_still_samples_trivial_words(self):
        g = Raag(SimplicialGraph(("a", "b", "c")))
        w = sample_trivial_word(g, 12, 5)
        assert is_trivial(g, w) and len(w) == 12

    def test_words_match_the_reference_draws(self):
        # every draw below k made with rng._randbelow(k) and the commute test on int masks:
        # the inlined draws must give the same words. 8 and 16 vertices and a power-of-two
        # edge count reject half of the vertex and edge draws, the sign draw rejects half
        ring8 = tuple("abcdefgh")
        ring16 = tuple(f"v{i}" for i in range(16))
        graphs = [
            SimplicialGraph(ring8, [(v, ring8[i - 1]) for i, v in enumerate(ring8)]),  # 8 edges
            SimplicialGraph(ring16, [(v, ring16[i - d]) for i, v in enumerate(ring16)
                                     for d in (1, 2)]),  # 32 edges
            SimplicialGraph(("a",)),
            SimplicialGraph(ring8[:5]),
            SimplicialGraph(ring8[:5], itertools.combinations(ring8[:5], 2)),
            random_graph(64, 0.8, 29),
        ]
        assert [len(g.edge_list()) for g in graphs[:2]] == [8, 32]
        for g in graphs:
            for seed in range(240):
                length = 1 + seed % 40
                even = length - length % 2
                for extra in (True, False) if even else (True,):
                    assert _sample(g, seed, even, extra) == reference_sample(g, seed, even, extra)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_trivial_word(EDGE, 7, 0)  # odd
        with pytest.raises(ValueError):
            sample_trivial_word(EDGE, 0, 0)
        with pytest.raises(ValueError):
            sample_nontrivial_word(EDGE, 0, 0)
        empty = Raag(SimplicialGraph(()))
        with pytest.raises(ValueError):
            sample_trivial_word(empty, 4, 0)
        with pytest.raises(ValueError):
            sample_nontrivial_word(empty, 4, 0)


class CraftedStream:
    """A stand-in generator over one list of 32-bit words, read the way ``random.Random``
    reads its MT19937 outputs: ``random()`` takes two words a, b and gives
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and ``getrandbits(k)`` takes k / 32 words, the
    first one lowest."""

    def __init__(self, words):
        self.words = words
        self.pos = 0

    def take(self, count):
        assert self.pos + count <= len(self.words), "the stream ran out"
        self.pos += count
        return self.words[self.pos - count:self.pos]

    def random(self):
        a, b = self.take(2)
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        assert k % 32 == 0
        return int.from_bytes(struct.pack(f"<{k // 32}I", *self.take(k // 32)), "little")


class AskedPairs:
    """A commute table in which every pair of codes commutes, logging each pair it is asked
    about: with distinct codes, the log spells out every swap index drawn."""

    def __init__(self, size):
        self.asked = []
        self.rows = [self.Row(self.asked, a) for a in range(size)]

    def __getitem__(self, a):
        return self.rows[a]

    class Row:
        def __init__(self, asked, a):
            self.asked, self.a = asked, a

        def __getitem__(self, b):
            self.asked.append((self.a, b))
            return 1


def boundary_draws(m):
    """(a, b) output pairs for random() draws on both sides of every index boundary k / m.
    a's top 27 bits, A, sit just below and at the boundary, each with b at 0 and at its
    largest; below it, b's top 26 bits also sit on both sides of the least value that lifts
    (A * 2**26 + (b >> 6)) * m to k * 2**53."""
    draws = []
    for k in range(m + 1):
        first = -(-(k << 27) // m)  # the least A with A * m >= k * 2**27
        for top in (first - 1, first):
            if 0 <= top < 1 << 27:
                draws += [(top << 5 | 31, 0), (top << 5, 0xFFFFFFFF)]
        lift = -(-((k << 27) - (first - 1) * m << 26) // m)  # the least b >> 6 that lifts
        if first and lift < 1 << 26:
            draws += [(first - 1 << 5, lift << 6), (first - 1 << 5 | 31, lift - 1 << 6 | 63)]
    return draws


class TestShuffleDraws:
    # raag._shuffle_commuting reads the draws int(random() * (n - 1)) off one getrandbits
    # product up to 256 letters, and calls random() per draw above; either way the swaps
    # and the generator's state after them must be those of the reference

    def test_crafted_stream_reads_like_a_generator(self):
        rng = random.Random(31)
        words = [rng.getrandbits(32) for _ in range(4000)]
        rng.seed(31)
        stream = CraftedStream(words)
        assert [stream.random() for _ in range(500)] == [rng.random() for _ in range(500)]
        assert stream.getrandbits(64 * 500) == rng.getrandbits(64 * 500)
        assert stream.pos == 1000 + 1000

    def test_shuffle_matches_the_reference_over_seeds(self):
        rng = random.Random(32)
        commute = tuple(bytes(rng.random() < 0.5 for _ in range(8)) for _ in range(8))
        probe = random.Random()
        fixups = 0
        for seed in range(1000):
            fast, slow = random.Random(seed), random.Random(seed)
            for n in (0, 1, 2, 3, 16, 17, 255, 256, 257, 600):
                codes = [c & 7 for c in rng.randbytes(n)]
                expected = list(codes)
                if 2 <= n <= 17:
                    # the draws whose byte 3 of (a & ~31) * (n - 1) is 255, which the
                    # package computes as random() does, counted at the sizes of share's words
                    probe.setstate(fast.getstate())
                    lanes = probe.getrandbits(256 * n).to_bytes(32 * n, "little")
                    fixups += sum((a >> 5) * (n - 1) % 2**27 >= 255 << 19
                                  for a, _ in struct.iter_unpack("<II", lanes))
                _shuffle_commuting(fast, codes, commute)
                reference_shuffle_commuting(slow, expected, commute)
                assert codes == expected, (seed, n)
                assert fast.getstate() == slow.getstate(), (seed, n)
        assert fixups >= 100

    def test_shuffle_matches_the_reference_at_every_index_boundary(self):
        lifted = 0
        for m in range(1, 256):
            n = m + 1
            draws = boundary_draws(m)
            lifted += sum(int((a >> 5 << 26 | b >> 6) / 2**53 * m) != (a >> 5) * m >> 27
                          for a, b in draws)
            draws += [(0, 0)] * (-len(draws) % (4 * n))
            for start in range(0, len(draws), 4 * n):
                words = [w for draw in draws[start:start + 4 * n] for w in draw]
                fast, slow = CraftedStream(words), CraftedStream(words)
                fast_pairs, slow_pairs = AskedPairs(n), AskedPairs(n)
                codes, expected = list(range(n)), list(range(n))
                _shuffle_commuting(fast, codes, fast_pairs)
                reference_shuffle_commuting(slow, expected, slow_pairs)
                assert fast_pairs.asked == slow_pairs.asked, m
                assert codes == expected and fast.pos == slow.pos == len(words), m
        # draws whose index is one more than (a >> 5) * m >> 27, the lane product's byte 4
        assert lifted >= 1000

    def test_sampler_matches_the_reference_on_both_shuffle_paths(self):
        # a 256-letter trivial word is shuffled off the lane product, and again above it
        # with its extra letter; 1,000 letters take random() per draw
        graphs = [random_graph(10, 0.5, 33), random_graph(3, 1.0, 34), SimplicialGraph(("a",))]
        for g in graphs:
            for length in (*range(250, 263), 1000):
                even = length - length % 2
                for seed in range(4):
                    for extra in (True, False):
                        assert _sample(g, seed, even, extra) == reference_sample(g, seed, even, extra)


class TestVerdictGolden:
    # a digest over the solver's verdicts on a fixed corpus: sampled trivial
    # and nontrivial words, each word times its inverse, a copy with one
    # letter replaced, and a^M c^L a^-M c^-L with and without a b inside; a
    # change that only speeds the solver up leaves it as is
    DIGEST = "bd4f218567853e2c9986af0bebcec2c4e5ef56b20d13efee7a4330acc4b15306"

    def test_verdicts_are_pinned(self):
        h = hashlib.sha256()
        counts = [0, 0]

        def add(group, w):
            verdict = is_trivial(group, w)
            counts[verdict] += 1
            h.update(b"1" if verdict else b"0")

        letters = ("a", "b", "c", "d", "e")
        graphs = [SimplicialGraph(("a",)), SimplicialGraph(letters),
                  SimplicialGraph(letters, itertools.combinations(letters, 2)),
                  random_graph(16, 0.5, 61), random_graph(64, 0.2, 62), random_graph(64, 0.8, 63)]
        for g in graphs:
            group = Raag(g)
            alphabet = [(v, s) for v in g.vertices for s in (1, -1)]
            rng = random.Random(len(g.vertices))
            for seed in range(8):
                words = [sample_trivial_word(group, n, seed) for n in (2, 8, 32, 128, 512)]
                words += [sample_nontrivial_word(group, n, seed) for n in (1, 7, 31, 127, 511)]
                for w in words:
                    i = rng.randrange(len(w))
                    for x in (w, w + invert(w), w[:i] + (rng.choice(alphabet),) + w[i + 1:]):
                        add(group, x)
        g = Raag(SimplicialGraph(("a", "b", "c"), [("a", "c")]))
        for m in range(5):
            for l in range(5):
                w = (("a", 1),) * m + (("c", 1),) * l + (("a", -1),) * m + (("c", -1),) * l
                add(g, w)
                add(g, w[:m] + (("b", 1),) + w[m:])
        assert counts[0] > 500 and counts[1] > 500
        assert h.hexdigest() == self.DIGEST


class TestStaleSlots:
    # the solver's letter arrays keep what cancelled letters left above the
    # pile height; these words put such slots right above the height, where
    # a walk or pop that read past it would see the wrong letters

    def test_empty_then_refill_cancels_across_stale_slots(self):
        # b^4 b^-4 leaves four b entries above an empty pile; a^-1 must
        # then see only the c after its partner, not the b's beyond it
        g = Raag(SimplicialGraph(("a", "b", "c"), [("a", "c")]))
        w = parse_word("b b b b b^-1 b^-1 b^-1 b^-1 a c a^-1 c^-1")
        assert is_trivial(g, w)
        assert is_trivial(g, w + w)
        assert not is_trivial(g, w + parse_word("a c b a^-1 c^-1"))

    def test_zeroed_entries_above_the_height(self):
        # a^-1 cancels below the newest letter and zeroes a's entry; c^-1 c^-1
        # then pop both c's and the zeroed entry, leaving 0 c c above an empty
        # pile; b^-1 must then see only the a after its partner, not the
        # stale c beyond it (b and c do not commute)
        g = Raag(SimplicialGraph(("a", "b", "c"), [("a", "b"), ("a", "c")]))
        w = parse_word("a c c a^-1 c^-1 c^-1")
        assert is_trivial(g, w + parse_word("b a b^-1 a^-1"))
        assert is_trivial(g, w + parse_word("b a b^-1 a^-1") + w)
        assert not is_trivial(g, w + parse_word("b c b^-1 c^-1"))

    def test_matches_stepwise_pushes_on_refilled_piles(self):
        rng = random.Random(26)
        checked = 0
        while checked < 400:
            g = random_graph(rng.randint(2, 8), rng.random(), rng.getrandbits(32))
            edges = g.edge_list()
            w = ()
            while len(w) < 80:
                kind = rng.random()
                if kind < 0.35:  # up and back down to the guard
                    u = random_word(rng, g, max_len=10)
                    w += u + invert(u)
                elif kind < 0.7 and edges:  # cancels below the newest letter
                    x, y = rng.sample(rng.choice(edges), 2)
                    e, f = rng.choice((1, -1)), rng.choice((1, -1))
                    run = ((y, f),) * rng.randint(1, 3)
                    w += ((x, e),) + run + ((x, -e),) + invert(run)
                else:
                    w += random_word(rng, g, max_len=4)
            p = empty_piling(g)
            for l in w:
                p = push_letter(p, l, g)
            assert is_trivial(Raag(g), w) == p.is_empty()
            checked += 1


def cancel_branches(g, w):
    """Each letter's branch in ``is_trivial``, from a list model of its pile, and the letters
    left, oldest first, which represent ``w``.

    One entry per letter: the branch, whether the cancel attempt was blocked (None for a
    push branch), and the position in ``w`` of the partner letter the attempt reached.
    """
    nbar = g.nonneighbors()
    # one pile entry per letter left: (v, sign, the top it covered, its position in w)
    pile, tops, out = [], [0] * len(g.vertices), []
    for i, (gen, sign) in enumerate(w):
        v = g.index_of(gen)
        t = tops[v]
        if not t or pile[t - 1][1] == sign:
            out.append(("same sign" if t else "empty top", None, None))
        else:
            newer = len(pile) - t
            blocked = any(e and e[0] in nbar[v] for e in pile[t:])
            kind = ("newest" if not newer else "one slot" if newer == 1 else "two slots"
                    if newer == 2 else "walk" if newer <= len(nbar[v]) else "scan")
            out.append((kind, blocked, pile[t - 1][3]))
            if not blocked:
                tops[v] = pile[t - 1][2]
                if newer:
                    pile[t - 1] = None  # cancelled below the newest letter
                else:
                    pile.pop()
                    while pile and not pile[-1]:
                        pile.pop()
                continue
        pile.append((v, sign, t, i))
        tops[v] = len(pile)
    return out, tuple((g.vertices[e[0]], e[1]) for e in pile if e)


def branch_corpus():
    """Words on graphs with |Nbar(v)| of 0 (complete, EDGE), 1 (FREE2), 2 to 4 (a path) and
    2 to 6 (``random_graph(10, 0.5, ...)``): sampled trivial and nontrivial words, random
    words, and u x u^-1 for random u and a short random x."""
    rng = random.Random(3030)
    ks = tuple(f"k{i}" for i in range(4))
    ps = tuple(f"p{i}" for i in range(6))
    graphs = [SimplicialGraph(ks, list(itertools.combinations(ks, 2))), EDGE.graph, FREE2.graph,
              SimplicialGraph(ps, list(zip(ps, ps[1:])))]
    graphs += [random_graph(10, 0.5, seed) for seed in range(4)]
    for g in graphs:
        group = Raag(g)
        for _ in range(40):
            u = random_word(rng, g, max_len=8)
            yield g, sample_trivial_word(group, 2 * rng.randint(1, 30), rng.getrandbits(32))
            yield g, sample_nontrivial_word(group, rng.randint(1, 40), rng.getrandbits(32))
            yield g, random_word(rng, g, max_len=16)
            yield g, u + random_word(rng, g, max_len=3) + invert(u)


class TestCancelBranches:
    # is_trivial picks one of five cancel tests by how many letters are left above v's top
    # (none, one, two, up to |Nbar(v)|, more); a corpus runs each in both outcomes
    BRANCHES = {("empty top", None), ("same sign", None), ("newest", False)} | {
        (kind, blocked) for kind in ("one slot", "two slots", "walk", "scan")
        for blocked in (False, True)}

    def test_every_branch_runs_and_agrees_with_the_references(self):
        counts = dict.fromkeys(self.BRANCHES, 0)
        oracle_checked = 0
        for g, w in branch_corpus():
            branches, left = cancel_branches(g, w)
            for kind, blocked, _ in branches:
                counts[kind, blocked] += 1
            p = empty_piling(g)
            for l in w:
                p = push_letter(p, l, g)
            verdict = not left
            assert is_trivial(Raag(g), w) == p.is_empty() == verdict, w
            # a wrong cancel that keeps w's verdict still leaves another pile than the model's
            assert is_trivial(Raag(g), w + invert(left)), w
            if len(free_reduce(w)) <= 14:
                assert oracle_is_trivial(Raag(g), w) == verdict, w
                oracle_checked += 1
        assert min(counts.values()) >= 50, counts
        assert oracle_checked >= 500

    def test_a_float_partner_is_refused_wherever_its_slot_is_indexed(self):
        # every attempt but the newest cancel and a blocked top scan indexes through the
        # partner's slot (one or two slots, a walk's slice, a cancel's covered top), so a
        # float sign on the partner must get letter's WordError there or earlier
        checked = dict.fromkeys(("one slot", "two slots", "walk", "scan"), 0)
        for g, w in branch_corpus():
            for kind, blocked, partner in cancel_branches(g, w)[0]:
                if kind in checked and not (kind == "scan" and blocked):
                    gen, sign = w[partner]
                    floated = w[:partner] + ((gen, float(sign)),) + w[partner + 1:]
                    with pytest.raises(WordError, match="sign"):
                        is_trivial(Raag(g), floated)
                    checked[kind] += 1
        assert min(checked.values()) >= 50, checked


class TestInputContract:
    def test_any_iterable_of_letters(self):
        rng = random.Random(27)
        for _ in range(200):
            g = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            group = Raag(g)
            w = random_word(rng, g, max_len=16)
            if rng.random() < 0.5:
                w += invert(w)
            verdict = is_trivial(group, w)
            assert is_trivial(group, list(w)) == verdict
            assert is_trivial(group, (l for l in w)) == verdict
            assert is_trivial(group, [list(l) for l in w]) == verdict
            assert is_trivial(group, iter(w)) == verdict

    @pytest.mark.parametrize("w,message", [
        ((("a", 1), ("zz", 1), ("a", -1), ("b", 3)), "unknown generator 'zz'"),
        ((("a", 1), ("b", 3), ("a", -1), ("zz", 1)), "sign"),
        (([" a", 1],), "unknown generator ' a'"),
        ((("a", 1), ("a", -1), ("b", 0)), "sign"),
    ])
    def test_first_bad_letter_raises(self, w, message):
        for shape in (tuple, list, iter):
            with pytest.raises(WordError, match=message):
                is_trivial(EDGE, shape(w))

    @pytest.mark.parametrize("w,message", [
        # the float sign enters ``top[v] * sign``, and the cancel past b indexes with it
        ((("a", 1), ("b", 1), ("a", -1.0)), "sign must be \\+1 or -1, got -1.0"),
        # an unknown generator's KeyError re-checks from the first letter
        ((("a", 1.0), ("zz", 1)), "sign must be \\+1 or -1, got 1.0"),
        ((("zz", 1), ("a", 1.0)), "unknown generator 'zz'"),
        ((("zz", 1.0), ("a", -1)), "unknown generator 'zz'"),
    ])
    def test_a_float_sign_and_an_unknown_generator_report_whichever_comes_first(self, w, message):
        for shape in (tuple, list, iter):
            with pytest.raises(WordError, match=message):
                is_trivial(EDGE, shape(w))

    @pytest.mark.parametrize("w", [
        ((["a"], 1),),
        (("a", 1), ({"b"}, -1)),
        (("a", 1), (["zz"], 1), ("zz", 1)),
    ])
    def test_an_unhashable_generator_is_an_unknown_generator(self, w):
        # an unhashable generator is unknown, as None or 3 is: the letter check tests the
        # type before it hashes, so no bare TypeError ("unhashable type") escapes
        bad = next(gen for gen, _ in w if not isinstance(gen, str))
        checks = [partial(is_trivial, EDGE, shape(w)) for shape in (tuple, list, iter)]
        checks += [partial(oracle_is_trivial, EDGE, w),
                   partial(push_letter, empty_piling(EDGE), (bad, 1), EDGE.graph)]
        for check in checks:
            with pytest.raises(WordError) as caught:
                check()
            assert str(caught.value) == f"unknown generator {bad!r}"

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from((EDGE, FREE2)),
           st.lists(st.tuples(st.sampled_from(("a", "b", "zz")),
                              st.sampled_from((1, -1, 1, -1, 1.0, -1.0, 2, 0))), max_size=8))
    def test_a_word_gets_a_verdict_only_if_every_letter_is_good_by_value(self, group, w):
        # a float sign equal to 1 or -1 may get the sign's WordError or its value's verdict
        good = all(gen != "zz" and sign in (1, -1) for gen, sign in w)
        try:
            verdict = is_trivial(group, w)
        except WordError as e:
            assert not good or "sign" in str(e) and any(type(s) is float for _, s in w)
        else:
            assert good and verdict == is_trivial(group, [(gen, int(s)) for gen, s in w])
