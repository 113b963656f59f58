import hashlib
import itertools
import random
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import normal_closure_ball, quadratic_is_trivial, structure_is_trivial
from raagcrypt.graphs import SimplicialGraph, induced_subgraph, random_graph
from raagcrypt.raag import (
    OracleBoundError,
    Raag,
    empty_piling,
    is_trivial,
    oracle_is_trivial,
    push_letter,
    sample_nontrivial_word,
    sample_trivial_word,
)
from raagcrypt.words import WordError, concat, exponent_sums, free_reduce, invert, parse_word

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

    def test_edgeless_graph_still_samples_trivial_words(self):
        g = Raag(SimplicialGraph(("a", "b", "c")))
        w = sample_trivial_word(g, 12, 5)
        assert is_trivial(g, w) and len(w) == 12

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
