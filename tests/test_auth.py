import _random
import argparse
import hashlib
import random

import pytest

from conftest import reference_random_images, reference_shuffle
from raagcrypt import auth, graphs
from raagcrypt.analyze import AttackRecord, wilson95
from raagcrypt.auth import (
    STRATEGIES,
    AuthError,
    HomKeyPair,
    SubKeyPair,
    acceptance_rate,
    format_private_key,
    format_public_key,
    format_transcript,
    hom_commit,
    hom_keygen,
    hom_respond,
    hom_verify,
    parse_private_key,
    parse_public_key,
    parse_transcript,
    run_protocol,
    sub_commit,
    sub_keygen,
    sub_respond,
    sub_verify,
)
from raagcrypt.cli import ROUND_FILES, build_parser, main
from raagcrypt.graphs import (
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    find_graph_homomorphism,
    find_induced_subgraph_isomorphism,
    format_graph,
    format_map_lines,
    triangle_vertices,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)


class TestDraws:
    def test_images_and_shuffle_match_the_reference_draws(self):
        # rng._randbelow(k) for each image and random.Random.shuffle: the written-out draws
        # must give the same images and orders and leave the generator in the same state.
        # Sizes 1-40 cover k = 1 (bits until a 0), every power of two and its neighbours
        targets = [SimplicialGraph(f"t{i}" for i in range(k)) for k in range(1, 41)]
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            for k, target in enumerate(targets, start=1):
                count = (seed + k) % 9
                assert (auth._random_images(target, count, rng)
                        == reference_random_images(target, count, ref))
                assert rng.getstate() == ref.getstate()
            for length in range(41):
                items, expected = list(range(length)), list(range(length))
                auth._shuffle(items, rng)
                reference_shuffle(expected, ref)
                assert items == expected
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [0, 1, -1, True, 2**64, 2**200 + 3])
    def test_c_generator_draws_as_random_random(self, seed):
        # commitments, protocol runs and word samples seed random.Random's C base class:
        # it must give random.Random's getrandbits and random streams on every Python
        fast, slow = _random.Random(seed), random.Random(seed)
        for k in (1, 2, 3, 31, 32, 33, 64, 65, 256, 1000):
            for draw in ("getrandbits", "random"):
                args = (k,) if draw == "getrandbits" else ()
                assert ([getattr(fast, draw)(*args) for _ in range(5)]
                        == [getattr(slow, draw)(*args) for _ in range(5)])
        assert fast.getstate() == _random.Random.getstate(slow)  # the same MT19937 state


class TestHomKeygen:
    def test_private_key_verifies(self):
        for seed in range(10):
            key = hom_keygen(6, 7, seed)
            assert verify_graph_homomorphism(key.alpha)
            assert key.alpha.source == key.g1 and key.alpha.target == key.g2

    def test_target_contains_triangle(self):
        for seed in range(10):
            key = hom_keygen(5, 6, seed, edge_prob=0.1)
            assert triangle_vertices(key.g2) is not None

    def test_deterministic(self):
        assert hom_keygen(6, 7, 5) == hom_keygen(6, 7, 5)
        assert hom_keygen(6, 7, 5) != hom_keygen(6, 7, 6)

    def test_size_validation(self):
        with pytest.raises(AuthError):
            hom_keygen(4, 2, 0)
        with pytest.raises(AuthError):
            hom_keygen(0, 5, 0)


class TestEdgeProbabilities:
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("keygen, sizes, name", [
        (hom_keygen, (8, 8), "edge_prob"),
        (hom_keygen, (8, 8), "keep_prob"),
        (sub_keygen, (16, 7), "pattern_edge_prob"),
        (sub_keygen, (16, 7), "ambient_edge_prob"),
    ])
    def test_keygens_refuse_what_random_graph_refuses(self, keygen, sizes, name, p):
        # only random_graph checked its probability; a keygen built a key at any value
        with pytest.raises(ValueError) as expected:
            graphs.random_graph(4, p, 1)
        with pytest.raises(ValueError) as caught:
            keygen(*sizes, 1, **{name: p})
        assert str(caught.value) == str(expected.value)


class TestHomRound:
    def test_commitment_map_verifies(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        assert beta.source == commitment and beta.target == key.g1
        assert verify_graph_homomorphism(beta)

    def test_composite_verifies_into_g2(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        composite = beta.compose(key.alpha)
        assert composite.source == commitment and composite.target == key.g2
        assert verify_graph_homomorphism(composite)

    def test_commit_deterministic(self):
        key = hom_keygen(6, 6, 1)
        assert hom_commit(key.g1, 5, 9) == hom_commit(key.g1, 5, 9)

    def test_respond_returns_beta_on_zero(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        assert hom_respond(beta, 0, key) is beta

    def test_respond_composes_on_one(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        response = hom_respond(beta, 1, key)
        for v in commitment.vertices:
            assert response.assignment[v] == key.alpha.assignment[beta.assignment[v]]
        assert hom_respond(beta, 1, key) == response  # pure

    def test_respond_needs_challenge(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        for c in (None, 2):  # 2 was answered as 1
            with pytest.raises(AuthError, match=f"challenge must be 0 or 1, got {c}"):
                hom_respond(beta, c, key)

    def test_respond_needs_a_session_homomorphism(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 2)
        for session in (None, beta.assignment):  # none, or a plain dict in place of a VertexMap
            with pytest.raises(AuthError, match="round holds no session homomorphism"):
                hom_respond(session, 1, key)

    def test_honest_flow_accepts_both_challenges(self):
        key = hom_keygen(6, 6, 1)
        for c in (0, 1):
            commitment, beta = hom_commit(key.g1, 5, 40 + c)
            response = hom_respond(beta, c, key)
            assert hom_verify(key.g1, key.g2, commitment, c, response)

    def test_edge_to_nonedge_rejected(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 3)
        edges = commitment.edge_list()
        if not edges:
            pytest.skip("commitment happened to be edgeless")
        nonadjacent = None
        for x in key.g1.vertices:
            for y in key.g1.vertices:
                if x != y and not key.g1.has_edge(x, y):
                    nonadjacent = (x, y)
        assert nonadjacent is not None
        u, v = edges[0]
        bad = dict(beta.assignment)
        bad[u], bad[v] = nonadjacent
        assert not hom_verify(key.g1, key.g2, commitment, 0,
                              VertexMap(commitment, key.g1, bad))

    def test_wrong_vertex_set_rejected(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 3)
        other, other_beta = hom_commit(key.g1, 4, 99)
        assert not hom_verify(key.g1, key.g2, commitment, 0, other_beta)

    def test_wrong_target_rejected(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 3)
        assert not hom_verify(key.g1, key.g2, commitment, 1, beta)  # beta targets g1

    def test_malformed_response_rejected_not_raised(self):
        key = hom_keygen(6, 6, 1)
        commitment, _ = hom_commit(key.g1, 5, 3)
        assert not hom_verify(key.g1, key.g2, commitment, 0, None)
        assert not hom_verify(key.g1, key.g2, commitment, 0, {"c0": "a0"})

    def test_challenge_validation(self):
        key = hom_keygen(6, 6, 1)
        commitment, beta = hom_commit(key.g1, 5, 3)
        with pytest.raises(AuthError):
            hom_verify(key.g1, key.g2, commitment, 2, beta)

    def test_empty_commitment_rejected(self):
        # the empty map is a homomorphism into any graph, so it proves nothing
        key = hom_keygen(8, 8, 11)
        empty = SimplicialGraph(())
        for c in (0, 1):
            assert hom_verify(key.g1, key.g2, empty, c, {}) is False

    def test_plain_map_gives_the_same_verdict(self):
        key = hom_keygen(8, 8, 11)
        checked = {True: 0, False: 0}
        for strategy in ("honest", "cheat-random"):
            for seed in range(6):
                for r in run_protocol("hom", key, 12, strategy, seed, 40 + seed).rounds:
                    plain = r.response.assignment
                    verdict = hom_verify(key.g1, key.g2, r.commitment, r.challenge, plain)
                    assert verdict == hom_verify(key.g1, key.g2, r.commitment, r.challenge,
                                                 r.response) == r.verdict
                    checked[r.verdict] += 1
                    first = r.commitment.vertices[0]
                    bad_maps = [
                        (r.challenge, {v: plain[v] for v in plain if v != first}),  # missing
                        (r.challenge, {**plain, "stranger": plain[first]}),  # unknown source
                        (r.challenge, {**plain, first: "stranger"}),  # unknown image
                        (1 - r.challenge, plain),  # a map into the other target
                    ]
                    for c, bad in bad_maps:
                        assert hom_verify(key.g1, key.g2, r.commitment, c, bad) is False
        assert checked[True] > 0 and checked[False] > 0


class TestSubKeygen:
    def test_private_key_verifies(self):
        for seed in range(10):
            key = sub_keygen(12, 5, seed)
            assert verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, key.alpha)

    def test_subsets_disjoint_and_sized(self):
        key = sub_keygen(14, 6, 3)
        assert len(key.s1) == len(key.s2) == 6
        assert not (key.s1.members & key.s2.members)

    def test_single_vertex_subgroups(self):
        key = sub_keygen(4, 1, 0)
        assert verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, key.alpha)

    def test_deterministic(self):
        assert sub_keygen(12, 5, 4) == sub_keygen(12, 5, 4)

    def test_size_validation(self):
        with pytest.raises(AuthError):
            sub_keygen(9, 5, 0)  # ambient < 2m
        with pytest.raises(AuthError):
            sub_keygen(4, 0, 0)


class TestSubRound:
    def test_commitment_is_relabeled_induced_copy(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        assert set(beta.keys()) == set(commitment.vertices)
        assert set(beta.values()) == key.s1.members
        for i, u in enumerate(commitment.vertices):
            for v in commitment.vertices[i + 1:]:
                assert commitment.has_edge(u, v) == key.ambient.has_edge(beta[u], beta[v])

    def test_composite_lands_on_s2(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        response = sub_respond(beta, 1, key)
        assert sub_verify(key.ambient, key.s1, key.s2, commitment, 1, response)

    def test_honest_flow_accepts_both_challenges(self):
        key = sub_keygen(12, 5, 1)
        for c in (0, 1):
            commitment, beta = sub_commit(key.ambient, key.s1, 30 + c)
            response = sub_respond(beta, c, key)
            assert sub_verify(key.ambient, key.s1, key.s2, commitment, c, response)

    def test_commit_deterministic(self):
        key = sub_keygen(12, 5, 1)
        assert sub_commit(key.ambient, key.s1, 7) == sub_commit(key.ambient, key.s1, 7)

    def test_image_onto_wrong_subset_rejected(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        # beta maps onto s1; as a challenge-1 response the image set is wrong
        assert not sub_verify(key.ambient, key.s1, key.s2, commitment, 1, beta)

    def test_broken_pairing_rejected(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        verts = commitment.vertices
        swapped = dict(beta)
        swapped[verts[0]], swapped[verts[1]] = swapped[verts[1]], swapped[verts[0]]
        if sub_verify(key.ambient, key.s1, key.s2, commitment, 0, swapped):
            pytest.skip("transposition happened to be an automorphism")
        assert not sub_verify(key.ambient, key.s1, key.s2, commitment, 0, swapped)

    def test_malformed_response_rejected_not_raised(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        assert not sub_verify(key.ambient, key.s1, key.s2, commitment, 0, None)
        missing = dict(beta)
        missing.pop(commitment.vertices[0])
        assert not sub_verify(key.ambient, key.s1, key.s2, commitment, 0, missing)
        collapsed = {v: key.s1.ordered()[0] for v in commitment.vertices}
        assert not sub_verify(key.ambient, key.s1, key.s2, commitment, 0, collapsed)

    def test_challenge_validation(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        with pytest.raises(AuthError, match="challenge must be 0 or 1, got 2"):
            sub_verify(key.ambient, key.s1, key.s2, commitment, 2, beta)

    def test_empty_commitment_rejected(self):
        # the empty map onto an empty subset is a bijection that proves nothing
        key = sub_keygen(12, 5, 1)
        empty = auth.VertexSubset(key.ambient, ())
        for c in (0, 1):
            assert sub_verify(key.ambient, empty, empty, SimplicialGraph(()), c, {}) is False
            assert sub_verify(key.ambient, key.s1, key.s2, SimplicialGraph(()), c, {}) is False

    def test_respond_needs_challenge(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        for c in (None, 2):  # 2 was answered as 1
            with pytest.raises(AuthError, match=f"challenge must be 0 or 1, got {c}"):
                sub_respond(beta, c, key)

    def test_respond_needs_a_session_bijection(self):
        key = sub_keygen(12, 5, 1)
        commitment, beta = sub_commit(key.ambient, key.s1, 2)
        for session in (None, tuple(beta.items())):
            with pytest.raises(AuthError, match="round holds no session bijection"):
                sub_respond(session, 1, key)


class TestProtocol:
    def test_honest_always_accepts(self):
        hkey = hom_keygen(7, 7, 11)
        skey = sub_keygen(12, 5, 11)
        for seed in range(8):
            t = run_protocol("hom", hkey, 6, "honest", seed, 100 + seed)
            assert t.accept and all(r.verdict for r in t.rounds)
            t = run_protocol("sub", skey, 6, "honest", seed, 100 + seed)
            assert t.accept and all(r.verdict for r in t.rounds)

    def test_transcript_shape(self):
        key = hom_keygen(7, 7, 11)
        t = run_protocol("hom", key, 5, "honest", 3, 4)
        assert t.scheme == "hom" and len(t.rounds) == 5
        for r in t.rounds:
            assert r.challenge in (0, 1) and r.verdict is True
            assert r.response is not None

    def test_deterministic(self):
        key = sub_keygen(12, 5, 11)
        a = run_protocol("sub", key, 6, "honest", 5, 6)
        b = run_protocol("sub", key, 6, "honest", 5, 6)
        assert [r.challenge for r in a.rounds] == [r.challenge for r in b.rounds]
        assert [r.response for r in a.rounds] == [r.response for r in b.rounds]

    def test_composition_coherence_on_challenge_one(self):
        hkey = hom_keygen(7, 7, 11)
        t = run_protocol("hom", hkey, 20, "honest", 1, 2)
        for r in t.rounds:
            if r.challenge == 1:
                for v in r.commitment.vertices:
                    expected = hkey.alpha.assignment[r.session.assignment[v]]
                    assert r.response.assignment[v] == expected
        skey = sub_keygen(12, 5, 11)
        t = run_protocol("sub", skey, 20, "honest", 1, 2)
        for r in t.rounds:
            if r.challenge == 1:
                for v in r.commitment.vertices:
                    assert r.response[v] == skey.alpha[r.session[v]]

    def test_cheater_wins_exactly_the_guessed_challenge(self):
        hkey = hom_keygen(8, 8, 11)
        skey = sub_keygen(16, 7, 11)
        for scheme, key in (("hom", hkey), ("sub", skey)):
            for guess in (0, 1):
                t = run_protocol(scheme, key, 40, f"cheat-guess-{guess}", 5, 6)
                wins = sum(1 for r in t.rounds if r.verdict)
                matches = sum(1 for r in t.rounds if r.challenge == guess)
                assert wins == matches

    def test_cheat_rate_near_half(self):
        key = hom_keygen(8, 8, 11)
        rate = acceptance_rate("hom", key, "cheat-random", 1, 600, seed=13)
        assert 0.5 - 0.07 <= rate <= 0.5 + 0.07

    def test_cheaters_never_touch_the_private_key(self, monkeypatch):
        def refuse(session, challenge, key):
            raise AssertionError("a cheater used the private key")

        monkeypatch.setattr(auth, "hom_respond", refuse)
        monkeypatch.setattr(auth, "sub_respond", refuse)
        for scheme, key in (("hom", hom_keygen(8, 8, 11)), ("sub", sub_keygen(16, 7, 11))):
            for strategy in ("cheat-guess-0", "cheat-guess-1", "cheat-random"):
                for seed in range(4):
                    t = run_protocol(scheme, key, 20, strategy, seed, 50 + seed)
                    assert len(t.rounds) == 20
            with pytest.raises(AssertionError, match="private key"):
                run_protocol(scheme, key, 1, "honest", 1, 2)

    def test_stop_on_reject_shortens_run(self):
        key = hom_keygen(8, 8, 11)
        t = run_protocol("hom", key, 50, "cheat-random", 1, 2, stop_on_reject=True)
        assert not t.accept
        assert len(t.rounds) < 50
        assert all(r.verdict for r in t.rounds[:-1]) and not t.rounds[-1].verdict

    def test_parameter_validation(self):
        key = hom_keygen(7, 7, 11)
        with pytest.raises(AuthError):
            run_protocol("hom", key, 0, "honest", 1, 2)
        with pytest.raises(AuthError):
            run_protocol("hom", key, 1, "replay", 1, 2)
        with pytest.raises(AuthError):
            run_protocol("sub", key, 1, "honest", 1, 2)
        with pytest.raises(AuthError):
            run_protocol("nope", key, 1, "honest", 1, 2)
        with pytest.raises(AuthError, match="hom' only"):
            run_protocol("sub", sub_keygen(12, 5, 11), 1, "honest", 1, 2, commit_size=5)

    def test_unknown_strategy_message_names_the_table_in_order(self):
        with pytest.raises(AuthError) as e:
            run_protocol("hom", hom_keygen(7, 7, 11), 1, "replay", 1, 2)
        assert str(e.value) == ("unknown strategy 'replay'; pick one of "
                                "('honest', 'cheat-guess-0', 'cheat-guess-1', 'cheat-random')")

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_refused_on_both_schemes(self, rounds):
        for scheme, key in (("hom", hom_keygen(7, 7, 11)), ("sub", sub_keygen(12, 5, 11))):
            with pytest.raises(AuthError, match="^need at least one round$"):
                run_protocol(scheme, key, rounds, "honest", 1, 2)

    def test_commit_size_at_least_one(self):
        with pytest.raises(AuthError, match="commitment size must be at least 1"):
            run_protocol("hom", hom_keygen(7, 7, 11), 1, "honest", 1, 2, commit_size=0)

    def test_verdicts_rechecked_independently_of_driver(self):
        # recompute every verdict from the recorded messages alone
        hkey = hom_keygen(8, 8, 12)
        for strategy in ("honest", "cheat-random"):
            t = run_protocol("hom", hkey, 30, strategy, 3, 4)
            for r in t.rounds:
                target = hkey.g1 if r.challenge == 0 else hkey.g2
                ok = (isinstance(r.response, VertexMap)
                      and r.response.source == r.commitment
                      and r.response.target == target
                      and verify_graph_homomorphism(r.response))
                assert ok == r.verdict
        skey = sub_keygen(16, 7, 12)
        for strategy in ("honest", "cheat-random"):
            t = run_protocol("sub", skey, 30, strategy, 3, 4)
            for r in t.rounds:
                expected = skey.s1 if r.challenge == 0 else skey.s2
                verts = r.commitment.vertices
                images = [r.response[v] for v in verts]
                ok = (len(set(images)) == len(images)
                      and set(images) == expected.members)
                if ok:
                    for i, u in enumerate(verts):
                        for v in verts[i + 1:]:
                            if r.commitment.has_edge(u, v) != \
                                    skey.ambient.has_edge(r.response[u], r.response[v]):
                                ok = False
                assert ok == r.verdict


class TestProtocolGolden:
    # a digest over every byte of keys, commitments, session maps, responses
    # and transcripts: a change that only speeds the rounds up leaves it as is
    DIGEST = "85210a09d7dc6e973cb6dc71a278575d4fce1c36bbe686c48b4bdfce6f7e43df"

    def test_protocol_output_is_pinned(self):
        h = hashlib.sha256()

        def add(text):
            h.update(text.encode())
            h.update(b"\0")

        hkey, skey = hom_keygen(8, 8, 11), sub_keygen(16, 7, 11)
        for key in (hkey, skey):
            add(format_public_key(key))
            add(format_private_key(key))
        runs = [("hom", hkey, size) for size in (None, 10)] + [("sub", skey, None)]
        for scheme, key, size in runs:
            for strategy in STRATEGIES:
                for seed in range(4):
                    t = run_protocol(scheme, key, 12, strategy, seed, 100 + seed,
                                     commit_size=size)
                    add(format_transcript(t))
                    for r in t.rounds:
                        add(format_graph(r.commitment))
                        for m in (r.session, r.response):
                            add(format_map_lines(getattr(m, "assignment", m),
                                                 r.commitment.vertices))
        assert h.hexdigest() == self.DIGEST


class TestKeyInvariants:
    def test_hom_key_rejects_non_homomorphism(self):
        key = hom_keygen(6, 6, 1)
        edges = key.g1.edge_list()
        assert edges, "test needs an edge in g1"
        u, v = edges[0]
        bad = dict(key.alpha.assignment)
        bad[u] = bad[v]  # collapses an edge, so no longer strict
        with pytest.raises(AuthError):
            HomKeyPair(g1=key.g1, g2=key.g2,
                       alpha=VertexMap(key.g1, key.g2, bad))

    def test_hom_key_rejects_triangle_free_target(self):
        g1 = SimplicialGraph(("a",))
        g2 = SimplicialGraph(("x", "y", "z"), [("x", "y")])
        with pytest.raises(AuthError):
            HomKeyPair(g1=g1, g2=g2, alpha=VertexMap(g1, g2, {"a": "x"}))

    def test_sub_key_rejects_broken_bijection(self):
        key = sub_keygen(12, 4, 1)
        ordered = key.s1.ordered()
        bad = dict(key.alpha)
        bad[ordered[0]], bad[ordered[1]] = bad[ordered[1]], bad[ordered[0]]
        try:
            SubKeyPair(ambient=key.ambient, s1=key.s1, s2=key.s2, alpha=bad)
        except AuthError:
            return
        # the transposition can happen to be an automorphism of the pattern;
        # a size mismatch can never pass
        with pytest.raises(AuthError):
            SubKeyPair(ambient=key.ambient, s1=key.s1,
                       s2=auth.VertexSubset(key.ambient, list(key.s2.ordered())[:-1]),
                       alpha=bad)

    def test_sub_key_rejects_empty_subsets(self):
        key = sub_keygen(12, 4, 1)
        empty = auth.VertexSubset(key.ambient, ())
        with pytest.raises(AuthError, match="subgroup generating sets must not be empty"):
            SubKeyPair(ambient=key.ambient, s1=empty, s2=empty, alpha={})


class TestBipartiteCheater:
    """ROADMAP item 11's open hole, pinned: a complete bipartite commitment maps
    into any graph with an edge, one side to each end. A fix flips this test."""

    def test_complete_bipartite_commitment_answers_both_challenges(self):
        left, right = [f"c{i}" for i in range(5)], [f"c{i}" for i in range(5, 10)]
        commitment = SimplicialGraph(left + right, [(u, v) for u in left for v in right])
        accepted = 0
        for seed in range(1, 11):
            key = hom_keygen(8, 8, seed)  # only the public graphs are read
            for c, target in enumerate((key.g1, key.g2)):
                a, b = target.edge_list()[0]
                response = {**dict.fromkeys(left, a), **dict.fromkeys(right, b)}
                accepted += hom_verify(key.g1, key.g2, commitment, c, response)
        assert accepted == 20

    def test_bipartite_commitment_as_an_attack_record(self):
        # one trial per key and challenge: K(5,5) answered with one edge of the target
        left, right = [f"c{i}" for i in range(5)], [f"c{i}" for i in range(5, 10)]
        commitment = SimplicialGraph(left + right, [(u, v) for u in left for v in right])
        hits = []
        for seed in range(1, 11):
            key = hom_keygen(8, 8, seed)
            for c, target in enumerate((key.g1, key.g2)):
                a, b = target.edge_list()[0]
                response = {**dict.fromkeys(left, a), **dict.fromkeys(right, b)}
                hits.append(hom_verify(key.g1, key.g2, commitment, c, response))
        record = AttackRecord("bipartite-commitment", (("n1", 8), ("n2", 8), ("commit_size", 10)),
                              len(hits), sum(hits))
        assert record._values() == ("bipartite-commitment",
                                    (("n1", 8), ("n2", 8), ("commit_size", 10)), 20, 20)
        assert [round(b, 6) for b in wilson95(record.successes, record.trials)] == [0.838875, 1.0]


class TestKeyRecovery:
    """The searches recover every small planted key, and the result verifies."""

    def test_planted_keys_are_recovered(self):
        rng = random.Random(41)
        for _ in range(150):
            key = hom_keygen(rng.randint(1, 7), rng.randint(3, 7), rng.getrandbits(32))
            f = find_graph_homomorphism(key.g1, key.g2, budget=10**6)
            assert f is not None and verify_graph_homomorphism(f)
            m = rng.randint(1, 5)
            key = sub_keygen(rng.randint(2 * m, 2 * m + 6), m, rng.getrandbits(32))
            f = find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, budget=10**6)
            assert f is not None
            assert verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, f)

    def test_search_effort_on_planted_keys(self):
        # the budget is the probe: most-constrained-first forward checking
        # recovers these keys within it, declaration order does not
        cases = [(32, 12, s, 24) for s in range(1, 21)] + [(64, 24, s, 48) for s in range(1, 6)]
        for n, m, seed, budget in cases:
            key = sub_keygen(n, m, seed)
            f = find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, budget=budget)
            assert f is not None
            assert verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, f)
            assert find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2,
                                                     budget=budget) == f
        for seed in range(1, 11):
            key = hom_keygen(16, 16, seed)
            f = find_graph_homomorphism(key.g1, key.g2, budget=20_000)
            assert f is not None and verify_graph_homomorphism(f)
            assert find_graph_homomorphism(key.g1, key.g2, budget=20_000) == f

    # the nodes each search above uses, in case order: the least budget that
    # finds each key, so the search at exactly that budget succeeds
    SUB_NODES = [12, 12, 15, 12, 12, 13, 12, 12, 12, 12, 12, 14, 12, 12, 12, 12, 12, 12, 12, 12,
                 24, 24, 24, 24, 24]
    HOM_NODES = [24, 18, 2790, 30, 39, 62, 20, 21, 16, 1345]

    def test_search_nodes_on_planted_keys(self, monkeypatch):
        used = []
        search = graphs._forward_check

        def counted(*args):
            found, nodes = search(*args)
            used.append(nodes)
            return found, nodes

        monkeypatch.setattr(graphs, "_forward_check", counted)
        cases = [(32, 12, s) for s in range(1, 21)] + [(64, 24, s) for s in range(1, 6)]
        for (n, m, seed), nodes in zip(cases, self.SUB_NODES):
            key = sub_keygen(n, m, seed)
            assert find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2,
                                                     budget=nodes) is not None
            with pytest.raises(SearchBudgetExceeded):
                find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, budget=nodes - 1)
        for seed, nodes in zip(range(1, 11), self.HOM_NODES):
            key = hom_keygen(16, 16, seed)
            assert find_graph_homomorphism(key.g1, key.g2, budget=nodes) is not None
            with pytest.raises(SearchBudgetExceeded):
                find_graph_homomorphism(key.g1, key.g2, budget=nodes - 1)
        assert used == self.SUB_NODES + self.HOM_NODES


class TestKeyFiles:
    def test_hom_round_trip(self):
        key = hom_keygen(6, 7, 21)
        public = parse_public_key(format_public_key(key))
        assert public == ("hom", key.g1, key.g2)
        alpha = parse_private_key(format_private_key(key), public)
        assert alpha.assignment == key.alpha.assignment

    def test_sub_round_trip(self):
        key = sub_keygen(12, 5, 21)
        public = parse_public_key(format_public_key(key))
        assert public[0] == "sub" and public[1] == key.ambient
        assert public[2].members == key.s1.members
        assert public[3].members == key.s2.members
        alpha = parse_private_key(format_private_key(key), public)
        assert alpha == key.alpha

    def test_key_pair_rebuilt_from_its_files(self):
        # a key pair's fields are the public key after the scheme name, then alpha
        for key in (hom_keygen(6, 7, 21), sub_keygen(12, 5, 21)):
            public = parse_public_key(format_public_key(key))
            alpha = parse_private_key(format_private_key(key), public)
            assert key.scheme == public[0]
            assert auth.KEY_PAIRS[public[0]](*public[1:], alpha) == key

    def test_public_key_errors(self):
        with pytest.raises(AuthError):
            parse_public_key("scheme what\n")
        with pytest.raises(AuthError):
            parse_public_key("scheme hom\ngraph g1\nvertices a\n")  # missing g2
        with pytest.raises(AuthError):
            parse_public_key("scheme sub\ngraph ambient\nvertices a b\n")  # no subsets
        with pytest.raises(AuthError):
            parse_public_key("scheme hom\nvertices a\n")  # content outside sections

    @pytest.mark.parametrize("members, message", [
        ("", "bad subset line 'subset s1'"),
        (" v1 v1", "repeated member in subset line 'subset s1 v1 v1'"),
    ])
    def test_public_key_rejects_empty_or_repeating_subsets(self, members, message):
        key = sub_keygen(12, 5, 21)
        lines = format_public_key(key).splitlines(keepends=True)
        lines = [f"subset s1{members}\n" if line.startswith("subset s1 ") else line
                 for line in lines]
        with pytest.raises(AuthError, match=message):
            parse_public_key("".join(lines))

    def test_private_key_errors(self):
        key = sub_keygen(12, 5, 21)
        public = parse_public_key(format_public_key(key))
        with pytest.raises(AuthError):
            parse_private_key("map v0\n", public)
        text = format_private_key(key).splitlines()
        with pytest.raises(AuthError):
            parse_private_key("\n".join(text[:-1]), public)  # not onto s2
        with pytest.raises(AuthError, match="expected 'map <source> <target>'"):
            parse_private_key("\n".join([text[0] + " extra", *text[1:]]), public)

    def test_private_key_rejects_repeated_sub_line(self):
        key = sub_keygen(12, 5, 21)
        public = parse_public_key(format_public_key(key))
        text = format_private_key(key)
        with pytest.raises(AuthError, match="repeated source vertex"):
            parse_private_key(text + text.splitlines()[0] + "\n", public)

    def test_transcript_round_trip(self):
        key = hom_keygen(6, 6, 2)
        t = run_protocol("hom", key, 4, "honest", 1, 2)
        rounds, accept = parse_transcript(format_transcript(t))
        assert accept is True
        assert [c for _, c, _ in rounds] == [r.challenge for r in t.rounds]
        assert all(v for _, _, v in rounds)

    def test_transcript_requires_rounds_in_order(self):
        line = "round {} challenge 0 verdict accept\n"
        for numbers in ((1, 1, 1, 1), (2,), (1, 3), (2, 1), (0, 1)):
            text = "".join(line.format(i) for i in numbers) + "accept true\n"
            with pytest.raises(AuthError, match="expected round"):
                parse_transcript(text)
        rounds, _ = parse_transcript("".join(line.format(i) for i in (1, 2, 3)) + "accept true\n")
        assert [i for i, _, _ in rounds] == [1, 2, 3]
        with pytest.raises(AuthError, match="no rounds"):
            parse_transcript("accept true\n")

    def test_transcript_challenge_is_a_bit(self):
        for challenge in ("x", "7", "-1", "01"):
            with pytest.raises(AuthError, match="bad round line"):
                parse_transcript(f"round 1 challenge {challenge} verdict accept\naccept true\n")
        rounds, _ = parse_transcript("round 1 challenge 1 verdict reject\naccept false\n")
        assert rounds == [(1, 1, False)]

    def test_transcript_ends_at_its_one_accept_line(self):
        # a second accept line used to override the first
        line = "round 1 challenge 0 verdict accept\n"
        for tail in ("accept false\naccept true\n", "accept true\naccept true\n",
                     "accept true\nround 2 challenge 0 verdict accept\n"):
            with pytest.raises(AuthError):
                parse_transcript(line + tail)

    def test_transcript_errors(self):
        with pytest.raises(AuthError):
            parse_transcript("round 1 challenge 0 verdict accept\n")  # no accept line
        with pytest.raises(AuthError):
            parse_transcript("accept maybe\n")
        with pytest.raises(AuthError):
            parse_transcript("round 1 verdict accept\naccept true\n")


def _key_file_sections(text):
    """A key file cut before each 'scheme', 'graph' or 'subset' line."""
    sections = []
    for line in text.splitlines(keepends=True):
        if line.split()[0] in ("scheme", "graph", "subset"):
            sections.append("")
        sections[-1] += line
    return sections


def _reordered(text, order):
    sections = _key_file_sections(text)
    return "".join(sections[i] for i in order)


HOM_PUBLIC = format_public_key(hom_keygen(4, 5, 3))
SUB_PUBLIC = format_public_key(sub_keygen(8, 3, 3))


class TestKeyFileLayout:
    # every byte of both key files of hom keys n1 1-9 by n2 3-9 and sub keys m 1-6,
    # three seeds each: a change to how key files are laid out leaves it as is
    DIGEST = "c22f7ca0a4af6e9958608798c0b269d945fcb0630b6de27955fc66fbe2a6a3ed"

    @staticmethod
    def keys():
        for seed in range(3):
            for n1 in (1, 2, 5, 9):
                for n2 in (3, 4, 7, 9):
                    yield hom_keygen(n1, n2, seed)
            for n, m in ((2, 1), (5, 2), (8, 4), (13, 6), (20, 3)):
                yield sub_keygen(n, m, seed)

    def test_key_files_are_pinned(self):
        h = hashlib.sha256()
        for key in self.keys():
            for text in (format_public_key(key), format_private_key(key)):
                h.update(text.encode())
                h.update(b"\0")
        assert h.hexdigest() == self.DIGEST

    def test_each_key_pair_is_rebuilt_from_its_files(self):
        for key in self.keys():
            public = parse_public_key(format_public_key(key))
            alpha = parse_private_key(format_private_key(key), public)
            assert auth.KEY_PAIRS[public[0]](*public[1:], alpha) == key

    @pytest.mark.parametrize("text, original", [
        (_reordered(HOM_PUBLIC, (0, 2, 1)), HOM_PUBLIC),  # g2 before g1
        (_reordered(SUB_PUBLIC, (0, 2, 3, 1)), SUB_PUBLIC),  # subsets before the ambient graph
        (_reordered(SUB_PUBLIC, (0, 3, 1, 2)), SUB_PUBLIC),  # s2 first
    ], ids=("g2-first", "subsets-first", "s2-first"))
    def test_sections_in_any_order(self, text, original):
        assert text != original
        assert parse_public_key(text) == parse_public_key(original)

    @pytest.mark.parametrize("text", [
        HOM_PUBLIC + "subset s1 a0\n",  # a subset line in a hom key
        _reordered(SUB_PUBLIC, (0, 1, 3)) + "graph s1\nvertices v0\n",  # s1 as a graph
        _reordered(HOM_PUBLIC, (0, 1, 2, 1)),  # g1 twice
        _reordered(SUB_PUBLIC, (0, 1, 2, 3, 2)),  # s1 twice
        _reordered(HOM_PUBLIC, (0, 1)),  # no g2
        _reordered(HOM_PUBLIC, (0, 2)),  # no g1
        _reordered(SUB_PUBLIC, (0, 1, 2)),  # no s2
        _reordered(SUB_PUBLIC, (0, 2, 3)),  # no ambient graph
    ], ids=("hom-subset", "sub-graph-s1", "hom-g1-twice", "sub-s1-twice", "hom-no-g2",
            "hom-no-g1", "sub-no-s2", "sub-no-ambient"))
    def test_refused_layouts(self, text):
        with pytest.raises(AuthError):
            parse_public_key(text)

    @pytest.mark.parametrize("original", [HOM_PUBLIC, SUB_PUBLIC], ids=("hom", "sub"))
    def test_comments_and_blank_lines_before_the_scheme_line(self, original):
        # every other reader skips them; this one read line 1 as the scheme line
        assert parse_public_key("# alice\n\n" + original) == parse_public_key(original)
        with pytest.raises(AuthError, match="expected 'scheme hom' or 'scheme sub' on the "
                                            "first line"):
            parse_public_key("# alice\n\ngraph g1\n" + original)


class TestPrivateKeyChecks:
    # a private key is checked as its key pair checks it when it is read, not later
    def test_hom_map_that_is_no_homomorphism(self):
        key = hom_keygen(6, 6, 1)
        u, v = key.g1.edge_list()[0]
        assignment = dict(key.alpha.assignment, **{v: key.alpha(u)})  # an edge to one vertex
        public = parse_public_key(format_public_key(key))
        with pytest.raises(AuthError, match="private map is not a graph homomorphism"):
            parse_private_key(format_map_lines(assignment, key.g1.vertices), public)

    def test_sub_bijection_that_breaks_the_induced_structure(self):
        for seed in range(50):  # a transposition of s2 that moves an edge
            key = sub_keygen(12, 4, seed)
            s1, (x, y, *rest) = key.s1.ordered(), key.s2.ordered()
            inverse = {b: a for a, b in key.alpha.items()}
            swapped = dict(key.alpha, **{inverse[x]: y, inverse[y]: x})
            if not verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, swapped):
                break
        public = parse_public_key(format_public_key(key))
        with pytest.raises(AuthError, match="does not preserve the induced structure"):
            parse_private_key(format_map_lines(swapped, s1), public)


class BoundHomKeyPair(HomKeyPair):
    """A second ``hom`` commitment rule under its own scheme name: the pinned rules, except that
    a verifier also requires a commitment of exactly |V(g1)| + 2 vertices."""

    scheme = "hom-bound"

    @staticmethod
    def steps(g1, g2, commit_size=None):
        commit, respond, junk, verify = HomKeyPair.steps(g1, g2, commit_size)
        size = len(g1.vertices) + 2
        return commit, respond, junk, lambda G, c, response: (
            len(G.vertices) == size and verify(G, c, response))


class WideHomKeyPair(HomKeyPair):
    """The pinned ``hom`` key pair under another scheme name, with larger default sizes."""

    scheme, sizes = "hom-wide", {"g1_size": 12, "g2_size": 12}


class TestSchemeRoute:
    """A construction lands as a key-pair class under its own scheme name: the scheme line of
    the public key names it, and the driver, the key files and ``auth prove``/``auth verify``
    reach its round rules through ``KEY_PAIRS`` alone, beside the pinned ``hom`` rules."""

    @pytest.fixture(autouse=True)
    def registered(self, monkeypatch):
        monkeypatch.setitem(auth.KEY_PAIRS, BoundHomKeyPair.scheme, BoundHomKeyPair)

    @staticmethod
    def key():
        key = hom_keygen(7, 7, 11)
        return BoundHomKeyPair(key.g1, key.g2, key.alpha)

    def test_the_driver_runs_the_named_class_rules(self):
        key = self.key()
        assert run_protocol("hom-bound", key, 6, "honest", 1, 2).accept
        bigger = run_protocol("hom-bound", key, 6, "honest", 1, 2, commit_size=11)
        assert not any(r.verdict for r in bigger.rounds) and not bigger.accept
        # the scheme name, not the key's class, picks the rules: "hom" takes any commit size
        assert run_protocol("hom", key, 6, "honest", 1, 2, commit_size=11).accept

    def test_key_files_carry_the_scheme_name(self):
        key = self.key()
        public = parse_public_key(format_public_key(key))
        assert public == ("hom-bound", key.g1, key.g2)
        assert auth._parse_key_pair(format_private_key(key), public) == key

    def test_prove_and_verify_through_the_cli(self, capsys, tmp_path):
        key = self.key()
        public, private = tmp_path / "public_key.txt", tmp_path / "private_key.txt"
        public.write_text(format_public_key(key))
        private.write_text(format_private_key(key))
        run_dir = tmp_path / "run"
        assert main(["auth", "prove", "--public", str(public), "--private", str(private),
                     "--rounds", "6", "--seed", "5", "--challenge-seed", "6",
                     "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        verify = ["auth", "verify", "--public", str(public), "--dir", str(run_dir), "--rounds", "6"]
        assert main(verify) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "accept true"
        # round 1 answered over a larger commitment: an honest "hom" round with the same
        # challenge (the same verifier seed), which only the bound rule rejects
        state = run_protocol("hom", key, 6, "honest", 5, 6, commit_size=11).rounds[0]
        commitment_path, response_path = (run_dir / name.format(1) for name in ROUND_FILES)
        commitment_path.write_text(format_graph(state.commitment))
        response_path.write_text(format_map_lines(state.response.assignment,
                                                  state.commitment.vertices))
        assert main(verify) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"round 1 challenge {state.challenge} verdict reject\n")
        assert out.count("verdict accept") == 5
        public.write_text(format_public_key(hom_keygen(7, 7, 11)))  # the same key, scheme hom
        assert main(verify) == 0

    def test_keygen_and_simulate_plant_the_named_class(self, capsys, tmp_path):
        assert main(["auth", "keygen", "--scheme", "hom-bound", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        public = (tmp_path / "public_key.txt").read_text()
        assert public.splitlines()[0] == "scheme hom-bound"
        key = auth._parse_key_pair((tmp_path / "private_key.txt").read_text(),
                                   parse_public_key(public))
        assert type(key) is BoundHomKeyPair
        assert key._values() == hom_keygen(8, 8, 1)._values()
        capsys.readouterr()
        lines = []
        for scheme in ("hom-bound", "hom"):
            assert main(["auth", "simulate", "--scheme", scheme, "--strategy", "honest",
                         "--rounds", "3", "--trials", "5", "--seed", "1"]) == 0
            lines.append(capsys.readouterr().out)
        assert " accepted 5 " in lines[0] and lines[0] == lines[1]

    def test_keygen_plants_the_class_it_is_called_on(self):
        key = BoundHomKeyPair.keygen(7, 7, 11)
        assert type(key) is BoundHomKeyPair
        assert key._values() == hom_keygen(7, 7, 11)._values()

    @pytest.mark.parametrize("scheme", ["hom", "sub", "hom-bound"])
    def test_keygen_and_simulate_build_each_key_once(self, scheme, monkeypatch, capsys, tmp_path):
        built = []
        for cls in (HomKeyPair, SubKeyPair):
            def counted(key, *args, init=cls.__init__, **kwargs):
                built.append(type(key))
                init(key, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        assert main(["auth", "keygen", "--scheme", scheme, "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["auth", "simulate", "--scheme", scheme, "--strategy", "honest",
                     "--rounds", "1", "--trials", "1", "--seed", "1"]) == 0
        assert built == [auth.KEY_PAIRS[scheme]] * 2

    @pytest.mark.parametrize("flag, argv", [
        ("--g1-size", ["keygen", "--scheme", "sub", "--g1-size", "3", "--seed", "1",
                       "--out-dir", "key"]),
        ("--subgroup-size", ["keygen", "--scheme", "hom-bound", "--g2-size", "9",
                             "--subgroup-size", "3", "--seed", "1", "--out-dir", "key"]),
        ("--ambient-size", ["simulate", "--scheme", "hom", "--ambient-size", "3",
                            "--strategy", "honest", "--rounds", "1", "--trials", "1",
                            "--seed", "1"]),
        # hom's default value, so a given flag is never told from a defaulted one by its value
        ("--g1-size", ["keygen", "--scheme", "sub", "--g1-size", "8", "--seed", "1",
                       "--out-dir", "key"]),
        # several foreign flags: the first in flag order is named, not the first typed
        ("--ambient-size", ["keygen", "--scheme", "hom", "--subgroup-size", "3",
                            "--ambient-size", "5", "--seed", "1", "--out-dir", "key"]),
    ])
    def test_a_size_flag_of_another_scheme_exits_2(self, flag, argv, capsys, monkeypatch,
                                                   tmp_path):
        monkeypatch.chdir(tmp_path)
        scheme = argv[argv.index("--scheme") + 1]
        assert main(["auth", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} is not a size of scheme '{scheme}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message, argv", [
        ("the source graph needs at least 1 vertex",
         ["keygen", "--scheme", "hom", "--g1-size", "0", "--seed", "1", "--out-dir", "key"]),
        ("subgroup size must be at least 1",
         ["simulate", "--scheme", "sub", "--subgroup-size", "0", "--strategy", "honest",
          "--rounds", "1", "--trials", "1", "--seed", "1"]),
    ])
    def test_a_size_of_0_reaches_the_class_refusal(self, message, argv, capsys, monkeypatch,
                                                  tmp_path):
        # a flagged 0 is a given size, not an unflagged one: the class refuses it
        monkeypatch.chdir(tmp_path)
        assert main(["auth", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_each_scheme_fills_unflagged_sizes_from_its_own_class(self, monkeypatch, tmp_path):
        monkeypatch.setitem(auth.KEY_PAIRS, WideHomKeyPair.scheme, WideHomKeyPair)
        for i, (scheme, flags, sizes) in enumerate([
                ("hom", [], (8, 8)), ("hom-bound", [], (8, 8)), ("sub", [], (16, 7)),
                ("hom-wide", [], (12, 12)), ("hom-wide", ["--g1-size", "5"], (5, 12)),
                ("hom", ["--g2-size", "9"], (8, 9))]):
            out = tmp_path / str(i)
            assert main(["auth", "keygen", "--scheme", scheme, *flags, "--seed", "1",
                         "--out-dir", str(out)]) == 0
            public = parse_public_key((out / "public_key.txt").read_text())
            key = auth._parse_key_pair((out / "private_key.txt").read_text(), public)
            assert key == auth.KEY_PAIRS[scheme].keygen(*sizes, 1)

    @staticmethod
    def options(command):
        """(last option string, default) of each option of ``auth <command>``, help first."""
        def choices(parser):
            return next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)).choices

        parser = choices(choices(build_parser())["auth"])[command]
        return [(action.option_strings[-1], action.default) for action in parser._actions]

    def test_size_flags_come_from_the_classes(self, monkeypatch):
        sizes = [("--g1-size", None), ("--g2-size", None), ("--ambient-size", None),
                 ("--subgroup-size", None)]
        keygen = [("--scheme", None), ("--seed", None), ("--out-dir", None), *sizes]
        simulate = [("--scheme", None), ("--strategy", None), ("--rounds", None),
                    ("--trials", None), ("--seed", None), *sizes]
        assert [self.options("keygen")[1:], self.options("simulate")[1:]] == [keygen, simulate]
        # hom-bound inherits hom's sizes, so registering it adds no flag and no argparse conflict
        monkeypatch.delitem(auth.KEY_PAIRS, "hom-bound")
        assert [self.options("keygen")[1:], self.options("simulate")[1:]] == [keygen, simulate]
