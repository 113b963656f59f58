"""Attacks on the paper's claims, each pinned by its exact counts at fixed seeds.

Each attack is a plain function over the package's public API and the graphs' masks. Each
class names the claim that its attack refutes; a fix flips its test.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from raagcrypt.analyze import AttackRecord, wilson95
from raagcrypt.auth import (
    KEY_PAIRS,
    HomKeyPair,
    acceptance_rate,
    format_private_key,
    format_public_key,
    hom_commit,
    hom_keygen,
    hom_verify,
    run_protocol,
)
from raagcrypt.cli import main
from raagcrypt.graphs import (
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    find_graph_homomorphism,
    find_induced_subgraph_isomorphism,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)
from raagcrypt.raag import Raag
from raagcrypt.sharing import (
    deal_nn,
    deal_tn,
    decode_column,
    decode_share_nn,
    format_share,
    lagrange_reconstruct,
    random_dealer_setup_nn,
    random_participant_graphs,
)


def max_clique(masks) -> list[int]:
    """A maximum clique, as vertex indices, by branch and bound (Carraghan and Pardalos,
    Oper. Res. Lett. 9 (1990)): a branch stops once its clique plus every candidate left,
    a popcount, cannot beat the largest clique found."""
    best: list[int] = []

    def grow(clique: list[int], candidates: int) -> None:
        nonlocal best
        if not candidates and len(clique) > len(best):
            best = clique
        while candidates and len(clique) + candidates.bit_count() > len(best):
            v = candidates.bit_length() - 1
            candidates ^= 1 << v
            grow(clique + [v], candidates & masks[v])

    grow([], (1 << len(masks)) - 1)
    return best


def colouring(masks, k: int, budget: int) -> list[int] | None:
    """A proper colouring with colours 0..k-1, or None when none exists, by DSATUR backtracking
    (Brelaz, Commun. ACM 22 (1979)): colour next the vertex whose neighbours hold the most
    colours, ties to the larger degree, and open at most one new colour per step. One node is
    one colour tried; more than ``budget`` raises SearchBudgetExceeded."""
    classes, colours, nodes = [], [-1] * len(masks), 0

    def step(left: set[int]) -> bool:
        nonlocal nodes
        if not left:
            return True
        v = max(left, key=lambda u: (sum(masks[u] & c != 0 for c in classes), masks[u].bit_count()))
        for c in range(min(len(classes) + 1, k)):
            if c < len(classes) and masks[v] & classes[c]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"colouring exceeded {budget} nodes")
            if c == len(classes):
                classes.append(0)
            classes[c] |= 1 << v
            colours[v] = c
            if step(left - {v}):
                return True
            classes[c] ^= 1 << v
            if not classes[c]:
                classes.pop()
        return False

    return colours if step(set(range(len(masks)))) else None


def substitute_key(key, budget: int = 200_000) -> tuple[int, dict[str, str] | None]:
    """omega(g2), and a homomorphism g1 -> g2 read off public data alone: a colouring of g1
    with omega(g2) colours, each colour class sent to one vertex of a maximum clique of g2.
    None when g1 needs more colours than that."""
    clique = max_clique(key.g2.adjacency_masks())
    colours = colouring(key.g1.adjacency_masks(), len(clique), budget)
    if colours is None:
        return len(clique), None
    return len(clique), {v: key.g2.vertices[clique[c]] for v, c in zip(key.g1.vertices, colours)}


def estimate_graph(generators, words, edge_count: int) -> SimplicialGraph:
    """A guess at a share's relator graph from its words alone: count each unordered pair of
    distinct generators on adjacent letters, and keep the ``edge_count`` most frequent pairs
    as the edges, ties broken by the generators' order."""
    order = {v: i for i, v in enumerate(generators)}
    counts = Counter()
    for w in words:
        for (a, _), (b, _) in zip(w, w[1:]):
            if a != b:
                counts[min(a, b, key=order.get), max(a, b, key=order.get)] += 1
    ranked = sorted(counts, key=lambda pair: (-counts[pair], order[pair[0]], order[pair[1]]))
    return SimplicialGraph(generators, ranked[:edge_count])


def extract_key(key, max_sessions: int = 10) -> tuple[int, dict[str, str] | None]:
    """The number of honest sessions read, and the map g1 -> g2 found: push each challenge-1
    commitment's edges forward along its response (alpha after beta) until the images hold
    |E(g1)| edges on |V(g1)| vertices, then run one induced search from g1 onto that image in
    their disjoint union (g1's labels are ``a*``, g2's ``b*``). The map is None when
    ``max_sessions`` sessions never fill the images up."""
    g1, g2 = key.g1, key.g2
    edges, seen = set(), set()
    for r in range(1, max_sessions + 1):
        for state in run_protocol("hom", key, 10, "honest", 7000 + r, 9000 + r).rounds:
            if state.challenge == 1:
                image = state.response.assignment
                seen.update(image.values())
                edges.update(frozenset((image[u], image[v]))
                             for u, v in state.commitment.edge_list())
        if len(edges) == len(g1.edge_list()) and len(seen) == len(g1.vertices):
            targets = sorted(seen, key=g2.index_of)
            union = SimplicialGraph(g1.vertices + tuple(targets),
                                    g1.edge_list() + [tuple(e) for e in edges])
            return r, find_induced_subgraph_isomorphism(union, g1.vertices, targets)
    return max_sessions, None


class TestSubstituteKey:
    """ROADMAP item 14, pinned: the paper rests ``hom`` on Graph Homomorphism being
    NP-complete, but a challenge-1 answer is checked only as a homomorphism into g2, so any
    homomorphism g1 -> g2 stands in for alpha, and a clique of g2 with a colouring of g1 gives
    one. A fix flips this test."""

    def test_substitute_keys_answer_challenge_one(self):
        cliques, accepted = [], 0
        for seed in range(1, 6):
            key = hom_keygen(32, 48, seed)
            omega, phi = substitute_key(key)
            cliques.append(omega)
            substitute = VertexMap(key.g1, key.g2, phi)
            assert verify_graph_homomorphism(substitute)
            for r in range(20):
                commitment, beta = hom_commit(key.g1, len(key.g1.vertices) + 2, 1000 * seed + r)
                accepted += hom_verify(key.g1, key.g2, commitment, 1, beta.compose(substitute))
        assert (cliques, accepted) == ([7, 8, 8, 8, 8], 100)

    def test_small_keys_miss_only_where_no_colouring_exists(self):
        found = {}
        for seed in range(1, 6):
            key = hom_keygen(16, 16, seed)
            omega, phi = substitute_key(key)
            if phi is not None:
                assert verify_graph_homomorphism(VertexMap(key.g1, key.g2, phi))
            found[seed] = (omega, phi is not None)
        # seed 3 is an exact miss: the search ends within its budget, and the package's own
        # search agrees that g1 has no 4-colouring, no homomorphism into K4
        assert found == {1: (5, True), 2: (5, True), 3: (4, False), 4: (5, True), 5: (6, True)}
        k4 = SimplicialGraph("wxyz", combinations("wxyz", 2))
        assert find_graph_homomorphism(hom_keygen(16, 16, 3).g1, k4, budget=10**6) is None


class TestSubstituteKeySessions:
    """ROADMAP item 14, through the package's own driver and CLI: the paper rests ``hom`` on
    Graph Homomorphism being NP-complete, but ``HomKeyPair`` takes any homomorphism g1 -> g2
    as the private key, so the honest prover holding a substitute key, read off public data
    and unlike alpha on nearly every vertex, passes whole sessions. A fix flips this test."""

    def test_substitute_keys_pass_whole_honest_sessions(self):
        rates, differ = [], []
        for seed in range(1, 6):
            key = hom_keygen(32, 48, seed)
            _, phi = substitute_key(key)
            differ.append(sum(phi[v] != key.alpha.assignment[v] for v in key.g1.vertices))
            rates.append(acceptance_rate("hom", HomKeyPair(key.g1, key.g2, phi), "honest",
                                         20, 50, 100 + seed))
        assert (rates, differ) == ([1.0] * 5, [32, 31, 30, 31, 31])
        record = AttackRecord("substitute-key", (("n1", 32), ("n2", 48), ("rounds", 20)), 250,
                              sum(round(rate * 50) for rate in rates))
        assert record.line() == ("strategy substitute-key n1 32 n2 48 rounds 20 trials 250"
                                 " accepted 250 wilson95 0.984867 1.000000 acceptance 1.000000")

    def test_substitute_private_key_passes_prove_and_verify(self, capsys, tmp_path):
        key = hom_keygen(32, 48, 1)
        _, phi = substitute_key(key)
        public, private = tmp_path / "public_key.txt", tmp_path / "private_key.txt"
        public.write_text(format_public_key(key))
        private.write_text(format_private_key(HomKeyPair(key.g1, key.g2, phi)))
        run_dir = str(tmp_path / "run")
        assert main(["auth", "prove", "--public", str(public), "--private", str(private),
                     "--rounds", "20", "--seed", "5", "--challenge-seed", "6",
                     "--out-dir", run_dir]) == 0
        capsys.readouterr()
        assert main(["auth", "verify", "--public", str(public), "--dir", run_dir,
                     "--rounds", "20"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "accept true"
        # the challenge-1 rounds are the ones the substitute key answers
        assert out.count("challenge 1 verdict accept") == 10


class TestLengthParity:
    """ROADMAP item 1, pinned: the paper rests share secrecy on "only the holder's graph
    decodes a word", but a trivial word has even length and a nontrivial one odd, so every
    bit reads off its word's length with no graph. A fix flips this test."""

    def test_word_length_reads_every_share_bit(self):
        setup = random_dealer_setup_nn(4, 64, 10, 0.5, 3)
        secret = tuple(int(b) for b in f"{0x0123456789ABCDEF:064b}")
        shares = deal_nn(setup, secret, 5)
        right = sum(1 - len(w) % 2 == bit for share in shares
                    for w, bit in zip(share.words, decode_share_nn(share)))
        assert right == 256
        xor = [sum(1 - len(share.words[i]) % 2 for share in shares) % 2 for i in range(64)]
        assert tuple(xor) == secret

    def test_length_parity_as_an_attack_record(self):
        # one trial per share bit: the bit read off its word's length against the holder's
        shares = deal_nn(random_dealer_setup_nn(4, 64, 10, 0.5, 3),
                         tuple(int(b) for b in f"{0x0123456789ABCDEF:064b}"), 5)
        reads = [1 - len(w) % 2 == bit for share in shares
                 for w, bit in zip(share.words, decode_share_nn(share))]
        record = AttackRecord("length-parity", (("n", 4), ("bits", 64), ("generators", 10)),
                              len(reads), sum(reads))
        assert record._values() == ("length-parity",
                                    (("n", 4), ("bits", 64), ("generators", 10)), 256, 256)
        assert [round(b, 6) for b in wilson95(record.successes, record.trials)] == [0.985216, 1.0]

    def test_two_tn_share_files_give_the_secret(self):
        # one trial per seed: two (2,4) share files, read with no graph, interpolated over the
        # values that their words' lengths spell
        hits = []
        for seed in range(1, 21):
            rng = random.Random(seed)
            graphs = random_participant_graphs(4, 8, 0.5, rng.getrandbits(64))
            secret = rng.randrange(101)
            _, shares = deal_tn(graphs, secret, 101, 2, rng.getrandbits(64))
            points = []
            for text in map(format_share, shares[:2]):
                lines = text.split("\n")  # scheme, participant, k, p and t, then one word a line
                bits = "".join(str(1 - len(line.split()) % 2) for line in lines[5:-1])
                points.append((int(lines[1].split()[1]), int(bits, 2)))
            hits.append(lagrange_reconstruct(points, 101, 2) == secret)
        record = AttackRecord("length-parity-tn", (("n", 4), ("t", 2), ("p", 101),
                                                   ("generators", 8)), len(hits), sum(hits))
        assert record._values() == ("length-parity-tn", (("n", 4), ("t", 2), ("p", 101),
                                                         ("generators", 8)), 20, 20)
        assert [round(b, 6) for b in wilson95(record.successes, record.trials)] == [0.838875, 1.0]


class TestAdjacencyEstimate:
    """ROADMAP item 1, pinned: the paper rests share secrecy on "only the holder's graph
    decodes a word", but commuting generators sit on adjacent letters more often, so the
    most frequent adjacent pairs of one share's words give the holder's graph, or nearly.
    A fix flips this test."""

    def test_adjacent_pairs_give_the_holders_graph(self):
        secret = tuple(int(b) for b in f"{0x0123456789ABCDEF:064b}" * 4)
        found = {}
        for seed in range(1, 21):
            setup = random_dealer_setup_nn(2, 256, 8, 0.5, seed)
            # participant 1's column is an XOR pad, so the counts do not depend on the secret
            share = deal_nn(setup, secret, 1000 + seed)[0]
            guess = estimate_graph(setup.generators, share.words, len(share.graph.edge_list()))
            right = sum(a == b for a, b in zip(decode_column(Raag(guess), share.words),
                                               decode_share_nn(share)))
            found[seed] = (guess == share.graph, right)
        misses = {seed: right for seed, (exact, right) in found.items() if not exact}
        assert misses == {1: 246, 8: 248, 15: 246}
        assert all(right == 256 for seed, (_, right) in found.items() if seed not in misses)

    def test_adjacency_estimate_as_an_attack_record(self):
        # one trial per seed: the estimate is exactly the holder's graph
        secret = tuple(int(b) for b in f"{0x0123456789ABCDEF:064b}" * 4)
        hits = []
        for seed in range(1, 21):
            setup = random_dealer_setup_nn(2, 256, 8, 0.5, seed)
            share = deal_nn(setup, secret, 1000 + seed)[0]
            guess = estimate_graph(setup.generators, share.words, len(share.graph.edge_list()))
            hits.append(guess == share.graph)
        record = AttackRecord("adjacency-estimate", (("n", 2), ("bits", 256), ("generators", 8)),
                              len(hits), sum(hits))
        assert record._values() == ("adjacency-estimate",
                                    (("n", 2), ("bits", 256), ("generators", 8)), 20, 17)
        assert [round(b, 6) for b in wilson95(record.successes, record.trials)] == [0.639581,
                                                                                   0.947631]


class TestTranscriptExtraction:
    """ROADMAP item 5, pinned: the paper rests ``hom`` on Graph Homomorphism and its rounds on
    showing nothing of alpha, but each challenge-1 answer sends a commitment's edges through
    alpha, so two honest sessions of 10 rounds map g1's edges onto g2, and one induced search
    reads alpha off the image. A fix flips this test."""

    def test_two_honest_sessions_give_the_private_map(self):
        for seed in range(1, 6):
            key = hom_keygen(16, 16, seed)
            sessions, phi = extract_key(key)
            assert sessions == 2, seed
            assert phi == key.alpha.assignment, seed
            assert verify_graph_homomorphism(VertexMap(key.g1, key.g2, phi))

    def test_transcript_extraction_as_an_attack_record(self):
        # one trial per key: alpha itself read off two honest sessions
        keys = [hom_keygen(16, 16, seed) for seed in range(1, 6)]
        hits = [extract_key(key) == (2, key.alpha.assignment) for key in keys]
        record = AttackRecord("transcript-extraction", (("n1", 16), ("n2", 16), ("sessions", 2)),
                              len(hits), sum(hits))
        assert record._values() == ("transcript-extraction",
                                    (("n1", 16), ("n2", 16), ("sessions", 2)), 5, 5)
        assert [round(b, 6) for b in wilson95(record.successes, record.trials)] == [0.565518, 1.0]


def plant(cls, seed: int):
    """A key of the class at its default sizes, as ``auth keygen`` plants it."""
    return cls(*cls.keygen(*cls.sizes.values(), seed)._values())


def substitute_sessions(cls) -> AttackRecord:
    """Item 14 at the class's sizes: a key read off the public graphs (``substitute_key``)
    passes a whole honest session of the class's rules, seeds 1-5."""
    passed = []
    for seed in range(1, 6):
        key = plant(cls, seed)
        _, phi = substitute_key(key)
        passed.append(phi is not None and run_protocol(cls.scheme, cls(key.g1, key.g2, phi), 20,
                                                       "honest", seed, seed).accept)
    return AttackRecord("substitute-key", tuple(cls.sizes.items()) + (("rounds", 20),),
                        len(passed), sum(passed))


def transcript_extraction(cls) -> AttackRecord:
    """Item 5 at the class's sizes: alpha itself read off at most two honest sessions of
    ``hom``'s rules (``extract_key``), seeds 1-5."""
    keys = [plant(cls, seed) for seed in range(1, 6)]
    hits = [extract_key(key, 2)[1] == key.alpha.assignment for key in keys]
    return AttackRecord("transcript-extraction", tuple(cls.sizes.items()) + (("sessions", 2),),
                        len(hits), sum(hits))


def bipartite_commitment(cls) -> AttackRecord:
    """Item 11 under the class's own verifier: K(5,5) answered with one edge of the target,
    one trial per key and challenge, seeds 1-10."""
    left, right = [f"c{i}" for i in range(5)], [f"c{i}" for i in range(5, 10)]
    commitment = SimplicialGraph(left + right, [(u, v) for u in left for v in right])
    hits = []
    for seed in range(1, 11):
        key = plant(cls, seed)
        verify = cls.steps(key.g1, key.g2)[3]
        for c, target in enumerate((key.g1, key.g2)):
            a, b = target.edge_list()[0]
            response = {**dict.fromkeys(left, a), **dict.fromkeys(right, b)}
            hits.append(verify(commitment, c, response))
    return AttackRecord("bipartite-commitment", tuple(cls.sizes.items()) + (("commit_size", 10),),
                        len(hits), sum(hits))


def induced_search(cls, exact: bool) -> AttackRecord:
    """Items 5 and 20 at the class's sizes: one induced search over the public key alone
    gives a map that verifies, or with ``exact`` alpha itself, seeds 1-5."""
    hits = []
    for seed in range(1, 6):
        key = plant(cls, seed)
        f = find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2)
        hits.append(f == key.alpha if exact else
                    verify_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2, f))
    return AttackRecord("induced-search-alpha" if exact else "induced-search",
                        tuple(cls.sizes.items()), len(hits), sum(hits))


# the attacks that apply to each scheme's key pairs, each counted into one AttackRecord
ATTACKS = {
    "hom": (substitute_sessions, transcript_extraction, bipartite_commitment),
    "sub": (lambda cls: induced_search(cls, False), lambda cls: induced_search(cls, True)),
}

# (strategy, rounds, trials, acceptance_rate seed) of the battery's sessions, on one key
SESSIONS = (("honest", 20, 20, 2700), ("cheat-guess-0", 1, 4000, 2701),
            ("cheat-guess-1", 1, 4000, 2701), ("cheat-random", 6, 4000, 2702))

# each registered scheme's battery, as AttackRecord._values(): SESSIONS' rows, then ATTACKS'
HOM, SUB = (("g1_size", 8), ("g2_size", 8)), (("ambient_size", 16), ("subgroup_size", 7))
CLAIMS = {
    "hom": (("honest", HOM + (("rounds", 20),), 20, 20),
            ("cheat-guess-0", HOM + (("rounds", 1),), 4000, 1990),
            ("cheat-guess-1", HOM + (("rounds", 1),), 4000, 2017),
            ("cheat-random", HOM + (("rounds", 6),), 4000, 59),
            ("substitute-key", HOM + (("rounds", 20),), 5, 5),
            ("transcript-extraction", HOM + (("sessions", 2),), 5, 4),
            ("bipartite-commitment", HOM + (("commit_size", 10),), 20, 20)),
    "sub": (("honest", SUB + (("rounds", 20),), 20, 20),
            ("cheat-guess-0", SUB + (("rounds", 1),), 4000, 1988),
            ("cheat-guess-1", SUB + (("rounds", 1),), 4000, 2017),
            ("cheat-random", SUB + (("rounds", 6),), 4000, 59),
            ("induced-search", SUB, 5, 5),
            ("induced-search-alpha", SUB, 5, 2)),
}


class TestClaimsBattery:
    """ROADMAP item 27: the paper's claims, checked once over every registered key pair at the
    CLI's default sizes. The honest prover always passes; a one-round guess passes about
    half the time; r rounds hold a random cheater to about 2^-r (Fiat and Shamir, CRYPTO '86);
    and each attack that applies to the class is counted, so a fix flips its own row."""

    @pytest.mark.parametrize("scheme", list(KEY_PAIRS))
    def test_battery(self, scheme):
        cls = KEY_PAIRS[scheme]
        key = plant(cls, 27)
        sizes = tuple(cls.sizes.items())
        sessions = [AttackRecord(strategy, sizes + (("rounds", rounds),), trials,
                                 round(acceptance_rate(scheme, key, strategy, rounds, trials,
                                                       seed) * trials))
                    for strategy, rounds, trials, seed in SESSIONS]
        honest, *guesses, cheat = sessions
        assert honest.successes == honest.trials
        for guess in guesses:
            assert 0.46 <= guess.successes / guess.trials <= 0.54, guess.line()
        expected = cheat.trials * 2 ** -dict(cheat.parameters)["rounds"]  # 62.5
        assert 0.2 * expected <= cheat.successes <= 5 * expected, cheat.line()
        records = sessions + [attack(cls) for attack in ATTACKS.get(scheme, ())]
        assert tuple(record._values() for record in records) == CLAIMS[scheme]

    def test_every_key_pair_has_a_row(self):
        assert CLAIMS.keys() == KEY_PAIRS.keys()
