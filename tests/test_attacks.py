"""Attacks on the paper's claims, each pinned by its exact counts at fixed seeds.

Each attack is a plain function over the package's public API and the graphs' masks. Each
class names the claim that its attack refutes; a fix flips its test.
"""

from itertools import combinations

from raagcrypt.auth import hom_commit, hom_keygen, hom_verify
from raagcrypt.graphs import (
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    find_graph_homomorphism,
    verify_graph_homomorphism,
)
from raagcrypt.sharing import decode_share_nn, deal_nn, random_dealer_setup_nn


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
