"""The four benchmark workloads and the benchmark's own input generators.

Each workload is built from a seed (set-up: input generation, graph and
key building), then hands out one op at a time: ``prepare(i)`` makes the
op's inputs outside the timed region and ``run(args)`` performs the op
through the library's public functions, checks its output and returns
the number of work items it completed correctly (the unit of the
workload's ``goodput``). A failed check raises ``CheckFailed``.

Every size and search budget is passed explicitly, never through the
library's defaults, so a change of default cannot change a workload.
The ``decide`` words and the ``attack`` instances come from this file's
own generators, so a change to the library's sampler or key generation
cannot change those two workloads either.
"""

from __future__ import annotations

import random

from raagcrypt import auth, graphs, raag, sharing

Letter = tuple[str, int]


class CheckFailed(AssertionError):
    """An op's output did not match what its inputs require."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _op_rng(seed: int, name: str, i: int) -> random.Random:
    # str seeds are hashed deterministically (not with PYTHONHASHSEED)
    return random.Random(f"{seed}:{name}:{i}")


def _random_edges(rng: random.Random, vertices: tuple[str, ...], p: float) -> list[tuple[str, str]]:
    return [(u, vertices[j]) for i, u in enumerate(vertices)
            for j in range(i + 1, len(vertices)) if rng.random() < p]


# ---------------------------------------------------------------------------
# share: dealer and share holders


class Share:
    """One (n,n) session and one (t,n) session per op."""

    name = "share"
    goodput = ("secret_bits_per_s", "bit/s")  # secret bits dealt, decoded and reconstructed
    NN_N, NN_K = 3, 32
    TN_P, TN_K, TN_T, TN_N = 65537, 17, 3, 5
    GENERATORS, EDGE_PROB, WORD_LENGTH = 10, 0.5, 16
    params = {"nn": {"n": NN_N, "k": NN_K},
              "tn": {"p": TN_P, "k": TN_K, "t": TN_T, "n": TN_N},
              "generators": GENERATORS, "edge_prob": EDGE_PROB, "word_length": WORD_LENGTH}

    def __init__(self, seed: int):
        self.seed = seed
        # the dealer graphs are the same for every seed; secrets and seeds are not
        rng = random.Random("share:graphs")
        self.nn_setup = sharing.random_dealer_setup_nn(
            self.NN_N, self.NN_K, self.GENERATORS, self.EDGE_PROB, rng.getrandbits(64))
        self.tn_graphs = [graphs.random_graph(self.GENERATORS, self.EDGE_PROB, rng.getrandbits(64))
                          for _ in range(self.TN_N)]

    def prepare(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        secret = tuple(rng.getrandbits(1) for _ in range(self.NN_K))
        x = rng.randrange(self.TN_P)
        holders = sorted(rng.sample(range(self.TN_N), self.TN_T))
        return secret, rng.getrandbits(64), x, rng.getrandbits(64), holders

    def run(self, args) -> int:
        secret, nn_seed, x, tn_seed, holders = args
        shares = sharing.deal_nn(self.nn_setup, secret, nn_seed, word_length=self.WORD_LENGTH)
        received = [sharing.parse_share(sharing.format_share(s), s.graph) for s in shares]
        columns = [sharing.decode_share_nn(s) for s in received]
        _check(sharing.reconstruct_nn(columns) == secret, "(n,n) secret did not round-trip")
        _, tshares = sharing.deal_tn(self.tn_graphs, x, self.TN_P, self.TN_T, tn_seed,
                                     k=self.TN_K, word_length=self.WORD_LENGTH)
        received = [sharing.parse_share(sharing.format_share(s), s.graph) for s in tshares]
        points = [sharing.decode_share_tn(received[j]) for j in holders]
        _check(sharing.lagrange_reconstruct(points, self.TN_P, self.TN_T) == x,
               "(t,n) secret did not round-trip")
        return self.NN_K + self.TN_K


# ---------------------------------------------------------------------------
# decide: long words through the solver


def _conjugated_commutator(rng: random.Random, vertices, a: str, b: str) -> list[Letter]:
    conj = [(vertices[rng.randrange(len(vertices))], rng.choice((1, -1)))
            for _ in range(rng.randint(0, 3))]
    return conj + [(a, 1), (b, 1), (a, -1), (b, -1)] + [(v, -s) for v, s in reversed(conj)]


def _trivial_pieces(rng: random.Random, vertices, edges, length: int) -> list[list[Letter]]:
    """Pieces that are each the identity, of total length ``length``."""
    pieces, total = [], 0
    while total < length:
        room = length - total
        piece = None
        if edges and room >= 4 and rng.random() < 0.7:
            a, b = edges[rng.randrange(len(edges))]
            piece = _conjugated_commutator(rng, vertices, a, b)
            if len(piece) > room:
                piece = None
        if piece is None:
            v, s = vertices[rng.randrange(len(vertices))], rng.choice((1, -1))
            piece = [(v, s), (v, -s)]
        pieces.append(piece)
        total += len(piece)
    return pieces


def _scramble(rng: random.Random, letters: list[Letter], adjacency) -> None:
    """Random swaps of neighbouring letters whose generators commute."""
    last = len(letters) - 1
    for _ in range(2 * len(letters)):
        j = rng.randrange(last)
        if letters[j + 1][0] in adjacency[letters[j][0]]:
            letters[j], letters[j + 1] = letters[j + 1], letters[j]


def make_word(rng: random.Random, graph: graphs.SimplicialGraph, length: int,
              trivial: bool) -> tuple[Letter, ...]:
    """A word of exactly ``length`` letters whose triviality is known.

    A trivial word is a product of conjugated edge commutators and
    inverse pairs. A nontrivial word is such a product with one
    conjugated commutator of a non-edge inserted between two pieces: the
    word then equals that conjugate, which is not the identity because
    the two generators do not commute. Scrambling by commuting swaps
    keeps the group element.
    """
    vertices = graph.vertices
    edges = graph.edge_list()
    extra: list[Letter] = []
    if not trivial:
        non_edges = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                     if not graph.has_edge(u, v)]
        a, b = non_edges[rng.randrange(len(non_edges))]
        extra = _conjugated_commutator(rng, vertices, a, b)
    pieces = _trivial_pieces(rng, vertices, edges, length - len(extra))
    if extra:
        pieces.insert(rng.randrange(len(pieces) + 1), extra)
    letters = [l for piece in pieces for l in piece]
    _scramble(rng, letters, graph.adjacency)
    return tuple(letters)


def make_graph(rng: random.Random, n: int, p: float) -> graphs.SimplicialGraph:
    vertices = tuple(f"x{i}" for i in range(n))
    return graphs.SimplicialGraph(vertices, _random_edges(rng, vertices, p))


class Decide:
    """One trivial and one nontrivial long word on each of three graphs per op."""

    name = "decide"
    goodput = ("letters_per_s", "letter/s")  # letters decided with the right verdict
    GRAPHS = ((16, 0.5), (64, 0.2), (64, 0.8))
    LENGTH = 2048
    POOL = 8  # words per (graph, verdict); each op rotates one of them
    params = {"graphs": [{"vertices": n, "edge_prob": p} for n, p in GRAPHS],
              "word_length": LENGTH, "pool_per_kind": POOL}

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{seed}:decide:words")
        self.kinds = []  # (group, expected verdict, word pool)
        for n, p in self.GRAPHS:
            # the graphs are the same for every seed; the words are not
            graph = make_graph(random.Random(f"decide:graph:{n}:{p}"), n, p)
            group = raag.Raag(graph)
            for trivial in (True, False):
                pool = [make_word(rng, graph, self.LENGTH, trivial) for _ in range(self.POOL)]
                self.kinds.append((group, trivial, pool))

    def prepare(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        out = []
        for group, trivial, pool in self.kinds:
            w = pool[rng.randrange(len(pool))]
            r = rng.randrange(len(w))
            # a cyclic rotation is a conjugate, so the verdict is unchanged
            out.append((group, trivial, w[r:] + w[:r]))
        return out

    def run(self, args) -> int:
        letters = 0
        for group, trivial, w in args:
            _check(raag.is_trivial(group, w) == trivial, "wrong verdict")
            letters += len(w)
        return letters


# ---------------------------------------------------------------------------
# auth: honest sessions


class Auth:
    """One honest session on a hom key and one on a sub key per op."""

    name = "auth"
    goodput = ("rounds_per_s", "round/s")  # rounds of accepted sessions
    ROUNDS = 20
    HOM_N1, HOM_N2, HOM_EDGE_PROB, HOM_KEEP_PROB, HOM_COMMIT = 8, 8, 0.5, 0.9, 10
    SUB_AMBIENT, SUB_SIZE, SUB_EDGE_PROB = 16, 7, 0.5
    params = {"rounds": ROUNDS,
              "hom": {"n1": HOM_N1, "n2": HOM_N2, "edge_prob": HOM_EDGE_PROB,
                      "keep_prob": HOM_KEEP_PROB, "commit_size": HOM_COMMIT},
              "sub": {"ambient": SUB_AMBIENT, "subgroup": SUB_SIZE, "edge_prob": SUB_EDGE_PROB}}

    def __init__(self, seed: int):
        self.seed = seed
        # the keys are the same for every seed; prover and verifier seeds are not
        rng = random.Random("auth:keys")
        self.hom_key = auth.hom_keygen(self.HOM_N1, self.HOM_N2, rng.getrandbits(64),
                                       edge_prob=self.HOM_EDGE_PROB,
                                       keep_prob=self.HOM_KEEP_PROB)
        self.sub_key = auth.sub_keygen(self.SUB_AMBIENT, self.SUB_SIZE, rng.getrandbits(64),
                                       pattern_edge_prob=self.SUB_EDGE_PROB,
                                       ambient_edge_prob=self.SUB_EDGE_PROB)

    def prepare(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        return [rng.getrandbits(64) for _ in range(4)]

    def run(self, args) -> int:
        hom_p, hom_v, sub_p, sub_v = args
        sessions = (
            auth.run_protocol("hom", self.hom_key, self.ROUNDS, "honest", hom_p, hom_v,
                              commit_size=self.HOM_COMMIT),
            auth.run_protocol("sub", self.sub_key, self.ROUNDS, "honest", sub_p, sub_v),
        )
        for t in sessions:
            _check(t.accept and len(t.rounds) == self.ROUNDS
                   and all(r.verdict for r in t.rounds), f"honest {t.scheme} session rejected")
        return 2 * self.ROUNDS


# ---------------------------------------------------------------------------
# attack: key recovery from the public part


def plant_hom(rng: random.Random, n1: int, n2: int, p: float, keep: float):
    """Source and target graphs with a planted strict homomorphism.

    Same shape as the hom key family: a random target with a forced
    triangle, and a source pulled back through an injective assignment
    whose candidate edges are kept with probability ``keep``.
    """
    targets = tuple(f"b{i}" for i in range(n2))
    edges = set(_random_edges(rng, targets, p))
    corners = sorted(rng.sample(range(n2), 3))
    edges.update((targets[a], targets[b]) for a, b in
                 ((corners[0], corners[1]), (corners[0], corners[2]), (corners[1], corners[2])))
    target = graphs.SimplicialGraph(targets, sorted(edges))
    sources = tuple(f"a{i}" for i in range(n1))
    image = dict(zip(sources, rng.sample(targets, n1)))
    source = graphs.SimplicialGraph(sources, [
        (u, v) for i, u in enumerate(sources) for v in sources[i + 1:]
        if target.has_edge(image[u], image[v]) and rng.random() < keep])
    return source, target


def plant_sub(rng: random.Random, n: int, m: int, p: float):
    """Ambient graph with two disjoint induced copies of one random pattern."""
    vertices = tuple(f"v{i}" for i in range(n))
    chosen = rng.sample(range(n), 2 * m)
    copies = (chosen[:m], chosen[m:])
    copy_of = [0] * n  # 1 or 2 for the vertices of a copy
    for c, ids in enumerate(copies, start=1):
        for k in ids:
            copy_of[k] = c
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < p:
                edges.extend((vertices[ids[i]], vertices[ids[j]]) for ids in copies)
    # pairs inside one copy follow the pattern; every other pair is random
    edges.extend((vertices[a], vertices[b]) for a in range(n) for b in range(a + 1, n)
                 if not (copy_of[a] and copy_of[a] == copy_of[b]) and rng.random() < p)
    ambient = graphs.SimplicialGraph(vertices, edges)
    s1, s2 = (frozenset(vertices[k] for k in ids) for ids in copies)
    return ambient, s1, s2


class Attack:
    """Recover one planted hom witness and one planted sub witness per op."""

    name = "attack"
    goodput = ("keys_per_s", "key/s")  # witnesses recovered and verified
    HOM_N1, HOM_N2, HOM_EDGE_PROB, HOM_KEEP_PROB = 8, 8, 0.5, 0.9
    SUB_AMBIENT, SUB_SIZE, SUB_EDGE_PROB = 32, 12, 0.5
    BUDGET = 1_000_000
    params = {"hom": {"n1": HOM_N1, "n2": HOM_N2, "edge_prob": HOM_EDGE_PROB,
                      "keep_prob": HOM_KEEP_PROB},
              "sub": {"ambient": SUB_AMBIENT, "subgroup": SUB_SIZE, "edge_prob": SUB_EDGE_PROB},
              "budget_nodes": BUDGET}

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, i: int):
        # planted per op, outside the timed op: a pool planted up front
        # would hold about 100 KB of graphs per op
        rng = _op_rng(self.seed, self.name, i)
        hom = plant_hom(rng, self.HOM_N1, self.HOM_N2, self.HOM_EDGE_PROB, self.HOM_KEEP_PROB)
        return hom, plant_sub(rng, self.SUB_AMBIENT, self.SUB_SIZE, self.SUB_EDGE_PROB)

    def run(self, args) -> int:
        (source, target), (ambient, s1, s2) = args
        f = graphs.find_graph_homomorphism(source, target, budget=self.BUDGET)
        _check(f is not None and graphs.verify_graph_homomorphism(f),
               "hom witness not recovered")
        m = graphs.find_induced_subgraph_isomorphism(ambient, s1, s2, budget=self.BUDGET)
        _check(m is not None and graphs.verify_induced_subgraph_isomorphism(ambient, s1, s2, m),
               "sub witness not recovered")
        return 2


WORKLOADS = {w.name: w for w in (Share, Decide, Auth, Attack)}

