"""Challenge-response authentication from graph search problems.

Both schemes run the same three-message protocol. The prover publishes
a commitment graph G and withholds a session map beta from G into the
first public object; the verifier sends a random bit c; the prover
reveals beta (c = 0) or the composite of beta with the long-term private
key alpha (c = 1); the verifier checks the revealed map against the
public data. A cheater who prepared for only one challenge value
survives a round with probability 1/2, so r rounds hold it to 2^-r.
Neither scheme holds every cheater to that: a complete bipartite "hom"
commitment maps into any graph with an edge and answers both challenges
without alpha, and the induced search recovers a "sub" alpha from the
public key alone in milliseconds (see the README). Each key-pair class owns
its scheme's round rules (``steps``: commit, respond, junk answer, verify);
``run_protocol`` runs every prover strategy through them, and
``raagcrypt auth verify`` re-checks recorded rounds.

Scheme "hom": public key is a pair of graphs g1, g2; alpha is a strict
graph homomorphism g1 -> g2. Keys and commitments are planted: instances
are generated together with their witness, never searched for, because
recovering a homomorphism is NP-complete already for a triangle target.

Scheme "sub": public key is one ambient graph plus two vertex subsets
s1, s2 whose induced subgraphs are isomorphic; alpha is the induced
isomorphism s1 -> s2. Only special (induced) subgraphs are used; the
verifier checks literal image-set equality plus edge and non-edge
preservation. Planting is essential here as well since recovering such
an isomorphism is NP-complete in general.

Key files follow the scheme's key pair (``KEY_PAIRS``): a public key is
'scheme <name>', then per public field in field order (read in any order) a
'graph <field>' section, or for ``subset_fields`` a 'subset <field> <members>'
line over the first field; a private key is alpha's 'map' lines in the first
field's order, checked as the key pair checks alpha when read. Both skip '#'
comment lines and blank lines, before the scheme line too.
"""

from __future__ import annotations

import _random
import random
from collections.abc import Mapping
from functools import lru_cache, partial

from .graphs import (
    GraphError,
    Record,
    SimplicialGraph,
    VertexMap,
    VertexSubset,
    _directives,
    _keep_edges,
    format_graph,
    format_map_lines,
    parse_graph,
    parse_map_lines,
    triangle_vertices,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)

__all__ = [
    "AuthError",
    "HomKeyPair",
    "SubKeyPair",
    "KEY_PAIRS",
    "RoundState",
    "Transcript",
    "STRATEGIES",
    "hom_keygen",
    "hom_commit",
    "hom_respond",
    "hom_verify",
    "sub_keygen",
    "sub_commit",
    "sub_respond",
    "sub_verify",
    "run_protocol",
    "acceptance_rate",
    "format_public_key",
    "parse_public_key",
    "format_private_key",
    "parse_private_key",
    "format_transcript",
    "parse_transcript",
]

# each prover strategy: the challenge its commitment answers (None: a fresh coin per round)
STRATEGIES = {"honest": 0, "cheat-guess-0": 0, "cheat-guess-1": 1, "cheat-random": None}

DEFAULT_EDGE_PROB = 0.5
# keygen thins the pulled-back edge set to vary public keys; commitments
# keep the full pullback so responses face as many edge constraints as
# the assignment allows (junk maps then fail with high probability)
KEYGEN_KEEP_PROB = 0.9
COMMIT_KEEP_PROB = 1.0


class AuthError(ValueError):
    """Raised for malformed keys, parameters, or protocol files."""


class HomKeyPair(Record):
    """Public graphs g1, g2 (g2 contains a triangle); alpha: g1 -> g2, a mapping or VertexMap."""

    scheme, subset_fields = "hom", ()
    __slots__ = ("g1", "g2", "alpha")

    def __init__(self, g1: SimplicialGraph, g2: SimplicialGraph, alpha: VertexMap | Mapping):
        self._set(g1, g2, alpha if isinstance(alpha, VertexMap) else VertexMap(g1, g2, alpha))
        if self.alpha.source != self.g1 or self.alpha.target != self.g2:
            raise AuthError("private map must go from g1 to g2")
        if not verify_graph_homomorphism(self.alpha):
            raise AuthError("private map is not a graph homomorphism")
        if triangle_vertices(self.g2) is None:
            raise AuthError("g2 must contain a triangle")

    @staticmethod
    def steps(g1: SimplicialGraph, g2: SimplicialGraph, commit_size: int | None = None):
        """Round rules over the public fields: ``commit(bit, seed)`` (a commitment and the session
        map that answers challenge ``bit``), ``respond(session, c, key)`` (the honest answer to
        ``c``), ``junk(commitment, c, rng)`` (a random answer) and ``verify(commitment, c,
        response)``. A commitment has ``commit_size`` vertices, g1's count plus 2 by default."""
        targets = (g1, g2)
        size = commit_size if commit_size is not None else len(g1.vertices) + 2

        def commit(bit: int, seed: int) -> tuple[SimplicialGraph, VertexMap]:
            return hom_commit(targets[bit], size, seed)

        def junk(commitment: SimplicialGraph, c: int, rng: _random.Random) -> VertexMap:
            images = _random_images(targets[c], len(commitment.vertices), rng)
            return VertexMap(commitment, targets[c], dict(zip(commitment.vertices, images)))

        return commit, hom_respond, junk, partial(hom_verify, g1, g2)


class SubKeyPair(Record):
    """Public ambient graph and subsets s1, s2; private induced bijection alpha."""

    scheme, subset_fields = "sub", ("s1", "s2")
    __slots__ = ("ambient", "s1", "s2", "alpha")

    def __init__(self, ambient: SimplicialGraph, s1: VertexSubset, s2: VertexSubset,
                 alpha: dict[str, str]):
        self._set(ambient, s1, s2, alpha)
        if len(self.s1) != len(self.s2):
            raise AuthError("subgroup generating sets must have equal size")
        if not self.s1:
            raise AuthError("subgroup generating sets must not be empty")
        try:
            ok = verify_induced_subgraph_isomorphism(self.ambient, self.s1, self.s2,
                                                     self.alpha)
        except GraphError as e:
            raise AuthError(f"private bijection is malformed: {e}") from None
        if not ok:
            raise AuthError("private bijection does not preserve the induced structure")

    @staticmethod
    def steps(ambient: SimplicialGraph, s1: VertexSubset, s2: VertexSubset,
              commit_size: int | None = None):
        """``HomKeyPair.steps``'s rules; a commitment has s1's size, so a commit size is refused."""
        if commit_size is not None:
            raise AuthError("commit size applies to scheme 'hom' only")
        subsets = (s1, s2)

        def commit(bit: int, seed: int) -> tuple[SimplicialGraph, dict[str, str]]:
            return sub_commit(ambient, subsets[bit], seed)

        def junk(commitment: SimplicialGraph, c: int, rng: _random.Random) -> dict[str, str]:
            members = list(subsets[c].ordered())
            _shuffle(members, rng)
            return dict(zip(commitment.vertices, members))

        return commit, sub_respond, junk, partial(sub_verify, ambient, s1, s2)


# fields: the public key as parse_public_key gives it after the scheme name, then alpha
KEY_PAIRS = {cls.scheme: cls for cls in (HomKeyPair, SubKeyPair)}


class RoundState(Record):
    """One round's record, stored directly, not through ``_set``: a run builds one per round."""

    __slots__ = ("commitment", "session", "challenge", "response", "verdict")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # fields may be reassigned
    __hash__ = None

    def __init__(self, commitment: SimplicialGraph, session: VertexMap | Mapping[str, str] | None,
                 challenge: int | None = None,
                 response: VertexMap | Mapping[str, str] | None = None,
                 verdict: bool | None = None):
        self.commitment, self.session, self.challenge, self.response, self.verdict = (
            commitment, session, challenge, response, verdict)


class Transcript(Record):
    __slots__ = ("scheme", "rounds", "accept")  # rounds: a tuple of RoundState


# ---------------------------------------------------------------------------
# planted-instance construction


def _random_images(target: SimplicialGraph, count: int, rng: _random.Random) -> list[str]:
    targets, bits = target.vertices, rng.getrandbits
    if not targets:
        raise AuthError("target graph must have at least one vertex")
    k, width, images = len(targets), len(targets).bit_length(), []
    for _ in range(count):
        while (r := bits(width)) >= k:  # randrange's draw, as in _shuffle: no Python call
            pass
        images.append(targets[r])
    return images


def _shuffle(items: list, rng: _random.Random) -> None:
    """``rng.shuffle(items)``, the same swaps from the same draws. A draw below k is written
    out as ``randrange``'s: k.bit_length() bits, again while k or more (k = 1 reads to a 0)."""
    bits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        while (j := bits((i + 1).bit_length())) > i:
            pass
        items[i], items[j] = items[j], items[i]


@lru_cache(maxsize=64)
def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _pullback_graph(target: SimplicialGraph, images: list[str], prefix: str,
                    rng: _random.Random, keep_prob: float = COMMIT_KEEP_PROB,
                    ) -> tuple[SimplicialGraph, dict[str, str]]:
    """A fresh graph on one vertex per image, plus the map sending vertex i
    to ``images[i]`` in ``target``: ``hom_keygen``'s g1 and every commitment.

    Candidate edges are exactly the pairs whose images are adjacent, kept
    independently with ``keep_prob``, so the map is a strict homomorphism by
    construction, and an induced isomorphism when the images are distinct
    and all edges are kept. At ``keep_prob`` 1 there is no draw from ``rng`` (all three
    callers drop it after this call, so no output byte changes); ``_keep_edges`` checks any other.
    """
    vertices = _labels(prefix, len(images))
    masks = target._induced_masks(images)
    if keep_prob != 1:
        masks = _keep_edges(masks, keep_prob, rng)
    return SimplicialGraph._trusted(vertices, masks), dict(zip(vertices, images))


def hom_keygen(n1: int, n2: int, seed: int,
               edge_prob: float = DEFAULT_EDGE_PROB,
               keep_prob: float = KEYGEN_KEEP_PROB) -> HomKeyPair:
    """Plant a homomorphism key pair.

    g2 is a random graph on n2 >= 3 vertices with a forced triangle; g1
    is pulled back through a random assignment, so alpha verifies by
    construction.
    """
    if n2 < 3:
        raise AuthError("the target graph needs at least 3 vertices to hold a triangle")
    if n1 < 1:
        raise AuthError("the source graph needs at least 1 vertex")
    rng = random.Random(seed)
    g2_vertices = tuple(f"b{i}" for i in range(n2))
    masks = _keep_edges([(1 << n2) - 1] * n2, edge_prob, rng)
    corners = rng.sample(range(n2), 3)
    for a in corners:
        masks[a] |= sum(1 << b for b in corners if b != a)
    g2 = SimplicialGraph._trusted(g2_vertices, masks)
    # an injective assignment (when it fits) keeps the pulled-back edge
    # supply near g2's, so key quality does not collapse on unlucky seeds
    images = rng.sample(g2_vertices, n1) if n1 <= n2 else _random_images(g2, n1, rng)
    g1, alpha = _pullback_graph(g2, images, "a", rng, keep_prob)
    return HomKeyPair(g1=g1, g2=g2, alpha=VertexMap(g1, g2, alpha))


def hom_commit(target: SimplicialGraph, size: int,
               seed: int) -> tuple[SimplicialGraph, VertexMap]:
    """Fresh session graph G with a withheld homomorphism beta: G -> target.

    Builds against any target graph: g1 for an honest prover and a
    challenge-0 guess, g2 for a challenge-1 guess. Needs only public data.
    It keeps the full pullback (``COMMIT_KEEP_PROB`` is 1), so ``seed`` feeds only
    the image draws: edge draws would follow them from a source then dropped.
    """
    if size < 1:
        raise AuthError("commitment size must be at least 1")
    rng = _random.Random(seed)
    graph, beta = _pullback_graph(target, _random_images(target, size, rng), "c", rng)
    return graph, VertexMap(graph, target, beta)


def _check_challenge(challenge) -> None:
    if challenge not in (0, 1):
        raise AuthError(f"challenge must be 0 or 1, got {challenge!r}")


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise AuthError("need at least one round")


def hom_respond(session: VertexMap, challenge: int, key: HomKeyPair) -> VertexMap:
    """The session map beta for challenge 0, the composite alpha(beta(.)) for challenge 1."""
    _check_challenge(challenge)
    if not isinstance(session, VertexMap):
        raise AuthError("round holds no session homomorphism")
    return session if challenge == 0 else session.compose(key.alpha)


def hom_verify(g1: SimplicialGraph, g2: SimplicialGraph,
               commitment: SimplicialGraph, challenge: int, response) -> bool:
    """Accept iff the response is a strict homomorphism from the committed
    graph into g1 (challenge 0) or g2 (challenge 1).

    Target correctness means codomain identity, not surjectivity. A plain map is read
    from the commitment into the challenged target. Malformed responses are rejected,
    and so is an empty commitment: ``hom_commit`` never builds one, and the empty map
    from it is a homomorphism into any graph.
    """
    _check_challenge(challenge)
    if not commitment.vertices:
        return False
    expected_target = g1 if challenge == 0 else g2
    if isinstance(response, Mapping):
        try:
            response = VertexMap(commitment, expected_target, response)
        except GraphError:
            return False
    if (not isinstance(response, VertexMap)  # tuples skip __eq__ for identical graphs
            or (response.source, response.target) != (commitment, expected_target)):
        return False
    return verify_graph_homomorphism(response)


def sub_keygen(ambient_size: int, subgroup_size: int, seed: int,
               pattern_edge_prob: float = DEFAULT_EDGE_PROB,
               ambient_edge_prob: float = DEFAULT_EDGE_PROB) -> SubKeyPair:
    """Plant two disjoint induced copies of one random pattern.

    Edges inside each planted subset copy the pattern exactly; every
    other vertex pair (subset to rest, between the two subsets, rest to
    rest) is drawn independently, which cannot disturb either induced
    subgraph. The pairing of the two copies is the private key.
    """
    m = subgroup_size
    if m < 1:
        raise AuthError("subgroup size must be at least 1")
    if ambient_size < 2 * m:
        raise AuthError("ambient graph needs at least twice the subgroup size")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(ambient_size))
    planted = rng.sample(range(ambient_size), 2 * m)
    s1_ids, s2_ids = planted[:m], planted[m:]
    pattern = _keep_edges([(1 << m) - 1] * m, pattern_edge_prob, rng)
    candidates = [(1 << ambient_size) - 1] * ambient_size
    copies = [0] * ambient_size  # the pattern's edges inside each planted subset
    for ids in (s1_ids, s2_ids):
        for i, a in enumerate(ids):
            candidates[a] &= ~sum(1 << b for b in ids)
            copies[a] = sum(1 << ids[j] for j in range(m) if pattern[i] >> j & 1)
    drawn = _keep_edges(candidates, ambient_edge_prob, rng)
    ambient = SimplicialGraph._trusted(vertices, [d | c for d, c in zip(drawn, copies)])
    alpha = {vertices[s1_ids[i]]: vertices[s2_ids[i]] for i in range(m)}
    return SubKeyPair(
        ambient=ambient,
        s1=VertexSubset(ambient, (vertices[i] for i in s1_ids)),
        s2=VertexSubset(ambient, (vertices[i] for i in s2_ids)),
        alpha=alpha,
    )


def sub_commit(ambient: SimplicialGraph, subset: VertexSubset,
               seed: int) -> tuple[SimplicialGraph, dict[str, str]]:
    """Fresh relabeling G of the induced subgraph on any subset (s1 for an honest
    prover): ``ambient`` pulled back along the members, shuffled by ``_random.Random(seed)``.
    The relabeling bijection beta: V(G) -> subset is withheld."""
    members = list(subset.ordered())
    rng = _random.Random(seed)
    _shuffle(members, rng)
    return _pullback_graph(ambient, members, "g", rng)


def sub_respond(session: Mapping[str, str], challenge: int, key: SubKeyPair) -> dict[str, str]:
    """The session bijection beta for challenge 0, alpha after beta for challenge 1."""
    _check_challenge(challenge)
    if not isinstance(session, Mapping):
        raise AuthError("round holds no session bijection")
    if challenge == 0:
        return dict(session)
    return {v: key.alpha[session[v]] for v in session}


def sub_verify(ambient: SimplicialGraph, s1: VertexSubset, s2: VertexSubset,
               commitment: SimplicialGraph, challenge: int, response) -> bool:
    """Accept iff the response maps the committed graph bijectively ONTO
    the declared subset (image-set equality is literal here) preserving
    edges and non-edges against the ambient graph. An empty commitment is rejected, as in
    ``hom_verify``: the empty map onto an empty subset would prove nothing."""
    _check_challenge(challenge)
    if not commitment.vertices:
        return False
    if not isinstance(response, Mapping):
        return False
    expected = s1 if challenge == 0 else s2
    images = [response.get(v) for v in commitment.vertices]
    # equal sizes and image set: defined on exactly V(G) and a bijection
    if not len(response) == len(images) == len(expected) or set(images) != expected.members:
        return False
    return commitment.adjacency_masks() == ambient._induced_masks(images)


# ---------------------------------------------------------------------------
# protocol driver


def run_protocol(scheme: str, key: HomKeyPair | SubKeyPair, rounds: int, strategy: str,
                 prover_seed: int, verifier_seed: int, *,
                 commit_size: int | None = None,
                 stop_on_reject: bool = False) -> Transcript:
    """Execute ``rounds`` independent rounds and return the transcript.

    The rounds run the steps of the scheme's key pair (``KEY_PAIRS[scheme].steps``), fixed
    once before the rounds: ``commit``, ``respond``, ``junk`` and ``verify``. Each round commits
    for the strategy's ``STRATEGIES`` entry (a fresh prover coin where it is None), draws
    the challenge, responds and verifies. Only the honest prover responds with
    the private key; a cheater answers with its session map or, after a wrong
    guess, junk, so cheating strategies never touch the private key.

    Challenge bits come from the verifier's seeded source, everything
    else from the prover's, so a run is deterministic in the two seeds.
    With ``stop_on_reject`` the run ends at the first rejected round (the
    overall accept value is unaffected; Monte Carlo callers use this).
    ``commit_size`` is ``steps``'s.
    """
    _check_rounds(rounds)
    if strategy not in STRATEGIES:
        raise AuthError(f"unknown strategy {strategy!r}; pick one of {tuple(STRATEGIES)}")
    if not isinstance(key, KEY_PAIRS.get(scheme, ())):
        raise AuthError(f"a {type(key).__name__} is not a key of scheme {scheme!r}")
    commit, respond, junk, verify = KEY_PAIRS[scheme].steps(*key._values()[:-1], commit_size)
    prng = _random.Random(prover_seed)
    vrng = _random.Random(verifier_seed)
    honest, fixed_guess = strategy == "honest", STRATEGIES[strategy]
    states: list[RoundState] = []
    accept = True
    for _ in range(rounds):
        guess = prng.getrandbits(1) if fixed_guess is None else fixed_guess
        commitment, session = commit(guess, prng.getrandbits(64))
        challenge = vrng.getrandbits(1)
        if honest:
            response = respond(session, challenge, key)
        elif challenge == guess:
            response = session
        else:
            response = junk(commitment, challenge, prng)
        verdict = verify(commitment, challenge, response)
        states.append(RoundState(commitment, session, challenge, response, verdict))
        if not verdict:
            accept = False
            if stop_on_reject:
                break
    return Transcript(scheme=scheme, rounds=tuple(states), accept=accept)


def acceptance_rate(scheme: str, key, strategy: str, rounds: int, trials: int,
                    seed: int) -> float:
    """Fraction of ``trials`` protocol runs that accept."""
    if trials < 1:
        raise AuthError("need at least one trial")
    rng = _random.Random(seed)
    accepted = 0
    for _ in range(trials):
        t = run_protocol(scheme, key, rounds, strategy,
                         prover_seed=rng.getrandbits(64),
                         verifier_seed=rng.getrandbits(64),
                         stop_on_reject=True)
        accepted += t.accept
    return accepted / trials


# ---------------------------------------------------------------------------
# key and transcript files


def _public_layout(cls) -> list[tuple[str, str]]:
    """(header word, field name) of each public field of a key-pair class, in field order."""
    return [("subset" if name in cls.subset_fields else "graph", name) for name in cls._fields[:-1]]


def format_public_key(key: HomKeyPair | SubKeyPair) -> str:
    parts = [f"scheme {key.scheme}\n"]
    for (word, name), value in zip(_public_layout(type(key)), key._values()):
        parts += ([f"graph {name}\n", format_graph(value)] if word == "graph"
                  else [f"subset {name} {' '.join(value.ordered())}\n"])
    return "".join(parts)


def parse_public_key(text: str):
    """Returns the scheme name, then its key pair's public fields in field order."""
    lines = _directives(text)
    _, head = next(lines, (0, []))
    cls = KEY_PAIRS.get(head[1]) if len(head) == 2 and head[0] == "scheme" else None
    if cls is None:
        raise AuthError("expected " + " or ".join(f"'scheme {name}'" for name in KEY_PAIRS)
                        + " on the first line")
    found: dict[tuple[str, str], list[str]] = {}  # (header word, field name): lines or members
    current: list[str] | None = None
    for _, fields in lines:
        line = " ".join(fields)
        if fields[0] == "graph":
            if len(fields) != 2 or ("graph", fields[1]) in found:
                raise AuthError(f"bad graph section header {line!r}")
            current = found["graph", fields[1]] = []
        elif fields[0] == "subset":
            if len(fields) < 3 or ("subset", fields[1]) in found:
                raise AuthError(f"bad subset line {line!r}")
            if len(set(fields[2:])) < len(fields) - 2:
                raise AuthError(f"repeated member in subset line {line!r}")
            found["subset", fields[1]] = fields[2:]
        elif current is None:
            raise AuthError(f"content outside any graph section: {line!r}")
        else:
            current.append(line)
    layout = _public_layout(cls)
    if found.keys() != set(layout):
        raise AuthError(f"{cls.scheme} public key needs exactly the sections "
                        + ", ".join(f"'{word} {name}'" for word, name in layout))
    values: list = []  # a subset's members are read against the first field, a graph
    for word, name in layout:
        try:
            values.append(parse_graph("\n".join(found[word, name])) if word == "graph"
                          else VertexSubset(values[0], found[word, name]))
        except GraphError as e:
            raise AuthError(f"bad {word} in key file: {e}") from None
    return (cls.scheme, *values)


def format_private_key(key: HomKeyPair | SubKeyPair) -> str:
    alpha = getattr(key.alpha, "assignment", key.alpha)  # a hom VertexMap
    return format_map_lines(alpha, [v for v in key._values()[0].vertices if v in alpha])


def parse_private_key(text: str, public) -> VertexMap | dict[str, str]:
    """Parse against a parsed public key tuple; returns alpha, checked as its key pair checks it."""
    return _parse_key_pair(text, public).alpha


def _parse_key_pair(text: str, public) -> HomKeyPair | SubKeyPair:
    """The key pair of a parsed public key tuple and a private key's text (else AuthError)."""
    try:
        return KEY_PAIRS[public[0]](*public[1:], parse_map_lines(text))
    except GraphError as e:
        raise AuthError(f"bad private key: {e}") from None


def format_transcript(t: Transcript) -> str:
    lines = []
    for i, state in enumerate(t.rounds, start=1):
        verdict = "accept" if state.verdict else "reject"
        lines.append(f"round {i} challenge {state.challenge} verdict {verdict}")
    lines.append(f"accept {'true' if t.accept else 'false'}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> tuple[list[tuple[int, int, bool]], bool]:
    """Returns ([(round, challenge, verdict)], overall accept); rounds run 1..r,
    r >= 1, each challenge is 0 or 1, and one accept line comes last."""
    rounds: list[tuple[int, int, bool]] = []
    accept: bool | None = None
    for _, fields in _directives(text):
        line = " ".join(fields)
        if fields[0] == "round":
            if (accept is not None or len(fields) != 6 or fields[2] != "challenge"
                    or fields[3] not in ("0", "1")
                    or fields[4] != "verdict" or fields[5] not in ("accept", "reject")):
                raise AuthError(f"bad round line {line!r}")
            if fields[1] != str(len(rounds) + 1):
                raise AuthError(f"expected round {len(rounds) + 1}, got {line!r}")
            rounds.append((int(fields[1]), int(fields[3]), fields[5] == "accept"))
        elif fields[0] == "accept":
            if accept is not None or len(fields) != 2 or fields[1] not in ("true", "false"):
                raise AuthError(f"bad or repeated accept line {line!r}")
            accept = fields[1] == "true"
        else:
            raise AuthError(f"unknown transcript line {line!r}")
    if accept is None:
        raise AuthError("transcript missing final accept line")
    if not rounds:
        raise AuthError("transcript has no rounds")
    return rounds, accept
