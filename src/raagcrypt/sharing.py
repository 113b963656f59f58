"""Threshold secret sharing with word-encoded shares.

Two schemes over a public generator set X. In both, each participant
secretly holds a relator set (a graph on X, hence a RAAG), and the
dealer publishes per-participant word columns; a word decodes to bit 1
iff it is trivial in the holder's group, so only the holder can read the
column.

(n,n): the secret bit column is split into n columns whose entrywise
mod-2 sum is the secret; all n decoded columns are needed.

(t,n): the secret is x in Z_p; shares are evaluations y_i = f(i) mod p
of a random degree t-1 polynomial with f(0) = x, written as k-bit
columns; any t decoded shares recover x by Lagrange interpolation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from .graphs import GraphError, Record, SimplicialGraph, random_graph
from .raag import Raag, is_trivial, sample_nontrivial_word, sample_trivial_word
from .words import Word, format_word, parse_word

BitColumn = tuple[int, ...]
WordColumn = tuple[Word, ...]

__all__ = [
    "BitColumn",
    "WordColumn",
    "SharingError",
    "DealerSetupNN",
    "ShamirSetup",
    "ShareNN",
    "ShareTN",
    "bit_column",
    "split_bits_nn",
    "reconstruct_nn",
    "encode_column",
    "decode_column",
    "is_prime",
    "shamir_split",
    "lagrange_reconstruct",
    "points_off_polynomial",
    "int_to_bits",
    "bits_to_int",
    "random_dealer_setup_nn",
    "random_participant_graphs",
    "deal_nn",
    "deal_tn",
    "decode_share_nn",
    "decode_share_tn",
    "format_share",
    "parse_share",
    "positive_int",
]

DEFAULT_WORD_LENGTH = 16


class SharingError(ValueError):
    """Raised for malformed sharing inputs or share files."""


def bit_column(bits: Iterable[int]) -> BitColumn:
    col = tuple(bits)
    if not col:
        raise SharingError("bit column must have length at least 1")
    if any(b not in (0, 1) for b in col):
        raise SharingError("bit column entries must be 0 or 1")
    return col


# ---------------------------------------------------------------------------
# (n,n): XOR splitting


def split_bits_nn(c: BitColumn, n: int, seed: int) -> list[BitColumn]:
    """Split a column into n columns with entrywise XOR equal to it.

    The first n-1 columns are uniform given the seed; the last is forced.
    """
    c = bit_column(c)
    if n < 2:
        raise SharingError("need at least 2 participants")
    rng = random.Random(seed)
    columns = [tuple(rng.getrandbits(1) for _ in c) for _ in range(n - 1)]
    return columns + [reconstruct_nn([c, *columns])]


def reconstruct_nn(columns: Sequence[BitColumn]) -> BitColumn:
    """Entrywise XOR of the given columns."""
    if not columns:
        raise SharingError("no columns to reconstruct from")
    k = len(columns[0])
    out = [0] * k
    for col in columns:
        if len(col) != k:
            raise SharingError("columns have mismatched lengths")
        for i, b in enumerate(col):
            out[i] ^= b
    return tuple(out)


# ---------------------------------------------------------------------------
# word encoding: bit 1 <-> trivial word


def encode_column(g: Raag, c: BitColumn, target_length: int, seed: int) -> WordColumn:
    """One word per bit: trivial in ``g`` iff the bit is 1."""
    c = bit_column(c)
    if target_length <= 0 or target_length % 2:
        raise SharingError("word length must be a positive even integer")
    rng = random.Random(seed)
    samplers = (sample_nontrivial_word, sample_trivial_word)
    return tuple(samplers[bit](g, target_length, rng.getrandbits(64)) for bit in c)


def decode_column(g: Raag, wc: WordColumn) -> BitColumn:
    """Bit i is 1 iff word i is trivial in ``g``."""
    return tuple(1 if is_trivial(g, w) else 0 for w in wc)


# ---------------------------------------------------------------------------
# (t,n): Shamir over Z_p


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..37, exact below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for a in bases:
        if p < 2 or p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in bases:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_modulus_and_threshold(p: int, t: int) -> None:
    """The rules the dealer and the reconstruction share: p prime < 2^64, t >= 2."""
    if p >= 1 << 64:
        raise SharingError(f"{p} is too large: need p < 2^64")
    if not is_prime(p):
        raise SharingError(f"{p} is not prime")
    if t < 2:
        raise SharingError("threshold must be at least 2")


class ShamirSetup(Record):
    """Dealer-side record of one (t,n) split; coefficients a_0 = secret, degree <= t-1."""

    __slots__ = ("p", "t", "n", "k", "secret", "coefficients")

    def __init__(self, p: int, t: int, n: int, k: int, secret: int, coefficients: tuple[int, ...]):
        self._set(p, t, n, k, secret, coefficients)
        _check_modulus_and_threshold(self.p, self.t)
        if self.t > self.n:
            raise SharingError("threshold must not exceed n")
        if not 0 <= self.secret < self.p:
            raise SharingError("secret must lie in Z_p")
        if self.k < (self.p - 1).bit_length():
            raise SharingError(f"k={self.k} too small: need 2^k >= p")
        if len(self.coefficients) > self.t:
            raise SharingError("polynomial degree exceeds t-1")
        if not self.coefficients or self.coefficients[0] != self.secret:
            raise SharingError("constant term must equal the secret")

    def evaluate(self, i: int) -> int:
        acc = 0
        for a in reversed(self.coefficients):
            acc = (acc * i + a) % self.p
        return acc


def shamir_split(x: int, p: int, t: int, n: int, seed: int,
                 k: int | None = None) -> tuple[ShamirSetup, list[tuple[int, int]]]:
    """Random degree t-1 polynomial with f(0) = x; points (i, f(i) mod p).

    Evaluation points are i = 1..n, so n < p is required to keep them
    distinct and nonzero mod p. ``k`` defaults to the fewest bits that hold
    every residue. ``ShamirSetup`` checks the other rules before any draw.
    """
    if n >= p:
        raise SharingError("need n < p for distinct nonzero evaluation points")
    if k is None:
        k = (p - 1).bit_length()
    ShamirSetup(p, t, n, k, x, (x,))  # checks the other rules before any draw
    rng = random.Random(seed)
    setup = ShamirSetup(p, t, n, k, x, (x,) + tuple(rng.randrange(p) for _ in range(t - 1)))
    points = [(i, setup.evaluate(i)) for i in range(1, n + 1)]
    return setup, points


def _check_points(points: Sequence[tuple[int, int]], p: int, t: int) -> None:
    _check_modulus_and_threshold(p, t)
    if len(points) < t:
        raise SharingError(f"need at least {t} points, got {len(points)}")
    indices = [i % p for i, _ in points]
    if len(set(indices)) != len(indices):
        raise SharingError("duplicate evaluation indices")
    if 0 in indices:
        raise SharingError("evaluation index divisible by p")
    if any(not 0 <= y < p for _, y in points):
        raise SharingError(f"share value outside Z_{p}")


def _interpolate(chosen: Sequence[tuple[int, int]], x: int, p: int) -> int:
    """f(x) over Z_p for the f of degree below ``len(chosen)`` through the chosen points."""
    acc = 0
    for i, y in chosen:
        num, den = 1, 1
        for j, _ in chosen:
            if j != i:
                num = (num * (x - j)) % p
                den = (den * (i - j)) % p
        acc = (acc + y * num * pow(den, -1, p)) % p
    return acc


def lagrange_reconstruct(points: Sequence[tuple[int, int]], p: int, t: int) -> int:
    """Interpolate f(0) from at least t points (i, y_i) over Z_p.

    When more than t points are given, the t with the lowest indices are
    used; indices must be distinct and nonzero mod p, and values in Z_p.
    ``points_off_polynomial`` checks the others.
    """
    chosen = sorted(points)[:t]
    _check_points(chosen, p, t)
    return _interpolate(chosen, 0, p)


def points_off_polynomial(points: Sequence[tuple[int, int]], p: int, t: int) -> list[int]:
    """The indices, ascending, of the points not on the polynomial of degree below t
    through the t points with the lowest indices (those ``lagrange_reconstruct`` uses).

    Empty when all of them lie on one such polynomial. Every point is checked as
    ``lagrange_reconstruct`` checks the t it uses. A wrong share among the lowest t
    moves the polynomial, so the indices named show that some share is wrong, not which.
    """
    ordered = sorted(points)
    _check_points(ordered, p, t)
    return [i for i, y in ordered[t:] if _interpolate(ordered[:t], i, p) != y]


def int_to_bits(y: int, k: int) -> BitColumn:
    """Big-endian k-bit encoding of 0 <= y < 2^k."""
    if k < 1:
        raise SharingError("bit width must be at least 1")
    if not 0 <= y < (1 << k):
        raise SharingError(f"{y} does not fit in {k} bits")
    return tuple((y >> (k - 1 - i)) & 1 for i in range(k))


def bits_to_int(c: BitColumn) -> int:
    return int("".join("01"[b] for b in bit_column(c)), 2)


# ---------------------------------------------------------------------------
# dealer flows


def _check_generators(generators: tuple[str, ...], graphs: Iterable[SimplicialGraph]) -> None:
    """The rules both dealers share: at least one generator, every graph on exactly those."""
    if not generators:
        raise SharingError("need at least one public generator")
    if any(g.vertices != generators for g in graphs):
        raise GraphError("participant graph must use exactly the public generators")


class DealerSetupNN(Record):
    """Public generators plus each participant's secret relator graph."""

    __slots__ = ("n", "k", "generators", "participant_graphs")

    def __init__(self, n: int, k: int, generators: tuple[str, ...],
                 participant_graphs: tuple[SimplicialGraph, ...]):
        self._set(n, k, generators, participant_graphs)
        if self.n < 2:
            raise SharingError("need at least 2 participants")
        if self.k < 1:
            raise SharingError("column length must be at least 1")
        if len(self.participant_graphs) != self.n:
            raise SharingError("need one secret graph per participant")
        _check_generators(self.generators, self.participant_graphs)


class ShareNN(Record):
    __slots__ = ("participant", "graph", "words")  # 1-based; secret; public
    scheme = "nn"
    header = ("participant", "k")  # share-file lines after the scheme line


class ShareTN(Record):
    __slots__ = ("participant", "graph", "words", "p", "t")  # participant: the evaluation point
    scheme = "tn"
    header = ("participant", "k", "p", "t")


def random_participant_graphs(n: int, num_generators: int, edge_prob: float,
                              seed: int) -> tuple[SimplicialGraph, ...]:
    """Independent random relator graphs on the same generators, one per participant."""
    if n < 2:
        raise SharingError("need at least 2 participants")
    if num_generators < 1:
        raise SharingError("need at least one public generator")
    rng = random.Random(seed)
    return tuple(random_graph(num_generators, edge_prob, rng.getrandbits(64))
                 for _ in range(n))


def random_dealer_setup_nn(n: int, k: int, num_generators: int, edge_prob: float,
                           seed: int) -> DealerSetupNN:
    """Fresh setup with independent random relator graphs per participant."""
    graphs = random_participant_graphs(n, num_generators, edge_prob, seed)
    return DealerSetupNN(n=n, k=k, generators=graphs[0].vertices,
                         participant_graphs=graphs)


def deal_nn(setup: DealerSetupNN, secret: BitColumn, seed: int,
            word_length: int = DEFAULT_WORD_LENGTH) -> list[ShareNN]:
    """Split the secret column and encode each split under its holder's graph. With the seed
    that drew the graphs, the split would follow participant 1's graph: draw ``seed`` apart."""
    secret = bit_column(secret)
    if len(secret) != setup.k:
        raise SharingError(f"secret column length {len(secret)} != k={setup.k}")
    rng = random.Random(seed)
    columns = split_bits_nn(secret, setup.n, rng.getrandbits(64))
    return [ShareNN(participant=j, graph=graph,
                    words=encode_column(Raag(graph), column, word_length, rng.getrandbits(64)))
            for j, (graph, column) in enumerate(zip(setup.participant_graphs, columns), start=1)]


def decode_share_nn(share: ShareNN) -> BitColumn:
    return decode_column(Raag(share.graph), share.words)


def deal_tn(participant_graphs: Sequence[SimplicialGraph], x: int, p: int, t: int,
            seed: int, k: int | None = None,
            word_length: int = DEFAULT_WORD_LENGTH) -> tuple[ShamirSetup, list[ShareTN]]:
    """Shamir-split the secret and word-encode each share's k-bit column. With the seed that
    drew the graphs, the polynomial would follow participant 1's graph: draw ``seed`` apart."""
    n = len(participant_graphs)
    rng = random.Random(seed)
    setup, points = shamir_split(x, p, t, n, rng.getrandbits(64), k=k)
    _check_generators(participant_graphs[0].vertices, participant_graphs)  # n >= t >= 2
    return setup, [ShareTN(participant=i, graph=graph, p=p, t=t,
                           words=encode_column(Raag(graph), int_to_bits(y, setup.k), word_length,
                                               rng.getrandbits(64)))
                   for (i, y), graph in zip(points, participant_graphs)]


def decode_share_tn(share: ShareTN) -> tuple[int, int]:
    """The participant's evaluation point: (i, y_i)."""
    column = decode_column(Raag(share.graph), share.words)
    y = bits_to_int(column)
    if y >= share.p:
        raise SharingError(f"decoded value {y} is not below the modulus {share.p}")
    return share.participant, y


# ---------------------------------------------------------------------------
# share files
#
#   scheme nn|tn
#   <key> <int>    one line per key of the share class's header, in order
#   <word per line, k lines; a blank line is the empty word>


def format_share(share: ShareNN | ShareTN) -> str:
    lines = [f"scheme {share.scheme}"] + [
        f"{key} {len(share.words) if key == 'k' else getattr(share, key)}" for key in share.header]
    lines.extend(map(format_word, share.words))
    return "\n".join(lines) + "\n"


def positive_int(key: str, value: str) -> int:
    """The value of a share or decoded-share header line ``<key> <value>``: a
    positive decimal integer, else SharingError."""
    if not value.isdecimal() or int(value) < 1:
        raise SharingError(f"expected '{key} <positive int>', got '{key} {value}'")
    return int(value)


def parse_share(text: str, graph: SimplicialGraph) -> ShareNN | ShareTN:
    """Parse a share file; needs the holder's secret graph to complete it.

    Every header value is a positive integer; p and t are checked against
    the Shamir rules where the shares are combined.
    """
    lines = text.splitlines()
    if not lines:
        raise SharingError("empty share file")
    classes = {f"scheme {c.scheme}": c for c in (ShareNN, ShareTN)}
    share_class = classes.get(" ".join(lines[0].split()))
    if share_class is None:
        raise SharingError(f"expected 'scheme nn|tn', got {lines[0]!r}")
    keys = share_class.header
    if len(lines) <= len(keys):
        raise SharingError("truncated share header")
    values = {}
    for key, line in zip(keys, lines[1:]):
        fields = line.split()
        if len(fields) != 2 or fields[0] != key:
            raise SharingError(f"expected '{key} <positive int>', got {line!r}")
        values[key] = positive_int(key, fields[1])
    k = values.pop("k")
    body = lines[len(keys) + 1:]
    if len(body) < k:
        raise SharingError(f"expected {k} word lines, got {len(body)}")
    extra = [l for l in body[k:] if l.strip()]
    if extra:
        raise SharingError(f"unexpected trailing content {extra[0]!r}")
    words = tuple(map(parse_word, body[:k]))
    return share_class(graph=graph, words=words, **values)
