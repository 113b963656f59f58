import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from raagcrypt import sharing
from raagcrypt.graphs import GraphError, SimplicialGraph, random_graph
from raagcrypt.raag import Raag, is_trivial, sample_nontrivial_word, sample_trivial_word
from raagcrypt.sharing import (
    DealerSetupNN,
    ShamirSetup,
    SharingError,
    bits_to_int,
    decode_column,
    decode_share_nn,
    decode_share_tn,
    deal_nn,
    deal_tn,
    encode_column,
    format_share,
    int_to_bits,
    is_prime,
    lagrange_reconstruct,
    parse_share,
    points_off_polynomial,
    random_dealer_setup_nn,
    reconstruct_nn,
    shamir_split,
    split_bits_nn,
)

bit_columns = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=16).map(tuple)


class TestSplitNN:
    @given(bit_columns, st.integers(2, 6), st.integers(0, 2**32))
    def test_split_xors_back_to_secret(self, c, n, seed):
        columns = split_bits_nn(c, n, seed)
        assert len(columns) == n
        assert reconstruct_nn(columns) == c

    def test_two_way_split_is_xor_complement(self):
        c = (1, 0, 1)
        first, second = split_bits_nn(c, 2, 9)
        assert tuple(a ^ b for a, b in zip(first, second)) == c

    def test_all_zero_secret(self):
        columns = split_bits_nn((0, 0, 0, 0), 3, 4)
        assert reconstruct_nn(columns) == (0, 0, 0, 0)

    def test_deterministic(self):
        assert split_bits_nn((1, 0), 4, 5) == split_bits_nn((1, 0), 4, 5)

    def test_proper_subsets_leak_only_when_complement_is_zero(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 5)
            k = rng.randint(1, 6)
            secret = tuple(rng.getrandbits(1) for _ in range(k))
            columns = split_bits_nn(secret, n, rng.getrandbits(32))
            for size in range(1, n):
                for subset in itertools.combinations(range(n), size):
                    inside = reconstruct_nn([columns[i] for i in subset])
                    outside = reconstruct_nn([columns[i] for i in range(n)
                                              if i not in subset])
                    assert (inside == secret) == all(b == 0 for b in outside)

    def test_validation(self):
        with pytest.raises(SharingError):
            split_bits_nn((1, 0), 1, 0)
        with pytest.raises(SharingError):
            split_bits_nn((), 2, 0)
        with pytest.raises(SharingError):
            split_bits_nn((2, 0), 2, 0)


class TestReconstructNN:
    def test_single_column(self):
        assert reconstruct_nn([(1, 1, 0)]) == (1, 1, 0)

    def test_known_xor(self):
        assert reconstruct_nn([(1, 1, 0), (0, 1, 1)]) == (1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(SharingError):
            reconstruct_nn([(1, 0), (1,)])

    def test_no_columns(self):
        with pytest.raises(SharingError):
            reconstruct_nn([])


class TestWordEncoding:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(40):
            g = Raag(random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32)))
            column = tuple(rng.getrandbits(1) for _ in range(rng.randint(1, 8)))
            wc = encode_column(g, column, 12, rng.getrandbits(32))
            assert decode_column(g, wc) == column

    def test_all_ones_gives_all_trivial_words(self):
        g = Raag(random_graph(4, 0.5, 3))
        wc = encode_column(g, (1, 1, 1), 10, 5)
        assert all(is_trivial(g, w) for w in wc)

    def test_empty_words_decode_to_ones(self):
        g = Raag(random_graph(3, 0.5, 3))
        assert decode_column(g, ((), (), ())) == (1, 1, 1)

    def test_single_letters_decode_to_zeros(self):
        g = Raag(random_graph(3, 0.5, 3))
        assert decode_column(g, ((("v0", 1),), (("v2", -1),))) == (0, 0)

    def test_wrong_graph_can_flip_bits(self):
        # a conjugated defining commutator of the edge graph is nontrivial
        # once the edge is removed
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        g_missing = SimplicialGraph(("a", "b"))
        w = (("b", -1), ("a", 1), ("b", 1), ("a", -1), ("b", -1), ("b", 1))
        assert decode_column(Raag(g), (w,)) == (1,)
        assert decode_column(Raag(g_missing), (w,)) == (0,)

    def test_encode_then_decode_under_sparser_graph_mismatch(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        sparser = SimplicialGraph(("a", "b", "c"), [("b", "c")])
        column = (1, 1, 1, 1, 1, 1)
        wc = encode_column(Raag(g), column, 12, seed=2020)
        assert decode_column(Raag(g), wc) == column
        assert decode_column(Raag(sparser), wc) != column

    def test_determinism(self):
        g = Raag(random_graph(4, 0.5, 8))
        assert encode_column(g, (1, 0), 10, 7) == encode_column(g, (1, 0), 10, 7)

    def test_word_length_must_be_even(self):
        g = Raag(random_graph(4, 0.5, 8))
        with pytest.raises(SharingError):
            encode_column(g, (1, 0), 9, 7)
        with pytest.raises(SharingError):
            encode_column(g, (1, 0), 0, 7)


class TestPrimes:
    def test_small_primes(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        sieve = [False, False] + [True] * (10 ** 5 - 1)  # Eratosthenes up to 10^5
        for d in range(2, 317):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(sieve[d * d::d])
        assert [p for p in range(10 ** 5 + 1) if is_prime(p)] == \
            [p for p, prime in enumerate(sieve) if prime]
        assert is_prime(2 ** 61 - 1)

    def test_not_prime(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(91)  # 7 * 13
        assert not is_prime(561)  # a Carmichael number
        assert not is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7


class TestShamir:
    def test_known_polynomial(self):
        # f(X) = 3 + 2X over Z_7: f(1) = 5, f(2) = 0
        setup = ShamirSetup(p=7, t=2, n=2, k=3, secret=3, coefficients=(3, 2))
        assert setup.evaluate(1) == 5
        assert setup.evaluate(2) == 0
        assert lagrange_reconstruct([(1, 5), (2, 0)], 7, 2) == 3

    def test_split_postconditions(self):
        setup, points = shamir_split(4, 11, 3, 5, seed=77)
        assert setup.coefficients[0] == 4
        assert len(setup.coefficients) == 3
        assert points == [(i, setup.evaluate(i)) for i in range(1, 6)]

    def test_round_trip_over_corpus(self):
        rng = random.Random(41)
        for _ in range(100):
            p = rng.choice([7, 11, 13, 17, 101])
            n = rng.randint(2, min(6, p - 1))
            t = rng.randint(2, n)
            x = rng.randrange(p)
            _, points = shamir_split(x, p, t, n, rng.getrandbits(32))
            chosen = rng.sample(points, t)
            assert lagrange_reconstruct(chosen, p, t) == x

    def test_every_t_subset_reconstructs(self):
        _, points = shamir_split(9, 13, 2, 5, seed=3)
        for subset in itertools.combinations(points, 2):
            assert lagrange_reconstruct(list(subset), 13, 2) == 9

    def test_constant_points(self):
        assert lagrange_reconstruct([(1, 4), (2, 4), (3, 4)], 7, 3) == 4

    def test_extra_points_lowest_indices_win(self):
        # (1,5),(2,0) lie on 3+2X mod 7; the point at 9 is junk and ignored
        assert lagrange_reconstruct([(9, 1), (2, 0), (1, 5)], 7, 2) == 3

    def test_points_off_polynomial(self):
        # (1,5),(2,0) lie on 3+2X mod 7, so f(3) = 2 and f(4) = 4
        assert points_off_polynomial([(4, 4), (2, 0), (1, 5), (3, 2)], 7, 2) == []
        assert points_off_polynomial([(4, 4), (2, 0), (1, 5), (3, 3)], 7, 2) == [3]
        # a wrong share among the lowest t moves the polynomial: the right ones are named
        assert points_off_polynomial([(1, 6), (2, 0), (3, 2), (4, 4)], 7, 2) == [3, 4]
        _, points = shamir_split(9, 13, 3, 6, seed=5)
        assert points_off_polynomial(points[::-1], 13, 3) == []
        # every point is checked, not only the t that lagrange_reconstruct reads
        for points, p, message in [([(1, 5), (2, 0), (9, 1)], 7, "duplicate evaluation indices"),
                                   ([(1, 5), (2, 0), (7, 1)], 7, "divisible by p"),
                                   ([(1, 5), (2, 0), (3, 7)], 7, "outside Z_7"),
                                   ([(1, 5)], 7, "need at least 2 points"),
                                   ([(1, 5), (2, 0)], 8, "8 is not prime")]:
            with pytest.raises(SharingError, match=message):
                points_off_polynomial(points, p, 2)

    def test_setup_invariants_enforced(self):
        with pytest.raises(SharingError):
            ShamirSetup(p=8, t=2, n=3, k=3, secret=1, coefficients=(1, 2))
        with pytest.raises(SharingError):
            ShamirSetup(p=7, t=2, n=3, k=3, secret=1, coefficients=(2, 2))
        with pytest.raises(SharingError):
            ShamirSetup(p=7, t=2, n=3, k=3, secret=1, coefficients=(1, 2, 3))
        with pytest.raises(SharingError):
            ShamirSetup(p=7, t=2, n=3, k=2, secret=1, coefficients=(1, 2))

    def test_validation(self):
        with pytest.raises(SharingError):
            shamir_split(1, 8, 2, 3, 0)  # composite modulus
        with pytest.raises(SharingError):
            shamir_split(1, 7, 1, 3, 0)  # threshold too small
        with pytest.raises(SharingError):
            shamir_split(1, 7, 4, 3, 0)  # threshold above n
        with pytest.raises(SharingError):
            shamir_split(1, 7, 2, 7, 0)  # n >= p
        with pytest.raises(SharingError):
            shamir_split(9, 7, 2, 3, 0)  # secret outside Z_p
        with pytest.raises(SharingError):
            shamir_split(1, 7, 2, 3, 0, k=2)  # 2^2 < 7
        with pytest.raises(SharingError, match="k=-1 too small"):
            shamir_split(1, 7, 2, 3, 0, k=-1)
        with pytest.raises(SharingError):
            lagrange_reconstruct([(1, 5)], 7, 2)
        with pytest.raises(SharingError):
            lagrange_reconstruct([(1, 5), (1, 5)], 7, 2)

    def test_reconstruct_applies_setup_rules(self):
        with pytest.raises(SharingError, match="not prime"):
            lagrange_reconstruct([(1, 1), (2, 2)], 12, 2)
        with pytest.raises(SharingError, match="at least 2"):
            lagrange_reconstruct([(1, 5)], 7, 1)
        for y in (7, -1):
            with pytest.raises(SharingError, match="outside Z_7"):
                lagrange_reconstruct([(1, 5), (2, y)], 7, 2)

    def test_single_share_secrecy_by_enumeration(self):
        # with t=2, one share (i, y) is consistent with every candidate
        # secret for exactly one coefficient choice
        for p in (7, 11, 13):
            _, points = shamir_split(5 % p, p, 2, 3, seed=8)
            i, y = points[0]
            for candidate in range(p):
                consistent = [a for a in range(p) if (candidate + a * i) % p == y]
                assert len(consistent) == 1


class TestBits:
    def test_known_encoding(self):
        assert int_to_bits(5, 4) == (0, 1, 0, 1)

    def test_zero(self):
        assert int_to_bits(0, 6) == (0,) * 6

    def test_round_trip_exhaustive(self):
        for k in range(1, 11):
            for y in range(1 << k):
                assert bits_to_int(int_to_bits(y, k)) == y

    def test_overflow(self):
        with pytest.raises(SharingError):
            int_to_bits(16, 4)
        with pytest.raises(SharingError):
            int_to_bits(-1, 4)
        with pytest.raises(SharingError):
            int_to_bits(0, 0)


class TestDealNN:
    def test_full_round_trip(self):
        rng = random.Random(51)
        for _ in range(15):
            n = rng.randint(2, 5)
            k = rng.randint(1, 8)
            setup = random_dealer_setup_nn(n, k, rng.randint(2, 5), rng.random(),
                                           rng.getrandbits(32))
            secret = tuple(rng.getrandbits(1) for _ in range(k))
            shares = deal_nn(setup, secret, rng.getrandbits(32), word_length=10)
            columns = [decode_share_nn(s) for s in shares]
            assert reconstruct_nn(columns) == secret

    def test_two_participant_single_bit(self):
        setup = random_dealer_setup_nn(2, 1, 3, 0.5, 7)
        shares = deal_nn(setup, (1,), 8)
        a, b = (decode_share_nn(s) for s in shares)
        assert a[0] ^ b[0] == 1

    def test_setup_validation(self):
        g = random_graph(3, 0.5, 1)
        with pytest.raises(SharingError):
            DealerSetupNN(n=1, k=2, generators=g.vertices, participant_graphs=(g,))
        with pytest.raises(SharingError):
            DealerSetupNN(n=2, k=0, generators=g.vertices, participant_graphs=(g, g))
        with pytest.raises(SharingError):
            DealerSetupNN(n=3, k=2, generators=g.vertices, participant_graphs=(g, g))
        other = random_graph(4, 0.5, 2)
        with pytest.raises(ValueError):
            DealerSetupNN(n=2, k=2, generators=g.vertices, participant_graphs=(g, other))

    def test_secret_length_must_match_k(self):
        setup = random_dealer_setup_nn(2, 3, 3, 0.5, 7)
        with pytest.raises(SharingError):
            deal_nn(setup, (1, 0), 8)

    def test_deterministic_share_files(self):
        setup = random_dealer_setup_nn(3, 4, 4, 0.5, 70)
        a = [format_share(s) for s in deal_nn(setup, (1, 0, 1, 1), 71)]
        b = [format_share(s) for s in deal_nn(setup, (1, 0, 1, 1), 71)]
        assert a == b
        c = [format_share(s) for s in deal_nn(setup, (1, 0, 1, 1), 72)]
        assert a != c


class TestDealTN:
    def test_full_round_trip_all_subsets(self):
        rng = random.Random(61)
        graphs = [random_graph(4, 0.5, rng.getrandbits(32)) for _ in range(3)]
        setup, shares = deal_tn(graphs, x=5, p=7, t=2, seed=62, word_length=10)
        assert setup.k == 3
        points = [decode_share_tn(s) for s in shares]
        for subset in itertools.combinations(points, 2):
            assert lagrange_reconstruct(list(subset), 7, 2) == 5

    def test_decoded_value_below_modulus(self):
        g = random_graph(3, 0.5, 5)
        _, shares = deal_tn([g, g, g], x=6, p=7, t=2, seed=9)
        for s in shares:
            _, y = decode_share_tn(s)
            assert 0 <= y < 7

    def test_out_of_range_decode_rejected(self):
        g = SimplicialGraph(("a",))
        # three empty words decode to 111 = 7, not a residue mod 7
        share = sharing.ShareTN(participant=1, graph=g, words=((), (), ()), p=7, t=2)
        with pytest.raises(SharingError):
            decode_share_tn(share)

    def test_explicit_bit_width(self):
        g = random_graph(3, 0.5, 5)
        setup, shares = deal_tn([g, g, g], x=2, p=7, t=2, seed=9, k=5, word_length=8)
        assert setup.k == 5
        assert all(len(s.words) == 5 for s in shares)

    def test_participant_graphs_must_share_the_generators(self):
        # the rule DealerSetupNN applies to (n,n) dealing: one public alphabet for every share
        g = random_graph(4, 0.5, 5)  # v0..v3
        other = SimplicialGraph(("x", "y", "z"), [("x", "y")])
        for graphs in ([g, other, g], [g, g, random_graph(3, 0.5, 5)]):
            with pytest.raises(GraphError, match="exactly the public generators"):
                deal_tn(graphs, x=2, p=7, t=2, seed=9)
        empty = SimplicialGraph(())
        with pytest.raises(SharingError, match="need at least one public generator"):
            deal_tn([empty, empty], x=2, p=7, t=2, seed=9)


class TestShareFiles:
    def test_nn_round_trip(self):
        setup = random_dealer_setup_nn(2, 3, 3, 0.4, 12)
        share = deal_nn(setup, (1, 0, 1), 13, word_length=8)[0]
        parsed = parse_share(format_share(share), share.graph)
        assert parsed == share

    def test_tn_round_trip(self):
        g = random_graph(3, 0.5, 5)
        _, shares = deal_tn([g, g, g], x=3, p=11, t=2, seed=14, word_length=8)
        for share in shares:
            parsed = parse_share(format_share(share), g)
            assert parsed == share

    def test_blank_line_is_empty_word(self):
        g = SimplicialGraph(("a",))
        text = "scheme nn\nparticipant 1\nk 2\n\na a^-1\n"
        share = parse_share(text, g)
        assert share.words == ((), (("a", 1), ("a", -1)))

    def test_parse_errors(self):
        g = SimplicialGraph(("a",))
        with pytest.raises(SharingError):
            parse_share("", g)
        with pytest.raises(SharingError):
            parse_share("scheme xx\nparticipant 1\nk 1\na\n", g)
        with pytest.raises(SharingError):
            parse_share("scheme nn\nparticipant 1\nk 2\na\n", g)  # too few words
        with pytest.raises(SharingError):
            parse_share("scheme nn\nparticipant 1\nk 1\na\nb\n", g)  # trailing junk
        with pytest.raises(SharingError):
            parse_share("scheme nn\nparticipant x\nk 1\na\n", g)
        with pytest.raises(SharingError):
            parse_share("scheme tn\nparticipant 1\nk 1\na\n", g)  # missing p, t

    def test_header_values_are_positive(self):
        g = SimplicialGraph(("a",))
        for header in ("participant 1\nk 0\n", "participant 0\nk 1\n", "participant -3\nk 1\n",
                       "participant 1\nk +1\n"):
            with pytest.raises(SharingError, match="positive int"):
                parse_share("scheme nn\n" + header + "a\n", g)
        with pytest.raises(SharingError, match="'p <positive int>'"):
            parse_share("scheme tn\nparticipant 1\nk 1\np 0\nt 2\na\n", g)


class TestWordsGolden:
    # a digest over sampled words and share files: a change that only speeds
    # the sampler or the word codec up leaves it as is
    DIGEST = "3c839ed6bc11c806abde2b122ba5d4ac7fcf5ab16093010db57a439735b860bc"

    def test_words_and_shares_are_pinned(self):
        h = hashlib.sha256()

        def add(text):
            h.update(text.encode())
            h.update(b"\0")

        letters = ("a", "b", "c", "d", "e")
        graphs = [SimplicialGraph(("a",)), SimplicialGraph(letters),
                  SimplicialGraph(letters, itertools.combinations(letters, 2)),
                  random_graph(10, 0.5, 31), random_graph(64, 0.8, 32)]
        for g in graphs:
            raag = Raag(g)
            for seed in range(12):
                for length in (2, 4, 6, 16, 50):
                    add(repr(sample_trivial_word(raag, length, seed)))
                for length in (1, 2, 3, 7, 16, 51):
                    add(repr(sample_nontrivial_word(raag, length, seed)))
        setup = random_dealer_setup_nn(3, 8, 6, 0.5, 33)
        tn_graphs = [random_graph(7, 0.4, 34 + i) for i in range(4)]
        for seed in range(3):
            for share in deal_nn(setup, (1, 0, 1, 1, 0, 0, 1, 0), seed, word_length=12):
                add(format_share(share))
            _, shares = deal_tn(tn_graphs, x=40, p=97, t=3, seed=seed, word_length=10)
            for share in shares:
                add(format_share(share))
        assert h.hexdigest() == self.DIGEST
