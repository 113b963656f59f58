import pytest
from hypothesis import given, strategies as st

from raagcrypt import words as words_module
from raagcrypt.words import (
    WordError,
    _token_letter,
    concat,
    exponent_sums,
    format_word,
    free_reduce,
    invert,
    letter,
    parse_word,
    word,
)

labels = st.sampled_from(["a", "b", "c", "v0", "v1", "x"])
letters = st.tuples(labels, st.sampled_from([1, -1]))
words = st.lists(letters, max_size=30).map(tuple)


def test_free_reduce_cancels_pair():
    assert free_reduce((("a", 1), ("a", -1))) == ()


def test_free_reduce_inner_pair():
    w = (("a", 1), ("b", 1), ("b", -1), ("a", 1))
    assert free_reduce(w) == (("a", 1), ("a", 1))


def test_free_reduce_leaves_reduced_word_alone():
    w = (("a", 1), ("b", 1), ("a", -1))
    assert free_reduce(w) == w


@given(words)
def test_free_reduce_is_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


def test_invert():
    assert invert((("a", 1), ("b", 1))) == (("b", -1), ("a", -1))
    assert invert(()) == ()


@given(words)
def test_invert_is_an_involution(w):
    assert invert(invert(w)) == w


@given(words)
def test_word_times_inverse_reduces_to_nothing(w):
    assert free_reduce(concat(w, invert(w))) == ()


def test_concat_is_syntactic():
    assert concat((("a", 1),), (("a", -1),)) == (("a", 1), ("a", -1))


def test_exponent_sums():
    w = (("a", 1), ("b", -1), ("a", 1), ("b", 1))
    assert exponent_sums(w) == {"a": 2, "b": 0}


def test_letter_validation():
    assert letter("a", -1) == ("a", -1)
    with pytest.raises(WordError):
        letter("a", 2)
    with pytest.raises(WordError):
        letter("", 1)


class TestTextFormat:
    def test_parse(self):
        assert parse_word("a b^-1  c") == (("a", 1), ("b", -1), ("c", 1))

    def test_empty_is_empty_word(self):
        assert parse_word("") == ()
        assert parse_word("  \n ") == ()
        assert format_word(()) == ""

    def test_malformed_tokens(self):
        for bad in ("a^2", "a^", "^-1", "a^-1x", "a#b"):
            with pytest.raises(WordError):
                parse_word(bad)

    @given(words)
    def test_round_trip_is_byte_exact(self, w):
        text = format_word(w)
        assert parse_word(text) == w
        assert format_word(parse_word(text)) == text

    def test_format_rejects_a_sign_other_than_one(self):
        # any sign but +1 used to be written as an inverse, saving another word
        for bad in ((("a", 0), ("b", 2)), (("a", 1), ("b", 2)), (("a", -2),)):
            with pytest.raises(WordError, match="letter sign must be \\+1 or -1"):
                format_word(bad)
        with pytest.raises(WordError, match="got 0"):
            format_word((("a", 0), ("b", 2)))

    def test_format_refuses_what_letter_refuses(self):
        # a float sign equal to +1/-1 used to format as an int one
        for bad in ((("a", 1.0), ("b", -1)), (("a", 1), ("b", -1.0)), (("", 1),)):
            with pytest.raises(WordError) as caught:
                format_word(bad)
            with pytest.raises(WordError) as expected:
                word(bad)
            assert str(caught.value) == str(expected.value)
        assert format_word((("a", True), ("b", -1))) == "a b^-1"

    @pytest.mark.parametrize("label", ["a b", "a\tb", "a\n", "x#", "#", "a^-1", "^", "", 5, None])
    def test_format_and_word_refuse_a_bad_label_alike(self, label):
        # format_word used to write ("a^-1", 1) as "a^-1", which parse_word reads as ("a", -1)
        for sign in (1, -1):
            with pytest.raises(WordError) as caught:
                format_word((("a", 1), (label, sign)))
            with pytest.raises(WordError) as expected:
                word((("a", 1), (label, sign)))
            assert str(caught.value) == str(expected.value)

    @given(st.lists(st.tuples(st.text("ab^#-1 \t\né\x00", max_size=4),
                              st.sampled_from([1, -1])), max_size=6).map(tuple))
    def test_every_word_format_writes_reads_back(self, w):
        try:
            text = format_word(w)
        except WordError as e:
            with pytest.raises(WordError) as expected:
                word(w)
            assert str(e) == str(expected.value)
        else:
            assert parse_word(text) == w


class TestTokenCache:
    def test_malformed_token_raises_the_same_on_every_call(self):
        assert parse_word("a") == (("a", 1),)
        for bad in ("a^2", "^-1", "a#", "a^-1^-1"):
            for _ in range(2):
                with pytest.raises(WordError) as caught:
                    parse_word(f"a {bad}")
                assert str(caught.value) == f"malformed word token {bad!r}"
        assert parse_word("a a^-1") == (("a", 1), ("a", -1))

    def test_more_tokens_than_the_cache_holds(self):
        bound = _token_letter.cache_info().maxsize
        labels = [f"t{i}" for i in range(bound + 100)]
        text = " ".join(f"{v} {v}^-1" for v in labels)
        expected = tuple(l for v in labels for l in ((v, 1), (v, -1)))
        assert parse_word(text) == expected
        assert parse_word(text) == expected
        assert _token_letter.cache_info().currsize <= bound


class TestCheckedLabels:
    def test_more_labels_than_the_checked_set_holds(self):
        # format_word remembers the labels that passed the label rule, and empties that set
        # when a word brings a new label while it holds more than 4,096
        checked = words_module._CHECKED
        labels = [f"f{i}" for i in range(4200)]
        w = tuple((v, (-1) ** i) for i, v in enumerate(labels))
        assert parse_word(format_word(w)) == w
        assert len(checked) >= 4200
        bad = (("f0", 1), ("a b", -1))
        with pytest.raises(WordError) as caught:
            format_word(bad)  # emptied first, then the bad label refused: nothing added
        with pytest.raises(WordError) as expected:
            word(bad)
        assert str(caught.value) == str(expected.value) and not checked
        for i in range(0, 4200, 100):
            chunk = w[i:i + 100]
            assert parse_word(format_word(chunk)) == chunk
        # the 42nd chunk found 4,100 labels held, so it emptied the set and holds alone
        assert checked == set(labels[4100:])
        with pytest.raises(WordError, match="forbidden character"):
            format_word((("f4100", 1), ("f#", 1)))
