"""Words over signed group generators.

A letter is a ``(generator, sign)`` pair with sign +1 or -1; a word is a
tuple of letters. Words are plain immutable values with no attached
graph; which group a word lives in is decided at the operation that
consumes it.

Text format: whitespace-separated tokens, ``v`` for a generator and
``v^-1`` for its inverse. The empty line (or file) is the empty word.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

Letter = tuple[str, int]
Word = tuple[Letter, ...]

__all__ = [
    "Letter",
    "Word",
    "WordError",
    "letter",
    "word",
    "free_reduce",
    "invert",
    "concat",
    "exponent_sums",
    "parse_word",
    "format_word",
]


class WordError(ValueError):
    """Raised for malformed letters, tokens, or unknown generators."""


def letter(generator: str, sign: int) -> Letter:
    if not isinstance(sign, int) or sign not in (1, -1):
        raise WordError(f"letter sign must be +1 or -1, got {sign!r}")
    if not generator:
        raise WordError("empty generator label")
    return (generator, sign)


def word(letters: Iterable[Letter]) -> Word:
    return tuple(letter(g, s) for g, s in letters)


def free_reduce(w: Word) -> Word:
    """Delete adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for g, s in w:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def invert(w: Word) -> Word:
    """The group inverse: reversed sequence with all signs flipped."""
    return tuple((g, -s) for g, s in reversed(w))


def concat(*ws: Word) -> Word:
    """Syntactic concatenation; performs no reduction."""
    return tuple(l for w in ws for l in w)


def exponent_sums(w: Word) -> dict[str, int]:
    """Signed occurrence count of each generator (the abelianized image)."""
    sums: dict[str, int] = {}
    for g, s in w:
        sums[g] = sums.get(g, 0) + s
    return sums


@lru_cache(maxsize=4096)
def _token_letter(token: str) -> Letter:
    """One token's letter, else WordError. Memoized; a failure is never cached."""
    base, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
    if not base or "^" in base or "#" in base:
        raise WordError(f"malformed word token {token!r}")
    return (base, sign)


def parse_word(text: str) -> Word:
    return tuple(map(_token_letter, text.split()))


_SUFFIX = {1: "", -1: "^-1"}  # a letter's text after its generator, by sign


def format_word(w: Word) -> str:
    """The text form; a letter that ``letter`` refuses raises its WordError."""
    try:
        parts = [g + _SUFFIX[s] for g, s in w if g and isinstance(s, int)]
    except KeyError:  # an int sign other than +1/-1
        parts = ()
    if len(parts) < len(w):
        word(w)  # raises at the first malformed letter
    return " ".join(parts)
