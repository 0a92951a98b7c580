"""Words over a signed generator alphabet.

A word is a finite sequence of nonzero integers: letter ``i > 0`` is the
generator ``x_i``, letter ``-i`` is its inverse.  Words carry an explicit
rank (alphabet size) so that mixing alphabets is an error, not a silent
bug.  Words are immutable; reduction is an operation, not an invariant,
because several callers (random sampling, ciphertext rewriting) need the
raw unreduced sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ParseError, RangeError, RankError


@dataclass(frozen=True)
class Word:
    """A word over the alphabet {x_1..x_rank} and inverses."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RankError(f"rank must be positive, got {self.rank}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise RankError(f"letter {letter} outside alphabet of rank {self.rank}")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], rank: int) -> Word:
        """Unchecked constructor for internal code whose letters are in
        range by construction; everything else goes through ``Word(...)``."""
        w = object.__new__(cls)
        d = w.__dict__
        d["letters"] = letters
        d["rank"] = rank
        return w

    def __len__(self) -> int:
        return len(self.letters)


def inverse_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of the formal inverse: reversed, each sign flipped."""
    return tuple([-l for l in reversed(letters)])


def empty_word(rank: int) -> Word:
    return Word((), rank)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain (free normal form)."""
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return Word._trusted(tuple(stack), w.rank)


def multiply(a: Word, b: Word) -> Word:
    """Reduced product ab."""
    if a.rank != b.rank:
        raise RankError(f"rank mismatch: {a.rank} vs {b.rank}")
    return free_reduce(Word._trusted(a.letters + b.letters, a.rank))


def invert(w: Word) -> Word:
    """Reversed, sign-flipped, reduced inverse."""
    return free_reduce(Word._trusted(inverse_letters(w.letters), w.rank))


def random_word(rank: int, len_range: tuple[int, int], rng: random.Random) -> Word:
    """Uniform random word: length uniform over the inclusive range, each
    letter uniform over the 2*rank signed indices.  Not reduced on output;
    callers that need the free normal form reduce explicitly.
    """
    lo, hi = len_range
    if lo < 0 or hi < lo:
        raise RangeError(f"empty length range [{lo}, {hi}]")
    if rank < 1:
        raise RankError(f"rank must be positive, got {rank}")
    length = rng.randint(lo, hi)
    letters = []
    for _ in range(length):
        v = rng.randrange(2 * rank)
        letters.append(v // 2 + 1 if v % 2 == 0 else -(v // 2 + 1))
    return Word._trusted(tuple(letters), rank)


def random_reduced_word(rank: int, len_range: tuple[int, int], rng: random.Random) -> Word:
    """Random word with no adjacent cancelling pair (length is exact)."""
    lo, hi = len_range
    if lo < 0 or hi < lo:
        raise RangeError(f"empty length range [{lo}, {hi}]")
    if rank < 1:
        raise RankError(f"rank must be positive, got {rank}")
    length = rng.randint(lo, hi)
    letters: list[int] = []
    while len(letters) < length:
        v = rng.randrange(2 * rank)
        letter = v // 2 + 1 if v % 2 == 0 else -(v // 2 + 1)
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return Word._trusted(tuple(letters), rank)


def serialize_word(w: Word) -> str:
    """Canonical text form: comma-separated signed indices, "e" if empty."""
    if not w.letters:
        return "e"
    return ",".join(str(l) for l in w.letters)


def parse_word(text: str, rank: int) -> Word:
    """Parse the canonical text form against a fixed alphabet size."""
    text = text.strip()
    if text == "e":
        return empty_word(rank)
    if not text:
        raise ParseError("empty word text (use 'e' for the identity)")
    letters = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"non-integer token {token!r}") from None
        if value == 0:
            raise ParseError("zero is not a valid letter")
        if abs(value) > rank:
            raise ParseError(f"letter {value} outside alphabet of rank {rank}")
        letters.append(value)
    return Word(tuple(letters), rank)


# ---------------------------------------------------------------------------
# generator-image maps

@dataclass(frozen=True)
class GenMap:
    """A generator-image map: x_i of the source goes to images[i-1]."""

    from_gens: int
    to_gens: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.from_gens:
            raise RankError("need one image per source generator")
        for img in self.images:
            if img.rank != self.to_gens:
                raise RankError("image rank does not match target alphabet")

    @classmethod
    def _trusted(cls, from_gens: int, to_gens: int, images: tuple[Word, ...]) -> GenMap:
        """Unchecked constructor: one image of rank ``to_gens`` per source
        generator, by construction."""
        m = object.__new__(cls)
        d = m.__dict__
        d["from_gens"] = from_gens
        d["to_gens"] = to_gens
        d["images"] = images
        return m


def apply_map(m: GenMap, w: Word) -> Word:
    """Substitute images for letters and freely reduce."""
    if w.rank > m.from_gens:
        raise RankError(f"word rank {w.rank} exceeds map domain {m.from_gens}")
    images = m.images
    letters: list[int] = []
    for letter in w.letters:
        if letter > 0:
            letters.extend(images[letter - 1].letters)
        else:
            letters.extend(inverse_letters(images[-letter - 1].letters))
    return free_reduce(Word._trusted(tuple(letters), m.to_gens))


# ---------------------------------------------------------------------------
# key files: the one line reader every text format is built on

def read_fields(
    text: str, cuts: tuple[str, ...] = (), comments: bool = False
) -> list[list[tuple[str, str]]]:
    """The non-blank lines of a key file as (key, value) fields, in blocks.

    'key: value' splits at the first colon, a '[name]' line is ('[name]',
    '') and any other line is ('', line).  A field whose key is in
    ``cuts`` opens a new block; the first block holds the fields before
    any cut.  With ``comments``, lines starting with '#' are skipped.
    """
    blocks: list[list[tuple[str, str]]] = [[]]
    for line in text.splitlines():
        line = line.strip()
        if not line or (comments and line.startswith("#")):
            continue
        key, colon, value = line.partition(":")
        if line.startswith("[") and line.endswith("]"):
            key, value = line, ""
        elif not colon:
            key, value = "", line
        field = (key.strip(), value.strip())
        if field[0] in cuts:
            blocks.append([])
        blocks[-1].append(field)
    return blocks


def one_field(fields, key: str, optional: bool = False) -> str | None:
    """The value of the one 'key:' line in ``fields`` (None if there is
    none and it is ``optional``)."""
    values = [v for k, v in fields if k == key]
    if len(values) > 1 or not (values or optional):
        raise ParseError(f"expected one '{key}:' line, found {len(values)}")
    return values[0] if values else None


def int_value(key: str, value: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an integer in [lo, hi] (each end optional)."""
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"'{key}:' needs an integer, got {value!r}") from None
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        span = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ParseError(f"'{key}:' must be {span}, got {n}")
    return n


def cyclic_reduce(w: Word) -> Word:
    """Strip matching inverse pairs from both ends of the reduced form."""
    letters = free_reduce(w).letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return Word._trusted(letters[i:j], w.rank)
