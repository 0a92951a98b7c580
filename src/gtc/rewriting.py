"""Relator-preserving word rewriting.

Moves operate on raw (unreduced) words and never change the element the
word represents in the group presented by the ambient presentation:
inserting h h^-1, inserting a conjugated relator, or replacing a subword
across a relator occurrence.  Used by the trivial-word sampler of the
word-problem scheme and by ciphertext randomization.  Each move checks
once that its words and relator share w's alphabet (RankError if not),
then builds its result from letters in range by construction.  Only a
substitution reads Presentation.relator_rotations (its first use builds
it), so its legality check is one free reduction and a set lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MoveError, RankError
from .tietze import Presentation
from .words import Word, cyclic_reduce, inverse_letters


@dataclass(frozen=True)
class PairInsert:
    """Insert h h^-1 at a position."""

    pos: int
    h: Word

    def apply(self, w: Word, pres: Presentation) -> Word:
        if not 0 <= self.pos <= len(w):
            raise MoveError(f"insert position {self.pos} out of range")
        if self.h.rank != w.rank:
            raise RankError(f"inserted word has rank {self.h.rank}, not {w.rank}")
        h_inv = inverse_letters(self.h.letters)
        return Word._trusted(
            w.letters[: self.pos] + self.h.letters + h_inv + w.letters[self.pos:],
            w.rank,
        )


@dataclass(frozen=True)
class RelatorInsert:
    """Insert conj^-1 r^(+-1) conj at a position."""

    pos: int
    rel_idx: int
    inverted: bool
    conj: Word

    def apply(self, w: Word, pres: Presentation) -> Word:
        if not 0 <= self.pos <= len(w):
            raise MoveError(f"insert position {self.pos} out of range")
        if not 0 <= self.rel_idx < len(pres.relators):
            raise MoveError(f"no relator with index {self.rel_idx}")
        if pres.n_gens != w.rank or self.conj.rank != w.rank:
            raise RankError(f"relator or conjugator not over w's alphabet of rank {w.rank}")
        r = pres.relators[self.rel_idx].letters
        if self.inverted:
            r = inverse_letters(r)
        c = self.conj.letters
        c_inv = inverse_letters(c)
        return Word._trusted(
            w.letters[: self.pos] + c_inv + r + c + w.letters[self.pos:], w.rank
        )


@dataclass(frozen=True)
class Substitute:
    """Replace w[pos:pos+old_len] by ``replacement`` across a relator.

    Legal iff old * replacement^-1 is (up to cyclic reduction) a rotation
    of the relator or its inverse, so the move is an equality in the group.
    """

    pos: int
    old_len: int
    replacement: Word
    rel_idx: int

    def apply(self, w: Word, pres: Presentation) -> Word:
        if not (0 <= self.pos and self.pos + self.old_len <= len(w)):
            raise MoveError("substitution range out of bounds")
        if not 0 <= self.rel_idx < len(pres.relators):
            raise MoveError(f"no relator with index {self.rel_idx}")
        if pres.n_gens != w.rank or self.replacement.rank != w.rank:
            raise RankError(f"relator or replacement not over w's alphabet of rank {w.rank}")
        old = w.letters[self.pos: self.pos + self.old_len]
        candidate = Word._trusted(old + inverse_letters(self.replacement.letters), w.rank)
        if cyclic_reduce(candidate).letters not in pres.relator_rotations[self.rel_idx]:
            raise MoveError("replacement is not justified by the chosen relator")
        return Word._trusted(
            w.letters[: self.pos]
            + self.replacement.letters
            + w.letters[self.pos + self.old_len:],
            w.rank,
        )


def random_substitution(
    w: Word, pres: Presentation, rng: random.Random
) -> Substitute | None:
    """A random legal substitution on w, or None if no relator piece occurs.

    Picks a random relator, lists every (direction, split, position)
    occurrence left to right, and picks one at a random offset.  The
    positions where a prefix of length ``split`` occurs are those of the
    prefix one shorter that the next letter extends.
    """
    if not pres.relators:
        return None
    if pres.n_gens != w.rank:
        raise RankError(f"relators not over w's alphabet of rank {w.rank}")
    rel_idx = rng.randrange(len(pres.relators))
    r = pres.relators[rel_idx]
    if len(r) < 2:
        return None
    wl, n = w.letters, len(w)
    occurrences = []
    for letters in (r.letters, inverse_letters(r.letters)):
        positions = range(n)
        for split in range(1, len(letters)):
            i, x = split - 1, letters[split - 1]
            positions = [p for p in positions if p + i < n and wl[p + i] == x]
            occurrences += [(p, split, letters) for p in positions]
    if not occurrences:
        return None
    pos, split, letters = occurrences[rng.randrange(len(occurrences))]
    return Substitute(pos, split, Word._trusted(inverse_letters(letters[split:]), w.rank), rel_idx)
