import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import words
from gtc.errors import MoveError, RankError
from gtc.rewriting import PairInsert, RelatorInsert, Substitute, random_substitution
from gtc.rng import substream
from gtc.tietze import presentation
from gtc.words import (Word, cyclic_reduce, free_reduce, inverse_letters, invert, multiply,
                       random_word)

PRES3 = presentation(3, [[1, 2, -1, -2], [3, 3]])
PRES6 = presentation(6, [[1, 2, -1, -2], [3, 3]])  # the same letters over six generators
W3 = Word((1, 2, -1, -2, 3), 3)


@pytest.mark.parametrize(
    "apply",
    [
        lambda: PairInsert(1, Word((1,), 6)).apply(W3, PRES3),
        lambda: PairInsert(1, Word((1,), 2)).apply(W3, PRES3),
        lambda: RelatorInsert(1, 0, False, Word((2,), 6)).apply(W3, PRES3),
        lambda: RelatorInsert(1, 0, False, Word((2,), 3)).apply(W3, PRES6),
        lambda: Substitute(0, 3, Word((2,), 6), 0).apply(W3, PRES3),
        lambda: Substitute(0, 3, Word((2,), 3), 0).apply(W3, PRES6),
        lambda: random_substitution(W3, PRES6, random.Random(0)),
    ],
    ids=["pair-wider", "pair-narrower", "relator-conj", "relator-pres",
         "subst-replacement", "subst-pres", "random-subst-pres"],
)
def test_move_over_another_alphabet_raises_rank_error(apply):
    # every letter here fits both alphabets, so only the ranks tell them apart
    with pytest.raises(RankError):
        apply()


def test_moves_over_one_alphabet_still_apply():
    assert PairInsert(1, Word((3,), 3)).apply(W3, PRES3) == Word((1, 3, -3, 2, -1, -2, 3), 3)
    out = RelatorInsert(5, 1, True, Word((2,), 3)).apply(W3, PRES3)
    assert out == Word((1, 2, -1, -2, 3, -2, -3, -3, 2), 3)
    assert Substitute(0, 3, Word((2,), 3), 0).apply(W3, PRES3) == Word((2, -2, 3), 3)


def reference_substitution(w, pres, rng):
    """The scan as first written: every (direction, split, position) in
    order, each prefix compared by slicing w."""
    if not pres.relators:
        return None
    rel_idx = rng.randrange(len(pres.relators))
    r = pres.relators[rel_idx]
    if len(r) < 2:
        return None
    occurrences = []
    for letters in (r.letters, inverse_letters(r.letters)):
        for split in range(1, len(letters)):
            u = letters[:split]
            for pos in range(len(w) - split + 1):
                if w.letters[pos: pos + split] == u:
                    occurrences.append((pos, split, letters))
    if not occurrences:
        return None
    pos, split, letters = occurrences[rng.randrange(len(occurrences))]
    return Substitute(pos, split, Word(inverse_letters(letters[split:]), w.rank), rel_idx)


def test_random_substitution_matches_the_slicing_scan():
    found = 0
    for trial in range(1500):
        rng = substream(41, trial)
        rank = rng.randint(1, 3)  # small alphabets, so pieces recur and overlap
        relators = [random_word(rank, (1, 6), rng).letters for _ in range(rng.randint(0, 3))]
        pres = presentation(rank, relators)
        w = random_word(rank, (0, 30), rng)
        state = rng.getstate()
        move = random_substitution(w, pres, rng)
        after = rng.getstate()
        rng.setstate(state)
        assert move == reference_substitution(w, pres, rng)
        assert rng.getstate() == after
        if move is not None:
            found += 1
            move.apply(w, pres)  # legal: raises MoveError otherwise
    assert found > 500


def reference_legal(old, replacement, relator):
    """The legality check as first written: old * replacement^-1 and the
    relator cyclically reduced, the relator inverted, and each rotation
    compared by slicing (five free reductions a call)."""
    c = cyclic_reduce(multiply(old, invert(replacement)))
    r = cyclic_reduce(relator)
    for target in (r.letters, invert(r).letters):
        if len(c.letters) != len(target):
            continue
        doubled = target + target
        n = len(target)
        for start in range(max(n, 1)):
            if doubled[start:start + n] == c.letters:
                return True
    return False


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), legal=st.booleans(), tweak=st.booleans())
def test_substitute_accepts_what_the_five_reduction_check_accepts(seed, legal, tweak):
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    relators = [random_word(rank, (0, 6), rng).letters for _ in range(rng.randint(1, 3))]
    pres = presentation(rank, relators)  # relators reduced, not always cyclically
    rel_idx = rng.randrange(len(relators))
    if legal:
        # old = u r1 and replacement = u r2^-1 for a rotation r1 r2 of the relator
        # or its inverse, with a cancelling pair somewhere in the replacement
        r = pres.relators[rel_idx].letters
        r = r if rng.random() < 0.5 else inverse_letters(r)
        k = rng.randint(0, len(r))
        r = r[k:] + r[:k]
        split = rng.randint(0, len(r))
        u = random_word(rank, (0, 2), rng).letters
        h = random_word(rank, (0, 2), rng).letters
        old = u + r[:split]
        replacement = u + inverse_letters(r[split:])
        at = rng.randint(0, len(replacement))
        replacement = replacement[:at] + h + inverse_letters(h) + replacement[at:]
        if tweak and replacement:  # a near miss: one letter changed
            at = rng.randrange(len(replacement))
            changed = rng.choice([l for l in range(-rank, rank + 1) if l not in (0, replacement[at])])
            replacement = replacement[:at] + (changed,) + replacement[at + 1:]
    else:
        old = random_word(rank, (0, 6), rng).letters
        replacement = random_word(rank, (0, 6), rng).letters
    prefix, suffix = (random_word(rank, (0, 4), rng).letters for _ in range(2))
    w = Word(prefix + old + suffix, rank)
    move = Substitute(len(prefix), len(old), Word(replacement, rank), rel_idx)
    expected = reference_legal(Word(old, rank), Word(replacement, rank), pres.relators[rel_idx])
    try:
        out = move.apply(w, pres)
    except MoveError:
        assert not expected
    else:
        assert expected and out == Word(prefix + replacement + suffix, rank)


def test_substitution_reduces_once_per_check(monkeypatch):
    calls = []

    def counting(w):
        calls.append(1)
        return free_reduce(w)

    pres = presentation(3, [[1, 2, -1, -2], [3, 3]])
    table = pres.relator_rotations  # built once, at the first substitution
    monkeypatch.setattr(words, "free_reduce", counting)
    assert Substitute(0, 3, Word((2,), 3), 0).apply(W3, pres) == Word((2, -2, 3), 3)
    assert len(calls) == 1
    with pytest.raises(MoveError):
        Substitute(0, 2, Word((2,), 3), 0).apply(W3, pres)
    assert len(calls) == 2
    assert pres.relator_rotations is table


def test_only_substitutions_build_the_rotation_table():
    # trick-and-treat builds a presentation a trial and never substitutes
    pres = presentation(3, [[1, 2, -1, -2], [3, 3]])
    PairInsert(1, Word((3,), 3)).apply(W3, pres)
    RelatorInsert(5, 1, True, Word((2,), 3)).apply(W3, pres)
    move = random_substitution(W3, pres, random.Random(3))
    assert move is not None and "relator_rotations" not in vars(pres)
    move.apply(W3, pres)
    assert "relator_rotations" in vars(pres)

