import random

import pytest

from gtc.errors import RankError
from gtc.rewriting import PairInsert, RelatorInsert, Substitute, random_substitution
from gtc.rng import substream
from gtc.tietze import presentation
from gtc.words import Word, inverse_letters, random_word

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
