import random

import pytest

from gtc.errors import ParseError, RangeError, RankError
from gtc.platforms import FreePlatform
from gtc.tietze import Presentation
from gtc.words import (
    Word,
    cyclic_reduce,
    empty_word,
    free_reduce,
    invert,
    multiply,
    parse_word,
    random_word,
    serialize_word,
)


def w(letters, rank=3):
    return Word(tuple(letters), rank)


def conjugate(u, x):
    """u^x = x^-1 u x, through the free platform of u's rank."""
    pf = FreePlatform(u.rank)
    return pf.conjugate(pf.element(u), pf.element(x)).payload


def commutator(x, y):
    """[x, y] = x^-1 y^-1 x y, through the free platform of x's rank."""
    pf = FreePlatform(x.rank)
    return pf.commutator(pf.element(x), pf.element(y)).payload


def test_free_reduce_examples():
    assert free_reduce(w([1, -1])) == w([])
    assert free_reduce(w([1, 2, -2, -1, 3])) == w([3])
    assert free_reduce(w([1, 1, 2, 2, 2])) == w([1, 1, 2, 2, 2])


def test_word_validation():
    with pytest.raises(RankError):
        Word((0,), 3)
    with pytest.raises(RankError):
        Word((4,), 3)
    with pytest.raises(RankError):
        Word((1,), 0)


def test_multiply_examples():
    assert multiply(w([1]), w([-1])) == w([])
    assert multiply(w([1, 2]), w([-2, 3])) == w([1, 3])
    assert multiply(w([], 5), w([5], 5)) == w([5], 5)
    with pytest.raises(RankError):
        multiply(w([1], 2), w([1], 3))


def test_invert_examples():
    assert invert(w([1, 2])) == w([-2, -1])
    assert invert(w([])) == w([])
    assert invert(w([1, -2, 1])) == w([-1, 2, -1])


def test_conjugate_examples():
    assert conjugate(w([1]), w([])) == w([1])
    assert conjugate(w([1]), w([2])) == w([-2, 1, 2])
    assert conjugate(w([2]), w([2, 2])) == w([2])
    with pytest.raises(RankError):
        conjugate(w([1], 2), w([1], 3))


def test_commutator_examples():
    assert commutator(w([1]), w([1])) == w([])
    assert commutator(w([1]), w([2])) == w([-1, -2, 1, 2])
    assert commutator(w([1, 2]), w([])) == w([])


def test_random_word_forced_cases():
    rng = random.Random(0)
    assert random_word(3, (0, 0), rng) == w([])
    for _ in range(20):
        out = random_word(1, (1, 1), rng)
        assert out.letters in ((1,), (-1,))
    with pytest.raises(RangeError):
        random_word(3, (2, 1), rng)
    with pytest.raises(RangeError):
        random_word(3, (-1, 4), rng)


def test_random_word_replay():
    a = random_word(3, (5, 10), random.Random(42))
    b = random_word(3, (5, 10), random.Random(42))
    assert a == b


def test_parse_serialize_examples():
    assert parse_word("1,1,2,2,2", 3) == w([1, 1, 2, 2, 2])
    assert parse_word("e", 3) == w([])
    with pytest.raises(ParseError):
        parse_word("1,0,2", 3)
    with pytest.raises(ParseError):
        parse_word("1,x,2", 3)
    with pytest.raises(ParseError):
        parse_word("1,4", 3)


def test_parse_serialize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        v = random_word(4, (0, 12), rng)
        assert parse_word(serialize_word(v), 4) == v
    assert serialize_word(w([-2, 1])) == "-2,1"
    assert serialize_word(w([])) == "e"


def test_reduce_idempotent_property():
    rng = random.Random(11)
    for _ in range(500):
        v = random_word(4, (0, 20), rng)
        r = free_reduce(v)
        assert free_reduce(r) == r


def test_multiply_associative_property():
    rng = random.Random(12)
    for _ in range(500):
        a = random_word(3, (0, 10), rng)
        b = random_word(3, (0, 10), rng)
        c = random_word(3, (0, 10), rng)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_inverse_property():
    rng = random.Random(13)
    for _ in range(500):
        v = random_word(3, (0, 15), rng)
        assert multiply(v, invert(v)) == empty_word(3)
        assert invert(invert(v)) == free_reduce(v)


def test_conjugation_homomorphism_property():
    rng = random.Random(14)
    for _ in range(300):
        u = random_word(3, (0, 8), rng)
        v = random_word(3, (0, 8), rng)
        x = random_word(3, (0, 8), rng)
        assert conjugate(multiply(u, v), x) == multiply(conjugate(u, x), conjugate(v, x))


def test_commutator_vanishes_on_equal_or_empty():
    rng = random.Random(15)
    for _ in range(200):
        x = random_word(3, (0, 8), rng)
        noisy = Word(x.letters + (1, -1), 3)
        assert commutator(x, noisy) == empty_word(3)
        assert commutator(x, empty_word(3)) == empty_word(3)
        assert commutator(empty_word(3), x) == empty_word(3)


def test_cyclic_reduce():
    assert cyclic_reduce(w([2, 1, -2])) == w([1])
    assert cyclic_reduce(w([1, 2, -1])) == w([2])
    assert cyclic_reduce(w([1, 2])) == w([1, 2])


def rotates(candidate, relator):
    """Whether ``candidate`` cyclically reduces into the relator's row of
    the rotation table of the presentation the relator alone defines."""
    pres = Presentation(relator.rank, (relator,))
    return cyclic_reduce(candidate).letters in pres.relator_rotations[0]


def test_relator_rotation_check():
    relator = w([4, -5, -5], 6)
    # replacing x4 by x5^2 is justified: old * repl^-1 = the relator itself
    assert rotates(multiply(w([4], 6), invert(w([5, 5], 6))), relator)
    assert not rotates(w([4, 5], 6), relator)
    # conjugated relators justify the same replacements
    conj = conjugate(relator, w([2, 3], 6))
    assert rotates(multiply(w([4], 6), invert(w([5, 5], 6))), conj)
    # each row holds every rotation of the relator and of its inverse, and nothing else
    assert Presentation(3, (w([1, 2, 3]),)).relator_rotations == (frozenset(
        {(1, 2, 3), (2, 3, 1), (3, 1, 2), (-3, -2, -1), (-2, -1, -3), (-1, -3, -2)}),)
    # a relator that is not cyclically reduced: x1 x2 x1^-1 is conjugate to x2
    pres = Presentation(3, (w([1, 2, -1]), w([1, -1]), w([2, 2])))
    assert pres.relators[0] == w([1, 2, -1])
    assert pres.relator_rotations == (
        frozenset({(2,), (-2,)}), frozenset({()}), frozenset({(2, 2), (-2, -2)}))
    assert rotates(w([3, 2, -3]), w([1, 2, -1]))
    assert not rotates(w([1, 2, -1, 2]), w([1, 2, -1]))
