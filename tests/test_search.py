"""The bounded-search kernel against a direct enumeration of words, and
the products each search takes."""

import random
import tracemalloc
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import platforms
from gtc.attacks import brute_force_csp, brute_force_dlog, enumerate_subgroup_values
from gtc.cli import main
from gtc.errors import BoundError
from gtc.platforms import (CyclicModP, MatrixModP, PermutationPlatform, bfs_words,
                           block_commuting_subgroups, eval_word, signed_letters)
from gtc.problems import kp_decide_bounded, smp_decide_bounded, ssp_decide
from gtc.words import Word

# tracemalloc peak per state of a 4x4 block csp search that runs into the
# guard: 605-625 B on 2x2 blocks over Z_17 and Z_19
BYTES_PER_STATE = 700


def ordered_words(letters, bound):
    """Every word of length <= bound over ``letters`` with no letter next
    to its inverse, by length and then lexicographically in letter order."""
    for n in range(bound + 1):
        for w in product(letters, repeat=n):
            if all(x != -y for x, y in zip(w, w[1:])):
                yield w


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, 3),
    bound=st.integers(0, 4),
    positive=st.booleans(),
    modulus=st.integers(1, 12),
    data=st.data(),
)
def test_bfs_words_matches_product_enumeration(k, bound, positive, modulus, data):
    # states live in Z_modulus: letter i adds shift[i], letter -i subtracts it
    shift = {i: data.draw(st.integers(0, modulus - 1)) for i in range(1, k + 1)}
    letters = list(range(1, k + 1)) if positive else signed_letters(k)

    def value(letter):
        return shift[letter] if letter > 0 else -shift[-letter]

    def step(state, letter):
        return (state + value(letter)) % modulus

    oracle = [(w, sum(map(value, w)) % modulus) for w in ordered_words(letters, bound)]
    assert list(bfs_words(0, letters, step, bound)) == oracle
    first = {}
    for w, state in oracle:
        first.setdefault(state, w)
    deduped = list(bfs_words(0, letters, step, bound, dedup=True))
    assert deduped == [(w, state) for state, w in first.items()]


def test_signed_letters_order():
    assert signed_letters(3) == [1, -1, 2, -2, 3, -3]
    assert signed_letters(0) == []


def test_bfs_words_stops_expanding_when_the_caller_stops():
    calls = []

    def step(state, letter):
        calls.append(letter)
        return state + (letter,)

    for word, _ in bfs_words((), [1, 2], step, 10):
        if word == (1,):
            break
    assert calls == [1]


def test_bfs_words_guard_raises_bound_error(monkeypatch):
    def step(state, letter):
        return state + letter

    monkeypatch.setattr(platforms, "ENUM_GUARD", 9)
    # two reduced words of each positive length over {1, -1}: 1 + 2 * 4 = 9 states
    assert len(list(bfs_words(0, [1, -1], step, 4))) == 9
    # with dedup only new states count: |s + l| keeps 0, 1, 2, 3, 4
    assert len(list(bfs_words(0, [1, -1], lambda s, l: abs(s + l), 4, dedup=True))) == 5
    with pytest.raises(BoundError):
        list(bfs_words(0, [1, -1], step, 20, dedup=True))
    monkeypatch.setattr(platforms, "ENUM_GUARD", 8)
    with pytest.raises(BoundError):
        list(bfs_words(0, [1, -1], step, 4))


def test_searches_raise_bound_error_past_the_guard(monkeypatch, tmp_path, capsys):
    A, _ = block_commuting_subgroups(4, 5, 2, 2, random.Random(99))
    w = A.platform.random_element(random.Random(1))
    monkeypatch.setattr(platforms, "ENUM_GUARD", 20)
    with pytest.raises(BoundError):
        brute_force_csp(w, A.platform.identity(), A, 3)
    with pytest.raises(BoundError):
        enumerate_subgroup_values(A, 3)
    transcript = tmp_path / "ko-lee.txt"
    assert main(["simulate", "--protocol", "ko-lee", "--seed", "3", "--min-len", "3",
                 "--max-len", "3", "--out", str(transcript)]) == 0
    capsys.readouterr()
    code = main(["attack", "--transcript", str(transcript), "--method", "csp",
                 "--bound", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: enumeration exceeds the guard")


def first_hit_scan(u, v, gens, bound):
    """The first conjugate equal to v in the full BFS (no dedup), and the
    number of distinct conjugates up to and including it."""
    mul, table = gens.platform.mul, gens.letter_table
    distinct = set()
    for expr, value in bfs_words(u.payload, signed_letters(len(gens)),
                                 lambda x, l: mul(mul(table[-l], x), table[l]), bound):
        distinct.add(value)
        if value == v.payload:
            return expr, len(distinct)
    return None, len(distinct)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    modulus=st.sampled_from([3, 5]),
    bound=st.integers(0, 4),
    planted=st.booleans(),
    data=st.data(),
)
def test_deduplicated_csp_returns_the_first_witness(seed, count, modulus, bound, planted, data):
    A, _ = block_commuting_subgroups(4, modulus, count, 1, random.Random(seed))
    platform = A.platform
    u = platform.random_element(random.Random(seed + 1))
    if planted:
        x = data.draw(st.lists(st.sampled_from(signed_letters(count)), max_size=bound))
        v = platform.conjugate(u, eval_word(A, Word(tuple(x), count)))
    else:
        v = platform.random_element(random.Random(seed + 2))
    expr, candidates = first_hit_scan(u, v, A, bound)
    result = brute_force_csp(u, v, A, bound)
    assert (None if result.expr is None else result.expr.letters) == expr
    assert result.candidates == candidates
    if planted:
        assert expr is not None


def test_the_guard_bounds_what_a_search_holds(monkeypatch):
    assert platforms.ENUM_GUARD * BYTES_PER_STATE <= 1 << 30
    guard = 5000
    monkeypatch.setattr(platforms, "ENUM_GUARD", guard)
    # 2x2 blocks over Z_17: u has tens of thousands of distinct conjugates
    A, _ = block_commuting_subgroups(4, 17, 2, 2, random.Random(5))
    u = A.platform.random_element(random.Random(1))
    tracemalloc.start()
    try:
        with pytest.raises(BoundError):
            brute_force_csp(u, A.platform.identity(), A, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= guard * BYTES_PER_STATE * 2


# --- work pins: products per search, counted at the kind's mul ---------------------

@contextmanager
def counted_products(platform):
    """Count the calls of platform.mul, the one product every search steps
    with, while the block runs."""
    calls = [0]
    mul = platform.mul

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)

    vars(platform)["mul"] = counted  # shadows the class's mul on this instance
    try:
        yield calls
    finally:
        del vars(platform)["mul"]


def test_absent_ssp_takes_one_product_per_branch():
    # even powers of the primitive root 11 never multiply to the odd power 11
    cp = CyclicModP(1009, 11)
    rng = random.Random(5)
    items = [cp.element(pow(11, 2 * rng.randrange(1, 504), 1009)) for _ in range(10)]
    with counted_products(cp) as calls:
        assert ssp_decide(cp, items, cp.element(11)) is None
    assert calls == [2**10 - 1]


def test_kp_box_takes_the_powers_and_k_products_per_vector():
    # three even permutations of S4 against a transposition: the whole box runs
    s4 = PermutationPlatform(4)
    items = [s4.element(img) for img in ((2, 3, 1, 4), (1, 3, 4, 2), (2, 1, 4, 3))]
    with counted_products(s4) as calls:
        assert kp_decide_bounded(s4, items, s4.element((2, 1, 3, 4)), 4) is None
    assert calls == [3 * 4 + 5**3 * 3]


def test_smp_search_takes_one_product_per_state_and_item():
    # the two transvections generate SL(2, 5), 120 elements; det 2 is outside
    m2 = MatrixModP(2, 5)
    items = [m2.element(((1, 1), (0, 1))), m2.element(((1, 0), (1, 1)))]
    with counted_products(m2) as calls:
        assert smp_decide_bounded(m2, items, m2.element(((2, 0), (0, 1))), 30) is None
    assert calls == [120 * 2]


def test_csp_search_to_its_bound_takes_two_products_per_step():
    A, _ = block_commuting_subgroups(4, 5, 2, 2, random.Random(99))
    u = A.platform.random_element(random.Random(1))
    with counted_products(A.platform) as calls:
        assert brute_force_csp(u, A.platform.identity(), A, 3) == (None, 48)
    # 4 + 4 * 3 + 12 * 3 steps: no conjugate repeats before the last length
    assert calls == [2 * (4 + 12 + 36)]


def test_dlog_scan_takes_one_product_per_power():
    cp = CyclicModP(23, 5)
    with counted_products(cp) as calls:
        assert brute_force_dlog(cp, cp.element(5), cp.element(18), 100).exponent == 12
        assert brute_force_dlog(cp, cp.element(5), cp.element(18), 7).exponent is None
    assert calls == [12 + 7]
    order_two = CyclicModP(1009, 1008)
    with counted_products(order_two) as calls:
        assert brute_force_dlog(order_two, order_two.element(1008), order_two.element(3),
                                10**7).cycle_closed
    assert calls == [2]
