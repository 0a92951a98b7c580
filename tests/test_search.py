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
from gtc.platforms import (CyclicModP, MatrixModP, PermutationPlatform, SubgroupGens,
                           bfs_words, block_commuting_subgroups, eval_word, signed_letters)
from gtc.problems import kp_decide_bounded, smp_decide_bounded, ssp_decide
from gtc.words import Word

# tracemalloc peak per state of a 4x4 block csp search that runs into the
# guard, against a matrix outside u's orbit: 415-520 B on 2x2 blocks over Z_17
# and Z_19
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


def other_trace(u, rng):
    """A random matrix whose trace differs from u's, so no conjugator exists;
    unlike the identity, whose orbit closes at once, it lets both sides of a
    csp search grow."""
    n, p = u.platform.n, u.platform.p

    def trace(m):
        return sum(m.payload[i][i] for i in range(n)) % p

    v = u.platform.random_element(rng)
    while trace(v) == trace(u):
        v = u.platform.random_element(rng)
    return v


def test_searches_raise_bound_error_past_the_guard(monkeypatch, tmp_path, capsys):
    A, _ = block_commuting_subgroups(4, 5, 2, 2, random.Random(99))
    w = A.platform.random_element(random.Random(1))
    monkeypatch.setattr(platforms, "ENUM_GUARD", 20)
    with pytest.raises(BoundError):
        brute_force_csp(w, other_trace(w, random.Random(2)), A, 3)
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


def conjugate_step(gens):
    mul, table = gens.platform.mul, gens.letter_table
    return lambda x, l: mul(mul(table[-l], x), table[l])


def first_hit_scan(u, v, gens, bound):
    """The first conjugate equal to v in the full BFS over x (no dedup)."""
    for expr, value in bfs_words(u.payload, signed_letters(len(gens)), conjugate_step(gens),
                                 bound):
        if value == v.payload:
            return expr
    return None


def conjugates_within(x, gens, depth):
    """The number of distinct x^y over words y of at most ``depth`` letters."""
    return len({value for _, value in bfs_words(x.payload, signed_letters(len(gens)),
                                                conjugate_step(gens), depth)})


def meeting_states(u, v, gens, bound, expr):
    """The states both sides of the csp search hold when it ends, and
    whether it ended because an orbit closed.  At length L the u side holds
    the conjugates within ceil(L/2) letters and the v side those within
    floor(L/2); the search ends at the witness's length, at the first length
    whose deeper side gains nothing, or at the bound."""
    def held(length):
        return (conjugates_within(u, gens, (length + 1) // 2)
                + conjugates_within(v, gens, length // 2))

    end = bound if expr is None else len(expr)
    for length in range(1, end + 1):
        side, depth = (u, length // 2 + 1) if length % 2 else (v, length // 2)
        if conjugates_within(side, gens, depth) == conjugates_within(side, gens, depth - 1):
            return held(length), True
    return held(end), False


def csp_subgroup(group, count, seed):
    """``count`` generators of a 4x4 block subgroup mod p, of S_n or of
    GL(2, p), drawn from ``seed``."""
    kind, size = group
    rng = random.Random(seed)
    if kind == "block":
        return block_commuting_subgroups(4, size, count, 1, rng)[0]
    platform = PermutationPlatform(size) if kind == "perm" else MatrixModP(2, size)
    return SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(count)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    group=st.sampled_from([("block", 3), ("block", 5), ("perm", 4), ("perm", 5), ("perm", 6),
                           ("gl2", 3), ("gl2", 5), ("gl2", 7)]),
    bound=st.integers(0, 6),
    planted=st.booleans(),
    data=st.data(),
)
def test_deduplicated_csp_returns_the_first_witness(seed, count, group, bound, planted, data):
    A = csp_subgroup(group, count, seed)
    platform = A.platform
    u = platform.random_element(random.Random(seed + 1))
    if planted:
        x = data.draw(st.lists(st.sampled_from(signed_letters(count)), max_size=bound))
        v = platform.conjugate(u, eval_word(A, Word(tuple(x), count)))
    else:
        v = platform.random_element(random.Random(seed + 2))
    expr = first_hit_scan(u, v, A, bound)
    result = brute_force_csp(u, v, A, bound)
    assert (None if result.expr is None else result.expr.letters) == expr
    assert (result.candidates, result.orbit_closed) == meeting_states(u, v, A, bound, expr)
    if planted:
        assert expr is not None
    if result.orbit_closed:  # a proof: v is nowhere in the whole orbit of u
        orbit = bfs_words(u.payload, signed_letters(count), conjugate_step(A), 10**9, dedup=True)
        assert all(value != v.payload for _, value in orbit)


def test_csp_keeps_the_least_suffix_of_each_backward_state():
    # x = (1, 1) followed by (1, 2) or by (-2, 1) conjugates u to v; a v side
    # built parent then letter would keep (-2, 1) for their shared state
    s5 = PermutationPlatform(5)
    A = SubgroupGens(s5, (s5.element((2, 3, 1, 5, 4)), s5.element((2, 3, 5, 4, 1))))
    u, v = s5.element((4, 3, 5, 2, 1)), s5.element((3, 1, 5, 2, 4))
    assert first_hit_scan(u, v, A, 6) == (1, 1, 1, 2)
    assert brute_force_csp(u, v, A, 6).expr.letters == (1, 1, 1, 2)


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
            brute_force_csp(u, other_trace(u, random.Random(2)), A, 1000)
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
    v = other_trace(u, random.Random(2))
    with counted_products(A.platform) as calls:
        assert brute_force_csp(u, v, A, 3) == (None, 22, False)
    # length 3 meets u's side at depth 2 (4 + 4 * 3 steps) and v's at depth 1
    # (4 steps): no conjugate repeats, so each side holds 1 + its steps
    assert calls == [2 * (4 + 12 + 4)]


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
