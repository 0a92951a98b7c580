"""The bounded-search kernels against scans written here, and the
products each search takes."""

import random
import tracemalloc
from contextlib import contextmanager
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import problems
from gtc.attacks import (attack_decomposition_factor, brute_force_csp, brute_force_dlog,
                         enumerate_subgroup_values, uniqueness_check)
from gtc.cli import main
from gtc.errors import BoundError
from gtc.platforms import (CyclicModP, FreePlatform, MatrixModP, PermutationPlatform,
                           SubgroupGens, block_commuting_subgroups, eval_word)
from gtc.problems import (bfs_words, factorization_decide_bounded, gpcp_bounded_search,
                          kp_decide_bounded, signed_letters, smp_decide_bounded, ssp_decide,
                          twisted_conjugacy_bounded)
from gtc.protocols import decomposition_exchange, parse_transcript, serialize_transcript
from gtc.tietze import GenMap, apply_map
from gtc.words import Word, invert, multiply, random_reduced_word

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


def word_states(start, letters, step, bound):
    """``(word, state)`` for each word of ordered_words, a level at a time,
    where a word's state steps its parent's by its last letter: the full
    scan, with no state skipped, that the searches are checked against."""
    level = [((), start)]
    for _ in range(bound):
        yield from level
        level = [(w + (l,), step(s, l)) for w, s in level for l in letters
                 if not w or w[-1] != -l]
    yield from level


def first_words(start, letters, step, bound):
    """{state: its first word} over word_states, in the order of first sight."""
    out = {}
    for w, state in word_states(start, letters, step, bound):
        out.setdefault(state, w)
    return out


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
    assert list(word_states(0, letters, step, bound)) == oracle
    first = {}
    for w, state in oracle:
        first.setdefault(state, w)
    assert list(bfs_words(0, letters, step, bound)) == [(w, state) for state, w in first.items()]


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

    monkeypatch.setattr(problems, "ENUM_GUARD", 9)
    # -4..4 within four letters of 0 over {1, -1}: 9 states
    assert len(list(bfs_words(0, [1, -1], step, 4))) == 9
    # only new states count: |s + l| keeps 0, 1, 2, 3, 4
    assert len(list(bfs_words(0, [1, -1], lambda s, l: abs(s + l), 4))) == 5
    with pytest.raises(BoundError):
        list(bfs_words(0, [1, -1], step, 20))
    monkeypatch.setattr(problems, "ENUM_GUARD", 8)
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
    monkeypatch.setattr(problems, "ENUM_GUARD", 20)
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


def first_hit(start, goal, letters, step, bound):
    """The first word of the full scan whose state is goal, or None."""
    return next((w for w, state in word_states(start, letters, step, bound) if state == goal),
                None)


def first_hit_scan(u, v, gens, bound):
    """The first conjugate equal to v in the full scan over x (no dedup)."""
    return first_hit(u.payload, v.payload, signed_letters(len(gens)), conjugate_step(gens),
                     bound)


def conjugates_within(x, gens, depth):
    """The number of distinct x^y over words y of at most ``depth`` letters."""
    return len({value for _, value in word_states(x.payload, signed_letters(len(gens)),
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
        orbit = bfs_words(u.payload, signed_letters(count), conjugate_step(A), 10**9)
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
    assert problems.ENUM_GUARD * BYTES_PER_STATE <= 1 << 30
    guard = 5000
    monkeypatch.setattr(problems, "ENUM_GUARD", guard)
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


# --- each kernel against a scan written here -----------------------------------------

SMALL_GROUPS = [CyclicModP(7, 3), CyclicModP(11, 2), PermutationPlatform(3),
                PermutationPlatform(4), MatrixModP(2, 2), MatrixModP(2, 3), MatrixModP(3, 2)]


def power_product(platform, items, vector):
    return reduce(platform.multiply, (x for x, e in zip(items, vector) for _ in range(e)),
                  platform.identity())


def box_scan(platform, items, target, exp_bound):
    """The first vector of the box, in lexicographic order, whose ordered
    power product is target."""
    return next((e for e in product(range(exp_bound + 1), repeat=len(items))
                 if power_product(platform, items, e) == target), None)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), platform=st.sampled_from(SMALL_GROUPS),
       exp_bound=st.integers(0, 5), planted=st.booleans(), data=st.data())
def test_box_search_returns_the_first_vector_of_the_box(seed, platform, exp_bound, planted,
                                                       data):
    k = data.draw(st.integers(0, 7 if exp_bound <= 1 else 4 if exp_bound <= 3 else 3))
    rng = random.Random(seed)
    items = [platform.random_element(rng) for _ in range(k)]
    target = (power_product(platform, items, [rng.randint(0, exp_bound) for _ in items])
              if planted else platform.random_element(rng))
    assert kp_decide_bounded(platform, items, target, exp_bound) == box_scan(
        platform, items, target, exp_bound)
    assert ssp_decide(platform, items, target) == box_scan(platform, items, target, 1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), platform=st.sampled_from(SMALL_GROUPS + [FreePlatform(2)]),
       k=st.integers(1, 3), bound=st.integers(0, 5), planted=st.booleans(), data=st.data())
def test_smp_returns_the_first_product_of_the_full_scan(seed, platform, k, bound, planted,
                                                       data):
    rng = random.Random(seed)
    items = [platform.random_element(rng) for _ in range(k)]
    seq = data.draw(st.lists(st.integers(0, k - 1), max_size=bound))
    target = (reduce(platform.multiply, (items[j] for j in seq), platform.identity())
              if planted else platform.random_element(rng))
    values = [x.payload for x in items]
    expected = first_hit(platform.identity().payload, target.payload, range(1, k + 1),
                         lambda x, l: platform.mul(x, values[l - 1]), bound)
    found = smp_decide_bounded(platform, items, target, bound)
    assert found == (None if expected is None else tuple(l - 1 for l in expected))


def pair_scan(start, images, bound, hit):
    """The first word of the full scan whose pair of words, each multiplied
    by its image of every letter, satisfies ``hit``."""
    def step(pair, l):
        return multiply(pair[0], images[l][0]), multiply(pair[1], images[l][1])

    return next((w for w, pair in word_states(start, list(images), step, bound) if hit(pair)),
                None)


def random_words(rng, count, rank, longest):
    return [random_reduced_word(rank, (0, longest), rng) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2), rank=st.integers(1, 3),
       bound=st.integers(0, 5), planted=st.booleans())
def test_gpcp_returns_the_first_term_of_the_full_scan(seed, k, rank, bound, planted):
    rng = random.Random(seed)
    u, v = random_words(rng, k, rank, 2), random_words(rng, k, rank, 2)
    a = random_reduced_word(rank, (0, 3), rng)
    t = random_reduced_word(k, (0, bound), rng)
    t_u, t_v = (apply_map(GenMap(k, rank, tuple(x)), t) for x in (u, v))
    # planted: b = a t(u) t(v)^-1, so t is a term
    b = (multiply(multiply(a, t_u), invert(t_v)) if planted
         else random_reduced_word(rank, (0, 3), rng))
    images = {l: (u[l - 1], v[l - 1]) if l > 0 else (invert(u[-l - 1]), invert(v[-l - 1]))
              for l in signed_letters(k)}
    expected = pair_scan((a, b), images, bound, lambda pair: pair[0] == pair[1])
    found = gpcp_bounded_search(u, v, a, b, bound)
    assert (None if found is None else found.letters) == expected


def random_map(rng, rank):
    return GenMap(rank, rank, tuple(random_reduced_word(rank, (1, 2), rng) for _ in range(rank)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3), bound=st.integers(0, 5),
       planted=st.booleans())
def test_twisted_returns_the_first_word_of_the_full_scan(seed, rank, bound, planted):
    rng = random.Random(seed)
    fp = FreePlatform(rank)
    phi, psi = random_map(rng, rank), random_map(rng, rank)
    u = random_reduced_word(rank, (0, 4), rng)
    w = random_reduced_word(rank, (0, bound), rng)
    # planted: v = psi(w)^-1 u phi(w), so w is a witness
    v = (multiply(multiply(invert(apply_map(psi, w)), u), apply_map(phi, w)) if planted
         else random_reduced_word(rank, (0, 4), rng))
    images = {l: (apply_map(phi, Word((l,), rank)), apply_map(psi, Word((l,), rank)))
              for l in signed_letters(rank)}
    expected = pair_scan((u, Word((), rank)), images, bound,
                         lambda pair: pair[0] == multiply(pair[1], v))
    found = twisted_conjugacy_bounded(fp.element(u), fp.element(v), phi, psi, bound)
    assert (None if found is None else found.letters) == expected


def subgroup_values(gens, bound):
    """{value: first expression} of <gens> within ``bound`` letters, by the full scan."""
    mul, table = gens.platform.mul, gens.letter_table
    return first_words(gens.platform.identity().payload, signed_letters(len(gens)),
                       lambda x, l: mul(x, table[l]), bound)


def first_factorization(w, A, B, bound):
    """Double enumeration: the first a of <A>, in order, with some b of <B>
    and a b = w, and their expressions; with the number of a examined."""
    a_values, b_values = subgroup_values(A, bound), subgroup_values(B, bound)
    mul = A.platform.mul
    for examined, (a, a_expr) in enumerate(a_values.items(), start=1):
        b_expr = next((e for b, e in b_values.items() if mul(a, b) == w.payload), None)
        if b_expr is not None:
            return (a_expr, b_expr), examined
    return None, len(a_values)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), platform=st.sampled_from(SMALL_GROUPS),
       counts=st.tuples(st.integers(1, 2), st.integers(1, 2)), bound=st.integers(0, 5),
       planted=st.booleans())
def test_factorization_returns_the_first_pair_of_the_double_enumeration(seed, platform, counts,
                                                                        bound, planted):
    rng = random.Random(seed)
    A, B = (SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(c)))
            for c in counts)
    w = (platform.multiply(eval_word(A, random_reduced_word(len(A), (0, bound), rng)),
                           eval_word(B, random_reduced_word(len(B), (0, bound), rng)))
         if planted else platform.random_element(rng))
    expected, _ = first_factorization(w, A, B, bound)
    found = factorization_decide_bounded(w, A, B, bound)
    assert (None if found is None else (found[0].letters, found[1].letters)) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), platform=st.sampled_from(SMALL_GROUPS),
       count=st.integers(1, 2), bound=st.integers(0, 5), planted=st.booleans())
def test_decomposition_stream_counts_as_the_double_enumeration(seed, platform, count, bound,
                                                              planted):
    rng = random.Random(seed)
    A = SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(count)))
    trivial = SubgroupGens(platform, (platform.identity(),))  # commutes with A
    w = platform.random_element(rng)
    out = decomposition_exchange(platform, w, A, trivial, rng, expr_len=(0, 3))
    text = serialize_transcript(out.transcript)
    alice = platform.parse_element(out.transcript.find("a1*w*a2"))
    if not planted:
        alice = platform.random_element(rng)
        text = "".join(line if not line.startswith("1 Alice a1*w*a2 ") else
                       f"1 Alice a1*w*a2 {platform.serialize_element(alice)}\n"
                       for line in text.splitlines(keepends=True))
    # a1 w a2 = alice exactly when (a1^w) a2 = w^-1 alice, over (A^w, A)
    conj = SubgroupGens(platform, tuple(platform.conjugate(g, w) for g in A.gens))
    shifted = platform.multiply(platform.invert(w), alice)
    expected, examined = first_factorization(shifted, conj, A, bound)
    report = attack_decomposition_factor(parse_transcript(text), bound)
    assert (report.success, report.work) == (expected is not None, {"candidates": examined})
    if planted and report.success:
        assert report.recovered_key == out.key_alice
    values = subgroup_values(A, bound)
    pairs = sum(any(platform.mul(platform.mul(a1, w.payload), a2) == alice.payload
                    for a2 in values) for a1 in values)
    assert uniqueness_check(w, alice, A, bound) == pairs


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
    # even powers of the primitive root 11 never multiply to the odd power 11;
    # no two selections of a half share a value, so each half of five items
    # takes one product per branch to a 1: 2^5 - 1
    cp = CyclicModP(1009, 11)
    rng = random.Random(5)
    items = [cp.element(pow(11, 2 * rng.randrange(1, 504), 1009)) for _ in range(10)]
    with counted_products(cp) as calls:
        assert ssp_decide(cp, items, cp.element(11)) is None
    assert calls == [2 * (2**5 - 1)]


def test_kp_box_takes_one_product_per_exponent_step():
    # three even permutations of S4 against a transposition: the whole box runs.
    # The right half (items 2 and 3) steps the identity 4 times by item 2, a
    # 3-cycle with 3 distinct powers, then each of those 4 times by item 3; the
    # left half steps the target 4 times by the inverse of item 1
    s4 = PermutationPlatform(4)
    items = [s4.element(img) for img in ((2, 3, 1, 4), (1, 3, 4, 2), (2, 1, 4, 3))]
    with counted_products(s4) as calls:
        assert kp_decide_bounded(s4, items, s4.element((2, 1, 3, 4)), 4) is None
    assert calls == [4 + 3 * 4 + 4]


def test_smp_search_takes_one_product_per_state_and_item():
    # the two transvections generate SL(2, 5), 120 elements; det 2 is outside.
    # Both sides of the orbit search grow until the identity's side closes: it
    # has expanded all 120 states, the target's side 113 of its coset's
    m2 = MatrixModP(2, 5)
    items = [m2.element(((1, 1), (0, 1))), m2.element(((1, 0), (1, 1)))]
    with counted_products(m2) as calls:
        assert smp_decide_bounded(m2, items, m2.element(((2, 0), (0, 1))), 30) is None
    assert calls == [(120 + 113) * 2]


@contextmanager
def counted_word_products(monkeypatch):
    """Count the free-group products of gtc.problems while the block runs."""
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return multiply(x, y)

    monkeypatch.setattr(problems, "multiply", counted)
    yield calls


def test_absent_gpcp_takes_two_products_per_state_step(monkeypatch):
    # u = (x1, x2), v = (x2, x1), a = x1, b = x2^2: no term within 3 letters
    u, v = [Word((1,), 2), Word((2,), 2)], [Word((2,), 2), Word((1,), 2)]
    with counted_word_products(monkeypatch) as calls:
        assert gpcp_bounded_search(u, v, Word((1,), 2), Word((2, 2), 2), 3) is None
    # one product for b^-1 a; then to length 3 the start side has stepped its
    # 1 + 4 states to depth 2 (4 + 4 * 3 steps) and the goal side e to depth 1
    # (4 steps), two products a step
    assert calls == [1 + 2 * (4 + 12 + 4)]


def test_absent_twisted_takes_two_products_per_state_step(monkeypatch):
    # phi = psi swaps x1 and x2, so a solution would conjugate x1^2 x2 to x2,
    # which has another exponent sum; the orbits grow as gpcp's above do
    fp = FreePlatform(2)
    phi = GenMap(2, 2, (Word((2,), 2), Word((1,), 2)))
    u, v = fp.element(Word((1, 1, 2), 2)), fp.element(Word((2,), 2))
    with counted_word_products(monkeypatch) as calls:
        assert twisted_conjugacy_bounded(u, v, phi, phi, 3) is None
    assert calls == [2 * (4 + 12 + 4)]


def test_absent_factor_takes_one_product_per_state():
    # 4x4 blocks mod 5 and a target outside <A><B>, to 2 letters: the table of
    # <B> steps the identity by 4 letters and each of the 4 new values by 3,
    # and the stream steps w the same way through <A>, one product a step
    A, B = block_commuting_subgroups(4, 5, 2, 2, random.Random(13))
    rows = [list(r) for r in A.platform.identity().payload]
    rows[0][3] = 1
    w = A.platform.element(rows)
    with counted_products(A.platform) as calls:
        assert factorization_decide_bounded(w, A, B, 2) is None
    assert calls == [16 + 16]


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
