import random
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtc import linalg, platforms
from gtc.errors import ParseError, RankError, SetupError
from gtc.linalg import is_invertible, mat_identity, mat_inv, mat_mul
from gtc.platforms import (
    CyclicModP,
    DirectFreePlatform,
    FreePlatform,
    MatrixModP,
    PermutationPlatform,
    SubgroupGens,
    block_commuting_subgroups,
    cyclic_subgroup,
    direct_factor_subgroups,
    eval_word,
    matrix_centralizer_sample,
    platform_from_spec,
    pow_with_count,
    square_and_multiply,
)
from gtc.words import Word


def all_platforms():
    return [
        FreePlatform(3),
        CyclicModP(23, 5),
        PermutationPlatform(5),
        MatrixModP(3, 7),
        DirectFreePlatform(2, 2),
    ]


def naive_power(platform, g, n):
    out = platform.identity()
    for _ in range(n):
        out = platform.multiply(out, g)
    return out


def test_eval_word_examples():
    fp = FreePlatform(2)
    gens = SubgroupGens(fp, tuple(fp.generators()))
    assert eval_word(gens, Word((1, -2), 2)) == fp.element(Word((1, -2), 2))

    cp = CyclicModP(23, 5)
    cgens = SubgroupGens(cp, tuple(cp.generators()))
    assert eval_word(cgens, Word((1, 1), 1)).payload == 2  # 25 mod 23

    for pf in all_platforms():
        gens = SubgroupGens(pf, tuple(pf.generators()))
        assert eval_word(gens, Word((), 1)) == pf.identity()


@pytest.mark.parametrize("platform", all_platforms(), ids=lambda p: p.kind)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       letters=st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10))
@example(seed=0, letters=[])
@example(seed=0, letters=[2])
@example(seed=0, letters=[-3])
@example(seed=0, letters=[1, -2, 3, -1, 2])
def test_eval_word_folds_like_the_identity_seeded_product(platform, seed, letters):
    rng = random.Random(seed)
    gens = SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(3)))
    seeded = reduce(platform.mul, map(gens.letter_table.__getitem__, letters),
                    platform.identity().payload)
    assert eval_word(gens, Word(tuple(letters), 3)).payload == seeded


def test_eval_word_rank_guard():
    fp = FreePlatform(2)
    gens = SubgroupGens(fp, tuple(fp.generators()))
    with pytest.raises(RankError):
        eval_word(gens, Word((3,), 3))


@pytest.mark.parametrize("platform", all_platforms(), ids=lambda p: p.kind)
def test_square_and_multiply_matches_naive(platform):
    rng = random.Random(31)
    g = platform.random_element(rng)
    for n in range(65):
        assert square_and_multiply(platform, g, n) == naive_power(platform, g, n)


@pytest.mark.parametrize("platform", all_platforms(), ids=lambda p: p.kind)
def test_power_of_22_multiplication_count(platform):
    g = platform.random_element(random.Random(5))
    value, mults = pow_with_count(platform, g, 22)
    assert value == naive_power(platform, g, 22)
    assert mults <= 9


def test_multiplication_count_bound():
    cp = CyclicModP(1009, 11)
    g = cp.element(11)
    for n in range(1, 200):
        _, mults = pow_with_count(cp, g, n)
        assert mults <= 2 * n.bit_length() - 1


def test_power_zero_is_identity():
    for pf in all_platforms():
        g = pf.random_element(random.Random(2))
        assert square_and_multiply(pf, g, 0) == pf.identity()


def test_fermat_little_theorem():
    cp = CyclicModP(23, 5)
    assert square_and_multiply(cp, cp.element(5), 22) == cp.identity()
    assert naive_power(cp, cp.element(5), 22) == cp.identity()


@pytest.mark.parametrize("platform", all_platforms(), ids=lambda p: p.kind)
def test_group_axioms_on_samples(platform):
    rng = random.Random(77)
    for _ in range(25):
        a = platform.random_element(rng)
        b = platform.random_element(rng)
        c = platform.random_element(rng)
        assert platform.multiply(platform.multiply(a, b), c) == platform.multiply(
            a, platform.multiply(b, c)
        )
        assert platform.multiply(a, platform.identity()) == a
        assert platform.multiply(platform.identity(), a) == a
        assert platform.multiply(a, platform.invert(a)) == platform.identity()


@pytest.mark.parametrize("platform", all_platforms(), ids=lambda p: p.kind)
def test_element_serialization_roundtrip(platform):
    rng = random.Random(13)
    for _ in range(20):
        e = platform.random_element(rng)
        assert platform.parse_element(platform.serialize_element(e)) == e


def test_platform_spec_roundtrip():
    specs = ["free 3", "cyclic 23 5", "perm 5", "matrix 3 7", "direct 2 2"]
    for pf, spec in zip(all_platforms(), specs, strict=True):
        assert pf.spec() == spec
        assert platform_from_spec(pf.spec()) == pf


def test_block_commuting_subgroups():
    rng = random.Random(7)
    A, B = block_commuting_subgroups(4, 5, 3, 3, rng)
    pf = A.platform
    for a in A.gens:
        for b in B.gens:
            assert pf.multiply(a, b) == pf.multiply(b, a)
    # block product structure: diag(M, I) * diag(I, N) = diag(M, N)
    a, b = A.gens[0], B.gens[0]
    prod = pf.multiply(a, b)
    for i in range(2):
        for j in range(2):
            assert prod.payload[i][j] == a.payload[i][j]
            assert prod.payload[i + 2][j + 2] == b.payload[i + 2][j + 2]
    # membership structure tests
    assert A.contains(a) is True
    assert A.contains(b) is False
    # replay determinism
    A2, B2 = block_commuting_subgroups(4, 5, 3, 3, random.Random(7))
    assert A2.gens == A.gens and B2.gens == B.gens


def test_block_commuting_requires_even_n():
    with pytest.raises(ValueError):
        block_commuting_subgroups(3, 5, 1, 1, random.Random(0))


def test_matrix_centralizer_sample():
    """Every sample commutes with g and is invertible: 3x3 mod 7, the sessions
    workload's 4x4 mod 5, and the identity, which commutes with everything."""
    rng = random.Random(9)
    for n, p, is_identity in [(3, 7, False), (4, 5, False), (4, 5, True)]:
        pf = MatrixModP(n, p)
        g = pf.identity() if is_identity else pf.random_element(rng)
        sample = matrix_centralizer_sample(g, 4, rng)
        assert len(sample.gens) == 4
        for x in sample.gens:
            assert pf.multiply(x, g) == pf.multiply(g, x)
            assert is_invertible(x.payload, p)


def test_direct_product_platform():
    dp = DirectFreePlatform(2, 2)
    A, B = direct_factor_subgroups(dp)
    for a in A.gens:
        for b in B.gens:
            assert dp.multiply(a, b) == dp.multiply(b, a)
    # each factor is normal: conjugates stay inside
    rng = random.Random(3)
    for _ in range(50):
        g = dp.random_element(rng)
        a = A.gens[0]
        assert A.contains(dp.conjugate(a, g)) is True
    assert A.contains(B.gens[0]) is False
    e = dp.parse_element("1,2|e")
    assert dp.serialize_element(e) == "1,2|e"


def test_cyclic_subgroup_is_commutative():
    pf = MatrixModP(3, 7)
    g = pf.random_element(random.Random(1))
    sub = cyclic_subgroup(g)
    assert len(sub) == 1


def test_matrix_helpers():
    p = 7
    m = ((1, 2, 0), (0, 1, 3), (1, 0, 2))  # det = 8 = 1 mod 7
    inv = mat_inv(m, p)
    assert mat_mul(m, inv, p) == mat_identity(3)
    singular = ((1, 2, 3), (2, 4, 6), (0, 0, 1))
    assert mat_inv(singular, p) is None


def test_matrix_element_validation():
    pf = MatrixModP(2, 5)
    with pytest.raises(ValueError):
        pf.element(((1, 2), (2, 4)))  # singular
    e = pf.element(((6, 0), (0, 1)))  # entries reduced mod 5
    assert e.payload == ((1, 0), (0, 1))
    # the determinant test guards the text boundary of the kernel sizes too
    for n, text in ((3, "1 2 3 2 4 6 0 0 1"), (4, "1 0 0 0 0 1 0 0 0 0 1 0 5 0 0 0")):
        with pytest.raises(ParseError):
            MatrixModP(n, 5).parse_element(text)


def test_permutation_composition_order():
    pf = PermutationPlatform(5)
    a = pf.element((2, 1, 4, 3, 5))
    b = pf.element((3, 2, 5, 4, 1))
    # left-to-right: (a*b)(1) = b(a(1)) = b(2) = 2
    assert pf.multiply(a, b).payload == (2, 3, 4, 5, 1)
    assert pf.invert(b).payload == (5, 2, 1, 4, 3)


def test_cyclic_order_recorded():
    cp = CyclicModP(23, 5)
    assert cp.order_of_g == 22
    assert CyclicModP(23, 1).order_of_g == 1
    assert CyclicModP(23, 22).order_of_g == 2


def test_order_of_g_factors_once_per_platform(monkeypatch):
    calls = []
    factor = platforms._prime_factors
    monkeypatch.setattr(platforms, "_prime_factors", lambda n: calls.append(n) or factor(n))
    cp = CyclicModP(23, 5)
    assert [cp.order_of_g for _ in range(3)] == [22, 22, 22]
    assert calls == [22]
    # the cached value is not a field: equality and hashing see only p and g
    fresh = CyclicModP(23, 5)
    assert cp == fresh and hash(cp) == hash(fresh) and len({cp, fresh}) == 1
    assert cp != CyclicModP(23, 7) and cp != CyclicModP(29, 5)


def test_non_prime_modulus_is_a_setup_error():
    with pytest.raises(SetupError):
        CyclicModP(24, 5)
    with pytest.raises(SetupError):
        CyclicModP(23, 23)
    with pytest.raises(SetupError):
        MatrixModP(3, 24)
    with pytest.raises(SetupError):
        MatrixModP(0, 5)
    for spec in ("cyclic 24 5", "cyclic 23 0", "matrix 3 24", "matrix 0 5"):
        with pytest.raises(ParseError):
            platform_from_spec(spec)


# --- matrix kernels against naive oracles ----------------------------------------

def naive_mat_mul(a, b, p):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(v % p for v in row) for row in out)


def leibniz_det(m, p):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total % p


def gauss_jordan_inverse(m, p):
    """The generic elimination, run on sizes that mat_inv sends to a kernel."""
    n = len(m)
    aug = [list(row) + list(e) for row, e in zip(m, mat_identity(n))]
    reduced, pivots = linalg._row_reduce(aug, p)
    return tuple(tuple(row[n:]) for row in reduced) if pivots == list(range(n)) else None


# 2^31 - 1 is the largest modulus the platforms accept
PRIMES = (2, 5, 7, 1009, 2147483647)


@st.composite
def matrices_mod_p(draw, count, sizes=(1, 5), primes=PRIMES):
    """``count`` n x n matrices over Z_p for n in ``sizes`` (inclusive) and p
    in ``primes``; a repeated row sometimes forces singularity, so both
    mat_inv outcomes occur for every p."""
    n = draw(st.integers(*sizes))
    p = draw(st.sampled_from(primes))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    mats = []
    for _ in range(count):
        rows = draw(st.lists(row, min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            rows[-1] = list(rows[0])
        mats.append(tuple(tuple(r) for r in rows))
    return p, mats


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices_mod_p(2))
def test_mat_mul_matches_triple_loop(case):
    p, (a, b) = case
    assert mat_mul(a, b, p) == naive_mat_mul(a, b, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices_mod_p(1))
def test_mat_inv_is_an_inverse_exactly_when_nonsingular(case):
    p, (m,) = case
    inv = mat_inv(m, p)
    assert is_invertible(m, p) == (inv is not None)
    if leibniz_det(m, p) == 0:
        assert inv is None
    else:
        eye = mat_identity(len(m))
        assert mat_mul(m, inv, p) == eye
        assert mat_mul(inv, m, p) == eye


@pytest.mark.parametrize("primes", [PRIMES, (2,), (2147483647,)], ids=["all", "p=2", "p=2^31-1"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernels_match_the_generic_code(primes, data):
    """n = 3 and 4 run straight-line kernels; each must agree exactly with
    the triple loop, the generic elimination and the Leibniz determinant."""
    p, (a, b) = data.draw(matrices_mod_p(2, sizes=(3, 4), primes=primes))
    assert mat_mul(a, b, p) == naive_mat_mul(a, b, p)
    assert mat_inv(a, p) == gauss_jordan_inverse(a, p)
    assert is_invertible(a, p) == (leibniz_det(a, p) != 0)


def commutator_system(m, p):
    """Xm - mX = 0 as n^2 equations in the row-major entries of X."""
    n = len(m)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += m[k][j]  # (Xm)[i][j] = sum_k X[i][k] m[k][j]
                row[k * n + j] -= m[i][k]  # (mX)[i][j] = sum_k m[i][k] X[k][j]
            rows.append([v % p for v in row])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices_mod_p(1, primes=(2, 3, 5, 2147483647)))
def test_centralizer_basis_is_the_nullspace_of_the_commutator_system(case):
    p, (m,) = case
    assert linalg.centralizer_basis(m, p) == linalg.nullspace_mod_p(commutator_system(m, p), p)


def diag(*entries):
    return tuple(tuple(v if i == j else 0 for j, v in enumerate(entries))
                 for i in range(len(entries)))


@pytest.mark.parametrize("m,p", [
    (mat_identity(4), 5),
    (diag(3, 3, 3), 7),
    (diag(1, 1, 2, 3), 5),
    (block_commuting_subgroups(4, 5, 1, 1, random.Random(0))[0].gens[0].payload, 5),
], ids=["identity", "scalar", "diag(1,1,2,3)", "block generator"])
def test_centralizer_basis_of_derogatory_matrices(m, p):
    """The powers of these matrices span less than their centralizer, so the
    basis comes from the general system."""
    basis = linalg.centralizer_basis(m, p)
    assert len(basis) > len(m)
    assert basis == linalg.nullspace_mod_p(commutator_system(m, p), p)


# --- the product on payloads ------------------------------------------------------

# every kind, and matrices of the two kernel sizes and of the generic path on both sides
PRODUCT_PLATFORMS = [FreePlatform(3), CyclicModP(1009, 11), PermutationPlatform(6),
                     MatrixModP(2, 5), MatrixModP(3, 7), MatrixModP(4, 5), MatrixModP(5, 3),
                     DirectFreePlatform(2, 3)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(platform=st.sampled_from(PRODUCT_PLATFORMS), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 3), data=st.data())
def test_mul_is_the_product_that_multiply_and_eval_word_use(platform, seed, k, data):
    rng = random.Random(seed)
    a, b = platform.random_element(rng), platform.random_element(rng)
    assert platform.mul(a.payload, b.payload) == platform.multiply(a, b).payload
    gens = SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(k)))
    letters = data.draw(st.lists(st.sampled_from([l for i in range(1, k + 1) for l in (i, -i)]),
                                 max_size=12))
    expected = platform.identity()
    for l in letters:
        g = gens.gens[abs(l) - 1]
        expected = platform.multiply(expected, g if l > 0 else platform.invert(g))
    assert eval_word(gens, Word(tuple(letters), k)) == expected


# every kind, plus the degrees where a permutation's left action is not an itemgetter
# of several indices
LEFT_PLATFORMS = PRODUCT_PLATFORMS + [PermutationPlatform(1), PermutationPlatform(2)]


@pytest.mark.parametrize("platform", LEFT_PLATFORMS, ids=lambda p: p.spec())
def test_eval_word_is_the_left_fold_of_multiply(platform):
    rng = random.Random(29)
    gens = SubgroupGens(platform, tuple(platform.random_element(rng) for _ in range(2)))
    for x, y in zip(gens.letter_table.values(), reversed(gens.letter_table.values())):
        assert platform.left_mul(y)(x) == platform.mul(y, x)
    words = [(), (1,), (-1,), (2,), (-2,)]
    words += [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 12)))
              for _ in range(40)]
    for letters in words:
        expected = platform.identity()
        for l in letters:
            g = gens.gens[abs(l) - 1]
            expected = platform.multiply(expected, g if l > 0 else platform.invert(g))
        assert eval_word(gens, Word(letters, 2)) == expected

