import random

import pytest

from gtc.errors import ParseError, SetupError
from gtc.platforms import (
    CyclicModP,
    DirectFreePlatform,
    Element,
    FreePlatform,
    MatrixModP,
    SubgroupGens,
    block_commuting_subgroups,
    cyclic_subgroup,
    direct_factor_subgroups,
    square_and_multiply,
)
from gtc.protocols import (
    aag_exchange,
    centralizer_exchange,
    commutative_subgroups_exchange,
    decomposition_exchange,
    dh_exchange,
    elgamal_decrypt,
    elgamal_encrypt,
    elgamal_session,
    factorization_exchange,
    inner_automorphism,
    ko_lee_exchange,
    parse_transcript,
    semidirect_exchange,
    serialize_transcript,
    twisted_exchange,
)
from gtc.rng import substream


def cyclic23():
    return CyclicModP(23, 5)


def block_setup(seed=99):
    rng = random.Random(seed)
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    w = A.platform.random_element(rng)
    return A.platform, w, A, B


def identity_subgroup(platform):
    return SubgroupGens(platform, (platform.identity(),))


def naive_power(platform, g, n):
    out = platform.identity()
    for _ in range(n):
        out = platform.multiply(out, g)
    return out


# --- dh / elgamal ---------------------------------------------------------

def test_dh_worked_numbers():
    out = dh_exchange(cyclic23(), random.Random(0), a=4, b=3)
    assert out.key_alice.payload == 18
    assert out.key_bob.payload == 18
    assert [r.payload for r in out.transcript.records] == ["4", "10"]


def test_dh_zero_exponent():
    out = dh_exchange(cyclic23(), random.Random(0), a=0)
    assert out.key_alice == cyclic23().identity()
    assert out.key_bob == out.key_alice


def test_dh_sessions_agree_and_match_naive_oracle():
    for p, g in ((23, 5), (101, 2), (1009, 11)):
        platform = CyclicModP(p, g)
        for i in range(50):
            out = dh_exchange(platform, substream(17, i))
            assert out.agreed
            a, b = out.private_state["a"], out.private_state["b"]
            expected = naive_power(platform, platform.element(g), a * b % platform.order_of_g)
            assert out.key_alice == expected


def test_elgamal_roundtrips():
    platform = cyclic23()
    for i in range(300):
        out = elgamal_session(platform, substream(23, i))
        assert out.key_alice == out.key_bob


def test_elgamal_is_probabilistic():
    platform = CyclicModP(1009, 11)
    rng = random.Random(4)
    m = platform.element(7)
    pk = square_and_multiply(platform, platform.element(11), 6)
    seen = {elgamal_encrypt(platform, pk, m, rng) for _ in range(50)}
    assert len(seen) > 45


def test_elgamal_identity_plaintext():
    platform = cyclic23()
    rng = random.Random(8)
    a = 6
    pk = square_and_multiply(platform, platform.element(5), a)
    c1, c2 = elgamal_encrypt(platform, pk, platform.identity(), rng)
    # first component is the mask itself: c^b = (g^b)^a
    assert c1 == square_and_multiply(platform, c2, a)
    assert elgamal_decrypt(platform, a, (c1, c2)) == platform.identity()


def test_elgamal_ciphertext_is_two_elements():
    platform = cyclic23()
    ct = elgamal_encrypt(platform, platform.element(9), platform.element(3), random.Random(1))
    assert isinstance(ct, tuple) and len(ct) == 2


# --- conjugacy / decomposition family --------------------------------------

def test_ko_lee_agreement_and_oracle():
    platform, w, A, B = block_setup()
    out = ko_lee_exchange(platform, w, A, B, random.Random(1))
    assert out.agreed
    a = out.private_state["a"].value
    b = out.private_state["b"].value
    assert out.key_alice == platform.conjugate(w, platform.multiply(a, b))


def test_ko_lee_identity_alice_secret():
    platform, w, _, B = block_setup()
    out = ko_lee_exchange(platform, w, identity_subgroup(platform), B, random.Random(2))
    b = out.private_state["b"].value
    assert out.key_alice == platform.conjugate(w, b)
    assert out.agreed


def test_ko_lee_rejects_noncommuting_subgroups():
    fp = FreePlatform(2)
    gens = fp.generators()
    A = SubgroupGens(fp, (gens[0],))
    B = SubgroupGens(fp, (gens[1],))
    with pytest.raises(SetupError):
        ko_lee_exchange(fp, fp.random_element(random.Random(0)), A, B, random.Random(0))


def test_aag_free_platform():
    fp = FreePlatform(4)
    gens = fp.generators()
    A = SubgroupGens(fp, tuple(gens[:2]))
    B = SubgroupGens(fp, tuple(gens[2:]))
    out = aag_exchange(fp, A, B, random.Random(9))
    assert out.agreed
    x = out.private_state["x"].value
    y = out.private_state["y"].value
    assert out.key_alice == fp.commutator(x, y)


def test_aag_identity_secret_gives_identity_key():
    fp = FreePlatform(4)
    gens = fp.generators()
    B = SubgroupGens(fp, tuple(gens[2:]))
    out = aag_exchange(fp, identity_subgroup(fp), B, random.Random(3))
    assert out.key_alice == fp.identity()
    assert out.agreed


def test_decomposition_agreement_and_oracle():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(5))
    assert out.agreed
    s = {k: v.value for k, v in out.private_state.items()}
    expected = platform.multiply(
        platform.multiply(
            platform.multiply(platform.multiply(s["a1"], s["b1"]), w), s["b2"]
        ),
        s["a2"],
    )
    assert out.key_alice == expected


def test_decomposition_identity_alice():
    platform, w, _, B = block_setup()
    out = decomposition_exchange(platform, w, identity_subgroup(platform), B, random.Random(6))
    s = out.private_state
    expected = platform.multiply(
        platform.multiply(s["b1"].value, w), s["b2"].value
    )
    assert out.key_alice == expected


def test_twisted_agreement_and_commuting_check():
    platform, w, A, B = block_setup()
    out = twisted_exchange(platform, w, A, B, random.Random(7))
    assert out.agreed
    a1 = out.private_state["a1"].value
    b2 = out.private_state["b2"].value
    assert platform.multiply(a1, b2) == platform.multiply(b2, a1)


def test_twisted_identity_alice():
    platform, w, _, B = block_setup()
    ident = identity_subgroup(platform)
    # Alice draws a1 from A and b1 from B: make both trivial
    out = twisted_exchange(platform, w, ident, ident, random.Random(8))
    # with all Alice secrets trivial the key is Bob's message
    assert out.key_alice == platform.parse_element(out.transcript.find("b2*w*a2"))


def test_centralizer_agreement_and_commutation():
    platform = MatrixModP(4, 5)
    w = platform.random_element(random.Random(10))
    out = centralizer_exchange(platform, w, random.Random(11))
    assert out.agreed
    a1 = out.private_state["a1"]
    b1 = out.private_state["b1"].value
    assert platform.multiply(a1, b1) == platform.multiply(b1, a1)


def test_centralizer_identity_a1_still_correct():
    platform = MatrixModP(3, 7)
    w = platform.random_element(random.Random(12))
    out = centralizer_exchange(
        platform, w, random.Random(13), a1=platform.identity()
    )
    assert out.agreed


def test_commutative_subgroups_agreement():
    platform, w, _, _ = block_setup()
    rng = random.Random(14)
    A = cyclic_subgroup(platform.random_element(rng))
    B = cyclic_subgroup(platform.random_element(rng))
    out = commutative_subgroups_exchange(platform, w, A, B, rng)
    assert out.agreed
    a1 = out.private_state["a1"].value
    a2 = out.private_state["a2"].value
    assert platform.multiply(a1, a2) == platform.multiply(a2, a1)


def test_commutative_subgroups_rejects_noncommutative_list():
    platform, w, _, _ = block_setup()
    rng = random.Random(15)
    x, y = platform.random_element(rng), platform.random_element(rng)
    assert platform.multiply(x, y) != platform.multiply(y, x)
    bad = SubgroupGens(platform, (x, y))
    good = cyclic_subgroup(platform.random_element(rng))
    with pytest.raises(SetupError):
        commutative_subgroups_exchange(platform, w, bad, good, rng)


def test_factorization_agreement_and_eve_products_differ():
    platform, _, A, B = block_setup()
    for seed in range(30):
        out = factorization_exchange(platform, A, B, random.Random(seed))
        assert out.agreed
        s = {k: v.value for k, v in out.private_state.items()}
        m1 = platform.parse_element(out.transcript.find("a1*b1"))
        m2 = platform.parse_element(out.transcript.find("a2*b2"))
        a_noncommuting = platform.multiply(s["a1"], s["a2"]) != platform.multiply(s["a2"], s["a1"])
        b_noncommuting = platform.multiply(s["b1"], s["b2"]) != platform.multiply(s["b2"], s["b1"])
        if a_noncommuting and b_noncommuting:
            assert platform.multiply(m1, m2) != out.key_alice
            assert platform.multiply(m2, m1) != out.key_alice


# --- the public commutation checks ------------------------------------------
# Each setup returns a fresh platform, a commuting (A, B) and a pair that fails
# the exchange's check; every commuting (A, B) costs 8 products to verify.

def block_pairs(rng):
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    stray = SubgroupGens(A.platform, (A.platform.random_element(rng),))
    return A.platform, (A, B), (A, stray)


def direct_pairs(rng):
    platform = DirectFreePlatform(2, 2)
    A, B = direct_factor_subgroups(platform)
    # the second generator of the first factor does not commute with the first
    return platform, (A, B), (A, SubgroupGens(platform, (platform.generators()[1],)))


def commutative_pairs(rng):
    platform = MatrixModP(4, 5)
    g, h = platform.random_element(rng), platform.random_element(rng)
    A = SubgroupGens(platform, tuple(square_and_multiply(platform, g, k) for k in (1, 2, 3)))
    B = SubgroupGens(platform, (h, platform.multiply(h, h)))
    return platform, (A, B), (SubgroupGens(platform, (g, h)), B)


def factorization_session(platform, w, A, B, rng):
    return factorization_exchange(platform, A, B, rng)


CHECKED_SETUPS = {
    "ko-lee": (ko_lee_exchange, block_pairs),
    "decomp": (decomposition_exchange, block_pairs),
    "decomp-direct": (decomposition_exchange, direct_pairs),
    "twisted": (twisted_exchange, block_pairs),
    "factor": (factorization_session, block_pairs),
    "commutative": (commutative_subgroups_exchange, commutative_pairs),
}


def count_products(platform):
    """Tally every payload product of ``platform``: multiply and eval_word
    both go through its mul."""
    counts = {"products": 0}
    mul = platform.mul

    def counted(x, y):
        counts["products"] += 1
        return mul(x, y)

    object.__setattr__(platform, "mul", counted)
    return counts


@pytest.mark.parametrize("run,pairs", CHECKED_SETUPS.values(), ids=CHECKED_SETUPS.keys())
def test_a_noncommuting_pair_raises_on_every_call(run, pairs):
    platform, good, bad = pairs(random.Random(20))
    w = platform.random_element(random.Random(21))
    assert run(platform, w, *good, random.Random(22)).agreed
    for _ in range(2):
        with pytest.raises(SetupError):
            run(platform, w, *bad, random.Random(22))
    assert not {bad[0], bad[1]} & bad[0].commuting_peers


@pytest.mark.parametrize("run,pairs", CHECKED_SETUPS.values(), ids=CHECKED_SETUPS.keys())
def test_a_commuting_pair_is_verified_once_and_stays_accepted(run, pairs):
    platform, (A, B), _ = pairs(random.Random(20))
    w = platform.random_element(random.Random(21))
    counts = count_products(platform)
    spent, transcripts = [], set()
    for _ in range(3):
        before = counts["products"]
        out = run(platform, w, A, B, random.Random(22))
        spent.append(counts["products"] - before)
        assert out.agreed
        transcripts.add(serialize_transcript(out.transcript))
    assert spent[0] - spent[1] == 8
    assert spent[1] == spent[2]
    assert len(transcripts) == 1


# --- semidirect -------------------------------------------------------------

def semidirect_setup(seed=33):
    rng = random.Random(seed)
    platform = MatrixModP(3, 1009)
    g = platform.random_element(rng)
    h = platform.random_element(rng)
    return platform, g, h


def test_semidirect_m_n_one():
    platform, g, h = semidirect_setup()
    phi = inner_automorphism(platform, h)
    out = semidirect_exchange(platform, g, phi, random.Random(0), m=1, n=1)
    assert out.agreed
    # both send g itself; the key is phi(g) * g
    assert out.transcript.records[0].payload == platform.serialize_element(g)
    assert out.key_alice == platform.multiply(platform.conjugate(g, h), g)


def test_semidirect_transmission_closed_form():
    platform, g, h = semidirect_setup()
    phi = inner_automorphism(platform, h)
    for m in (1, 2, 5, 17):
        out = semidirect_exchange(platform, g, phi, random.Random(1), m=m, n=2)
        sent = platform.parse_element(out.transcript.records[0].payload)
        hm = square_and_multiply(platform, h, m)
        hg_m = square_and_multiply(platform, platform.multiply(h, g), m)
        assert sent == platform.multiply(platform.invert(hm), hg_m)


def test_semidirect_key_closed_form():
    platform, g, h = semidirect_setup()
    phi = inner_automorphism(platform, h)
    for seed in range(10):
        rng = random.Random(seed)
        m, n = rng.randint(1, 50), rng.randint(1, 50)
        out = semidirect_exchange(platform, g, phi, rng, m=m, n=n)
        assert out.agreed
        hmn = square_and_multiply(platform, h, m + n)
        hg_mn = square_and_multiply(platform, platform.multiply(h, g), m + n)
        assert out.key_alice == platform.multiply(platform.invert(hmn), hg_mn)


def test_semidirect_warns_when_h_and_hg_commute():
    platform, g, _ = semidirect_setup()
    phi = inner_automorphism(platform, platform.identity())
    with pytest.warns(UserWarning):
        semidirect_exchange(platform, g, phi, random.Random(2), m=3, n=4)


def transmission_oracle(phi, g, m):
    """The defining product phi^{m-1}(g) ... phi(g) g, one factor at a time."""
    factors = [g]
    for _ in range(m - 1):
        factors.append(phi.platform.conjugate(factors[-1], phi.h))
    out = phi.platform.identity()
    for f in reversed(factors):
        out = phi.platform.multiply(out, f)
    return out


def apply_times(phi, e, m):
    for _ in range(m):
        e = phi.platform.conjugate(e, phi.h)
    return e


def test_semidirect_powers_match_the_defining_product():
    platform, g, h = semidirect_setup()
    phi = inner_automorphism(platform, h)
    power = phi.semidirect_powers(g)
    probe = platform.multiply(g, g)
    for m in range(1, 61):
        first, phi_m = power(m)
        assert first == transmission_oracle(phi, g, m), m
        assert phi_m(probe) == apply_times(phi, probe, m), m


def counting_matrix_platform(n, p):
    """A MatrixModP that tallies every multiply and invert it performs."""
    counts = {"ops": 0}

    class CountingMatrixModP(MatrixModP):
        def multiply(self, a, b):
            counts["ops"] += 1
            return super().multiply(a, b)

        def invert(self, a):
            counts["ops"] += 1
            return super().invert(a)

    return CountingMatrixModP(n, p), counts


def test_semidirect_transmission_cost_is_logarithmic():
    platform, counts = counting_matrix_platform(3, 1009)
    rng = random.Random(41)
    g, h = platform.random_element(rng), platform.random_element(rng)
    phi = inner_automorphism(platform, h)
    power = phi.semidirect_powers(g)
    # small exponents first, so a linear-time transmission fails fast
    exponents = [1000, (1 << 20) + 1] + [rng.getrandbits(128) | (1 << 127) for _ in range(5)]
    for m in exponents:
        counts["ops"] = 0
        first, _ = power(m)
        assert counts["ops"] <= 4 * m.bit_length() + 4
        hm = square_and_multiply(platform, h, m)
        hg_m = square_and_multiply(platform, platform.multiply(h, g), m)
        assert first == platform.multiply(platform.invert(hm), hg_m)
    m, n = rng.getrandbits(128), rng.getrandbits(128)
    counts["ops"] = 0
    out = semidirect_exchange(platform, g, phi, rng, m=m, n=n)
    assert out.agreed
    # two transmissions, the hg/commutation check (3) and two keys (2 each)
    assert counts["ops"] <= 4 * m.bit_length() + 4 + 4 * n.bit_length() + 4 + 7


def test_inner_automorphism_rejects_singular():
    # a singular "element" cannot be built through the matrix platform's
    # element(), so build its payload directly: the platform's invert fails
    platform = MatrixModP(2, 5)
    with pytest.raises(SetupError, match="invertible"):
        inner_automorphism(platform, Element(platform, ((1, 2), (2, 4))))
    good = platform.random_element(random.Random(1))
    assert inner_automorphism(platform, good).h == good


def test_semidirect_transcript_has_only_first_components():
    platform, g, h = semidirect_setup()
    phi = inner_automorphism(platform, h)
    out = semidirect_exchange(platform, g, phi, random.Random(5), m=9, n=4)
    assert [r.label for r in out.transcript.records] == ["first-A", "first-B"]
    assert len(out.transcript.records) == 2


# --- transcripts -------------------------------------------------------------

def test_transcripts_are_replay_deterministic():
    platform, w, A, B = block_setup()
    fp = FreePlatform(4)
    gens = fp.generators()
    A2, B2 = SubgroupGens(fp, tuple(gens[:2])), SubgroupGens(fp, tuple(gens[2:]))
    mp3 = MatrixModP(3, 1009)
    setup = random.Random(50)
    g3, h3 = mp3.random_element(setup), mp3.random_element(setup)

    def sessions(seed):
        yield dh_exchange(cyclic23(), random.Random(seed))
        yield elgamal_session(cyclic23(), random.Random(seed))
        yield ko_lee_exchange(platform, w, A, B, random.Random(seed))
        yield aag_exchange(fp, A2, B2, random.Random(seed))
        yield decomposition_exchange(platform, w, A, B, random.Random(seed))
        yield twisted_exchange(platform, w, A, B, random.Random(seed))
        yield factorization_exchange(platform, A, B, random.Random(seed))
        yield semidirect_exchange(
            mp3, g3, inner_automorphism(mp3, h3), random.Random(seed)
        )

    for one, two in zip(sessions(77), sessions(77)):
        assert serialize_transcript(one.transcript) == serialize_transcript(two.transcript)


def test_transcript_sequence_numbers():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(1))
    assert [r.seq for r in out.transcript.records] == [1, 2]


def test_transcript_roundtrip_and_payload_integrity():
    platform, w, A, B = block_setup()
    out = ko_lee_exchange(platform, w, A, B, random.Random(2))
    text = serialize_transcript(out.transcript)
    parsed = parse_transcript(text)
    assert serialize_transcript(parsed) == text
    for record in parsed.records:
        platform.parse_element(record.payload)  # payload round-trips


def test_transcript_never_carries_private_expressions():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(3))
    payloads = [r.payload for r in out.transcript.records]
    for secret in out.private_state.values():
        assert platform.serialize_element(secret.value) not in payloads


def test_transcript_parse_errors():
    with pytest.raises(ParseError):
        parse_transcript("1 Alice label payload\n")  # headers missing
    with pytest.raises(ParseError):
        parse_transcript("# protocol: dh\n# platform: cyclic 23 5\n2 Alice x 1\n")
    with pytest.raises(ParseError):
        parse_transcript("# protocol: dh\n# platform: cyclic 23 5\nbad line\n")


def test_order_one_generator_is_a_setup_error():
    for p in (2, 3):
        platform = CyclicModP(p, 1)
        with pytest.raises(SetupError):
            dh_exchange(platform, random.Random(1))
        with pytest.raises(SetupError):
            elgamal_session(platform, random.Random(1))

