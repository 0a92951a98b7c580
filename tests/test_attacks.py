import random

import pytest

from gtc.attacks import (
    attack_aag_length_based,
    attack_decomposition_factor,
    attack_decomposition_normal,
    attack_dh_dlog,
    attack_ko_lee_csp,
    attack_twisted_commutator_probe,
    brute_force_csp,
    brute_force_dlog,
    commutator_probe_csp,
    commutator_probe_decomposition,
    commutator_probe_factorization,
    decomposition_to_factorization,
    enumerate_subgroup_values,
    format_attack_report,
    key_from_decomposition_solution,
    length_based_attack,
    normal_subgroup_attack,
    uniqueness_check,
)
from gtc.errors import AttackFailed, RankError
from gtc.platforms import (
    CyclicModP,
    DirectFreePlatform,
    FreePlatform,
    MatrixModP,
    SubgroupGens,
    block_commuting_subgroups,
    direct_factor_subgroups,
    eval_word,
)
from gtc.protocols import aag_exchange, decomposition_exchange, dh_exchange, ko_lee_exchange, twisted_exchange
from gtc.rng import substream
from gtc.words import Word


def block_setup(seed=99):
    rng = random.Random(seed)
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    w = A.platform.random_element(rng)
    return A.platform, w, A, B


# --- brute force -------------------------------------------------------------

def test_dlog_worked_number():
    cp = CyclicModP(23, 5)
    result = brute_force_dlog(cp, cp.element(5), cp.element(18), 100)
    assert result.exponent == 12
    assert result.multiplications == 12


def test_dlog_trivial_and_absent():
    cp = CyclicModP(23, 5)
    g = cp.element(5)
    assert brute_force_dlog(cp, g, g, 10).exponent == 1
    g2 = cp.multiply(g, g)
    assert brute_force_dlog(cp, g, g2, 1).exponent is None


def test_dlog_stops_when_the_powers_of_g_cycle():
    cp = CyclicModP(1009, 1008)  # g = -1 has order 2
    g = cp.element(1008)
    assert brute_force_dlog(cp, g, cp.element(3), 10**7) == (None, 2, True)
    # the target is checked before the identity, so 1 = g^2 is found
    assert brute_force_dlog(cp, g, cp.identity(), 10**7) == (2, 2, False)
    five = CyclicModP(23, 5)
    assert brute_force_dlog(five, five.element(5), five.identity(), 100) == (22, 22, False)
    # a bound below the order is no proof
    assert brute_force_dlog(cp, g, cp.element(3), 1) == (None, 1, False)


def test_dlog_rejects_elements_of_another_platform():
    cp, other = CyclicModP(23, 5), CyclicModP(29, 2)
    with pytest.raises(RankError):
        brute_force_dlog(cp, other.element(5), cp.element(5), 10)
    with pytest.raises(RankError):
        brute_force_dlog(cp, cp.element(5), other.element(5), 10)


def test_csp_trivial_cases():
    platform, w, A, _ = block_setup()
    found = brute_force_csp(w, w, A, 3)
    assert found.expr == Word((), 2)
    g1 = A.gens[0]
    target = platform.conjugate(w, g1)
    found = brute_force_csp(w, target, A, 3)
    assert found.expr is not None and len(found.expr) <= 1
    assert platform.conjugate(w, eval_word(A, found.expr)) == target


def test_csp_rejects_elements_of_another_platform():
    platform, w, A, _ = block_setup()
    other = MatrixModP(4, 7).identity()
    # the two identities have equal payloads: unchecked, the payload search reports a conjugator
    with pytest.raises(RankError):
        brute_force_csp(other, platform.identity(), A, 2)
    with pytest.raises(RankError):
        brute_force_csp(w, other, A, 2)


def test_csp_planted_recovery_and_completeness():
    platform, w, A, _ = block_setup()
    for seed in range(20):
        rng = random.Random(seed)
        expr = Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(3)), 2)
        x = eval_word(A, expr)
        target = platform.conjugate(w, x)
        found = brute_force_csp(w, target, A, 3)
        assert found.expr is not None
        assert platform.conjugate(w, eval_word(A, found.expr)) == target


def test_csp_work_counter_deterministic():
    platform, w, A, _ = block_setup()
    target = platform.conjugate(w, A.gens[1])
    a = brute_force_csp(w, target, A, 3)
    b = brute_force_csp(w, target, A, 3)
    assert a.candidates == b.candidates


def test_csp_witness_is_rechecked(monkeypatch):
    from gtc import problems

    platform, w, A, _ = block_setup()
    target = platform.conjugate(w, A.gens[1])
    # a broken evaluator: every expression evaluates to the identity
    monkeypatch.setattr(problems, "eval_word", lambda gens, expr: gens.platform.identity())
    with pytest.raises(AssertionError, match="csp witness fails its re-check"):
        brute_force_csp(w, target, A, 3)


# --- reductions ---------------------------------------------------------------

def test_reduction_identity_on_planted_decomposition():
    platform, w, A, B = block_setup()
    rng = random.Random(3)
    for _ in range(100):
        a = eval_word(A, Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(4)), 2))
        b = eval_word(B, Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(4)), 2))
        w_prime = platform.multiply(platform.multiply(a, w), b)
        w2 = decomposition_to_factorization(w, w_prime)
        a_w = platform.conjugate(a, w)
        assert w2 == platform.multiply(a_w, b)


def test_reduction_trivial_case():
    platform, w, _, _ = block_setup()
    assert decomposition_to_factorization(w, w) == platform.identity()


def test_normal_subgroup_attack_direct_product():
    dp = DirectFreePlatform(2, 2)
    A, B = direct_factor_subgroups(dp)
    for i in range(50):
        out = decomposition_exchange(dp, dp.random_element(substream(5, i)), A, B,
                                     substream(6, i), expr_len=(2, 5))
        report = attack_decomposition_normal(out.transcript)
        assert report.success
        assert report.recovered_key == out.key_alice


def test_normal_subgroup_attack_identity_instance():
    dp = DirectFreePlatform(2, 2)
    A, _ = direct_factor_subgroups(dp)
    a1, a2 = normal_subgroup_attack(dp.identity(), A)
    assert a1 == dp.identity() and a2 == dp.identity()


def test_normal_subgroup_attack_block_negative_control():
    platform, w, A, B = block_setup()
    for i in range(20):
        out = decomposition_exchange(platform, w, A, B, substream(7, i), expr_len=(2, 4))
        report = attack_decomposition_normal(out.transcript)
        assert not report.success
    # direct call raises
    w2 = decomposition_to_factorization(w, platform.random_element(random.Random(1)))
    with pytest.raises(AttackFailed):
        normal_subgroup_attack(w2, A)


def test_membershipless_subgroup_fails_closed():
    platform, w, A, _ = block_setup()
    plain = SubgroupGens(platform, A.gens)  # no structure descriptor
    with pytest.raises(AttackFailed):
        normal_subgroup_attack(w, plain)


def test_key_from_solution_with_alice_secrets():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(12), expr_len=(2, 4))
    s = {k: v.value for k, v in out.private_state.items()}
    bob_msg = platform.parse_element(out.transcript.find("b1*w*b2"))
    assert key_from_decomposition_solution(s["a1"], s["a2"], bob_msg) == out.key_alice


def test_key_from_solution_with_different_pair():
    # a distinct solving pair (a1*c, c^-1*a2) built from a w-centralizing c
    platform, _, A, B = block_setup()
    rng = random.Random(13)
    half = platform.n // 2
    for _ in range(30):
        # choose w inside the top block so its own block power centralizes it
        w_small = eval_word(A, Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(3)), 2))
        out = decomposition_exchange(platform, w_small, A, B, rng, expr_len=(2, 4))
        s = {k: v.value for k, v in out.private_state.items()}
        bob_msg = platform.parse_element(out.transcript.find("b1*w*b2"))
        c = w_small  # commutes with itself, lies in A's block
        a1_alt = platform.multiply(s["a1"], c)
        a2_alt = platform.multiply(platform.invert(c), s["a2"])
        alice_msg = platform.parse_element(out.transcript.find("a1*w*a2"))
        assert platform.multiply(platform.multiply(a1_alt, w_small), a2_alt) == alice_msg
        assert key_from_decomposition_solution(a1_alt, a2_alt, bob_msg) == out.key_alice


def test_key_from_solution_negative_control():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(14), expr_len=(2, 4))
    bob_msg = platform.parse_element(out.transcript.find("b1*w*b2"))
    junk = platform.random_element(random.Random(15))
    assert key_from_decomposition_solution(junk, junk, bob_msg) != out.key_alice


# --- commutator probes ---------------------------------------------------------

def random_subgroup_element(gens, rng, length=4):
    return eval_word(
        gens, Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(length)), 2)
    )


def test_probe_decomposition_identity():
    platform, w, A, B = block_setup()
    rng = random.Random(16)
    for _ in range(200):
        a = random_subgroup_element(A, rng)
        b = random_subgroup_element(B, rng)
        b1 = random_subgroup_element(B, rng)
        w_prime = platform.multiply(platform.multiply(a, w), b)
        inst = commutator_probe_decomposition(w_prime, b1, w)
        assert inst.v == platform.conjugate(inst.u, b)
    # b identity: the two sides coincide
    a = random_subgroup_element(A, rng)
    w_prime = platform.multiply(a, w)
    b1 = random_subgroup_element(B, rng)
    inst = commutator_probe_decomposition(w_prime, b1, w)
    assert inst.u == inst.v


def test_probe_factorization_identity():
    platform, _, A, B = block_setup()
    rng = random.Random(17)
    for _ in range(200):
        a = random_subgroup_element(A, rng)
        b = random_subgroup_element(B, rng)
        b1 = random_subgroup_element(B, rng)
        w_prime = platform.multiply(a, b)
        inst = commutator_probe_factorization(w_prime, b1)
        assert inst.v == platform.conjugate(inst.u, b)


def test_probe_csp_identity():
    platform, w, A, B = block_setup()
    rng = random.Random(18)
    for _ in range(200):
        a = random_subgroup_element(A, rng)
        b = random_subgroup_element(B, rng)
        w_prime = platform.conjugate(w, a)
        inst = commutator_probe_csp(w_prime, b, w)
        assert inst.v == platform.conjugate(inst.u, a)
    # identity a gives equal sides
    inst = commutator_probe_csp(w, random_subgroup_element(B, rng), w)
    assert inst.u == inst.v


def test_probe_planted_recovery():
    platform, w, A, B = block_setup()
    rng = random.Random(19)
    b = eval_word(B, Word((1, 2), 2))
    a = random_subgroup_element(A, rng)
    w_prime = platform.multiply(platform.multiply(a, w), b)
    inst = commutator_probe_decomposition(w_prime, B.gens[0], w)
    found = brute_force_csp(inst.u, inst.v, B, 2)
    assert found.expr is not None
    b_hat = eval_word(B, found.expr)
    assert platform.conjugate(inst.u, b_hat) == inst.v


def test_twisted_probe_attack_end_to_end():
    platform, w, A, B = block_setup()
    recovered = 0
    for i in range(20):
        out = twisted_exchange(platform, w, A, B, substream(20, i), expr_len=(1, 2))
        report = attack_twisted_commutator_probe(out.transcript, 3)
        if report.success:
            recovered += 1
            assert report.recovered_key == out.key_alice
    assert recovered >= 15  # occasional centralizer collisions are tolerated


# --- uniqueness ---------------------------------------------------------------

def test_uniqueness_free_platform():
    fp = FreePlatform(3)
    A = SubgroupGens(fp, (fp.generators()[0],))
    w = fp.generators()[2]
    a1 = eval_word(A, Word((1, 1), 1))
    a2 = eval_word(A, Word((-1,), 1))
    target = fp.multiply(fp.multiply(a1, w), a2)
    assert uniqueness_check(w, target, A, 4) == 1


def test_uniqueness_direct_product_degenerates():
    dp = DirectFreePlatform(2, 2)
    A, B = direct_factor_subgroups(dp)
    w = B.gens[0]  # lies in the commuting factor
    a1 = eval_word(A, Word((1,), 2))
    a2 = eval_word(A, Word((2,), 2))
    target = dp.multiply(dp.multiply(a1, w), a2)
    assert uniqueness_check(w, target, A, 2) > 1


def test_uniqueness_unreachable_target():
    fp = FreePlatform(3)
    A = SubgroupGens(fp, (fp.generators()[0],))
    w = fp.generators()[2]
    target = fp.generators()[1]  # x2 is not of the form x1^i x3 x1^j
    assert uniqueness_check(w, target, A, 3) == 0


# --- length-based ---------------------------------------------------------------

def aag_free_setup():
    fp = FreePlatform(4)
    gens = fp.generators()
    return fp, SubgroupGens(fp, tuple(gens[:2])), SubgroupGens(fp, tuple(gens[2:]))


def test_length_based_trivial_secrets():
    fp, A, B = aag_free_setup()
    out = aag_exchange(fp, A, B, random.Random(0), expr_len=(0, 0))
    report = attack_aag_length_based(out.transcript)
    assert report.success
    assert report.work["iterations"] == 0
    assert report.recovered_key == out.key_alice


def test_length_based_success_rate_short_secrets():
    fp, A, B = aag_free_setup()
    wins = 0
    for i in range(100):
        out = aag_exchange(fp, A, B, substream(44, i), expr_len=(1, 4))
        report = attack_aag_length_based(out.transcript)
        if report.success:
            assert report.recovered_key == out.key_alice
            wins += 1
    assert wins > 90


def test_length_based_honest_failure():
    fp, A, B = aag_free_setup()
    out = aag_exchange(fp, A, B, random.Random(2), expr_len=(3, 4))
    # attacker is given the wrong candidate subgroup: descent cannot finish
    wrong = SubgroupGens(fp, (fp.generators()[2],))
    report = length_based_attack(out.transcript, wrong, B)
    assert not report.success
    assert report.recovered_key is None


# --- dh / ko-lee drivers ---------------------------------------------------------

def test_attack_dh_driver():
    cp = CyclicModP(23, 5)
    out = dh_exchange(cp, random.Random(1))
    report = attack_dh_dlog(out.transcript, 30)
    assert report.success
    assert report.recovered_key == out.key_alice


def test_attack_ko_lee_driver():
    platform, w, A, B = block_setup()
    out = ko_lee_exchange(platform, w, A, B, random.Random(2), expr_len=(1, 3))
    report = attack_ko_lee_csp(out.transcript, 4)
    assert report.success
    assert report.recovered_key == out.key_alice


def test_attack_decomp_factor_driver():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(3), expr_len=(1, 2))
    report = attack_decomposition_factor(out.transcript, 3)
    assert report.success
    assert report.recovered_key == out.key_alice


def test_report_formatting():
    platform, w, A, B = block_setup()
    out = decomposition_exchange(platform, w, A, B, random.Random(4), expr_len=(1, 2))
    report = attack_decomposition_normal(out.transcript)
    text = format_attack_report(report, platform)
    assert text.startswith("attack: normal-subgroup\nsuccess: false")


def test_enumerate_subgroup_values_dedupes():
    fp = FreePlatform(2)
    A = SubgroupGens(fp, (fp.generators()[0],))
    values = enumerate_subgroup_values(A, 3)
    # x1^i for i in [-3, 3]
    assert len(values) == 7
