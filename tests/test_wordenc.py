import random

import pytest

from gtc.errors import LengthError, RangeError
from gtc.rewriting import PairInsert
from gtc.rng import substream
from gtc.tietze import Presentation, apply_map, presentation
from gtc.wordenc import (
    BitCiphertext,
    algorithm0,
    algorithm1,
    eve_emulation_attack,
    oracle_from_private,
    run_trick_treat_trials,
    trick_treat_decrypt,
    trick_treat_encrypt,
    trick_treat_keygen,
)
from gtc.words import Word, empty_word, free_reduce


def small_presentation():
    return presentation(2, [[1, 1], [2, 2, 2]])


def test_algorithm0_is_random_word():
    rng = random.Random(0)
    out = algorithm0(small_presentation(), (5, 9), rng)
    assert 5 <= len(out) <= 9
    assert algorithm0(small_presentation(), (0, 0), rng) == empty_word(2)


def test_algorithm1_empty_target():
    assert algorithm1(small_presentation(), (0, 0), random.Random(1)) == empty_word(2)


def test_single_pair_insertion():
    w = PairInsert(0, Word((1, 2), 2)).apply(empty_word(2), small_presentation())
    assert w == Word((1, 2, -2, -1), 2)
    assert free_reduce(w) == empty_word(2)


def test_algorithm1_lands_in_range_and_is_trivial():
    pres = small_presentation()
    for seed in range(100):
        rng = random.Random(seed)
        out = algorithm1(pres, (10, 20), rng)
        assert 10 <= len(out) <= 20


def test_algorithm1_outputs_are_trivial_in_disguised_group():
    for seed in range(100):
        rng = random.Random(seed)
        key = trick_treat_keygen(2, 5, rng)
        side = key.private.sides[key.private.infinite_index - 1]
        out = algorithm1(side.public, (8, 20), rng)
        # mapping back to the free seed must reduce to nothing
        assert len(apply_map(side.chain.phi_inv, out).letters) == 0


def test_algorithm1_length_error_when_unreachable():
    # no relators and an odd exact length: pair insertions are stuck at even
    free_pres = Presentation(2, ())
    with pytest.raises(LengthError):
        algorithm1(free_pres, (3, 3), random.Random(0))
    with pytest.raises(RangeError):
        algorithm1(free_pres, (5, 2), random.Random(0))


def test_keygen_chain_len_zero_publishes_seeds():
    key = trick_treat_keygen(3, 0, random.Random(2))
    trivial = key.publics[key.private.trivial_index - 1]
    infinite = key.publics[key.private.infinite_index - 1]
    assert trivial == presentation(3, [[1], [2], [3]])
    assert infinite == Presentation(3, ())


def test_keygen_replay_stable():
    a = trick_treat_keygen(2, 6, random.Random(42))
    b = trick_treat_keygen(2, 6, random.Random(42))
    assert a.publics == b.publics
    assert a.private.trivial_index == b.private.trivial_index


def test_keygen_private_identifies_trivial_side():
    for seed in range(20):
        key = trick_treat_keygen(2, 4, random.Random(seed))
        trivial_side = key.private.sides[key.private.trivial_index - 1]
        assert trivial_side.kind == "trivial"
        other = key.private.sides[key.private.infinite_index - 1]
        assert other.kind == "free"


def test_encrypt_triviality_by_construction():
    rng = random.Random(3)
    key = trick_treat_keygen(2, 5, rng)
    oracle = oracle_from_private(key.private)
    for bit in (0, 1):
        ct = trick_treat_encrypt(bit, key.publics, (12, 20), rng)
        if bit == 1:
            assert oracle(2, ct.w2)
        else:
            assert oracle(1, ct.w1)
        assert 12 <= len(ct.w1) <= 20
        assert 12 <= len(ct.w2) <= 20


def test_decrypt_bit_one_always_correct():
    for seed in range(60):
        rng = random.Random(seed)
        key = trick_treat_keygen(2, 5, rng)
        ct = trick_treat_encrypt(1, key.publics, (10, 16), rng)
        assert trick_treat_decrypt(ct, key.private) == 1


def test_decrypt_empty_random_component_reads_one():
    # forced boundary: empty words are trivial everywhere, so the receiver
    # reads bit 1 whenever the inspected component is empty
    seed = 0
    while True:
        rng = random.Random(seed)
        key = trick_treat_keygen(2, 4, rng)
        if key.private.trivial_index == 1:
            break
        seed += 1
    ct = BitCiphertext(empty_word(key.publics[0].n_gens), empty_word(key.publics[1].n_gens))
    assert trick_treat_decrypt(ct, key.private) == 1


def test_eve_cases_are_deterministic_when_unambiguous():
    rng = random.Random(5)
    key = trick_treat_keygen(2, 5, rng)
    oracle = oracle_from_private(key.private)
    seen_cases = set()
    for trial in range(200):
        trng = substream(9, trial)
        bit = trng.randrange(2)
        ct = trick_treat_encrypt(bit, key.publics, (12, 20), trng)
        guess, case = eve_emulation_attack(ct, oracle, trng)
        seen_cases.add(case)
        if case in (2, 3):
            assert guess == bit  # cases 2/3 decode deterministically
    assert 1 in seen_cases and (2 in seen_cases or 3 in seen_cases)


def test_eve_rate_small_smoke():
    stats = run_trick_treat_trials(800, seed=101, len_range=(12, 20))
    assert 0.69 <= stats.eve_rate <= 0.81
    assert stats.legit_rate >= 0.98
    assert abs(stats.case_rate(1) - 0.5) < 0.08


def test_legitimate_error_rate_decreases_with_length():
    # fresh key and randomness per trial; bit 0 is the error-prone branch
    errors = {}
    trials = 10_000
    for length in (8, 16, 32):
        wrong = 0
        for trial in range(trials):
            rng = substream(777 + length, trial)
            key = trick_treat_keygen(2, 5, rng)
            ct = trick_treat_encrypt(0, key.publics, (length, length), rng)
            if trick_treat_decrypt(ct, key.private) != 0:
                wrong += 1
        errors[length] = wrong / trials
    assert errors[8] > errors[16] > errors[32]
    assert errors[16] < 0.01
