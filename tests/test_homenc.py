import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import cli, homenc, tietze, words
from gtc.errors import KeygenError
from gtc.homenc import (
    HomomorphicKeyPair,
    HomomorphicPrivateKey,
    HomomorphicPublicKey,
    a5_faithful,
    a5_presentation,
    check_faithful_images,
    eval_faithful,
    hom_decrypt,
    hom_encrypt,
    hom_keygen,
    randomize_word,
    scripted_encrypt,
    worked_example_chain,
    worked_example_encryption,
    worked_example_faithful,
    worked_example_keypair,
    worked_example_presentation,
)
from gtc.platforms import PermutationPlatform, SubgroupGens, eval_word
from gtc.rewriting import PairInsert
from gtc.rng import substream
from gtc.tietze import (
    Presentation,
    TietzeChain,
    break_relators,
    compose_maps,
    discard_relators,
    identity_map,
    random_chain,
)
from gtc.words import Word, apply_map, empty_word, free_reduce, random_word, serialize_word


def _public_on_g(G, faithful):
    """The public key of the empty chain on G, withholding nothing."""
    return HomomorphicPublicKey.of(TietzeChain.of(G), frozenset(), faithful)


def test_faithful_images_satisfy_relators():
    check_faithful_images(_public_on_g(worked_example_presentation(), worked_example_faithful()))
    check_faithful_images(_public_on_g(a5_presentation(), a5_faithful()))


def test_faithful_images_rejected_when_wrong():
    s5 = PermutationPlatform(5)
    bad = (s5.element((2, 3, 1, 4, 5)),) * 3  # order 3, breaks x1^2 x2^3
    with pytest.raises(KeygenError):
        check_faithful_images(_public_on_g(worked_example_presentation(), bad))
    with pytest.raises(KeygenError, match="one permutation image per generator"):
        check_faithful_images(_public_on_g(worked_example_presentation(), bad[:2]))


def test_key_pair_rejects_faithful_images_that_break_a_relator():
    kp = worked_example_keypair()
    a, b, c = kp.public.faithful
    public = dataclasses.replace(kp.public, faithful=(b, a, c))  # b^2 a^3 = b^-1 a != e
    with pytest.raises(KeygenError, match="do not satisfy the relators"):
        HomomorphicKeyPair.of(public, kp.private.chain, kp.private.discarded)


def test_private_key_holds_only_its_chain_and_withheld_set():
    kp = hom_keygen(a5_presentation(), a5_faithful(), 6, 1, random.Random(5))
    assert [f.name for f in dataclasses.fields(HomomorphicPrivateKey)] == ["chain", "discarded"]
    assert kp.private.phi_inv is kp.private.chain.phi_inv


def _public_by_complement(chain, withheld, faithful):
    """The derivation the key builders used before ``HomomorphicPublicKey.of``:
    H-hat holds the complement of the withheld set, or is H when that is empty."""
    H = chain.end
    keep = set(range(len(H.relators))) - withheld
    kept = tuple(r for i, r in enumerate(H.relators) if i in keep)
    H_hat = Presentation(H.n_gens, kept) if keep else H
    return HomomorphicPublicKey(chain.phi, chain.start, H_hat, faithful)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), group=st.sampled_from(["demo", "a5"]), seed=st.integers(0, 10**6),
       chain_len=st.integers(0, 8))
def test_public_key_of_equals_the_complement_derivation(data, group, seed, chain_len):
    G, faithful = ((worked_example_presentation(), worked_example_faithful()) if group == "demo"
                   else (a5_presentation(), a5_faithful()))
    chain = random_chain(break_relators(G, 3), chain_len, random.Random(seed))
    n = len(chain.end.relators)
    # the old derivation read an empty keep set as all of H; hom_keygen never withholds every relator
    withheld = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    assert HomomorphicPublicKey.of(chain, withheld, faithful) == _public_by_complement(
        chain, withheld, faithful)


def test_a5_has_order_sixty_generators():
    s5 = PermutationPlatform(5)
    a, b = a5_faithful()
    ab = s5.multiply(a, b)
    power = ab
    order = 1
    while power != s5.identity():
        power = s5.multiply(power, ab)
        order += 1
    assert order == 5


def test_keygen_zero_chain_is_identity():
    kp = hom_keygen(
        worked_example_presentation(), worked_example_faithful(), 0, 0, random.Random(0)
    )
    assert kp.public.phi == identity_map(3)
    assert kp.public.H_hat == worked_example_presentation()
    assert kp.private.chain == TietzeChain.of(worked_example_presentation())
    assert kp.private.H == worked_example_presentation()
    w = Word((1, 2, 1), 3)
    assert hom_encrypt(kp.public, w, 0, random.Random(0)) == free_reduce(w)


def test_keygen_replay_deterministic():
    a = hom_keygen(a5_presentation(), a5_faithful(), 6, 1, random.Random(5))
    b = hom_keygen(a5_presentation(), a5_faithful(), 6, 1, random.Random(5))
    assert a.public == b.public
    assert a.private == b.private


def test_decrypt_composes_no_map_after_keygen(monkeypatch):
    # hom_keygen composes phi_inv, so the first decryption pays nothing for it
    calls, actions, products = [], [], []

    def counting(first, second):
        calls.append(1)
        return compose_maps(first, second)

    def counting_left_mul(self, y):
        actions.append(1)
        act = left_mul(self, y)

        def counted(x):
            products.append(1)
            return act(x)

        return counted

    left_mul = PermutationPlatform.left_mul
    monkeypatch.setattr(tietze, "compose_maps", counting)
    # the key pair builds its left actions at keygen, so they are counted from here on
    monkeypatch.setattr(PermutationPlatform, "left_mul", counting_left_mul)
    kp = hom_keygen(a5_presentation(), a5_faithful(), 6, 1, random.Random(5))
    composed = len(calls)
    assert composed == 2 * len(kp.private.chain.moves)
    plain = Word((1, 2, 1), 2)
    ct = hom_encrypt(kp.public, plain, 4, random.Random(6))
    assert len(ct) > 1
    # nor does it expand the ciphertext: one permutation product per letter after the first
    maps = []

    def counting_map(m, w):
        maps.append(1)
        return apply_map(m, w)

    monkeypatch.setattr(homenc, "apply_map", counting_map)
    monkeypatch.setattr(words, "apply_map", counting_map)
    actions.clear()
    products.clear()
    got = hom_decrypt(kp, ct)
    # and builds no action: the pair made them all at keygen
    assert (len(maps), len(actions), len(products)) == (0, 0, len(ct) - 1)
    monkeypatch.undo()
    assert got == eval_faithful(kp.public, plain)
    assert len(calls) == composed


def _decryption_keys():
    """Key pairs of every kind of origin, named for the test ids."""
    demo = (worked_example_presentation(), worked_example_faithful())
    a5 = (a5_presentation(), a5_faithful())
    keys = {f"{name}-seed{seed}": hom_keygen(*group, 8, 1, random.Random(seed))
            for name, group in (("demo", demo), ("a5", a5)) for seed in (1, 2, 3)}
    keys["a5-chain0"] = hom_keygen(*a5, 0, 0, random.Random(0))
    keys["worked-example"] = worked_example_keypair()
    kp = hom_keygen(*demo, 5, 2, random.Random(9))
    public = cli._parse_hom_public(cli._format_hom_public(kp.public))
    keys["cli-reader"] = cli._parse_hom_private(cli._format_hom_private(kp), public)
    return keys


_KEYS = _decryption_keys()


@pytest.mark.parametrize("kp", list(_KEYS.values()), ids=list(_KEYS))
def test_decryption_table_equals_inverse_map_then_evaluation(kp):
    n = kp.private.H.n_gens
    rng = substream(29, n)
    cts = [empty_word(n)] + [Word((s * i,), n) for i in range(1, n + 1) for s in (1, -1)]
    cts += [random_word(n, (0, 20), rng) for _ in range(200)]  # unreduced
    for ct in cts:
        expected = eval_faithful(kp.public, apply_map(kp.private.phi_inv, ct))
        assert hom_decrypt(kp, ct) == expected, serialize_word(ct)


def test_keygen_discard_guard():
    with pytest.raises(KeygenError):
        hom_keygen(a5_presentation(), a5_faithful(), 0, 5, random.Random(0))


def test_worked_example_h_hat_discard():
    chain = worked_example_chain()
    kp = worked_example_keypair()
    assert kp.public.H_hat == discard_relators(chain.end, {1})
    assert kp.private.discarded == frozenset({1})


def test_encrypt_without_randomization_is_map_image():
    kp = worked_example_keypair()
    ct = hom_encrypt(kp.public, Word((1, 2), 3), 0, random.Random(0))
    assert ct == Word((5, 2), 6)


def test_scripted_golden_ciphertext():
    kp = worked_example_keypair()
    plain, moves, expected = worked_example_encryption()
    ct = scripted_encrypt(kp.public, plain, moves)
    assert ct == expected
    assert serialize_word(ct) == "5,5,-4,5,4,2,-6,2"
    assert hom_decrypt(kp, ct) == eval_faithful(kp.public, plain)
    # the plaintext element is the 5-cycle, not the identity
    assert hom_decrypt(kp, ct).payload == (2, 3, 4, 5, 1)


def test_empty_plaintext_decrypts_to_identity():
    kp = worked_example_keypair()
    ct = hom_encrypt(kp.public, empty_word(3), 6, random.Random(4))
    platform = kp.public.faithful[0].platform
    assert hom_decrypt(kp, ct) == platform.identity()


def test_identity_ciphertext_decrypts_to_identity():
    kp = worked_example_keypair()
    platform = kp.public.faithful[0].platform
    assert hom_decrypt(kp, empty_word(6)) == platform.identity()


def test_randomize_word_zero_steps():
    kp = worked_example_keypair()
    w = Word((5, 2), 6)
    assert randomize_word(w, kp.public.H_hat, 0, random.Random(0)) == w


def test_pair_insert_reduces_away():
    w = Word((5, 2), 6)
    kp = worked_example_keypair()
    out = PairInsert(1, Word((3, -6), 6)).apply(w, kp.public.H_hat)
    assert free_reduce(out) == w


def test_randomize_preserves_element_roundtrip():
    kp = worked_example_keypair()
    for trial in range(500):
        rng = substream(31, trial)
        w = random_word(3, (0, 6), rng)
        steps = rng.randint(0, 8)
        ct = hom_encrypt(kp.public, w, steps, rng)
        assert hom_decrypt(kp, ct) == eval_faithful(kp.public, w)


def test_roundtrip_on_random_a5_keys():
    for trial in range(100):
        rng = substream(77, trial)
        kp = hom_keygen(a5_presentation(), a5_faithful(), rng.randint(1, 8), 1, rng)
        w = random_word(2, (0, 8), rng)
        ct = hom_encrypt(kp.public, w, rng.randint(0, 10), rng)
        assert hom_decrypt(kp, ct) == eval_faithful(kp.public, w)


def test_homomorphic_property():
    kp = worked_example_keypair()
    platform = kp.public.faithful[0].platform
    for trial in range(200):
        rng = substream(55, trial)
        w1 = random_word(3, (0, 6), rng)
        w2 = random_word(3, (0, 6), rng)
        ct1 = hom_encrypt(kp.public, w1, 4, rng)
        ct2 = hom_encrypt(kp.public, w2, 4, rng)
        combined = Word(ct1.letters + ct2.letters, 6)
        assert hom_decrypt(kp, combined) == platform.multiply(
            hom_decrypt(kp, ct1), hom_decrypt(kp, ct2)
        )


def test_probabilistic_encryption():
    kp = worked_example_keypair()
    plain = Word((1, 2), 3)
    seen = set()
    repeats = 0
    previous = None
    for trial in range(1000):
        rng = substream(99, trial)
        ct = hom_encrypt(kp.public, plain, 4, rng)
        key = ct.letters
        if previous is not None and key == previous:
            repeats += 1
        previous = key
        seen.add(key)
    assert repeats <= 10  # two encryptions of the same word almost never match
    assert len(seen) >= 990


def test_ciphertext_length_linear_in_steps():
    kp = worked_example_keypair()
    plain = Word((1, 2), 3)
    base = len(hom_encrypt(kp.public, plain, 0, random.Random(0)))
    longest_relator = max(len(r) for r in kp.public.H_hat.relators)
    per_step = max(6, longest_relator + 4)
    for steps in (1, 4, 16, 64):
        ct = hom_encrypt(kp.public, plain, steps, random.Random(7))
        assert len(ct) <= base + steps * per_step


def test_identity_keypair_helper():
    kp = hom_keygen(a5_presentation(), a5_faithful(), 0, 0, random.Random(0))
    w = Word((1, 2, 1), 2)
    assert hom_encrypt(kp.public, w, 0, random.Random(0)) == free_reduce(w)


def test_faithful_evaluation_helper():
    kp = worked_example_keypair()
    gens = SubgroupGens(kp.public.faithful[0].platform, kp.public.faithful)
    w = Word((1, 2, -1), 3)
    assert eval_faithful(kp.public, w) == eval_word(gens, w)
