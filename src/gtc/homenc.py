"""Public-key homomorphic encryption via a disguised isomorphism.

Key generation builds a private chain of elementary presentation moves
from G to H and publishes the composed generator map plus H with some
relators discarded.  Encryption pushes a plaintext word through the
public map and randomizes it inside the published presentation;
decryption applies the private inverse map and canonicalizes in a fixed
permutation evaluation of G, which is the plaintext's normal form.  Both
steps are homomorphisms, so each key pair tabulates their composite on
the generators of H once, and a decryption applies one permutation's
left action (one itemgetter call) per ciphertext letter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import KeygenError, RankError
from .platforms import Element, PermutationPlatform, SubgroupGens, eval_word
from .rewriting import (
    PairInsert,
    RelatorInsert,
    Substitute,
    random_substitution,
)
from .tietze import (
    Presentation,
    T1Move,
    T3Move,
    T4Move,
    TietzeChain,
    break_relators,
    discard_relators,
    presentation,
    random_chain,
)
from .words import GenMap, Word, apply_map, random_word


@dataclass(frozen=True)
class HomomorphicPublicKey:
    phi: GenMap
    G: Presentation
    H_hat: Presentation
    faithful: tuple[Element, ...]  # permutation image of each G generator

    @classmethod
    def of(cls, chain: TietzeChain, withheld, faithful) -> HomomorphicPublicKey:
        """The chain's phi and start G, and its end H less the ``withheld`` relators."""
        return cls(chain.phi, chain.start, discard_relators(chain.end, withheld), faithful)

    @cached_property
    def faithful_gens(self) -> SubgroupGens:
        """The faithful images as a generator list; its letter table, and
        so each inverse image, is computed once per key."""
        return SubgroupGens(self.faithful[0].platform, self.faithful)


@dataclass(frozen=True)
class HomomorphicPrivateKey:
    """The chain from G to H (H is its end) and the relators of H withheld
    from H-hat; ``phi_inv`` is the chain's cached inverse map."""

    chain: TietzeChain
    discarded: frozenset

    @property
    def H(self) -> Presentation:
        return self.chain.end

    @property
    def phi_inv(self) -> GenMap:
        return self.chain.phi_inv


@dataclass(frozen=True)
class HomomorphicKeyPair:
    """``decryption`` holds the faithful image of phi_inv of each generator
    of H and their left actions; ``of`` checks the faithful images and
    builds both with the pair, never at the first decryption."""

    public: HomomorphicPublicKey
    private: HomomorphicPrivateKey
    decryption: SubgroupGens

    @classmethod
    def of(cls, public: HomomorphicPublicKey, chain: TietzeChain, discarded) -> HomomorphicKeyPair:
        check_faithful_images(public)
        images = tuple(eval_faithful(public, img) for img in chain.phi_inv.images)
        decryption = SubgroupGens(images[0].platform, images)
        decryption.left_table  # each inverse image and its action now, not in a decryption
        return cls(public, HomomorphicPrivateKey(chain, discarded), decryption)


def check_faithful_images(pk: HomomorphicPublicKey) -> None:
    """Every relator of G must evaluate to the identity permutation."""
    if len(pk.faithful) != pk.G.n_gens:
        raise KeygenError("need one permutation image per generator")
    identity = pk.faithful[0].platform.identity()
    if any(eval_faithful(pk, r) != identity for r in pk.G.relators):
        raise KeygenError("images do not satisfy the relators")


def hom_keygen(
    G: Presentation,
    faithful: tuple[Element, ...],
    chain_len: int,
    discard_count: int,
    rng: random.Random,
) -> HomomorphicKeyPair:
    """Private chain = relator breaking (to length 3) plus ``chain_len``
    random moves; then ``discard_count`` random relators are withheld."""
    if chain_len > 0:
        chain = random_chain(break_relators(G, 3), chain_len, rng)
    else:
        chain = TietzeChain.of(G)
    n_rels = len(chain.end.relators)
    if discard_count >= n_rels and discard_count > 0:
        raise KeygenError("cannot discard that many relators")
    discarded = frozenset(rng.sample(range(n_rels), discard_count))
    public = HomomorphicPublicKey.of(chain, discarded, faithful)
    return HomomorphicKeyPair.of(public, chain, discarded)


def randomize_word(
    w: Word, pres: Presentation, steps: int, rng: random.Random
) -> Word:
    """Rewrite w for ``steps`` moves without changing its element: insert
    h h^-1, insert a conjugated relator, or substitute across a relator
    occurrence.  Works on the raw word; no free reduction is applied."""
    kinds = ["pair", "relator", "subst"] if pres.relators else ["pair"]
    for _ in range(steps):
        kind = rng.choice(kinds)
        if kind == "subst":
            move = random_substitution(w, pres, rng)
            if move is None:
                kind = "pair"
            else:
                w = move.apply(w, pres)
                continue
        pos = rng.randint(0, len(w))
        if kind == "pair":
            h = random_word(pres.n_gens, (1, 3), rng)
            w = PairInsert(pos, h).apply(w, pres)
        else:
            rel_idx = rng.randrange(len(pres.relators))
            conj = random_word(pres.n_gens, (0, 2), rng)
            w = RelatorInsert(pos, rel_idx, rng.random() < 0.5, conj).apply(w, pres)
    return w


def hom_encrypt(
    pk: HomomorphicPublicKey,
    w_g: Word,
    randomize_steps: int,
    rng: random.Random,
) -> Word:
    """Apply the public map, then randomize inside the published group."""
    if w_g.rank > pk.phi.from_gens:
        raise RankError("plaintext word is not over G's alphabet")
    ct = apply_map(pk.phi, w_g)
    return randomize_word(ct, pk.H_hat, randomize_steps, rng)


def eval_faithful(pk: HomomorphicPublicKey, w: Word) -> Element:
    """Canonical form of the element a G-word represents."""
    return eval_word(pk.faithful_gens, w)


def hom_decrypt(keys: HomomorphicKeyPair, ct: Word) -> Element:
    """Private inverse map followed by the faithful evaluation, read from
    the pair's table: equal to ``eval_faithful(pk, apply_map(phi_inv, ct))``."""
    if ct.rank > keys.private.H.n_gens:
        raise RankError("ciphertext is not over the published alphabet")
    return eval_word(keys.decryption, ct)


# ---------------------------------------------------------------------------
# worked-example fixtures (golden values)

def worked_example_presentation() -> Presentation:
    """Two relators of length 5 in 3 generators."""
    return presentation(3, [[1, 1, 2, 2, 2], [1, 2, 2, -1, 3]])


def worked_example_chain() -> TietzeChain:
    """The scripted chain: two generator introductions with rewrites, a
    swap of x1 and x5, and one more introduction with a rewrite."""
    return (
        TietzeChain.of(worked_example_presentation())
        .then(T1Move(Word((1, 1), 3)))
        .then(T4Move(0, "mul_left", 2))
        .then(T1Move(Word((1, 2, 2), 4)))
        .then(T4Move(1, "mul_left", 3))
        .then(T3Move(("swap", 1, 5)))
        .then(T1Move(Word((4, 2), 5)))
        .then(T4Move(0, "mul_left", 4))
    )


def worked_example_faithful() -> tuple[Element, ...]:
    """Degree-5 permutation images satisfying both relators: x1 of order 2,
    x2 of order 3, x3 forced to x1 x2^-2 x1^-1."""
    s5 = PermutationPlatform(5)
    a = s5.element((2, 1, 4, 3, 5))
    b = s5.element((3, 2, 5, 4, 1))
    gens = SubgroupGens(s5, (a, b, s5.identity()))
    c = eval_word(gens, Word((1, -2, -2, -1), 3))
    return (a, b, c)


def worked_example_keypair() -> HomomorphicKeyPair:
    """Keypair from the scripted chain; the published presentation keeps
    the four relators used by the scripted randomization."""
    chain = worked_example_chain()
    discarded = frozenset({1})
    public = HomomorphicPublicKey.of(chain, discarded, worked_example_faithful())
    return HomomorphicKeyPair.of(public, chain, discarded)


def worked_example_encryption() -> tuple[Word, list, Word]:
    """(plaintext word, scripted randomization moves, expected ciphertext).

    The moves: insert x4 x4^-1 in front, replace that x4 by x5^2, insert
    x6 x6^-1 before the final letter, replace that x6 by x4 x2.
    """
    plaintext = Word((1, 2), 3)
    moves = [
        PairInsert(0, Word((4,), 6)),
        Substitute(0, 1, Word((5, 5), 6), rel_idx=1),
        PairInsert(4, Word((6,), 6)),
        Substitute(4, 1, Word((4, 2), 6), rel_idx=3),
    ]
    expected = Word((5, 5, -4, 5, 4, 2, -6, 2), 6)
    return plaintext, moves, expected


def scripted_encrypt(pk: HomomorphicPublicKey, w_g: Word, moves) -> Word:
    """Deterministic encryption with an explicit move script."""
    ct = apply_map(pk.phi, w_g)
    for move in moves:
        ct = move.apply(ct, pk.H_hat)
    return ct


# ---------------------------------------------------------------------------
# alternating-group demo (canonical-form example group)

def a5_presentation() -> Presentation:
    """<x1, x2 | x1^2, x2^3, (x1 x2)^5>, a finite simple group of order 60."""
    return presentation(2, [[1, 1], [2, 2, 2], [1, 2] * 5])


def a5_faithful() -> tuple[Element, ...]:
    s5 = PermutationPlatform(5)
    return (s5.element((2, 1, 4, 3, 5)), s5.element((3, 2, 5, 4, 1)))
