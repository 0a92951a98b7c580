"""Word-problem bit encryption and the emulation adversary.

A bit is transmitted as a pair of words against two published
presentations, one secretly trivial and one secretly a disguised free
group.  The legitimate receiver decides triviality exactly (inverse
chain map plus free reduction); the computationally unbounded adversary
is modeled by a ground-truth oracle and is still capped at 3/4 success.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import LengthError, RangeError
from .rewriting import PairInsert, RelatorInsert
from .rng import substream
from .tietze import Presentation, TietzeChain, presentation, random_chain
from .words import Word, apply_map, empty_word, random_word, random_reduced_word


def algorithm0(pres: Presentation, len_range: tuple[int, int], rng: random.Random) -> Word:
    """Random word over the presentation's alphabet, letter by letter."""
    return random_word(pres.n_gens, len_range, rng)


def algorithm1(
    pres: Presentation,
    len_range: tuple[int, int],
    rng: random.Random,
) -> Word:
    """Random word equal to 1 in the presented group.

    Built from the empty word by inserting h h^-1 pairs and conjugated
    defining relators at random positions until the length lands in the
    requested range (the same range algorithm0 draws from, so the two
    outputs are length-indistinguishable).  The pair moves offer sizes 2,
    4 and 6, so a length is reachable exactly when it is even or at least
    the smallest odd move size; every move is checked against that rule so
    the walk never strands outside the range, and LengthError means no
    combination of moves can reach it.
    """
    lo, hi = len_range
    if lo < 0 or hi < lo:
        raise RangeError(f"empty length range [{lo}, {hi}]")
    n = pres.n_gens
    # each move with the letters it inserts: h h^-1 pairs 2..6, a conjugated
    # relator |r| + 2c
    moves = [(("pair", k), 2 * k) for k in (1, 2, 3)] + [
        (("relator", i, c), len(r) + 2 * c)
        for i, r in enumerate(pres.relators) for c in (0, 1, 2) if len(r) + 2 * c > 0
    ]
    odd = min((s for _, s in moves if s % 2), default=hi + 1)
    targets = [t for t in range(lo, hi + 1) if t % 2 == 0 or t >= odd]
    if not targets:
        raise LengthError(f"no insertion combination reaches [{lo}, {hi}]")
    target = targets[rng.randrange(len(targets))]
    w = empty_word(n)
    while len(w) < target:
        gap = target - len(w)
        options = [move for move, s in moves
                   if s <= gap and ((gap - s) % 2 == 0 or gap - s >= odd)]
        choice = options[rng.randrange(len(options))]
        pos = rng.randint(0, len(w))
        if choice[0] == "pair":
            h = random_word(n, (choice[1], choice[1]), rng)
            w = PairInsert(pos, h).apply(w, pres)
        else:
            _, i, c = choice
            conj = random_reduced_word(n, (c, c), rng)
            w = RelatorInsert(pos, i, rng.random() < 0.5, conj).apply(w, pres)
    return w


# ---------------------------------------------------------------------------
# trick-and-treat keys

@dataclass(frozen=True)
class DisguisedGroup:
    """A private chain from a seed presentation to the published one, its end."""

    chain: TietzeChain
    kind: str  # "trivial" | "free"

    @property
    def public(self) -> Presentation:
        return self.chain.end

    def is_trivial_word(self, w: Word) -> bool:
        """Exact word problem for the published presentation."""
        if self.kind == "trivial":
            return True
        return len(apply_map(self.chain.phi_inv, w).letters) == 0


@dataclass(frozen=True)
class TrickTreatPrivate:
    """One trivial and one free side, in the published order."""

    sides: tuple[DisguisedGroup, DisguisedGroup]

    @property
    def trivial_index(self) -> int:
        """1 or 2, the position of the trivial presentation."""
        return 1 if self.sides[0].kind == "trivial" else 2

    @property
    def infinite_index(self) -> int:
        return 3 - self.trivial_index


@dataclass(frozen=True)
class TrickTreatKey:
    private: TrickTreatPrivate

    @property
    def publics(self) -> tuple[Presentation, Presentation]:
        return self.private.sides[0].public, self.private.sides[1].public


@dataclass(frozen=True)
class BitCiphertext:
    w1: Word
    w2: Word


def seed_presentation(kind: str, r: int) -> Presentation:
    """The presentation of rank r a side of this kind starts from: no
    relators for "free", each generator a relator for "trivial"."""
    return presentation(r, [] if kind == "free" else [[i] for i in range(1, r + 1)])


def trick_treat_keygen(r: int, chain_len: int, rng: random.Random) -> TrickTreatKey:
    """Publish one disguised trivial and one disguised free presentation
    of rank r, in random order; only the private half knows which."""
    if r < 2:
        raise RangeError("need rank >= 2")
    free, trivial = [
        DisguisedGroup(random_chain(TietzeChain.of(seed_presentation(k, r)), chain_len, rng), k)
        for k in ("free", "trivial")
    ]
    sides = (trivial, free) if rng.random() < 0.5 else (free, trivial)
    return TrickTreatKey(TrickTreatPrivate(sides))


def trick_treat_encrypt(
    bit: int,
    publics: tuple[Presentation, Presentation],
    len_range: tuple[int, int],
    rng: random.Random,
) -> BitCiphertext:
    """bit=1: w1 random, w2 trivial in G2; bit=0: w1 trivial in G1, w2 random."""
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if bit == 1:
        w1 = algorithm0(publics[0], len_range, rng)
        w2 = algorithm1(publics[1], len_range, rng)
    else:
        w1 = algorithm1(publics[0], len_range, rng)
        w2 = algorithm0(publics[1], len_range, rng)
    return BitCiphertext(w1, w2)


def trick_treat_decrypt(ct: BitCiphertext, private: TrickTreatPrivate) -> int:
    """Ignore the component addressed to the trivial group; map the other
    through the disguised free group's inverse chain and read triviality.
    Wrong output (a random word that happens to be trivial) is the modeled
    failure mode, not an error."""
    infinite = private.sides[private.infinite_index - 1]
    if private.trivial_index == 1:
        return 1 if infinite.is_trivial_word(ct.w2) else 0
    return 0 if infinite.is_trivial_word(ct.w1) else 1


# ---------------------------------------------------------------------------
# the emulation adversary

def oracle_from_private(private: TrickTreatPrivate):
    """Ground-truth word-problem oracle for both published groups,
    modeling the computationally unbounded adversary."""

    def oracle(which: int, w: Word) -> bool:
        return private.sides[which - 1].is_trivial_word(w)

    return oracle


def eve_emulation_attack(
    ct: BitCiphertext, wp_oracle, rng: random.Random
) -> tuple[int, int]:
    """Eve's bit guess plus the case number (1: both trivial, 2: only w1,
    3: only w2).  Cases 2 and 3 decode deterministically; case 1 is a coin."""
    t1 = wp_oracle(1, ct.w1)
    t2 = wp_oracle(2, ct.w2)
    if t1 and t2:
        return rng.randrange(2), 1
    if t1:
        return 0, 2
    if t2:
        return 1, 3
    # unreachable for an honest sender; guess anyway
    return rng.randrange(2), 0


@dataclass
class TrickTreatStats:
    trials: int
    eve_correct: int
    legit_correct: int
    case_counts: dict

    @property
    def eve_rate(self) -> float:
        return self.eve_correct / self.trials

    @property
    def legit_rate(self) -> float:
        return self.legit_correct / self.trials

    def case_rate(self, case: int) -> float:
        return self.case_counts.get(case, 0) / self.trials


def run_trick_treat_trials(
    trials: int, seed: int, len_range: tuple[int, int] = (16, 24)
) -> TrickTreatStats:
    """Monte-Carlo harness: fresh key (rank 2, 6 moves a side, the
    ``wp-encrypt`` defaults), random bit, encrypt, legitimate decrypt, and
    the emulation attack, per trial."""
    eve_correct = 0
    legit_correct = 0
    case_counts: dict = {}
    for trial in range(trials):
        rng = substream(seed, trial)
        key = trick_treat_keygen(2, 6, rng)
        bit = rng.randrange(2)
        ct = trick_treat_encrypt(bit, key.publics, len_range, rng)
        if trick_treat_decrypt(ct, key.private) == bit:
            legit_correct += 1
        guess, case = eve_emulation_attack(
            ct, oracle_from_private(key.private), rng
        )
        case_counts[case] = case_counts.get(case, 0) + 1
        if guess == bit:
            eve_correct += 1
    return TrickTreatStats(trials, eve_correct, legit_correct, case_counts)

