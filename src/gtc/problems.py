"""Brute-force and bounded deciders for the algorithmic problems.

Everything here is explicitly bounded or exhaustive at small sizes; the
guard caps enumeration at 2^20 states.  Every returned witness is
re-evaluated against the target before it leaves the function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Optional

from .errors import BoundError, ParseError, RankError
from .platforms import (ENUM_GUARD, Element, Platform, SubgroupGens, bfs_words,
                        enumerate_subgroup_values, eval_word, meet_in_middle,
                        platform_from_spec, signed_letters)
from .protocols import parse_gens
from .tietze import GenMap, apply_map
from .words import (Word, empty_word, int_value, invert, multiply, one_field,
                    parse_word, read_fields)


def _recheck(holds: bool, problem: str) -> None:
    """Witness re-check that stays active under ``python -O``."""
    if not holds:
        raise AssertionError(f"{problem} witness fails its re-check")


def _check_same_platform(platform: Platform, elements) -> None:
    for e in elements:
        if e.platform != platform:
            raise RankError("elements do not share the platform")


def ssp_decide(
    platform: Platform, items: list[Element], target: Element
) -> Optional[tuple[int, ...]]:
    """Exact subset-sum decision: ordered product with 0/1 exponents.

    Exhaustive over all 2^k selections (k <= 24) by depth-first search
    with shared prefix products (one multiplication per branch); returns
    the lexicographically first witness with 0 preferred over 1.
    """
    _check_same_platform(platform, items + [target])
    k = len(items)
    if k > 24:
        raise BoundError(f"k={k} exceeds the exhaustive-scan guard")

    def search(i: int, acc: Element) -> Optional[tuple[int, ...]]:
        if i == k:
            return () if acc == target else None
        skip = search(i + 1, acc)
        if skip is not None:
            return (0,) + skip
        take = search(i + 1, platform.multiply(acc, items[i]))
        if take is not None:
            return (1,) + take
        return None

    witness = search(0, platform.identity())
    if witness is not None:
        _recheck(_ordered_power_product(platform, items, witness) == target, "ssp")
    return witness


def _ordered_power_product(platform, items, exponents) -> Element:
    value = platform.identity()
    for item, e in zip(items, exponents):
        for _ in range(e):
            value = platform.multiply(value, item)
    return value


def kp_decide_bounded(
    platform: Platform, items: list[Element], target: Element, exp_bound: int
) -> Optional[tuple[int, ...]]:
    """Knapsack with non-negative exponents up to exp_bound per item.

    A returned vector is a true witness; absence only means no witness
    inside the exponent box (the search is bounded, not a full decision).
    """
    _check_same_platform(platform, items + [target])
    k = len(items)
    if (exp_bound + 1) ** k > ENUM_GUARD:
        raise BoundError("exponent box exceeds the enumeration guard")
    powers = []
    for item in items:
        row = [platform.identity()]
        for _ in range(exp_bound):
            row.append(platform.multiply(row[-1], item))
        powers.append(row)
    for vector in product(range(exp_bound + 1), repeat=k):
        value = platform.identity()
        for i, e in enumerate(vector):
            value = platform.multiply(value, powers[i][e])
        if value == target:
            _recheck(_ordered_power_product(platform, items, vector) == target, "kp")
            return vector
    return None


def smp_decide_bounded(
    platform: Platform, items: list[Element], target: Element, len_bound: int
) -> Optional[tuple[int, ...]]:
    """Submonoid membership by BFS over products, deduplicated by normal
    form; witness is a tuple of item indices (possibly empty)."""
    _check_same_platform(platform, items + [target])
    multiply = platform.multiply
    for seq, value in bfs_words(
        platform.identity(), range(1, len(items) + 1),
        lambda x, l: multiply(x, items[l - 1]), len_bound, key=lambda x: x.payload,
    ):
        if value == target:
            witness = tuple(l - 1 for l in seq)
            check = reduce(multiply, (items[j] for j in witness), platform.identity())
            _recheck(check == target, "smp")
            return witness
    return None


def _pair_step(images: dict):
    """BFS step for a pair of words: multiply each by its image of the letter."""
    def step(state: tuple[Word, Word], letter: int) -> tuple[Word, Word]:
        x, y = images[letter]
        return multiply(state[0], x), multiply(state[1], y)
    return step


def gpcp_bounded_search(
    u: list[Word],
    v: list[Word],
    a: Word,
    b: Word,
    term_len_bound: int,
    group_mode: bool = True,
) -> Optional[Word]:
    """Bounded non-homogeneous correspondence search: find a term t with
    a t(u) = b t(v).  Terms are words in the k variables (and inverses in
    the group case); evaluation substitutes the tuples and reduces freely
    (positive words never reduce, so the monoid case needs no other
    product)."""
    if len(u) != len(v):
        raise RankError("tuples u and v must have the same length")
    k = len(u)
    rank = a.rank
    for wd in list(u) + list(v) + [b]:
        if wd.rank != rank:
            raise RankError("all words must share one alphabet")
    if not group_mode:
        for wd in list(u) + list(v) + [a, b]:
            if any(l < 0 for l in wd.letters):
                raise RankError("monoid mode needs positive words")

    letters = signed_letters(k) if group_mode else range(1, k + 1)
    subs = {
        l: (u[l - 1], v[l - 1]) if l > 0 else (invert(u[-l - 1]), invert(v[-l - 1]))
        for l in letters
    }

    # the state is (a t(u), b t(v)), extended one letter at a time
    for term, (atu, btv) in bfs_words((a, b), letters, _pair_step(subs), term_len_bound):
        if atu == btv:
            t = Word._trusted(term, k)  # re-evaluate t(u) and t(v) from scratch
            _recheck(multiply(a, apply_map(GenMap(k, rank, tuple(u)), t))
                     == multiply(b, apply_map(GenMap(k, rank, tuple(v)), t)), "gpcp")
            return Word(term, max(k, 1))
    return None


def twisted_conjugacy_bounded(
    u: Element,
    v: Element,
    phi: GenMap,
    psi: GenMap,
    len_bound: int,
) -> Optional[Word]:
    """Bounded search for w with u phi(w) = psi(w) v on a free platform."""
    if u.platform.kind != "free" or v.platform != u.platform:
        raise RankError("twisted conjugacy search runs on one free platform")
    rank = u.platform.rank
    if phi.from_gens != rank or psi.from_gens != rank:
        raise RankError("endomorphisms must act on the platform alphabet")
    uw, vw = u.payload, v.payload
    letters = signed_letters(rank)
    images = {}
    for l in letters:
        g = Word._trusted((l,), rank)
        images[l] = apply_map(phi, g), apply_map(psi, g)

    # the state is (u phi(w), psi(w)), extended one letter at a time
    start = (uw, empty_word(rank))
    for letters_w, (u_phi_w, psi_w) in bfs_words(start, letters, _pair_step(images), len_bound):
        if u_phi_w == multiply(psi_w, vw):
            w = Word(letters_w, rank)
            _recheck(
                multiply(uw, apply_map(phi, w)) == multiply(apply_map(psi, w), vw),
                "twisted",
            )
            return w
    return None


def factorization_decide_bounded(
    w: Element, A: SubgroupGens, B: SubgroupGens, len_bound: int
) -> Optional[tuple[Word, Word]]:
    """Meet-in-the-middle search for w = a b with a in <A>, b in <B>,
    both as expressions of length <= len_bound."""
    platform = w.platform
    _check_same_platform(platform, list(A.gens) + list(B.gens) + [w])
    b_values = enumerate_subgroup_values(B, len_bound)
    a_values = enumerate_subgroup_values(A, len_bound)
    hit = next(meet_in_middle(a_values.values(), b_values, w), None)
    if hit is None:
        return None
    _, (_, a_letters), (_, b_letters) = hit
    a_expr, b_expr = Word(a_letters, len(A)), Word(b_letters, len(B))
    _recheck(platform.multiply(eval_word(A, a_expr), eval_word(B, b_expr)) == w, "factor")
    return a_expr, b_expr


# ---------------------------------------------------------------------------
# instance files

@dataclass
class ProblemInstance:
    problem: str
    platform: Optional[Platform] = None
    elements: list = field(default_factory=list)
    target: Optional[Element] = None
    bound: Optional[int] = None
    rank: Optional[int] = None
    u: list = field(default_factory=list)
    v: list = field(default_factory=list)
    a: Optional[Word] = None
    b: Optional[Word] = None
    phi: Optional[GenMap] = None
    psi: Optional[GenMap] = None
    agens: Optional[SubgroupGens] = None
    bgens: Optional[SubgroupGens] = None
    target_word: Optional[Word] = None
    source: Optional[Word] = None


# the keys an instance file may repeat, and those it may give at most once
_LIST_KEYS = ("elem", "u", "v")
_ONCE_KEYS = ("problem", "platform", "rank", "bound", "target", "source", "a", "b",
              "phi", "psi", "agens", "bgens")


def _parse_map(text: str, rank: int) -> GenMap:
    images = tuple(parse_word(part, rank) for part in text.split(";"))
    return GenMap(len(images), rank, images)


def parse_instance(text: str) -> ProblemInstance:
    """Problem instance file: 'key: value' lines, '#' comments; see the
    README for the per-problem keys.  An unknown key, or a second line of
    a key outside _LIST_KEYS, is a ParseError."""
    [fields] = read_fields(text, comments=True)
    for key, value in fields:
        if not key:
            raise ParseError(f"bad instance line {value!r}")
        if key not in _LIST_KEYS + _ONCE_KEYS:
            raise ParseError(f"unknown instance key {key!r}")
    for key in _ONCE_KEYS:
        one_field(fields, key, optional=True)
    inst = ProblemInstance(problem=one_field(fields, "problem"))
    spec = one_field(fields, "platform", optional=True)
    if spec is not None:
        inst.platform = platform_from_spec(spec)
    for key, lo in (("rank", 1), ("bound", 0)):
        value = one_field(fields, key, optional=True)
        if value is not None:
            setattr(inst, key, int_value(key, value, lo=lo))
    platform, rank = inst.platform, inst.rank
    for key, value in fields:
        if key in ("elem", "agens", "bgens") and platform is None:
            raise ParseError(f"'{key}:' needs a 'platform:' line")
        if key == "target" and platform is not None:
            inst.target = platform.parse_element(value)
        elif key in ("target", "source", "u", "v", "a", "b", "phi", "psi"):
            if rank is None:
                raise ParseError(f"'{key}:' needs a 'rank:' line")
            if key in ("phi", "psi"):
                setattr(inst, key, _parse_map(value, rank))
            elif key in ("u", "v"):
                getattr(inst, key).append(parse_word(value, rank))
            else:
                setattr(inst, "target_word" if key == "target" else key, parse_word(value, rank))
        elif key == "elem":
            inst.elements.append(platform.parse_element(value))
        elif key in ("agens", "bgens"):
            setattr(inst, key, parse_gens(platform, value))
    return inst
