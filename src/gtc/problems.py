"""Brute-force and bounded deciders for the algorithmic problems.

Everything here is explicitly bounded or exhaustive at small sizes; the
guard caps enumeration at 2^24 states.  Every returned witness is
re-evaluated against the target before it leaves the function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .errors import BoundError, ParseError, RankError
from .platforms import Element, Platform, SubgroupGens, platform_from_spec
from .tietze import GenMap, apply_map
from .words import Word, empty_word, inverse_letters, multiply, parse_word

ENUM_GUARD = 1 << 24


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
    identity = platform.identity()
    if target == identity:
        return ()
    seen = {platform.serialize_element(identity)}
    queue: deque[tuple[Element, tuple[int, ...]]] = deque([(identity, ())])
    while queue:
        value, seq = queue.popleft()
        if len(seq) >= len_bound:
            continue
        for i, item in enumerate(items):
            nv = platform.multiply(value, item)
            key = platform.serialize_element(nv)
            if key in seen:
                continue
            if len(seen) >= ENUM_GUARD:
                raise BoundError("state count exceeds the enumeration guard")
            seen.add(key)
            ns = seq + (i,)
            if nv == target:
                check = identity
                for j in ns:
                    check = platform.multiply(check, items[j])
                _recheck(check == target, "smp")
                return ns
            queue.append((nv, ns))
    return None


def _term_letters(k: int, group_mode: bool) -> list[int]:
    letters = []
    for i in range(1, k + 1):
        letters.append(i)
        if group_mode:
            letters.append(-i)
    return letters


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
    (no reduction in the monoid case)."""
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

    def combine(x: Word, y: Word) -> Word:
        if group_mode:
            return multiply(x, y)
        return Word(x.letters + y.letters, rank)

    def matches(tu: Word, tv: Word) -> bool:
        return combine(a, tu) == combine(b, tv)

    subs = {}
    for i in range(1, k + 1):
        subs[i] = u[i - 1], v[i - 1]
        if group_mode:
            subs[-i] = tuple(
                Word(inverse_letters(x[i - 1].letters), rank) for x in (u, v)
            )
    letters = _term_letters(k, group_mode)
    start = (empty_word(max(k, 1)), empty_word(rank), empty_word(rank))
    queue = deque([start])
    examined = 0
    while queue:
        term, tu, tv = queue.popleft()
        examined += 1
        if examined > ENUM_GUARD:
            raise BoundError("term enumeration exceeds the guard")
        if matches(tu, tv):
            return term
        if len(term) >= term_len_bound:
            continue
        for letter in letters:
            if group_mode and term.letters and term.letters[-1] == -letter:
                continue
            su, sv = subs[letter]
            queue.append(
                (
                    Word(term.letters + (letter,), max(k, 1)),
                    combine(tu, su),
                    combine(tv, sv),
                )
            )
    return None


def twisted_conjugacy_bounded(
    u: Element,
    v: Element,
    phi: GenMap,
    psi: GenMap,
    len_bound: int,
) -> Optional[Word]:
    """Bounded search for w with u phi(w) = psi(w) v on a free platform."""
    if u.tag != "free" or v.platform != u.platform:
        raise RankError("twisted conjugacy search runs on one free platform")
    rank = u.platform.rank
    if phi.from_gens != rank or psi.from_gens != rank:
        raise RankError("endomorphisms must act on the platform alphabet")
    uw, vw = u.payload, v.payload
    letters = _term_letters(rank, group_mode=True)
    gen_words = {l: Word((l,), rank) for l in letters}
    start = (empty_word(rank), empty_word(rank), empty_word(rank))
    queue = deque([start])
    examined = 0
    while queue:
        w, phi_w, psi_w = queue.popleft()
        examined += 1
        if examined > ENUM_GUARD:
            raise BoundError("word enumeration exceeds the guard")
        if multiply(uw, phi_w) == multiply(psi_w, vw):
            _recheck(
                multiply(uw, apply_map(phi, w)) == multiply(apply_map(psi, w), vw),
                "twisted",
            )
            return w
        if len(w) >= len_bound:
            continue
        for letter in letters:
            if w.letters and w.letters[-1] == -letter:
                continue
            g = gen_words[letter]
            queue.append(
                (
                    Word(w.letters + (letter,), rank),
                    multiply(phi_w, apply_map(phi, g)),
                    multiply(psi_w, apply_map(psi, g)),
                )
            )
    return None


def factorization_decide_bounded(
    w: Element, A: SubgroupGens, B: SubgroupGens, len_bound: int
) -> Optional[tuple[Word, Word]]:
    """Meet-in-the-middle search for w = a b with a in <A>, b in <B>,
    both as expressions of length <= len_bound."""
    from .attacks import enumerate_subgroup_values

    platform = w.platform
    _check_same_platform(platform, list(A.gens) + list(B.gens) + [w])
    b_values = enumerate_subgroup_values(B, len_bound)
    b_by_key = {k: v for k, v in b_values.items()}
    a_values = enumerate_subgroup_values(A, len_bound)
    for _, (a_val, a_expr) in a_values.items():
        needed = platform.multiply(platform.invert(a_val), w)
        hit = b_by_key.get(platform.serialize_element(needed))
        if hit is not None:
            b_val, b_expr = hit
            _recheck(platform.multiply(a_val, b_val) == w, "factor")
            return a_expr, b_expr
    return None


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


def _parse_map(text: str, rank: int) -> GenMap:
    images = tuple(parse_word(part, rank) for part in text.split(";"))
    return GenMap(len(images), rank, images)


def parse_instance(text: str) -> ProblemInstance:
    """Problem instance file: 'key: value' lines; see the README for the
    per-problem keys."""
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"bad instance line {raw!r}")
        key, value = line.split(":", 1)
        pairs.append((key.strip(), value.strip()))
    keys = dict(pairs)
    if "problem" not in keys:
        raise ParseError("instance needs a 'problem:' line")
    inst = ProblemInstance(problem=keys["problem"])
    if "platform" in keys:
        inst.platform = platform_from_spec(keys["platform"])
    if "rank" in keys:
        inst.rank = int(keys["rank"])
    if "bound" in keys:
        inst.bound = int(keys["bound"])
    rank = inst.rank or 0
    for key, value in pairs:
        if key == "elem":
            inst.elements.append(inst.platform.parse_element(value))
        elif key == "target" and inst.platform is not None:
            inst.target = inst.platform.parse_element(value)
        elif key == "target" and inst.platform is None:
            inst.target_word = parse_word(value, rank)
        elif key == "source":
            inst.source = parse_word(value, rank)
        elif key == "u":
            inst.u.append(parse_word(value, rank))
        elif key == "v":
            inst.v.append(parse_word(value, rank))
        elif key == "a":
            inst.a = parse_word(value, rank)
        elif key == "b":
            inst.b = parse_word(value, rank)
        elif key == "phi":
            inst.phi = _parse_map(value, rank)
        elif key == "psi":
            inst.psi = _parse_map(value, rank)
        elif key == "agens":
            inst.agens = _parse_gen_list(inst.platform, value)
        elif key == "bgens":
            inst.bgens = _parse_gen_list(inst.platform, value)
    return inst


def _parse_gen_list(platform: Platform, text: str) -> SubgroupGens:
    return SubgroupGens(
        platform, tuple(platform.parse_element(part) for part in text.split(";"))
    )
