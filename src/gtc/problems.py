"""Brute-force and bounded deciders for the algorithmic problems, and
the instance files and report of ``gtc solve``.

Everything here is explicitly bounded or exhaustive at small sizes; the
guard caps enumeration at 2^20 states.  Every returned witness is
re-evaluated against the target before it leaves the function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, product, repeat
from operator import getitem
from typing import Optional

from .errors import BoundError, ParseError, RankError
from .platforms import (ENUM_GUARD, Element, FreePlatform, Platform, SubgroupGens,
                        bfs_words, enumerate_subgroup_values, eval_word, meet_in_middle,
                        platform_from_spec, signed_letters)
from .protocols import parse_gens
from .tietze import GenMap, apply_map
from .words import (Word, empty_word, int_value, invert, multiply, one_field,
                    parse_word, read_fields, serialize_word)


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
    mul, values, t = platform.mul, [item.payload for item in items], target.payload

    def search(i: int, acc) -> Optional[tuple[int, ...]]:
        if i == k:
            return () if acc == t else None
        skip = search(i + 1, acc)
        if skip is not None:
            return (0,) + skip
        take = search(i + 1, mul(acc, values[i]))
        if take is not None:
            return (1,) + take
        return None

    witness = search(0, platform.identity().payload)
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
    mul, one, t = platform.mul, platform.identity().payload, target.payload
    # powers[i][e] = items[i]^e, each one product from the last
    powers = [list(accumulate(repeat(item.payload, exp_bound), mul, initial=one)) for item in items]
    for vector in product(range(exp_bound + 1), repeat=k):
        if reduce(mul, map(getitem, powers, vector), one) == t:
            _recheck(_ordered_power_product(platform, items, vector) == target, "kp")
            return vector
    return None


def smp_decide_bounded(
    platform: Platform, items: list[Element], target: Element, len_bound: int
) -> Optional[tuple[int, ...]]:
    """Submonoid membership by BFS over products, deduplicated by normal
    form; witness is a tuple of item indices (possibly empty)."""
    _check_same_platform(platform, items + [target])
    mul, values = platform.mul, [item.payload for item in items]
    for seq, value in bfs_words(
        platform.identity().payload, range(1, len(items) + 1),
        lambda x, l: mul(x, values[l - 1]), len_bound, dedup=True,
    ):
        if value == target.payload:
            witness = tuple(l - 1 for l in seq)
            check = reduce(platform.multiply, (items[j] for j in witness), platform.identity())
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
) -> Optional[Word]:
    """Bounded non-homogeneous correspondence search in the free group:
    find a term t with a t(u) = b t(v).  Terms are words in the k
    variables and their inverses; evaluation substitutes the tuples and
    reduces freely."""
    if len(u) != len(v):
        raise RankError("tuples u and v must have the same length")
    k = len(u)
    rank = a.rank
    for wd in list(u) + list(v) + [b]:
        if wd.rank != rank:
            raise RankError("all words must share one alphabet")

    letters = signed_letters(k)
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
# instance files and the solve report

# the keys each problem's instance file reads, besides 'problem' and the
# optional 'bound'; the first is the platform or rank the others are read in
PROBLEM_KEYS = {
    "ssp": ("platform", "elem", "target"),
    "kp": ("platform", "elem", "target"),
    "smp": ("platform", "elem", "target"),
    "gpcp": ("rank", "u", "v", "a", "b"),
    "twisted": ("rank", "source", "target", "phi", "psi"),
    "factor": ("platform", "agens", "bgens", "target"),
}
_LIST_KEYS = ("elem", "u", "v")  # the keys a file may repeat, or leave out


@dataclass
class ProblemInstance:
    problem: str
    bound: Optional[int]
    values: dict  # key -> parsed value; a list for each of _LIST_KEYS


def _read_value(key: str, value: str, head):
    """One value line, read against the instance's platform or rank."""
    if isinstance(head, Platform):
        return parse_gens(head, value) if key in ("agens", "bgens") else head.parse_element(value)
    if key in ("phi", "psi"):
        images = tuple(parse_word(part, head) for part in value.split(";"))
        return GenMap(len(images), head, images)
    return parse_word(value, head)


def parse_instance(text: str) -> ProblemInstance:
    """Problem instance file: 'key: value' lines, '#' comments; the keys
    are 'problem', the problem's PROBLEM_KEYS and an optional 'bound'.
    Any other key, a missing key, or a second line of a key outside
    _LIST_KEYS is a ParseError."""
    [fields] = read_fields(text, comments=True)
    for key, value in fields:
        if not key:
            raise ParseError(f"bad instance line {value!r}")
    problem = one_field(fields, "problem")
    if problem not in PROBLEM_KEYS:
        raise ParseError(f"unknown problem {problem!r}")
    keys = PROBLEM_KEYS[problem]
    for key, _ in fields:
        if key not in keys + ("problem", "bound"):
            raise ParseError(f"unknown instance key {key!r}")
    once = {key: one_field(fields, key, optional=True)
            for key in keys + ("bound",) if key not in _LIST_KEYS}
    bound = None if once["bound"] is None else int_value("bound", once["bound"], lo=0)
    values = {key: [] for key in keys if key in _LIST_KEYS}
    head_key, head = keys[0], once[keys[0]]
    if head is not None:
        head = platform_from_spec(head) if head_key == "platform" else int_value("rank", head, lo=1)
        values[head_key] = head
    for key, value in fields:
        if key in ("problem", "bound", head_key):
            continue
        if head is None:
            raise ParseError(f"'{key}:' needs a '{head_key}:' line")
        if key in _LIST_KEYS:
            values[key].append(_read_value(key, value, head))
        else:
            values[key] = _read_value(key, value, head)
    for key in keys:
        if key not in values:
            raise ParseError(f"{problem} instance has no '{key}:' line")
    return ProblemInstance(problem, bound, values)


def solve(inst: ProblemInstance, bound: Optional[int]) -> str:
    """The ``gtc solve`` report: run the instance's decider within
    ``bound`` (ssp is exact and ignores it) and format what it found."""
    problem, v = inst.problem, inst.values
    if bound is None and problem != "ssp":
        raise ParseError(f"{problem} instance has no 'bound:' line and no --bound")
    if problem == "gpcp":
        term = gpcp_bounded_search(v["u"], v["v"], v["a"], v["b"], bound)
        return f"term: {'absent' if term is None else serialize_word(term)}\n"
    if problem == "factor":
        found = factorization_decide_bounded(v["target"], v["agens"], v["bgens"], bound)
        if found is None:
            return "witness: absent\n"
        return f"a-expr: {serialize_word(found[0])}\nb-expr: {serialize_word(found[1])}\n"
    if problem == "twisted":
        free = FreePlatform(v["rank"])
        found = twisted_conjugacy_bounded(free.element(v["source"]), free.element(v["target"]),
                                          v["phi"], v["psi"], bound)
        text = None if found is None else serialize_word(found)
    elif problem == "smp":
        found = smp_decide_bounded(v["platform"], v["elem"], v["target"], bound)
        text = None if found is None else ",".join(str(i + 1) for i in found)
    else:
        if problem == "kp":
            found = kp_decide_bounded(v["platform"], v["elem"], v["target"], bound)
        else:
            found = ssp_decide(v["platform"], v["elem"], v["target"])
        text = None if found is None else ",".join(map(str, found))
    return f"witness: {'absent' if text is None else text or 'e'}\n"
