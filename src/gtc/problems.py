"""Brute-force and bounded deciders for the algorithmic problems, and
the instance files and report of ``gtc solve``.

Everything here is explicitly bounded or exhaustive at small sizes, and
every search kernel checks the one guard, ENUM_GUARD states.  Every
returned witness is re-evaluated against the target before it leaves the
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional

from .errors import BoundError, ParseError, RankError
from .platforms import (Element, FreePlatform, Platform, SubgroupGens, eval_word, parse_gens,
                        platform_from_spec)
from .words import (GenMap, Word, apply_map, empty_word, int_value, invert, multiply,
                    one_field, parse_word, read_fields, serialize_word)


def _recheck(holds: bool, problem: str) -> None:
    """Witness re-check that stays active under ``python -O``."""
    if not holds:
        raise AssertionError(f"{problem} witness fails its re-check")


def _check_same_platform(platform: Platform, elements) -> None:
    for e in elements:
        if e.platform != platform:
            raise RankError("elements do not share the platform")


# ---------------------------------------------------------------------------
# the guard, the search kernels, then the deciders that run on them

# every state counted may still be held; at 400-1,000 B each (tracemalloc on a
# 4x4 block csp search, both sides counted, and a free-group correspondence
# search) this is ~1 GB.  The orbit search counts both its sides' states,
# bfs_words what it yields, the box search both its tables, the dlog scan its
# powers
ENUM_GUARD = 1 << 20


def check_guard(states: int) -> None:
    """The one guard of every search: BoundError past ENUM_GUARD states."""
    if states > ENUM_GUARD:
        raise BoundError(f"enumeration exceeds the guard of {ENUM_GUARD} states")


def signed_letters(k: int) -> list[int]:
    """Letter order of expression enumeration: 1, -1, 2, -2, ..., k, -k."""
    return [l for i in range(1, k + 1) for l in (i, -i)]


def bfs_words(start, letters, step: Callable, bound: int):
    """Yield ``(letters, state)`` for each distinct state within ``bound``
    letters of ``start``, with its first word, breadth-first: by length, then
    by letter order.

    A child's state is ``step(parent_state, letter)``, and a letter never
    follows its inverse.  Each node is yielded as it is created, so a
    caller that stops at a hit expands nothing more.  A state seen before is
    neither yielded nor expanded, so each state keeps its first word, and
    the search ends when a length adds no state.
    """
    seen = {start}
    yield (), start
    frontier = [((), start)]
    for _ in range(bound):
        if not frontier:
            break
        created = []
        for word, state in frontier:
            undo = -word[-1] if word else 0
            for letter in letters:
                if letter == undo:
                    continue
                child = step(state, letter)
                if child in seen:
                    continue
                seen.add(child)
                check_guard(len(seen))
                node = (word + (letter,), child)
                yield node
                created.append(node)
        frontier = created


def enumerate_subgroup_values(gens: SubgroupGens, max_len: int) -> dict:
    """Distinct subgroup elements reachable by expressions of length
    <= max_len, in BFS order: {payload: letters}, where letters is the
    first (shortest) expression of the value."""
    mul, table = gens.platform.mul, gens.letter_table
    return {value: expr for expr, value in bfs_words(
        gens.platform.identity().payload, signed_letters(len(gens)),
        lambda x, l: mul(x, table[l]), max_len)}


def orbit_search(start, goal, letters, step: Callable, back: Callable,
                 bound: int) -> tuple[Optional[tuple], int, bool]:
    """(x, states, closed): x is the shortlex-first word over ``letters``
    with start.x = goal and |x| <= bound, or None, for a right action
    step(s, l) = s.l by bijections with back(step(s, l), l) = s.  Met in the
    middle, x = x1 x2 with start.x1 = goal.x2^-1: at length L the start side
    has appended ceil(L/2) letters, parent then letter, and the goal side
    prepended floor(L/2) by back, letter then parent, so both meet words in
    lexicographic order, and each keeps a new state's least word (every
    prefix and suffix of the least x is least for its state).  ``states``
    counts what both sides hold, starts included, against the guard;
    ``closed`` says an orbit closed without meeting the other side, so no x
    exists at any length."""
    levels, seen, closed = [{start: ()}, {goal: ()}], [{start}, {goal}], False
    for length in range(bound + 1):
        if length:
            side = 1 - length % 2  # odd lengths deepen the start side
            items, held, new = levels[side].items(), seen[side], {}
            act, other = back if side else step, len(seen[1 - side])
            pairs = (((p, l) for l in letters for p in items) if side
                     else ((p, l) for p in items for l in letters))
            for (state, word), l in pairs:
                if word and word[0 if side else -1] == -l:
                    continue
                child = act(state, l)
                if child not in held:
                    held.add(child)
                    check_guard(len(held) + other)
                    new[child] = (l,) + word if side else word + (l,)
            levels[side] = new
            if closed := not new:
                break
        hit = next((w + levels[1][s] for s, w in levels[0].items() if s in levels[1]), None)
        if hit is not None:
            return hit, len(seen[0]) + len(seen[1]), False
    return None, len(seen[0]) + len(seen[1]), closed


def sandwich_search(start, goal, mul: Callable, lefts: dict, rights: dict, bound: int):
    """orbit_search under x.l = lefts[-l] x rights[l], where lefts[-l] and
    rights[-l] invert lefts[l] and rights[l]; the letters are the keys of
    ``rights``, in order."""
    return orbit_search(start, goal, list(rights), lambda x, l: mul(mul(lefts[-l], x), rights[l]),
                        lambda x, l: mul(mul(lefts[l], x), rights[-l]), bound)


def _power_levels(start, factors, exp_bound: int, times: Callable) -> dict:
    """{value: first vector e in [0, exp_bound]^len(factors)}, in
    lexicographic order, where value is start times factors[i] e_i times for
    each i in turn.  A level keeps only a value's first prefix: a later one
    extends to the same values, later."""
    level = {start: ()}
    for factor in factors:
        new = {}
        for value, vector in level.items():
            new.setdefault(value, vector + (0,))
            for e in range(1, exp_bound + 1):
                value = times(value, factor)
                new.setdefault(value, vector + (e,))
        level = new
    return level


def box_search(platform: Platform, items: list[Element], target: Element, exp_bound: int,
               problem: str) -> Optional[tuple[int, ...]]:
    """The lexicographically first e in [0, exp_bound]^k with ordered power
    product items[0]^e_0 ... items[k-1]^e_(k-1) = target, re-checked, met in
    the middle at h = k // 2: the right half's products P_R are tabulated,
    and the first of the left half's P_L^-1 target in the table, joined to
    its entry, is the witness.  The two tables, of up to (exp_bound+1)^h and
    (exp_bound+1)^(k-h) values, are checked against the guard before either
    is built; the base is capped at the guard, past which it overflows the
    guard all the same, so a huge exp_bound costs no huge power."""
    _check_same_platform(platform, items + [target])
    h, mul, base = len(items) // 2, platform.mul, min(exp_bound, ENUM_GUARD) + 1
    check_guard(base ** h + base ** (len(items) - h))
    table = _power_levels(platform.identity().payload, [x.payload for x in items[h:]],
                          exp_bound, mul)
    left = _power_levels(target.payload, [platform.invert(x).payload for x in items[:h]],
                         exp_bound, lambda value, factor: mul(factor, value))
    witness = next((e + table[value] for value, e in left.items() if value in table), None)
    if witness is not None:
        _recheck(_ordered_power_product(platform, items, witness) == target, problem)
    return witness


class DlogResult(NamedTuple):
    exponent: Optional[int]
    multiplications: int
    cycle_closed: bool = False  # g^n came back to 1 first: target is no power of g


def brute_force_dlog(platform: Platform, g: Element, target: Element, bound: int) -> DlogResult:
    """Scan g^n for n = 1..bound, or until g^n = 1; work counter is the
    number of products.  The guard stops the scan after ENUM_GUARD powers."""
    _check_same_platform(platform, (g, target))
    mul, x, t = platform.mul, g.payload, target.payload
    acc = one = platform.identity().payload
    for n in range(1, min(bound, ENUM_GUARD) + 1):
        acc = mul(acc, x)
        if acc == t:
            return DlogResult(n, n)
        if acc == one:
            return DlogResult(None, n, True)
    check_guard(bound)
    return DlogResult(None, bound)


class CspResult(NamedTuple):
    expr: Optional[Word]
    candidates: int
    orbit_closed: bool = False  # an orbit closed first: no conjugator at any length


def brute_force_csp(
    u: Element, v: Element, gens: SubgroupGens, max_len: int
) -> CspResult:
    """The shortlex-first x with u^x = v and |x| <= max_len, by the orbit
    search under conjugation: x = x1 x2 with u^x1 = v^(x2^-1), each side at
    half the depth.  candidates counts the states both sides hold at the
    end, starts included (ENUM_GUARD bounds them).  When an orbit closes
    first, no conjugator exists at any length and the search stops with
    orbit_closed."""
    platform = gens.platform
    _check_same_platform(platform, (u, v))
    table = gens.letter_table
    hit, candidates, closed = sandwich_search(u.payload, v.payload, platform.mul, table, table,
                                              max_len)
    if hit is None:
        return CspResult(None, candidates, closed)
    x = Word(hit, len(gens))
    _recheck(platform.conjugate(u, eval_word(gens, x)) == v, "csp")
    return CspResult(x, candidates)


def quotient_stream(w: Element, A: SubgroupGens, table: dict, bound: int):
    """Yield ``(letters, table.get(a^-1 w))`` for each distinct a in <A>
    within ``bound`` letters, in enumerate_subgroup_values' order, stepping
    a^-1 w itself by each letter's inverse on the left: one product a step."""
    mul, inverse = A.platform.mul, A.letter_table
    for letters, value in bfs_words(w.payload, signed_letters(len(A)),
                                    lambda s, l: mul(inverse[-l], s), bound):
        yield letters, table.get(value)


def ssp_decide(
    platform: Platform, items: list[Element], target: Element
) -> Optional[tuple[int, ...]]:
    """Exact subset-sum decision: ordered product with 0/1 exponents.

    Exhaustive over all 2^k selections by the box search, whose two tables
    of 2^(k//2) and 2^(k-k//2) values the guard admits up to k = 38; returns
    the lexicographically first witness, 0 preferred over 1.
    """
    return box_search(platform, items, target, 1, "ssp")


def _ordered_power_product(platform, items, exponents) -> Element:
    return reduce(platform.multiply, (x for x, e in zip(items, exponents) for _ in range(e)),
                  platform.identity())


def kp_decide_bounded(
    platform: Platform, items: list[Element], target: Element, exp_bound: int
) -> Optional[tuple[int, ...]]:
    """Knapsack with non-negative exponents up to exp_bound per item.

    A returned vector is a true witness; absence only means no witness
    inside the exponent box (the search is bounded, not a full decision).
    """
    return box_search(platform, items, target, exp_bound, "kp")


def smp_decide_bounded(
    platform: Platform, items: list[Element], target: Element, len_bound: int
) -> Optional[tuple[int, ...]]:
    """Submonoid membership: the shortlex-first product of items that is
    target, by the orbit search from the identity (step x -> x item, back
    x -> x item^-1); the witness is a tuple of item indices (possibly empty)."""
    _check_same_platform(platform, items + [target])
    mul, values = platform.mul, [item.payload for item in items]
    inverses = [platform.invert(item).payload for item in items]
    seq, _, _ = orbit_search(platform.identity().payload, target.payload,
                             range(1, len(items) + 1), lambda x, l: mul(x, values[l - 1]),
                             lambda x, l: mul(x, inverses[l - 1]), len_bound)
    if seq is None:
        return None
    witness = tuple(l - 1 for l in seq)
    _recheck(reduce(platform.multiply, (items[j] for j in witness), platform.identity())
             == target, "smp")
    return witness


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
    reduces freely.  a t(u) = b t(v) exactly when t(v)^-1 (b^-1 a) t(u) = e,
    so the sandwich search runs from b^-1 a to e with x.l = v_l^-1 x u_l."""
    if len(u) != len(v):
        raise RankError("tuples u and v must have the same length")
    k = len(u)
    rank = a.rank
    for wd in list(u) + list(v) + [b]:
        if wd.rank != rank:
            raise RankError("all words must share one alphabet")

    us = {l: u[l - 1] if l > 0 else invert(u[-l - 1]) for l in signed_letters(k)}
    vs = {l: v[l - 1] if l > 0 else invert(v[-l - 1]) for l in signed_letters(k)}
    term, _, _ = sandwich_search(multiply(invert(b), a), empty_word(rank), multiply, vs, us,
                                 term_len_bound)
    if term is None:
        return None
    t = Word._trusted(term, k)  # re-evaluate t(u) and t(v) from scratch
    _recheck(multiply(a, apply_map(GenMap(k, rank, tuple(u)), t))
             == multiply(b, apply_map(GenMap(k, rank, tuple(v)), t)), "gpcp")
    return Word(term, max(k, 1))


def twisted_conjugacy_bounded(
    u: Element,
    v: Element,
    phi: GenMap,
    psi: GenMap,
    len_bound: int,
) -> Optional[Word]:
    """Bounded search for w with u phi(w) = psi(w) v on a free platform:
    that holds exactly when psi(w)^-1 u phi(w) = v, so the sandwich search
    runs from u to v with x.l = psi(l)^-1 x phi(l)."""
    if u.platform.kind != "free" or v.platform != u.platform:
        raise RankError("twisted conjugacy search runs on one free platform")
    rank = u.platform.rank
    if phi.from_gens != rank or psi.from_gens != rank:
        raise RankError("endomorphisms must act on the platform alphabet")
    uw, vw = u.payload, v.payload
    phis = {l: apply_map(phi, Word._trusted((l,), rank)) for l in signed_letters(rank)}
    psis = {l: apply_map(psi, Word._trusted((l,), rank)) for l in signed_letters(rank)}
    found, _, _ = sandwich_search(uw, vw, multiply, psis, phis, len_bound)
    if found is None:
        return None
    w = Word(found, rank)
    _recheck(multiply(uw, apply_map(phi, w)) == multiply(apply_map(psi, w), vw), "twisted")
    return w


def factorization_decide_bounded(
    w: Element, A: SubgroupGens, B: SubgroupGens, len_bound: int
) -> Optional[tuple[Word, Word]]:
    """Search for w = a b with a in <A>, b in <B>, both as expressions of
    length <= len_bound: <B> is tabulated once, and the quotient stream
    walks the distinct a^-1 w until one is in the table."""
    platform = w.platform
    _check_same_platform(platform, list(A.gens) + list(B.gens) + [w])
    stream = quotient_stream(w, A, enumerate_subgroup_values(B, len_bound), len_bound)
    hit = next(((a, b) for a, b in stream if b is not None), None)
    if hit is None:
        return None
    a_expr, b_expr = Word(hit[0], len(A)), Word(hit[1], len(B))
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
    groups: dict = {}  # key -> its fields, keys in order of first appearance
    for field in fields:
        if not field[0]:
            raise ParseError(f"bad instance line {field[1]!r}")
        groups.setdefault(field[0], []).append(field)
    problem = one_field(groups.get("problem", ()), "problem")
    if problem not in PROBLEM_KEYS:
        raise ParseError(f"unknown problem {problem!r}")
    keys = PROBLEM_KEYS[problem]
    for key in groups:
        if key not in keys + ("problem", "bound"):
            raise ParseError(f"unknown instance key {key!r}")
    once = {key: one_field(groups.get(key, ()), key, optional=True)
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
