"""Attacks: brute-force solvers, problem reductions, and transcript replays.

Attacks consume public data only (transcripts, published generators);
ground truth never enters an attack.  A report claims success only when
the recovered material is consistent with everything on the transcript,
and the test harness additionally checks recovered keys against the true
session keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import AttackFailed, ParseError
from .platforms import (Element, Platform, SubgroupGens, eval_word, parse_gens,
                        square_and_multiply)
from .problems import (brute_force_csp, brute_force_dlog, enumerate_subgroup_values,
                       quotient_stream, signed_letters)
from .words import Word

if TYPE_CHECKING:  # annotations only: an attack reads a transcript, never builds one
    from .protocols import Transcript


@dataclass
class AttackReport:
    attack: str
    success: bool
    recovered_key: Optional[Element] = None
    work: dict = field(default_factory=dict)
    notes: str = ""


def format_attack_report(report: AttackReport, platform: Platform) -> str:
    lines = [f"attack: {report.attack}", f"success: {str(report.success).lower()}"]
    if report.recovered_key is not None:
        lines.append(f"recovered-key: {platform.serialize_element(report.recovered_key)}")
    for key in sorted(report.work):
        lines.append(f"work-{key}: {report.work[key]}")
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reductions

def decomposition_to_factorization(w: Element, w_prime: Element) -> Element:
    """Left-multiply by w^-1: turns x w y = w' into (x^w) y = w''."""
    platform = w.platform
    return platform.multiply(platform.invert(w), w_prime)


def normal_subgroup_attack(
    w_double_prime: Element, A: SubgroupGens
) -> tuple[Element, Element]:
    """When the instance lies in <A> (guaranteed for a normal A), any a1
    works: return (identity, w'')."""
    membership = A.contains(w_double_prime)
    if membership is None:
        raise AttackFailed("no structural membership test for this subgroup")
    if not membership:
        raise AttackFailed("instance does not lie in the subgroup")
    return A.platform.identity(), w_double_prime


def key_from_decomposition_solution(
    a1: Element, a2: Element, bob_msg: Element
) -> Element:
    """Any pair solving Alice's equation yields the session key."""
    platform = a1.platform
    return platform.multiply(platform.multiply(a1, bob_msg), a2)


class CspInstance(NamedTuple):
    u: Element
    v: Element


def commutator_probe_decomposition(
    w_prime: Element, b1: Element, w: Element
) -> CspInstance:
    """From w' = a w b and a known b1 commuting with a: the commutator
    [w', b1] times b1^-1 equals ((b1^-1)^w)^b, a CSP instance for b."""
    platform = w_prime.platform
    u = platform.conjugate(platform.invert(b1), w)
    v = platform.multiply(platform.commutator(w_prime, b1), platform.invert(b1))
    return CspInstance(u, v)


def commutator_probe_factorization(w_prime: Element, b1: Element) -> CspInstance:
    """From w' = a b: [w', b1] b1^-1 = (b1^-1)^b, the decomposition probe at w = e."""
    return commutator_probe_decomposition(w_prime, b1, w_prime.platform.identity())


# From w' = a^-1 w a the same probe [w', b] b^-1 = (b^-w)^a is a CSP
# instance for a; several probes with different b may run in parallel.
commutator_probe_csp = commutator_probe_decomposition


def _decomposition_stream(w: Element, target: Element, A: SubgroupGens, bound: int):
    """The quotient stream of a1 w a2 = target over <A>: a1 w a2 = target
    exactly when a2 = (a1^w)^-1 (w^-1 target), so it walks <A^w> (the
    generators of A, each conjugated by w) against the table of <A>."""
    platform = A.platform
    conjugated = SubgroupGens(platform, tuple(platform.conjugate(g, w) for g in A.gens))
    return quotient_stream(decomposition_to_factorization(w, target), conjugated,
                           enumerate_subgroup_values(A, bound), bound)


def uniqueness_check(
    w: Element, target: Element, A: SubgroupGens, bound: int
) -> int:
    """Number of distinct element pairs (a1, a2) in <A> (expressions up to
    ``bound``) with a1 * w * a2 = target."""
    return sum(a2 is not None for _, a2 in _decomposition_stream(w, target, A, bound))


# ---------------------------------------------------------------------------
# length-based attack

def _element_length(e: Element) -> int:
    if e.platform.kind == "free":
        return len(e.payload.letters)
    if e.platform.kind == "direct":
        return len(e.payload[0].letters) + len(e.payload[1].letters)
    raise AttackFailed("platform has no length function")


def length_based_attack(
    transcript: Transcript,
    A: SubgroupGens,
    B: SubgroupGens,
    max_iters: int = 200,
) -> AttackReport:
    """Greedy length descent on a commutator-exchange transcript: peel the
    A-generator that shrinks the conjugated tuple the most; recompute the
    key from the recovered expression like the legitimate party would.
    Reports failure honestly when no letter decreases the length."""
    platform = transcript.platform
    observed = [platform.parse_element(p) for p in transcript.find_all("b")]
    if len(observed) != len(B.gens):
        raise AttackFailed("transcript does not carry one conjugate per generator")
    a_conj = [platform.parse_element(p) for p in transcript.find_all("a")]
    multiply = platform.multiply
    table = {l: Element(A.platform, x) for l, x in A.letter_table.items()}
    current = list(observed)
    base = list(B.gens)
    peeled: list[int] = []

    def failed(notes: str) -> AttackReport:
        return AttackReport("length-based", False, work={"iterations": len(peeled)}, notes=notes)

    while current != base and len(peeled) < max_iters:
        cur_total = sum(_element_length(c) for c in current)
        best = None
        best_total = cur_total
        for letter in signed_letters(len(A)):
            trial = [multiply(multiply(table[letter], c), table[-letter]) for c in current]
            total = sum(_element_length(t) for t in trial)
            if total < best_total:
                best, best_total = (letter, trial), total
        if best is None:
            return failed("no generator decreases the length")
        peeled.append(best[0])
        current = best[1]
    if current != base:
        return failed("iteration budget exhausted")
    expr = Word(tuple(reversed(peeled)), max(len(A), 1))
    x_val = eval_word(A, expr)
    for bj, obs in zip(B.gens, observed):
        if platform.conjugate(bj, x_val) != obs:
            return failed("descent ended in an inconsistent state")
    key = None
    if a_conj:
        x_y = eval_word(SubgroupGens(platform, tuple(a_conj)), expr)
        key = platform.multiply(platform.invert(x_val), x_y)
    return AttackReport(
        "length-based", True, recovered_key=key, work={"iterations": len(peeled)},
        notes="recovered an expression consistent with every conjugate",
    )


# ---------------------------------------------------------------------------
# transcript-level drivers (used by the CLI)

def _transcript_subgroup(t: Transcript, name: str) -> SubgroupGens:
    return parse_gens(t.platform, t.header(name), t.meta.get(f"{name}-structure"))


def _sandwich_view(t: Transcript, alice_label: str, bob_label: str):
    """w, A and the two messages of an x w y exchange transcript."""
    parse = t.platform.parse_element
    w, A = parse(t.header("w")), _transcript_subgroup(t, "A")
    return w, A, parse(t.find(alice_label)), parse(t.find(bob_label))


def attack_dh_dlog(t: Transcript, bound: int) -> AttackReport:
    platform = t.platform
    ga = platform.parse_element(t.find("g^a"))
    gb = platform.parse_element(t.find("g^b"))
    if platform.kind != "cyclic":
        raise ParseError(f"dlog needs a cyclic platform, not {platform.kind}")
    g = platform.generators()[0]
    found, work, closed = brute_force_dlog(platform, g, ga, bound)
    if found is None:
        return AttackReport("dlog", False, work={"multiplications": work},
                            notes=f"g^a is not a power of g (cycle closed at {work})" if closed
                            else "exponent not found within bound")
    return AttackReport("dlog", True, recovered_key=square_and_multiply(platform, gb, found),
                        work={"multiplications": work},
                        notes=f"recovered exponent {found}")


def attack_ko_lee_csp(t: Transcript, bound: int) -> AttackReport:
    w, A, wa, wb = _sandwich_view(t, "w^a", "w^b")
    expr, candidates, closed = brute_force_csp(w, wa, A, bound)
    if expr is None:
        return AttackReport("csp", False, work={"candidates": candidates},
                            notes="no conjugator exists (orbit closed)" if closed
                            else "no conjugator within bound")
    key = t.platform.conjugate(wb, eval_word(A, expr))
    return AttackReport("csp", True, recovered_key=key,
                        work={"candidates": candidates})


def attack_decomposition_normal(t: Transcript) -> AttackReport:
    w, A, alice_msg, bob_msg = _sandwich_view(t, "a1*w*a2", "b1*w*b2")
    w2 = decomposition_to_factorization(w, alice_msg)
    try:
        a1, a2 = normal_subgroup_attack(w2, A)
    except AttackFailed as exc:
        return AttackReport("normal-subgroup", False, notes=str(exc))
    key = key_from_decomposition_solution(a1, a2, bob_msg)
    return AttackReport("normal-subgroup", True, recovered_key=key,
                        notes="factorization is trivial over the normal subgroup")


def attack_decomposition_factor(t: Transcript, bound: int) -> AttackReport:
    """Reduce to factorization over (A^w, A) and solve by the quotient stream."""
    platform = t.platform
    w, A, alice_msg, bob_msg = _sandwich_view(t, "a1*w*a2", "b1*w*b2")
    examined = 0
    for examined, (a1_letters, a2_letters) in enumerate(
            _decomposition_stream(w, alice_msg, A, bound), start=1):
        if a2_letters is None:
            continue
        # a1^w has a1's expression over the conjugated generators
        a1, a2 = (eval_word(A, Word._trusted(x, len(A))) for x in (a1_letters, a2_letters))
        if platform.multiply(platform.multiply(a1, w), a2) != alice_msg:
            continue
        key = key_from_decomposition_solution(a1, a2, bob_msg)
        return AttackReport("decomp-factor", True, recovered_key=key,
                            work={"candidates": examined})
    return AttackReport("decomp-factor", False, work={"candidates": examined},
                        notes="no factorization within bound")


def attack_twisted_commutator_probe(t: Transcript, bound: int) -> AttackReport:
    """Probe the a1*w*b1 message with each published B generator, CSP-solve
    for the b side, then derive the a side and check it centralizes B."""
    platform = t.platform
    w, _, alice_msg, bob_msg = _sandwich_view(t, "a1*w*b1", "b2*w*a2")
    B = _transcript_subgroup(t, "B")
    total_candidates, closed = 0, True
    for probe in B.gens:
        instance = commutator_probe_decomposition(alice_msg, probe, w)
        expr, candidates, probe_closed = brute_force_csp(instance.u, instance.v, B, bound)
        total_candidates += candidates
        closed &= probe_closed
        if expr is None:
            continue
        b_hat = eval_word(B, expr)
        a_hat = platform.multiply(
            platform.multiply(alice_msg, platform.invert(b_hat)), platform.invert(w)
        )
        if any(
            platform.multiply(a_hat, bg) != platform.multiply(bg, a_hat)
            for bg in B.gens
        ):
            continue  # centralizer collision; try the next probe
        key = platform.multiply(platform.multiply(a_hat, bob_msg), b_hat)
        return AttackReport(
            "commutator-probe", True, recovered_key=key,
            work={"candidates": total_candidates},
        )
    return AttackReport(
        "commutator-probe", False, work={"candidates": total_candidates},
        notes="no probe has a conjugator (every orbit closed)" if closed
        else "no consistent probe solution within bound",
    )


def attack_aag_length_based(t: Transcript, max_iters: int = 200) -> AttackReport:
    A = _transcript_subgroup(t, "A")
    B = _transcript_subgroup(t, "B")
    return length_based_attack(t, A, B, max_iters)


ATTACK_DRIVERS: dict[str, Callable] = {
    "dlog": attack_dh_dlog,
    "csp": attack_ko_lee_csp,
    "normal": lambda t, bound: attack_decomposition_normal(t),
    "decomp-factor": attack_decomposition_factor,
    "commutator-probe": attack_twisted_commutator_probe,
    "length-based": attack_aag_length_based,
}
