import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from gtc.errors import BoundError, ParseError
from gtc.platforms import (
    CyclicModP,
    FreePlatform,
    PermutationPlatform,
    block_commuting_subgroups,
    eval_word,
)
from gtc.problems import (
    factorization_decide_bounded,
    gpcp_bounded_search,
    kp_decide_bounded,
    parse_instance,
    smp_decide_bounded,
    ssp_decide,
    twisted_conjugacy_bounded,
)
from gtc.rng import substream
from gtc.tietze import GenMap, T3Move, apply_map, compose_maps, identity_map
from gtc.words import Word, empty_word, multiply


def power_word(c, rank=1):
    if c >= 0:
        return Word((1,) * c, rank)
    return Word((-1,) * (-c), rank)


def subset_sum_dp(values, target):
    """Independent integer oracle: classic reachable-sum table."""
    reachable = {0: ()}
    for i, v in enumerate(values):
        additions = {}
        for s, picks in reachable.items():
            ns = s + v
            if ns not in reachable and ns not in additions:
                additions[ns] = picks + (i,)
        reachable.update(additions)
    if target not in reachable:
        return None
    picks = reachable[target]
    return tuple(1 if i in picks else 0 for i in range(len(values)))


# --- ssp -----------------------------------------------------------------------

def test_ssp_identity_target():
    fp = FreePlatform(1)
    items = [fp.element(power_word(c)) for c in (2, 3)]
    assert ssp_decide(fp, items, fp.identity()) == (0, 0)


def test_ssp_matches_integer_dp_oracle():
    fp = FreePlatform(1)
    for trial in range(100):
        rng = substream(3, trial)
        k = rng.randint(1, 10)
        values = [rng.randint(-6, 6) or 1 for _ in range(k)]
        target = rng.randint(-12, 12)
        items = [fp.element(power_word(c)) for c in values]
        mine = ssp_decide(fp, items, fp.element(power_word(target)) if target else fp.identity())
        oracle = subset_sum_dp(values, target)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            assert sum(v for v, e in zip(values, mine) if e) == target


def test_ssp_rejects_reordered_product():
    fp = FreePlatform(2)
    g1, g2 = fp.generators()
    target = fp.multiply(g2, g1)  # abelianized sum matches (1,1) but order differs
    assert ssp_decide(fp, [g1, g2], target) is None


def test_ssp_bound_guard():
    # the box search's tables hold 2^(k//2) + 2^(k-k//2) values: 2^20 at
    # k = 38, so k = 39 is the first that the guard refuses
    fp = FreePlatform(1)
    x = fp.element(power_word(1))
    assert ssp_decide(fp, [x] * 25, fp.identity()) == (0,) * 25
    assert ssp_decide(fp, [x] * 38, fp.element(power_word(38))) == (1,) * 38
    with pytest.raises(BoundError):
        ssp_decide(fp, [x] * 39, fp.identity())


# --- kp ------------------------------------------------------------------------

def test_kp_simple_witness():
    fp = FreePlatform(2)
    g1, g2 = fp.generators()
    target = fp.multiply(fp.multiply(g1, g1), g1)
    assert kp_decide_bounded(fp, [g1, g2], target, 4) == (3, 0)


def test_kp_matches_naive_cyclic_oracle():
    cp = CyclicModP(23, 5)
    g = cp.element(5)
    for target_exp in range(0, 22):
        target = cp.identity()
        for _ in range(target_exp):
            target = cp.multiply(target, g)
        found = kp_decide_bounded(cp, [g], target, 21)
        naive = next(
            (e for e in range(22) if pow(5, e, 23) == target.payload), None
        )
        assert found == ((naive,) if naive is not None and naive <= 21 else None)


def test_kp_absent_when_exponent_exceeds_bound():
    fp = FreePlatform(1)
    g = fp.element(power_word(1))
    target = fp.element(power_word(5))
    assert kp_decide_bounded(fp, [g], target, 4) is None
    assert kp_decide_bounded(fp, [g], target, 5) == (5,)


def test_kp_guard():
    fp = FreePlatform(1)
    items = [fp.element(power_word(1))] * 9
    with pytest.raises(BoundError):
        kp_decide_bounded(fp, items, fp.identity(), 30)
    # one item: the tables hold 1 and E + 1 values, past the guard at E = 2^20 - 1
    with pytest.raises(BoundError):
        kp_decide_bounded(fp, items[:1], fp.identity(), (1 << 20) - 1)
    # a 4,000-digit bound over 2,000 items: (E+1)^1000 alone would take seconds
    start = time.process_time()
    with pytest.raises(BoundError):
        kp_decide_bounded(fp, items[:1] * 2000, fp.identity(), 10**4000)
    assert time.process_time() - start < 0.5


# --- smp -----------------------------------------------------------------------

def test_smp_direct_hit():
    s4 = PermutationPlatform(4)
    g1 = s4.element((2, 1, 3, 4))
    g2 = s4.element((2, 3, 4, 1))
    assert smp_decide_bounded(s4, [g1, g2], g1, 3) == (0,)
    assert smp_decide_bounded(s4, [g1, g2], s4.identity(), 3) == ()


def full_closure(platform, gens):
    """Oracle: exhaust the subgroup generated by inversion-closed gens."""
    seen = {platform.serialize_element(platform.identity())}
    frontier = [platform.identity()]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                ne = platform.multiply(e, g)
                key = platform.serialize_element(ne)
                if key not in seen:
                    seen.add(key)
                    nxt.append(ne)
        frontier = nxt
    return seen


def test_smp_reproduces_subgroup_membership_on_s4():
    s4 = PermutationPlatform(4)
    swap = s4.element((2, 1, 3, 4))
    cycle3 = s4.element((2, 3, 1, 4))
    gens = [swap, cycle3, s4.invert(cycle3)]  # closed under inversion
    members = full_closure(s4, gens)
    rng = random.Random(8)
    for _ in range(60):
        candidate = s4.random_element(rng)
        witness = smp_decide_bounded(s4, gens, candidate, 12)
        assert (witness is not None) == (s4.serialize_element(candidate) in members)


def test_smp_absent_within_bound():
    fp = FreePlatform(2)
    g1 = fp.generators()[0]
    target = fp.generators()[1]
    assert smp_decide_bounded(fp, [g1], target, 8) is None


# --- gpcp ----------------------------------------------------------------------

def test_gpcp_equal_constants_gives_empty_term():
    e = empty_word(2)
    u = [Word((1,), 2)]
    v = [Word((2,), 2)]
    assert gpcp_bounded_search(u, v, Word((1, 2), 2), Word((1, 2), 2), 3) == empty_word(1)


def test_gpcp_planted_instances():
    rng = random.Random(5)
    for _ in range(40):
        rank = 2
        k = 2
        u = [Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), rank) for _ in range(k)]
        v = [Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), rank) for _ in range(k)]
        t = Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), k)
        b = Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), rank)

        def evaluate(term, tup):
            images = GenMap(k, rank, tuple(tup))
            return apply_map(images, term)

        # choose a so the planted t is a solution: a = b t(v) t(u)^-1
        from gtc.words import invert

        a = multiply(multiply(b, evaluate(t, v)), invert(evaluate(t, u)))
        found = gpcp_bounded_search(u, v, a, b, len(t))
        assert found is not None
        assert multiply(a, evaluate(found, u)) == multiply(b, evaluate(found, v))


def test_gpcp_unsolvable_within_bound():
    # constants over letters disjoint from every u_i, v_i
    u = [Word((1,), 3)]
    v = [Word((1,), 3)]
    a = Word((3,), 3)
    b = empty_word(3)
    assert gpcp_bounded_search(u, v, a, b, 4) is None


def test_gpcp_compares_a_and_b_in_the_free_group():
    # a = x1 x1^-1 is the identity although its letters are not reduced, so
    # the empty term solves a t(u) = b t(v) with b = e; with u = (x1) and
    # v = (x2) nothing else does
    u, v = [Word((1,), 2)], [Word((2,), 2)]
    assert gpcp_bounded_search(u, v, Word((1, -1), 2), empty_word(2), 3) == empty_word(1)


# --- twisted conjugacy -----------------------------------------------------------

def test_gpcp_witness_is_rechecked(monkeypatch):
    from gtc import problems

    u = [Word((1,), 2), Word((2,), 2)]
    v = [Word((2,), 2), Word((1,), 2)]
    a, b = Word((2,), 2), Word((1,), 2)  # t = x2^-1 solves a t(u) = b t(v)
    assert gpcp_bounded_search(u, v, a, b, 2) == Word((-2,), 2)
    # a broken evaluator: every term evaluates to the empty word
    monkeypatch.setattr(problems, "apply_map", lambda m, w: empty_word(m.to_gens))
    with pytest.raises(AssertionError, match="gpcp witness fails its re-check"):
        gpcp_bounded_search(u, v, a, b, 2)


def test_twisted_identity_endomorphisms():
    fp = FreePlatform(2)
    u = fp.element(Word((1, 2), 2))
    ident = identity_map(2)
    assert twisted_conjugacy_bounded(u, u, ident, ident, 3) == empty_word(2)
    # ordinary conjugacy: v = w^-1 u w
    w = Word((2,), 2)
    v = fp.element(multiply(multiply(Word((-2,), 2), u.payload), w))
    found = twisted_conjugacy_bounded(u, v, ident, ident, 2)
    assert found is not None


def test_twisted_planted_endomorphisms():
    fp = FreePlatform(2)
    rng = random.Random(6)
    for _ in range(30):
        phi = GenMap(2, 2, (
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
        ))
        psi = GenMap(2, 2, (
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
        ))
        w = Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2)
        u = fp.element(Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(3)), 2))
        # v = psi(w)^-1 u phi(w)
        from gtc.words import invert

        v_word = multiply(multiply(invert(apply_map(psi, w)), u.payload), apply_map(phi, w))
        v = fp.element(v_word)
        found = twisted_conjugacy_bounded(u, v, phi, psi, 2)
        assert found is not None
        assert multiply(u.payload, apply_map(phi, found)) == multiply(
            apply_map(psi, found), v.payload
        )


def random_automorphism_with_inverse(rank, rng, moves=4):
    """Compose elementary free-group automorphisms; returns (psi, psi_inv)."""
    from gtc.tietze import Presentation

    dummy = Presentation(rank, ())
    psi = identity_map(rank)
    psi_inv = identity_map(rank)
    for _ in range(moves):
        kind = rng.choice(["swap", "invert", "lmul", "rmul"])
        if kind == "swap":
            i, j = rng.sample(range(1, rank + 1), 2)
            op = ("swap", i, j)
        elif kind == "invert":
            op = ("invert", rng.randint(1, rank))
        else:
            i, j = rng.sample(range(1, rank + 1), 2)
            op = (kind, i, j if rng.random() < 0.5 else -j)
        move = T3Move(op)
        _, fwd, bwd = move.apply(dummy)
        psi = compose_maps(psi, fwd)
        psi_inv = compose_maps(bwd, psi_inv)
    return psi, psi_inv


def test_twisted_double_reduces_to_single_when_psi_invertible():
    fp = FreePlatform(2)
    rng = random.Random(9)
    solved_pairs = 0
    for _ in range(100):
        phi = GenMap(2, 2, (
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
            Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2),
        ))
        psi, psi_inv = random_automorphism_with_inverse(2, rng)
        w = Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(2)), 2)
        u = fp.element(Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(3)), 2))
        from gtc.words import invert

        v = fp.element(
            multiply(multiply(invert(apply_map(psi, w)), u.payload), apply_map(phi, w))
        )
        # the double-twisted instance and its single-twisted reduction agree:
        # u phi(w) = psi(w) v  iff  u lambda(w') = w' v with lambda = phi o psi^-1
        lam = compose_maps(psi_inv, phi)
        double = twisted_conjugacy_bounded(u, v, phi, psi, 2)
        assert double is not None
        w_single = apply_map(psi, double)
        single = twisted_conjugacy_bounded(u, v, lam, identity_map(2), len(w_single))
        assert single is not None
        solved_pairs += 1
    assert solved_pairs == 100


# --- factorization decision ------------------------------------------------------

def test_factorization_identity():
    rng = random.Random(10)
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    platform = A.platform
    found = factorization_decide_bounded(platform.identity(), A, B, 1)
    assert found == (Word((), 2), Word((), 2))


def test_factorization_planted():
    rng = random.Random(11)
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    platform = A.platform
    for trial in range(10):
        trng = substream(12, trial)
        a_expr = Word(tuple(trng.choice([1, -1, 2, -2]) for _ in range(3)), 2)
        b_expr = Word(tuple(trng.choice([1, -1, 2, -2]) for _ in range(3)), 2)
        w = platform.multiply(eval_word(A, a_expr), eval_word(B, b_expr))
        found = factorization_decide_bounded(w, A, B, 3)
        assert found is not None
        a_hat, b_hat = found
        assert platform.multiply(eval_word(A, a_hat), eval_word(B, b_hat)) == w


def test_factorization_absent():
    rng = random.Random(13)
    A, B = block_commuting_subgroups(4, 5, 2, 2, rng)
    platform = A.platform
    # an off-diagonal unit cannot be a product of the two blocks
    rows = [list(r) for r in platform.identity().payload]
    rows[0][3] = 1
    w = platform.element(rows)
    assert factorization_decide_bounded(w, A, B, 2) is None


def test_factorization_matches_naive_double_enumeration():
    from gtc.attacks import enumerate_subgroup_values

    rng = random.Random(21)
    A, B = block_commuting_subgroups(4, 5, 1, 1, rng)
    platform = A.platform
    bound = 3
    a_values = [platform.element(v) for v in enumerate_subgroup_values(A, bound)]
    b_values = [platform.element(v) for v in enumerate_subgroup_values(B, bound)]
    for trial in range(40):
        trng = substream(22, trial)
        if trng.random() < 0.5:
            w = platform.multiply(trng.choice(a_values), trng.choice(b_values))
        else:
            w = platform.random_element(trng)
        naive = any(
            platform.multiply(a, b) == w for a in a_values for b in b_values
        )
        mine = factorization_decide_bounded(w, A, B, bound)
        assert (mine is not None) == naive


def test_bounded_searches_are_monotone():
    fp = FreePlatform(2)
    g1 = fp.generators()[0]
    target = fp.multiply(fp.multiply(g1, g1), g1)
    for bound in (3, 4, 6):
        assert smp_decide_bounded(fp, [g1], target, bound) == (0, 0, 0)


# --- instance files ---------------------------------------------------------------

def test_parse_ssp_instance():
    text = """
problem: ssp
platform: free 1
elem: 1,1,1
elem: 1,1,1,1,1
target: 1,1,1,1,1,1,1,1
bound: 1
"""
    inst = parse_instance(text)
    assert inst.problem == "ssp"
    assert len(inst.values["elem"]) == 2
    witness = ssp_decide(inst.values["platform"], inst.values["elem"], inst.values["target"])
    assert witness == (1, 1)


def test_parse_twisted_instance():
    text = """
problem: twisted
rank: 2
source: 1
target: 1
phi: 1;2
psi: 1;2
bound: 2
"""
    inst = parse_instance(text)
    found = twisted_conjugacy_bounded(
        FreePlatform(2).element(inst.values["source"]),
        FreePlatform(2).element(inst.values["target"]),
        inst.values["phi"],
        inst.values["psi"],
        inst.bound,
    )
    assert found == empty_word(2)


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("platform: free 2\n")
    with pytest.raises(ParseError):
        parse_instance("problem: ssp\nbad line\n")
    with pytest.raises(ParseError, match="unknown instance key 'element'"):
        parse_instance("problem: ssp\nplatform: free 1\nelem: 1\nelement: 3\n")
    with pytest.raises(ParseError, match="unknown instance key"):
        parse_instance("problem: ssp\n[section]\n")
    twisted = "problem: twisted\nrank: 2\nsource: 1\ntarget: 1\nphi: 1;2\npsi: 1;2\n"
    for line in ("source: 2", "target: 2", "phi: 2;1", "psi: 2;1"):
        with pytest.raises(ParseError, match="expected one"):
            parse_instance(twisted + line + "\n")
    gpcp = "problem: gpcp\nrank: 2\nu: 1\nu: 2\nv: 2\nv: 1\na: 1\nb: 2\n"
    assert len(parse_instance(gpcp).values["u"]) == 2
    for line in ("a: 2", "b: 1", "rank: 2", "bound: 1\nbound: 2"):
        with pytest.raises(ParseError, match="expected one"):
            parse_instance(gpcp + line + "\n")
    factor = "problem: factor\nplatform: direct 1 1\nagens: 1|e\nbgens: e|1\ntarget: 1|1\n"
    for line in ("agens: e|1", "bgens: 1|e", "target: 1|e", "platform: free 1"):
        with pytest.raises(ParseError, match="expected one"):
            parse_instance(factor + line + "\n")


# --- witness re-checks -----------------------------------------------------------

TAMPERED_SOLVE = textwrap.dedent("""
    import sys
    from gtc import cli, problems

    print(f"optimize={sys.flags.optimize}")
    # a broken evaluator: every selection evaluates to the identity
    problems._ordered_power_product = lambda platform, items, exponents: platform.identity()
    sys.exit(cli.main(["solve", "ssp", "--instance", sys.argv[1]]))
""")


def test_witness_recheck_survives_python_O(tmp_path):
    instance = tmp_path / "ssp.txt"
    instance.write_text("problem: ssp\nplatform: free 1\nelem: 1\nelem: 1,1\ntarget: 1,1,1\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_SOLVE, str(instance)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stdout.startswith("optimize=1")
    assert proc.returncode == 1
    assert "AssertionError: ssp witness fails its re-check" in proc.stderr
