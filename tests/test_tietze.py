import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import tietze
from gtc.errors import MoveError, ParseError, RankError
from gtc.homenc import worked_example_chain, worked_example_faithful, worked_example_presentation
from gtc.platforms import SubgroupGens, eval_word
from gtc.tietze import (
    GenMap,
    Presentation,
    T1Move,
    T2Move,
    T3Move,
    T4Move,
    TietzeChain,
    apply_map,
    break_relators,
    compose_maps,
    discard_relators,
    format_map,
    format_move,
    format_presentation,
    identity_map,
    parse_move,
    presentation,
    presentation_from_fields,
    random_chain,
    random_move,
    replay_moves,
)
from gtc.words import Word, free_reduce, random_word, read_fields, serialize_word


def example_g():
    return worked_example_presentation()


def replay(chain):
    """The chain grown again from its start by its own moves."""
    replayed = reduce(TietzeChain.then, chain.moves, TietzeChain.of(chain.start))
    assert replayed.end == chain.end
    return replayed


def test_presentation_stores_reduced_relators():
    p = presentation(2, [[1, -1, 2]])
    assert p.relators[0] == Word((2,), 2)
    with pytest.raises(RankError):
        presentation(2, [[3]])


def test_t1_adds_definitional_relator():
    p = example_g()
    new, fwd, bwd = T1Move(Word((1, 1), 3)).apply(p)
    assert new.n_gens == 4
    assert new.relators[-1] == Word((4, -1, -1), 4)
    assert fwd.images == tuple(Word((i,), 4) for i in (1, 2, 3))
    assert bwd.images[3] == Word((1, 1), 3)


def test_t1_with_empty_word_defines_identity_generator():
    p = presentation(2, [[1, 2]])
    new, _, bwd = T1Move(Word((), 2)).apply(p)
    assert new.relators[-1] == Word((3,), 3)
    assert bwd.images[2] == Word((), 2)


def test_t1_then_t2_roundtrip():
    p = example_g()
    new, _, _ = T1Move(Word((1, 1), 3)).apply(p)
    back, _, _ = T2Move(len(new.relators) - 1, 4).apply(new)
    assert back == p


def test_t2_rejects_bad_shapes():
    # relator mentioning the generator twice
    p = presentation(2, [[2, 1, 2]])
    with pytest.raises(MoveError):
        T2Move(0, 2).apply(p)
    # another relator still mentions it
    p2 = presentation(2, [[2, 1], [2, 2]])
    with pytest.raises(MoveError):
        T2Move(0, 2).apply(p2)


def test_t2_cancel_to_single_generator():
    p = presentation(2, [[2, -1]])
    new, fwd, bwd = T2Move(0, 2).apply(p)
    assert new == Presentation(1, ())
    assert fwd.images == (Word((1,), 1), Word((1,), 1))
    assert bwd.images == (Word((1,), 2),)


def test_t3_swap_matches_worked_intermediate():
    # after two introductions the swap of x1 and x5 produces the displayed forms
    p = presentation(
        5, [[4, 2, 2, 2], [5, -1, 3], [4, -1, -1], [5, -2, -2, -1]]
    )
    new, fwd, bwd = T3Move(("swap", 1, 5)).apply(p)
    assert new.relators == (
        Word((4, 2, 2, 2), 5),
        Word((1, -5, 3), 5),
        Word((4, -5, -5), 5),
        Word((1, -2, -2, -5), 5),
    )
    assert fwd.images[0] == Word((5,), 5)
    assert bwd.images[0] == Word((5,), 5)


def test_t3_self_swap_is_identity():
    p = example_g()
    new, fwd, _ = T3Move(("swap", 1, 1)).apply(p)
    assert new == p
    assert fwd == identity_map(3)


def test_t3_double_invert_restores():
    p = example_g()
    once, _, _ = T3Move(("invert", 2)).apply(p)
    twice, _, _ = T3Move(("invert", 2)).apply(once)
    assert twice == p


def test_t3_multiply_needs_distinct_generators():
    p = example_g()
    with pytest.raises(MoveError):
        T3Move(("lmul", 1, 1)).apply(p)


def test_t3_multiply_roundtrip():
    p = example_g()
    fwd_pres, fwd, bwd = T3Move(("lmul", 1, 2)).apply(p)
    # the inverse automorphism restores the presentation
    back, _, _ = T3Move(("lmul", 1, -2)).apply(fwd_pres)
    assert back == p
    assert apply_map(bwd, apply_map(fwd, Word((1,), 3))) == Word((1,), 3)


def test_t4_inverse_pairs():
    p = example_g()
    once, _, _ = T4Move(0, "inv").apply(p)
    twice, _, _ = T4Move(0, "inv").apply(once)
    assert twice == p
    r1r2, _, _ = T4Move(0, "mul_right", 1).apply(p)
    back, _, _ = T4Move(0, "mul_right_inv", 1).apply(r1r2)
    assert back == p
    conj, _, _ = T4Move(0, "conj", 2).apply(p)
    unconj, _, _ = T4Move(0, "conj_inv", 2).apply(conj)
    assert unconj == p


def test_t4_rejects_self_multiply():
    p = example_g()
    with pytest.raises(MoveError):
        T4Move(0, "mul_right", 0).apply(p)


def test_worked_example_chain_maps():
    chain = worked_example_chain()
    assert format_map(chain.phi) == "map: 1 -> 5\nmap: 2 -> 2\nmap: 3 -> 3"
    assert format_map(chain.phi_inv) == (
        "map: 1 -> 1,2,2\nmap: 2 -> 2\nmap: 3 -> 3\n"
        "map: 4 -> 1,1\nmap: 5 -> 1\nmap: 6 -> 1,1,2"
    )
    replayed = replay(chain)
    assert replayed.phi == chain.phi and replayed.phi_inv == chain.phi_inv


def test_empty_chain_gives_identity_maps():
    chain = TietzeChain.of(example_g())
    assert chain.start == chain.end and chain.moves == chain.steps == ()
    assert chain.phi == identity_map(3)
    assert chain.phi_inv == identity_map(3)


def test_apply_map_examples():
    chain = worked_example_chain()
    assert apply_map(chain.phi, Word((1, 2), 3)) == Word((5, 2), 6)
    ident = identity_map(3)
    assert apply_map(ident, Word((1, -1, 2), 3)) == Word((2,), 3)
    with pytest.raises(RankError):
        apply_map(ident, Word((4,), 4))


def test_round_trip_through_faithful_evaluation():
    # composed maps invert each other modulo the relations
    chain = worked_example_chain()
    images = worked_example_faithful()
    platform = images[0].platform
    gens = SubgroupGens(platform, images)
    rng = random.Random(21)
    for _ in range(200):
        w = random_word(3, (0, 10), rng)
        back = apply_map(chain.phi_inv, apply_map(chain.phi, w))
        assert eval_word(gens, back) == eval_word(gens, w)


def test_random_chains_invert_through_faithful_evaluation():
    images = worked_example_faithful()
    platform = images[0].platform
    gens = SubgroupGens(platform, images)
    base = example_g()
    for seed in range(500):
        rng = random.Random(seed)
        chain = random_chain(TietzeChain.of(base), rng.randint(1, 6), rng)
        w = random_word(3, (0, 8), rng)
        mapped = apply_map(chain.phi, w)
        back = apply_map(chain.phi_inv, mapped)
        assert eval_word(gens, back) == eval_word(gens, w)


def test_break_relators_worked_example():
    chain = break_relators(example_g(), 3)
    assert chain.end.n_gens == 6
    assert sorted(len(r) for r in chain.end.relators) == [3, 3, 3, 3, 4]
    assert chain.end.total_length() <= 2 * example_g().total_length()


def test_break_relators_noop_when_short():
    p = presentation(2, [[1, 2], [2, 2, -1]])
    chain = break_relators(p, 3)
    assert chain.end == p
    assert chain.moves == ()


def test_break_relators_properties():
    rng = random.Random(40)
    for trial in range(60):
        n = rng.randint(2, 4)
        relators = [
            random_word(n, (1, 14), rng) for _ in range(rng.randint(1, 4))
        ]
        relators = [r for r in relators if len(free_reduce(r)) > 0]
        if not relators:
            continue
        p = Presentation(n, tuple(relators))
        max_len = rng.choice([3, 4, 5])
        chain = break_relators(p, max_len)
        limit = max(max_len, 4)
        assert all(len(r) <= limit for r in chain.end.relators)
        assert chain.end.total_length() <= 2 * p.total_length()
        # chain replays to the same end presentation exactly
        replayed = TietzeChain.of(p)
        for move in chain.moves:
            replayed = replayed.then(move)
        assert replayed == chain


def test_break_relators_power_relator_budget():
    # a single long power block exercises the no-boundary fallback
    p = presentation(1, [[1] * 10])
    chain = break_relators(p, 3)
    assert all(len(r) <= 4 for r in chain.end.relators)
    assert chain.end.total_length() <= 20


def test_break_relators_rejects_small_max_len():
    with pytest.raises(MoveError):
        break_relators(example_g(), 2)


def test_discard_relators():
    chain = worked_example_chain()
    h = chain.end
    assert discard_relators(h, frozenset()) == h
    # the three-relator public presentation from the worked example
    h_hat = discard_relators(h, {2, 4})
    assert [serialize_word(r) for r in h_hat.relators] == [
        "6,2,2",
        "1,-5,3",
        "1,-2,-2,-5",
    ]
    # every relator may be withheld; hom_keygen is what refuses to
    assert discard_relators(h, range(len(h.relators))) == Presentation(h.n_gens, ())
    for withheld in ({99}, {0, 5}, {-1}):
        with pytest.raises(MoveError, match="missing relators"):
            discard_relators(h, withheld)


def test_discard_then_restore_recovers_original():
    h = worked_example_chain().end
    withheld = {2, 4}
    h_hat = discard_relators(h, withheld)
    restored = list(h_hat.relators)
    for idx in sorted(withheld):
        restored.insert(idx, h.relators[idx])
    assert Presentation(h.n_gens, tuple(restored)) == h


def test_move_fields_replay_the_chain():
    chain = worked_example_chain()
    replayed = replay_moves(chain.start, [("move", format_move(m)) for m in chain.moves])
    assert replayed.end == chain.end
    assert replayed.phi == chain.phi
    assert replayed.phi_inv == chain.phi_inv


def test_move_line_roundtrip():
    # rank is contextual for t1 (the current alphabet during replay)
    moves = [
        (T1Move(Word((1, -2), 2)), 2),
        (T2Move(3, 2), 8),
        (T3Move(("swap", 1, 2)), 8),
        (T3Move(("lmul", 1, -2)), 8),
        (T4Move(0, "mul_left", 4), 8),
        (T4Move(2, "conj", 1), 8),
        (T4Move(1, "inv"), 8),
    ]
    for move, rank in moves:
        assert parse_move(format_move(move), rank) == move


def test_presentation_file_roundtrip():
    p = example_g()
    text = format_presentation(p)
    assert presentation_from_fields(read_fields(text)[0], len(text)) == p
    assert "generators: 3" in text


def test_genmap_validation():
    with pytest.raises(RankError):
        GenMap(2, 2, (Word((1,), 2),))
    with pytest.raises(RankError):
        GenMap(1, 2, (Word((1,), 3),))


def _assert_valid(w):
    # internal words skip the public checks; re-run them
    assert Word(w.letters, w.rank) == w


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_random_chain_invariants_and_lazy_maps(data):
    n = data.draw(st.integers(1, 3))
    letter = st.integers(-n, n).filter(bool)
    relators = data.draw(st.lists(st.lists(letter, max_size=8), max_size=3))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    chain = TietzeChain.of(presentation(n, relators))
    phi = phi_inv = identity_map(n)
    for _ in range(data.draw(st.integers(0, 12))):
        cur = chain.end
        last = chain.moves[-1] if chain.moves else None
        if isinstance(last, T1Move) and rng.random() < 0.4:
            # the definitional relator of the newest generator cancels it
            move = T2Move(len(cur.relators) - 1, cur.n_gens)
        else:
            move = random_move(cur, rng)
        longer = chain.then(move)
        # then leaves the chain it extends as it was
        assert chain.end == cur and len(longer.moves) == len(chain.moves) + 1
        chain = longer
        fwd, bwd = chain.steps[-1]
        phi = compose_maps(phi, fwd)
        phi_inv = compose_maps(bwd, phi_inv)
        q = chain.end
        assert Presentation(q.n_gens, q.relators) == q
        for m in (fwd, bwd):
            assert GenMap(m.from_gens, m.to_gens, m.images) == m
        for w in q.relators + fwd.images + bwd.images:
            _assert_valid(w)
    assert chain.phi == phi
    assert chain.phi_inv == phi_inv
    for w in chain.phi.images + chain.phi_inv.images:
        _assert_valid(w)


def test_chain_maps_are_composed_on_first_read(monkeypatch):
    calls = []

    def counting(first, second):
        calls.append(1)
        return compose_maps(first, second)

    monkeypatch.setattr(tietze, "compose_maps", counting)
    chain = random_chain(TietzeChain.of(presentation(2, [[1, 2, -1, -2]])), 8, random.Random(3))
    assert calls == []
    phi_inv = chain.phi_inv
    assert len(calls) == len(chain.moves)
    assert chain.phi_inv is phi_inv
    assert len(calls) == len(chain.moves)


@pytest.mark.parametrize(
    "op",
    [
        ("swap", 1),
        ("invert", 1, 2),
        ("swap", 1, -2),
        ("swap", -1, 2),
        ("invert", -1),
        ("lmul", -1, 2),
        ("rmul", 1),
        ("frob", 1),
        (),
    ],
)
def test_t3_rejects_malformed_ops(op):
    with pytest.raises(MoveError):
        T3Move(op).apply(example_g())
    if op:
        line = "t3 " + " ".join(str(v) for v in op)
        with pytest.raises(ParseError):
            parse_move(line, 3)



def test_break_relators_budget_guard_keeps_the_2x_bound():
    # Taking the largest syllable boundary at every step would end at 23
    # letters here; the budget guard forces the maximal shrink instead.
    p = presentation(2, [[-2, -2, -1, -1, -1, -2, -2, -2, -1, -1, -1]])
    chain = break_relators(p, 3)
    assert p.total_length() == 11
    assert chain.end.total_length() <= 2 * p.total_length()
    assert all(len(r) <= 4 for r in chain.end.relators)
    replayed = replay(chain)
    assert (replayed.phi, replayed.phi_inv) == (chain.phi, chain.phi_inv)
