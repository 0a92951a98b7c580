"""Finite presentations and tracked elementary isomorphisms.

The four classical presentation moves are implemented with exact forward
and backward generator maps, so a chain of moves always knows both the
composed isomorphism and its inverse.  The inverse map is the private
key of the isomorphism-inversion encryption scheme, so it is only ever
produced by replaying the chain, never by searching.

Relator indices are 0-based in the API and 1-based in move lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .errors import MoveError, ParseError, RankError
from .words import (
    GenMap,
    Word,
    apply_map,
    cyclic_reduce,
    free_reduce,
    inverse_letters,
    int_value,
    invert,
    multiply,
    parse_word,
    random_reduced_word,
    serialize_word,
)


@dataclass(frozen=True)
class Presentation:
    """Generator count plus a list of reduced relator words."""

    n_gens: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.n_gens < 1:
            raise RankError("presentation needs at least one generator")
        for r in self.relators:
            if r.rank != self.n_gens:
                raise RankError("relator rank does not match generator count")
        object.__setattr__(
            self, "relators", tuple(free_reduce(r) for r in self.relators)
        )

    @classmethod
    def _trusted(cls, n_gens: int, relators: tuple[Word, ...]) -> Presentation:
        """Unchecked constructor for moves, whose relators are reduced
        words of rank ``n_gens`` by construction."""
        p = object.__new__(cls)
        d = p.__dict__
        d["n_gens"] = n_gens
        d["relators"] = relators
        return p

    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)

    @cached_property
    def relator_rotations(self) -> tuple[frozenset, ...]:
        """For each relator, the letters of every rotation of its cyclic
        reduction and of that word's inverse: the cyclically reduced words
        conjugate in the free group to the relator or its inverse."""
        table = []
        for r in self.relators:
            c = cyclic_reduce(r).letters
            table.append(frozenset(t[i:] + t[:i] for t in (c, inverse_letters(c))
                                   for i in range(max(len(t), 1))))
        return tuple(table)


def presentation(n_gens: int, relators) -> Presentation:
    return Presentation(n_gens, tuple(Word(tuple(r), n_gens) for r in relators))


@lru_cache(maxsize=128)
def _generators(n_gens: int, rank: int) -> tuple[Word, ...]:
    """The one-letter words x_1..x_n_gens over an alphabet of ``rank``
    (immutable, so shared between calls)."""
    return tuple([Word._trusted((i,), rank) for i in range(1, n_gens + 1)])


def identity_map(n_gens: int) -> GenMap:
    return GenMap._trusted(n_gens, n_gens, _generators(n_gens, n_gens))


def compose_maps(first: GenMap, second: GenMap) -> GenMap:
    """The map 'apply first, then second'."""
    if first.to_gens != second.from_gens:
        raise RankError("maps do not compose")
    return GenMap._trusted(
        first.from_gens,
        second.to_gens,
        tuple([apply_map(second, img) for img in first.images]),
    )


def format_map(m: GenMap) -> str:
    """Bit-exact text block, one 'map: i -> word' line per generator."""
    return "\n".join(
        f"map: {i} -> {serialize_word(img)}" for i, img in enumerate(m.images, start=1)
    )


def parse_map(fields, to_gens: int) -> GenMap:
    """Inverse of format_map, from its fields (``words.read_fields``):
    'map: i -> word' lines numbered 1..n in order."""
    images = []
    for i, (key, value) in enumerate(fields, start=1):
        index, arrow, image = value.partition("->")
        if key != "map" or not arrow or index.strip() != str(i):
            raise ParseError(f"expected 'map: {i} -> word', got {key!r}: {value!r}")
        images.append(parse_word(image, to_gens))
    return GenMap(len(images), to_gens, tuple(images))


# ---------------------------------------------------------------------------
# moves

@dataclass(frozen=True)
class T1Move:
    """Introduce generator y = s: appends generator n+1 and relator y s^-1."""

    s: Word

    def apply(self, p: Presentation) -> tuple[Presentation, GenMap, GenMap]:
        if self.s.rank != p.n_gens:
            raise MoveError("defining word must be over the current alphabet")
        n = p.n_gens + 1
        # the old relators and generators, re-ranked into the larger alphabet
        lifted = tuple([Word._trusted(r.letters, n) for r in p.relators])
        fwd = GenMap._trusted(p.n_gens, n, _generators(p.n_gens, n))
        def_rel = multiply(Word._trusted((n,), n), invert(Word._trusted(self.s.letters, n)))
        new = Presentation._trusted(n, lifted + (def_rel,))
        bwd = GenMap._trusted(
            n, p.n_gens, _generators(p.n_gens, p.n_gens) + (free_reduce(self.s),)
        )
        return new, fwd, bwd


@dataclass(frozen=True)
class T2Move:
    """Cancel generator ``gen`` using relator ``rel`` of the form y s^-1."""

    rel: int
    gen: int

    def apply(self, p: Presentation) -> tuple[Presentation, GenMap, GenMap]:
        if not 0 <= self.rel < len(p.relators):
            raise MoveError(f"no relator with index {self.rel}")
        if not 1 <= self.gen <= p.n_gens:
            raise MoveError(f"no generator x{self.gen}")
        if p.n_gens == 1:
            raise MoveError("cannot cancel the last generator")
        r = p.relators[self.rel]
        if not r.letters or r.letters[0] != self.gen:
            raise MoveError("relator is not of the form y*s^-1 for the chosen generator")
        tail = Word._trusted(r.letters[1:], p.n_gens)
        if any(abs(l) == self.gen for l in tail.letters):
            raise MoveError("defining word mentions the cancelled generator")
        for i, other in enumerate(p.relators):
            if i != self.rel and any(abs(l) == self.gen for l in other.letters):
                raise MoveError(f"relator {i} still mentions the cancelled generator")
        s = invert(tail)  # y = s in the group

        def drop(wd: Word) -> Word:
            # renumber past the cancelled generator; keeps words reduced
            letters = tuple(
                l - 1 if l > self.gen else (l + 1 if l < -self.gen else l)
                for l in wd.letters
            )
            return Word._trusted(letters, p.n_gens - 1)

        new_rels = tuple(
            drop(r2) for i, r2 in enumerate(p.relators) if i != self.rel
        )
        new = Presentation._trusted(p.n_gens - 1, new_rels)
        fwd_images = tuple(
            drop(s if i == self.gen else Word._trusted((i,), p.n_gens))
            for i in range(1, p.n_gens + 1)
        )
        fwd = GenMap._trusted(p.n_gens, p.n_gens - 1, fwd_images)
        bwd_images = tuple(
            Word._trusted((i if i < self.gen else i + 1,), p.n_gens)
            for i in range(1, p.n_gens)
        )
        bwd = GenMap._trusted(p.n_gens - 1, p.n_gens, bwd_images)
        return new, fwd, bwd


T3_ARITY = {"swap": 2, "invert": 1, "lmul": 2, "rmul": 2}


@dataclass(frozen=True)
class T3Move:
    """Apply an elementary free-group automorphism to all relators.

    op is one of:
      ("swap", i, j)        x_i <-> x_j
      ("invert", i)         x_i -> x_i^-1
      ("lmul", i, j)        x_i -> x_j^sign(j) * x_i   (j signed, |j| != i)
      ("rmul", i, j)        x_i -> x_i * x_j^sign(j)
    Every index but the signed j is positive.
    """

    op: tuple

    def check_shape(self) -> None:
        """Raise MoveError unless op names a known kind with the right
        number of indices and the signs above; the alphabet is not needed."""
        kind = self.op[0] if self.op else None
        if kind not in T3_ARITY:
            raise MoveError(f"unknown automorphism op {kind!r}")
        args = self.op[1:]
        if len(args) != T3_ARITY[kind]:
            raise MoveError(f"wrong number of generator indices in {self.op}")
        if args[0] < 1 or (kind == "swap" and args[1] < 1):
            raise MoveError(f"generator indices of {kind} must be positive in {self.op}")

    def _auto(self, n: int, inverse: bool) -> GenMap:
        images = list(_generators(n, n))
        kind = self.op[0]
        if kind == "swap":
            _, i, j = self.op
            images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
        elif kind == "invert":
            _, i = self.op
            images[i - 1] = Word._trusted((-i,), n)
        else:
            _, i, j = self.op
            jj = -j if inverse else j
            if kind == "lmul":
                images[i - 1] = Word._trusted((jj, i), n)
            else:
                images[i - 1] = Word._trusted((i, jj), n)
        return GenMap._trusted(n, n, tuple(images))

    def apply(self, p: Presentation) -> tuple[Presentation, GenMap, GenMap]:
        self.check_shape()
        n = p.n_gens
        if any(not 1 <= abs(v) <= n for v in self.op[1:]):
            raise MoveError(f"generator index out of range in {self.op}")
        if self.op[0] in ("lmul", "rmul") and abs(self.op[2]) == self.op[1]:
            raise MoveError("multiply move needs two distinct generators")
        fwd = self._auto(n, inverse=False)
        bwd = self._auto(n, inverse=True)
        new = Presentation._trusted(n, tuple([apply_map(fwd, r) for r in p.relators]))
        return new, fwd, bwd


T4_ACTIONS = {
    "inv",
    "mul_right",
    "mul_right_inv",
    "mul_left",
    "mul_left_inv",
    "conj",
    "conj_inv",
}


@dataclass(frozen=True)
class T4Move:
    """Rewrite relator i inside the same normal closure.

    Actions: inv; mul_right/mul_left by relator arg (or its inverse);
    conj/conj_inv by generator arg.  Generator maps are the identity.
    """

    i: int
    action: str
    arg: Optional[int] = None

    def apply(self, p: Presentation) -> tuple[Presentation, GenMap, GenMap]:
        if self.action not in T4_ACTIONS:
            raise MoveError(f"unknown relator action {self.action!r}")
        if not 0 <= self.i < len(p.relators):
            raise MoveError(f"no relator with index {self.i}")
        r = p.relators[self.i]
        n = p.n_gens
        if self.action == "inv":
            new_r = invert(r)
        elif self.action.startswith("mul"):
            j = self.arg
            if j is None or not 0 <= j < len(p.relators):
                raise MoveError("multiply action needs another relator index")
            if j == self.i:
                raise MoveError("cannot multiply a relator by itself")
            other = p.relators[j]
            if self.action.endswith("_inv"):
                other = invert(other)
            new_r = multiply(r, other) if "right" in self.action else multiply(other, r)
        else:
            k = self.arg
            if k is None or not 1 <= k <= n:
                raise MoveError("conjugation action needs a generator index")
            x = Word._trusted((k if self.action == "conj" else -k,), n)  # r^x, x = x_k^(+-1)
            new_r = multiply(multiply(invert(x), r), x)
        rels = list(p.relators)
        rels[self.i] = new_r
        new = Presentation._trusted(n, tuple(rels))
        return new, identity_map(n), identity_map(n)


Move = T1Move | T2Move | T3Move | T4Move


# ---------------------------------------------------------------------------
# chains

@dataclass(frozen=True)
class TietzeChain:
    """Moves from ``start`` to ``end``; ``steps`` holds each move's
    (forward, backward) generator maps.

    A chain is immutable and grows only by ``then``; ``TietzeChain.of(p)``
    is the empty chain on ``p``.  ``phi`` (start -> end) and ``phi_inv``
    (end -> start) are composed from ``steps`` on first read and cached,
    so a chain whose maps are never read costs no composition.
    """

    start: Presentation
    moves: tuple[Move, ...]
    end: Presentation
    steps: tuple[tuple[GenMap, GenMap], ...]

    @classmethod
    def of(cls, p: Presentation) -> TietzeChain:
        return cls(p, (), p, ())

    def then(self, move: Move) -> TietzeChain:
        """This chain extended by ``move``, applied to ``end``."""
        new, fwd, bwd = move.apply(self.end)
        return TietzeChain(self.start, self.moves + (move,), new, self.steps + ((fwd, bwd),))

    @cached_property
    def phi(self) -> GenMap:
        phi = identity_map(self.start.n_gens)
        for fwd, _ in self.steps:
            phi = compose_maps(phi, fwd)
        return phi

    @cached_property
    def phi_inv(self) -> GenMap:
        phi_inv = identity_map(self.start.n_gens)
        for _, bwd in self.steps:
            phi_inv = compose_maps(bwd, phi_inv)
        return phi_inv


def discard_relators(p: Presentation, withheld) -> Presentation:
    """``p`` less the relators whose indices are in the set ``withheld``."""
    if any(not 0 <= i < len(p.relators) for i in withheld):
        raise MoveError("withheld set references missing relators")
    return Presentation._trusted(
        p.n_gens, tuple(r for i, r in enumerate(p.relators) if i not in withheld)
    )


# ---------------------------------------------------------------------------
# relator breaking

def _max_shrink_moves(length: int, max_len: int, cap: int) -> int:
    moves = 0
    while length > max_len:
        p = min(length - 2, cap)
        length -= p - 1
        moves += 1
    return moves


def break_relators(p: Presentation, max_len: int) -> TietzeChain:
    """Break every relator longer than max_len into short pieces.

    Each step introduces a new generator for a prefix of the longest
    over-long relator (longest first, lowest index on ties) and rewrites
    that relator through the new definitional relator.  The split prefers
    the largest syllable boundary with prefix length in [2, cap] where
    cap = max(max_len, 4) - 1; a budget guard forces the maximal shrink
    whenever the 2x total-length bound would otherwise be at risk.

    Output: every relator has length <= max(max_len, 4), total relator
    length at most doubles, and the chain replays exactly.
    """
    if max_len < 3:
        raise MoveError("max_len must be at least 3")
    cap = max(max_len, 4) - 1
    chain = TietzeChain.of(p)
    content = list(range(len(p.relators)))
    budget = p.total_length() // 2
    moves_done = 0
    while True:
        cur = chain.end
        over = [i for i in content if len(cur.relators[i]) > max_len]
        if not over:
            break
        i = max(over, key=lambda idx: (len(cur.relators[idx]), -idx))
        r = cur.relators[i]
        length = len(r)
        p_limit = min(length - 2, cap)
        split = None
        for q in range(p_limit, 1, -1):
            if r.letters[q - 1] != r.letters[q]:
                split = q
                break
        if split is None:
            split = p_limit
        if split < p_limit:
            # would the smaller bite break the 2x budget in the worst case?
            projected = moves_done + 1 + _max_shrink_moves(length - split + 1, max_len, cap)
            for j in over:
                if j != i:
                    projected += _max_shrink_moves(len(cur.relators[j]), max_len, cap)
            if projected > budget:
                split = p_limit
        s = Word._trusted(r.letters[:split], cur.n_gens)
        # T1 appends its definitional relator at index len(cur.relators)
        chain = chain.then(T1Move(s)).then(T4Move(i, "mul_left", len(cur.relators)))
        moves_done += 1
    return chain


# ---------------------------------------------------------------------------
# random chains

def random_move(p: Presentation, rng: random.Random) -> Move:
    """A random T1 / T3 / T4' move that is legal on ``p``: a T1 word has 1
    to 3 letters, and a T4' product at most 24."""
    kinds = ["t1", "t3"]
    if len(p.relators) >= 1:
        kinds.append("t4")
    kind = rng.choice(kinds)
    n = p.n_gens
    if kind == "t1":
        s = random_reduced_word(n, (1, 3), rng)
        return T1Move(s)
    if kind == "t3":
        if n == 1:
            return T3Move(("invert", 1))
        which = rng.choice(["swap", "invert", "lmul", "rmul"])
        if which == "swap":
            i, j = rng.sample(range(1, n + 1), 2)
            return T3Move(("swap", i, j))
        if which == "invert":
            return T3Move(("invert", rng.randint(1, n)))
        i, j = rng.sample(range(1, n + 1), 2)
        if rng.random() < 0.5:
            j = -j
        return T3Move((which, i, j))
    i = rng.randrange(len(p.relators))
    actions = ["inv", "conj", "conj_inv"]
    mul_ok = [
        j
        for j in range(len(p.relators))
        if j != i and len(p.relators[i]) + len(p.relators[j]) <= 24
    ]
    if mul_ok:
        actions += ["mul_right", "mul_right_inv", "mul_left", "mul_left_inv"]
    action = rng.choice(actions)
    if action.startswith("mul"):
        return T4Move(i, action, rng.choice(mul_ok))
    if action.startswith("conj"):
        return T4Move(i, action, rng.randint(1, n))
    return T4Move(i, "inv")


def random_chain(chain: TietzeChain, length: int, rng: random.Random) -> TietzeChain:
    """``chain`` extended by ``length`` moves of ``random_move``."""
    for _ in range(length):
        chain = chain.then(random_move(chain.end, rng))
    return chain


# ---------------------------------------------------------------------------
# text formats

def format_presentation(p: Presentation) -> str:
    lines = [f"generators: {p.n_gens}"]
    lines.extend(f"relator: {serialize_word(r)}" for r in p.relators)
    return "\n".join(lines)


def presentation_from_fields(fields, size: int) -> Presentation:
    """A 'generators: N' field, then 'relator: word' fields.

    ``size`` is the length of the text the fields were read from.  N may
    not exceed it: replaying a move builds one word per generator, so an
    unbounded N would let a short file claim any amount of memory.
    """
    if not fields or fields[0][0] != "generators":
        raise ParseError("presentation must start with a 'generators: N' line")
    n = int_value("generators", fields[0][1], lo=1, hi=size)
    relators = []
    for key, value in fields[1:]:
        if key != "relator":
            raise ParseError(f"expected a 'relator:' line, got {key!r}: {value!r}")
        relators.append(parse_word(value, n))
    return Presentation(n, tuple(relators))


def format_move(move: Move) -> str:
    """Move line for a move, the value of a key file's 'move:' field
    (1-based indices)."""
    if isinstance(move, T1Move):
        return f"t1 {serialize_word(move.s)}"
    if isinstance(move, T2Move):
        return f"t2 {move.rel + 1} {move.gen}"
    if isinstance(move, T3Move):
        return "t3 " + " ".join(str(v) for v in move.op)
    if isinstance(move, T4Move):
        parts = [f"t4 {move.i + 1} {move.action}"]
        if move.arg is not None:
            arg = move.arg + 1 if move.action.startswith("mul") else move.arg
            parts.append(str(arg))
        return " ".join(parts)
    raise MoveError(f"unknown move {move!r}")


def parse_move(line: str, rank: int) -> Move:
    parts = line.split()
    if not parts:
        raise ParseError("empty move line")
    try:
        if parts[0] == "t1":
            return T1Move(parse_word(parts[1], rank))
        if parts[0] == "t2":
            return T2Move(int(parts[1]) - 1, int(parts[2]))
        if parts[0] == "t3":
            move = T3Move((parts[1],) + tuple(int(v) for v in parts[2:]))
            move.check_shape()
            return move
        if parts[0] == "t4":
            i = int(parts[1]) - 1
            action = parts[2]
            arg = None
            if len(parts) > 3:
                arg = int(parts[3]) - 1 if action.startswith("mul") else int(parts[3])
            return T4Move(i, action, arg)
    except (IndexError, ValueError, MoveError) as exc:
        raise ParseError(f"bad move line {line!r}: {exc}") from None
    raise ParseError(f"unknown move kind {parts[0]!r}")


def replay_moves(start: Presentation, fields) -> TietzeChain:
    """Apply the move line of each 'move:' field in turn, from ``start``."""
    chain = TietzeChain.of(start)
    for k, line in fields:
        if k != "move":
            raise ParseError(f"expected a move line, got {k!r}: {line!r}")
        try:
            chain = chain.then(parse_move(line, chain.end.n_gens))
        except MoveError as exc:
            raise ParseError(f"move {line!r} does not apply: {exc}") from None
    return chain

