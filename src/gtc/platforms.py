"""Concrete platform groups with exact normal forms.

Every kind implements the contract in the Platform docstring, and
eval_word evaluates a Word over a list of generator Elements.  Payloads
are always canonical: reduced words, residues in [1, p-1], bijective image
tuples, matrices with entries reduced mod p, or pairs of reduced words
for the direct product of two free groups.  Searches step on payloads
with the kind's mul, eval_word with each letter's left_mul (one itemgetter
call per permutation product), and both build Elements only for what
they report or re-check.

All arithmetic is exact integer arithmetic; matrices over Z_p use the
kernels of gtc.linalg.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from operator import itemgetter, mul
from typing import Callable, Optional

from .errors import ParseError, RankError, SamplingError, SetupError
from .linalg import centralizer_basis, is_invertible, mat_identity, mat_inv, mat_mul_mod
from .words import (Word, empty_word, free_reduce, int_value, invert, multiply, parse_word,
                    random_reduced_word, serialize_word)


# tries of each rejection sampler for an invertible matrix before SamplingError
SAMPLE_TRIES = 100

# ---------------------------------------------------------------------------
# moduli

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _check_modulus(p: int) -> None:
    """SetupError unless p is a prime below 2^31, where the trial divisions
    of is_prime and _prime_factors end in milliseconds."""
    if p >= 1 << 31:
        raise SetupError(f"modulus {p} is not below 2^31")
    if not is_prime(p):
        raise SetupError(f"{p} is not prime")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class Element:
    """Platform-tagged normal form; equality is payload comparison."""

    platform: "Platform"
    payload: object


class Platform:
    """Uniform group contract shared by all platform kinds.

    Each kind is a frozen dataclass whose ``init`` fields are its integer
    parameters, and implements identity(), mul(x, y), the product of two
    payloads, multiply(a, b) = Element(self, mul(a.payload, b.payload)),
    invert(a), generators(), element(...) (validated construction),
    random_element(rng), serialize_element(e) and _parse(text), its inverse,
    which parse_element wraps so that every error is a ParseError.
    left_mul(y) is the map x -> mul(y, x) on payloads, which a kind may
    override with a faster callable.
    """

    kind: str = "abstract"

    def left_mul(self, y) -> Callable:
        return partial(self.mul, y)

    def parse_element(self, text: str) -> Element:
        try:
            return self._parse(text)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def conjugate(self, w: Element, x: Element) -> Element:
        """w^x = x^-1 w x."""
        return self.multiply(self.multiply(self.invert(x), w), x)

    def commutator(self, x: Element, y: Element) -> Element:
        """[x, y] = x^-1 y^-1 x y."""
        return self.multiply(
            self.multiply(self.invert(x), self.invert(y)), self.multiply(x, y)
        )

    def spec(self) -> str:
        """One-line parameter form used in file headers: the kind, then the
        constructor parameters in order."""
        params = [str(getattr(self, f.name)) for f in fields(self) if f.init]
        return " ".join([self.kind] + params)


@dataclass(frozen=True)
class FreePlatform(Platform):
    """Free group of a given rank; normal form is the reduced word."""

    rank: int
    kind: str = field(default="free", init=False)

    def element(self, w: Word) -> Element:
        if w.rank != self.rank:
            raise RankError(f"word rank {w.rank} != platform rank {self.rank}")
        return Element(self, free_reduce(w))

    def identity(self) -> Element:
        return Element(self, empty_word(self.rank))

    mul = staticmethod(multiply)

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul(a.payload, b.payload))

    def invert(self, a: Element) -> Element:
        return Element(self, invert(a.payload))

    def generators(self) -> list[Element]:
        return [Element(self, Word((i,), self.rank)) for i in range(1, self.rank + 1)]

    def serialize_element(self, e: Element) -> str:
        return serialize_word(e.payload)

    def _parse(self, text: str) -> Element:
        return self.element(parse_word(text, self.rank))

    def random_element(self, rng: random.Random) -> Element:
        return Element(self, random_reduced_word(self.rank, (1, 8), rng))


@dataclass(frozen=True)
class CyclicModP(Platform):
    """Multiplicative group Z_p* with a distinguished generator g."""

    p: int
    g: int
    kind: str = field(default="cyclic", init=False)

    def __post_init__(self) -> None:
        _check_modulus(self.p)
        if not 1 <= self.g <= self.p - 1:
            raise SetupError(f"generator {self.g} not a residue mod {self.p}")

    @cached_property
    def order_of_g(self) -> int:
        order = self.p - 1
        for q in _prime_factors(self.p - 1):
            while order % q == 0 and pow(self.g, order // q, self.p) == 1:
                order //= q
        return order

    def element(self, residue: int) -> Element:
        r = residue % self.p
        if r == 0:
            raise ValueError("0 is not in the multiplicative group")
        return Element(self, r)

    def identity(self) -> Element:
        return Element(self, 1)

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul(a.payload, b.payload))

    def invert(self, a: Element) -> Element:
        return Element(self, pow(a.payload, -1, self.p))

    def generators(self) -> list[Element]:
        return [Element(self, self.g)]

    def serialize_element(self, e: Element) -> str:
        return str(e.payload)

    def _parse(self, text: str) -> Element:
        return self.element(int(text.strip()))

    def random_element(self, rng: random.Random) -> Element:
        return Element(self, pow(self.g, rng.randrange(self.order_of_g), self.p))


@dataclass(frozen=True)
class PermutationPlatform(Platform):
    """Symmetric group on {1..degree}; payload is the 1-based image tuple.

    Composition is left to right: (a*b)(i) = b(a(i)).
    """

    degree: int
    kind: str = field(default="perm", init=False)

    def element(self, images) -> Element:
        img = tuple(images)
        if len(img) != self.degree or sorted(img) != list(range(1, self.degree + 1)):
            raise ValueError(f"{img} is not a permutation of 1..{self.degree}")
        return Element(self, img)

    def identity(self) -> Element:
        return Element(self, tuple(range(1, self.degree + 1)))

    def mul(self, x: tuple, y: tuple) -> tuple:
        return tuple([y[i - 1] for i in x])

    def left_mul(self, y: tuple) -> Callable:
        """(y*x)(i) = x(y(i)), picked out of x by one itemgetter call (which
        returns a bare int for one index; below degree 2 y is the identity)."""
        if self.degree < 2:
            return tuple
        return itemgetter(*[i - 1 for i in y])

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul(a.payload, b.payload))

    def invert(self, a: Element) -> Element:
        inv = [0] * self.degree
        for i, img in enumerate(a.payload, start=1):
            inv[img - 1] = i
        return Element(self, tuple(inv))

    def generators(self) -> list[Element]:
        if self.degree == 1:
            return [self.identity()]
        swap = [2, 1] + list(range(3, self.degree + 1))
        cycle = list(range(2, self.degree + 1)) + [1]
        return [Element(self, tuple(swap)), Element(self, tuple(cycle))]

    def serialize_element(self, e: Element) -> str:
        return " ".join(str(i) for i in e.payload)

    def _parse(self, text: str) -> Element:
        return self.element(int(t) for t in text.split())

    def random_element(self, rng: random.Random) -> Element:
        images = list(range(1, self.degree + 1))
        rng.shuffle(images)
        return Element(self, tuple(images))


def _identity_with(n: int, entries: dict) -> tuple:
    """The n x n identity matrix with entries[(i, j)] in row i, column j."""
    return tuple(tuple(entries.get((i, j), int(i == j)) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class MatrixModP(Platform):
    """GL(n, Z_p); payload is the row tuple-of-tuples with entries in [0, p)."""

    n: int
    p: int
    kind: str = field(default="matrix", init=False)

    def __post_init__(self) -> None:
        _check_modulus(self.p)
        if self.n < 1:
            raise SetupError("matrix size must be positive")

    def element(self, rows) -> Element:
        p = self.p
        m = tuple([tuple([v % p for v in row]) for row in rows])
        if len(m) != self.n or any(len(r) != self.n for r in m):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        if not is_invertible(m, self.p):
            raise ValueError("matrix is not invertible mod p")
        return Element(self, m)

    def identity(self) -> Element:
        return Element(self, mat_identity(self.n))

    @cached_property
    def mul(self) -> Callable:
        return mat_mul_mod(self.n, self.p)

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul(a.payload, b.payload))

    def invert(self, a: Element) -> Element:
        inv = mat_inv(a.payload, self.p)
        if inv is None:
            raise ValueError("matrix is not invertible mod p")
        return Element(self, inv)

    def generators(self) -> list[Element]:
        n = self.n
        patches = [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
        patches.append({(0, 0): self._primitive_root()})
        return [Element(self, _identity_with(n, patch)) for patch in patches]

    def _primitive_root(self) -> int:
        factors = _prime_factors(self.p - 1)
        for cand in range(2, self.p):
            if all(pow(cand, (self.p - 1) // q, self.p) != 1 for q in factors):
                return cand
        return 1  # p == 2

    def serialize_element(self, e: Element) -> str:
        return " ".join(str(v) for row in e.payload for v in row)

    def _parse(self, text: str) -> Element:
        vals, size = [int(t) for t in text.split()], self.n * self.n
        if len(vals) != size:
            raise ParseError(f"expected {size} entries, got {len(vals)}")
        return self.element([vals[i:i + self.n] for i in range(0, size, self.n)])

    def random_element(self, rng: random.Random) -> Element:
        for _ in range(SAMPLE_TRIES):
            rows = tuple(
                tuple(rng.randrange(self.p) for _ in range(self.n)) for _ in range(self.n)
            )
            if is_invertible(rows, self.p):
                return Element(self, rows)
        raise SamplingError("no invertible matrix found within retry budget")


@dataclass(frozen=True)
class DirectFreePlatform(Platform):
    """Direct product of two free groups.

    Letters 1..rank1 evaluate into the first factor, the rest into the
    second; the two factors commute elementwise by construction, and each
    factor is a normal subgroup.  Payload is a pair of reduced words.
    """

    rank1: int
    rank2: int
    kind: str = field(default="direct", init=False)

    def element(self, u: Word, v: Word) -> Element:
        if u.rank != self.rank1 or v.rank != self.rank2:
            raise RankError("component ranks do not match the platform")
        return Element(self, (free_reduce(u), free_reduce(v)))

    def identity(self) -> Element:
        return Element(self, (empty_word(self.rank1), empty_word(self.rank2)))

    def mul(self, x: tuple, y: tuple) -> tuple:
        return multiply(x[0], y[0]), multiply(x[1], y[1])

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul(a.payload, b.payload))

    def invert(self, a: Element) -> Element:
        return Element(self, (invert(a.payload[0]), invert(a.payload[1])))

    def generators(self) -> list[Element]:
        out = []
        for i in range(1, self.rank1 + 1):
            out.append(Element(self, (Word((i,), self.rank1), empty_word(self.rank2))))
        for j in range(1, self.rank2 + 1):
            out.append(Element(self, (empty_word(self.rank1), Word((j,), self.rank2))))
        return out

    def serialize_element(self, e: Element) -> str:
        return f"{serialize_word(e.payload[0])}|{serialize_word(e.payload[1])}"

    def _parse(self, text: str) -> Element:
        parts = text.split("|")
        if len(parts) != 2:
            raise ParseError("direct-product element needs exactly one '|'")
        return self.element(
            parse_word(parts[0], self.rank1), parse_word(parts[1], self.rank2)
        )

    def random_element(self, rng: random.Random) -> Element:
        return Element(
            self,
            (
                random_reduced_word(self.rank1, (0, 6), rng),
                random_reduced_word(self.rank2, (0, 6), rng),
            ),
        )


# each kind's class and its number of parameters
_PLATFORM_KINDS = {cls.kind: (cls, sum(f.init for f in fields(cls)))
                   for cls in (FreePlatform, CyclicModP, PermutationPlatform, MatrixModP,
                               DirectFreePlatform)}


def platform_from_spec(text: str) -> Platform:
    """Inverse of Platform.spec()."""
    kind, *params = text.split() or [""]
    if kind not in _PLATFORM_KINDS:
        raise ParseError(f"unknown platform kind {kind!r}")
    cls, arity = _PLATFORM_KINDS[kind]
    if len(params) != arity:
        raise ParseError(f"bad platform spec {text!r}: {kind} takes {arity} parameter(s)")
    try:
        return cls(*map(int, params))
    except (ValueError, SetupError) as exc:
        raise ParseError(f"bad platform spec {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subgroups and word evaluation

@dataclass(frozen=True)
class SubgroupGens:
    """An ordered generating list for a subgroup, plus an optional
    structural membership test (block of a matrix group, or a direct
    factor) used by attacks that need decidable membership."""

    platform: Platform
    gens: tuple[Element, ...]
    structure: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("generator list must be nonempty")
        for g in self.gens:
            if g.platform != self.platform:
                raise ValueError("generator from a different platform")

    def __len__(self) -> int:
        return len(self.gens)

    @cached_property
    def text(self) -> str:
        """The ';'-joined serialized generators, as transcripts carry them."""
        return ";".join(self.platform.serialize_element(g) for g in self.gens)

    @cached_property
    def commuting_peers(self) -> set:
        """Lists verified to commute elementwise with this one (itself when
        its own generators commute), recorded by check_commuting only after
        every generator pair has passed."""
        return set()

    @cached_property
    def letter_table(self) -> dict:
        """The payload of gens[i-1] under letter i and of its inverse under
        -i; each generator is inverted once per list, and every caller reads
        the same table."""
        table = {}
        for i, g in enumerate(self.gens, start=1):
            table[i], table[-i] = g.payload, self.platform.invert(g).payload
        return table

    @cached_property
    def left_table(self) -> dict:
        """The platform's left_mul of each letter_table payload, which
        eval_word applies right to left."""
        left_mul = self.platform.left_mul
        return {letter: left_mul(x) for letter, x in self.letter_table.items()}

    def contains(self, e: Element) -> Optional[bool]:
        """Structural membership; None when no test is available."""
        if self.structure is None:
            return None
        kind = self.structure[0]
        if kind == "factor":
            idx = self.structure[1]
            other = e.payload[1] if idx == 1 else e.payload[0]
            return len(other.letters) == 0
        if kind == "block":
            where, half = self.structure[1], self.structure[2]
            n = self.platform.n
            m = e.payload
            lo, hi = (0, half) if where == "top" else (half, n)
            for i in range(n):
                for j in range(n):
                    inside = lo <= i < hi and lo <= j < hi
                    if inside:
                        continue
                    expected = 1 if i == j else 0
                    if m[i][j] != expected:
                        return False
            return True
        return None


def parse_gens(platform: Platform, text: str, structure: Optional[str] = None) -> SubgroupGens:
    """Inverse of SubgroupGens.text; ``structure`` is the '-structure' header
    ('factor 1|2' on a direct platform or 'block top|bottom half' on a
    matrix one), if any, and every generator must lie in it."""
    elements = tuple(platform.parse_element(part) for part in text.split(";"))
    struct = None
    if structure is not None:
        parts = structure.split()
        if parts[:1] == ["factor"] and len(parts) == 2 and platform.kind == "direct":
            struct = ("factor", int_value("structure", parts[1], 1, 2))
        elif (parts[:1] == ["block"] and len(parts) == 3 and parts[1] in ("top", "bottom")
              and platform.kind == "matrix"):
            struct = ("block", parts[1], int_value("structure", parts[2], 1, platform.n - 1))
        else:
            raise ParseError(f"bad subgroup structure {structure!r} on a {platform.kind} platform")
    gens = SubgroupGens(platform, elements, structure=struct)
    if struct is not None and not all(gens.contains(g) for g in elements):
        raise ParseError(f"a generator lies outside its subgroup structure {structure!r}")
    return gens


def eval_word(gens: SubgroupGens, w: Word) -> Element:
    """Substitute gens[i-1] for letter i (inverse for negative letters):
    the last letter's payload, multiplied on the left by each earlier
    letter's, right to left."""
    if w.rank > len(gens.gens):
        raise RankError(f"word rank {w.rank} exceeds {len(gens.gens)} generators")
    platform, letters = gens.platform, w.letters
    if not letters:
        return platform.identity()
    x = gens.letter_table[letters[-1]]
    for left in map(gens.left_table.__getitem__, letters[-2::-1]):
        x = left(x)
    return Element(platform, x)


@dataclass(frozen=True)
class SubgroupExpr:
    """A subgroup element remembered as an expression over the generators."""

    gens: SubgroupGens
    expr: Word

    @property
    def value(self) -> Element:
        return eval_word(self.gens, self.expr)


# ---------------------------------------------------------------------------
# powering

def pow_with_count(platform: Platform, g: Element, n: int) -> tuple[Element, int]:
    """Left-to-right binary powering; returns (g^n, multiplications used)."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if n == 0:
        return platform.identity(), 0
    bits = bin(n)[2:]
    acc = g
    mults = 0
    for bit in bits[1:]:
        acc = platform.multiply(acc, acc)
        mults += 1
        if bit == "1":
            acc = platform.multiply(acc, g)
            mults += 1
    return acc, mults


def square_and_multiply(platform: Platform, g: Element, n: int) -> Element:
    """g^n in O(log2 n) multiplications."""
    return pow_with_count(platform, g, n)[0]


# ---------------------------------------------------------------------------
# subgroup constructors

def block_commuting_subgroups(
    n: int, p: int, count_a: int, count_b: int, rng: random.Random
) -> tuple[SubgroupGens, SubgroupGens]:
    """Complementary block-diagonal subgroups of GL(n, Z_p).

    A's generators are diag(M, I), B's are diag(I, N); every element of A
    commutes with every element of B.  Requires even n >= 4.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("need even n >= 4")
    platform = MatrixModP(n, p)
    half = n // 2
    small = MatrixModP(half, p)

    def embed(m: Element, top: bool) -> Element:
        off = 0 if top else half
        block = {(off + i, off + j): v for i, r in enumerate(m.payload) for j, v in enumerate(r)}
        return Element(platform, _identity_with(n, block))

    a_gens = tuple(embed(small.random_element(rng), True) for _ in range(count_a))
    b_gens = tuple(embed(small.random_element(rng), False) for _ in range(count_b))
    return (
        SubgroupGens(platform, a_gens, structure=("block", "top", half)),
        SubgroupGens(platform, b_gens, structure=("block", "bottom", half)),
    )


def direct_factor_subgroups(platform: DirectFreePlatform) -> tuple[SubgroupGens, SubgroupGens]:
    """The two direct factors as subgroups (both normal, commuting)."""
    gens = platform.generators()
    return (
        SubgroupGens(platform, tuple(gens[: platform.rank1]), structure=("factor", 1)),
        SubgroupGens(platform, tuple(gens[platform.rank1:]), structure=("factor", 2)),
    )


def matrix_centralizer_sample(g: Element, k: int, rng: random.Random) -> SubgroupGens:
    """Sample k invertible matrices commuting with g.

    Draws random combinations of linalg.centralizer_basis and keeps the
    invertible ones.
    """
    platform = g.platform
    if not isinstance(platform, MatrixModP):
        raise ValueError("centralizer sampling needs a matrix platform")
    n, p = platform.n, platform.p
    basis = centralizer_basis(g.payload, p)
    samples = []
    for _ in range(k):
        for attempt in range(SAMPLE_TRIES):
            coeffs = [rng.randrange(p) for _ in basis]
            vec = [sum(map(mul, coeffs, col)) % p for col in zip(*basis)]
            mat = tuple(tuple(vec[i * n:(i + 1) * n]) for i in range(n))
            if is_invertible(mat, p):
                samples.append(Element(platform, mat))
                break
        else:
            raise SamplingError("no invertible centralizer element within retry budget")
    return SubgroupGens(platform, tuple(samples))


def cyclic_subgroup(e: Element) -> SubgroupGens:
    """The subgroup generated by a single element (always commutative)."""
    return SubgroupGens(e.platform, (e,))
