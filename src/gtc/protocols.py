"""Two-party key-exchange and public-key protocol sessions.

Every protocol is a deterministic, seedable session machine: it consumes
an explicit RNG stream, produces an ordered Transcript of the public
messages, and returns both parties' keys plus the private material
(retained for test introspection only; attacks never see it).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .errors import ParseError, SetupError
from .platforms import (
    CyclicModP,
    Element,
    MatrixModP,
    Platform,
    SubgroupExpr,
    SubgroupGens,
    eval_word,
    matrix_centralizer_sample,
    platform_from_spec,
    square_and_multiply,
)
from .words import random_reduced_word, read_fields

# ---------------------------------------------------------------------------
# transcripts

@dataclass(frozen=True)
class TranscriptRecord:
    seq: int
    sender: str
    label: str
    payload: str


@dataclass
class Transcript:
    """The public channel: ordered records plus the public setup data."""

    protocol: str
    platform: Platform
    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def add(self, sender: str, label: str, element: Element) -> None:
        self.records.append(
            TranscriptRecord(
                len(self.records) + 1,
                sender,
                label,
                self.platform.serialize_element(element),
            )
        )

    def find(self, label: str) -> str:
        for r in self.records:
            if r.label == label:
                return r.payload
        raise ParseError(f"transcript has no '{label}' record")

    def header(self, key: str) -> str:
        if key not in self.meta:
            raise ParseError(f"transcript has no '{key}' header")
        return self.meta[key]

    def find_all(self, prefix: str) -> list[str]:
        return [r.payload for r in self.records if r.label.startswith(prefix)]


def serialize_transcript(t: Transcript) -> str:
    lines = [f"# protocol: {t.protocol}", f"# platform: {t.platform.spec()}"]
    for key in sorted(t.meta):
        lines.append(f"# {key}: {t.meta[key]}")
    for r in t.records:
        lines.append(f"{r.seq} {r.sender} {r.label} {r.payload}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> Transcript:
    """Inverse of serialize_transcript: '# key: value' headers, then
    'seq sender label payload' records numbered from 1."""
    meta: dict = {}
    records = []
    [fields] = read_fields(text)
    for key, value in fields:
        if key.startswith("#"):
            name = key[1:].strip()
            if name in meta:
                raise ParseError(f"duplicate '{name}' header")
            meta[name] = value
            continue
        parts = value.split(" ", 3)
        if key or len(parts) != 4:
            raise ParseError(f"bad record line {value!r}")
        if parts[0] != str(len(records) + 1):
            raise ParseError("record sequence numbers must increase from 1")
        records.append(TranscriptRecord(len(records) + 1, *parts[1:]))
    if "protocol" not in meta or "platform" not in meta:
        raise ParseError("transcript is missing protocol/platform headers")
    platform = platform_from_spec(meta.pop("platform"))
    return Transcript(meta.pop("protocol"), platform, meta, records)


def _transcript(protocol: str, platform: Platform, w: Optional[Element] = None,
                **subgroups: SubgroupGens) -> Transcript:
    """A new transcript carrying the public w and the named generator lists."""
    t = Transcript(protocol, platform)
    if w is not None:
        t.meta["w"] = platform.serialize_element(w)
    for name, gens in subgroups.items():
        t.meta[name] = gens.text
        if gens.structure is not None:
            t.meta[f"{name}-structure"] = " ".join(str(v) for v in gens.structure)
    return t


# ---------------------------------------------------------------------------
# outcomes and sampling

@dataclass
class SessionOutcome:
    transcript: Transcript
    key_alice: Element
    key_bob: Element
    private_state: dict

    @property
    def agreed(self) -> bool:
        return self.key_alice == self.key_bob


def _draw(rng: random.Random, expr_len: tuple[int, int], **subgroups: SubgroupGens) -> dict:
    """One private expression per keyword, drawn in keyword order: a random
    reduced word of a length in ``expr_len`` over that generator list."""
    return {name: SubgroupExpr(gens, random_reduced_word(len(gens), expr_len, rng))
            for name, gens in subgroups.items()}


def check_commuting(a: SubgroupGens, b: Optional[SubgroupGens] = None) -> None:
    """Elementwise commutation of a with b, verified on generator pairs;
    without b, of a's generators with each other.  A pass is recorded in
    a.commuting_peers and not checked again; a failure raises every time."""
    peer = a if b is None else b
    if peer in a.commuting_peers:
        return
    pf = a.platform
    pairs = combinations(a.gens, 2) if b is None else product(a.gens, b.gens)
    for x, y in pairs:
        if pf.multiply(x, y) != pf.multiply(y, x):
            raise SetupError("generators do not commute elementwise")
    a.commuting_peers.add(peer)


# ---------------------------------------------------------------------------
# cyclic-group protocols

def _exponent_order(platform: CyclicModP) -> int:
    """Order of g, the exclusive bound of the secret exponents 1..order-1;
    SetupError when g has order 1 and no such exponent exists."""
    order = platform.order_of_g
    if order < 2:
        raise SetupError(f"generator {platform.g} has order 1 mod {platform.p}")
    return order


def dh_exchange(
    platform: CyclicModP,
    rng: random.Random,
    a: Optional[int] = None,
    b: Optional[int] = None,
) -> SessionOutcome:
    """Classic two-pass exchange over the cyclic platform."""
    order = _exponent_order(platform)
    if a is None:
        a = rng.randrange(1, order)
    if b is None:
        b = rng.randrange(1, order)
    g = platform.generators()[0]
    ga = square_and_multiply(platform, g, a)
    gb = square_and_multiply(platform, g, b)
    t = Transcript("dh", platform)
    t.add("Alice", "g^a", ga)
    t.add("Bob", "g^b", gb)
    key_alice = square_and_multiply(platform, gb, a)
    key_bob = square_and_multiply(platform, ga, b)
    return SessionOutcome(t, key_alice, key_bob, {"a": a, "b": b})


def elgamal_encrypt(
    platform: CyclicModP, pk: Element, m: Element, rng: random.Random
) -> tuple[Element, Element]:
    """Returns the two-element ciphertext (m * pk^b, g^b)."""
    b = rng.randrange(1, _exponent_order(platform))
    g = platform.generators()[0]
    return (
        platform.multiply(m, square_and_multiply(platform, pk, b)),
        square_and_multiply(platform, g, b),
    )


def elgamal_decrypt(
    platform: CyclicModP, a: int, ciphertext: tuple[Element, Element]
) -> Element:
    c1, c2 = ciphertext
    mask = square_and_multiply(platform, c2, a)
    return platform.multiply(c1, platform.invert(mask))


def elgamal_session(platform: CyclicModP, rng: random.Random) -> SessionOutcome:
    """Keygen + encrypt + decrypt roundtrip; keys agree iff decryption is
    correct (key_bob is the plaintext, key_alice the decryption)."""
    a = rng.randrange(1, _exponent_order(platform))
    g = platform.generators()[0]
    pk = square_and_multiply(platform, g, a)
    m = platform.random_element(rng)
    c1, c2 = elgamal_encrypt(platform, pk, m, rng)
    t = Transcript("elgamal", platform)
    t.add("Alice", "pk", pk)
    t.add("Bob", "m*c^b", c1)
    t.add("Bob", "g^b", c2)
    recovered = elgamal_decrypt(platform, a, (c1, c2))
    return SessionOutcome(t, recovered, m, {"a": a, "m": m})


# ---------------------------------------------------------------------------
# conjugacy and decomposition family

def _sandwich(t: Transcript, w: Element, alice: tuple, bob: tuple,
              secrets: dict) -> SessionOutcome:
    """The x w y exchange.  ``alice`` is (label, x1, y1) and ``bob`` is
    (label, x2, y2): Alice publishes x1 w y1 and Bob x2 w y2 under those
    record labels.  Each key is the party's own pair around the peer's
    message, so the keys x1 x2 w y2 y1 and x2 x1 w y1 y2 agree when x1
    commutes with x2 and y1 with y2."""
    pf = t.platform

    def around(x: Element, m: Element, y: Element) -> Element:
        return pf.multiply(pf.multiply(x, m), y)

    (label_a, x1, y1), (label_b, x2, y2) = alice, bob
    m_alice, m_bob = around(x1, w, y1), around(x2, w, y2)
    t.add("Alice", label_a, m_alice)
    t.add("Bob", label_b, m_bob)
    return SessionOutcome(t, around(x1, m_bob, y1), around(x2, m_alice, y2), secrets)


def ko_lee_exchange(
    platform: Platform,
    w: Element,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """Conjugation exchange: transcript carries w^a and w^b, key is w^(ab).
    This is the x w y exchange on the pairs (a^-1, a) and (b^-1, b)."""
    check_commuting(A, B)
    secrets = _draw(rng, expr_len, a=A, b=B)
    a, b = (e.value for e in secrets.values())
    t = _transcript("ko-lee", platform, w, A=A, B=B)
    inv = platform.invert
    return _sandwich(t, w, ("w^a", inv(a), a), ("w^b", inv(b), b), secrets)


def aag_exchange(
    platform: Platform,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """Commutator exchange; works in any non-abelian platform, no
    commuting-subgroup requirement.  Secrets are expressions over the
    public generator lists, never bare elements."""
    secrets = _draw(rng, expr_len, x=A, y=B)
    ex, ey = secrets["x"], secrets["y"]
    x, y = ex.value, ey.value
    x_inv, y_inv = platform.invert(x), platform.invert(y)
    t = _transcript("aag", platform, A=A, B=B)
    b_conj = [platform.multiply(platform.multiply(x_inv, bj), x) for bj in B.gens]
    for j, el in enumerate(b_conj, start=1):
        t.add("Alice", f"b{j}^x", el)
    a_conj = [platform.multiply(platform.multiply(y_inv, ai), y) for ai in A.gens]
    for i, el in enumerate(a_conj, start=1):
        t.add("Bob", f"a{i}^y", el)
    # Alice: x(a_1^y, ...) = x^y, then multiply by x^-1 on the left.
    x_y = eval_word(SubgroupGens(platform, tuple(a_conj)), ex.expr)
    key_alice = platform.multiply(x_inv, x_y)
    # Bob: y(b_1^x, ...) = y^x, multiply by y^-1 on the left, invert.
    y_x = eval_word(SubgroupGens(platform, tuple(b_conj)), ey.expr)
    key_bob = platform.invert(platform.multiply(y_inv, y_x))
    return SessionOutcome(t, key_alice, key_bob, secrets)


def decomposition_exchange(
    platform: Platform,
    w: Element,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """Both parties sandwich the public w; key is a1 b1 w b2 a2."""
    check_commuting(A, B)
    secrets = _draw(rng, expr_len, a1=A, a2=A, b1=B, b2=B)
    a1, a2, b1, b2 = (e.value for e in secrets.values())
    t = _transcript("decomp", platform, w, A=A, B=B)
    return _sandwich(t, w, ("a1*w*a2", a1, a2), ("b1*w*b2", b1, b2), secrets)


def twisted_exchange(
    platform: Platform,
    w: Element,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """Each party mixes one element from each subgroup; key is b2 a1 w b1 a2."""
    check_commuting(A, B)
    secrets = _draw(rng, expr_len, a1=A, b1=B, b2=B, a2=A)
    a1, b1, b2, a2 = (e.value for e in secrets.values())
    t = _transcript("twisted", platform, w, A=A, B=B)
    return _sandwich(t, w, ("a1*w*b1", a1, b1), ("b2*w*a2", b2, a2), secrets)


def centralizer_exchange(
    platform: MatrixModP,
    w: Element,
    rng: random.Random,
    cent_gens: int = 3,
    expr_len: tuple[int, int] = (4, 8),
    a1: Optional[Element] = None,
) -> SessionOutcome:
    """Each party publishes a subgroup of the centralizer of its first
    secret; the peer draws its second secret from that published subgroup."""
    if a1 is None:
        a1 = platform.random_element(rng)
    A_pub = matrix_centralizer_sample(a1, cent_gens, rng)
    b2 = platform.random_element(rng)
    B_pub = matrix_centralizer_sample(b2, cent_gens, rng)
    t = _transcript("centralizer", platform, w)
    for sender, name, pub in (("Alice", "centA", A_pub), ("Bob", "centB", B_pub)):
        for i, el in enumerate(pub.gens, start=1):
            t.add(sender, f"{name}{i}", el)
    drawn = _draw(rng, expr_len, a2=B_pub, b1=A_pub)  # each from the peer's subgroup
    a2, b1 = (e.value for e in drawn.values())
    return _sandwich(t, w, ("a1*w*a2", a1, a2), ("b1*w*b2", b1, b2),
                     {"a1": a1, **drawn, "b2": b2})


def commutative_subgroups_exchange(
    platform: Platform,
    w: Element,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """A and B are each internally commutative (they need not commute with
    each other); key is a1 a2 w b2 b1."""
    check_commuting(A)
    check_commuting(B)
    secrets = _draw(rng, expr_len, a1=A, b1=B, a2=A, b2=B)
    a1, b1, a2, b2 = (e.value for e in secrets.values())
    t = _transcript("commutative", platform, w, A=A, B=B)
    return _sandwich(t, w, ("a1*w*b1", a1, b1), ("a2*w*b2", a2, b2), secrets)


def factorization_exchange(
    platform: Platform,
    A: SubgroupGens,
    B: SubgroupGens,
    rng: random.Random,
    expr_len: tuple[int, int] = (8, 16),
) -> SessionOutcome:
    """Products of one element from each commuting subgroup; key a2 a1 b1 b2."""
    check_commuting(A, B)
    secrets = _draw(rng, expr_len, a1=A, b1=B, a2=A, b2=B)
    a1, b1, a2, b2 = (e.value for e in secrets.values())
    m_alice = platform.multiply(a1, b1)
    m_bob = platform.multiply(a2, b2)
    t = _transcript("factor", platform, A=A, B=B)
    t.add("Alice", "a1*b1", m_alice)
    t.add("Bob", "a2*b2", m_bob)
    key_alice = platform.multiply(platform.multiply(b1, m_bob), a1)
    key_bob = platform.multiply(platform.multiply(a2, m_alice), b2)
    return SessionOutcome(t, key_alice, key_bob, secrets)


# ---------------------------------------------------------------------------
# semidirect-product exchange

class InnerAutomorphism:
    """Conjugation by a fixed invertible h: e -> h^-1 e h."""

    def __init__(self, platform: Platform, h: Element) -> None:
        try:
            platform.invert(h)
        except ValueError:
            raise SetupError("h must be invertible") from None
        self.platform = platform
        self.h = h

    def semidirect_powers(self, g: Element):
        """power(m) -> (first component of (g, phi)^m, phi^m).

        The first component is h^-m (hg)^m: two square-and-multiply runs,
        one inversion and one product, so O(log m) group operations.
        phi^m is conjugation by the h^m computed on the way.  Warns when h
        and hg commute, because the shared key is then the product of the
        two transmissions.
        """
        pf, h = self.platform, self.h
        hg = pf.multiply(h, g)
        if pf.multiply(h, hg) == pf.multiply(hg, h):
            warnings.warn(
                "h and hg commute; the shared key is the product of the two "
                "transmissions and offers no security",
                stacklevel=3,
            )

        def power(m: int):
            hm = square_and_multiply(pf, h, m)
            hm_inv = pf.invert(hm)
            first = pf.multiply(hm_inv, square_and_multiply(pf, hg, m))
            return first, lambda e: pf.multiply(pf.multiply(hm_inv, e), hm)

        return power


def inner_automorphism(platform: Platform, h: Element) -> InnerAutomorphism:
    """Endomorphism spec for conjugation by h; SetupError if h is singular."""
    return InnerAutomorphism(platform, h)


def semidirect_exchange(
    platform: Platform,
    g: Element,
    phi: InnerAutomorphism,
    rng: random.Random,
    m: Optional[int] = None,
    n: Optional[int] = None,
) -> SessionOutcome:
    """Exchange over the cyclic extension of the platform by phi; the
    secret exponents m and n are drawn from 1..50 unless given.

    Only the first components of the semidirect pairs are ever placed on
    the transcript; the automorphism powers stay private by construction.
    """
    if m is None:
        m = rng.randint(1, 50)
    if n is None:
        n = rng.randint(1, 50)
    power = phi.semidirect_powers(g)
    a_msg, phi_m = power(m)
    b_msg, phi_n = power(n)
    t = Transcript("semidirect", platform)
    t.meta["g"] = platform.serialize_element(g)
    t.meta["h"] = platform.serialize_element(phi.h)
    t.add("Alice", "first-A", a_msg)
    t.add("Bob", "first-B", b_msg)
    key_alice = platform.multiply(phi_m(b_msg), a_msg)
    key_bob = platform.multiply(phi_n(a_msg), b_msg)
    return SessionOutcome(t, key_alice, key_bob, {"m": m, "n": n})
