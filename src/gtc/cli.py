"""Command-line entry point.

Subcommands: simulate, attack, paper-examples, montecarlo, wp-encrypt,
hom, solve.  Every command is deterministic under --seed (default: the
GTC_SEED environment variable, else 0, always echoed in the output) and
rerunning with the same seed produces byte-identical files.

Exit codes: 0 success, 1 golden/assertion mismatch, 2 usage or input
error.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

# Only the modules the argument reader and the shared helpers need are
# imported here; each command imports the layers it runs, and argparse is
# imported only for help and usage errors, so a process pays only for the
# subcommand it was given.
from .errors import GtcError, ParseError, SetupError
from .rng import stream
from .words import Word, int_value, one_field, parse_word, read_fields, serialize_word


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int_value("GTC_SEED", os.environ.get("GTC_SEED", "0"))


def _read(path: str | None, flag: str) -> str:
    """The text of the file given as ``flag``; ParseError if none or unreadable."""
    if path is None:
        raise ParseError(f"{flag} is required")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {flag[2:]}: {exc}") from None


def _given(value, default):
    """A flag's value, an explicit 0 included; ``default`` if the flag is absent."""
    return default if value is None else value


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# simulate

# the keys are the --protocol choices, in help order
_PROTOCOL_PLATFORMS = {
    "dh": {"cyclic"},
    "elgamal": {"cyclic"},
    "ko-lee": {"matrix", "direct"},
    "aag": {"free"},
    "decomp": {"matrix", "direct"},
    "twisted": {"matrix", "direct"},
    "centralizer": {"matrix"},
    "commutative": {"matrix"},
    "factor": {"matrix", "direct"},
    "semidirect": {"matrix"},
}

# the keys of attacks.ATTACK_DRIVERS, sorted: the --method choices
_ATTACK_METHODS = ("commutator-probe", "csp", "decomp-factor", "dlog", "length-based", "normal")

# the keys of problems.PROBLEM_KEYS: the solve choices
_SOLVE_PROBLEMS = ("ssp", "kp", "smp", "gpcp", "twisted", "factor")


def _build_session(args, seed: int):
    from . import protocols
    from .platforms import (CyclicModP, DirectFreePlatform, FreePlatform, MatrixModP,
                            SubgroupGens, block_commuting_subgroups, cyclic_subgroup,
                            direct_factor_subgroups)

    rng = stream(seed)
    name = args.protocol
    if args.platform is not None and args.platform not in _PROTOCOL_PLATFORMS[name]:
        raise ParseError(
            f"protocol {name} does not run on the {args.platform} platform"
        )
    if name in ("dh", "elgamal"):
        platform = CyclicModP(_given(args.p, 23), _given(args.g, 5))
        if name == "dh":
            return protocols.dh_exchange(platform, rng)
        return protocols.elgamal_session(platform, rng)
    expr_len = (args.min_len, args.max_len)
    if name == "aag":
        platform = FreePlatform(_given(args.rank, 4))
        if platform.rank < 2:
            raise SetupError("aag needs --rank >= 2, one generator for each subgroup")
        gens = platform.generators()
        half = len(gens) // 2
        A = SubgroupGens(platform, tuple(gens[:half]))
        B = SubgroupGens(platform, tuple(gens[half:]))
        return protocols.aag_exchange(platform, A, B, rng, expr_len)
    if name == "semidirect":
        platform = MatrixModP(_given(args.n, 3), _given(args.p, 1009))
        g = platform.random_element(rng)
        h = platform.random_element(rng)
        phi = protocols.inner_automorphism(platform, h)
        return protocols.semidirect_exchange(platform, g, phi, rng)
    if name == "centralizer":
        platform = MatrixModP(_given(args.n, 4), _given(args.p, 5))
        w = platform.random_element(rng)
        return protocols.centralizer_exchange(platform, w, rng)
    if name == "commutative":
        platform = MatrixModP(_given(args.n, 4), _given(args.p, 5))
        A = cyclic_subgroup(platform.random_element(rng))
        B = cyclic_subgroup(platform.random_element(rng))
        w = platform.random_element(rng)
        return protocols.commutative_subgroups_exchange(platform, w, A, B, rng, expr_len)
    # commuting-subgroup family: ko-lee, decomp, twisted, factor
    if args.platform == "direct":
        rank = _given(args.rank, 2)
        A, B = direct_factor_subgroups(DirectFreePlatform(rank, rank))
    else:
        n = _given(args.n, 4)
        if n < 4 or n % 2:
            raise SetupError(f"{name} on the matrix platform needs an even --n >= 4")
        A, B = block_commuting_subgroups(n, _given(args.p, 5), 2, 2, rng)
    platform = A.platform
    w = platform.random_element(rng)
    if name == "ko-lee":
        return protocols.ko_lee_exchange(platform, w, A, B, rng, expr_len)
    if name == "decomp":
        return protocols.decomposition_exchange(platform, w, A, B, rng, expr_len)
    if name == "twisted":
        return protocols.twisted_exchange(platform, w, A, B, rng, expr_len)
    return protocols.factorization_exchange(platform, A, B, rng, expr_len)


def cmd_simulate(args) -> int:
    from . import protocols

    seed = _resolve_seed(args)
    outcome = _build_session(args, seed)
    _write(args.out, protocols.serialize_transcript(outcome.transcript))
    payload_bytes = sum(len(r.payload) for r in outcome.transcript.records)
    print(
        f"protocol={args.protocol} seed={seed} "
        f"keys-equal={str(outcome.agreed).lower()} "
        f"records={len(outcome.transcript.records)} payload-bytes={payload_bytes}"
    )
    return 0


def cmd_attack(args) -> int:
    from . import attacks, protocols

    transcript = protocols.parse_transcript(_read(args.transcript, "--transcript"))
    driver = attacks.ATTACK_DRIVERS[args.method]
    report = driver(transcript, args.bound)
    text = attacks.format_attack_report(report, transcript.platform)
    _write(args.out, text)
    if args.out is not None:
        print(f"attack={args.method} success={str(report.success).lower()}")
    return 0


# ---------------------------------------------------------------------------
# golden worked examples

GOLDEN_PHI = "map: 1 -> 5\nmap: 2 -> 2\nmap: 3 -> 3"
GOLDEN_PHI_INV = (
    "map: 1 -> 1,2,2\nmap: 2 -> 2\nmap: 3 -> 3\n"
    "map: 4 -> 1,1\nmap: 5 -> 1\nmap: 6 -> 1,1,2"
)
GOLDEN_CIPHERTEXT = "5,5,-4,5,4,2,-6,2"


def cmd_paper_examples(_args) -> int:
    from . import homenc, tietze

    failures = []
    chain = homenc.worked_example_chain()
    phi_text = tietze.format_map(chain.phi)
    phi_inv_text = tietze.format_map(chain.phi_inv)
    print("phi:")
    print(phi_text)
    print("phi-inv:")
    print(phi_inv_text)
    if phi_text != GOLDEN_PHI:
        failures.append(f"phi mismatch:\n{phi_text}\nexpected:\n{GOLDEN_PHI}")
    if phi_inv_text != GOLDEN_PHI_INV:
        failures.append(f"phi-inv mismatch:\n{phi_inv_text}\nexpected:\n{GOLDEN_PHI_INV}")
    kp = homenc.worked_example_keypair()
    plain, moves, expected = homenc.worked_example_encryption()
    ct = homenc.scripted_encrypt(kp.public, plain, moves)
    ct_text = serialize_word(ct)
    print(f"ciphertext: {ct_text}")
    if ct_text != GOLDEN_CIPHERTEXT:
        failures.append(f"ciphertext mismatch: {ct_text} expected {GOLDEN_CIPHERTEXT}")
    decrypted = homenc.hom_decrypt(kp, ct)
    reference = homenc.eval_faithful(kp.public, plain)
    print(f"decrypted: {kp.public.faithful[0].platform.serialize_element(decrypted)}")
    if decrypted != reference:
        failures.append("decryption does not match the plaintext evaluation")
    broken = tietze.break_relators(homenc.worked_example_presentation(), 3)
    lengths = sorted(len(r) for r in broken.end.relators)
    print(f"break: generators={broken.end.n_gens} lengths={lengths}")
    if broken.end.n_gens != 6 or lengths != [3, 3, 3, 3, 4]:
        failures.append(f"relator breaking mismatch: {broken.end.n_gens} gens, {lengths}")
    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return 1
    print("all golden values match")
    return 0


def cmd_montecarlo(args) -> int:
    from . import wordenc

    seed = _resolve_seed(args)
    stats = wordenc.run_trick_treat_trials(
        args.trials, seed, len_range=(args.min_len, args.max_len)
    )
    lines = [
        f"seed: {seed}",
        f"trials: {stats.trials}",
        f"eve-accuracy: {stats.eve_rate:.4f}",
        f"legit-accuracy: {stats.legit_rate:.4f}",
        f"case-1: {stats.case_rate(1):.4f}",
        f"case-2: {stats.case_rate(2):.4f}",
        f"case-3: {stats.case_rate(3):.4f}",
    ]
    text = "\n".join(lines) + "\n"
    _write(args.out, text)
    if args.out is not None:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# word-problem encryption files

def _format_trick_private(key: wordenc.TrickTreatKey) -> str:
    from . import tietze

    lines = [f"trivial-index: {key.private.trivial_index}"]
    for idx, side in enumerate(key.private.sides, start=1):
        lines += [f"side: {idx}", f"kind: {side.kind}",
                  tietze.format_presentation(side.chain.start)]
        lines += [f"move: {tietze.format_move(move)}" for move in side.chain.moves]
    return "\n".join(lines) + "\n"


def _parse_trick_private(text: str) -> wordenc.TrickTreatPrivate:
    from . import tietze, wordenc

    head, *blocks = read_fields(text, cuts=("side",))
    trivial_index = int_value("trivial-index", one_field(head, "trivial-index"), 1, 2)
    if len(head) != 1 or [block[0][1] for block in blocks] != ["1", "2"]:
        raise ParseError("private key is 'trivial-index:', then 'side: 1' and 'side: 2'")
    sides = []
    for idx, block in enumerate(blocks, start=1):
        kind = one_field(block, "kind")
        if kind != ("trivial" if idx == trivial_index else "free"):
            raise ParseError(f"side {idx} cannot be {kind!r} at trivial-index {trivial_index}")
        pres = [f for f in block[1:] if f[0] not in ("kind", "move")]
        moves = [f for f in block if f[0] == "move"]
        start = tietze.presentation_from_fields(pres, len(text))
        if start != wordenc.seed_presentation(kind, start.n_gens):
            raise ParseError(f"side {idx} does not start on the {kind} seed")
        chain = tietze.replay_moves(start, moves)
        sides.append(wordenc.DisguisedGroup(chain, kind))
    return wordenc.TrickTreatPrivate((sides[0], sides[1]))


def _format_trick_public(publics) -> str:
    from . import tietze

    return "".join(f"presentation: {idx}\n{tietze.format_presentation(pres)}\n"
                   for idx, pres in enumerate(publics, start=1))


def _parse_trick_public(text: str):
    from . import tietze

    head, *blocks = read_fields(text, cuts=("presentation",))
    if head or [block[0][1] for block in blocks] != ["1", "2"]:
        raise ParseError("public key must contain presentations 1 and 2")
    return tuple(tietze.presentation_from_fields(block[1:], len(text)) for block in blocks)


def _read_ciphertext(path: str | None, ranks: list[int]) -> list[Word]:
    """One word line per entry of ``ranks``, over that many generators."""
    [fields] = read_fields(_read(path, "--ct"))
    if len(fields) != len(ranks) or any(key for key, _ in fields):
        raise ParseError(f"ciphertext must have {len(ranks)} word line(s)")
    return [parse_word(value, n) for (_, value), n in zip(fields, ranks)]


def cmd_wp_encrypt(args) -> int:
    from . import wordenc

    seed = _resolve_seed(args)
    rng = stream(seed)
    if args.action == "keygen":
        key = wordenc.trick_treat_keygen(args.rank, args.chain_len, rng)
        _write(args.out_pub, _format_trick_public(key.publics))
        _write(args.out_priv, _format_trick_private(key))
        print(f"seed={seed} trivial-index={key.private.trivial_index}")
        return 0
    if args.action == "encrypt":
        publics = _parse_trick_public(_read(args.pub, "--pub"))
        ct = wordenc.trick_treat_encrypt(
            args.bit, publics, (args.min_len, args.max_len), rng
        )
        _write(args.out, f"{serialize_word(ct.w1)}\n{serialize_word(ct.w2)}\n")
        print(f"seed={seed} bit={args.bit}")
        return 0
    private = _parse_trick_private(_read(args.priv, "--priv"))
    ct = wordenc.BitCiphertext(
        *_read_ciphertext(args.ct, [side.public.n_gens for side in private.sides])
    )
    if args.action == "decrypt":
        print(f"bit: {wordenc.trick_treat_decrypt(ct, private)}")
        return 0
    guess, case = wordenc.eve_emulation_attack(
        ct, wordenc.oracle_from_private(private), rng
    )
    print(f"guess: {guess}")
    print(f"case: {case}")
    return 0


# ---------------------------------------------------------------------------
# homomorphic encryption files

def _format_hom_public(pk: homenc.HomomorphicPublicKey) -> str:
    from . import tietze

    lines = ["[G]", tietze.format_presentation(pk.G),
             "[H-hat]", tietze.format_presentation(pk.H_hat),
             "[phi]", tietze.format_map(pk.phi), "[faithful]"]
    lines += [f"perm: {img.platform.serialize_element(img)}" for img in pk.faithful]
    return "\n".join(lines) + "\n"


def _sections(text: str, names: tuple[str, ...]) -> list[list]:
    """The fields of each '[name]' section; all must appear once, in order."""
    cuts = tuple(f"[{name}]" for name in names)
    head, *blocks = read_fields(text, cuts)
    if head or [block[0][0] for block in blocks] != list(cuts):
        raise ParseError(f"expected the sections {' '.join(cuts)}, in this order")
    return [block[1:] for block in blocks]


def _parse_hom_public(text: str) -> homenc.HomomorphicPublicKey:
    from . import homenc, tietze
    from .platforms import PermutationPlatform

    g, h_hat, maps, perms = _sections(text, ("G", "H-hat", "phi", "faithful"))
    G = tietze.presentation_from_fields(g, len(text))
    H_hat = tietze.presentation_from_fields(h_hat, len(text))
    phi = tietze.parse_map(maps, H_hat.n_gens)
    faithful = []
    for key, value in perms:
        if key != "perm":
            raise ParseError(f"expected a 'perm:' line, got {key!r}: {value!r}")
        faithful.append(PermutationPlatform(len(value.split())).parse_element(value))
    if phi.from_gens != G.n_gens or len(faithful) != G.n_gens:
        raise ParseError("[phi] and [faithful] need one line per generator of G")
    if len({img.platform for img in faithful}) != 1:
        raise ParseError("the [faithful] permutations must share one degree")
    return homenc.HomomorphicPublicKey(phi, G, H_hat, tuple(faithful))


def _format_hom_private(kp: homenc.HomomorphicKeyPair) -> str:
    from . import tietze

    lines = ["[G]", tietze.format_presentation(kp.private.chain.start), "[chain]"]
    lines += [f"move: {tietze.format_move(move)}" for move in kp.private.chain.moves]
    lines.append("[discarded]")
    indices = " ".join(str(i) for i in sorted(kp.private.discarded))
    lines.append(f"indices: {indices if indices else '-'}")
    return "\n".join(lines) + "\n"


def _parse_hom_private(text: str, public: homenc.HomomorphicPublicKey) -> homenc.HomomorphicKeyPair:
    from . import homenc, tietze

    g, moves, discarded = _sections(text, ("G", "chain", "discarded"))
    G = tietze.presentation_from_fields(g, len(text))
    chain = tietze.replay_moves(G, moves)
    if [key for key, _ in discarded] != ["indices"]:
        raise ParseError("[discarded] must hold one 'indices:' line")
    raw = discarded[0][1]
    last = len(chain.end.relators) - 1
    indices = frozenset(int_value("indices", v, 0, last) for v in raw.split() if raw != "-")
    # an equal phi has the same target alphabet, so H-hat is matched whole
    kept = tuple(r for i, r in enumerate(chain.end.relators) if i not in indices)
    if G != public.G or chain.phi != public.phi or kept != public.H_hat.relators:
        raise ParseError("private key does not match the public key")
    return homenc.HomomorphicKeyPair.of(public, chain, indices)


def cmd_hom(args) -> int:
    from . import homenc

    seed = _resolve_seed(args)
    rng = stream(seed)
    if args.action == "keygen":
        if args.group == "demo":
            G = homenc.worked_example_presentation()
            faithful = homenc.worked_example_faithful()
        else:
            G = homenc.a5_presentation()
            faithful = homenc.a5_faithful()
        kp = homenc.hom_keygen(G, faithful, args.chain_len, args.discard, rng)
        _write(args.out_pub, _format_hom_public(kp.public))
        _write(args.out_priv, _format_hom_private(kp))
        print(f"seed={seed} generators={kp.private.H.n_gens} "
              f"relators={len(kp.private.H.relators)} discarded={len(kp.private.discarded)}")
        return 0
    pk = _parse_hom_public(_read(args.pub, "--pub"))
    if args.action == "encrypt":
        w = parse_word(args.word, pk.G.n_gens)
        ct = homenc.hom_encrypt(pk, w, args.steps, rng)
        _write(args.out, serialize_word(ct) + "\n")
        if args.out is not None:
            print(f"seed={seed} ciphertext-length={len(ct)}")
        return 0
    kp = _parse_hom_private(_read(args.priv, "--priv"), pk)
    [ct] = _read_ciphertext(args.ct, [pk.H_hat.n_gens])
    result = homenc.hom_decrypt(kp, ct)
    print(f"plaintext: {result.platform.serialize_element(result)}")
    return 0


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args) -> int:
    from . import problems

    inst = problems.parse_instance(_read(args.instance, "--instance"))
    if inst.problem != args.problem:
        raise ParseError(f"instance is a {inst.problem} problem, not {args.problem}")
    sys.stdout.write(problems.solve(inst, _given(args.bound, inst.bound)))
    return 0


# ---------------------------------------------------------------------------
# parser

# the flags wp-encrypt and hom share, in their order
_FILE_FLAGS = [("--pub", {}), ("--priv", {}), ("--ct", {}), ("--out", {}),
               ("--out-pub", {}), ("--out-priv", {}), ("--seed", {"type": int})]

# each command's help line, its arguments as (flag, add_argument kwargs) in
# help order, and its function
_COMMANDS = {
    "simulate": ("run a seeded protocol session", [
        ("--protocol", {"required": True, "choices": list(_PROTOCOL_PLATFORMS)}),
        ("--platform", {"choices": ["matrix", "direct", "free", "cyclic"]}),
        ("--p", {"type": int}), ("--g", {"type": int}), ("--n", {"type": int}),
        ("--rank", {"type": int}),
        ("--min-len", {"type": int, "default": 8}),
        ("--max-len", {"type": int, "default": 16}),
        ("--seed", {"type": int}), ("--out", {})], cmd_simulate),
    "attack": ("run an attack against a transcript file", [
        ("--transcript", {"required": True}),
        ("--method", {"required": True, "choices": _ATTACK_METHODS}),
        ("--bound", {"type": int, "default": 1000}), ("--out", {})], cmd_attack),
    "paper-examples": ("replay the worked examples against the embedded golden values",
                       [], cmd_paper_examples),
    "montecarlo": ("trick-and-treat trial statistics", [
        ("--trials", {"type": int, "required": True}),
        ("--min-len", {"type": int, "default": 16}),
        ("--max-len", {"type": int, "default": 24}),
        ("--seed", {"type": int}), ("--out", {})], cmd_montecarlo),
    "wp-encrypt": ("word-problem bit encryption", [
        ("action", {"choices": ["keygen", "encrypt", "decrypt", "attack"]}),
        ("--rank", {"type": int, "default": 2}),
        ("--chain-len", {"type": int, "default": 6}),
        ("--bit", {"type": int, "choices": [0, 1], "default": 1}),
        ("--min-len", {"type": int, "default": 16}),
        ("--max-len", {"type": int, "default": 24}), *_FILE_FLAGS], cmd_wp_encrypt),
    "hom": ("homomorphic encryption over presentations", [
        ("action", {"choices": ["keygen", "encrypt", "decrypt"]}),
        ("--group", {"choices": ["demo", "a5"], "default": "demo"}),
        ("--chain-len", {"type": int, "default": 8}),
        ("--discard", {"type": int, "default": 1}),
        ("--word", {"default": "1,2"}),
        ("--steps", {"type": int, "default": 4}), *_FILE_FLAGS], cmd_hom),
    "solve": ("bounded deciders", [
        ("problem", {"choices": _SOLVE_PROBLEMS}),
        ("--instance", {"required": True}),
        ("--bound", {"type": int})], cmd_solve),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``: it prints the help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="gtc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, rows, func) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for flag, kwargs in rows:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func)
    return parser


def _lookups(name: str, rows: list, func) -> tuple:
    """A command's flags and positionals as {token: (dest, kwargs)} and
    [(dest, kwargs)], its required dests, and its namespace defaults."""
    dests = [(flag.lstrip("-").replace("-", "_"), kwargs) for flag, kwargs in rows]
    return ({flag: d for (flag, _), d in zip(rows, dests) if flag[0] == "-"},
            [d for (flag, _), d in zip(rows, dests) if flag[0] != "-"],
            {dest for dest, kwargs in dests if kwargs.get("required")},
            {"command": name, "func": func} | {d: kw.get("default") for d, kw in dests})


_READER = {name: _lookups(name, rows, func) for name, (_, rows, func) in _COMMANDS.items()}


def _read_argv(argv):
    """The namespace argparse gives ``argv``, or None where argparse must
    speak or read a form this does not: help, a usage error, '--',
    '--flag=value', an abbreviation, or a value starting with '-' other than
    a negative integer."""
    if not argv or argv[0] not in _READER:
        return None
    flags, positionals, required, defaults = _READER[argv[0]]
    values, rest, missing = dict(defaults), list(positionals), set(required)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in flags:
            dest, kwargs = flags[token]
            token = next(tokens, "-")  # a flag with no value is a usage error
        elif rest:
            dest, kwargs = rest.pop(0)
        else:
            return None
        if token[:1] == "-" and not token[1:].isdecimal():
            return None
        try:
            value = kwargs.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
        missing.discard(dest)
    return None if rest or missing else SimpleNamespace(**values)


# the least value of each size and count flag; a smaller one is a usage error
_LEAST = {"bound": 0, "chain_len": 0, "discard": 0, "steps": 0, "trials": 1,
          "p": 1, "g": 1, "n": 1, "rank": 1}


def _check_least(args) -> None:
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ParseError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        _check_least(args)
        return args.func(args)
    except (GtcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
