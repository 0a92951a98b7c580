"""The key-file boundary: every text format goes through words.read_fields.

Three kinds of checks: arbitrary text into every reader returns or raises
ParseError; parse after format is the identity; and malformed files
given to the CLI exit 0 or exit 2 with 'error: ...', never a traceback.
"""

import random
import signal
import time
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import cli, homenc, wordenc
from gtc.errors import ParseError
from gtc.platforms import (block_commuting_subgroups, direct_factor_subgroups, parse_gens,
                           platform_from_spec)
from gtc.problems import parse_instance
from gtc.protocols import parse_transcript, serialize_transcript
from gtc.tietze import (
    TietzeChain,
    format_map,
    format_move,
    format_presentation,
    parse_map,
    parse_move,
    presentation,
    presentation_from_fields,
    random_chain,
    replay_moves,
)
from gtc.words import int_value, one_field, random_word, read_fields

# --- the reader ---------------------------------------------------------------


def test_read_fields_keys_sections_and_cuts():
    text = "a: 1\n\n  [S]  \nb : x: y\nside: 2\nt1 1,2\n# c: 3\n"
    assert read_fields(text) == [[("a", "1"), ("[S]", ""), ("b", "x: y"),
                                  ("side", "2"), ("", "t1 1,2"), ("# c", "3")]]
    assert read_fields(text, cuts=("[S]", "side"), comments=True) == [
        [("a", "1")], [("[S]", ""), ("b", "x: y")], [("side", "2"), ("", "t1 1,2")]]


def test_one_field_and_int_value():
    fields = [("a", "1"), ("b", "2"), ("b", "3")]
    assert one_field(fields, "a") == "1"
    assert one_field(fields, "c", optional=True) is None
    for key in ("b", "c"):
        with pytest.raises(ParseError):
            one_field(fields, key)
    assert int_value("n", " 7 ", lo=0) == 7
    for value, lo, hi in (("x", None, None), ("-1", 0, None), ("3", 1, 2)):
        with pytest.raises(ParseError):
            int_value("n", value, lo, hi)


# --- arbitrary text into every reader ----------------------------------------------

KEYS = ["generators", "relator", "map", "perm", "move", "side", "kind", "trivial-index",
        "presentation", "indices", "problem", "platform", "rank", "bound", "elem",
        "target", "u", "v", "a", "b", "phi", "psi", "agens", "bgens", "source",
        "# protocol", "# platform", "# A", "# A-structure"]
# values stay short: a long digit run could name a presentation with millions
# of generators, which the move replay would then allocate
VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["e", "-", "1,2", "1,-2,3", "1 -> 2", "2 -> e", "t1 1", "t3 swap 1 2",
                     "t4 1 inv", "trivial", "free", "free 2", "cyclic 23 5", "perm 3",
                     "matrix 2 5", "2 1 3", "1 0 0 1", "1|e", "kp", "block top 2",
                     "factor 1", "1;2", "1 Alice g^a 5"]),
    st.text(alphabet="0123456789e,;-> |x:", max_size=3),
)
LINE = st.one_of(
    st.tuples(st.sampled_from(KEYS), VALUES).map(lambda kv: f"{kv[0]}: {kv[1]}"),
    st.sampled_from(["[G]", "[H-hat]", "[phi]", "[faithful]", "[chain]", "[discarded]",
                     "1,2", "e", "t1 1,2", "1 Alice x 5", "2 Bob y 3", "", "#",
                     "1|e;e|2", "factor 1", "block top 2", "1 0 0 0 0 1 0 0 0 0 1 2 0 0 0 1"]),
    st.text(max_size=12),
)
TEXT = st.one_of(st.lists(LINE, max_size=14).map("\n".join), st.text(max_size=60))

GENS_PLATFORMS = (platform_from_spec("matrix 4 5"), platform_from_spec("direct 2 2"))


def _read_gens(text):
    """The first line as a generator list and the second, if any, as its
    structure, on each platform that has subgroup structures."""
    lines = text.split("\n")
    for platform in GENS_PLATFORMS:
        try:
            parse_gens(platform, lines[0], lines[1] if len(lines) > 1 else None)
        except ParseError:
            pass


_HOM = homenc.hom_keygen(homenc.worked_example_presentation(),
                         homenc.worked_example_faithful(), 3, 1, random.Random(5))

READERS = {
    "presentation": lambda text: presentation_from_fields(read_fields(text)[0], len(text)),
    "transcript": parse_transcript,
    "instance": parse_instance,
    "gens": _read_gens,
    "map": lambda text: parse_map(read_fields(text)[0], 3),
    "move": lambda text: parse_move(text, 3),
    "trick-public": cli._parse_trick_public,
    "trick-private": cli._parse_trick_private,
    "hom-public": cli._parse_hom_public,
    "hom-private": lambda text: cli._parse_hom_private(text, _HOM.public),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(text=TEXT)
def test_every_reader_returns_or_raises_parse_error(name, text):
    try:
        READERS[name](text)
    except ParseError:
        pass


# --- parse after format is the identity ----------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), protocol=st.sampled_from(tuple(cli._PROTOCOL_PLATFORMS)))
def test_transcript_roundtrip(seed, protocol, tmp_path_factory):
    out = tmp_path_factory.mktemp("t") / "t.txt"
    assert cli.main(["simulate", "--protocol", protocol, "--seed", str(seed),
                     "--min-len", "1", "--max-len", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert serialize_transcript(parse_transcript(text)) == text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4), count=st.integers(0, 4))
def test_presentation_chain_move_and_map_roundtrip(seed, n, count):
    rng = random.Random(seed)
    p = presentation(n, [random_word(n, (0, 6), rng).letters for _ in range(count)])
    text = format_presentation(p)
    assert presentation_from_fields(read_fields(text)[0], len(text)) == p
    chain = random_chain(TietzeChain.of(p), 6, rng)
    assert replay_moves(p, [("move", format_move(m)) for m in chain.moves]) == chain
    current = p
    for move in chain.moves:
        assert parse_move(format_move(move), current.n_gens) == move
        current = move.apply(current)[0]
    for m in (chain.phi, chain.phi_inv):
        assert parse_map(read_fields(format_map(m))[0], m.to_gens) == m


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), rank=st.integers(2, 3), chain_len=st.integers(0, 6))
def test_trick_treat_key_roundtrip(seed, rank, chain_len):
    key = wordenc.trick_treat_keygen(rank, chain_len, random.Random(seed))
    public_text = cli._format_trick_public(key.publics)
    private_text = cli._format_trick_private(key)
    assert cli._parse_trick_public(public_text) == key.publics
    assert cli._parse_trick_private(private_text) == key.private
    again = wordenc.TrickTreatKey(cli._parse_trick_private(private_text))
    assert cli._format_trick_private(again) == private_text


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), group=st.sampled_from(["demo", "a5"]),
       chain_len=st.integers(0, 6), discard=st.integers(0, 2))
def test_hom_key_roundtrip(seed, group, chain_len, discard):
    if group == "demo":
        G, faithful = homenc.worked_example_presentation(), homenc.worked_example_faithful()
    else:
        G, faithful = homenc.a5_presentation(), homenc.a5_faithful()
    discard = discard if chain_len else 0
    kp = homenc.hom_keygen(G, faithful, chain_len, discard, random.Random(seed))
    public = cli._parse_hom_public(cli._format_hom_public(kp.public))
    assert public == kp.public
    assert cli._parse_hom_private(cli._format_hom_private(kp), public) == kp


@pytest.mark.parametrize("platform", GENS_PLATFORMS, ids=lambda pf: pf.kind)
def test_subgroup_gens_roundtrip_and_structure(platform):
    if platform.kind == "matrix":
        A, B = block_commuting_subgroups(4, 5, 2, 2, random.Random(3))
    else:
        A, B = direct_factor_subgroups(platform)
    structures = [" ".join(map(str, gens.structure)) for gens in (A, B)]
    for gens, structure in zip((A, B), structures):
        assert parse_gens(platform, gens.text, structure) == gens
    # each list's generators lie outside the other's block or factor
    for gens, structure in zip((A, B), reversed(structures)):
        with pytest.raises(ParseError, match="outside its subgroup structure"):
            parse_gens(platform, gens.text, structure)


# --- the CLI on malformed files -------------------------------------------------------

def run(argv, capsys):
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _exits_2(argv, capsys, message=""):
    code, out, err = run(argv, capsys)
    assert code == 2, (argv, out, err)
    assert err.startswith("error: "), err
    assert message in err
    return err


@pytest.fixture
def files(tmp_path, capsys):
    """Valid files of every CLI format, written by the CLI itself."""
    f = {name: tmp_path / name for name in
         ("dh", "kolee", "decomp", "tpub", "tpriv", "tct", "hpub", "hpriv", "hct")}
    for argv in (
        ["simulate", "--protocol", "dh", "--seed", "1", "--out", f["dh"]],
        ["simulate", "--protocol", "ko-lee", "--seed", "3", "--min-len", "1",
         "--max-len", "2", "--out", f["kolee"]],
        ["simulate", "--protocol", "decomp", "--seed", "1", "--min-len", "1",
         "--max-len", "2", "--out", f["decomp"]],
        ["wp-encrypt", "keygen", "--seed", "4", "--out-pub", f["tpub"],
         "--out-priv", f["tpriv"]],
        ["wp-encrypt", "encrypt", "--seed", "5", "--pub", f["tpub"], "--out", f["tct"]],
        ["hom", "keygen", "--seed", "3", "--out-pub", f["hpub"], "--out-priv", f["hpriv"]],
        ["hom", "encrypt", "--seed", "8", "--pub", f["hpub"], "--out", f["hct"]],
    ):
        assert run(argv, capsys)[0] == 0
    return f


def _commands(f):
    """A command reading each file, keyed by the file's name."""
    return {
        "dh": ["attack", "--transcript", f["dh"], "--method", "dlog", "--bound", "30"],
        "kolee": ["attack", "--transcript", f["kolee"], "--method", "csp", "--bound", "2"],
        "decomp": ["attack", "--transcript", f["decomp"], "--method", "decomp-factor",
                   "--bound", "2"],
        "tpub": ["wp-encrypt", "encrypt", "--pub", f["tpub"], "--seed", "1"],
        "tpriv": ["wp-encrypt", "decrypt", "--priv", f["tpriv"], "--ct", f["tct"]],
        "tct": ["wp-encrypt", "decrypt", "--priv", f["tpriv"], "--ct", f["tct"]],
        "hpub": ["hom", "decrypt", "--pub", f["hpub"], "--priv", f["hpriv"], "--ct", f["hct"]],
        "hpriv": ["hom", "decrypt", "--pub", f["hpub"], "--priv", f["hpriv"], "--ct", f["hct"]],
        "hct": ["hom", "decrypt", "--pub", f["hpub"], "--priv", f["hpriv"], "--ct", f["hct"]],
    }


JUNK = ["x", "", "-1", "0", "99", "1 2", "a: b", "[G]", "map: 9 -> 1", "perm: 1 2", ":",
        "e", "-", "side: 3", "2a", "1,2,", "t9 1", "# A-structure: blob top 2"]


def _mutate(lines, rng):
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines.insert(i, rng.choice(JUNK))
    else:
        key, colon, value = lines[i].partition(":")
        tokens = (value if colon else key).split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(JUNK)
        lines[i] = f"{key}: {' '.join(tokens)}" if colon else " ".join(tokens)
    return lines


def test_mutation_fuzz_never_raises(files, capsys):
    """Seeded one-line mutations of every valid file, run through cli.main."""
    rng = random.Random(20181)
    commands = _commands(files)
    originals = {name: path.read_text() for name, path in files.items()}
    codes = set()
    for _ in range(36):
        for name, argv in commands.items():
            files[name].write_text("\n".join(_mutate(originals[name].splitlines(), rng)))
            code, _, err = run(argv, capsys)
            files[name].write_text(originals[name])
            assert code in (0, 2), (name, err)
            assert code == 0 or err.startswith("error: "), (name, err)
            codes.add(code)
    assert codes == {0, 2}


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_negative_bounds_exit_2(files, tmp_path, capsys):
    instance = tmp_path / "kp.txt"
    for problem, target in (("kp", "2 1 3"), ("smp", "1 2 3")):
        instance.write_text(f"problem: {problem}\nplatform: perm 3\nelem: 2 1 3\n"
                            f"target: {target}\nbound: -2\n")
        _exits_2(["solve", problem, "--instance", instance], capsys, "'bound:'")
    instance.write_text("problem: kp\nplatform: perm 3\nelem: 2 1 3\ntarget: 2 1 3\n")
    _exits_2(["solve", "kp", "--instance", instance, "--bound", "-1"], capsys,
             "--bound")
    _exits_2(["attack", "--transcript", files["dh"], "--method", "dlog",
              "--bound", "-5"], capsys, "--bound")


@pytest.mark.parametrize("argv,flag", [
    (["hom", "encrypt"], "--pub"),
    (["hom", "decrypt", "--pub", "hpub", "--ct", "hct"], "--priv"),
    (["hom", "decrypt", "--pub", "hpub", "--priv", "hpriv"], "--ct"),
    (["wp-encrypt", "encrypt"], "--pub"),
    (["wp-encrypt", "decrypt", "--ct", "tct"], "--priv"),
    (["wp-encrypt", "attack", "--priv", "tpriv"], "--ct"),
])
def test_missing_file_flag_exits_2(files, capsys, argv, flag):
    err = _exits_2([files.get(a, a) for a in argv], capsys)
    assert err.startswith(f"error: {flag} is required")


def test_unreadable_files_exit_2(files, tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00junk")
    _exits_2(["wp-encrypt", "encrypt", "--pub", binary], capsys, "cannot read pub")
    _exits_2(["solve", "kp", "--instance", tmp_path / "missing"], capsys,
             "cannot read instance")


def test_ciphertext_line_count_exits_2_with_prefix(files, capsys):
    files["tct"].write_text("1,2\n")
    _exits_2(_commands(files)["tct"], capsys, "ciphertext must have 2 word line")
    files["hct"].write_text("1\n2\n")
    _exits_2(_commands(files)["hct"], capsys, "ciphertext must have 1 word line")


@pytest.mark.parametrize("old,new,message", [
    ("trivial-index: 2", "trivial-index: 7", "'trivial-index:' must be between 1 and 2"),
    ("trivial-index: 2", "trivial-index: x", "'trivial-index:' needs an integer"),
    ("kind: free", "kind: banana", "cannot be 'banana'"),
    ("kind: free", "kind: trivial", "cannot be 'trivial'"),
    ("side: 2", "side: 3", "'side: 1' and 'side: 2'"),
    # a free side reads a word as trivial only when its chain maps it to e, so
    # it must start on no relators
    ("kind: free\ngenerators: 2", "kind: free\ngenerators: 2\nrelator: 1\nrelator: 2",
     "side 1 does not start on the free seed"),
])
def test_bad_trick_private_key_exits_2(files, capsys, old, new, message):
    _edit(files["tpriv"], old, new)
    _exits_2(_commands(files)["tpriv"], capsys, message)


@pytest.mark.parametrize("old,new,message", [
    ("map: 3 -> 3,2", "map: 5 -> 3,2", "expected 'map: 3 -> word'"),
    ("map: 3 -> 3,2\n", "", "one line per generator"),
    ("perm: 1 4 3 5 2", "perm: 1 4 3 2", "share one degree"),
    ("[phi]", "[psi]", "sections"),
    ("perm: 2 1 4 3 5", "perm: 2 1 4 3 3", "not a permutation"),
    # an image of order 3 for x2 breaks the relator x1^2 x2^3
    ("perm: 3 2 5 4 1", "perm: 2 3 1 4 5", "images do not satisfy the relators"),
])
def test_bad_hom_public_key_exits_2(files, capsys, old, new, message):
    _edit(files["hpub"], old, new)
    _exits_2(_commands(files)["hpub"], capsys, message)
    _exits_2(["hom", "encrypt", "--pub", files["hpub"], "--seed", "1"], capsys, message)


@pytest.mark.parametrize("old,new,message", [
    ("[discarded]\nindices: 1\n", "", "sections"),
    ("indices: 1", "indices: 7", "'indices:' must be between 0 and 6"),
    ("indices: 1", "indices: -1", "'indices:' must be between"),
    ("generators: 3", "generators: 4", "does not match the public key"),
    ("indices: 1", "indices: 0", "does not match the public key"),
    ("move: t1 1,1", "move: t2 9 1", "does not apply"),
])
def test_bad_hom_private_key_exits_2(files, capsys, old, new, message):
    _edit(files["hpriv"], old, new)
    _exits_2(_commands(files)["hpriv"], capsys, message)


def test_hom_private_key_of_another_key_pair_exits_2(tmp_path, capsys):
    # seeds 4 and 5 give chains ending on 9 generators each: the same G and the
    # same generator count, but another phi and another H-hat
    f = {name: tmp_path / name for name in ("pub4", "priv4", "pub5", "priv5", "ct")}
    for seed in (4, 5):
        assert run(["hom", "keygen", "--seed", seed, "--out-pub", f[f"pub{seed}"],
                    "--out-priv", f[f"priv{seed}"]], capsys)[0] == 0
    assert run(["hom", "encrypt", "--seed", 8, "--word", "1,2", "--pub", f["pub4"],
                "--out", f["ct"]], capsys)[0] == 0
    decrypt = ["hom", "decrypt", "--pub", f["pub4"], "--ct", f["ct"], "--priv"]
    assert run(decrypt + [f["priv4"]], capsys)[:2] == (0, "plaintext: 2 3 4 5 1\n")
    _exits_2(decrypt + [f["priv5"]], capsys, "private key does not match the public key")


# the last three parse, but do not fit the 4x4 block matrices of the transcript
@pytest.mark.parametrize("structure", ["blob top 2", "block top 2a", "block middle 2",
                                       "factor 3", "factor 1", "block top 99",
                                       "block bottom 2"])
def test_bad_subgroup_structure_exits_2(files, capsys, structure):
    _edit(files["kolee"], "A-structure: block top 2", f"A-structure: {structure}")
    _exits_2(_commands(files)["kolee"], capsys, "structure")


def test_bad_record_lines_exit_2(files, capsys):
    _edit(files["dh"], "1 Alice", "x Alice")
    _exits_2(_commands(files)["dh"], capsys, "sequence numbers")
    _edit(files["dh"], "# protocol: dh", "# protocol: dh\n# protocol: dh")
    _exits_2(_commands(files)["dh"], capsys, "duplicate 'protocol' header")


def test_instance_word_lines_need_a_rank(tmp_path, capsys):
    instance = tmp_path / "gpcp.txt"
    instance.write_text("problem: gpcp\nu: 1\nv: 1\na: e\nb: e\nbound: 1\n")
    _exits_2(["solve", "gpcp", "--instance", instance], capsys, "'rank:' line")
    instance.write_text("problem: gpcp\nrank: 0\nu: 1\nv: 1\na: e\nb: e\nbound: 1\n")
    _exits_2(["solve", "gpcp", "--instance", instance], capsys, "'rank:' must be")


# --- declared sizes ----------------------------------------------------------------------

def test_generator_count_is_bounded_by_the_file_length():
    # 102 bytes declaring 100,000 generators: replaying the one move built a
    # word per generator (a 48.8 MB peak) before anything was checked
    text = ("trivial-index: 1\nside: 1\nkind: trivial\ngenerators: 100000\nmove: t1 1\n"
            "side: 2\nkind: free\ngenerators: 1\n")
    assert len(text.encode()) == 102
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="'generators:' must be between 1 and 102"):
            cli._parse_trick_private(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# keygen refuses --rank 1 itself (exit 2)
@pytest.mark.parametrize("argv", [["wp-encrypt", "keygen", "--rank", rank]
                                  for rank in range(2, 9)]
                         + [["hom", "keygen", "--group", group] for group in ("demo", "a5")])
def test_keys_the_cli_writes_read_back(tmp_path, capsys, argv):
    pub, priv = tmp_path / "pub.txt", tmp_path / "priv.txt"
    assert run(argv + ["--seed", 1, "--out-pub", pub, "--out-priv", priv], capsys)[0] == 0
    if argv[0] == "hom":
        cli._parse_hom_private(priv.read_text(), cli._parse_hom_public(pub.read_text()))
    else:
        cli._parse_trick_public(pub.read_text())
        cli._parse_trick_private(priv.read_text())


@contextmanager
def _bounded(seconds=1.0, peak_bytes=1_000_000):
    """Fail the block if it runs past ``seconds`` or its tracemalloc peak
    reaches ``peak_bytes``."""
    def expire(*_):  # pytest.fail, because cli.main turns an OSError into exit 2
        pytest.fail(f"still running after {seconds} s")

    # compile the layers a command imports on demand before the measured
    # block, so that its peak does not depend on which test ran first
    import gtc.attacks  # noqa: F401
    import gtc.problems  # noqa: F401

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert peak < peak_bytes


# Ko-Lee over 4x4 matrices mod 5 with Alice's message replaced by the identity:
# no conjugator exists, and the identity's own orbit closes at the first letter,
# so the report is the same at every bound past it (w's orbit has 480 elements)
@pytest.mark.parametrize("bound", [[], ["--bound", "1000000000"], ["--bound", "10"]],
                         ids=["default", "1e9", "10"])
def test_csp_search_ends_when_the_orbit_closes(tmp_path, capsys, bound):
    transcript = tmp_path / "ko-lee.txt"
    assert run(["simulate", "--protocol", "ko-lee", "--seed", 28, "--out", transcript],
               capsys)[0] == 0
    lines = transcript.read_text().splitlines(keepends=True)
    alice = next(i for i, line in enumerate(lines) if line.startswith("1 Alice w^a "))
    lines[alice] = "1 Alice w^a 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1\n"
    transcript.write_text("".join(lines))
    with _bounded(seconds=5.0):
        code, out, _ = run(["attack", "--transcript", transcript, "--method", "csp"] + bound,
                           capsys)
    assert code == 0
    assert out == ("attack: csp\nsuccess: false\nwork-candidates: 6\n"
                   "notes: no conjugator exists (orbit closed)\n")


# twisted over 4x4 matrices mod 5 with Alice's message replaced by the identity:
# no probe has a conjugator; at bound 11 only the second probe's orbit has closed
@pytest.mark.parametrize("bound,notes", [
    ([], "no probe has a conjugator (every orbit closed)"),
    (["--bound", "11"], "no consistent probe solution within bound"),
], ids=["default", "11"])
def test_commutator_probe_says_when_every_orbit_closed(tmp_path, capsys, bound, notes):
    transcript = tmp_path / "twisted.txt"
    assert run(["simulate", "--protocol", "twisted", "--seed", 28, "--out", transcript],
               capsys)[0] == 0
    lines = transcript.read_text().splitlines(keepends=True)
    alice = next(i for i, line in enumerate(lines) if line.startswith("1 Alice a1*w*b1 "))
    lines[alice] = "1 Alice a1*w*b1 1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1\n"
    transcript.write_text("".join(lines))
    code, out, _ = run(["attack", "--transcript", transcript, "--method", "commutator-probe"]
                       + bound, capsys)
    assert code == 0
    assert out == ("attack: commutator-probe\nsuccess: false\nwork-candidates: 601\n"
                   f"notes: {notes}\n")


# dh over Z_1009* with g = 1008 = -1 of order 2: g^a = 3 is no power of g, and
# the scan ran to the bound, 17 s at 10^7, before it stopped when g^n came back to 1
def test_dlog_scan_ends_when_the_powers_of_g_cycle(tmp_path, capsys):
    transcript = tmp_path / "dh.txt"
    transcript.write_text("# protocol: dh\n# platform: cyclic 1009 1008\n"
                          "1 Alice g^a 3\n2 Bob g^b 1008\n")
    argv = ["attack", "--method", "dlog", "--bound", "10000000", "--transcript"]
    run(argv + [tmp_path / "missing"], capsys)  # build the parser, import the layers
    start = time.process_time()
    code, out, _ = run(argv + [transcript], capsys)
    assert time.process_time() - start < 0.5
    assert code == 0
    assert out.endswith("success: false\nwork-multiplications: 2\n"
                        "notes: g^a is not a power of g (cycle closed at 2)\n"), out


def _unitriangular(rng):
    """A random upper unitriangular 4x4 matrix mod 5, as instance text."""
    return " ".join(str(1 if i == j else rng.randrange(5) if i < j else 0)
                    for i in range(4) for j in range(4))


def _box_instance(problem, count, bound):
    # the items' products are all unitriangular and the target is not
    rng = random.Random(count)
    return "\n".join([f"problem: {problem}", "platform: matrix 4 5"]
                     + [f"elem: {_unitriangular(rng)}" for _ in range(count)]
                     + ["target: 1 0 0 0 1 1 0 0 0 0 1 0 0 0 0 1"] + bound) + "\n"


# instances of under 1 KB whose declared work ran for seconds: the ssp scan took
# 44 s over 2^24 selections and the kp box 48 s over 2^20 vectors; the gpcp
# search walked every term to the guard, 15 s and 800 MB, then exited 2,
# although with v = u the orbit of e is {e} and no term can exist.  25 ssp and
# 21 kp items were refused by guards on the box's shape, not on the two tables
# it holds.  7 has order 2^31 - 2 mod 2^31 - 1, so the dlog scan ran for
# minutes; the guard stops it after 2^20 powers (0.2 s, but 3-7 s under tracemalloc)
@pytest.mark.parametrize("argv,text,seconds,peak_bytes,result", [
    (["solve", "ssp", "--instance"], _box_instance("ssp", 24, []), 2.0, 16_000_000,
     (0, "witness: absent\n")),
    (["solve", "kp", "--instance"], _box_instance("kp", 20, ["bound: 1"]), 1.0, 4_000_000,
     (0, "witness: absent\n")),
    (["solve", "gpcp", "--instance"],
     "problem: gpcp\nrank: 2\nu: 1\nu: 2\nv: 1\nv: 2\na: 1\nb: 2\nbound: 1000\n",
     0.5, 1_000_000, (0, "term: absent\n")),
    (["solve", "ssp", "--instance"], _box_instance("ssp", 25, []), 2.0, 16_000_000,
     (0, "witness: absent\n")),
    (["solve", "kp", "--instance"], _box_instance("kp", 21, ["bound: 1"]), 1.0, 4_000_000,
     (0, "witness: absent\n")),
    (["attack", "--method", "dlog", "--bound", "100000000000", "--transcript"],
     "# protocol: dh\n# platform: cyclic 2147483647 7\n1 Alice g^a 3\n2 Bob g^b 5\n",
     30.0, 1_000_000, (2, "")),
], ids=["ssp-24-items", "kp-20-items", "gpcp-v-equals-u", "ssp-25-items", "kp-21-items",
        "dlog-past-the-guard"])
def test_declared_work_of_a_search_stays_small(tmp_path, capsys, argv, text, seconds,
                                               peak_bytes, result):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    run(argv + [tmp_path / "missing"], capsys)  # build the parser, import the layers
    with _bounded(seconds, peak_bytes):
        code, out, err = run(argv + [path], capsys)
    assert (code, out) == result
    assert err == ("" if code == 0 else
                   "error: enumeration exceeds the guard of 1048576 states\n")


DH_RECORDS = "1 Alice g^a 5\n2 Bob g^b 7\n"


# short files whose platform header named work or memory far beyond their size
@pytest.mark.parametrize("text,argv", [
    # trial division of a 60-bit modulus ran for minutes
    (f"# protocol: dh\n# platform: cyclic 1000000000000000003 2\n{DH_RECORDS}",
     ["attack", "--method", "dlog", "--bound", "5", "--transcript"]),
    # the dlog attack built all n(n-1)+1 generators of GL(80): a 402 MB peak
    (f"# protocol: dh\n# platform: matrix 80 5\n{DH_RECORDS}",
     ["attack", "--method", "dlog", "--bound", "1", "--transcript"]),
    # the element check sorted against range(1, 10^6 + 1): a 40 MB peak
    ("problem: kp\nplatform: perm 1000000\nelem: 1 2\n",
     ["solve", "kp", "--instance"]),
    # a trailing field was dropped: 'free 3 9' read as 'free 3'
    ("problem: kp\nplatform: free 3 9\nelem: 1\ntarget: 1\nbound: 1\n",
     ["solve", "kp", "--instance"]),
    # a dlog search over the first generator of GL(2, 5) ran and exited 0
    ("# protocol: dh\n# platform: matrix 2 5\n1 Alice g^a 1 1 0 1\n"
     "2 Bob g^b 1 0 0 1\n", ["attack", "--method", "dlog", "--bound", "5", "--transcript"]),
], ids=["cyclic-modulus", "matrix-dlog", "perm-degree", "trailing-field", "matrix-records"])
def test_platform_headers_are_checked_before_use(tmp_path, capsys, text, argv):
    path = tmp_path / "file.txt"
    path.write_text(text)
    run(argv + [tmp_path / "missing"], capsys)  # build the parser, import the layers
    with _bounded():
        code, _, err = run(argv + [path], capsys)
    assert code == 2 and err.startswith("error: "), err
