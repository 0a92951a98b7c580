import hashlib
import os
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtc import attacks, cli, problems
from gtc.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_dh(tmp_path, capsys):
    out_file = tmp_path / "dh.txt"
    code, out, _ = run(
        ["simulate", "--protocol", "dh", "--p", "23", "--g", "5", "--seed", "1",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "keys-equal=true" in out
    assert "records=2" in out
    text = out_file.read_text()
    assert text.startswith("# protocol: dh\n# platform: cyclic 23 5\n")
    assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) == 2


def test_simulate_semidirect_matrix(tmp_path, capsys):
    out_file = tmp_path / "sd.txt"
    code, out, _ = run(
        ["simulate", "--protocol", "semidirect", "--platform", "matrix",
         "--n", "3", "--p", "1009", "--seed", "1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "keys-equal=true" in out


def test_simulate_every_protocol(tmp_path, capsys):
    for protocol in ("dh", "elgamal", "ko-lee", "aag", "decomp", "twisted",
                     "centralizer", "commutative", "factor", "semidirect"):
        out_file = tmp_path / f"{protocol}.txt"
        code, out, _ = run(
            ["simulate", "--protocol", protocol, "--seed", "3", "--out", str(out_file)],
            capsys,
        )
        assert code == 0, protocol
        assert "keys-equal=true" in out, protocol


def test_unknown_protocol_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--protocol", "nope"])
    assert err.value.code == 2


def test_invalid_protocol_platform_combination_exits_2(capsys):
    code, _, err = run(
        ["simulate", "--protocol", "dh", "--platform", "matrix"], capsys
    )
    assert code == 2
    assert "does not run" in err
    code, _, _ = run(
        ["simulate", "--protocol", "centralizer", "--platform", "direct"], capsys
    )
    assert code == 2


def test_non_prime_modulus_exits_2(capsys):
    for argv in (
        ["simulate", "--protocol", "dh", "--p", "24"],
        ["simulate", "--protocol", "semidirect", "--platform", "matrix", "--p", "24"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert "24 is not prime" in err
        assert "Traceback" not in err


def test_attack_roundtrip(tmp_path, capsys):
    transcript = tmp_path / "dh.txt"
    run(["simulate", "--protocol", "dh", "--p", "23", "--g", "5", "--seed", "2",
         "--out", str(transcript)], capsys)
    report = tmp_path / "report.txt"
    code, out, _ = run(
        ["attack", "--transcript", str(transcript), "--method", "dlog",
         "--bound", "50", "--out", str(report)],
        capsys,
    )
    assert code == 0
    assert "success=true" in out
    assert report.read_text().startswith("attack: dlog\nsuccess: true\n")


def test_attack_normal_on_direct_and_block(tmp_path, capsys):
    direct = tmp_path / "direct.txt"
    run(["simulate", "--protocol", "decomp", "--platform", "direct", "--seed", "5",
         "--out", str(direct)], capsys)
    code, out, _ = run(
        ["attack", "--transcript", str(direct), "--method", "normal"], capsys
    )
    assert code == 0
    assert "success: true" in out
    block = tmp_path / "block.txt"
    run(["simulate", "--protocol", "decomp", "--platform", "matrix", "--seed", "5",
         "--out", str(block)], capsys)
    code, out, _ = run(
        ["attack", "--transcript", str(block), "--method", "normal"], capsys
    )
    assert code == 0
    assert "success: false" in out


def test_attack_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(
        ["attack", "--transcript", str(tmp_path / "missing.txt"), "--method", "dlog"],
        capsys,
    )
    assert code == 2
    assert "cannot read transcript" in err


def test_attack_garbage_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a transcript\n")
    code, _, err = run(
        ["attack", "--transcript", str(bad), "--method", "dlog"], capsys
    )
    assert code == 2


def test_paper_examples_passes(capsys):
    code, out, _ = run(["paper-examples"], capsys)
    assert code == 0
    assert "all golden values match" in out
    assert "map: 1 -> 5" in out
    assert "ciphertext: 5,5,-4,5,4,2,-6,2" in out


def test_montecarlo_single_trial(tmp_path, capsys):
    code, out, _ = run(["montecarlo", "--trials", "1", "--seed", "1"], capsys)
    assert code == 0
    assert "trials: 1" in out


def test_montecarlo_stats_file(tmp_path, capsys):
    stats = tmp_path / "stats.txt"
    code, out, _ = run(
        ["montecarlo", "--trials", "200", "--seed", "9", "--out", str(stats)],
        capsys,
    )
    assert code == 0
    text = stats.read_text()
    assert "eve-accuracy:" in text and "case-1:" in text


def test_wp_encrypt_lifecycle(tmp_path, capsys):
    pub = tmp_path / "pub.txt"
    priv = tmp_path / "priv.txt"
    ct = tmp_path / "ct.txt"
    code, _, _ = run(
        ["wp-encrypt", "keygen", "--seed", "4", "--out-pub", str(pub),
         "--out-priv", str(priv)],
        capsys,
    )
    assert code == 0
    for bit in ("0", "1"):
        code, _, _ = run(
            ["wp-encrypt", "encrypt", "--bit", bit, "--pub", str(pub),
             "--seed", "5", "--out", str(ct)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["wp-encrypt", "decrypt", "--ct", str(ct), "--priv", str(priv)], capsys
        )
        assert code == 0
        assert out.strip() == f"bit: {bit}"
        code, out, _ = run(
            ["wp-encrypt", "attack", "--ct", str(ct), "--priv", str(priv),
             "--seed", "6"],
            capsys,
        )
        assert code == 0
        assert out.startswith("guess:")


def test_hom_lifecycle(tmp_path, capsys):
    pub = tmp_path / "pub.txt"
    priv = tmp_path / "priv.txt"
    ct = tmp_path / "ct.txt"
    code, _, _ = run(
        ["hom", "keygen", "--seed", "3", "--out-pub", str(pub), "--out-priv", str(priv)],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["hom", "encrypt", "--pub", str(pub), "--word", "1,2", "--steps", "4",
         "--seed", "8", "--out", str(ct)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["hom", "decrypt", "--pub", str(pub), "--priv", str(priv), "--ct", str(ct)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "plaintext: 2 3 4 5 1"


def test_solve_commands(tmp_path, capsys):
    ssp = tmp_path / "ssp.txt"
    ssp.write_text(
        "problem: ssp\nplatform: free 1\nelem: 1,1,1\nelem: 1,1\n"
        "target: 1,1,1,1,1\nbound: 1\n"
    )
    code, out, _ = run(["solve", "ssp", "--instance", str(ssp)], capsys)
    assert code == 0
    assert out.strip() == "witness: 1,1"

    gp = tmp_path / "gpcp.txt"
    gp.write_text(
        "problem: gpcp\nrank: 2\nu: 1\nv: 2\na: 1,2\nb: 1,2\nbound: 2\n"
    )
    code, out, _ = run(["solve", "gpcp", "--instance", str(gp)], capsys)
    assert code == 0
    assert out.strip() == "term: e"

    factor = tmp_path / "factor.txt"
    factor.write_text(
        "problem: factor\nplatform: direct 1 1\nagens: 1|e\nbgens: e|1\n"
        "target: 1,1|1\nbound: 3\n"
    )
    code, out, _ = run(["solve", "factor", "--instance", str(factor)], capsys)
    assert code == 0
    assert "a-expr: 1,1" in out and "b-expr: 1" in out

    code, _, err = run(["solve", "kp", "--instance", str(ssp)], capsys)
    assert code == 2


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    digests = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        d.mkdir()
        files = []
        for protocol in ("dh", "decomp", "semidirect"):
            f = d / f"{protocol}.txt"
            run(["simulate", "--protocol", protocol, "--seed", "11", "--out", str(f)],
                capsys)
            files.append(f)
        stats = d / "mc.txt"
        run(["montecarlo", "--trials", "50", "--seed", "11", "--out", str(stats)],
            capsys)
        files.append(stats)
        h = hashlib.sha256()
        for f in files:
            h.update(f.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GTC_SEED", "77")
    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    run(["simulate", "--protocol", "dh", "--out", str(f1)], capsys)
    run(["simulate", "--protocol", "dh", "--seed", "77", "--out", str(f2)], capsys)
    assert f1.read_bytes() == f2.read_bytes()


def test_montecarlo_golden_pin(capsys):
    code, out, _ = run(["montecarlo", "--trials", "400", "--seed", "11"], capsys)
    assert code == 0
    lines = out.splitlines()
    for expected in ("eve-accuracy: 0.7175", "legit-accuracy: 1.0000",
                     "case-1: 0.5500", "case-2: 0.1950", "case-3: 0.2550"):
        assert expected in lines


@pytest.mark.parametrize("move", ["t3 swap 1", "t3 invert 1 2", "t3 swap 1 -2"])
def test_wp_decrypt_malformed_t3_move_exits_2(tmp_path, capsys, move):
    pub, priv, ct = tmp_path / "pub.txt", tmp_path / "priv.txt", tmp_path / "ct.txt"
    run(["wp-encrypt", "keygen", "--seed", "4", "--out-pub", str(pub),
         "--out-priv", str(priv)], capsys)
    run(["wp-encrypt", "encrypt", "--bit", "1", "--pub", str(pub), "--seed", "5",
         "--out", str(ct)], capsys)
    lines = priv.read_text().splitlines()
    first_move = next(i for i, ln in enumerate(lines) if ln.startswith("move:"))
    lines[first_move] = f"move: {move}"
    priv.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        ["wp-encrypt", "decrypt", "--ct", str(ct), "--priv", str(priv)], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_order_one_generator_exits_2(capsys):
    for argv in (
        ["simulate", "--protocol", "dh", "--p", "2", "--g", "1"],
        ["simulate", "--protocol", "elgamal", "--p", "3", "--g", "1"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert "order 1" in err



# --- bounded searches: golden pins and exit codes ---------------------------

def _simulate(tmp_path, capsys, protocol, min_len, max_len):
    path = tmp_path / f"{protocol}.txt"
    code, _, _ = run(["simulate", "--protocol", protocol, "--seed", "3", "--min-len",
                      str(min_len), "--max-len", str(max_len), "--out", str(path)], capsys)
    assert code == 0
    return path


ATTACK_PINS = {
    ("ko-lee", "csp", 3): "attack: csp\nsuccess: true\n"
    "recovered-key: 1 1 0 2 0 3 1 0 0 4 0 4 1 3 2 4\nwork-candidates: 22\n",
    ("ko-lee", "csp", 2): "attack: csp\nsuccess: false\nwork-candidates: 10\n"
    "notes: no conjugator within bound\n",
    ("decomp", "decomp-factor", 2): "attack: decomp-factor\nsuccess: true\n"
    "recovered-key: 0 4 3 0 2 3 2 4 2 2 2 1 3 0 1 2\nwork-candidates: 10\n",
    ("decomp", "decomp-factor", 1): "attack: decomp-factor\nsuccess: false\n"
    "work-candidates: 5\nnotes: no factorization within bound\n",
}


@pytest.mark.parametrize("protocol,method,bound", sorted(ATTACK_PINS))
def test_search_attack_golden_pins(tmp_path, capsys, protocol, method, bound):
    lengths = (3, 3) if protocol == "ko-lee" else (1, 2)
    transcript = _simulate(tmp_path, capsys, protocol, *lengths)
    code, out, _ = run(["attack", "--transcript", str(transcript), "--method", method,
                        "--bound", str(bound)], capsys)
    assert code == 0
    assert out == ATTACK_PINS[(protocol, method, bound)]


IDENTITY3 = "1 0 0 0 1 0 0 0 1"
AGENS = "agens: 1 1 0 0 1 0 0 0 1;2 0 0 0 3 0 0 0 1"
BGENS = "bgens: 1 0 0 0 1 1 0 0 1;1 0 0 0 1 0 3 0 2"
SOLVE_PINS = [
    ("smp", ["platform: perm 4", "elem: 2 1 3 4", "elem: 2 3 4 1", "target: 4 1 3 2",
             "bound: 4"], "witness: 2,2,1,2\n"),
    ("smp", ["platform: matrix 3 5", "elem: 1 1 0 0 1 0 0 0 1", "elem: 1 0 0 2 1 0 0 0 1",
             "target: 2 0 0 0 1 0 0 0 1", "bound: 3"], "witness: absent\n"),
    ("gpcp", ["rank: 2", "u: 1,2", "u: 2", "v: 1", "v: 2,1", "a: 1", "b: 2,-1,-2,-2",
              "bound: 3"], "term: 2,-1,2\n"),
    ("gpcp", ["rank: 2", "u: 1", "u: 2", "v: 1", "v: 2", "a: 1", "b: 2", "bound: 3"],
     "term: absent\n"),
    ("twisted", ["rank: 2", "source: 1,2", "target: -2,-1,-2,-2,1,2,1,1,2", "phi: 2;1",
                 "psi: 1,2;2", "bound: 3"], "witness: 2,2,1\n"),
    ("twisted", ["rank: 2", "source: 1,2", "target: 1,1", "phi: 2;1", "psi: 2;1",
                 "bound: 3"], "witness: absent\n"),
    ("factor", ["platform: matrix 3 5", AGENS, BGENS, "target: 3 0 0 0 2 2 1 0 3",
                "bound: 3"], "a-expr: -2\nb-expr: -2,1\n"),
    ("factor", ["platform: matrix 3 5", AGENS, BGENS, "target: 1 0 0 1 1 0 0 0 1",
                "bound: 2"], "witness: absent\n"),
    ("ssp", ["platform: perm 4", "elem: 2 1 3 4", "elem: 2 3 4 1", "elem: 1 2 4 3",
             "target: 3 2 4 1"], "witness: 1,1,0\n"),
    ("ssp", ["platform: perm 4", "elem: 2 1 3 4", "elem: 2 3 4 1", "target: 1 2 4 3"],
     "witness: absent\n"),
    ("kp", ["platform: matrix 3 5", "elem: 1 1 0 0 1 0 0 0 1", "elem: 1 0 0 0 1 1 0 0 1",
            "target: 1 3 1 0 1 2 0 0 1", "bound: 4"], "witness: 3,2\n"),
    ("kp", ["platform: matrix 3 5", "elem: 1 1 0 0 1 0 0 0 1", "elem: 1 0 0 0 1 1 0 0 1",
            "target: 1 0 1 0 1 0 0 0 1", "bound: 4"], "witness: absent\n"),
    ("smp", ["platform: perm 3", "elem: 2 1 3", "target: 1 2 3", "bound: 2"], "witness: e\n"),
    # zero items: the empty witness prints as e, as smp's empty product does
    ("kp", ["platform: free 1", "target: e", "bound: 1"], "witness: e\n"),
    ("ssp", ["platform: free 1", "target: e"], "witness: e\n"),
    # each witness ends in the least of two suffixes that reach one backward
    # state; an orbit_search goal side built parent then letter keeps the other
    ("smp", ["platform: perm 4", "elem: 2 1 4 3", "elem: 4 3 1 2", "elem: 2 3 4 1",
             "target: 3 1 4 2", "bound: 4"], "witness: 2,3,1,2\n"),
    ("gpcp", ["rank: 2", "u: -1", "u: -1", "v: e", "v: -2", "a: 2,1", "b: 2,-1,-2",
              "bound: 4"], "term: 1,1,1,-2\n"),
    ("twisted", ["rank: 2", "source: -1", "target: 2,2", "phi: 2;e", "psi: e;-2,1",
                 "bound: 4"], "witness: 1,1,1,-2\n"),
]


def _solve(tmp_path, capsys, problem, lines):
    instance = tmp_path / "instance.txt"
    instance.write_text("\n".join([f"problem: {problem}"] + lines) + "\n")
    return run(["solve", problem, "--instance", str(instance)], capsys)


@pytest.mark.parametrize("problem,lines,expected", SOLVE_PINS)
def test_search_solve_golden_pins(tmp_path, capsys, problem, lines, expected):
    code, out, _ = _solve(tmp_path, capsys, problem, lines)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("protocol,method", [
    ("dh", "csp"), ("dh", "normal"), ("dh", "decomp-factor"), ("dh", "commutator-probe"),
    ("ko-lee", "dlog"), ("decomp", "csp"),
])
def test_attack_on_the_wrong_transcript_exits_2(tmp_path, capsys, protocol, method):
    transcript = _simulate(tmp_path, capsys, protocol, 1, 2)
    code, _, err = run(["attack", "--transcript", str(transcript), "--method", method],
                       capsys)
    assert code == 2
    assert err.startswith("error: transcript has no ")


@pytest.mark.parametrize("method", ["normal", "decomp-factor"])
def test_decomp_attack_without_records_exits_2(tmp_path, capsys, method):
    transcript = _simulate(tmp_path, capsys, "decomp", 1, 2)
    text = transcript.read_text()
    transcript.write_text("".join(ln for ln in text.splitlines(True) if ln.startswith("#")))
    code, _, err = run(["attack", "--transcript", str(transcript), "--method", method],
                       capsys)
    assert code == 2
    assert err == "error: transcript has no 'a1*w*a2' record\n"


MATRIX_INSTANCE = ["platform: matrix 3 5", f"elem: {IDENTITY3}", f"target: {IDENTITY3}"]


@pytest.mark.parametrize("problem,lines,message", [
    ("kp", MATRIX_INSTANCE, "no 'bound:' line"),
    ("smp", MATRIX_INSTANCE, "no 'bound:' line"),
    ("gpcp", ["rank: 2", "u: 1", "v: 2", "a: e", "b: e"], "no 'bound:' line"),
    ("twisted", ["rank: 2", "source: 1", "target: 1", "phi: 1;2", "psi: 1;2"],
     "no 'bound:' line"),
    ("factor", ["platform: matrix 3 5", f"agens: {IDENTITY3}", f"bgens: {IDENTITY3}",
                f"target: {IDENTITY3}"], "no 'bound:' line"),
    ("smp", MATRIX_INSTANCE + ["bound: x"], "'bound:' needs an integer"),
    ("twisted", ["rank: x", "source: 1", "target: 1", "phi: 1;2", "psi: 1;2", "bound: 2"],
     "'rank:' needs an integer"),
    ("factor", ["platform: matrix 3 5", f"bgens: {IDENTITY3}", f"target: {IDENTITY3}",
                "bound: 2"], "no 'agens:' line"),
    ("twisted", ["rank: 2", "source: 1", "target: 1", "psi: 1;2", "bound: 2"],
     "no 'phi:' line"),
    ("smp", [f"elem: {IDENTITY3}", f"target: {IDENTITY3}", "bound: 2"],
     "'elem:' needs a 'platform:' line"),
    ("smp", ["platform: matrix 3 5", "elem: 1 0 0 0 x 0 0 0 1", f"target: {IDENTITY3}",
             "bound: 2"], "invalid literal"),
    ("kp", MATRIX_INSTANCE + ["element: 3", "bound: 2"], "unknown instance key 'element'"),
    ("kp", MATRIX_INSTANCE + [f"target: {IDENTITY3}", "bound: 2"],
     "expected one 'target:' line, found 2"),
    ("twisted", ["rank: 2", "source: 1", "target: 1", "target: 2", "phi: 1;2", "psi: 1;2",
                 "bound: 2"], "expected one 'target:' line, found 2"),
    ("ssp", MATRIX_INSTANCE + ["rank: 2", "u: 1", "phi: 1;2"], "unknown instance key 'rank'"),
    ("twisted", ["platform: free 2", "rank: 2", "source: 1", "target: 1", "phi: 1;2",
                 "psi: 1;2", "bound: 2"], "unknown instance key 'platform'"),
])
def test_malformed_solve_instance_exits_2(tmp_path, capsys, problem, lines, message):
    code, out, err = _solve(tmp_path, capsys, problem, lines)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


def test_solve_problem_mismatch_exits_2_with_error_prefix(tmp_path, capsys):
    instance = tmp_path / "instance.txt"
    instance.write_text("\n".join(["problem: kp"] + MATRIX_INSTANCE + ["bound: 2"]) + "\n")
    code, _, err = run(["solve", "smp", "--instance", str(instance)], capsys)
    assert code == 2
    assert err == "error: instance is a kp problem, not smp\n"


# --- simulate transcripts and bad numeric flags -----------------------------

# sha256 of the transcript file followed by the summary line
SIMULATE_PINS = {
    ("dh", None): "b7a1f08ef61a7782754d9b6f3e5d945918b71e97ae462df9958dc2415401746f",
    ("elgamal", None): "2740528e166220f9722bd90583ee81cebc1b95aabb42e6ca83430acf080ce03b",
    ("ko-lee", None): "22336e55162f3b5cca0231c447cd041df668cd0e57eea79aa87f1d099ed002ae",
    ("aag", None): "46d229049722697d2a1856fe9f303bfc479b20a04b5035a279e0207c043a9eee",
    ("decomp", None): "3b17a92346a461aacb2aa5d7c8a552cf74b49f50b589f0ce64b32e81775110b5",
    ("twisted", None): "9adf61a836341a8cfb7ba56e06b62193beb22ac71b98c808b3cfb4a770cf482a",
    ("centralizer", None): "aebd6cc854b9dc353ba0fd4f65e3fd0d507c48aab5ca17b7941c8e8701c8b466",
    ("commutative", None): "c397166115cdbdb478a7dbf08756fb181c3a4d6cf63d4b0f9b1c1304338f09bf",
    ("factor", None): "957454390b6891b75623ce43fd66717ba86ccdf9948b0d6d21f859b83a327457",
    ("semidirect", None): "996cbae8f430ba5f027face6f854efa22163197fb101db215ffd357e67a9e613",
    ("ko-lee", "direct"): "39677808a3068672743f079aa8faf83176049775b7e92858ed1fdc31d5e5afe0",
    ("decomp", "direct"): "f06d3553995a35038dc199f3d45daccd5d6215038f1ab70aae5f34adccd4e566",
    ("twisted", "direct"): "eef67ea191c7c3a22e65aee3dc92c3e80d3a6b9c22a59c56b8f27e1888cae966",
    ("factor", "direct"): "480dcfc997e5411dd4f991cc0967727f35efb2c4960d8035c399597fb96b4b83",
}


@pytest.mark.parametrize("protocol,platform", list(SIMULATE_PINS))
def test_simulate_golden_pins(tmp_path, capsys, protocol, platform):
    path = tmp_path / "transcript.txt"
    argv = ["simulate", "--protocol", protocol, "--seed", "3", "--out", str(path)]
    code, out, _ = run(argv + (["--platform", platform] if platform else []), capsys)
    assert code == 0
    digest = hashlib.sha256((path.read_text() + out).encode()).hexdigest()
    assert digest == SIMULATE_PINS[(protocol, platform)]


@pytest.mark.parametrize("argv,flag", [
    (["montecarlo", "--trials", "0"], "--trials"),
    (["montecarlo", "--trials", "-1"], "--trials"),
    (["hom", "keygen", "--discard", "-1"], "--discard"),
    (["hom", "keygen", "--chain-len", "-2"], "--chain-len"),
    (["wp-encrypt", "keygen", "--chain-len", "-3"], "--chain-len"),
    (["hom", "encrypt", "--steps", "-3"], "--steps"),
    (["simulate", "--protocol", "semidirect", "--n", "0"], "--n"),
    (["simulate", "--protocol", "dh", "--p", "0"], "--p"),
    (["simulate", "--protocol", "decomp", "--platform", "direct", "--rank", "0"], "--rank"),
    (["simulate", "--protocol", "ko-lee", "--n", "3"], "--n"),
    (["simulate", "--protocol", "aag", "--rank", "1"], "--rank"),
    (["simulate", "--protocol", "factor", "--platform", "direct", "--rank", "-1"], "--rank"),
])
def test_bad_sizes_and_counts_exit_2(tmp_path, capsys, argv, flag):
    # every other input is valid, so only the flag under test can fail
    pub, priv = tmp_path / "pub.txt", tmp_path / "priv.txt"
    if argv[:2] == ["hom", "encrypt"]:
        run(["hom", "keygen", "--seed", "1", "--out-pub", str(pub), "--out-priv", str(priv)],
            capsys)
        argv = argv + ["--pub", str(pub)]
    elif argv[1] == "keygen":
        argv = argv + ["--out-pub", str(pub), "--out-priv", str(priv)]
    code, _, err = run(argv, capsys)
    assert code == 2, argv
    assert err.startswith("error: ") and flag in err, err


def test_non_integer_seed_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GTC_SEED", "abc")
    code, _, err = run(["simulate", "--protocol", "dh"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "GTC_SEED" in err, err


# --- the parser and the imports each command pays for ----------------------

# sha256 of `gtc [command] --help` at 80 columns
HELP_PINS = {
    "": "3c5dcf8348e656ff99b16e4f5d9d31e4200f9ca67962ed7dcf48440d7c82f636",
    "simulate": "530551975cc04c29be3cd6b24fed8864fb869a7390a22c51a0b638c5405bf890",
    "attack": "a55656e169994addbbb2cb8b1a86e5a13b2b1d5ae36590077e46f3bd59e80001",
    "paper-examples": "2ef44336e557c89a46f7702de0873585c8e6fd8f70690d71082bb30d1bb91a49",
    "montecarlo": "d610af9cedbbc629652b80ac89e3682186f2e926016b5fa657681cd5cd3b1941",
    "wp-encrypt": "53b3691538051c279618c9618d7cc6d4046b9801fbb2081f4207697c2b1eb1bc",
    "hom": "0ed8f5a5e3d40ac2d0d30be6138f4481ec51038e2fd08c90ab439f444645e489",
    "solve": "1d06094f85c8c46e8845c7b58f173eb3cc9107dbc1fe207d9b98c042b534f37b",
}


@pytest.mark.parametrize("command", list(HELP_PINS))
def test_help_texts_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as err:
        main([command, "--help"] if command else ["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_PINS[command], out


def _fresh_gtc(argv, *flags):
    """Run `python [flags] -m gtc argv` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("GTC_SEED", None)
    return subprocess.run([sys.executable, *flags, "-m", "gtc", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GTC_SEED", raising=False)
    transcript, instance = tmp_path / "t.txt", tmp_path / "i.txt"
    instance.write_text("\n".join(["problem: gpcp"] + SOLVE_PINS[2][1]) + "\n")
    simulate = ["simulate", "--protocol", "ko-lee", "--min-len", "3", "--max-len", "3",
                "--seed", "3", "--out", str(transcript)]
    tpub, tpriv, tct, hpub, hpriv, hct = (str(tmp_path / name) for name in
                                          ("tpub", "tpriv", "tct", "hpub", "hpriv", "hct"))
    argvs = [
        ["simulate", "--protocol", "nope"],  # argparse usage error
        ["attack", "--transcript", str(transcript), "--method", "csp", "--bound", "-1"],
        simulate,
        ["attack", "--transcript", str(transcript), "--method", "csp", "--bound", "3"],
        ["solve", "gpcp", "--instance", str(instance)],
        simulate,
        # every command that reads a key file, so its on-demand imports run cold
        ["wp-encrypt", "keygen", "--seed", "2", "--out-pub", tpub, "--out-priv", tpriv],
        ["wp-encrypt", "encrypt", "--seed", "3", "--pub", tpub, "--out", tct],
        ["wp-encrypt", "decrypt", "--priv", tpriv, "--ct", tct],
        ["wp-encrypt", "attack", "--seed", "4", "--priv", tpriv, "--ct", tct],
        ["hom", "keygen", "--seed", "2", "--out-pub", hpub, "--out-priv", hpriv],
        ["hom", "encrypt", "--seed", "3", "--pub", hpub, "--out", hct],
        ["hom", "decrypt", "--pub", hpub, "--priv", hpriv, "--ct", hct],
        ["montecarlo", "--trials", "20"],
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [c for c, _, _ in in_process] == [2, 2] + [0] * 12
    for argv, got in zip(argvs, in_process):
        proc = _fresh_gtc(argv)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_commands_import_only_the_layers_they_run(tmp_path, capsys):
    solves = []
    for problem, lines in (("gpcp", SOLVE_PINS[2][1]), ("twisted", SOLVE_PINS[4][1])):
        instance = tmp_path / f"{problem}.txt"
        instance.write_text("\n".join([f"problem: {problem}"] + lines) + "\n")
        solves.append(["solve", problem, "--instance", str(instance)])
    transcript = _simulate(tmp_path, capsys, "ko-lee", 3, 3)
    attack = ["attack", "--transcript", str(transcript), "--method", "csp", "--bound", "3"]
    for argv in [["simulate", "--protocol", "dh"], *solves, attack, ["solve", "--help"]]:
        proc = _fresh_gtc(argv, "-X", "importtime")
        assert proc.returncode == 0, argv
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        # argparse prints help and usage errors; the table reader serves valid commands
        assert ("argparse" in imported) == (argv[-1] == "--help"), argv
        loaded = {name for name in imported if name == "gtc" or name.startswith("gtc.")}
        if argv[0] == "simulate":
            assert loaded.isdisjoint({f"gtc.{name}" for name in (
                "attacks", "problems", "homenc", "wordenc", "tietze", "rewriting")}), loaded
        elif argv in solves:
            # a decider runs on words and platforms: no protocol, scheme or Tietze layer
            assert loaded == {"gtc", "gtc.cli", "gtc.errors", "gtc.rng", "gtc.words",
                              "gtc.linalg", "gtc.platforms", "gtc.problems"}, argv
        elif argv is attack:
            assert loaded.isdisjoint({f"gtc.{name}" for name in (
                "tietze", "homenc", "wordenc", "rewriting")}), loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gtc.cli; print(' '.join(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    loaded = {n for n in proc.stdout.split() if n == "gtc" or n.startswith("gtc.")}
    assert loaded == {"gtc", "gtc.cli", "gtc.errors", "gtc.rng", "gtc.words"}


def test_parser_name_tables_match_the_layers():
    assert list(cli._ATTACK_METHODS) == sorted(attacks.ATTACK_DRIVERS)
    assert cli._SOLVE_PROBLEMS == tuple(problems.PROBLEM_KEYS)


# --- the table reader against argparse ---------------------------------------

INT_TOKENS = ["0", "3", "-2", "+4", " 5 ", "1_0", "007", "-0", "2.5", "x", "", "\u0663", "-\u0663",
              "\u00b2", "-5\n"]
TEXT_TOKENS = ["f.txt", "1,2", "a b", "-f", "-", "-1", "--"]
HOSTILE_TOKENS = ["-h", "--help", "--", "-", "--nope", "-x", "x", "-1.5", "--bound=3",
                  "--instance=i.txt", "--inst", "--out-p", "--s"]


@st.composite
def argvs(draw):
    """Argv of one command: some of its flags and positionals with good or
    bad values, in any order, some repeated, plus hostile tokens."""
    name = draw(st.sampled_from(list(cli._COMMANDS) + ["nope"]))
    rows = cli._COMMANDS[name][1] if name in cli._COMMANDS else []
    groups, clean = [], draw(st.booleans())
    for flag, kwargs in rows:
        good = [str(c) for c in kwargs.get("choices", ())] or (
            ["1", "2", "12"] if kwargs.get("type") is int else ["f.txt", "1,2"])
        bad = INT_TOKENS if kwargs.get("type") is int else TEXT_TOKENS
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2] if kwargs.get("required")
                                            or flag[0] != "-" else [0, 0, 1, 2]))):
            value = draw(st.sampled_from(good if clean else good + bad + ["bad"]))
            groups.append([value] if flag[0] != "-" else [flag, value])
    groups = draw(st.permutations(groups))
    argv = [name] + [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(1, len(argv)))
        argv.insert(at, draw(st.sampled_from(HOSTILE_TOKENS + INT_TOKENS)))
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


_PARSER = cli.build_parser()


@settings(max_examples=600, deadline=None)
@given(argv=argvs())
def test_read_argv_gives_the_namespace_argparse_gives(argv):
    got = cli._read_argv(argv)
    if got is not None:
        assert vars(got) == vars(_PARSER.parse_args(argv))


def _documented_argvs():
    """The commands of README's CLI block, and those the CI smoke step runs
    as statements (the forms argparse still reads run inside a comparison)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    with open(os.path.join(root, ".github", "workflows", "tests.yml")) as fh:
        smoke = fh.read().split("name: CLI smoke test", 1)[1].split("- name:", 1)[0]
    lines = re.findall(r"^gtc (.*)$", readme, re.M)
    lines += re.findall(r"^\s*(?:timeout \d+ )?python -m gtc ([^>\n]*)", smoke, re.M)
    return [shlex.split(line) for line in lines]


def test_the_reader_serves_every_documented_command():
    argvs = _documented_argvs()
    assert len(argvs) >= 25
    for argv in argvs:
        assert cli._read_argv(argv) is not None, argv
