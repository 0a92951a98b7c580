"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import hashlib
import random
import time
from functools import reduce

from gtc.attacks import (
    attack_decomposition_normal,
    commutator_probe_csp,
    commutator_probe_decomposition,
    commutator_probe_factorization,
    decomposition_to_factorization,
    key_from_decomposition_solution,
)
from gtc.cli import main as cli_main
from gtc.homenc import (
    eval_faithful,
    hom_decrypt,
    scripted_encrypt,
    worked_example_chain,
    worked_example_encryption,
    worked_example_keypair,
    worked_example_presentation,
)
from gtc.platforms import (
    CyclicModP,
    DirectFreePlatform,
    FreePlatform,
    MatrixModP,
    PermutationPlatform,
    SubgroupGens,
    block_commuting_subgroups,
    cyclic_subgroup,
    direct_factor_subgroups,
    eval_word,
    pow_with_count,
    square_and_multiply,
)
from gtc.problems import ssp_decide
from gtc.protocols import (
    aag_exchange,
    centralizer_exchange,
    commutative_subgroups_exchange,
    decomposition_exchange,
    dh_exchange,
    elgamal_encrypt,
    elgamal_session,
    factorization_exchange,
    inner_automorphism,
    ko_lee_exchange,
    semidirect_exchange,
    twisted_exchange,
)
from gtc.rng import substream
from gtc.tietze import TietzeChain, break_relators, format_map
from gtc.wordenc import run_trick_treat_trials
from gtc.words import Word


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_worked_example_isomorphism_golden():
    start = time.monotonic()
    chain = worked_example_chain()
    replayed = reduce(TietzeChain.then, chain.moves, TietzeChain.of(chain.start))
    assert replayed.end == chain.end
    phi, phi_inv = replayed.phi, replayed.phi_inv
    assert format_map(phi) == "map: 1 -> 5\nmap: 2 -> 2\nmap: 3 -> 3"
    assert format_map(phi_inv) == (
        "map: 1 -> 1,2,2\nmap: 2 -> 2\nmap: 3 -> 3\n"
        "map: 4 -> 1,1\nmap: 5 -> 1\nmap: 6 -> 1,1,2"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"phi and phi-inv match exactly in {elapsed:.3f}s")


def test_criterion_02_worked_example_encryption_golden():
    start = time.monotonic()
    kp = worked_example_keypair()
    plain, moves, expected = worked_example_encryption()
    ct = scripted_encrypt(kp.public, plain, moves)
    assert ct == expected
    assert ct == Word((5, 5, -4, 5, 4, 2, -6, 2), 6)
    assert hom_decrypt(kp, ct) == eval_faithful(kp.public, plain)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"scripted ciphertext and decryption match in {elapsed:.3f}s")


def test_criterion_03_relator_breaking_counts():
    g = worked_example_presentation()
    chain = break_relators(g, 3)
    assert chain.end.n_gens == 6
    assert sorted(len(r) for r in chain.end.relators) == [3, 3, 3, 3, 4]
    assert chain.end.total_length() <= 2 * g.total_length()
    report(3, "6 generators, relator lengths {3,3,3,3,4}, total 16 <= 20")


def test_criterion_04_all_protocols_1000_sessions():
    start = time.monotonic()
    sessions = 1000
    setup = random.Random(99)
    cp = CyclicModP(1009, 11)
    A, B = block_commuting_subgroups(4, 5, 2, 2, setup)
    mpf = A.platform
    w = mpf.random_element(setup)
    fp = FreePlatform(4)
    fgens = fp.generators()
    FA = SubgroupGens(fp, tuple(fgens[:2]))
    FB = SubgroupGens(fp, tuple(fgens[2:]))
    CA = cyclic_subgroup(mpf.random_element(setup))
    CB = cyclic_subgroup(mpf.random_element(setup))
    mp3 = MatrixModP(3, 1009)
    g3 = mp3.random_element(setup)
    h3 = mp3.random_element(setup)
    phi3 = inner_automorphism(mp3, h3)
    runners = {
        "dh": lambda r: dh_exchange(cp, r),
        "elgamal": lambda r: elgamal_session(cp, r),
        "ko-lee": lambda r: ko_lee_exchange(mpf, w, A, B, r, expr_len=(4, 8)),
        "aag": lambda r: aag_exchange(fp, FA, FB, r, expr_len=(4, 8)),
        "decomp": lambda r: decomposition_exchange(mpf, w, A, B, r, expr_len=(4, 8)),
        "twisted": lambda r: twisted_exchange(mpf, w, A, B, r, expr_len=(4, 8)),
        "centralizer": lambda r: centralizer_exchange(mpf, w, r, cent_gens=2,
                                                      expr_len=(4, 8)),
        "commutative": lambda r: commutative_subgroups_exchange(
            mpf, w, CA, CB, r, expr_len=(4, 8)),
        "factor": lambda r: factorization_exchange(mpf, A, B, r, expr_len=(4, 8)),
        "semidirect": lambda r: semidirect_exchange(mp3, g3, phi3, r),
    }
    assert len(runners) == 10
    for stream_id, (name, runner) in enumerate(runners.items()):
        for i in range(sessions):
            out = runner(substream(1000 + stream_id, i))
            assert out.key_alice == out.key_bob, f"{name} session {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"10 protocols x {sessions} sessions all agree in {elapsed:.1f}s")


def test_criterion_05_semidirect_closed_form():
    platform = MatrixModP(3, 1009)
    for trial in range(100):
        rng = substream(555, trial)
        g = platform.random_element(rng)
        h = platform.random_element(rng)
        m = rng.randint(1, 50)
        n = rng.randint(1, 50)
        phi = inner_automorphism(platform, h)
        out = semidirect_exchange(platform, g, phi, rng, m=m, n=n)
        assert out.key_alice == out.key_bob
        hmn = square_and_multiply(platform, h, m + n)
        hg = platform.multiply(h, g)
        closed = platform.multiply(
            platform.invert(hmn), square_and_multiply(platform, hg, m + n)
        )
        assert out.key_alice == closed
    report(5, "closed form h^-(m+n) (hg)^(m+n) exact on 100 GL(3, Z_1009) sessions")


def test_criterion_06_square_and_multiply_g22():
    platforms = [
        FreePlatform(3),
        CyclicModP(23, 5),
        PermutationPlatform(5),
        MatrixModP(3, 7),
        DirectFreePlatform(2, 2),
    ]
    for platform in platforms:
        g = platform.random_element(random.Random(6))
        value, mults = pow_with_count(platform, g, 22)
        naive = platform.identity()
        for _ in range(22):
            naive = platform.multiply(naive, g)
        assert value == naive
        assert mults <= 9
    report(6, "g^22 equals the naive 22-fold product with <= 9 multiplications "
              "on all 5 platforms")


def test_criterion_07_eve_emulation_bound():
    start = time.monotonic()
    stats = run_trick_treat_trials(5000, seed=2024, len_range=(16, 24))
    assert 0.72 <= stats.eve_rate <= 0.78
    assert 0.46 <= stats.case_rate(1) <= 0.54
    assert stats.legit_rate >= 0.99
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        7,
        f"eve={stats.eve_rate:.4f}, case1={stats.case_rate(1):.4f}, "
        f"legit={stats.legit_rate:.4f} over 5000 trials in {elapsed:.1f}s",
    )


def _random_expr(rng, length=4):
    return Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(length)), 2)


def test_criterion_08_reduction_suite():
    setup = random.Random(808)
    A, B = block_commuting_subgroups(4, 5, 2, 2, setup)
    platform = A.platform
    # the three probe identities and the w^-1 reduction, 1000 random each
    for trial in range(1000):
        rng = substream(8080, trial)
        w = platform.random_element(rng)
        a = eval_word(A, _random_expr(rng))
        b = eval_word(B, _random_expr(rng))
        b1 = eval_word(B, _random_expr(rng))
        w_prime = platform.multiply(platform.multiply(a, w), b)
        inst = commutator_probe_decomposition(w_prime, b1, w)
        assert inst.v == platform.conjugate(inst.u, b)
        inst = commutator_probe_factorization(platform.multiply(a, b), b1)
        assert inst.v == platform.conjugate(inst.u, b)
        inst = commutator_probe_csp(platform.conjugate(w, a), b, w)
        assert inst.v == platform.conjugate(inst.u, a)
        w2 = decomposition_to_factorization(w, w_prime)
        assert w2 == platform.multiply(platform.conjugate(a, w), b)
    # the normal-subgroup attack succeeds on 200 direct-product sessions
    dp = DirectFreePlatform(2, 2)
    DA, DB = direct_factor_subgroups(dp)
    successes = 0
    for i in range(200):
        rng = substream(8181, i)
        out = decomposition_exchange(dp, dp.random_element(rng), DA, DB, rng,
                                     expr_len=(2, 6))
        rep = attack_decomposition_normal(out.transcript)
        assert rep.success and rep.recovered_key == out.key_alice
        successes += 1
    assert successes == 200
    # and fails its membership precondition on 200 block-matrix sessions
    failures = 0
    for i in range(200):
        rng = substream(8282, i)
        out = decomposition_exchange(platform, platform.random_element(rng),
                                     A, B, rng, expr_len=(2, 6))
        rep = attack_decomposition_normal(out.transcript)
        assert not rep.success
        failures += 1
    assert failures == 200
    report(8, "4 identities exact on 1000 instances; normal attack 200/200 "
              "on direct product, 0/200 on block matrices")


def test_criterion_09_any_solving_pair_gives_the_key():
    setup = random.Random(909)
    A, B = block_commuting_subgroups(4, 5, 2, 2, setup)
    platform = A.platform
    for trial in range(100):
        rng = substream(9090, trial)
        # block-diagonal public element: its A-part centralizes it inside A
        a_part = eval_word(A, _random_expr(rng))
        b_part = eval_word(B, _random_expr(rng))
        w = platform.multiply(a_part, b_part)
        out = decomposition_exchange(platform, w, A, B, rng, expr_len=(2, 5))
        s = {k: v.value for k, v in out.private_state.items()}
        bob_msg = platform.parse_element(out.transcript.find("b1*w*b2"))
        alice_msg = platform.parse_element(out.transcript.find("a1*w*a2"))
        c = a_part
        a1_alt = platform.multiply(s["a1"], c)
        a2_alt = platform.multiply(platform.invert(c), s["a2"])
        assert platform.multiply(platform.multiply(a1_alt, w), a2_alt) == alice_msg
        assert (a1_alt, a2_alt) != (s["a1"], s["a2"]) or c == platform.identity()
        assert key_from_decomposition_solution(a1_alt, a2_alt, bob_msg) == out.key_alice
    report(9, "100 planted non-Alice solving pairs all recover the session key")


def _subset_sum_dp(values, target):
    reachable = {0: ()}
    for i, v in enumerate(values):
        additions = {}
        for s, picks in reachable.items():
            ns = s + v
            if ns not in reachable and ns not in additions:
                additions[ns] = picks + (i,)
        reachable.update(additions)
    return reachable.get(target)


def test_criterion_10_ssp_against_integer_dp():
    start = time.monotonic()
    fp = FreePlatform(1)

    def power(c):
        return fp.element(Word((1,) * c if c >= 0 else (-1,) * (-c), 1))

    for trial in range(200):
        rng = substream(1010, trial)
        k = rng.randint(4, 12)
        values = [rng.choice([v for v in range(-9, 10) if v]) for v in range(k)]
        target = rng.randint(-15, 15)
        witness = ssp_decide(fp, [power(c) for c in values], power(target))
        oracle = _subset_sum_dp(values, target)
        assert (witness is None) == (oracle is None)
        if witness is not None:
            assert sum(v for v, e in zip(values, witness) if e) == target
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(10, f"200 abelian-encoded instances agree with the DP oracle "
               f"in {elapsed:.1f}s")


def test_criterion_11_elgamal():
    platform = CyclicModP(1009, 11)
    distinct_pairs = 0
    compared = 0
    for trial in range(1000):
        rng = substream(1111, trial)
        out = elgamal_session(platform, rng)
        assert out.key_alice == out.key_bob
        assert len(out.transcript.records) == 3  # pk + exactly 2 ciphertext parts
    # same plaintext, fresh randomness: encryptions differ in >= 99% of pairs
    m = platform.element(7)
    pk = square_and_multiply(platform, platform.element(11), 77)
    previous = None
    for trial in range(1000):
        rng = substream(1212, trial)
        ct = elgamal_encrypt(platform, pk, m, rng)
        if previous is not None:
            compared += 1
            if ct != previous:
                distinct_pairs += 1
        previous = ct
    assert distinct_pairs / compared >= 0.99
    report(11, f"1000 roundtrips exact; {distinct_pairs}/{compared} "
               "same-plaintext encryptions distinct; ciphertext is 2 elements")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def run_everything(base):
        base.mkdir()
        files = []
        for protocol in ("dh", "elgamal", "ko-lee", "aag", "decomp", "twisted",
                         "centralizer", "commutative", "factor", "semidirect"):
            f = base / f"{protocol}.txt"
            assert cli_main(["simulate", "--protocol", protocol, "--seed", "12",
                             "--out", str(f)]) == 0
            files.append(f)
        direct = base / "direct.txt"
        assert cli_main(["simulate", "--protocol", "decomp", "--platform", "direct",
                         "--seed", "12", "--out", str(direct)]) == 0
        files.append(direct)
        rep = base / "normal.txt"
        assert cli_main(["attack", "--transcript", str(direct), "--method", "normal",
                         "--out", str(rep)]) == 0
        files.append(rep)
        rep2 = base / "dlog.txt"
        assert cli_main(["attack", "--transcript", str(base / "dh.txt"),
                         "--method", "dlog", "--bound", "2000",
                         "--out", str(rep2)]) == 0
        files.append(rep2)
        mc = base / "mc.txt"
        assert cli_main(["montecarlo", "--trials", "300", "--seed", "12",
                         "--out", str(mc)]) == 0
        files.append(mc)
        pub, priv, ct = base / "pub.txt", base / "priv.txt", base / "ct.txt"
        assert cli_main(["wp-encrypt", "keygen", "--seed", "12",
                         "--out-pub", str(pub), "--out-priv", str(priv)]) == 0
        assert cli_main(["wp-encrypt", "encrypt", "--bit", "1", "--pub", str(pub),
                         "--seed", "12", "--out", str(ct)]) == 0
        files += [pub, priv, ct]
        hpub, hpriv, hct = base / "hpub.txt", base / "hpriv.txt", base / "hct.txt"
        assert cli_main(["hom", "keygen", "--seed", "12", "--out-pub", str(hpub),
                         "--out-priv", str(hpriv)]) == 0
        assert cli_main(["hom", "encrypt", "--pub", str(hpub), "--word", "1,2",
                         "--steps", "6", "--seed", "12", "--out", str(hct)]) == 0
        files += [hpub, hpriv, hct]
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
        return digest.hexdigest()

    first = run_everything(tmp_path / "one")
    second = run_everything(tmp_path / "two")
    capsys.readouterr()
    assert first == second
    report(12, f"full CLI rerun hash {first[:16]} identical")
