"""The four workloads.

Each workload builds its fixtures from the seed in ``__init__`` (that is
set-up) and then serves ``op(i)``: op ``i`` depends only on the seed and
``i``, so the first N ops of any two runs at one seed are identical.
``op`` returns (CPU seconds spent in the calls into the package, whether
the output passed its check, the raw output for the digest).  Checks do
not trust the package's own arithmetic: hom and search answers are
recomputed with ``reference``, sessions compare the two parties' keys,
and trick-and-treat rates must fall in the bands of criterion 07.

An op is one trick-and-treat trial, one protocol session, one
homomorphic roundtrip or one search instance.  Ops run in a closed loop:
one caller, one thread, the next op starts when the last one returns.
"""

from __future__ import annotations

import io
import os
import random
import shutil
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from statistics import median
from time import process_time as cpu_clock

import reference as ref
from metrics import PROTOCOLS


def stream(tag: str, seed: int, i: int) -> random.Random:
    """Input stream ``i`` of one workload: string seeds hash with SHA-512."""
    return random.Random(f"{tag}/{seed}/{i}")


def p50_ms(values) -> float:
    return median(values) * 1000.0 if values else 0.0


class Workload:
    name = ""
    min_ops = 0    # every run does at least this many; the digest covers exactly these
    trace_ops = 0  # ops of the traced phase: a fixed prefix, so its counts repeat

    def __init__(self, seed: int, inject: bool) -> None:
        self.seed = seed
        self.inject = inject  # corrupt every output, to show the checks bite
        self.tracer = None
        self.phase = defaultdict(lambda: array("d"))  # phase -> seconds, untraced only

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def begin_traced(self, tracer) -> None:
        self.tracer = tracer

    def serialize(self, out) -> str:
        raise NotImplementedError

    def final_errors(self) -> list:
        """Checks on pooled outputs; empty when they pass."""
        return []

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    def _time(self, phase: str, dt: float) -> None:
        if not self.traced:
            self.phase[phase].append(dt)


# ---------------------------------------------------------------------------
# trick-and-treat trials (the loop of `gtc montecarlo`, CLI defaults)

class TrickTreat(Workload):
    name = "trick-treat"
    min_ops = 5000  # the trial count of acceptance criterion 07
    trace_ops = 1500

    def __init__(self, seed, inject):
        super().__init__(seed, inject)
        from gtc import tietze, wordenc, words

        self.wordenc, self.tietze, self.words = wordenc, tietze, words
        self.tally = Counter()

    def op(self, i):
        we = self.wordenc
        rng = stream(self.name, self.seed, i)
        t0 = cpu_clock()
        key = we.trick_treat_keygen(2, 6, rng)
        t1 = cpu_clock()
        bit = rng.randrange(2)
        ct = we.trick_treat_encrypt(bit, key.publics, (16, 24), rng)
        t2 = cpu_clock()
        got = we.trick_treat_decrypt(ct, key.private)
        t3 = cpu_clock()
        guess, case = we.eve_emulation_attack(ct, we.oracle_from_private(key.private), rng)
        t4 = cpu_clock()
        for phase, dt in (("keygen", t1 - t0), ("encrypt", t2 - t1),
                          ("decrypt", t3 - t2), ("eve", t4 - t3)):
            self._time(phase, dt)
        if self.inject:
            got = 1 - got
        self.tally.update(trials=1, legit=got == bit, eve=guess == bit, case1=case == 1)
        # case 0 means neither word is trivial: the sender broke the scheme
        return t4 - t0, case in (1, 2, 3), (key.publics, ct, bit, got, guess, case)

    def serialize(self, out):
        publics, ct, bit, got, guess, case = out
        fmt, word = self.tietze.format_presentation, self.words.serialize_word
        return "\n".join([fmt(publics[0]), fmt(publics[1]), word(ct.w1), word(ct.w2),
                          f"{bit} {got} {guess} {case}"])

    def rates(self):
        n = max(self.tally["trials"], 1)
        return {k: self.tally[k] / n for k in ("legit", "eve", "case1")}

    def final_errors(self):
        # the bands of acceptance criterion 07: the 3/4 adversary bound
        r = self.rates()
        errors = []
        if not 0.72 <= r["eve"] <= 0.78:
            errors.append(f"eve accuracy {r['eve']:.4f} outside [0.72, 0.78]")
        if not 0.46 <= r["case1"] <= 0.54:
            errors.append(f"case-1 rate {r['case1']:.4f} outside [0.46, 0.54]")
        if r["legit"] < 0.99:
            errors.append(f"legitimate accuracy {r['legit']:.4f} below 0.99")
        return errors

    def layer_metrics(self):
        r = self.rates()
        out = {f"wordenc.{p}.p50_ms": p50_ms(self.phase[p])
               for p in ("keygen", "encrypt", "decrypt", "eve")}
        out.update({"wordenc.legit_accuracy": r["legit"], "wordenc.eve_accuracy": r["eve"],
                    "wordenc.case1_rate": r["case1"]})
        return out


# ---------------------------------------------------------------------------
# protocol sessions, round-robin on the setups of acceptance criterion 04

class Sessions(Workload):
    name = "sessions"
    min_ops = 2200  # 200 rounds of the 11 setups
    trace_ops = 1100

    def __init__(self, seed, inject):
        super().__init__(seed, inject)
        from gtc import platforms as pf
        from gtc import protocols as pr

        self.pr = pr
        setup = stream(self.name + "-setup", seed, 0)
        cp = pf.CyclicModP(1009, 11)
        A, B = pf.block_commuting_subgroups(4, 5, 2, 2, setup)
        mpf = A.platform
        w = mpf.random_element(setup)
        fp = pf.FreePlatform(4)
        fgens = fp.generators()
        FA, FB = pf.SubgroupGens(fp, tuple(fgens[:2])), pf.SubgroupGens(fp, tuple(fgens[2:]))
        CA = pf.cyclic_subgroup(mpf.random_element(setup))
        CB = pf.cyclic_subgroup(mpf.random_element(setup))
        mp3 = pf.MatrixModP(3, 1009)
        g3, h3 = mp3.random_element(setup), mp3.random_element(setup)
        phi3 = pr.inner_automorphism(mp3, h3)
        dp = pf.DirectFreePlatform(2, 2)
        DA, DB = pf.direct_factor_subgroups(dp)
        wd = dp.random_element(setup)
        e = (4, 8)
        self.runners = (
            ("dh", lambda r: pr.dh_exchange(cp, r)),
            ("elgamal", lambda r: pr.elgamal_session(cp, r)),
            ("ko-lee", lambda r: pr.ko_lee_exchange(mpf, w, A, B, r, expr_len=e)),
            ("aag", lambda r: pr.aag_exchange(fp, FA, FB, r, expr_len=e)),
            ("decomp", lambda r: pr.decomposition_exchange(mpf, w, A, B, r, expr_len=e)),
            ("twisted", lambda r: pr.twisted_exchange(mpf, w, A, B, r, expr_len=e)),
            ("centralizer", lambda r: pr.centralizer_exchange(mpf, w, r, cent_gens=2,
                                                              expr_len=e)),
            ("commutative", lambda r: pr.commutative_subgroups_exchange(
                mpf, w, CA, CB, r, expr_len=e)),
            ("factor", lambda r: pr.factorization_exchange(mpf, A, B, r, expr_len=e)),
            ("semidirect", lambda r: pr.semidirect_exchange(mp3, g3, phi3, r)),
            ("decomp-direct", lambda r: pr.decomposition_exchange(dp, wd, DA, DB, r,
                                                                  expr_len=e)),
        )

    def op(self, i):
        label, run = self.runners[i % len(self.runners)]
        if self.traced:
            self.tracer.op_label = label
        rng = stream(self.name, self.seed, i)
        t0 = cpu_clock()
        out = run(rng)
        dt = cpu_clock() - t0
        self._time(label, dt)
        platform = out.transcript.platform
        key_a = platform.serialize_element(out.key_alice)
        key_b = platform.serialize_element(out.key_bob)
        if self.inject:
            key_b += " 1"
        return dt, key_a == key_b, (label, out.transcript, key_a, key_b)

    def serialize(self, out):
        label, transcript, key_a, key_b = out
        return f"{label}\n{self.pr.serialize_transcript(transcript)}{key_a}\n{key_b}"

    def layer_metrics(self):
        out = {}
        for p in PROTOCOLS:
            out[f"protocols.{p}.session_p50_ms"] = p50_ms(self.phase[p])
            if self.traced:
                out[f"protocols.{p}.group_ops"] = self.tracer.group_ops[p]
        return out


# ---------------------------------------------------------------------------
# homomorphic encryption: a few keys, many roundtrips per key

def _permutation_fixtures():
    """Faithful images of the two CLI groups, from first principles."""
    a, b = (2, 1, 4, 3, 5), (3, 2, 5, 4, 1)
    return {"demo": (a, b, ref.perm_eval((a, b), (1, -2, -2, -1))), "a5": (a, b)}


class Hom(Workload):
    name = "hom"
    per_key = 32  # roundtrips per key
    min_ops = 3200
    trace_ops = 1600

    def __init__(self, seed, inject):
        super().__init__(seed, inject)
        from gtc import homenc, tietze, words

        self.homenc, self.tietze, self.words = homenc, tietze, words
        images = _permutation_fixtures()
        self.groups = []
        for name, pres, faithful in (
            ("demo", homenc.worked_example_presentation(), homenc.worked_example_faithful()),
            ("a5", homenc.a5_presentation(), homenc.a5_faithful()),
        ):
            if tuple(e.payload for e in faithful) != images[name]:
                raise RuntimeError(f"{name}: faithful images differ from the reference")
            self.groups.append((pres, faithful, images[name]))
        self.key_index = None
        self.ct_letters = 0

    def begin_traced(self, tracer):
        super().begin_traced(tracer)
        self.key_index = None  # the traced phase makes its own first key

    def op(self, i):
        k = i // self.per_key
        new_key = k != self.key_index
        if new_key:
            pres, faithful, images = self.groups[k % 2]
            rng = stream(self.name + "-key", self.seed, k)
            t0 = cpu_clock()
            self.keys = self.homenc.hom_keygen(pres, faithful, 8, 1, rng)
            self._time("keygen", cpu_clock() - t0)
            self.key_index, self.images = k, images
        keys, images = self.keys, self.images
        rng = stream(self.name, self.seed, i)
        n = keys.public.G.n_gens
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(4, 12)))
        plain = self.words.Word(letters, n)
        t0 = cpu_clock()
        ct = self.homenc.hom_encrypt(keys.public, plain, 4, rng)
        t1 = cpu_clock()
        if self.inject and ct.letters:
            ct = self.words.Word((-ct.letters[0],) + ct.letters[1:], ct.rank)
        got = self.homenc.hom_decrypt(keys, ct)
        t2 = cpu_clock()
        self._time("encrypt", t1 - t0)
        self._time("decrypt", t2 - t1)
        if self.traced:
            self.ct_letters += len(ct)
        ok = got.payload == ref.perm_eval(images, letters)
        return t2 - t0, ok, (keys if new_key else None, ct, got.payload)

    def serialize(self, out):
        keys, ct, decrypted = out
        lines = []
        if keys is not None:
            t = self.tietze
            lines += [t.format_map(keys.public.phi), t.format_presentation(keys.public.H_hat),
                      t.format_map(keys.private.phi_inv)]
        lines += [self.words.serialize_word(ct), " ".join(map(str, decrypted))]
        return "\n".join(lines)

    def layer_metrics(self):
        out = {f"homenc.{p}.p50_ms": p50_ms(self.phase[p])
               for p in ("keygen", "encrypt", "decrypt")}
        if self.traced:
            out["homenc.ciphertext_letters"] = self.ct_letters / self.trace_ops
        return out


# ---------------------------------------------------------------------------
# bounded searches, run as `gtc attack` / `gtc solve` through gtc.cli.main

def _word_text(letters) -> str:
    return ",".join(map(str, letters)) if letters else "e"


def _parse_word_text(text: str):
    return () if text == "e" else tuple(int(t) for t in text.split(","))


def _mat_text(m) -> str:
    return " ".join(str(v) for row in m for v in row)


def _random_matrix(rng, n, p, det_one=False):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        det = ref.mat_det(m, p)
        if det:
            break
    if det_one:  # scale the first row by det^-1
        inv = pow(det, p - 2, p)
        m = (tuple(v * inv % p for v in m[0]),) + m[1:]
    return m


def _reduced_word(rng, rank, lo, hi):
    out = []
    length = rng.randint(lo, hi)
    while len(out) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, rank)
        if not out or out[-1] != -letter:
            out.append(letter)
    return tuple(out)


def _report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


class Search(Workload):
    """Attack transcripts and decider instances with known answers.

    Every kind comes in a pool of ``POOL`` instances built from the seed.
    ``-found`` kinds have a planted answer inside the bound; ``-absent``
    kinds provably have none (an invariant of the action rules it out), so
    the enumeration runs to its bound.
    """

    name = "search"
    POOL = 12
    KINDS = (
        "dlog-found", "dlog-absent", "csp-found", "normal-found",
        "decomp-factor-found", "ssp-found", "ssp-absent", "kp-found", "kp-absent",
        "smp-found", "smp-absent", "factor-found", "factor-absent",
        "twisted-found", "twisted-absent", "gpcp-found", "gpcp-absent", "csp-absent",
    )
    # one round: every kind twice, except the exhaustive csp (~150 ms) once
    SLOTS = tuple((k, 0) for k in KINDS[:-1]) + (("csp-absent", 0),) + tuple(
        (k, 1) for k in KINDS[:-1])
    PER_ROUND = Counter(k for k, _ in SLOTS)
    min_ops = len(SLOTS) * 16
    trace_ops = len(SLOTS) * 6
    P, N = 5, 3  # GL(3, Z_5) for the deciders

    def __init__(self, seed, inject):
        super().__init__(seed, inject)
        from gtc import cli
        from gtc import platforms as pf
        from gtc import protocols as pr

        self.cli, self.pf, self.pr = cli, pf, pr
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.dir = os.path.join(root, ".perfbench_tmp", f"search-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.candidates = {"untraced": 0, "traced": 0}
        self.attack_s = 0.0
        self.csp_centers = []  # the conjugated element of each csp-absent instance
        self.distinct = []  # its number of distinct conjugates within the bound
        self.exhausted = [0, 0]  # distinct values, candidates examined
        setup = stream(self.name + "-setup", seed, 0)
        self.A, self.B = pf.block_commuting_subgroups(4, 5, 2, 2, setup)
        self.gens_a = [g.payload for g in self.A.gens]
        self.gens_b = [g.payload for g in self.B.gens]
        self.pool = {}
        for kind in self.KINDS:
            build = getattr(self, "_" + kind.rsplit("-", 1)[0].replace("-", "_"))
            self.pool[kind] = [
                build(stream(f"{self.name}-{kind}", seed, j), kind.endswith("found"),
                      f"{kind}-{j}")
                for j in range(self.POOL)
            ]

    def begin_traced(self, tracer):
        super().begin_traced(tracer)
        self.distinct = [ref.conjugate_orbit_size(u, self.gens_a, 6, 5)
                         for u in self.csp_centers]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _file(self, stem, text):
        path = os.path.join(self.dir, stem + ".txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    # -- instance constructors ---------------------------------------------
    # Each returns (argv, expected).  For an attack, expected is the true
    # session key, or None when the attack must fail; for a decider it is
    # a callable that verifies the witness in the parsed output.

    def _attack(self, stem, transcript_text, method, bound, key):
        path = self._file(stem, transcript_text)
        return ["attack", "--transcript", path, "--method", method, "--bound", str(bound)], key

    def _dlog(self, rng, found, stem):
        p, g, bound = 1009, 11, 600
        order = next(k for k in range(1, p) if pow(g, k, p) == 1)
        a = rng.randint(1, bound) if found else rng.randint(bound + 1, order - 1)
        b = rng.randint(1, order - 1)
        out = self.pr.dh_exchange(self.pf.CyclicModP(p, g), rng, a=a, b=b)
        key = str(pow(g, a * b, p)) if found else None
        return self._attack(stem, self.pr.serialize_transcript(out.transcript), "dlog",
                            bound, key)

    def _csp(self, rng, found, stem):
        mpf = self.A.platform
        w = mpf.random_element(rng)
        out = self.pr.ko_lee_exchange(mpf, w, self.A, self.B, rng, expr_len=(1, 3))
        text = self.pr.serialize_transcript(out.transcript)
        if found:
            s = out.private_state
            ab = ref.mat_mul(ref.mat_eval(self.gens_a, s["a"].expr.letters, 5),
                             ref.mat_eval(self.gens_b, s["b"].expr.letters, 5), 5)
            key = ref.mat_mul(ref.mat_mul(ref.mat_inv(ab, 5), w.payload, 5), ab, 5)
            return self._attack(stem, text, "csp", 4, _mat_text(key))
        # conjugation preserves the trace: no conjugator exists at any length
        m = _random_matrix(rng, 4, 5)
        while ref.mat_trace(m, 5) == ref.mat_trace(w.payload, 5):
            m = _random_matrix(rng, 4, 5)
        old = out.transcript.find("w^a")
        text = text.replace(f" w^a {old}\n", f" w^a {_mat_text(m)}\n")
        self.csp_centers.append(w.payload)
        return self._attack(stem, text, "csp", 6, None)

    def _normal(self, rng, found, stem):
        dp = self.pf.DirectFreePlatform(2, 2)
        DA, DB = self.pf.direct_factor_subgroups(dp)
        w = dp.random_element(rng)
        out = self.pr.decomposition_exchange(dp, w, DA, DB, rng, expr_len=(2, 6))
        s = {k: v.expr.letters for k, v in out.private_state.items()}
        # A is the first factor and B the second; they commute elementwise
        u = ref.free_reduce(s["a1"] + w.payload[0].letters + s["a2"])
        v = ref.free_reduce(s["b1"] + w.payload[1].letters + s["b2"])
        key = f"{_word_text(u)}|{_word_text(v)}"
        return self._attack(stem, self.pr.serialize_transcript(out.transcript), "normal", 0, key)

    def _decomp_factor(self, rng, found, stem):
        mpf = self.A.platform
        w = mpf.random_element(rng)
        out = self.pr.decomposition_exchange(mpf, w, self.A, self.B, rng, expr_len=(1, 2))
        s = {k: v.expr.letters for k, v in out.private_state.items()}
        key = w.payload  # a1 (b1 w b2) a2
        for gens, left, right in ((self.gens_b, s["b1"], s["b2"]),
                                  (self.gens_a, s["a1"], s["a2"])):
            key = ref.mat_mul(ref.mat_mul(ref.mat_eval(gens, left, 5), key, 5),
                              ref.mat_eval(gens, right, 5), 5)
        return self._attack(stem, self.pr.serialize_transcript(out.transcript),
                            "decomp-factor", 3, _mat_text(key))

    def _solve(self, stem, problem, lines, check):
        path = self._file(stem, "\n".join([f"problem: {problem}"] + lines) + "\n")
        return ["solve", problem, "--instance", path], check

    def _matrix_items(self, rng, k):
        return [_random_matrix(rng, self.N, self.P, det_one=True) for _ in range(k)]

    def _target(self, value, found):
        """The planted value, or one of determinant 2: the items all have
        determinant 1, so no product of them has determinant 2."""
        if found:
            return value
        return ref.mat_mul(value, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), self.P)

    def _product(self, factors):
        out = ref.mat_identity(self.N)
        for m in factors:
            out = ref.mat_mul(out, m, self.P)
        return out

    def _matrix_problem(self, stem, problem, items, target, bound, check):
        lines = [f"platform: matrix {self.N} {self.P}"]
        lines += [f"elem: {_mat_text(m)}" for m in items]
        lines.append(f"target: {_mat_text(target)}")
        if bound is not None:
            lines.append(f"bound: {bound}")
        return self._solve(stem, problem, lines, check)

    def _ssp(self, rng, found, stem):
        items = self._matrix_items(rng, 9)
        picks = [rng.randrange(2) for _ in items]
        target = self._target(self._product(m for m, e in zip(items, picks) if e), found)

        def check(r):
            exps = r["witness"].split(",")
            return self._product(m for m, e in zip(items, exps) if e == "1") == target

        return self._matrix_problem(stem, "ssp", items, target, None, check)

    def _kp(self, rng, found, stem):
        items = self._matrix_items(rng, 3)
        exps = [rng.randint(0, 3) for _ in items]
        target = self._target(self._product(m for m, e in zip(items, exps)
                                                 for _ in range(e)), found)

        def check(r):
            got = [int(v) for v in r["witness"].split(",")]
            return self._product(m for m, e in zip(items, got) for _ in range(e)) == target

        return self._matrix_problem(stem, "kp", items, target, 3, check)

    def _smp(self, rng, found, stem):
        items = self._matrix_items(rng, 3)
        seq = [rng.randrange(3) for _ in range(rng.randint(1, 4))]
        target = self._target(self._product(items[j] for j in seq), found)

        def check(r):
            got = [] if r["witness"] == "e" else [int(v) - 1 for v in r["witness"].split(",")]
            return self._product(items[j] for j in got) == target

        return self._matrix_problem(stem, "smp", items, target, 4, check)

    def _factor(self, rng, found, stem):
        ga, gb = self._matrix_items(rng, 2), self._matrix_items(rng, 2)
        a, b = _reduced_word(rng, 2, 0, 3), _reduced_word(rng, 2, 0, 3)
        value = ref.mat_mul(ref.mat_eval(ga, a, self.P), ref.mat_eval(gb, b, self.P), self.P)
        target = self._target(value, found)
        lines = [f"platform: matrix {self.N} {self.P}",
                 "agens: " + ";".join(_mat_text(m) for m in ga),
                 "bgens: " + ";".join(_mat_text(m) for m in gb),
                 f"target: {_mat_text(target)}", "bound: 3"]

        def check(r):
            got = ref.mat_mul(ref.mat_eval(ga, _parse_word_text(r["a-expr"]), self.P),
                              ref.mat_eval(gb, _parse_word_text(r["b-expr"]), self.P), self.P)
            return got == target

        return self._solve(stem, "factor", lines, check)

    def _twisted(self, rng, found, stem):
        phi = [_reduced_word(rng, 2, 1, 3) for _ in range(2)]
        psi = [_reduced_word(rng, 2, 1, 3) for _ in range(2)] if found else phi
        u = _reduced_word(rng, 2, 2, 5)
        if found:
            w = _reduced_word(rng, 2, 1, 3)
            v = ref.free_reduce(ref.free_inv(ref.free_map(psi, w)) + u + ref.free_map(phi, w))
        else:
            # with phi == psi a solution makes v a conjugate of u, which
            # keeps exponent sums; these differ
            v = _reduced_word(rng, 2, 2, 5)
            while ref.exponent_sums(v, 2) == ref.exponent_sums(u, 2):
                v = _reduced_word(rng, 2, 2, 5)
        lines = ["rank: 2", f"source: {_word_text(u)}", f"target: {_word_text(v)}",
                 "phi: " + ";".join(map(_word_text, phi)),
                 "psi: " + ";".join(map(_word_text, psi)), "bound: 3"]

        def check(r):
            w = _parse_word_text(r["witness"])
            return (ref.free_reduce(u + ref.free_map(phi, w))
                    == ref.free_reduce(ref.free_map(psi, w) + v))

        return self._solve(stem, "twisted", lines, check)

    def _gpcp(self, rng, found, stem):
        us = [_reduced_word(rng, 2, 1, 3) for _ in range(2)]
        vs = [_reduced_word(rng, 2, 1, 3) for _ in range(2)] if found else us
        a = _reduced_word(rng, 2, 0, 3)
        if found:
            t = _reduced_word(rng, 2, 1, 3)
            b = ref.free_reduce(a + ref.free_map(us, t) + ref.free_inv(ref.free_map(vs, t)))
        else:
            # with u == v, a t(u) = b t(u) forces a == b
            b = _reduced_word(rng, 2, 0, 3)
            while b == a:
                b = _reduced_word(rng, 2, 0, 3)
        lines = ["rank: 2"] + [f"u: {_word_text(x)}" for x in us]
        lines += [f"v: {_word_text(x)}" for x in vs]
        lines += [f"a: {_word_text(a)}", f"b: {_word_text(b)}", "bound: 3"]

        def check(r):
            t = _parse_word_text(r["term"])
            return (ref.free_reduce(a + ref.free_map(us, t))
                    == ref.free_reduce(b + ref.free_map(vs, t)))

        return self._solve(stem, "gpcp", lines, check)

    # -- ops ----------------------------------------------------------------

    def op(self, i):
        kind, occurrence = self.SLOTS[i % len(self.SLOTS)]
        j = (i // len(self.SLOTS)) * self.PER_ROUND[kind] + occurrence
        argv, expected = self.pool[kind][j % self.POOL]
        found = kind.endswith("found")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = cpu_clock()
            code = self.cli.main(argv)
            dt = cpu_clock() - t0
        text = out.getvalue()
        r = _report(text)
        if argv[0] == "attack":
            work = int(r.get("work-candidates", r.get("work-multiplications", 0)))
            self.candidates["traced" if self.traced else "untraced"] += work
            if not self.traced:
                self.attack_s += dt
            elif kind == "csp-absent":
                self.exhausted[0] += self.distinct[j % self.POOL]
                self.exhausted[1] += work
            verdict = r.get("success") == "true"
        else:
            answer = r.get("witness", r.get("term", r.get("a-expr")))
            verdict = answer is not None and answer != "absent"
        if self.inject:
            verdict = not verdict
        ok = code == 0 and verdict == found
        if ok and found:
            ok = r.get("recovered-key") == expected if argv[0] == "attack" else expected(r)
        return dt, ok, (kind, text)

    def serialize(self, out):
        kind, text = out
        return f"{kind}\n{text}"

    def layer_metrics(self):
        out = {}
        if self.attack_s > 0:
            out["attacks.candidates_per_s"] = self.candidates["untraced"] / self.attack_s
        if self.traced:
            out["attacks.candidates"] = self.candidates["traced"]
            if self.exhausted[1]:
                out["attacks.distinct_ratio"] = self.exhausted[0] / self.exhausted[1]
        return out


WORKLOADS = {w.name: w for w in (TrickTreat, Sessions, Hom, Search)}
