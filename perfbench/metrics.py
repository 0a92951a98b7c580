"""Metric names and units; BENCHMARK.json lists the same ones."""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PLATFORM_KINDS = ("free", "cyclic", "perm", "matrix", "direct")
PROTOCOLS = ("dh", "elgamal", "ko-lee", "aag", "decomp", "twisted",
             "centralizer", "commutative", "factor", "semidirect")


def _per_layer() -> dict:
    m = {
        "words.Word.init.calls": "count",
        "words.free_reduce.calls": "count",
        "words.free_reduce.self_ms": "ms",
        "words.free_reduce.letters_in": "count",
    }
    for t in ("t1", "t2", "t3", "t4"):
        m[f"tietze.move.{t}.calls"] = "count"
    m["tietze.move.self_ms"] = "ms"
    m["tietze.compose_maps.calls"] = "count"
    m["tietze.compose_maps.self_ms"] = "ms"
    m["tietze.break_relators.self_ms"] = "ms"
    for name in ("tietze.apply_map", "rewriting.apply"):
        m[f"{name}.calls"] = "count"
        m[f"{name}.self_ms"] = "ms"
    for kind in PLATFORM_KINDS:
        for op in ("multiply", "invert"):
            m[f"platforms.{kind}.{op}.calls"] = "count"
            m[f"platforms.{kind}.{op}.self_ms"] = "ms"
    for p in PROTOCOLS:
        m[f"protocols.{p}.session_p50_ms"] = "ms"
        m[f"protocols.{p}.group_ops"] = "count"
    for phase in ("keygen", "encrypt", "decrypt", "eve"):
        m[f"wordenc.{phase}.p50_ms"] = "ms"
    for rate in ("legit_accuracy", "eve_accuracy", "case1_rate"):
        m[f"wordenc.{rate}"] = "ratio"
    for phase in ("keygen", "encrypt", "decrypt"):
        m[f"homenc.{phase}.p50_ms"] = "ms"
    m["homenc.ciphertext_letters"] = "letters"
    m.update({
        "attacks.calls": "count",
        "attacks.self_ms": "ms",
        "attacks.candidates": "count",
        "attacks.candidates_per_s": "1/s",
        "attacks.distinct_ratio": "ratio",
        "problems.calls": "count",
        "problems.self_ms": "ms",
        "cli.main.calls": "count",
        "cli.main.self_ms": "ms",
        "cli.parse.self_ms": "ms",
        "cli.import_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "failed_ratio": "ratio",
    })
    return m


PER_LAYER = _per_layer()
