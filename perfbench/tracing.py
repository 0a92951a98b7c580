"""Span and count wrappers installed around the package's layers.

Nothing under ``src/gtc`` is edited.  ``Tracer.install`` replaces each
traced function or method by a wrapper: methods on their class, module
functions in every ``gtc`` module that holds a binding to them (``from
.words import free_reduce`` copies the name into ``platforms``,
``rewriting`` and ``tietze``).  ``Tracer.uninstall`` puts the originals
back.

A span records (name, start, end, parent span, op id); spans stay in
memory until the run ends.  Counts are kept apart from timings: they
depend only on the seed and the op count, so they repeat exactly.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

PLATFORM_KINDS = {
    "FreePlatform": "free",
    "CyclicModP": "cyclic",
    "PermutationPlatform": "perm",
    "MatrixModP": "matrix",
    "DirectFreePlatform": "direct",
}

ATTACK_FUNCTIONS = (
    "brute_force_dlog", "brute_force_csp", "enumerate_subgroup_values",
    "decomposition_to_factorization", "normal_subgroup_attack",
    "key_from_decomposition_solution", "commutator_probe_decomposition",
    "commutator_probe_factorization", "commutator_probe_csp",
    "uniqueness_check", "length_based_attack", "attack_dh_dlog",
    "attack_ko_lee_csp", "attack_decomposition_normal",
    "attack_decomposition_factor", "attack_twisted_commutator_probe",
    "attack_aag_length_based",
)

PROBLEM_FUNCTIONS = (
    "ssp_decide", "kp_decide_bounded", "smp_decide_bounded",
    "gpcp_bounded_search", "twisted_conjugacy_bounded",
    "factorization_decide_bounded",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.group_ops: Counter = Counter()  # platform calls per op label
        self.op_id = -1
        self.op_label = ""
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, count_name, group_op=False, letters=False):
        spans, stack, counts, group_ops = self.spans, self.stack, self.counts, self.group_ops
        tracer = self

        def wrapped(*args, **kwargs):
            counts[count_name] += 1
            if group_op:
                group_ops[tracer.op_label] += 1
            if letters:
                counts["words.free_reduce.letters_in"] += len(args[0].letters)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op_id)

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, fn, count_name):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, make) -> None:
        """Wrap ``module.attr`` and rebind it wherever a gtc module holds it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "gtc" or name.startswith("gtc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        from gtc import attacks, cli, platforms, problems, protocols, rewriting, tietze, words

        self._patch(words.Word, "__post_init__",
                    self._counter(words.Word.__post_init__, "words.Word.init.calls"))
        self._patch_function(words, "free_reduce", lambda f: self._span(
            f, "words.free_reduce", "words.free_reduce.calls", letters=True))
        for kind in ("T1Move", "T2Move", "T3Move", "T4Move"):
            cls = getattr(tietze, kind)
            self._patch(cls, "apply", self._span(
                cls.apply, "tietze.move", f"tietze.move.{kind[:2].lower()}.calls"))
        for fn in ("compose_maps", "apply_map", "break_relators"):
            self._patch_function(tietze, fn, lambda f: self._span(
                f, f"tietze.{fn}", f"tietze.{fn}.calls"))
        for kind in ("PairInsert", "RelatorInsert", "Substitute"):
            cls = getattr(rewriting, kind)
            self._patch(cls, "apply", self._span(
                cls.apply, "rewriting.apply", "rewriting.apply.calls"))
        for cls_name, kind in PLATFORM_KINDS.items():
            cls = getattr(platforms, cls_name)
            for op in ("multiply", "invert"):
                self._patch(cls, op, self._span(
                    cls.__dict__[op], f"platforms.{kind}.{op}",
                    f"platforms.{kind}.{op}.calls", group_op=True))
        for module, names in ((attacks, ATTACK_FUNCTIONS), (problems, PROBLEM_FUNCTIONS)):
            layer = module.__name__.split(".")[-1]
            for fn in names:
                self._patch_function(module, fn, lambda f: self._span(f, layer, f"{layer}.calls"))
        self._patch_function(cli, "main", lambda f: self._span(f, "cli.main", "cli.main.calls"))
        self._patch_function(cli, "build_parser", self._traced_parser)
        self._patch_function(protocols, "parse_transcript",
                             lambda f: self._span(f, "cli.parse", "cli.parse.calls"))
        self._patch_function(problems, "parse_instance",
                             lambda f: self._span(f, "cli.parse", "cli.parse.calls"))

    def _traced_parser(self, build_parser):
        """Time parser construction and argument parsing as ``cli.parse``."""
        traced_build = self._span(build_parser, "cli.parse", "cli.parse.calls")

        def wrapped():
            parser = traced_build()
            parser.parse_args = self._span(parser.parse_args, "cli.parse", "cli.parse.calls")
            return parser

        return wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_ms(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        totals: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            totals[name] += (end - start) * 1000.0
            if parent >= 0:
                totals[self.spans[parent][0]] -= (end - start) * 1000.0
        return dict(totals)
