"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in place, by a wrapper
that records one span (function, start, end, parent span, op id) and
then calls the original. A function is replaced in every loaded
``raagcrypt`` module that holds it, so calls made inside the library
(``sharing`` calling ``raag.is_trivial``, say) are seen too.
``SimplicialGraph.__init__`` is replaced on the class itself, so
``isinstance`` and ``__eq__`` keep working. ``uninstall`` puts every
original back.

Spans stay in memory until the run ends. All times are integer
nanoseconds from ``perf_counter_ns``, so the self times of an op's
spans add up exactly to the op's duration. There is one thread and no
queue, so no span ever waits on another and no wait time is recorded.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

OP = "bench.op"

# layer -> the public functions it covers, as (module, attribute path)
LAYERS = {
    "raag.solve": [("raagcrypt.raag", "is_trivial")],
    "raag.sample": [("raagcrypt.raag", "sample_trivial_word"),
                    ("raagcrypt.raag", "sample_nontrivial_word")],
    "words.parse": [("raagcrypt.words", "parse_word")],
    "words.format": [("raagcrypt.words", "format_word")],
    "sharing.deal": [("raagcrypt.sharing", "deal_nn"), ("raagcrypt.sharing", "deal_tn"),
                     ("raagcrypt.sharing", "encode_column")],
    "sharing.decode": [("raagcrypt.sharing", "decode_share_nn"),
                       ("raagcrypt.sharing", "decode_share_tn"),
                       ("raagcrypt.sharing", "decode_column")],
    "sharing.codec": [("raagcrypt.sharing", "format_share"), ("raagcrypt.sharing", "parse_share")],
    "sharing.reconstruct": [("raagcrypt.sharing", "reconstruct_nn"),
                            ("raagcrypt.sharing", "lagrange_reconstruct")],
    "graphs.build": [("raagcrypt.graphs", "SimplicialGraph.__init__")],
    "graphs.verify": [("raagcrypt.graphs", "verify_graph_homomorphism"),
                      ("raagcrypt.graphs", "verify_induced_subgraph_isomorphism")],
    "graphs.search": [("raagcrypt.graphs", "find_graph_homomorphism"),
                      ("raagcrypt.graphs", "find_induced_subgraph_isomorphism")],
    "auth.commit": [("raagcrypt.auth", "hom_commit"), ("raagcrypt.auth", "sub_commit")],
    "auth.respond": [("raagcrypt.auth", "hom_respond"), ("raagcrypt.auth", "sub_respond")],
    "auth.verify": [("raagcrypt.auth", "hom_verify"), ("raagcrypt.auth", "sub_verify")],
    "auth.protocol": [("raagcrypt.auth", "run_protocol")],
}


def _word_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["w"]


# counters kept at the span boundary: function -> ((counter, f(args, kwargs, result)), ...)
COUNTERS = {
    "is_trivial": (("raag.solve.letters", lambda a, k, r: len(_word_arg(a, k))),),
    "sample_trivial_word": (("raag.sample.letters", lambda a, k, r: len(r)),),
    "sample_nontrivial_word": (("raag.sample.letters", lambda a, k, r: len(r)),),
    "parse_word": (("words.parse.letters", lambda a, k, r: len(r)),),
    "encode_column": (("sharing.words", lambda a, k, r: len(r)),),
    "find_graph_homomorphism": (("graphs.search.solved", lambda a, k, r: r is not None),),
    "find_induced_subgraph_isomorphism": (("graphs.search.solved", lambda a, k, r: r is not None),),
    "run_protocol": (("auth.rounds", lambda a, k, r: len(r.rounds)),
                     ("auth.accepted", lambda a, k, r: r.accept)),
}


class TraceError(RuntimeError):
    """The recorded spans do not form a well-nested tree per op."""


class Tracer:
    def __init__(self):
        self.names = [OP]           # span kind -> function name
        self.layers = ["bench"]     # span kind -> layer
        self.spans: list[tuple[int, int, int, int, int]] = []  # kind, start, end, parent, op
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._op = -1
        self._patches = []          # (owner, attribute, original, wrapper)
        holders = [m for name, m in sys.modules.items()
                   if name == "raagcrypt" or name.startswith("raagcrypt.")]
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner = sys.modules[module]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original,
                                          self._wrap(layer, path, original)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, attr, original)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, name, original, wrapper))

    def _wrap(self, layer: str, name: str, fn):
        kind = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, counts = self.spans, self._stack, self.counts
        counters = COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (kind, start, end, parent, self._op)
            for key, f in counters:
                counts[key] = counts.get(key, 0) + f(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn, args):
        """Call ``fn(args)`` under a root span for op ``op_id``."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, op_id)

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover.

        Checks that every child lies inside its parent, that siblings do
        not overlap and that each op's self times sum to its duration.
        """
        spans = self.spans
        own = [end - start for _, start, end, _, _ in spans]
        last_end = {}  # parent -> end of its latest child
        for i, (_, start, end, parent, op) in enumerate(spans):
            if parent < 0:
                continue
            _, p_start, p_end, _, p_op = spans[parent]
            if not (p_start <= start <= end <= p_end) or op != p_op \
                    or start < last_end.get(parent, p_start):
                raise TraceError(f"span {i} is not nested inside span {parent}")
            last_end[parent] = end
            own[parent] -= end - start
        total: dict[int, int] = {}
        for (_, _, _, _, op), t in zip(spans, own):
            total[op] = total.get(op, 0) + t
        for kind, start, end, parent, op in spans:
            if parent < 0 and total[op] != end - start:
                raise TraceError(f"self times of op {op} do not add up to its duration")
        return own

    def write(self, path) -> None:
        """Spans as JSON lines: name, layer, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for kind, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[kind], self.layers[kind],
                                     start, end, parent, op]) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, work counts and self times over every traced op.

        A layer the workload never calls reads 0, ratios included.
        """
        own = self.self_times()
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        nontrivial_checks = 0
        sample_nontrivial = self.names.index("sample_nontrivial_word")
        for (kind, _, _, parent, _), t in zip(self.spans, own):
            layer = self.layers[kind]
            calls[layer] = calls.get(layer, 0) + 1
            self_ns[layer] = self_ns.get(layer, 0) + t
            if layer == "raag.solve" and parent >= 0 and self.spans[parent][0] == sample_nontrivial:
                nontrivial_checks += 1
        nontrivial_words = sum(1 for s in self.spans if s[0] == sample_nontrivial)
        c = self.counts.get

        def sec(layer):
            return (self_ns.get(layer, 0) / 1e9, "s")

        def ratio(num, den, unit):
            return (num / den if den else 0.0, unit)

        solve_letters = c("raag.solve.letters", 0)
        protocols = calls.get("auth.protocol", 0)
        return {
            "raag.solve.calls": (calls.get("raag.solve", 0), "call"),
            "raag.solve.letters": (solve_letters, "letter"),
            "raag.solve.self_s": sec("raag.solve"),
            "raag.solve.ns_per_letter": ratio(self_ns.get("raag.solve", 0), solve_letters,
                                              "ns/letter"),
            "raag.sample.calls": (calls.get("raag.sample", 0), "call"),
            "raag.sample.letters": (c("raag.sample.letters", 0), "letter"),
            "raag.sample.self_s": sec("raag.sample"),
            "raag.sample.checks_per_word": ratio(nontrivial_checks, nontrivial_words,
                                                 "check/word"),
            "words.parse.calls": (calls.get("words.parse", 0), "call"),
            "words.parse.letters": (c("words.parse.letters", 0), "letter"),
            "words.parse.self_s": sec("words.parse"),
            "words.format.calls": (calls.get("words.format", 0), "call"),
            "words.format.self_s": sec("words.format"),
            "sharing.deal.self_s": sec("sharing.deal"),
            "sharing.decode.self_s": sec("sharing.decode"),
            "sharing.codec.self_s": sec("sharing.codec"),
            "sharing.reconstruct.self_s": sec("sharing.reconstruct"),
            "sharing.words": (c("sharing.words", 0), "word"),
            "graphs.build.calls": (calls.get("graphs.build", 0), "call"),
            "graphs.build.self_s": sec("graphs.build"),
            "graphs.verify.calls": (calls.get("graphs.verify", 0), "call"),
            "graphs.verify.self_s": sec("graphs.verify"),
            "graphs.search.calls": (calls.get("graphs.search", 0), "call"),
            "graphs.search.self_s": sec("graphs.search"),
            "graphs.search.solved_frac": ratio(c("graphs.search.solved", 0),
                                               calls.get("graphs.search", 0), "fraction"),
            "auth.commit.self_s": sec("auth.commit"),
            "auth.respond.self_s": sec("auth.respond"),
            "auth.verify.self_s": sec("auth.verify"),
            "auth.protocol.self_s": sec("auth.protocol"),
            "auth.rounds": (c("auth.rounds", 0), "round"),
            "auth.accept_frac": ratio(c("auth.accepted", 0), protocols, "fraction"),
            "bench.self_s": sec("bench"),
        }
