"""Spans and counters at the boundaries between the library's modules.

Tracing swaps a timing wrapper onto every module attribute that names a
traced function, so calls from one module into another, and the
benchmark's own calls, each record a span: name, start, end, parent and the
request it belongs to.  Per-run helpers such as ``push_run`` are never
wrapped.  Spans are kept in memory up to a cap (the counters see every
call) and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from trimorph.freeness import matrix_collision
from trimorph.morphisms import matrix

# (defining module, function).  Every binding of the function object in any
# trimorph module is wrapped, so calls inside a module, such as power ->
# compose, are seen as well as calls across modules.
TRACED = (
    ("classifier", "classify"),
    ("classifier", "direct_commute"),
    ("morphisms", "power"),
    ("morphisms", "compose"),
    ("morphisms", "apply"),
    ("morphisms", "to_triangular"),
    ("morphisms", "b_image_shape"),
    ("omega", "gap_sequence"),
    ("omega", "gap_sequence_direct"),
    ("omega", "omega_prefix"),
    ("numtheory", "mult_dependence"),
    ("numtheory", "primitive_root"),
    ("numtheory", "val_and_digit"),
    ("freeness", "find_relation"),
    ("sweep", "enumerate_morphisms"),
    ("sweep", "sweep_range"),
)
# Word functions are traced only where omega and classifier call them.
WORDS_TRACED = ("concat", "strip_leading", "take_prefix", "b_core", "words_commute")
WORDS_CALLERS = ("omega", "classifier")

CASES = (
    "SingularBImage",
    "SingularAImage",
    "BothGapOne",
    "GapOneVsMany",
    "MultIndependent",
    "MultDependent",
)
# Layers whose self time is reported; words is reported as words.s.
SELF_TIME_LAYERS = ("morphisms", "numtheory", "omega", "classifier", "freeness", "sweep")
SPAN_CAP = 50_000


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work (den = 0)."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, request)
        self.spans: list[tuple] = []
        self.request: int | None = None
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.calls_from: Counter = Counter()  # (name, module holding the binding)
        self.case_n: Counter = Counter()
        self.case_s: defaultdict = defaultdict(float)
        self.apply_runs_out = 0
        self.apply_runs_max = 0
        self.relations_found = 0
        self.commute_pairs: list = []
        self.relation_args: list = []
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._ids = 0
        self._undo: list = []
        self._caches: dict = {}
        self.cache_stats: dict = {}

    # --- spans

    def _enter(self):
        self._ids += 1
        frame = [self._ids, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, binding, frame, start, end) -> float:
        self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.calls[name] += 1
        self.calls_from[name, binding] += 1
        self.seconds[name] += dur
        self.self_seconds[name] += dur - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], name, start, end, parent[0] if parent else None, self.request)
            )
        return dur

    def span(self, name: str, fn, *args):
        """fn(*args) inside a span recorded under name."""
        frame = self._enter()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(name, "bench", frame, start, perf_counter())

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a span timed in another process (perf_counter is system-wide)."""
        self._ids += 1
        self.calls[name] += 1
        self.seconds[name] += end - start
        self.self_seconds[name] += end - start
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self._ids, name, start, end, parent, self.request))
        return self._ids

    def _wrapper(self, name: str, binding: str, fn, post):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = exit_(name, binding, frame, start, perf_counter())
            if post is not None:
                post(args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counts taken where the work happens

    def _post_classify(self, args, report, dur) -> None:
        self.case_n[report.case] += 1
        self.case_s[report.case] += dur

    def _post_direct_commute(self, args, result, dur) -> None:
        self.commute_pairs.append(args[:2])

    def _post_apply(self, args, word, dur) -> None:
        runs = len(word.runs)
        self.apply_runs_out += runs
        if runs > self.apply_runs_max:
            self.apply_runs_max = runs

    def _post_find_relation(self, args, rel, dur) -> None:
        self.relations_found += rel is not None
        self.relation_args.append(args[:3])  # callers pass the depth

    # --- install and remove the wrappers

    def install(self) -> None:
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("trimorph.")
        }
        posts = {
            "classifier.classify": self._post_classify,
            "classifier.direct_commute": self._post_direct_commute,
            "morphisms.apply": self._post_apply,
            "freeness.find_relation": self._post_find_relation,
        }
        targets = [(mod, fn, f"{mod}.{fn}", list(mods)) for mod, fn in TRACED]
        targets += [("words", fn, f"words.{fn}", WORDS_CALLERS) for fn in WORDS_TRACED]
        for defmod, fname, name, holders in targets:
            original = getattr(mods[defmod], fname)
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info())
            for holder in holders:
                mod = mods[holder]
                if mod.__dict__.get(fname) is original:
                    self._undo.append((mod, fname, original))
                    setattr(mod, fname, self._wrapper(name, holder, original, posts.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            mod, fname, original = self._undo.pop()
            setattr(mod, fname, original)
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            self.cache_stats[name] = (after.hits - before.hits, after.misses - before.misses)

    # --- results

    def classifier_screen_clears(self) -> int:
        """direct_commute calls with M(g1) M(g2) != M(g2) M(g1): a matrix
        screen alone proves those pairs do not commute."""
        mats: dict[int, tuple] = {}

        def rows(g):
            key = id(g)
            if key not in mats:
                mats[key] = matrix(g)
            return mats[key]

        return sum(rows(g1) @ rows(g2) != rows(g2) @ rows(g1) for g1, g2 in self.commute_pairs)

    def freeness_screen_clears(self) -> int:
        """find_relation calls that a collision-free matrix search at the
        same depth proves relation-free."""
        seen: dict[tuple, bool] = {}
        cleared = 0
        for g1, g2, depth in self.relation_args:
            key = (id(g1), id(g2), depth)
            if key not in seen:
                seen[key] = not matrix_collision(g1, g2, depth)
            cleared += seen[key]
        return cleared

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer measures, by name."""
        out: dict[str, float] = {}

        def calls_s(name: str) -> None:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]

        for name in (
            "classifier.direct_commute",
            "classifier.classify",
            "morphisms.power",
            "morphisms.apply",
            "morphisms.compose",
            "morphisms.to_triangular",
            "morphisms.b_image_shape",
            "omega.gap_sequence",
            "omega.gap_sequence_direct",
            "omega.omega_prefix",
            "numtheory.mult_dependence",
            "numtheory.primitive_root",
            "freeness.find_relation",
            "sweep.sweep_range",
        ):
            calls_s(name)
        out["classifier.screen_would_clear_ratio"] = ratio(
            self.classifier_screen_clears(), len(self.commute_pairs)
        )
        for case in CASES:
            out[f"classifier.case.{case}.n"] = self.case_n[case]
            out[f"classifier.case.{case}.s"] = self.case_s[case]
        out["morphisms.apply.runs_out"] = self.apply_runs_out
        out["morphisms.apply.runs_max"] = self.apply_runs_max
        for name in ("morphisms.to_triangular", "numtheory.mult_dependence"):
            hits, misses = self.cache_stats.get(name, (0, 0))
            out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        out["numtheory.val_and_digit.calls"] = self.calls["numtheory.val_and_digit"]
        out["freeness.find_relation.found_ratio"] = ratio(
            self.relations_found, self.calls["freeness.find_relation"]
        )
        out["freeness.compose_calls"] = self.calls_from["morphisms.compose", "freeness"]
        out["freeness.screen_would_clear_ratio"] = ratio(
            self.freeness_screen_clears(), len(self.relation_args)
        )
        words = [name for name in self.calls if name.startswith("words.")]
        out["words.calls"] = sum(self.calls[n] for n in words)
        out["words.s"] = sum(self.seconds[n] for n in words)
        out["sweep.enumerate_morphisms.s"] = self.seconds["sweep.enumerate_morphisms"]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for n, s in self.self_seconds.items() if n.startswith(layer + ".")
            )
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, with their self time."""
        covered: defaultdict = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "self": end - start - covered[sid],
                        }
                    )
                    + "\n"
                )
