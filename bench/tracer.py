"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's side: `Tracer.install`
rebinds the public functions and methods of each choicelab module at its
boundary (module attributes and class methods) to timing wrappers, and
`Tracer.uninstall` puts the originals back. Nothing in the package
changes, so a traced trial runs the same code on the same inputs as an
untraced one.

Two kinds of wrapper:

* a span wrapper records one `Span` per call (name, parent, trial, start,
  end, the oracle queries and oracle time it covers, the time covered by
  its child spans);
* a leaf wrapper, for the per-query oracle entry points that run up to
  ~1e5 times per trial, rolls its calls up into the enclosing span
  (calls, queries, seconds) instead of storing one span each.

A span's self time is its duration minus its direct children; the
"self_s" metrics of algorithm phases are the span minus the oracle time
inside it, as the README explains metric by metric.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
from collections import defaultdict
from time import perf_counter

import numpy as np

from choicelab import active, core, distance, harness, mixture, oracles, passive


class Span:
    __slots__ = (
        "id", "parent", "trial", "name", "start", "end", "queries",
        "oracle_s", "child_s", "leaves", "attrs", "error", "pending",
    )

    def __init__(self, span_id, parent, trial, name):
        self.id = span_id
        self.parent = parent
        self.trial = trial
        self.name = name
        self.start = self.end = 0.0
        self.queries = 0
        self.oracle_s = self.child_s = 0.0
        self.leaves = {}
        self.attrs = {}
        self.error = None
        self.pending = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    FIELDS = ("id", "parent", "trial", "name", "start_ns", "end_ns", "queries",
              "oracle_ns", "child_ns", "leaves", "attrs", "error")

    def to_row(self) -> list:
        """The span as one row of FIELDS; times in integer nanoseconds and
        leaves as name -> [calls, queries, ns, extra]."""
        def ns(seconds):
            return round(seconds * 1e9)

        leaves = {name: [c, q, ns(s), x] for name, (c, q, s, x) in self.leaves.items()}
        return [self.id, self.parent, self.trial, self.name, ns(self.start), ns(self.end),
                self.queries, ns(self.oracle_s), ns(self.child_s),
                leaves or None, self.attrs or None, self.error]


def _one(args, out):
    return 1


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _comparisons(args, kwargs, out):
    return {"comparisons": int(out[1])}


_BUILD_SIG = inspect.signature(passive.build_partial_order)


def _partial_order_attrs(args, kwargs, out):
    bound = _BUILD_SIG.bind(*args, **kwargs).arguments
    sets = bound["batch"].sets
    free = ~np.isin(sets, np.asarray(bound["anchors"], dtype=np.int64))
    return {
        "anchored_records": int((free.sum(axis=1) == 2).sum()),
        "resolved_pair_fraction": out.resolved_pair_fraction,
    }


class Tracer:
    """Spans of the traced trials, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.queries = 0  # oracle queries seen by every wrapper so far
        self.oracle_s = 0.0  # time spent inside oracle entry points so far
        self._stack = []
        self._patches = []
        self._ids = itertools.count()
        self._trial = None

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = Span(next(self._ids), self._stack[-1].id, self._trial, name)
        self._stack.append(span)
        return span

    def _span(self, fn, name, attrs=None, count=None):
        """Wrap fn so each call records a Span; `count(args, out)` marks an
        oracle entry point and gives its queries, `attrs(args, kwargs, out)`
        is evaluated after the trial, outside every timed interval."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = tracer._open(name)
            q0, o0 = tracer.queries, tracer.oracle_s
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                stack[-1].child_s += span.seconds
                span.queries = tracer.queries - q0
                span.oracle_s = tracer.oracle_s - o0
                tracer.spans.append(span)
            if count is not None:
                own = count(args, out)
                tracer.queries += own
                tracer.oracle_s += span.seconds
                span.queries += own
                span.oracle_s += span.seconds
            if attrs is not None:
                span.pending = (attrs, args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, fn, name, count, extra=None):
        """Wrap a per-query oracle entry point; calls roll up into the
        enclosing span as leaves[name] = [calls, queries, seconds, extra]."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            took = perf_counter() - start
            queries = count(args, out)
            tracer.queries += queries
            tracer.oracle_s += took
            parent = tracer._stack[-1]
            parent.child_s += took
            rec = parent.leaves.get(name)
            if rec is None:
                rec = parent.leaves[name] = [0, 0, 0.0, 0]
            rec[0] += 1
            rec[1] += queries
            rec[2] += took
            if extra is not None:
                rec[3] += extra(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def trial(self, trial: int):
        """Trace one trial: install the wrappers under a root span, then
        uninstall them and evaluate the deferred span attributes."""
        self._trial = trial
        first = len(self.spans)
        self._stack.append(Span(-1 - trial, None, trial, "trial"))
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._stack.pop()
            for span in self.spans[first:]:
                if span.pending is not None:
                    attrs, args, kwargs, out = span.pending
                    span.pending = None
                    span.attrs = attrs(args, kwargs, out)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        span, leaf = self._span, self._leaf

        # harness: the trial's public entry point
        self._patch(harness, "run", span(harness.run, "harness.run"))

        # core: vectorized ground truth, imported by name into four modules
        evaluate_many = span(core.evaluate_many, "core.evaluate_many", _rows)
        for module in (oracles, active, harness, passive):
            self._patch(module, "evaluate_many", evaluate_many)

        # oracles
        det, mixed = oracles.DeterministicOracle, oracles.MixedOracle
        self._patch(det, "query", leaf(det.query, "oracles.query", _one))
        self._patch(det, "query_many", span(
            det.query_many, "oracles.query_many", _rows,
            count=lambda args, out: len(out)))
        self._patch(mixed, "query_repeated", leaf(
            mixed.query_repeated, "oracles.query_repeated",
            lambda args, out: len(out)))
        self._patch(mixed, "query_until", leaf(
            mixed.query_until, "oracles.query_until",
            lambda args, out: int(out[1]), extra=lambda out: len(out[0])))

        def phase_sets(args, kwargs, out):
            phase = kwargs["phase"] if "phase" in kwargs else args[1]
            return {"phase": int(phase), "sets": len(out)}

        self._patch(harness, "sample_phase", span(
            oracles.sample_phase, "oracles.sample_phase", phase_sets))
        unrank = span(oracles.unrank_combinations, "oracles.unrank", _rows)
        for module in (oracles, harness, passive):
            self._patch(module, "unrank_combinations", unrank)

        # active
        self._patch(active, "recover_choice_function", span(
            active.recover_choice_function, "active.recover"))
        self._patch(active, "discard_ineligible", span(
            active.discard_ineligible, "active.discard"))
        self._patch(active, "merge_sort", span(
            active.merge_sort, "active.sort", _comparisons))
        self._patch(active, "classify_type", span(
            active.classify_type, "active.classify_type"))

        # mixture
        self._patch(mixture, "recover_mixed", span(
            mixture.recover_mixed, "mixture.recover"))
        self._patch(mixture, "estimate_mixture", span(
            mixture.estimate_mixture, "mixture.estimate"))
        self._patch(mixture, "noisy_sort", span(
            mixture.noisy_sort, "mixture.noisy_sort"))
        self._patch(mixture, "merge_sort", span(
            mixture.merge_sort, "mixture.merge_sort", _comparisons))

        # passive
        self._patch(passive, "find_ineligible_passive", span(
            passive.find_ineligible_passive, "passive.find_ineligible"))
        self._patch(passive, "build_partial_order", span(
            passive.build_partial_order, "passive.build_partial_order",
            _partial_order_attrs))
        self._patch(passive, "coverage_report", span(
            passive.coverage_report, "passive.coverage_report",
            lambda args, kwargs, out: {"frac_unresolved": out.frac_unresolved}))
        self._patch(passive, "answer_many", span(
            passive.answer_many, "passive.answer_many", _rows))

        # distance
        points, pair = distance.MetricPoints, distance.PairDistanceOracle
        self._patch(points, "__init__", span(points.__init__, "distance.points"))
        self._patch(pair, "larger", leaf(pair.larger, "distance.larger", _one))
        self._patch(distance, "median_choice", span(
            distance.median_choice, "distance.median"))
        self._patch(distance, "crowd_median_sort", span(
            distance.crowd_median_sort, "distance.sort"))
        self._patch(distance, "merge_sort", span(
            distance.merge_sort, "distance.merge_sort", _comparisons))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _leaf_total(spans, name, field):
    return sum(s.leaves[name][field] for s in spans if name in s.leaves)


def phase_query_problems(spans, mode: str, queries: int) -> list:
    """Check that one trial's per-phase query counts add up to the trial's
    own query count; returns the problems found (empty when it holds)."""
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def q(name):
        return sum(s.queries for s in named[name])

    expect = {"recover-active": "active.recover", "recover-mixed": "mixture.recover"}
    if mode in expect and len(named[expect[mode]]) != 1:
        return [f"{mode}: expected one {expect[mode]} span, saw {len(named[expect[mode]])}"]
    if mode == "recover-active":
        (recover,) = named["active.recover"]
        direct = recover.leaves.get("oracles.query", [0])[0]
        phases = {"discard": q("active.discard"), "sort": q("active.sort"),
                  "position+place": direct}
    elif mode == "classify":
        phases = {"classify": q("active.classify_type")}
    elif mode == "recover-mixed":
        (recover,) = named["mixture.recover"]
        if len(named["mixture.noisy_sort"]) != 2:
            return [f"expected 2 noisy sorts, saw {len(named['mixture.noisy_sort'])}"]
        phases = {"estimate": q("mixture.estimate"),
                  "discard": recover.leaves.get("oracles.query_repeated", [0, 0])[1],
                  "noisy_sorts": q("mixture.noisy_sort")}
    elif mode == "recover-passive":
        phases = {f"p{s.attrs['phase']}": s.attrs["sets"]
                  for s in named["oracles.sample_phase"]}
    elif mode == "distance-sort":
        phases = {"sort": q("distance.sort")}
    else:  # distance-median counts removal-round comparisons, no oracle
        return []
    if sum(phases.values()) != queries:
        return [f"{mode}: phases {phases} sum to {sum(phases.values())}, "
                f"trial reports {queries} queries"]
    return []


def layer_metrics(spans, trials: int) -> dict:
    """Per-layer metrics of the traced trials: counts and seconds are means
    per trial, ratios are taken over the totals. Returns name -> (value, unit)."""
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def per(x):
        return x / trials

    def secs(name):
        return per(sum(s.seconds for s in named[name]))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named[name])

    def leaf(name, field):
        return _leaf_total(spans, name, field)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    m = {}
    m["core.evaluate_many.rows"] = (per(attr("core.evaluate_many", "rows")), "count")
    m["core.evaluate_many.s"] = (secs("core.evaluate_many"), "s")
    m["oracles.query.calls"] = (per(leaf("oracles.query", 0)), "count")
    m["oracles.query.s"] = (per(leaf("oracles.query", 2)), "s")
    m["oracles.query_many.rows"] = (per(attr("oracles.query_many", "rows")), "count")
    m["oracles.query_many.s"] = (secs("oracles.query_many"), "s")
    for phase in (1, 2):
        ours = [s for s in named["oracles.sample_phase"] if s.attrs.get("phase") == phase]
        m[f"oracles.sample_phase.p{phase}.sets"] = (
            per(sum(s.attrs["sets"] for s in ours)), "count")
        m[f"oracles.sample_phase.p{phase}.s"] = (per(sum(s.seconds for s in ours)), "s")
    m["oracles.unrank.rows"] = (per(attr("oracles.unrank", "rows")), "count")
    m["oracles.unrank.s"] = (secs("oracles.unrank"), "s")
    m["oracles.query_repeated.calls"] = (per(leaf("oracles.query_repeated", 0)), "count")
    m["oracles.query_repeated.queries"] = (per(leaf("oracles.query_repeated", 1)), "count")
    m["oracles.query_repeated.s"] = (per(leaf("oracles.query_repeated", 2)), "s")
    m["oracles.query_until.calls"] = (per(leaf("oracles.query_until", 0)), "count")
    m["oracles.query_until.raw_queries"] = (per(leaf("oracles.query_until", 1)), "count")
    m["oracles.query_until.informative"] = (per(leaf("oracles.query_until", 3)), "count")
    m["oracles.query_until.s"] = (per(leaf("oracles.query_until", 2)), "s")

    m["active.discard.queries"] = (per(sum(s.queries for s in named["active.discard"])), "count")
    m["active.discard.s"] = (secs("active.discard"), "s")
    m["active.sort.comparisons"] = (per(attr("active.sort", "comparisons")), "count")
    m["active.sort.s"] = (secs("active.sort"), "s")
    m["active.sort.self_s"] = (
        per(sum(s.seconds - s.oracle_s for s in named["active.sort"])), "s")
    # The position query is the first query recover_choice_function issues
    # itself after the sort; the rest of its own queries place ineligibles.
    direct = [s.leaves.get("oracles.query", [0])[0] for s in named["active.recover"]]
    m["active.position.queries"] = (per(sum(min(c, 1) for c in direct)), "count")
    m["active.place.queries"] = (per(sum(c - min(c, 1) for c in direct)), "count")
    m["active.classify_type.calls"] = (per(len(named["active.classify_type"])), "count")
    m["active.classify_type.s"] = (secs("active.classify_type"), "s")

    sorts = [s for name in ("active.sort", "mixture.merge_sort", "distance.merge_sort")
             for s in named[name]]
    m["sorting.merge_sort.comparisons"] = (
        per(sum(s.attrs.get("comparisons", 0) for s in sorts)), "count")
    m["sorting.merge_sort.self_s"] = (per(sum(s.seconds - s.oracle_s for s in sorts)), "s")

    m["mixture.estimate.queries"] = (
        per(sum(s.queries for s in named["mixture.estimate"])), "count")
    m["mixture.estimate.s"] = (secs("mixture.estimate"), "s")
    # The noisy discard runs inside recover_mixed between the estimate and
    # the first noisy sort; its queries are recover_mixed's own.
    d_queries = d_s = d_oracle = 0.0
    for rec in named["mixture.recover"]:
        kids = children[rec.id]
        est = [c for c in kids if c.name == "mixture.estimate" and c.error is None]
        sorts_after = [c.start for c in kids if c.name == "mixture.noisy_sort"]
        rep = rec.leaves.get("oracles.query_repeated", [0, 0, 0.0])
        d_queries += rep[1]
        if est and sorts_after:
            d_s += min(sorts_after) - est[0].end
            d_oracle += rep[2]
    m["mixture.discard.queries"] = (per(d_queries), "count")
    m["mixture.discard.s"] = (per(d_s), "s")
    m["mixture.discard.self_s"] = (per(d_s - d_oracle), "s")
    noisy = named["mixture.noisy_sort"]
    m["mixture.noisy_sort.calls"] = (per(len(noisy)), "count")
    m["mixture.noisy_sort.queries"] = (per(sum(s.queries for s in noisy)), "count")
    m["mixture.noisy_sort.s"] = (secs("mixture.noisy_sort"), "s")
    m["mixture.noisy_sort.self_s"] = (per(sum(s.seconds - s.oracle_s for s in noisy)), "s")
    noisy_ids = {s.id for s in noisy}
    votes = [c for c in named["mixture.merge_sort"] if c.parent in noisy_ids]
    m["mixture.noisy_sort.majority_reps"] = (
        _ratio(_leaf_total(votes, "oracles.query_until", 3),
               _leaf_total(votes, "oracles.query_until", 0)), "count")
    m["mixture.retry_yield"] = (
        _ratio(leaf("oracles.query_until", 3), leaf("oracles.query_until", 1)), "ratio")
    m["mixture.alignment_failures"] = (per(sum(
        s.error == "AlignmentFailureError" for s in named["mixture.estimate"])), "count")

    anchored = attr("passive.build_partial_order", "anchored_records")
    p2_sets = sum(s.attrs["sets"] for s in named["oracles.sample_phase"]
                  if s.attrs.get("phase") == 2)
    m["passive.phase2.anchored_records"] = (per(anchored), "count")
    m["passive.phase2.useful_ratio"] = (_ratio(anchored, p2_sets), "ratio")
    m["passive.find_ineligible.s"] = (secs("passive.find_ineligible"), "s")
    m["passive.coverage_misses"] = (per(sum(
        s.error == "InsufficientCoverageError" for s in named["passive.find_ineligible"])),
        "count")
    m["passive.build_partial_order.s"] = (secs("passive.build_partial_order"), "s")
    m["passive.coverage_report.s"] = (secs("passive.coverage_report"), "s")
    m["passive.answer_many.rows"] = (per(attr("passive.answer_many", "rows")), "count")
    m["passive.resolved_pair_fraction"] = (mean([
        s.attrs["resolved_pair_fraction"] for s in named["passive.build_partial_order"]
        if s.attrs]), "ratio")
    m["passive.frac_unresolved"] = (mean([
        s.attrs["frac_unresolved"] for s in named["passive.coverage_report"]
        if s.attrs]), "ratio")

    m["distance.points.s"] = (secs("distance.points"), "s")
    m["distance.median.calls"] = (per(len(named["distance.median"])), "count")
    m["distance.median.s"] = (secs("distance.median"), "s")
    m["distance.sort.comparisons"] = (
        per(sum(s.queries for s in named["distance.sort"])), "count")
    m["distance.sort.s"] = (secs("distance.sort"), "s")

    m["harness.self_s"] = (
        per(sum(s.seconds - s.child_s for s in named["harness.run"])), "s")
    return m


def _ratio(num, den):
    return num / den if den else 0.0
