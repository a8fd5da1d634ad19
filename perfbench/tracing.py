"""Wrappers that time the lattice package from outside it.

The package modules bind collaborators with ``from .x import y``, so a call
resolves the name in the *caller's* module.  A wrapper therefore replaces the
attribute the caller looks up (``lattice.model.knn_cosine_graph`` for the
learned graph, ``lattice.graph.knn_cosine_graph`` for the initial graph
built inside ``build_initial_graph``), and ``Patches.restore`` puts every
original object back.

Two kinds of instrumentation exist:

* ``Tracer`` records spans (name, start, end, parent, run id) and counts for
  the traced run.  Hot leaf functions (hundreds of thousands of calls) are
  aggregated instead of stored one span per call; their time still counts
  as child time of the enclosing span, so self times stay exact.
* ``Clock`` records only return timestamps, for the untraced runs that
  produce the end-to-end numbers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from lattice import data, evaluation, graph, model, training

perf_counter = time.perf_counter


class Patches:
    """Replace module or class attributes and restore them afterwards."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Spans and counts, kept in memory and written out at the end of a run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        # open frames: [span id, name, start, child seconds]
        self._stack: list[list] = []
        self._next_id = 0

    def _close(self, frame, parent, end):
        span_id, name, start, child = frame
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "run": self.run_id}
        )

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(frame, parent, end)

    def spanned(self, name, on_return=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result

            return wrapper

        return make

    def _add_leaf(self, name, duration):
        self.inclusive[name] += duration
        self.self_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def leaf(self, name, on_return=None):
        """Aggregate-only wrapper for functions called many thousand times."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                self._add_leaf(name, perf_counter() - start)
                if on_return is not None:
                    on_return(result)
                return result

            return wrapper

        return make

    def leaf_generator(self, name, on_item):
        """Time each item a generator produces; the consumer's span is the parent."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    self._add_leaf(name, perf_counter() - start)
                    on_item(item)
                    yield item

            return wrapper

        return make

    def count(self, key, amount=1):
        self.counts[key] += amount

    def write(self, path):
        """Spans as JSON lines, then one line of totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            totals = {
                "run": self.run_id,
                "inclusive_s": dict(self.inclusive),
                "self_s": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }
            fh.write(json.dumps({"totals": totals}) + "\n")


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the package's public functions at the attributes their callers use."""
    t, p = tracer, patches
    count = t.count

    def counted(key, size=lambda r: 1):
        return lambda result: count(key, size(result))

    # data
    for attr in ("load_interactions", "load_features"):
        p.replace(data, attr, t.spanned("data.load"))
    for attr in ("split_warm", "split_cold"):
        p.replace(data, attr, t.spanned("data.split"))
    p.replace(training, "sample_negative", t.leaf("data.negative", counted("data.negative_calls")))

    # graph: builds through model (learned) and through graph (initial)
    builds = counted("graph.builds")
    p.replace(model, "knn_cosine_graph", t.spanned("graph.knn", builds))
    p.replace(graph, "knn_cosine_graph", t.spanned("graph.knn", builds))
    p.replace(graph, "iter_cosine_rows", t.leaf_generator(
        "graph.cosine", counted("graph.scored_pairs", lambda block: block.size)))
    p.replace(graph, "topk_sparsify", t.spanned(
        "graph.topk", counted("graph.kept_edges", lambda g: g.nnz)))
    p.replace(model, "normalize_sym", t.spanned("graph.normalize"))
    p.replace(graph, "normalize_sym", t.spanned("graph.normalize"))
    p.replace(model, "fuse_skip", t.spanned("graph.fuse_mix"))
    p.replace(model, "aggregate_modalities", t.spanned("graph.fuse_mix"))
    p.replace(graph.SparseGraph, "__post_init__", t.leaf(
        "graph.validate", counted("graph.sparsegraph_inits")))

    # model
    p.replace(model, "build_inputs", t.spanned("model.build_inputs"))
    p.replace(model, "load_checkpoint", t.spanned("model.checkpoint_load"))
    p.replace(training, "forward_pass", t.spanned("model.forward"))
    p.replace(model, "forward_pass", t.spanned("model.forward"))
    p.replace(model, "build_item_graph", t.spanned("model.item_graph"))
    p.replace(model, "propagate_item_graph", t.spanned("model.propagate"))
    p.replace(model, "cf_forward", t.spanned("model.cf_conv"))

    # training
    p.replace(training, "compute_gradients", t.spanned("training.grad"))
    p.replace(training, "adam_step", t.spanned("training.adam", counted("training.steps")))

    # evaluation; fit resolves evaluate through lattice.training
    def evaluated(report):
        count("evaluation.users", report.num_users_evaluated)
        count("evaluation.needed", report.num_users_evaluated * max(report.cutoffs))

    p.replace(evaluation, "evaluate", t.spanned("evaluation.evaluate", evaluated))
    p.replace(training, "evaluate", lambda fn: t.spanned("training.validation")(
        t.spanned("evaluation.evaluate", evaluated)(fn)))
    p.replace(evaluation, "rank_items", t.leaf(
        "evaluation.rank", counted("evaluation.sorted_items", lambda ranked: ranked.size)))
    for attr in ("recall_at_k", "precision_at_k", "ndcg_at_k"):
        p.replace(evaluation, attr, t.leaf("evaluation.metric"))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from a traced run; times in seconds."""
    incl, own, n = tracer.inclusive, tracer.self_time, tracer.counts
    scored = n["graph.scored_pairs"]
    sorted_items = n["evaluation.sorted_items"]
    return {
        "graph.builds": n["graph.builds"],
        "graph.cosine_s": incl["graph.cosine"],
        "graph.scored_pairs": scored,
        "graph.topk_s": own["graph.topk"],
        "graph.kept_edges": n["graph.kept_edges"],
        "graph.kept_per_scored": n["graph.kept_edges"] / scored if scored else 0.0,
        "graph.normalize_s": own["graph.normalize"],
        "graph.fuse_mix_s": own["graph.fuse_mix"],
        "graph.sparsegraph_inits": n["graph.sparsegraph_inits"],
        "graph.validate_s": incl["graph.validate"],
        "model.build_inputs_s": incl["model.build_inputs"],
        "model.checkpoint_load_s": incl["model.checkpoint_load"],
        "model.forward_s": incl["model.forward"],
        "model.item_graph_s": incl["model.item_graph"],
        "model.propagate_s": incl["model.propagate"],
        "model.cf_conv_s": incl["model.cf_conv"],
        "training.steps": n["training.steps"],
        "training.grad_s": incl["training.grad"],
        "training.backward_s": own["training.grad"],
        "training.adam_s": incl["training.adam"],
        "training.validation_s": incl["training.validation"],
        "data.load_s": incl["data.load"],
        "data.split_s": incl["data.split"],
        "data.negative_calls": n["data.negative_calls"],
        "data.negative_s": incl["data.negative"],
        "evaluation.users": n["evaluation.users"],
        "evaluation.evaluate_s": incl["evaluation.evaluate"],
        "evaluation.rank_s": incl["evaluation.rank"],
        "evaluation.metric_s": incl["evaluation.metric"],
        "evaluation.sorted_items": sorted_items,
        "evaluation.needed_per_sorted": (
            n["evaluation.needed"] / sorted_items if sorted_items else 0.0
        ),
    }


class Clock:
    """Clock-only hooks for untraced runs.

    ``steps`` holds the return times of ``training.adam_step``, which ``fit``
    calls once per step; ``ranks`` the return times of ``rank_items``, which
    ``evaluate`` calls once per user; ``validations`` the (start, end,
    report) of every validation inside ``fit``.  ``enhanced`` keeps the item
    matrix the last ``evaluate`` ranked against, for the ranking check.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.ranks: list[float] = []
        self.validations: list[tuple] = []
        self.enhanced = None

    def install(self, patches: Patches) -> None:
        patches.replace(training, "adam_step", self._returns(self.steps))
        patches.replace(evaluation, "rank_items", self._rank)
        patches.replace(training, "evaluate", self._validation)

    @staticmethod
    def _returns(times):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                times.append(perf_counter())
                return result

            return wrapper

        return make

    def _rank(self, fn):
        @functools.wraps(fn)
        def wrapper(user_vec, enhanced_items, excluded):
            result = fn(user_vec, enhanced_items, excluded)
            self.ranks.append(perf_counter())
            self.enhanced = enhanced_items
            return result

        return wrapper

    def _validation(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            report = fn(*args, **kwargs)
            self.validations.append((start, perf_counter(), report))
            return report

        return wrapper

    def reset(self):
        self.steps.clear()
        self.ranks.clear()
        self.validations.clear()
