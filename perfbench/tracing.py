"""Spans around the package's public functions, installed from outside.

Each traced function is rebound in every loaded ``sombortree`` module that
holds it, so every caller that looks the name up at call time (module
globals, names imported with ``from ... import``) reaches the wrapper and
nothing in the package changes.  Spans stay in memory; ``layer_metrics``
reduces them at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _swap_pairs(tree) -> int:
    """Vertex-disjoint edge pairs of a tree; each has exactly one valid
    recombination, so this is the size of the 2-swap neighbourhood."""
    e = tree.n - 1
    return e * (e - 1) // 2 - sum(len(a) * (len(a) - 1) // 2 for a in tree.adj)


#: Span name -> counts taken from (args, result) when the call returns.
TRACED = {
    "graph.Tree.from_edges": None,
    "graph.sombor_index": None,
    "graph.leaf_layer_profile": None,
    "graph.leaf_to_leaf_paths": lambda a, out: {"paths": len(out)},
    "construct.construct_max_tree": lambda a, out: {"vertices": out.n},
    "construct.merge_once": None,
    "construct.materialize": None,
    "verify.oracle_max": lambda a, out: {
        "trees": out.enumerated, "witnesses": len(out.witnesses)},
    "verify.is_local_max": lambda a, out: {"moves_scanned": _swap_pairs(a[0])},
    "verify.check_theorem1": lambda a, out: {"records": out.checked},
    "verify.anneal_search": lambda a, out: {
        "moves": out.moves, "accepted": out.accepted},
    "sweep.generate_degree_sequences": None,
    "sweep.evaluate_sequence": None,
    "sweep.write_csv": None,
    "cli.run": None,
}

OP = "bench.op"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts", "label")

    def __init__(self, sid, parent, name, label=None):
        self.id, self.parent, self.name, self.label = sid, parent, name, label
        self.start = time.perf_counter()
        self.end = self.start
        self.counts = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name, label=None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, label)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; its id ties the op's spans."""
        span = self._open(OP, label)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def install(tracer: Tracer):
    """Rebind every traced function; returns a callable that restores them."""
    undo = []
    modules = [m for k, m in list(sys.modules.items())
               if k == "sombortree" or k.startswith("sombortree.")]
    graph = sys.modules["sombortree.graph"]
    for name, counts in TRACED.items():
        mod, attr = name.split(".", 1)
        if attr == "Tree.from_edges":
            orig = graph.Tree.__dict__["from_edges"]
            wrapped = tracer.wrap(name, orig.__func__, counts)
            graph.Tree.from_edges = classmethod(wrapped)
            undo.append((graph.Tree, "from_edges", orig))
            continue
        orig = getattr(sys.modules[f"sombortree.{mod}"], attr)
        wrapped = tracer.wrap(name, orig, counts)
        for m in modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapped)
                undo.append((m, attr, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float,
                  ties_label: str, noties_label: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Set-up spans are included; the oracle's per-tree cost is also given for
    the ops labelled ``ties_label`` and ``noties_label``.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.dur for s in by_name[name])

    def self_s(name):
        return sum(s.dur - sum(c.dur for c in children[s.id]) for s in by_name[name])

    def count(name, key, group=None):
        group = by_name[name] if group is None else group
        return sum(s.counts[key] for s in group if s.counts)

    def root_label(s):
        while s.parent >= 0:
            s = spans[s.parent]
        return s.label

    def top_level(names):
        """Time covered by spans in names, not counting one inside another."""
        total = 0.0
        for s in spans:
            if s.name in names:
                p = s.parent
                while p >= 0 and spans[p].name not in names:
                    p = spans[p].parent
                if p < 0:
                    total += s.dur
        return total

    oracle, anneal = "verify.oracle_max", "verify.anneal_search"
    construct = "construct.construct_max_tree"

    def us_per_tree(label):
        group = [s for s in by_name[oracle] if root_label(s) == label]
        return _ratio(sum(s.dur for s in group), count(oracle, "trees", group), 1e6)

    anneal_own = sum(
        s.dur - sum(c.dur for c in children[s.id] if c.name == construct)
        for s in by_name[anneal]
    )
    return {
        f"{oracle}.calls": (calls(oracle), "count"),
        f"{oracle}.busy_s": (busy(oracle), "s"),
        f"{oracle}.trees": (count(oracle, "trees"), "count"),
        f"{oracle}.witnesses": (count(oracle, "witnesses"), "count"),
        f"{oracle}.us_per_tree": (_ratio(busy(oracle), count(oracle, "trees"), 1e6), "us/tree"),
        f"{oracle}.us_per_tree.ties": (us_per_tree(ties_label), "us/tree"),
        f"{oracle}.us_per_tree.noties": (us_per_tree(noties_label), "us/tree"),
        f"{anneal}.calls": (calls(anneal), "count"),
        f"{anneal}.busy_s": (busy(anneal), "s"),
        f"{anneal}.moves": (count(anneal, "moves"), "count"),
        f"{anneal}.accepted": (count(anneal, "accepted"), "count"),
        f"{anneal}.accept_ratio": (_ratio(count(anneal, "accepted"), count(anneal, "moves")), "ratio"),
        f"{anneal}.us_per_move": (_ratio(anneal_own, count(anneal, "moves"), 1e6), "us/move"),
        f"{construct}.calls": (calls(construct), "count"),
        f"{construct}.busy_s": (busy(construct), "s"),
        f"{construct}.us_per_vertex": (_ratio(busy(construct), count(construct, "vertices"), 1e6), "us/vertex"),
        "construct.merge_once.calls": (calls("construct.merge_once"), "count"),
        "construct.merge_once.busy_s": (busy("construct.merge_once"), "s"),
        "construct.materialize.busy_s": (busy("construct.materialize"), "s"),
        "graph.Tree.from_edges.calls": (calls("graph.Tree.from_edges"), "count"),
        "graph.Tree.from_edges.busy_s": (busy("graph.Tree.from_edges"), "s"),
        "graph.leaf_layer_profile.calls": (calls("graph.leaf_layer_profile"), "count"),
        "graph.leaf_layer_profile.busy_s": (busy("graph.leaf_layer_profile"), "s"),
        "graph.sombor_index.calls": (calls("graph.sombor_index"), "count"),
        "graph.sombor_index.busy_s": (busy("graph.sombor_index"), "s"),
        "verify.is_local_max.calls": (calls("verify.is_local_max"), "count"),
        "verify.is_local_max.busy_s": (busy("verify.is_local_max"), "s"),
        "verify.is_local_max.moves_scanned": (count("verify.is_local_max", "moves_scanned"), "count"),
        "verify.check_theorem1.calls": (calls("verify.check_theorem1"), "count"),
        "verify.check_theorem1.busy_s": (busy("verify.check_theorem1"), "s"),
        "verify.check_theorem1.self_s": (self_s("verify.check_theorem1"), "s"),
        "verify.check_theorem1.records": (count("verify.check_theorem1", "records"), "count"),
        "graph.leaf_to_leaf_paths.busy_s": (busy("graph.leaf_to_leaf_paths"), "s"),
        "graph.leaf_to_leaf_paths.paths": (count("graph.leaf_to_leaf_paths", "paths"), "count"),
        "sweep.generate_degree_sequences.busy_s": (busy("sweep.generate_degree_sequences"), "s"),
        "sweep.evaluate_sequence.self_s": (self_s("sweep.evaluate_sequence"), "s"),
        "sweep.write_csv.busy_s": (busy("sweep.write_csv"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.share.oracle": (_ratio(top_level({oracle}), traced_wall), "ratio"),
        "trace.share.anneal": (_ratio(top_level({anneal}), traced_wall), "ratio"),
        "trace.share.construct_checkers_anneal": (_ratio(top_level(
            {construct, "verify.check_theorem1", "verify.is_local_max", anneal}),
            traced_wall), "ratio"),
    }

