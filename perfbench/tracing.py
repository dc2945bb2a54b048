"""Traced runs: spans around the public functions of each qdistmat module.

Nothing in the package is edited. ``install`` looks every hooked function
up by its public name in each loaded ``qdistmat`` module and rebinds each
binding to a wrapper that records a span: name, start, end, parent span
and tree id. ``cli``, ``permlab`` and ``exactdet`` each import
``det_bareiss``, for example, and all three bindings are rebound. A layer
none of whose names is bound anywhere is reported as missing.

Spans stay in memory until the run ends; self times are computed from
them afterwards (a span's duration minus that of its children).
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import types
from array import array
from time import perf_counter

# layer -> public names; "Class.attr" hooks a method of that class
LAYERS = {
    "treekit.distances": ["all_pairs_distances"],
    "treekit.trees": ["prufer_decode", "random_tree", "enumerate_trees", "random_trees",
                      "pendant_first_last"],
    "qmatrix.build": ["build_d", "build_dq", "build_dq_star", "build_d_plus_xJ"],
    "qmatrix.minor": ["minor"],
    "exactdet.det": ["det_bareiss"],
    "exactdet.dodgson": ["dodgson", "check_dodgson_identity"],
    "closedforms": ["graham_pollak", "bkn_det_xj", "bkn_det", "dq_star_closed", "dq_closed",
                    "f_cleared", "corner_minor_closed", "dq_star_simple", "dq_simple"],
    "permlab.oracle": ["n_table_oracle", "m_table_oracle"],
    "permlab.from_det": ["n_table_from_det", "m_table_from_det"],
    "polyring.ops": ["qbracket", "qpower", "Poly.__add__", "Poly.__radd__", "Poly.__neg__",
                     "Poly.__sub__", "Poly.__rsub__", "Poly.__mul__", "Poly.__rmul__",
                     "Poly.__pow__", "Poly.exact_div"],
    "kernels.bareiss_det": ["bareiss_det"],
    "kernels.poly_mul": ["poly_mul"],
    "kernels.poly_exact_div": ["poly_exact_div"],
    "kernels.perm_n_table": ["perm_n_table"],
    "kernels.perm_m_coeffs": ["perm_m_coeffs"],
}
KERNELS = ["bareiss_det", "poly_mul", "poly_exact_div", "perm_n_table", "perm_m_coeffs"]
# generators whose items are the trees of a verify corpus: each item opens a tree span
CORPUS = {"enumerate_trees", "random_trees"}
CLI, TREE = "cli", "tree"  # spans drive.py opens; both belong to the cli layer
BACKENDS = "qdistmat._kernels."  # submodules of the kernel package are backend internals


class Tracer:
    """Span store plus the hooks that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tree = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.tree_id = -1
        self.trees = 0
        self.det_inputs: set[int] = set()
        self.perms = 0
        self.compiled = 0
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        stack = self.stack
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.tree.append(self.tree_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = perf_counter()
        stack = self.stack
        if stack and stack[-1] == idx:
            stack.pop()
            self.end[idx] = now
        elif idx in stack:  # spans an abandoned generator left open end here too
            while stack:
                top = stack.pop()
                self.end[top] = now
                if top == idx:
                    break

    def begin_tree(self) -> int:
        self.tree_id = self.trees
        self.trees += 1
        return self.open(self.name_id(TREE))

    def end_tree(self, idx: int) -> None:
        self.close(idx)
        self.tree_id = -1

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every hooked name in every loaded qdistmat module."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "qdistmat" or k.startswith("qdistmat.")) and not k.startswith(BACKENDS)]
        for layer, names in LAYERS.items():
            if not any([self._hook(modules, name) for name in names]):
                self.missing.append(layer)
        self._count_compiled()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _hook(self, modules, name: str) -> bool:
        if "." in name:
            cls_name, attr = name.split(".")
            classes = {id(c): c for m in modules
                       if isinstance(c := getattr(m, cls_name, None), type) and _ours(c)}
            for cls in classes.values():
                if attr in cls.__dict__:
                    self._rebind(cls, attr, self._wrap(name, cls.__dict__[attr]))
            return bool(classes)
        wrappers = {}
        for m in modules:
            fn = m.__dict__.get(name)
            if isinstance(fn, types.FunctionType) and _ours(fn):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._rebind(m, name, wrappers[id(fn)])
        return bool(wrappers)

    def _wrap(self, name: str, fn):
        if name in CORPUS:
            return self._corpus(name, fn)
        nid = self.name_id(name)
        open_, close = self.open, self.close
        before = {"det_bareiss": self._note_det_input,
                  "n_table_oracle": self._note_perms,
                  "m_table_oracle": self._note_perms}.get(name)
        if before is None:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                before(args)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return functools.update_wrapper(wrapper, fn)

    def _corpus(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tree = tracer.begin_tree()
                try:
                    yield item
                finally:
                    tracer.end_tree(tree)

        return functools.update_wrapper(wrapper, fn)

    def _note_det_input(self, args) -> None:
        if args:
            try:
                self.det_inputs.add(hash(args[0]))
            except TypeError:
                self.det_inputs.add(hash(repr(args[0])))

    def _note_perms(self, args) -> None:
        n = getattr(args[0], "n", None) if args else None
        if isinstance(n, int):
            self.perms += math.factorial(n)

    def _count_compiled(self) -> None:
        """Count kernel calls the compiled extension answered (not None)."""
        kernels = sys.modules.get("qdistmat._kernels")
        speedups = getattr(kernels, "_speedups", None)
        if speedups is None:
            return
        for name in KERNELS:
            fn = getattr(speedups, name, None)
            if fn is not None:
                self._rebind(speedups, name, self._counting(fn))

    def _counting(self, fn):
        def wrapper(*args):
            r = fn(*args)
            if r is not None:
                self.compiled += 1
            return r
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), all but the tracing overhead."""
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        tree_ms = []
        cli_id, tree_id = self._ids.get(CLI), self._ids.get(TREE)
        wall = 0.0
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - covered[i]
            if nid == tree_id:
                tree_ms.append(dur * 1e3)
            elif nid == cli_id and parent[i] < 0:
                wall += dur

        layer_of = {h: layer for layer, hooks in LAYERS.items() for h in hooks}
        layer_of.update({CLI: "cli", TREE: "cli"})
        by_layer: dict[str, list[float]] = {}
        for nid, nm in enumerate(self.names):
            agg = by_layer.setdefault(layer_of[nm], [0, 0.0])
            agg[0] += calls[nid]
            agg[1] += self_s[nid]

        def layer(key):
            return by_layer.get(key, [0, 0.0])

        trees = self.trees
        det_calls = layer("exactdet.det")[0]
        kernel_calls = sum(layer(f"kernels.{k}")[0] for k in KERNELS)
        out = {
            "treekit.distances.calls": (layer("treekit.distances")[0], "count"),
            "treekit.distances.self_s": (layer("treekit.distances")[1], "s"),
            "treekit.trees.self_s": (layer("treekit.trees")[1], "s"),
            "qmatrix.build.calls": (layer("qmatrix.build")[0], "count"),
            "qmatrix.builds_per_tree": (_ratio(layer("qmatrix.build")[0], trees), "count/tree"),
            "qmatrix.build.self_s": (layer("qmatrix.build")[1], "s"),
            "qmatrix.minor.calls": (layer("qmatrix.minor")[0], "count"),
            "qmatrix.minor.self_s": (layer("qmatrix.minor")[1], "s"),
            "exactdet.det.calls": (det_calls, "count"),
            "exactdet.dets_per_tree": (_ratio(det_calls, trees), "count/tree"),
            "exactdet.det.self_s": (layer("exactdet.det")[1], "s"),
            "exactdet.det.distinct_frac": (_ratio(len(self.det_inputs), det_calls), "ratio"),
            "exactdet.dodgson.calls": (layer("exactdet.dodgson")[0], "count"),
            "exactdet.dodgson.self_s": (layer("exactdet.dodgson")[1], "s"),
            "closedforms.calls": (layer("closedforms")[0], "count"),
            "closedforms.self_s": (layer("closedforms")[1], "s"),
            "permlab.oracle.calls": (layer("permlab.oracle")[0], "count"),
            "permlab.oracle.self_s": (layer("permlab.oracle")[1], "s"),
            "permlab.perms": (self.perms, "count"),
            "permlab.from_det.self_s": (layer("permlab.from_det")[1], "s"),
            "polyring.ops.calls": (layer("polyring.ops")[0], "count"),
            "polyring.ops.self_s": (layer("polyring.ops")[1], "s"),
        }
        for k in KERNELS:
            out[f"kernels.{k}.calls"] = (layer(f"kernels.{k}")[0], "count")
            out[f"kernels.{k}.self_s"] = (layer(f"kernels.{k}")[1], "s")
        out["kernels.compiled_frac"] = (_ratio(self.compiled, kernel_calls), "ratio")
        out["cli.self_s"] = (layer("cli")[1], "s")
        out["cli.tree_p50_ms"] = (_quantile(tree_ms, 0.50), "ms")
        out["cli.tree_p99_ms"] = (_quantile(tree_ms, 0.99), "ms")
        out["trace.wall_s"] = (wall, "s")
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        header = {"names": self.names, "missing": self.missing,
                  "fields": ["name", "start_s", "end_s", "parent", "tree"]}
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.name)):
                fh.write(f"[{self.name[i]},{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                         f"{self.parent[i]},{self.tree[i]}]\n")


def _ours(obj) -> bool:
    mod = getattr(obj, "__module__", "") or ""
    return (mod == "qdistmat" or mod.startswith("qdistmat.")) and not mod.startswith(BACKENDS)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
