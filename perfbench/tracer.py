"""Span recorder that wraps ptrig's layer entry points from outside.

A span has a name, a start, an end, a parent, and optionally a key (the
exponent it ran at, as ``p1.5``) and a work size (points handed to the
call).  Span names start with their layer (``core.invert_quarter``,
``fourier.integrand``, ``bench.round``).  Wrapping happens on module
attributes, so every alias a ptrig module holds for a wrapped function is
rebound too (``ptrig.fourier.integrate_panels`` is the same object as
``ptrig.quadrature.integrate_panels``).  Spans stay in memory, in flat
arrays, and ``dump`` writes them out when the run ends.  Nothing under
``src/`` is modified: ``uninstall`` restores every attribute it replaced.

Besides spans the tracer keeps work counters, measured where the work is
handed to a layer (points per call, nodes per table build, quadrature
nodes per inversion, ...).  Counters depend only on the inputs, never on
timing, so they repeat exactly.

Times are ``time.perf_counter`` readings.  On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so spans recorded in a child
process (``graft``) line up with the parent's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layers in the order the package builds on them; "bench" is harness code
LAYERS = (
    "core",
    "fast_eval",
    "quadrature",
    "fourier",
    "regularity",
    "basis_operator",
    "thresholds",
    "cli",
)


def p_key(p):
    """Key of the spans that ran at exponent p, as in the metric names."""
    return f"p{float(p):g}"


def _size(x):
    return int(np.size(x))


class Tracer:
    """In-memory spans and counters for one traced phase of a run."""

    def __init__(self):
        self.strings = [""]  # interned span names and keys; id 0 is "no key"
        self._ids = {"": 0}
        self.name = array("i")
        self.key = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = defaultdict(int)
        self._undo = []
        self._cache_base = None  # coefficient cache (hits, misses) at install

    # -- recording ---------------------------------------------------------

    def intern(self, text):
        sid = self._ids.get(text)
        if sid is None:
            sid = self._ids[text] = len(self.strings)
            self.strings.append(text)
        return sid

    def _append(self, name_id, key_id, parent, work, start, end):
        self.name.append(name_id)
        self.key.append(key_id)
        self.parent.append(parent)
        self.work.append(work)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def _open(self, name_id, key_id=0, work=0):
        parent = self.stack[-1] if self.stack else -1
        idx = self._append(name_id, key_id, parent, work, 0.0, float("nan"))
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block; yields its index."""
        idx = self._open(self.intern(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def open_key(self, name):
        """Key of the innermost open span called `name`, or None."""
        sid = self._ids.get(name)
        for idx in reversed(self.stack):
            if self.name[idx] == sid:
                return self.strings[self.key[idx]]
        return None

    def open_layer(self):
        """Layer of the innermost open span ("bench" when none is open)."""
        return self.strings[self.name[self.stack[-1]]].split(".")[0] if self.stack else "bench"

    def graft(self, idx, summary):
        """Add a child process's spans and counters under span idx.

        The child's root spans become children of idx, and a ``cli.startup``
        span covers idx's start (just before the child was spawned) up to
        the moment the child had imported ptrig.cli.  What is left of idx
        is interpreter teardown and the parent's process handling.
        """
        self._append(self.intern("cli.startup"), 0, idx, 0, self.start[idx],
                     summary["imported_at"])
        base = len(self.start)
        strings = summary["strings"]
        for name, key, parent, work, start, end in zip(*(summary[f] for f in _FIELDS)):
            self._append(self.intern(strings[name]), self.intern(strings[key]),
                         idx if parent < 0 else base + parent, work, start, end)
        for key, value in summary["counts"].items():
            self.counts[key] += value

    def counts_now(self):
        """Counters so far, with the coefficient cache's hits and misses."""
        counts = dict(self.counts)
        if self._cache_base is not None:
            hits, misses = coeff_cache_info()
            counts["fourier.coeff_cache.hits"] = (
                counts.get("fourier.coeff_cache.hits", 0) + hits - self._cache_base[0])
            counts["fourier.coeff_cache.misses"] = (
                counts.get("fourier.coeff_cache.misses", 0) + misses - self._cache_base[1])
        return counts

    def columns(self):
        """The spans as plain lists, for JSON (see ``graft``)."""
        return {"strings": self.strings,
                **{field: getattr(self, field).tolist() for field in _FIELDS}}

    def dump(self, path, meta):
        """Write spans and counters once the run is over (numpy .npz)."""
        t0 = self.start[0] if len(self.start) else 0.0
        np.savez(
            path,
            meta=json.dumps({**meta, "counts": self.counts_now()}),
            strings=np.array(self.strings),
            name=np.frombuffer(self.name, dtype=np.int32),
            key=np.frombuffer(self.key, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            start_s=np.frombuffer(self.start) - t0,
            end_s=np.frombuffer(self.end) - t0,
        )

    # -- wrapping ----------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace `original` by `wrapper` in every loaded ptrig module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ptrig" or mod_name.startswith("ptrig.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _wrap(self, fn, name, before=None, after=None, tag=None):
        """A span around fn.  before(args) may replace the arguments,
        tag(args) gives the span's (key, work), after(args, result) counts."""
        tracer = self
        name_id = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args) or args
            key_id = work = 0
            if tag is not None:
                key, work = tag(args)
                key_id = tracer.intern(key)
            idx = tracer._open(name_id, key_id, work)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_function(self, module, attr, layer, **hooks):
        original = getattr(module, attr)
        self._rebind(original, self._wrap(original, f"{layer}.{attr}", **hooks))

    def wrap_method(self, cls, attr, layer, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, f"{layer}.{cls.__name__}.{attr}", **hooks))
        self._undo.append((cls, attr, original))

    def count_calls(self, module, attr, count):
        """Rebind module.attr to a wrapper that only counts: count(args)."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            count(args)
            return original(*args, **kwargs)

        self._rebind(original, wrapper)

    def install(self):
        """Wrap the entry points of every ptrig layer."""
        import ptrig.basis_operator as bop
        import ptrig.cli as cli
        import ptrig.core as core
        import ptrig.fourier as fourier
        import ptrig.quadrature as quadrature
        import ptrig.regularity as regularity
        import ptrig.thresholds as thresholds
        from ptrig._fast_eval import FastPTrig

        counts = self.counts

        def count_invert(args):
            n = _size(args[0])
            key = p_key(args[1].p)
            counts["core.invert.points"] += n
            counts[f"core.invert.points.{key}"] += n
            if self.open_key("fast_eval.FastPTrig.__init__") is not None:
                counts["fast_eval.table_build.nodes_total"] += n

        def count_F_nodes(args):
            # x holds one row of tanh-sinh nodes per unconverged point
            key = self.open_key("core.invert_quarter")
            if key is not None:
                counts["core.invert.F_nodes"] += _size(args[0])
                counts[f"core.invert.F_nodes.{key}"] += _size(args[0])

        def count_scaled(args):
            counts["fast_eval.scaled.points"] += _size(args[1])

        def count_build(args):
            counts["fast_eval.table_builds"] += 1

        def traced_integrand(args):
            f, rest = args[0], args[1:]
            counts["quadrature.panels.calls"] += 1
            name = f"{self.open_layer()}.integrand"

            def integrand(x):
                counts["quadrature.panels.points"] += _size(x)
                with self.span(name):
                    return f(x)

            return (integrand,) + rest

        def count_entries(args, op):
            counts["basis_operator.builds"] += 1
            counts["basis_operator.build.entries_total"] += len(op.entries)

        def count_root(args, result):
            counts["thresholds.f_evals"] += result.iterations

        def points_at_p(args):
            return p_key(args[1].p if isinstance(args[1], core.PExponent) else args[1]), \
                _size(args[0])

        def points(args):
            return "", _size(args[1])

        self.wrap_function(core, "invert_quarter", "core", before=count_invert, tag=points_at_p)
        self.count_calls(core, "_fp_integrand", count_F_nodes)
        for attr in ("sin_p", "cos_p", "incomplete_F"):
            self.wrap_function(core, attr, "core", tag=points_at_p)
        self.wrap_method(FastPTrig, "__init__", "fast_eval", before=count_build)
        for attr in ("cos_scaled", "sin_scaled"):
            self.wrap_method(FastPTrig, attr, "fast_eval", before=count_scaled, tag=points)
        self.wrap_function(quadrature, "integrate_panels", "quadrature", before=traced_integrand)
        for attr in ("cosine_coeff", "sine_coeff", "_coeff_quadrature", "coeff_table",
                     "basis_criterion", "coeff_relation_check"):
            self.wrap_function(fourier, attr, "fourier")
        self.wrap_function(regularity, "regularity_report", "regularity")
        self.wrap_function(bop, "build_truncated_operator", "basis_operator", after=count_entries)
        for attr in ("expand_in_pcosine", "reconstruct_check"):
            self.wrap_function(bop, attr, "basis_operator")
        self.wrap_method(bop.TruncatedBasisOp, "matvec", "basis_operator")
        for attr in ("solve_lower_threshold", "solve_upper_threshold"):
            self.wrap_function(thresholds, attr, "thresholds", after=count_root)
        self.wrap_function(cli, "main", "cli")
        self._cache_base = coeff_cache_info()

    def uninstall(self):
        self.counts.update(self.counts_now())
        self._cache_base = None
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


_FIELDS = ("name", "key", "parent", "work", "start", "end")


class SpanTable:
    """The closed spans of a tracer as numpy arrays, for analysis."""

    def __init__(self, tracer):
        strings = tracer.strings
        name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start).copy()
        end = np.frombuffer(tracer.end).copy()
        self.strings = strings
        self.ids = {s: i for i, s in enumerate(strings)}
        self.name = name
        self.key = np.frombuffer(tracer.key, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.work = np.frombuffer(tracer.work, dtype=np.int64).copy()
        closed = np.isfinite(end)
        self.dur = np.where(closed, end - start, 0.0)
        # children of one span run one after another on one thread, so the
        # part of a span its children cover is the sum of their durations
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=name.size)
        self.self_s = self.dur - covered
        layer_of = np.array([LAYERS.index(s.split(".")[0]) if s.split(".")[0] in LAYERS
                             else -1 for s in strings])
        self.layer = layer_of[name]
        # root ancestor of every span (parents are recorded before children)
        root = np.arange(name.size)
        up = self.parent.copy()
        while (up >= 0).any():
            moving = up >= 0
            root[moving] = up[moving]
            up[moving] = self.parent[up[moving]]
        self.root = root

    def named(self, name, key=None):
        """Mask of the spans called `name` (and with `key`, if given)."""
        mask = self.name == self.ids.get(name, -1)
        if key is not None:
            mask &= self.key == self.ids.get(key, -1)
        return mask

    def under(self, root_name):
        """Mask of the spans whose outermost ancestor is called `root_name`."""
        return self.named(root_name)[self.root]

    def with_ancestor(self, name):
        """Mask of the spans that have an ancestor called `name`."""
        target = self.named(name)
        found = np.zeros(self.name.size, dtype=bool)
        up = self.parent.copy()
        while (up >= 0).any():
            moving = up >= 0
            found[moving] |= target[up[moving]]
            up[moving] = self.parent[up[moving]]
        return found

    def with_descendant(self, name):
        """Mask of the spans that have a descendant called `name`."""
        found = np.zeros(self.name.size, dtype=bool)
        up = self.parent[self.named(name)]
        while up.size:
            up = up[up >= 0]
            found[up] = True
            up = self.parent[up]
        return found

    def layer_self(self, mask):
        """Self seconds per layer over the masked spans."""
        return {layer: float(self.self_s[mask & (self.layer == i)].sum())
                for i, layer in enumerate(LAYERS)}


def coeff_cache_info():
    """(hits, misses) of the coefficient cache in ptrig.fourier."""
    import ptrig.fourier as fourier

    info = fourier._coeff_cached.cache_info()
    return info.hits, info.misses
