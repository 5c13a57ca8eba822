"""Per-layer spans, recorded from outside the package.

``Tracer.install`` wraps each layer's public functions under the names
their callers look them up by: methods on their classes, and module-level
functions in the namespace of each module that imports them by name (for
example ``flashquad.tree.disc_mask``).  Every wrapped call is a span whose
parent is the innermost open span; a layer's self time is the time of its
spans minus the time of their child spans.  The time the tracer spends on
its own bookkeeping is charged to no layer, so it shows only as the
difference between traced and untraced end-to-end figures.

Counters are taken at the same boundaries.  The bit helpers on entry words
(``entry_is_leaf``, ``make_child`` ...) are not wrapped; their time counts
as the caller's.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import flashquad.cache as cache
import flashquad.dataset as dataset
import flashquad.flashsim as flashsim
import flashquad.store as store
import flashquad.tree as tree

from oracle import LEAF, NODE, OBJECT, leaf_has_point

LAYERS = ("flashsim", "cache", "codec", "geometry", "tree", "store", "dataset")

DECODERS = ("decode_leaf_list", "decode_node", "decode_object_page", "leaf_list_view",
            "validate_node", "decode_version_slot")
ENCODERS = ("encode_gantry", "encode_leaf_list", "encode_node", "encode_zone", "node_with_entry",
            "encode_version_record", "revoke_version_slot")
CODEC_OTHER = ("node_entry_word", "zone_page_count")
GEOMETRY = ("cell_index", "classify_cell", "classify_children", "disc_mask", "dist2", "in_world",
            "point_in_polygon", "subcell", "validate_polygon")
COUNTED_GEOMETRY = ("disc_mask", "classify_children", "point_in_polygon")

SPAN_CAP = 100_000  # spans kept for the trace file; the counters see every span


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, name, child seconds, span id]
        self.self_s: Counter = Counter()
        self.count: Counter = Counter()
        self.decoded: set[bytes] = set()  # page bytes decoded so far in this unit of work
        self.spans: list[tuple] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.active = False  # spans are recorded only while set

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, name, fn, before=None, after=None):
        stack = self.stack

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            parent = stack[-1] if stack else None
            token = before(args) if before else None
            frame = [layer, name, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t1 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                self.self_s[layer] += t2 - t1 - frame[2]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[3], parent[3] if parent else None, name, t1, t2))
            if after:
                after(args, out, parent, token)
            if parent is not None:  # the parent's child time includes this span's bookkeeping
                parent[2] += perf_counter() - t0
            return out

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, name, layer, before=None, after=None):
        raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, name, raw.__func__, before, after))
        else:
            new = self._wrap(layer, name, raw, before, after)
        self._undo.append((owner, name, raw))
        setattr(owner, name, new)

    # -- counter hooks -------------------------------------------------------

    def _counter(self, key):
        def before(args):
            self.count[key] += 1
        return before

    def _decode(self, args):
        self.count["codec.decode_calls"] += 1
        data = bytes(args[0])
        if data in self.decoded:
            self.count["codec.decode_repeats"] += 1
        else:
            self.decoded.add(data)

    def _cache_get(self, args, out, parent, token):
        self.count["cache.misses" if out is None else "cache.hits"] += 1

    def _write_page_before(self, args):
        self.count["store.write_pages"] += 1
        return self.count["flashsim.programs"]

    def _write_page_after(self, args, out, parent, programs_before):
        if self.count["flashsim.programs"] == programs_before:
            self.count["store.dedup_hits"] += 1

    def _read_page(self, args, out, parent, token):
        """Classify pages the tree layer asks the store for."""
        if parent is None or parent[0] != "tree":
            return
        kind, c = out[0], self.count
        if parent[1] == "walk_version":
            c["tree.walk_pages"] += 1
        if kind == NODE:
            c["tree.node_visits"] += 1
        elif kind == LEAF:
            c["tree.leaf_visits"] += 1
            if parent[1] == "query_gantries_within":
                c["tree.disc_leaf_visits"] += 1
                if not leaf_has_point(out):
                    c["tree.leaf_visits_without_points"] += 1
        elif kind == OBJECT:
            c["tree.object_loads"] += 1

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        p = self._patch
        for name, key in (("read_page", "reads"), ("program_page", "programs"), ("erase", "erases")):
            p(flashsim.FlashDevice, name, "flashsim", before=self._counter(f"flashsim.{key}"))
        p(cache.PageCache, "get", "cache", after=self._cache_get)
        p(cache.PageCache, "put", "cache")
        p(cache.PageCache, "invalidate", "cache")
        for mod in (tree, store):
            for name in DECODERS:
                p(mod, name, "codec", before=self._decode)
            for name in ENCODERS:
                p(mod, name, "codec", before=self._counter("codec.encode_calls"))
            for name in CODEC_OTHER:
                p(mod, name, "codec")
        for mod in (tree, dataset):
            for name in GEOMETRY:
                key = f"geometry.{name}_calls" if name in COUNTED_GEOMETRY else None
                p(mod, name, "geometry", before=self._counter(key) if key else None)
        for name in ("query_zones_at", "query_gantries_within", "walk", "stats", "reachable_pages"):
            p(tree.Handle, name, "tree")
        for name in ("insert_gantry", "insert_zone", "delete_object"):
            p(tree.TreeEditor, name, "tree")
        p(tree, "walk_version", "tree")
        p(tree, "stats_from_walk", "tree")
        p(store.Store, "read_page", "store", after=self._read_page)
        for name in ("format", "__init__", "begin", "verify", "gc", "make_update", "apply_update",
                     "handle", "rollback_to", "swap_cache", "versions"):
            p(store.Store, name, "store")
        p(store.Session, "write_page", "store", before=self._write_page_before, after=self._write_page_after)
        for name in ("alloc_page", "program_page", "insert_gantry", "insert_zone", "delete", "commit", "rollback"):
            p(store.Session, name, "store")
        p(dataset, "build_database", "dataset")

    def remove(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def new_unit(self) -> None:
        """Start a unit of work (a build, a drive pass, an edit round): decode repeats count within one."""
        self.decoded.clear()

    # -- results -------------------------------------------------------------

    def per_unit(self, units: int) -> dict[str, float]:
        """Every per-layer figure, as a mean per unit of work."""
        c = self.count
        out = {f"{layer}.self_s": self.self_s[layer] / units for layer in LAYERS}
        for key in ("flashsim.reads", "flashsim.programs", "flashsim.erases", "cache.hits", "cache.misses",
                    "codec.decode_calls", "codec.decode_repeats", "codec.encode_calls",
                    "geometry.disc_mask_calls", "geometry.classify_children_calls",
                    "geometry.point_in_polygon_calls", "tree.node_visits", "tree.leaf_visits",
                    "tree.disc_leaf_visits", "tree.leaf_visits_without_points", "tree.object_loads",
                    "tree.walk_pages", "store.write_pages", "store.dedup_hits"):
            out[key] = c[key] / units
        lookups = c["cache.hits"] + c["cache.misses"]
        out["cache.hit_ratio"] = c["cache.hits"] / lookups if lookups else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
