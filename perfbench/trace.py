"""Spans around smalg's layers, recorded from outside the library.

:class:`Tracer` wraps the public functions of each smalg module and a few
class methods, rebinding every name that refers to them in every loaded
``smalg`` module (``from .exactnum import rank`` copies the function into
the importer's namespace, so patching the defining module alone would miss
those callers). Spans live in memory as ``[name, start_ns, end_ns, parent,
request, extra]`` and are summarised into per-layer metrics when the run
ends. :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the time covered by its child
spans. Calls run on one thread, so children nest inside their parent and
never overlap, and the self times of one request sum exactly to the
duration of its root span (the ``cli.run`` call).

Scalar arithmetic is far too hot to time per call; :class:`OpCounter`
counts ``GaussianRational`` operations in a pass of its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("cli", "exactnum", "quasiorder", "intlattice", "transmap",
          "polyroots", "diag", "jordan", "rankpres")

# Public functions called once per matrix entry; a span each would swamp
# the layer they are called from.
UNTRACED = {"exactnum.scalar"}

# Class methods that do a layer's work; (module, class, methods).
METHODS = (
    ("exactnum", "DenseMatrix", ("__mul__", "__add__", "__sub__", "__eq__", "scale")),
    ("jordan", "CanonicalJordanForm", ("reconstruct", "unit_image")),
)

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "reciprocal", "conjugate")


def _elim_cells(args, kwargs, result):
    m = args[0]
    if len(args) > 1:  # solve_exact(a, b): the augmented system
        return m.rows * (m.cols + args[1].cols)
    return m.rows * m.cols


# name -> extra(args, kwargs, result): a number stored on the span
EXTRAS = {
    "exactnum.rank": _elim_cells,
    "exactnum.inverse": _elim_cells,
    "exactnum.nullspace": _elim_cells,
    "exactnum.solve_exact": _elim_cells,
    "quasiorder.increasing_permutations": lambda a, k, r: len(r),
    "intlattice.smith_invariant_factors": lambda a, k, r: len(a[0]),
    "polyroots.roots_in_gaussian_rationals": lambda a, k, r: len(r[0]),
    "rankpres.sample_rank_one_in_sma": lambda a, k, r: len(r),
}


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def smalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "smalg" or name.startswith("smalg."))]


def public_functions(layer):
    """(qualified name, function) for each public function defined in the
    layer's module."""
    mod = sys.modules[f"smalg.{layer}"]
    out = []
    for attr, obj in sorted(vars(mod).items()):
        if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                and not attr.startswith("_") and f"{layer}.{attr}" not in UNTRACED):
            out.append((f"{layer}.{attr}", obj))
    return out


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__perfbench_original__")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.request = -1
        self._stack = []
        self._patches = _Patches()
        self._sampled = []

    # --- install / restore ---------------------------------------------------

    def install(self):
        modules = smalg_modules()
        for layer in LAYERS:
            for qual, fn in public_functions(layer):
                wrapper = self._wrap(fn, qual)
                for mod in modules:
                    for attr, obj in list(vars(mod).items()):
                        if obj is fn:
                            self._patches.set(mod, attr, wrapper)
        for layer, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"smalg.{layer}"], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patches.set(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}"))
        return self

    def restore(self):
        self._patches.restore()
        self._sampled.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fn, qual):
        name_id = len(self.names)
        self.names.append(qual)
        extra = EXTRAS.get(qual)
        if qual == "transmap.random_transitive_map":
            extra = self._note_sample
        elif qual == "transmap.triviality_witness":
            extra = self._judge_sample
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1, tracer.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _note_sample(self, args, kwargs, result):
        self._sampled.append(result)
        return 0

    def _judge_sample(self, args, kwargs, result):
        """2 for a sampled map found nontrivial, 1 for a sampled map found
        trivial, 0 for a map that did not come from the sampler."""
        if not any(args[0] is g for g in self._sampled):
            return 0
        return 2 if result.separator is None else 1

    # --- output -----------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for (nid, start, end, parent, req, extra) in self.spans:
                out.write(json.dumps({"name": self.names[nid], "start": start, "end": end,
                                      "parent": parent, "request": req, "extra": extra}) + "\n")

    def self_times(self):
        """Per span, its duration minus the durations of its children."""
        selfs = [end - start for (_, start, end, _, _, _) in self.spans]
        for (_, start, end, parent, _, _) in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs


class OpCounter:
    """Counts GaussianRational arithmetic calls while installed."""

    def __init__(self):
        self.ops = 0
        self._patches = _Patches()

    def __enter__(self):
        cls = sys.modules["smalg.exactnum"].GaussianRational
        for meth in SCALAR_OPS:
            self._patches.set(cls, meth, self._count(cls.__dict__[meth]))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _count(self, fn):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args):
            counter.ops += 1
            return fn(*args)

        wrapper.__perfbench_original__ = fn
        return wrapper


def leftover_wrappers():
    """Names in smalg modules and traced classes still bound to a wrapper."""
    found = []
    for mod in smalg_modules():
        found += [f"{mod.__name__}.{a}" for a, o in vars(mod).items() if is_wrapped(o)]
    classes = [(layer, cls) for layer, cls, _ in METHODS] + [("exactnum", "GaussianRational")]
    for layer, cls_name in classes:
        cls = getattr(sys.modules[f"smalg.{layer}"], cls_name)
        found += [f"{cls_name}.{a}" for a, o in vars(cls).items() if is_wrapped(o)]
    return found


# --- per-layer metrics ----------------------------------------------------------

GROUPS = {
    "exactnum.elim": ("exactnum.rank", "exactnum.inverse", "exactnum.nullspace",
                      "exactnum.solve_exact"),
    "exactnum.matmul": ("exactnum.multiply",),
    "quasiorder.perms": ("quasiorder.increasing_permutations",),
    "quasiorder.closure": ("quasiorder.from_edges",),
    "quasiorder.classes": ("quasiorder.two_sided_classes", "quasiorder.approx_classes"),
    "intlattice.smith": ("intlattice.smith_invariant_factors",),
    "intlattice.kernel": ("intlattice.integer_kernel_basis", "intlattice.gf2_kernel_basis"),
    "intlattice.rank": ("intlattice.rational_rank",),
    "transmap.validate": ("transmap.validate",),
    "transmap.triviality": ("transmap.triviality_witness",),
    "transmap.all_trivial": ("transmap.all_transitive_trivial",),
    "transmap.sampler": ("transmap.random_transitive_map",),
    "polyroots.charpoly": ("polyroots.charpoly",),
    "polyroots.roots": ("polyroots.roots_in_gaussian_rationals",),
    "diag.spectral": ("diag.spectral_idempotents",),
    "diag.diagonalize": ("diag.simultaneous_diagonalize_in_sma",),
    "jordan.classify": ("jordan.classify_jordan",),
    "jordan.synthesize": ("jordan.synthesize_jordan",),
    "jordan.reconstruct": ("jordan.CanonicalJordanForm.reconstruct",
                           "jordan.CanonicalJordanForm.unit_image"),
    "jordan.is_jordan": ("jordan.is_jordan_homomorphism",),
    "jordan.apply": ("jordan.apply",),
    "jordan.embed": ("jordan.jordan_embeds_into", "jordan.algebra_embeds_into"),
    "jordan.predicates": ("jordan.multiplicativity_dichotomy",
                          "jordan.extends_to_full_jordan_automorphism",
                          "jordan.all_algebra_automorphisms_inner"),
    "rankpres.classify": ("rankpres.classify_rank_preserver",),
    "rankpres.rank_one": ("rankpres.certify_rank_one_preserver",),
    "rankpres.bounded": ("rankpres.bounded_rank_preserver_check",),
    "rankpres.witness": ("rankpres.nontrivial_g_rank_witness",),
    "rankpres.samples": ("rankpres.sample_rank_one_in_sma",),
}

# (metric, unit, better): every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{m}.self_s", "s", "lower") for m in LAYERS]
    + [(f"{m}.self_share", "ratio", "lower") for m in LAYERS]
    + [
        ("exactnum.elim.calls", "count", "lower"),
        ("exactnum.elim.s", "s", "lower"),
        ("exactnum.elim.cells", "count", "lower"),
        ("exactnum.matmul.calls", "count", "lower"),
        ("exactnum.matmul.s", "s", "lower"),
        ("exactnum.scalar.ops", "count", "lower"),
        ("quasiorder.perms.calls", "count", "lower"),
        ("quasiorder.perms.yielded", "count", "lower"),
        ("quasiorder.perms.s", "s", "lower"),
        ("quasiorder.closure.calls", "count", "lower"),
        ("quasiorder.closure.s", "s", "lower"),
        ("quasiorder.classes.s", "s", "lower"),
        ("intlattice.smith.calls", "count", "lower"),
        ("intlattice.smith.rows", "count", "lower"),
        ("intlattice.smith.s", "s", "lower"),
        ("intlattice.kernel.s", "s", "lower"),
        ("intlattice.rank.s", "s", "lower"),
        ("transmap.validate.calls", "count", "lower"),
        ("transmap.validate.s", "s", "lower"),
        ("transmap.triviality.s", "s", "lower"),
        ("transmap.all_trivial.s", "s", "lower"),
        ("transmap.sampler.calls", "count", "lower"),
        ("transmap.sampler.useful_ratio", "ratio", "higher"),
        ("polyroots.charpoly.calls", "count", "lower"),
        ("polyroots.charpoly.s", "s", "lower"),
        ("polyroots.roots.calls", "count", "lower"),
        ("polyroots.roots.s", "s", "lower"),
        ("polyroots.roots.candidates", "count", "lower"),
        ("polyroots.roots.useful_ratio", "ratio", "higher"),
        ("diag.spectral.calls", "count", "lower"),
        ("diag.spectral.s", "s", "lower"),
        ("diag.diagonalize.s", "s", "lower"),
        ("jordan.classify.s", "s", "lower"),
        ("jordan.synthesize.s", "s", "lower"),
        ("jordan.reconstruct.s", "s", "lower"),
        ("jordan.is_jordan.calls", "count", "lower"),
        ("jordan.is_jordan.s", "s", "lower"),
        ("jordan.apply.calls", "count", "lower"),
        ("jordan.embed.s", "s", "lower"),
        ("jordan.predicates.s", "s", "lower"),
        ("rankpres.classify.s", "s", "lower"),
        ("rankpres.rank_one.s", "s", "lower"),
        ("rankpres.bounded.s", "s", "lower"),
        ("rankpres.witness.s", "s", "lower"),
        ("rankpres.samples.drawn", "count", "lower"),
        ("cli.parse.s", "s", "lower"),
        ("cli.format.s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def summarize(tracer: Tracer, scalar_ops: int, overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> number."""
    names = [tracer.names[s[0]] for s in tracer.spans]
    spans = tracer.spans
    selfs = tracer.self_times()
    out = {}
    total = sum(s[2] - s[1] for s in spans if s[3] < 0) or 1
    for layer in LAYERS:
        ns = sum(t for name, t in zip(names, selfs) if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = ns / 1e9
        out[f"{layer}.self_share"] = ns / total

    def members(pred):
        """Indices of spans matching pred with no matching ancestor, so
        nested members are not counted twice in inclusive time."""
        hit = [pred(name) for name in names]
        outer = []
        for k, s in enumerate(spans):
            if not hit[k]:
                continue
            p = s[3]
            while p >= 0 and not hit[p]:
                p = spans[p][3]
            if p < 0:
                outer.append(k)
        return hit, outer

    for group, quals in GROUPS.items():
        hit, outer = members(lambda name, q=quals: name in q)
        out[f"{group}.calls"] = sum(hit)
        out[f"{group}.s"] = sum(spans[k][2] - spans[k][1] for k in outer) / 1e9
        out[f"{group}.extra"] = sum(spans[k][5] for k in range(len(spans)) if hit[k])
    for group, prefix in (("cli.parse", "parse_"), ("cli.format", "format_")):
        _, outer = members(lambda name, p=prefix: name.rsplit(".", 1)[1].startswith(p))
        out[f"{group}.s"] = sum(spans[k][2] - spans[k][1] for k in outer) / 1e9

    out["exactnum.elim.cells"] = out["exactnum.elim.extra"]
    out["exactnum.scalar.ops"] = scalar_ops
    out["quasiorder.perms.yielded"] = out["quasiorder.perms.extra"]
    out["intlattice.smith.rows"] = out["intlattice.smith.extra"]
    out["rankpres.samples.drawn"] = out["rankpres.samples.extra"]
    judged = [spans[k][5] for k, n in enumerate(names) if n == "transmap.triviality_witness"]
    drawn = out["transmap.sampler.calls"]
    out["transmap.sampler.useful_ratio"] = judged.count(2) / drawn if drawn else 0.0
    roots = {k for k, n in enumerate(names) if n == "polyroots.roots_in_gaussian_rationals"}
    candidates = sum(1 for k, n in enumerate(names)
                     if n == "polyroots.poly_eval" and spans[k][3] in roots)
    out["polyroots.roots.candidates"] = candidates
    found = out["polyroots.roots.extra"]
    out["polyroots.roots.useful_ratio"] = found / candidates if candidates else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = len(spans)
    return {name: out[name] for name, _, _ in PER_LAYER}


def request_self_times(tracer: Tracer) -> dict:
    """request id -> (root span duration, {layer: self ns}) in integer ns."""
    selfs = tracer.self_times()
    out = {}
    for k, (nid, start, end, parent, req, _) in enumerate(tracer.spans):
        wall, layers = out.setdefault(req, [0, {}])
        if parent < 0:
            out[req][0] = wall + end - start
        layer = tracer.names[nid].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + selfs[k]
    return {req: (wall, layers) for req, (wall, layers) in out.items()}
