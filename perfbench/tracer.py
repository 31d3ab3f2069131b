"""Spans at the boundaries between gpd modules, installed at run time.

`Tracer.install` wraps, without touching the package's source:

- every function one gpd module calls in another: names imported with
  `from .x import f` are rebound in the importing module, and module
  references (`grid.f`, `_packed.f`) are replaced by views whose functions
  are wrapped;
- every method written in a gpd class (but ACCESSORS), spanned only when
  the caller's frame belongs to another gpd module, so calls inside a
  module cost a frame check, not a span;
- the functions in INNER, also where their own module calls them, because
  a per-layer count needs every call (each merge, each dream built, each
  recurrence step).

A generator function is spanned per `next()`, so a stream's time lands on
the layer that produces it and not on whoever iterates it.  A layer's self
time is its spans' time minus the time of their child spans.  Spans are
aggregated in memory as they close; `metrics()` turns them into the
per-layer metrics of one command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from enum import Enum

MODULES = ("cli", "schubert", "_packed", "poly", "grid", "flux", "yangbaxter")
# Metric names start with the layer's name; `_packed` reports as `packed.*`
# because a metric name must start with a letter or a digit.

# Spanned on every call, including calls from their own module.
INNER = {
    "_packed": ("merge", "Packer.unpack", "Packer.pack_poly"),
    "grid": ("connectivity", "enumerate_dreams"),
    "schubert": ("weight_sums_by_pi", "_weight_sums_exact", "recurrence_step",
                 "schubert_sum", "double_schubert_oracle"),
    "yangbaxter": ("cluster_sum",),
}

# O(1) accessors called per grid cell or per rendered term: a span or even
# a frame check would cost more than the call, and no layer metric needs
# them.  Their time stays with the caller.
ACCESSORS = ("grid.PipeDream.tile", "grid.PipeDream.row_type", "poly.Var.name")

# Time metrics: inclusive time of the outermost span of any listed name.
GROUPS = {
    "poly.mul_s": ("poly.Polynomial.__mul__", "poly.Polynomial.__pow__"),
    "poly.divide_s": ("poly.Polynomial.divided_difference",
                      "poly.Polynomial._divmod_x_diff", "poly.Polynomial.divide_exact"),
    "poly.addsub_s": ("poly.Polynomial.__add__", "poly.Polynomial.__sub__"),
    "poly.relabel_s": ("poly.Polynomial.signed_relabel", "poly.Polynomial.swap_x",
                       "poly.Polynomial.substitute"),
    "poly.format_s": ("poly.Polynomial.format",),
    "packed.unpack_s": ("_packed.Packer.unpack",),
    "packed.merge_s": ("_packed.merge",),
    "packed.pack_s": ("_packed.Packer.pack_poly",),
    "schubert.weight_sums_s": ("schubert.weight_sums_by_pi",
                               "schubert.reduced_weight_sums"),
    "schubert.recurrence_s": ("schubert.recurrence_table", "schubert.compute_by_recurrence",
                              "schubert.recurrence_step", "schubert.base_case"),
    "schubert.nongeneric_s": ("schubert.schubert_sum", "schubert.double_schubert_oracle"),
    "grid.stream_s": ("grid.enumerate_dreams",),
    "grid.weight_s": ("grid.weight",),
    "grid.serialize_s": ("grid.serialize",),
    "flux.reconstruct_s": ("flux.reconstruct_dream",),
    "flux.component_class_s": ("flux.component_class",),
}

# Count metrics: number of spans of the listed names.
CALLS = {
    "poly.mul_calls": ("poly.Polynomial.__mul__",),
    "packed.unpack_calls": ("_packed.Packer.unpack",),
    "packed.merge_calls": ("_packed.merge",),
    "packed.product_calls": ("_packed.product",),
    "schubert.weight_sums_calls": ("schubert.weight_sums_by_pi",
                                   "schubert.reduced_weight_sums"),
    "schubert.recurrence_steps": ("schubert.recurrence_step",),
    "grid.weight_calls": ("grid.weight",),
    "flux.dreams": ("flux.variety_equations",),
    "yangbaxter.cluster_sums": ("yangbaxter.cluster_sum",),
}

# Metrics one command reports that are maxima, not sums, across commands.
MAXIMA = ("poly.max_terms",)


class _Stat:
    __slots__ = ("name", "module", "calls", "raised", "self_s", "groups", "hook")

    def __init__(self, name: str, module: str):
        self.name, self.module = name, module
        self.hook = _HOOKS.get(name)
        self.calls = self.raised = 0
        self.self_s = 0.0
        self.groups: list[list] = []  # [active depth, inclusive seconds]


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.groups = {g: [0, 0.0] for g in GROUPS}
        self.counts = {"poly.mul_pairs": 0, "poly.format_terms": 0, "poly.max_terms": 0,
                       "packed.unpack_terms": 0, "packed.merge_keys": 0,
                       "packed.product_fallbacks": 0, "grid.dreams_built": 0,
                       "grid.dreams_yielded": 0}
        self._stack: list[list] = []  # per open span: [child seconds, stat]
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._wrappers: set[int] = set()
        self._polynomial = None

    # -- spans ------------------------------------------------------------------

    def _stat(self, name: str, module: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat(name, module)
            st.groups = [self.groups[g] for g, names in GROUPS.items() if name in names]
        return st

    def _span(self, st: _Stat, call, args, kwargs):
        stack, groups, hook = self._stack, st.groups, st.hook
        token = hook[0](self, args) if hook else None
        st.calls += 1
        for g in groups:
            g[0] += 1
        frame = [0.0, st]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except BaseException:
            st.raised += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            st.self_s += dt - frame[0]
            if stack:
                stack[-1][0] += dt
            for g in groups:
                g[0] -= 1
                if not g[0]:
                    g[1] += dt
        if hook:
            hook[1](self, token, result)
        if type(result) is self._polynomial:
            c = self.counts
            if len(result) > c["poly.max_terms"]:
                c["poly.max_terms"] = len(result)
        return result

    def parent(self) -> str | None:
        return self._stack[-1][1].name if self._stack else None

    def wrap(self, fn, name: str, module: str, callers: set[int] | None = None):
        """Wrapper that spans fn: every call, or only calls from frames whose
        globals have their id in callers."""
        key = id(fn)
        if key in self._wrappers:
            return fn
        if key in self._wrapped:
            return self._wrapped[key]
        st = self._stat(name, module)
        span = self._span
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TracedStream(self, st, fn(*args, **kwargs))
        elif callers is None:
            def wrapper(*args, **kwargs):
                return span(st, fn, args, kwargs)
        else:
            getframe = sys._getframe

            def wrapper(*args, **kwargs):
                if id(getframe(1).f_globals) in callers:
                    return span(st, fn, args, kwargs)
                return fn(*args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        self._wrapped[key] = wrapper
        self._wrappers.add(id(wrapper))
        return wrapper

    def root(self, fn, *args):
        """Run fn as the root span of a command, attributed to the cli layer."""
        return self._span(self._stat("cli.main", "cli"), fn, args, {})

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        by_name = {m.__name__: short for short, m in mods.items()}
        self._polynomial = mods["poly"].Polynomial

        def owner(val) -> str | None:
            """Short name of the gpd module that defines a function, if any."""
            if callable(val) and not isinstance(val, type):
                return by_name.get(getattr(val, "__module__", None))
            return None

        for short, mod in mods.items():
            for cls in [v for v in vars(mod).values() if isinstance(v, type)]:
                if cls.__module__ == mod.__name__ and not issubclass(cls, (BaseException, Enum)):
                    callers = {id(vars(m)) for m in mods.values() if m is not mod}
                    self._wrap_class(cls, short, mod.__file__, callers)
        for short, mod in mods.items():
            for attr in INNER.get(short, ()):
                if "." not in attr:
                    fn = getattr(mod, attr)
                    setattr(mod, attr, self.wrap(fn, f"{short}.{fn.__qualname__}", short))

        views = {}
        for short, mod in mods.items():
            view = types.SimpleNamespace(**vars(mod))
            for attr, val in vars(mod).items():
                if owner(val) == short:
                    setattr(view, attr, self.wrap(val, f"{short}.{val.__qualname__}", short))
            views[short] = view
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.ModuleType) and val.__name__ in by_name:
                    setattr(mod, attr, views[by_name[val.__name__]])
                elif owner(val) not in (None, short):
                    home = owner(val)
                    setattr(mod, attr, self.wrap(val, f"{home}.{val.__qualname__}", home))
        # `from . import _packed` inside a function reads the package attribute.
        for short in MODULES:
            setattr(package, short, views[short])

    def _wrap_class(self, cls, short: str, source: str, callers: set[int]) -> None:
        inner = INNER.get(short, ())
        for attr, val in list(vars(cls).items()):
            kind = type(val) if isinstance(val, (classmethod, staticmethod)) else None
            fn = val.__func__ if kind else val
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue  # generated by dataclass or NamedTuple, not written in gpd
            if f"{short}.{fn.__qualname__}" in ACCESSORS:
                continue
            wrapper = self.wrap(fn, f"{short}.{fn.__qualname__}", short,
                                None if fn.__qualname__ in inner else callers)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (sums over spans)."""
        out: dict[str, float] = dict(self.counts)
        for metric, (_, seconds) in self.groups.items():
            out[metric] = seconds
        for metric, names in CALLS.items():
            out[metric] = sum(self.stats[n].calls for n in names if n in self.stats)
        out["schubert.fallbacks"] = (
            self._calls("schubert._weight_sums_exact")
            + self._raised("schubert.reduced_weight_sums"))
        for short in MODULES:
            out[f"{short.lstrip('_')}.self_s"] = sum(
                st.self_s for st in self.stats.values() if st.module == short)
        return out

    def _calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def _raised(self, name: str) -> int:
        return self.stats[name].raised if name in self.stats else 0


class _TracedStream:
    """Iterator that spans each next() of a wrapped generator."""

    def __init__(self, tracer: Tracer, st: _Stat, gen):
        self._tracer, self._st, self._gen = tracer, st, gen

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer._span(self._st, next, (self._gen,), {})
        if self._st.name == "grid.enumerate_dreams":
            self._tracer.counts["grid.dreams_yielded"] += 1
        return item


# -- hooks: (before(tracer, args) -> token, after(tracer, token, result)) -------


def _mul_before(tr, args):
    other = args[1]
    tr.counts["poly.mul_pairs"] += len(args[0]) * (1 if isinstance(other, int) else len(other))


def _format_before(tr, args):
    tr.counts["poly.format_terms"] += len(args[0])


def _unpack_before(tr, args):
    tr.counts["packed.unpack_terms"] += len(args[1])


def _merge_before(tr, args):
    tr.counts["packed.merge_keys"] += len(args[0])


def _product_before(tr, args):
    return tr._calls("_packed.Packer.unpack")


def _product_after(tr, unpacks_before, result):
    # The packed path ends in Packer.unpack; the exact fallback never does.
    if tr._calls("_packed.Packer.unpack") == unpacks_before:
        tr.counts["packed.product_fallbacks"] += 1


def _connectivity_before(tr, args):
    if tr.parent() == "grid.enumerate_dreams":
        tr.counts["grid.dreams_built"] += 1


def _nothing(tr, token, result):
    pass


_HOOKS = {
    "poly.Polynomial.__mul__": (_mul_before, _nothing),
    "poly.Polynomial.format": (_format_before, _nothing),
    "_packed.Packer.unpack": (_unpack_before, _nothing),
    "_packed.merge": (_merge_before, _nothing),
    "_packed.product": (_product_before, _product_after),
    "grid.connectivity": (_connectivity_before, _nothing),
}
