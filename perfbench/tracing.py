"""Spans and counts at spingeo's layer boundaries, installed from outside.

A :class:`Tracer` wraps the public functions and methods of each spingeo
module (and the product operators ``__mul__``/``__matmul__``) so that every
call records a span of its module's layer.  A layer's self time is its span
time minus the time its child spans cover.  A few boundaries also count
calls.  Spans are aggregated in memory as they close; nothing under
``src/`` changes.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import pstats
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("classification", "clifford", "spinrep", "chern_weil", "cech", "index_lab", "acceptance")

#: Coefficient and signature value types: their calls sit in the innermost
#: loops and are charged to the enclosing span instead of spanning themselves.
UNSPANNED_CLASSES = {("clifford", "QI"), ("clifford", "Signature")}

SPANNED_DUNDERS = ("__mul__", "__matmul__")

#: (layer, qualified name) -> count metric.  A name missing from the module
#: leaves its count at 0.
COUNTED = {
    ("clifford", "Multivector.__mul__"): "clifford.mv_mul_calls",
    ("clifford", "blade_mul"): "clifford.blade_mul_calls",
    ("chern_weil", "FormPoly.__mul__"): "chern_weil.formpoly_mul_calls",
    ("cech", "_reduce_mod"): "cech.coset_reductions",
}


class Tracer:
    """Installs span wrappers on spingeo's modules and aggregates them."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def _wrap(self, fn, layer: str | None, count: str | None):
        stack = self._stack
        tracer = self

        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[count] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                tracer.self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return spanned

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's public callables; undo with :meth:`uninstall`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spingeo.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    count = COUNTED.get((layer, name))
                    if not name.startswith("_"):
                        replaced[obj] = self._wrap(obj, layer, count)
                    elif count is not None:
                        replaced[obj] = self._wrap(obj, None, count)
                elif inspect.isclass(obj) and (layer, name) not in UNSPANNED_CLASSES:
                    self._install_class(layer, obj)
        # rebind every module-level reference, including re-exports
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("spingeo"):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(module, name, replaced[obj])

    def _install_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in SPANNED_DUNDERS:
                continue
            count = COUNTED.get((layer, f"{cls.__name__}.{name}"))
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, count))
            elif isinstance(attr, (staticmethod, classmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, layer, count)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


# -- time spent inside dependencies, from a profiled pass ----------------------

def _dependency(filename: str, funcname: str) -> str | None:
    if filename.endswith("fractions.py"):
        return "deps.fractions_self_s"
    if "/sympy/" in filename or "/mpmath/" in filename:
        return "deps.sympy_self_s"
    if "/numpy/" in filename or "/scipy/" in filename:
        return "deps.numpy_scipy_self_s"
    if filename == "~" and ("numpy" in funcname or "scipy" in funcname):
        return "deps.numpy_scipy_self_s"
    return None


class DependencyProfile:
    """cProfile, switched on only inside :meth:`enabled`; self time summed by dependency."""

    def __init__(self):
        self.profile = cProfile.Profile()

    @contextmanager
    def enabled(self):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def totals(self) -> dict[str, float]:
        totals = {"deps.fractions_self_s": 0.0, "deps.sympy_self_s": 0.0, "deps.numpy_scipy_self_s": 0.0}
        for (filename, _line, funcname), (_cc, _nc, tottime, _ct, _callers) in pstats.Stats(self.profile).stats.items():
            key = _dependency(filename, funcname)
            if key is not None:
                totals[key] += tottime
        return totals
