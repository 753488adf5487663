"""Run-time span tracer for the transportlab layers.

The tracer wraps, at run time, every public function and every public method
of every public class of the layer modules (``__all__`` plus any other
non-underscore name a module defines), by rebinding module attributes and
class attributes.  Nothing under ``src/`` is edited, and because callables are
discovered rather than listed, renames and merges inside a layer keep being
traced.

Spans are not stored one per call: a pass makes millions of drift calls.
Each finished span is folded into a record keyed by (name, parent name,
points) that holds the call count, inclusive seconds and self seconds.  A
span's self time is its duration minus the durations of the spans it caused.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

import numpy as np

from layers import BANDED

LAYERS = ("drift", "noise", "flow", "parabolic", "transport", "harness")


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        # a frame is [name, seconds covered by child spans, banded solves made directly]
        self.stack = [["root", 0.0, 0]]
        self.records = {}  # (name, parent, points) -> [calls, inclusive_s, self_s]
        self.drift_evals = set()  # span names that evaluate a Drift at points
        self.counters = {"streams": 0, "normals": 0, "solves": 0, "pad_solves": 0}
        self._undo = []

    # -- span recording -------------------------------------------------

    def _wrap(self, fn, name_of, x_index):
        """Wrap fn; name_of(args) gives the span name.

        For a method, ``x_index`` is the position of its ``x`` argument, the
        points it evaluates; points count per point, not per coordinate.
        """
        stack = self.stack
        records = self.records
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = name_of(args)
            points = -1
            if x_index is not None:
                x = args[x_index] if len(args) > x_index else kwargs.get("x")
                points = int(np.size(x))
                dim = getattr(args[0], "dim", 1)
                if isinstance(dim, int) and dim > 1:
                    points //= dim
            parent = stack[-1]
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                parent[1] += spent
                key = (name, parent[0], points)
                rec = records.get(key)
                if rec is None:
                    rec = records[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += spent
                rec[2] += spent - frame[1]
            if frame[2]:
                self._count_solve(frame[2], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_solve(self, banded, result):
        # A span that marched banded solves itself is one Crank-Nicolson solve;
        # solves beyond the stored time levels marched the horizon pad.
        self.counters["solves"] += 1
        levels = len(getattr(result, "ts", ())) - 1
        if levels >= 0:
            self.counters["pad_solves"] += max(0, banded - levels)

    def _method_namer(self, layer, method, evaluates):
        names = {}
        drift_cls = self._drift_cls

        def name_of(args):
            cls = type(args[0])
            name = names.get(cls)
            if name is None:
                name = names[cls] = f"{layer}.{cls.__name__}.{method}"
                if evaluates and issubclass(cls, drift_cls):
                    self.drift_evals.add(name)
            return name

        return name_of

    # -- installation ---------------------------------------------------

    def install(self, package, experiment_specs=()):
        """Wrap the layers of ``package`` and the given experiment specs."""
        self._drift_cls = package.drift.Drift
        replaced = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in _public_members(module):
                if isinstance(obj, types.FunctionType):
                    fixed = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, lambda args, n=fixed: n, None)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        self._rebind_everywhere(package, replaced)
        self._wrap_banded(package.parabolic)
        for spec in experiment_specs:
            name = f"experiments.{spec.id}"
            self._setattr(spec, "fn", self._wrap(spec.fn, lambda args, n=name: n, None))
        self._count_normals()
        return self

    def _wrap_class(self, layer, cls):
        for method, fn in list(vars(cls).items()):
            if method.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            x_index = _x_index(fn)
            name_of = self._method_namer(layer, method, x_index is not None)
            self._setattr(cls, method, self._wrap(fn, name_of, x_index))

    def _rebind_everywhere(self, package, replaced):
        # ``from .drift import f`` copies f into other modules; rebind those too
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._setattr(module, attr, wrapper)

    def _wrap_banded(self, parabolic):
        """Count banded solves through the module's own scipy reference."""
        solve = getattr(parabolic, "solve_banded", None)
        if solve is None:
            return
        inner = self._wrap(solve, lambda args: BANDED, 2)
        stack = self.stack

        def banded(*args, **kwargs):
            stack[-1][2] += 1
            return inner(*args, **kwargs)

        self._setattr(parabolic, "solve_banded", banded)

    def _count_normals(self):
        """Count Philox generators opened and standard normals drawn."""
        real = np.random.Generator
        counters = self.counters

        class CountingGenerator:
            def __init__(self, bit_generator):
                self._gen = real(bit_generator)
                counters["streams"] += 1

            def standard_normal(self, *args, **kwargs):
                out = self._gen.standard_normal(*args, **kwargs)
                counters["normals"] += int(np.size(out))
                return out

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        self._setattr(np.random, "Generator", CountingGenerator)

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        _force_setattr(owner, attr, value)

    def uninstall(self):
        """Restore every attribute the tracer rebound."""
        while self._undo:
            _force_setattr(*self._undo.pop())

    # -- output ---------------------------------------------------------

    def dump(self):
        """Records and counters as JSON-ready data, for the trace sidecar."""
        rows = [
            {"name": n, "parent": p, "points": pts, "calls": c, "inclusive_s": inc, "self_s": slf}
            for (n, p, pts), (c, inc, slf) in sorted(self.records.items())
        ]
        return {
            "records": rows,
            "drift_evals": sorted(self.drift_evals),
            "counters": dict(self.counters),
        }


def _force_setattr(owner, attr, value):
    # experiment specs are frozen dataclasses; classes and modules take setattr
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


def _public_members(module):
    """(name, object) for names in __all__ and public names the module defines."""
    names = set(getattr(module, "__all__", ())) | {n for n in vars(module) if not n.startswith("_")}
    for name in sorted(names):
        obj = getattr(module, name, None)
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _x_index(fn):
    """Positional index of a parameter named ``x`` (the evaluation points)."""
    params = list(inspect.signature(fn).parameters)
    return params.index("x") if "x" in params else None
