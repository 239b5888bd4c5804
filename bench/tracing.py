"""Timing and counting wrappers around the package's layer entry points.

``Tracer.installed()`` replaces each entry point in ``HOOKS`` with a
wrapper, everywhere the package looks it up: in every loaded
``ordercalc`` module that binds the same object (``from x import f``
copies included), or on the class for a method.  Nothing in the package's
source changes, and leaving the context restores the originals.

Every wrapper opens a span (layer, start, end, parent); spans are folded
into per-layer busy time, self time (busy minus child spans) and work
counters as they close.  A hook whose target no longer exists is skipped,
and every metric that depends on it reads ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "name" or "Class.method"
    layer: str
    kind: str


_K = "ordercalc._kernels_fallback"

HOOKS = [
    Hook(_K, "eval_many", "kernels", "eval"),
    Hook(_K, "darboux_endpoint", "kernels", "endpoint"),
    Hook(_K, "darboux_endpoint_fn", "kernels", "endpoint"),
    Hook(_K, "darboux_critical", "kernels", "critical"),
    Hook(_K, "darboux_sampled", "kernels", "sampled"),
    Hook(_K, "darboux_sampled_fn", "kernels", "sampled"),
    Hook(_K, "prefix_endpoint", "kernels", "prefix"),
    Hook(_K, "prefix_endpoint_fn", "kernels", "prefix"),
    Hook(_K, "prefix_critical", "kernels", "prefix"),
    Hook(_K, "prefix_sampled", "kernels", "prefix"),
    Hook(_K, "prefix_sampled_fn", "kernels", "prefix"),
    Hook("ordercalc.partitions", "uniform_grid", "partitions", "grid"),
    Hook("ordercalc.functions", "ScalarKernel.critical_points", "functions", "critical_points"),
    Hook("ordercalc.expr", "eval_expr", "expr", "eval_expr"),
    Hook("ordercalc.integrate", "integrate", "integrate", "integrate"),
    Hook("ordercalc.calculus", "antiderivative", "calculus", "antiderivative"),
    Hook("ordercalc.calculus", "verify_ftc1", "calculus", "verify"),
    Hook("ordercalc.calculus", "verify_ftc2", "calculus", "verify"),
    Hook("ordercalc.calculus", "verify_substitution", "calculus", "verify"),
    Hook("ordercalc.calculus", "verify_by_parts", "calculus", "verify"),
]

# Kernel kinds whose cells are one refinement level of one atom.
_LEVEL_KINDS = {"endpoint", "critical", "sampled"}


def _cells_and_points(kind: str, args) -> tuple[int, int]:
    """(cells, points evaluated) of a kernel call, from its arguments."""
    xs = args[1]
    if kind == "eval":
        return 0, int(xs.size)
    n = len(xs) - 1
    if len(args) == 3 and isinstance(args[2], int):
        s = args[2]  # sampled: passes with s and 2s subintervals per cell
        return n, n * (s + 1) + n * (2 * s + 1)
    return n, len(xs)


def _resolve(hook: Hook):
    """(owner, name, original) for a hook, or None when the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(orig):
        return None
    return owner, name, orig


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.missing: list[str] = []
        self.broken: set[str] = set()  # counters whose arguments no longer parse
        self.kinds_present: set[str] = set()
        self.integrate_calls: list[tuple] = []  # (f, interval, sched) of the pass
        self.record_calls = False
        self.reset()

    def reset(self) -> None:
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self._stack: list[list] = []  # [key, start, child seconds]
        self._open = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _close(self, key: str, start: float, child: float) -> None:
        dur = time.perf_counter() - start
        self.busy[key] += dur
        self.self_time[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, hook: Hook, orig):
        key = f"{hook.layer}.{hook.kind}"
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if hook.kind == "eval_expr" and tracer._open[key]:
                return orig(*args, **kwargs)  # count outermost calls only
            frame = [key, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open[key] += 1
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._open[key] -= 1
                tracer._stack.pop()
                tracer._close(*frame)
            tracer._count(hook, key, args, kwargs, result)
            return result

        return wrapper

    def _count(self, hook: Hook, key: str, args, kwargs, result) -> None:
        self.count[key] += 1
        try:
            if hook.layer == "kernels":
                cells, points = _cells_and_points(hook.kind, args)
                self.count["kernels.points"] += points
                if hook.kind in _LEVEL_KINDS and self._open["integrate.integrate"]:
                    self.count["integrate.atom_cells"] += cells
            elif hook.kind == "grid":
                self.count["partitions.grid_bytes"] += int(result.nbytes)
            elif hook.kind == "integrate":
                f, interval = args[0], args[1]
                sched = args[2] if len(args) > 2 else kwargs.get("sched")
                if f.is_coordinatewise:
                    self.count["integrate.levels"] += result.depth + 1
                    if self.record_calls:
                        self.integrate_calls.append((f, interval, sched))
        except (AttributeError, IndexError, TypeError):
            self.broken.add(hook.layer)

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook target where the package looks it up."""
        undo = []
        self.missing = []
        try:
            for hook in HOOKS:
                found = _resolve(hook)
                if found is None:
                    self.missing.append(f"{hook.module}.{hook.attr}")
                    continue
                owner, name, orig = found
                self.kinds_present.add(f"{hook.layer}.{hook.kind}")
                wrapper = self.span(hook, orig)
                if isinstance(owner, type):
                    undo.append((owner, name, orig))
                    setattr(owner, name, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "ordercalc" or mod_name.startswith("ordercalc.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, name, orig in reversed(undo):
                setattr(owner, name, orig)

    def present(self, *keys: str) -> bool:
        return any(k in self.kinds_present for k in keys)
