"""Functions [a,b] -> R^A: coordinatewise kernel families and general maps.

Coordinatewise functions apply one scalar kernel per atom and therefore
commute with every band projection by construction.  General maps carry no
such guarantee and exist to host counterexamples; :func:`lbp_check` probes
them by band mixing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from ._interval import IsolationError, isolate
from ._tape import Program, compile_expr
from .backend import kernels as _backend
from .lattice import Band, Element, OrderInterval, _check_same_dim

__all__ = [
    "KernelEvalError",
    "ScalarKernel",
    "LatticeFunction",
    "LbpCheckResult",
    "ExtremaPair",
    "lbp_check",
    "extrema",
    "continuity_modulus",
]

# Root isolation for kernel derivatives: brackets are narrowed to
# _BISECT_TOL (relative to the interval's scale), and pieces no interval
# test resolves are kept once narrower than _FLOOR_REL of the interval,
# far below the finest cell a refinement schedule builds.
_BISECT_TOL = 1e-12
_FLOOR_REL = 2.0**-40

# Grid caps for sampled extrema refinement.
_EXTREMA_GRID_START = 129
_EXTREMA_GRID_CAP = 1 << 14


class KernelEvalError(ArithmeticError):
    """Kernel evaluation failure, reported with the atom it occurred in."""

    def __init__(self, atom: int, cause: Exception):
        self.atom = atom
        self.cause = cause
        super().__init__(f"kernel failed in atom {atom}: {cause}")


class ScalarKernel:
    """A scalar section t -> k(t): an expression AST or a raw callable.

    ``monotone`` may declare "increasing" or "decreasing", which makes
    interval extrema exact via endpoint evaluation.  Every differentiable
    expression kernel (all but those holding abs, min or max) gets exact
    extrema from critical points isolated by interval evaluation of its
    derivatives, unless its derivative vanishes on too many pieces to
    isolate; those, callables and abs/min/max expressions are sampled.
    """

    __slots__ = ("expr", "func", "monotone", "label", "_program", "_derivative")

    def __init__(self, *, expr=None, func=None, monotone=None, label=None):
        if (expr is None) == (func is None):
            raise ValueError("exactly one of expr/func is required")
        if monotone not in (None, "increasing", "decreasing"):
            raise ValueError("monotone must be 'increasing', 'decreasing', or None")
        self.expr = expr
        self.func = func
        self.monotone = monotone
        self.label = label or (ex.print_expr(expr) if expr is not None else "<callable>")
        self._program: Program | None = None
        self._derivative = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_string(cls, src: str, monotone=None) -> "ScalarKernel":
        return cls(expr=ex.parse(src), monotone=monotone, label=src.strip())

    @classmethod
    def from_expr(cls, e: ex.Expr, monotone=None) -> "ScalarKernel":
        return cls(expr=e, monotone=monotone)

    @classmethod
    def identity(cls) -> "ScalarKernel":
        return cls(expr=ex.Var(), monotone="increasing", label="t")

    @classmethod
    def constant(cls, c: float) -> "ScalarKernel":
        return cls(expr=ex.Const(float(c)))

    @classmethod
    def power(cls, p: int) -> "ScalarKernel":
        return cls(expr=ex.Pow(ex.Var(), int(p)))

    @classmethod
    def from_callable(cls, fn, monotone=None, label="<callable>") -> "ScalarKernel":
        return cls(func=fn, monotone=monotone, label=label)

    def __repr__(self) -> str:
        return f"ScalarKernel({self.label!r})"

    # -- evaluation ----------------------------------------------------------

    @property
    def program(self) -> Program | None:
        if self.expr is not None and self._program is None:
            self._program = compile_expr(self.expr)
        return self._program

    def eval(self, t: float) -> float:
        if self.expr is not None:
            return ex.eval_expr(self.expr, t)
        v = float(self.func(t))
        if not np.isfinite(v):
            raise ex.EvalDomainError(f"callable kernel returned {v!r}")
        return v

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if self.expr is not None:
            return _backend.eval_many(self.program, ts)
        out = np.fromiter((float(self.func(t)) for t in ts.ravel()), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            bad = int(np.argmax(~np.isfinite(out)))
            raise ex.EvalDomainError(
                f"callable kernel returned a non-finite value at t={float(ts.ravel()[bad])!r}"
            )
        return out.reshape(ts.shape)

    # -- extrema machinery ----------------------------------------------------

    @property
    def strategy(self) -> str:
        """Per-cell extrema strategy: 'monotone', 'critical', or 'sampled'.

        'monotone' for a declared direction; 'critical' for every expression
        with a symbolic derivative, whose extrema come from certified
        critical points; 'sampled' for callables and for expressions holding
        abs, min or max.
        """
        if self.monotone is not None:
            return "monotone"
        if self.derivative() is not None:
            return "critical"
        return "sampled"

    def derivative(self) -> "ScalarKernel | None":
        """Symbolic derivative when the kernel is a smooth expression."""
        if self.expr is None:
            return None
        if self._derivative is None:
            try:
                self._derivative = ScalarKernel(expr=ex.differentiate(self.expr))
            except ex.NonDifferentiableError:
                self._derivative = False
        return self._derivative or None

    def critical_points(self, lo: float, hi: float, enclose: bool = False):
        """Zeros of the derivative in [lo, hi], isolated with interval enclosures.

        Every zero of f' at which f may have a local extremum lies within
        ``_BISECT_TOL * max(1, |lo|, |hi|)`` of a returned point, unless
        EvalDomainError is raised because f itself is unbounded near one, or
        IsolationError because f' vanishes (to the evaluator's resolution) on
        too many pieces to isolate.  With ``enclose=True`` returns ``(ts,
        vals)`` instead: (t, value) entries that, folded into the cells
        holding them, make cell endpoints and entries bound f on every cell.
        """
        d1 = self.derivative()
        if hi <= lo or d1 is None:
            return (np.empty(0), np.empty(0)) if enclose else np.empty(0)
        tol = _BISECT_TOL * max(1.0, abs(lo), abs(hi))
        floor = min(tol, (hi - lo) * _FLOOR_REL)
        roots, ts, vals = isolate(
            self.program, d1.program, d1.derivative().program, d1.eval, lo, hi, tol, floor
        )
        return (ts, vals) if enclose else roots

    def scalar_extrema(self, lo: float, hi: float, tol: float = 0.0):
        """(min, max, method, achieved) of the kernel over [lo, hi]."""
        if hi < lo:
            raise ValueError("needs lo <= hi")
        if hi == lo:
            v = self.eval(lo)
            return v, v, "exact", 0.0
        strat = self.strategy
        if strat == "monotone":
            a, b = self.eval(lo), self.eval(hi)
            return (min(a, b), max(a, b), "exact", 0.0)
        if strat == "critical":
            try:
                _, crit_vals = self.critical_points(lo, hi, enclose=True)
            except IsolationError:
                pass
            else:
                vals = [self.eval(lo), self.eval(hi), *crit_vals.tolist()]
                return min(vals), max(vals), "exact", 0.0
        g = _EXTREMA_GRID_START
        vals = self.eval_many(np.linspace(lo, hi, g))
        m, big = float(vals.min()), float(vals.max())
        change = np.inf
        streak = 0
        while g < _EXTREMA_GRID_CAP:
            g = 2 * g - 1
            vals = self.eval_many(np.linspace(lo, hi, g))
            m2, big2 = float(vals.min()), float(vals.max())
            change = max(abs(m2 - m), abs(big2 - big))
            m, big = m2, big2
            if change <= tol:
                # Changes can stall at a fixed offset from the true extremum,
                # so require the criterion twice before accepting.
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
        # Resolution-based residual: worst quadratic deviation between grid
        # points, from a second-difference curvature estimate.
        h = (hi - lo) / (g - 1)
        curvature = float(np.abs(np.diff(vals, 2)).max()) / (h * h) if g >= 3 else 0.0
        resolution = 0.5 * curvature * (0.5 * h) ** 2
        achieved = max(change if np.isfinite(change) else 0.0, resolution)
        return m, big, "sampled", float(achieved)

    # -- composition ----------------------------------------------------------

    def compose(self, inner: "ScalarKernel") -> "ScalarKernel":
        """t -> self(inner(t)); both kernels must be expressions."""
        if self.expr is None or inner.expr is None:
            raise ValueError("compose needs expression kernels")
        return ScalarKernel(expr=ex.substitute(self.expr, inner.expr))

    def multiply(self, other: "ScalarKernel") -> "ScalarKernel":
        if self.expr is None or other.expr is None:
            raise ValueError("multiply needs expression kernels")
        return ScalarKernel(expr=ex.Mul(self.expr, other.expr))


def _as_kernel(k) -> ScalarKernel:
    if isinstance(k, ScalarKernel):
        return k
    if isinstance(k, str):
        return ScalarKernel.from_string(k)
    if isinstance(k, ex.Expr):
        return ScalarKernel.from_expr(k)
    raise TypeError(f"cannot interpret {k!r} as a scalar kernel")


class LatticeFunction:
    """A map [a,b] -> R^A: coordinatewise kernels or a general raw map."""

    __slots__ = ("kind", "kernels", "func", "dim", "label")

    def __init__(self, *, kind, kernels=None, func=None, dim=None, label=""):
        if kind == "coordinatewise":
            if not kernels:
                raise ValueError("coordinatewise needs kernels")
            self.kernels = tuple(_as_kernel(k) for k in kernels)
            self.func = None
            self.dim = len(self.kernels)
        elif kind == "general":
            if func is None or dim is None:
                raise ValueError("general needs func and dim")
            self.kernels = None
            self.func = func
            self.dim = int(dim)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.label = label

    @classmethod
    def coordinatewise(cls, kernels, dim: int | None = None) -> "LatticeFunction":
        """One kernel per atom; a single kernel broadcasts to every atom."""
        if isinstance(kernels, (str, ScalarKernel, ex.Expr)):
            kernels = [kernels]
        kernels = list(kernels)
        if dim is not None:
            if len(kernels) == 1:
                kernels = kernels * dim
            elif len(kernels) != dim:
                raise ValueError(f"kernel list length {len(kernels)} != dim {dim}")
        return cls(kind="coordinatewise", kernels=kernels)

    @classmethod
    def general(cls, func, dim: int, label="") -> "LatticeFunction":
        return cls(kind="general", func=func, dim=dim, label=label)

    @classmethod
    def swap(cls) -> "LatticeFunction":
        """The two-atom coordinate swap (x, y) -> (y, x); not band preserving."""
        return cls.general(lambda x: Element((x[1], x[0])), dim=2, label="swap")

    @classmethod
    def from_descriptor(cls, desc: dict) -> "LatticeFunction":
        kind = desc.get("kind")
        if kind == "coordinatewise":
            return cls.coordinatewise([str(s) for s in desc["kernels"]])
        if kind == "swap-demo":
            return cls.swap()
        raise ValueError(f"unknown function descriptor kind {kind!r}")

    @property
    def is_coordinatewise(self) -> bool:
        return self.kind == "coordinatewise"

    def __repr__(self) -> str:
        if self.is_coordinatewise:
            return f"LatticeFunction({[k.label for k in self.kernels]})"
        return f"LatticeFunction(general {self.label or self.func!r}, dim={self.dim})"

    def eval(self, x: Element) -> Element:
        if x.dim != self.dim:
            raise ValueError(f"dimension mismatch: {x.dim} vs {self.dim}")
        if self.is_coordinatewise:
            out = np.empty(self.dim)
            for i, k in enumerate(self.kernels):
                try:
                    out[i] = k.eval(x[i])
                except ex.EvalDomainError as err:
                    raise KernelEvalError(i, err) from err
            return Element(out)
        y = self.func(x)
        if not isinstance(y, Element):
            y = Element(y)
        if y.dim != self.dim:
            raise ValueError("general map changed dimension")
        return y

    __call__ = eval

    # -- pointwise algebra (expression kernels only) ---------------------------

    def compose(self, inner: "LatticeFunction") -> "LatticeFunction":
        """Atomwise composition self(inner(.))."""
        if not (self.is_coordinatewise and inner.is_coordinatewise):
            raise ValueError("compose needs coordinatewise functions")
        if self.dim != inner.dim:
            raise ValueError("dimension mismatch")
        return LatticeFunction(
            kind="coordinatewise",
            kernels=[a.compose(b) for a, b in zip(self.kernels, inner.kernels)],
        )

    def product(self, other: "LatticeFunction") -> "LatticeFunction":
        if not (self.is_coordinatewise and other.is_coordinatewise):
            raise ValueError("product needs coordinatewise functions")
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return LatticeFunction(
            kind="coordinatewise",
            kernels=[a.multiply(b) for a, b in zip(self.kernels, other.kernels)],
        )

    def derivative(self) -> "LatticeFunction | None":
        if not self.is_coordinatewise:
            return None
        ds = [k.derivative() for k in self.kernels]
        if any(d is None for d in ds):
            return None
        return LatticeFunction(kind="coordinatewise", kernels=ds)


@dataclass(frozen=True)
class LbpCheckResult:
    """Outcome of a band-mixing probe; never raised, always returned."""

    passed: bool
    trials: int
    x: Element | None = None
    y: Element | None = None
    band: Band | None = None

    def __bool__(self) -> bool:
        return self.passed


def lbp_check(
    f: LatticeFunction, domain: OrderInterval, trials: int = 200, seed: int = 0
) -> LbpCheckResult:
    """Probe the band-preservation law P(x)=P(y) => P(f(x))=P(f(y)).

    Coordinatewise functions pass structurally.  General maps are sampled:
    draw x, y in the domain and a band B, mix y' so that x and y' agree on
    B, and compare f on B.  Returns the first violation found.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if f.dim != domain.dim:
        raise ValueError("dimension mismatch")
    if f.is_coordinatewise:
        return LbpCheckResult(passed=True, trials=0)
    rng = np.random.default_rng(seed)
    dim = f.dim
    for _ in range(trials):
        x = domain.sample(rng)
        y = domain.sample(rng)
        band = Band(np.flatnonzero(rng.integers(0, 2, dim)), dim)
        mixed = band.project(x) + band.complement().project(y)
        fx = band.project(f.eval(x))
        fy = band.project(f.eval(mixed))
        if fx != fy:
            return LbpCheckResult(passed=False, trials=trials, x=x, y=mixed, band=band)
    return LbpCheckResult(passed=True, trials=trials)


@dataclass(frozen=True)
class ExtremaPair:
    """Componentwise inf/sup of a function over an order interval."""

    m: Element
    M: Element
    method: str  # "exact" | "sampled"
    tolerance: float

    def __post_init__(self):
        if not self.m.leq(self.M):
            raise ValueError("extrema need m <= M")


def extrema(f: LatticeFunction, interval: OrderInterval, tol: float = 0.0) -> ExtremaPair:
    """Per-atom inf/sup of a coordinatewise function over the interval.

    Exact for monotone-hinted kernels and for every differentiable
    expression kernel (from its certified critical points).  Callables,
    abs/min/max expressions, and kernels whose derivative vanishes on too
    many pieces to isolate are sampled on a refining grid until successive
    estimates move at most ``tol``.
    """
    if not f.is_coordinatewise:
        raise ValueError("extrema requires a coordinatewise function")
    if f.dim != interval.dim:
        raise ValueError("dimension mismatch")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lo = np.empty(f.dim)
    hi = np.empty(f.dim)
    method = "exact"
    achieved = 0.0
    for i, k in enumerate(f.kernels):
        try:
            m, big, how, delta = k.scalar_extrema(interval.lo[i], interval.hi[i], tol)
        except ex.EvalDomainError as err:
            raise KernelEvalError(i, err) from err
        lo[i], hi[i] = m, big
        if how == "sampled":
            method = "sampled"
            achieved = max(achieved, delta)
    return ExtremaPair(m=Element(lo), M=Element(hi), method=method, tolerance=achieved)


def continuity_modulus(
    f: LatticeFunction, interval: OrderInterval, deltas
) -> list[Element]:
    """Sampled sup of |f(x)-f(y)| over |x-y| <= delta, per atom, per delta.

    A grid diagnostic only; it underestimates the true modulus by at most
    the grid oscillation and decides nothing.
    """
    if not f.is_coordinatewise:
        raise ValueError("continuity_modulus requires a coordinatewise function")
    deltas = list(deltas)
    if not deltas:
        return []
    prev = None
    for d in deltas:
        if d.dim != f.dim:
            raise ValueError("dimension mismatch")
        if not np.all(d.data > 0):
            raise ValueError("deltas must be strictly positive")
        if prev is not None and not d.leq(prev):
            raise ValueError("deltas must be descending")
        prev = d

    grid = 1025
    per_atom_vals = []
    steps = []
    for i, k in enumerate(f.kernels):
        a, b = interval.lo[i], interval.hi[i]
        ts = np.linspace(a, b, grid)
        try:
            per_atom_vals.append(k.eval_many(ts))
        except ex.EvalDomainError as err:
            raise KernelEvalError(i, err) from err
        steps.append((b - a) / (grid - 1) if b > a else 0.0)

    out = []
    for d in deltas:
        mods = np.empty(f.dim)
        for i in range(f.dim):
            vals = per_atom_vals[i]
            h = steps[i]
            if h == 0.0:
                mods[i] = 0.0
                continue
            w = min(grid - 1, max(1, int(np.floor(d[i] / h + 1e-12))))
            windows = np.lib.stride_tricks.sliding_window_view(vals, w + 1)
            mods[i] = float((windows.max(axis=1) - windows.min(axis=1)).max())
        out.append(Element(mods))
    return out
