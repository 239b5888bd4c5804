"""Functions [a,b] -> R^A: coordinatewise kernel families and general maps.

Coordinatewise functions apply one scalar kernel per atom and therefore
commute with every band projection by construction.  General maps carry no
such guarantee and exist to host counterexamples; :func:`lbp_check` probes
them by band mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import _kernels_fallback as _kernels
from ._interval import _MAX_PIECES, IsolationError, isolate
from ._kernels_fallback import RowError
from ._tape import Program, compile_expr
from .lattice import Band, Element, OrderInterval

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
    isolate; those, callables and abs/min/max expressions are sampled.  A
    kernel only evaluates and isolates, over rows of points or intervals:
    the extrema, sums and integrals of a ``LatticeFunction`` are taken band
    by band, one kernel object with all its atoms at a time (see
    ``extrema`` and ``integrate._make_bands``).
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
        """k(t); a value that is not finite raises EvalDomainError naming t.

        An expression runs its ``program`` through ``expr.eval_expr``, which
        computes as ``eval_many`` does, so both give one domain verdict: a
        value is refused only when the result is inf or NaN, not when a
        step on the way to it is (``min(-t^2, 1/(t - t))`` is -t^2 at every t).
        A callable's own ValueError or ArithmeticError is refused too, as
        ``EvalDomainError`` naming t.
        """
        try:
            v = ex.eval_expr(self.program, t) if self.expr is not None else float(self.func(t))
        except (ValueError, ArithmeticError) as err:  # a callable's own error
            raise ex.EvalDomainError(f"kernel evaluation failed at t={float(t)!r}: {err}") from err
        if not math.isfinite(v):
            raise ex.EvalDomainError(f"kernel evaluation left the real domain at t={float(t)!r}")
        return v

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """k at every point of ``ts``; fails where ``eval`` does, naming the first t at fault."""
        ts = np.asarray(ts, dtype=np.float64)
        if self.expr is not None:
            try:
                return _kernels.eval_many(self.program, ts)
            except RowError as err:
                raise err.cause from None
        # Python floats, as ``eval`` gets them, so a callable fails alike through both.
        out = np.fromiter(map(self.eval, ts.ravel().tolist()), dtype=np.float64, count=ts.size)
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

    def critical_points(self, lo: float, hi: float) -> np.ndarray:
        """The sorted distinct t of the one-row ``critical_entries`` on [lo, hi].

        Every zero of f' at which f may have a local extremum lies within
        ``_BISECT_TOL * max(1, |lo|, |hi|)`` of a returned point: a zero of
        f', the centre of a narrowed bracket, or an end of a piece left
        unresolved at the floor.  Raises EvalDomainError where f itself is
        unbounded near one, and IsolationError where f' vanishes (to the
        evaluator's resolution) on too many pieces to isolate.
        """
        try:
            _, ts, _, failed = self.critical_entries(np.array([lo]), np.array([hi]))
        except RowError as err:
            raise err.cause from None
        if failed[0]:
            raise IsolationError(
                f"derivative not resolved on [{lo!r}, {hi!r}] within {_MAX_PIECES} pieces"
            )
        return _kernels._distinct(ts)

    def critical_entries(self, lo: np.ndarray, hi: np.ndarray):
        """The critical (t, value) entries of every row [lo[r], hi[r]], in one pass.

        Returns ``(rows, ts, vals, failed)``: row r's entries are those with
        ``rows == r``, and folded into the cells holding them they make
        cell endpoints and entries bound f on every cell of row r.  A row's
        entries are the same whether it is isolated alone or with others.
        ``failed[r]`` marks a row whose isolation gave up, where
        ``critical_points`` raises IsolationError; it has no entries.  A
        kernel unbounded near a point raises RowError naming the lowest such
        row.
        """
        failed = np.zeros(len(lo), dtype=bool)
        live = np.flatnonzero(hi > lo)
        if self.derivative() is None or not len(live):
            return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), failed
        try:
            failed[live], (rows, ts, vals) = self._isolate(lo[live], hi[live])
        except RowError as err:
            raise RowError(int(live[err.row]), err.cause) from err.cause
        return live[rows], ts, vals, failed

    def _isolate(self, lo: np.ndarray, hi: np.ndarray):
        d1 = self.derivative()
        tol = _BISECT_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        floor = np.minimum(tol, (hi - lo) * _FLOOR_REL)
        d2 = d1.derivative()
        return isolate(self.program, d1.program, d2.program, d1.eval, lo, hi, tol, floor)

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


def _as_kernels(specs) -> tuple[ScalarKernel, ...]:
    """One kernel per spec; equal source strings, or one Expr object, share a kernel.

    Atoms with one kernel object form one band in ``integrate``, and share
    its parse, derivatives and compiled programs.
    """
    shared: dict = {}

    def kernel(k) -> ScalarKernel:
        if isinstance(k, ScalarKernel):
            return k
        key = k if isinstance(k, str) else id(k)
        if key not in shared:
            shared[key] = _as_kernel(k)
        return shared[key]

    return tuple(kernel(k) for k in specs)


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
            self.kernels = _as_kernels(kernels)
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

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Row i holds atom i's kernel at the points of row i of ``ts``.

        One ``ScalarKernel.eval_many`` call per kernel object.  A failure
        raises KernelEvalError for the lowest atom at fault, naming the first
        point at fault in its row, as if the atoms ran one by one.  A value
        is at fault where it is not finite, as in ``eval``, which gives the
        same verdict at one point per atom and is the faster there.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if not self.is_coordinatewise or len(ts) != self.dim:
            raise ValueError("eval_many needs a coordinatewise function and a row per atom")
        out = np.empty(ts.shape)

        def run(group):
            kernel, atoms = group
            out[atoms] = _eval_atoms(kernel, ts[atoms], atoms)

        _each(run, _kernel_groups(self.kernels, range(self.dim)), lowest=lambda group: group[1][0])
        return out

    # -- pointwise algebra (expression kernels only) ---------------------------

    def compose(self, inner: "LatticeFunction") -> "LatticeFunction":
        """Atomwise composition self(inner(.)).

        One kernel is built per distinct pair of kernel objects, so the
        composition of broadcast functions is broadcast.
        """
        if not (self.is_coordinatewise and inner.is_coordinatewise):
            raise ValueError("compose needs coordinatewise functions")
        if self.dim != inner.dim:
            raise ValueError("dimension mismatch")
        kernels = _pairwise(ScalarKernel.compose, self.kernels, inner.kernels)
        return LatticeFunction(kind="coordinatewise", kernels=kernels)

    def product(self, other: "LatticeFunction") -> "LatticeFunction":
        """Atomwise product; one kernel per distinct pair of kernel objects, as in ``compose``."""
        if not (self.is_coordinatewise and other.is_coordinatewise):
            raise ValueError("product needs coordinatewise functions")
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        kernels = _pairwise(ScalarKernel.multiply, self.kernels, other.kernels)
        return LatticeFunction(kind="coordinatewise", kernels=kernels)

    def derivative(self) -> "LatticeFunction | None":
        if not self.is_coordinatewise:
            return None
        ds = [k.derivative() for k in self.kernels]
        if any(d is None for d in ds):
            return None
        return LatticeFunction(kind="coordinatewise", kernels=ds)


def _pairwise(op, left, right) -> list[ScalarKernel]:
    """``op(a, b)`` for each atom's kernels a and b, built once per distinct pair of objects.

    Atoms whose kernels come out as one object form one band in
    ``integrate``, so the result of broadcast operands is refined as one.
    """
    built: dict = {}
    out = []
    for a, b in zip(left, right):
        key = (id(a), id(b))
        if key not in built:
            built[key] = op(a, b)
        out.append(built[key])
    return out


def _kernel_groups(kernels, atoms) -> list[tuple[ScalarKernel, list[int]]]:
    """Each kernel object of ``atoms``, with its atoms, in the order of their lowest atoms."""
    groups: dict = {}
    for i in atoms:
        groups.setdefault(id(kernels[i]), (kernels[i], []))[1].append(i)
    return list(groups.values())


def _each(fn, items, error: KernelEvalError | None = None, lowest=lambda band: band.atoms[0]):
    """``fn`` over ``items``, in order; ``lowest(item)`` is an item's lowest atom.

    Where calls raise KernelEvalError, or ``error`` is given, the error of
    the lowest atom is raised, as if the atoms had run one by one in atom
    order.  Once an error is kept, an item whose atoms all lie above it is
    not run: it could not raise a lower one.
    """
    out = []
    for item in items:
        if error is not None and lowest(item) > error.atom:
            continue
        try:
            out.append(fn(item))
        except KernelEvalError as err:
            if error is None or err.atom <= error.atom:  # a tie goes to the call
                error = err
    if error is not None:
        raise error
    return out


def _eval_atoms(kernel: ScalarKernel, ts: np.ndarray, atoms) -> np.ndarray:
    """``kernel.eval_many(ts)``, where row r of ``ts`` holds the points of atom ``atoms[r]``.

    A failure raises KernelEvalError for the lowest atom at fault, naming
    the first point at fault in its row; only then are rows evaluated one
    by one, to find it.
    """
    try:
        return kernel.eval_many(ts)
    except ex.EvalDomainError:
        for row, atom in zip(ts, atoms):
            try:
                kernel.eval_many(row)
            except ex.EvalDomainError as err:
                raise KernelEvalError(int(atom), err) from err
        raise


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
    """Per-atom inf/sup of a coordinatewise function over the interval, band by band.

    The bands are ``integrate``'s (see ``integrate._make_bands``), built
    once per distinct (kernel object, interval bits).  An exact band's
    extrema are each atom's endpoint values, from one ``eval_many`` over
    the band, folded with its certified critical entries: the extrema of
    the one-cell sums of ``darboux_sums``, bit for bit.  Exact bands hold
    monotone-hinted kernels and differentiable expression kernels.  The
    atoms of a sampled band (callables, abs/min/max expressions, and atoms
    whose isolation gave up) are sampled one by one on a refining grid
    until successive estimates move at most ``tol``.  A failing kernel
    raises KernelEvalError naming the lowest atom at fault.
    """
    from .integrate import _make_bands, _representatives

    if not f.is_coordinatewise:
        raise ValueError("extrema requires a coordinatewise function")
    if f.dim != interval.dim:
        raise ValueError("dimension mismatch")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lo, hi = interval.lo.data, interval.hi.data
    rep = _representatives(f, lo, hi)
    m, big = np.empty(f.dim), np.empty(f.dim)
    sampled = []  # the achieved tolerance of each sampled atom

    def run(band):
        if band.sampled:
            for i, a, b in zip(band.atoms.tolist(), band.lo, band.hi):
                try:
                    m[i], big[i], delta = _sampled_extrema(band.kernel, a, b, tol)
                except ex.EvalDomainError as err:
                    raise KernelEvalError(i, err) from err
                if b > a:
                    sampled.append(delta)
            return
        ends = _eval_atoms(band.kernel, np.stack([band.lo, band.hi], axis=1), band.atoms)
        low, up = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        if band.entries is not None:
            rows, _, vals = band.entries
            np.minimum.at(low, rows, vals)
            np.maximum.at(up, rows, vals)
        m[band.atoms], big[band.atoms] = low, up

    _each(run, *_make_bands(f, lo, hi, rep))
    method = "sampled" if sampled else "exact"
    achieved = max(sampled, default=0.0)
    return ExtremaPair(m=Element(m[rep]), M=Element(big[rep]), method=method, tolerance=achieved)


def _sampled_extrema(kernel: ScalarKernel, lo: float, hi: float, tol: float):
    """(min, max, achieved) of the kernel over [lo, hi], sampled on a refining grid.

    The grid doubles until the extrema move at most ``tol`` twice running,
    or it reaches ``_EXTREMA_GRID_CAP`` points.  ``achieved`` is the larger
    of the last change of the grid's extrema and the grid's resolution,
    which is at least half the largest step between neighbouring samples.
    A point interval is its one value, exactly.
    """
    if hi == lo:
        v = kernel.eval(lo)
        return v, v, 0.0
    g, change, streak = _EXTREMA_GRID_START, np.inf, 0
    vals = kernel.eval_many(np.linspace(lo, hi, g))
    # Changes can stall at a fixed offset from the true extremum, so the
    # criterion must hold twice running.
    while g < _EXTREMA_GRID_CAP and streak < 2:
        g = 2 * g - 1
        m, big = float(vals.min()), float(vals.max())
        vals = kernel.eval_many(np.linspace(lo, hi, g))
        change = max(abs(float(vals.min()) - m), abs(float(vals.max()) - big))
        streak = streak + 1 if change <= tol else 0
    m, big = float(vals.min()), float(vals.max())
    # Resolution-based residual: the worst quadratic deviation between
    # grid points, from a second-difference curvature estimate, but at
    # least half the largest step between neighbouring samples, which a
    # kink between them (abs, min, max) can hide.
    h = (hi - lo) / (g - 1)
    curvature = float(np.abs(np.diff(vals, 2)).max()) / (h * h) if g >= 3 else 0.0
    step = float(np.abs(np.diff(vals)).max())
    resolution = max(0.5 * curvature * (0.5 * h) ** 2, 0.5 * step)
    return m, big, float(max(change if np.isfinite(change) else 0.0, resolution))


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
    lo, hi = interval.lo.data, interval.hi.data
    steps = (hi - lo) / (grid - 1)
    ts = lo[:, None] + np.arange(grid) * steps[:, None]  # np.linspace's points, row by row
    ts[:, -1] = hi
    vals = f.eval_many(ts)

    out = []
    for d in deltas:
        mods = np.empty(f.dim)
        for i, h in enumerate(steps.tolist()):
            if h == 0.0:
                mods[i] = 0.0
                continue
            w = math.floor(min(grid - 1, max(1, d[i] / h + 1e-12)))  # clamped first: d/h can overflow
            windows = np.lib.stride_tricks.sliding_window_view(vals[i], w + 1)
            mods[i] = float((windows.max(axis=1) - windows.min(axis=1)).max())
        out.append(Element(mods))
    return out
