"""Interval evaluation of stack programs, and certified isolation of critical points.

``enclose(prog, a, b)`` evaluates a compiled program over arrays of bounds
and returns ``(lo, hi)`` with ``lo[i] <= k(t) <= hi[i]`` for every t in
``[a[i], b[i]]`` at which the kernel is defined (Moore, Kearfott and Cloud,
*Introduction to Interval Analysis*, SIAM 2009).  ``_tape.run`` alone steps
through the program; this module supplies only its op table, ``_OPS``,
which maps each opcode to an operation on (lo, hi) pairs.  Every operation
that rounds is rounded outward with ``np.nextafter``; numpy's sin, cos, exp
and log and the power routine are widened by a few ulps more, since they
are not correctly rounded.  A zero result stays zero: the operations here
produce one only exactly, up to underflow.  A divisor that contains 0, or a
log or sqrt argument wholly outside the domain, gives the unbounded
enclosure ``(-inf, inf)``; an argument partly outside it is clipped to it.

``isolate`` subdivides the intervals of many rows (the atoms of a band)
breadth-first, every piece in one array beside the row that owns it,
until each piece either has a derivative enclosure that does not cross 0
(the kernel is monotone there), or brackets the one sign change of a
monotone derivative, which safeguarded regula falsi then narrows to
``tol`` (Tucker, *Validated Numerics*, Princeton 2011).
"""

from __future__ import annotations

import numpy as np

from ._kernels_fallback import RowError, _finite, _run
from ._tape import (
    OP_ABS,
    OP_ADD,
    OP_COS,
    OP_DIV,
    OP_EXP,
    OP_LOG,
    OP_MAX2,
    OP_MIN2,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_SIN,
    OP_SQRT,
    OP_SUB,
    Program,
    run,
)
from .expr import EvalDomainError

_EPS = np.finfo(float).eps
_TINY = np.nextafter(0.0, 1.0)
_TWO_PI = 2.0 * np.pi
# Relative widening of numpy's transcendental routines (a few ulps each).
_LIB_REL = 4.0 * _EPS
# Peaks of sin and cos closer than this (in periods) to a piece count as held.
_PHASE_SLOP = 1e-9

# Isolation: an unresolved piece is split into _SPLIT equal parts, and a
# row that would hold more live pieces than the cap in a level gives up.
# All rows start in one block, and a block whose next level would hold
# more than _LEVEL_PIECES pieces splits its rows in two.
_SPLIT = 8
_CUTS = np.arange(_SPLIT + 1) / _SPLIT
_MAX_PIECES = 4096
_LEVEL_PIECES = 1 << 18


class IsolationError(ArithmeticError):
    """The derivative could not be resolved within the piece budget."""


# --------------------------------------------------------------------------
# Outward rounding
# --------------------------------------------------------------------------

def _down(x: np.ndarray, rel: float = 0.0) -> np.ndarray:
    """A lower bound for a value computed as ``x`` with relative error ``rel``."""
    y = np.where(x > 0.0, x * (1.0 - rel), x * (1.0 + rel)) if rel else x
    return np.where(x == 0.0, 0.0, np.nextafter(y, -np.inf))


def _up(x: np.ndarray, rel: float = 0.0) -> np.ndarray:
    """An upper bound for a value computed as ``x`` with relative error ``rel``."""
    y = np.where(x > 0.0, x * (1.0 + rel), x * (1.0 - rel)) if rel else x
    return np.where(x == 0.0, 0.0, np.nextafter(y, np.inf))


# --------------------------------------------------------------------------
# Interval operations.  Bounds are float64 arrays of one shape; NaN in a
# bound marks a piece on which a subexpression is nowhere defined (or,
# after 0 * inf or inf / inf, may be anything), and every operation keeps it.
# --------------------------------------------------------------------------

def _hull(p: np.ndarray):
    """Outward-rounded bounds of the candidate values ``p`` (one row each)."""
    return _down(p.min(axis=0)), _up(p.max(axis=0))


def _mul(xl, xh, yl, yh):
    if xl is xh:  # a constant operand: two products suffice
        xl, xh, yl, yh = yl, yh, xl, xh
    if yl is yh:
        p, q = xl * yl, xh * yl
        lo, hi = _down(np.minimum(p, q)), _up(np.maximum(p, q))
    else:
        lo, hi = _hull(np.stack((xl * yl, xl * yh, xh * yl, xh * yh)))
    if np.count_nonzero(np.isnan(lo)):  # 0 * inf, or an undefined operand
        undefined = np.isnan(np.stack(np.broadcast_arrays(xl, xh, yl, yh))).any(axis=0)
        p = np.stack(np.broadcast_arrays(xl * yl, xl * yh, xh * yl, xh * yh))
        p[np.isnan(p)] = 0.0  # a factor that is exactly zero wins
        lo, hi = _hull(p)
        lo[undefined] = hi[undefined] = np.nan
    return lo, hi


def _div(xl, xh, yl, yh):
    lo, hi = _hull(np.stack(np.broadcast_arrays(xl / yl, xl / yh, xh / yl, xh / yh)))
    unbounded = ((yl <= 0.0) & (yh >= 0.0)) | np.isnan(lo)  # inf / inf included
    if np.count_nonzero(unbounded):
        undefined = np.isnan(np.stack(np.broadcast_arrays(xl, xh, yl, yh))).any(axis=0)
        lo[unbounded], hi[unbounded] = -np.inf, np.inf
        lo[undefined] = hi[undefined] = np.nan
    return lo, hi


def _neg(xl, xh):
    n = -xl
    return (n, n) if xl is xh else (-xh, n)  # a negated point stays one object for ``_mul``


def _pow(xl, xh, n: int):
    if n == 0:
        return 1.0, 1.0
    m = abs(n)
    rel = (m + 1) * _EPS  # the evaluator's repeated squaring, or libm pow
    pl, ph = np.power(xl, m), np.power(xh, m)
    if m % 2:
        lo, hi = _down(pl, rel), _up(ph, rel)
    else:  # both bounds are >= 0 or NaN, where the sign selects of _down and _up pick these products
        lo = np.where(xl > 0.0, pl, np.where(xh < 0.0, ph, 0.0))
        lo, hi = _down(lo * (1.0 - rel)), _up(np.maximum(pl, ph) * (1.0 + rel))
    if n < 0:
        return _div(1.0, 1.0, lo, hi)
    return lo, hi


def _periodic(xl, xh, fn, peak: float):
    """sin or cos: the values at the ends, +-1 where a peak or trough may lie.

    ``peak`` is the phase of the maxima; the minima lie half a period on.
    A piece holds a peak when [u, v], its ends in periods from ``peak``,
    may hold an integer (a trough: an integer plus one half).
    """
    vl, vh = fn(xl), fn(xh)
    lo = np.maximum(_down(np.minimum(vl, vh), _LIB_REL), -1.0)
    hi = np.minimum(_up(np.maximum(vl, vh), _LIB_REL), 1.0)
    u = (xl - peak) / _TWO_PI
    v = (xh - peak) / _TWO_PI
    slop = _PHASE_SLOP + 8.0 * _EPS * np.maximum(np.abs(u), np.abs(v))
    u, v = u - slop, v + slop
    hi = np.where(np.floor(v) >= np.ceil(u), 1.0, hi)
    lo = np.where(np.floor(v - 0.5) >= np.ceil(u - 0.5), -1.0, lo)
    wide = xh - xl >= _TWO_PI  # also every infinite bound
    return np.where(wide, -1.0, lo), np.where(wide, 1.0, hi)


def _monotone(xl, xh, fn, rel: float, domain_lo: float, open_domain: bool):
    """An increasing function on [domain_lo, inf), open at domain_lo if asked.

    Bounds over the part of [xl, xh] inside the domain, and undefined where
    none of it is.  Clipping keeps ``sqrt(1 - t^2)`` bounded at t = +-1,
    where the outward-rounded argument dips below 0 by an ulp.
    """
    outside = ~(xh > domain_lo) if open_domain else ~(xh >= domain_lo)
    lo, hi = _down(fn(np.maximum(xl, domain_lo)), rel), _up(fn(xh), rel)
    return np.where(outside, np.nan, lo), np.where(outside, np.nan, hi)


def _exp(xl, xh):
    lo, hi = _down(np.exp(xl), _LIB_REL), _up(np.exp(xh), _LIB_REL)
    return lo, np.maximum(hi, _TINY)  # exp underflows, never hits 0


def _abs(xl, xh):
    lo = np.where(xl >= 0.0, xl, np.where(xh <= 0.0, -xh, 0.0))
    return lo, np.maximum(-xl, xh)


# The interval evaluator's op table, over (lo, hi) pairs.
_OPS = {
    OP_NEG: lambda x: _neg(*x),
    OP_ADD: lambda x, y: (_down(x[0] + y[0]), _up(x[1] + y[1])),
    OP_SUB: lambda x, y: (_down(x[0] - y[1]), _up(x[1] - y[0])),
    OP_MUL: lambda x, y: _mul(*x, *y),
    OP_DIV: lambda x, y: _div(*x, *y),
    OP_POW: lambda x, n: _pow(*x, n),
    OP_SIN: lambda x: _periodic(*x, np.sin, 0.5 * np.pi),
    OP_COS: lambda x: _periodic(*x, np.cos, 0.0),
    OP_EXP: lambda x: _exp(*x),
    OP_LOG: lambda x: _monotone(*x, np.log, _LIB_REL, 0.0, True),
    OP_SQRT: lambda x: _monotone(*x, np.sqrt, 0.0, 0.0, False),
    OP_ABS: lambda x: _abs(*x),
    OP_MIN2: lambda x, y: (np.minimum(x[0], y[0]), np.minimum(x[1], y[1])),
    OP_MAX2: lambda x, y: (np.maximum(x[0], y[0]), np.maximum(x[1], y[1])),
}


def enclose(prog: Program, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the program over every piece [a[i], b[i]]; (-inf, inf) if unbounded.

    The bounds are read-only to the caller: for the program ``t`` they are
    ``a`` and ``b`` themselves.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        # a constant is one object for both bounds, which marks a point for ``_mul``
        lo, hi = run(prog, (a, b), lambda c: (c, c), _OPS)
    if np.shape(lo) != a.shape or np.shape(hi) != a.shape:  # a constant bound
        lo, hi = np.broadcast_arrays(lo, hi, a)[:2]
    undefined = np.isnan(lo) | np.isnan(hi)
    if np.count_nonzero(undefined):
        lo, hi = np.where(undefined, -np.inf, lo), np.where(undefined, np.inf, hi)
    return lo, hi


# --------------------------------------------------------------------------
# Certified isolation of the zeros of f'
# --------------------------------------------------------------------------

def _narrow(slope, a: float, b: float, fa: float, fb: float, tol: float):
    """Narrow [a, b], over which ``slope`` changes sign once, to width ``tol``.

    Regula falsi with the Illinois weighting, kept tol/2 inside the bracket
    so that a zero near an end closes it; every third step bisects, so the
    width at least halves every three steps.  A zero value closes the
    bracket on its point.  It is the one root refiner of the package:
    ``isolate`` narrows the brackets of f' with it, and
    ``calculus._mvt_root`` the mean-value bracket.
    """
    step, kept = 0, 0  # kept: the end retained last time, -1 for a, +1 for b
    while b - a > tol:
        step += 1
        if step % 3 == 0:
            x = 0.5 * (a + b)
        else:
            x = min(max(a - fa * ((b - a) / (fb - fa)), a + 0.5 * tol), b - 0.5 * tol)
        fx = slope(x)
        if fx == 0.0:
            return x, x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            fb = 0.5 * fb if kept == 1 else fb
            kept = 1
        else:
            b, fb = x, fx
            fa = 0.5 * fa if kept == -1 else fa
            kept = -1
    return a, b


def _joined(parts) -> np.ndarray:
    """The arrays ``parts`` end to end; a lone one as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_of_lowest_row(rows: np.ndarray, bad: np.ndarray) -> tuple[int, int]:
    """(row, index) of the first bad element of the lowest row holding one."""
    row = int(rows[bad].min())
    return row, int(np.argmax(bad & (rows == row)))


def _levels(d1: Program, d2: Program, a, b, own, r0: int, r1: int, floor, failed, found) -> None:
    """Isolate on the pieces [a, b] of rows r0..r1 - 1, ``own`` the row of each, level by level.

    Each level cuts the live pieces ``_SPLIT``-fold, the rows' whole
    intervals first.  What a level resolves goes to ``found``, lists of
    (exact, brackets, unresolved) arrays with the row first, and a row that
    gives up is marked in ``failed``.  A block whose next level would hold
    more than ``_LEVEL_PIECES`` pieces over more than one row goes on as
    two, the lower half of the rows and the upper, each from its own
    pieces.  A row's pieces keep their order, so its entries come out in
    the order of one block.
    """
    exact, brackets, unresolved = found
    while len(a):  # every level cuts pieces 8-fold, down to the floor
        if len(a) * _SPLIT > _LEVEL_PIECES and r1 - r0 > 1:
            mid = (r0 + r1) // 2
            for half, (h0, h1) in ((own < mid, (r0, mid)), (own >= mid, (mid, r1))):
                _levels(d1, d2, a[half], b[half], own[half], h0, h1, floor, failed, found)
            return
        cuts = a[:, None] + (b - a)[:, None] * _CUTS
        cuts[:, -1] = b
        a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        own = np.repeat(own, _SPLIT)
        s_lo, s_hi = enclose(d1, a, b)
        cross = (s_lo < 0.0) & (s_hi > 0.0)
        touch = ((s_lo == 0.0) | (s_hi == 0.0)) & (s_lo != s_hi)  # no crossing piece has a zero bound
        if np.count_nonzero(touch):  # f monotone, but an end may be an exact zero of f'
            ends = np.concatenate((a[touch], b[touch]))
            zero = _run(d1, ends) == 0.0
            exact.append((np.tile(own[touch], 2)[zero], ends[zero]))
        a, b, own = a[cross], b[cross], own[cross]
        if not len(a):
            break
        c_lo, c_hi = enclose(d2, a, b)
        vals = _run(d1, np.concatenate((a, b)))
        fa, fb = vals[: len(a)], vals[len(a) :]
        ok = ((c_lo >= 0.0) | (c_hi <= 0.0)) & np.isfinite(fa) & np.isfinite(fb)
        for end, f_end in ((a, fa), (b, fb)):  # an end that is an exact zero of f'
            if np.count_nonzero(zero := ok & (f_end == 0.0)):
                exact.append((own[zero], end[zero]))
        sign_change = ok & (np.sign(fa) * np.sign(fb) < 0.0)  # fa * fb may underflow
        if np.count_nonzero(sign_change):  # with sup|f''| over the piece, for the error term
            curv = np.maximum(np.abs(c_lo), np.abs(c_hi))
            brackets.append(tuple(x[sign_change] for x in (own, a, b, fa, fb, curv)))
        rest = ~ok
        if not np.count_nonzero(rest):  # every piece resolved
            break
        width = b - a
        # at the floor, or too few floats between the ends to split them
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        at_floor = rest & ((width <= floor[own]) | (width <= 2 * _SPLIT * ulp))
        split = rest & ~at_floor
        if np.count_nonzero(at_floor):
            unresolved.append((own[at_floor], a[at_floor], b[at_floor]))
        # a row whose next level would hold more than _MAX_PIECES pieces gives up
        failed[r0:r1] |= np.bincount(own[split] - r0, minlength=r1 - r0) * _SPLIT > _MAX_PIECES
        split &= ~failed[own]
        a, b, own = a[split], b[split], own[split]


def isolate(f: Program, d1: Program, d2: Program, slope, lo, hi, tol, floor):
    """Certified critical points of f on every row's interval [lo[r], hi[r]].

    ``d1`` and ``d2`` are the programs of f' and f'', and ``slope``
    evaluates f' at one point; ``tol`` and ``floor`` are per-row arrays.
    Rows are isolated in blocks, every piece of a block's level in one
    array: all rows start in one, and a block whose next level would hold
    more than ``_LEVEL_PIECES`` pieces goes on as two, each with half its
    rows and their own pieces (see ``_levels``).  A row's result never
    depends on the other rows.
    Returns ``(failed, (rows, ts, vals))``:

    - ``failed[r]`` marks a row that would need more than ``_MAX_PIECES``
      pieces in a level; it gets no entries.
    - ``(ts, vals)`` are (t, value) entries that bound f on every cell
      holding one of them: f at an exact zero of f', f(c) +-
      sup|f''|*delta^2/2 at the centre c of a single-root bracket narrowed
      to half-width delta <= tol/2, and f's own enclosure at both ends of
      a piece left unresolved at width ``floor``.  Between them f is
      monotone, so these entries and the cell endpoints bound f on every
      cell, and every zero of f' at which f may have a local extremum
      lies within ``tol`` of an entry's t, as ``floor <= tol``.  They are
      sorted by row, then by t.

    f is evaluated once for all exact zeros and bracket centres, and a
    level whose every piece resolves ends the subdivision.

    Raises RowError, naming the lowest row at fault, with an EvalDomainError
    where f itself has no finite enclosure on an unresolved piece (a pole,
    or the edge of f's domain) or no finite value at an entry.
    """
    failed = np.zeros(len(lo), dtype=bool)
    exact, brackets, unresolved = [], [], []  # arrays found per level, the row first
    _levels(d1, d2, lo, hi, np.arange(len(lo)), 0, len(lo), floor, failed, (exact, brackets, unresolved))
    if np.count_nonzero(failed):  # the rows that gave up keep nothing
        exact, brackets, unresolved = (
            [tuple(x[~failed[part[0]]] for x in part) for part in found]
            for found in (exact, brackets, unresolved)
        )
    x_rows, x_ts = map(_joined, zip(*exact)) if exact else (np.empty(0, dtype=np.int64), np.empty(0))
    b_rows, c, err = x_rows[:0], x_ts[:0], x_ts[:0]
    if brackets:
        b_rows, ba, bb, bfa, bfb, curv = map(_joined, zip(*brackets))
        ends = zip(ba.tolist(), bb.tolist(), bfa.tolist(), bfb.tolist(), tol[b_rows].tolist())
        ba, bb = np.array([_narrow(slope, *x) for x in ends]).reshape(-1, 2).T
        c = 0.5 * (ba + bb)
        delta = 0.5 * (bb - ba)
        err = _up(0.5 * curv * delta * delta, 4.0 * _EPS)
        taylor = np.isfinite(err)  # else f's own enclosure, as for an unresolved piece
        if not _finite(err):
            unresolved.append((b_rows[~taylor], ba[~taylor], bb[~taylor]))
            b_rows, c, err = b_rows[taylor], c[taylor], err[taylor]
    # f at the exact zeros and at the bracket centres, in one run
    fx = _run(f, np.concatenate((x_ts, c))) if len(x_ts) + len(c) else x_ts
    fc = fx[len(x_ts) :]
    e_rows, ts, tv = [x_rows, b_rows, b_rows], [x_ts, c, c], [fx[: len(x_ts)], fc - err, fc + err]
    errors = []  # (row, message) of the first failure of each kind
    if unresolved:
        u_rows, ua, ub = (np.concatenate(x) for x in zip(*unresolved))
        f_lo, f_hi = enclose(f, ua, ub)
        bad = ~(np.isfinite(f_lo) & np.isfinite(f_hi))
        if bad.any():
            row, i = _first_of_lowest_row(u_rows, bad)
            t = float(0.5 * (ua[i] + ub[i]))
            errors.append((row, f"kernel has no finite bound near t={t!r}"))
        e_rows += [u_rows] * 4
        ts += [ua, ua, ub, ub]
        tv += [f_lo, f_hi, f_lo, f_hi]

    e_rows, ts, tv = np.concatenate(e_rows), np.concatenate(ts), np.concatenate(tv)
    if not _finite(tv):
        row, i = _first_of_lowest_row(e_rows, ~np.isfinite(tv))
        errors.append((row, f"kernel evaluation left the real domain at t={float(ts[i])!r}"))
    order = np.lexsort((ts, e_rows))
    entries = (e_rows[order], ts[order], tv[order])
    if errors:
        row, message = min(errors, key=lambda e: e[0])  # a tie keeps the unresolved piece
        raise RowError(row, EvalDomainError(message))
    return failed, entries
