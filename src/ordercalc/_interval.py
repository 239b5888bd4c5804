"""Interval evaluation of stack programs, and certified isolation of critical points.

``enclose(prog, a, b)`` runs a compiled program once per opcode over arrays
of bounds and returns ``(lo, hi)`` with ``lo[i] <= k(t) <= hi[i]`` for every
t in ``[a[i], b[i]]`` at which the kernel is defined (Moore, Kearfott and
Cloud, *Introduction to Interval Analysis*, SIAM 2009).  Every operation
that rounds is rounded outward with ``np.nextafter``; numpy's sin, cos, exp
and log and the power routine are widened by a few ulps more, since they
are not correctly rounded.  A zero result stays zero: the operations here
produce one only exactly, up to underflow.  A divisor that contains 0, or a
log or sqrt argument wholly outside the domain, gives the unbounded
enclosure ``(-inf, inf)``; an argument partly outside it is clipped to it.

``isolate`` subdivides an interval breadth-first, every piece in one array,
until each piece either has a derivative enclosure that does not cross 0
(the kernel is monotone there), or brackets the one sign change of a
monotone derivative, which safeguarded regula falsi then narrows to
``tol`` (Tucker, *Validated Numerics*, Princeton 2011).
"""

from __future__ import annotations

import numpy as np

from ._kernels_fallback import _run
from ._tape import (
    OP_ABS,
    OP_ADD,
    OP_CONST,
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
    OP_VAR,
    Program,
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
# level with more live pieces than the cap gives up.
_SPLIT = 8
_CUTS = np.arange(_SPLIT + 1) / _SPLIT
_MAX_PIECES = 4096


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
    if np.isnan(lo).any():  # 0 * inf, or an undefined operand
        undefined = np.isnan(np.stack(np.broadcast_arrays(xl, xh, yl, yh))).any(axis=0)
        p = np.stack(np.broadcast_arrays(xl * yl, xl * yh, xh * yl, xh * yh))
        p[np.isnan(p)] = 0.0  # a factor that is exactly zero wins
        lo, hi = _hull(p)
        lo[undefined] = hi[undefined] = np.nan
    return lo, hi


def _div(xl, xh, yl, yh):
    lo, hi = _hull(np.stack(np.broadcast_arrays(xl / yl, xl / yh, xh / yl, xh / yh)))
    unbounded = ((yl <= 0.0) & (yh >= 0.0)) | np.isnan(lo)  # inf / inf included
    if unbounded.any():
        undefined = np.isnan(np.stack(np.broadcast_arrays(xl, xh, yl, yh))).any(axis=0)
        lo[unbounded], hi[unbounded] = -np.inf, np.inf
        lo[undefined] = hi[undefined] = np.nan
    return lo, hi


def _pow(xl, xh, n: int):
    if n == 0:
        return 1.0, 1.0
    m = abs(n)
    rel = (m + 1) * _EPS  # the evaluator's repeated squaring, or libm pow
    pl, ph = np.power(xl, m), np.power(xh, m)
    if m % 2:
        lo, hi = pl, ph
    else:
        lo = np.where(xl > 0.0, pl, np.where(xh < 0.0, ph, 0.0))
        hi = np.maximum(pl, ph)
    lo, hi = _down(lo, rel), _up(hi, rel)
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


def _abs(xl, xh):
    lo = np.where(xl >= 0.0, xl, np.where(xh <= 0.0, -xh, 0.0))
    return lo, np.maximum(-xl, xh)


def enclose(prog: Program, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the program over every piece [a[i], b[i]]; (-inf, inf) if unbounded."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    stack: list[tuple[np.ndarray, np.ndarray]] = []
    ops, iargs, consts = prog.ops.tolist(), prog.iargs.tolist(), prog.consts
    with np.errstate(all="ignore"):
        for k in range(len(ops)):
            op = ops[k]
            if op == OP_CONST:
                c = consts[iargs[k]]  # one object for both bounds marks a point
                stack.append((c, c))
            elif op == OP_VAR:
                stack.append((a, b))
            elif op == OP_NEG:
                xl, xh = stack.pop()
                stack.append((-xh, -xl))
            elif op in (OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MIN2, OP_MAX2):
                yl, yh = stack.pop()
                xl, xh = stack.pop()
                if op == OP_ADD:
                    stack.append((_down(xl + yl), _up(xh + yh)))
                elif op == OP_SUB:
                    stack.append((_down(xl - yh), _up(xh - yl)))
                elif op == OP_MUL:
                    stack.append(_mul(xl, xh, yl, yh))
                elif op == OP_DIV:
                    stack.append(_div(xl, xh, yl, yh))
                elif op == OP_MIN2:
                    stack.append((np.minimum(xl, yl), np.minimum(xh, yh)))
                else:
                    stack.append((np.maximum(xl, yl), np.maximum(xh, yh)))
            elif op == OP_POW:
                stack.append(_pow(*stack.pop(), iargs[k]))
            elif op == OP_SIN:
                stack.append(_periodic(*stack.pop(), np.sin, 0.5 * np.pi))
            elif op == OP_COS:
                stack.append(_periodic(*stack.pop(), np.cos, 0.0))
            elif op == OP_EXP:
                xl, xh = stack.pop()
                lo, hi = _down(np.exp(xl), _LIB_REL), _up(np.exp(xh), _LIB_REL)
                stack.append((lo, np.maximum(hi, _TINY)))  # exp underflows, never hits 0
            elif op == OP_LOG:
                stack.append(_monotone(*stack.pop(), np.log, _LIB_REL, 0.0, True))
            elif op == OP_SQRT:
                stack.append(_monotone(*stack.pop(), np.sqrt, 0.0, 0.0, False))
            elif op == OP_ABS:
                stack.append(_abs(*stack.pop()))
            else:
                raise ValueError(f"bad opcode {op}")
    lo, hi = np.broadcast_arrays(*stack.pop(), a)[:2]
    undefined = np.isnan(lo) | np.isnan(hi)
    return np.where(undefined, -np.inf, lo), np.where(undefined, np.inf, hi)


# --------------------------------------------------------------------------
# Certified isolation of the zeros of f'
# --------------------------------------------------------------------------

def _points(prog: Program, ts: np.ndarray) -> np.ndarray:
    """Point values, NaN or inf where the program is undefined (never raises)."""
    with np.errstate(all="ignore"):
        return _run(prog, ts)


def _narrow(slope, a: float, b: float, fa: float, fb: float, tol: float):
    """Narrow [a, b], over which ``slope`` changes sign once, to width ``tol``.

    Regula falsi with the Illinois weighting, kept tol/2 inside the bracket
    so that a zero near an end closes it; every third step bisects, so the
    width at least halves every three steps.  A zero value closes the
    bracket on its point.
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


def isolate(f: Program, d1: Program, d2: Program, slope, lo, hi, tol: float, floor: float):
    """Certified critical points of f on [lo, hi], and bounds of f around them.

    ``d1`` and ``d2`` are the programs of f' and f'', and ``slope`` evaluates
    f' at one point.  Returns ``(roots, ts, vals)``.  ``roots`` holds every
    zero of f' at which f may have a local extremum, each within ``tol``:
    exact zeros, the centres of single-root brackets, and the centres of
    pieces left unresolved at width ``floor``.  ``(ts, vals)`` are (t, value)
    entries that bound f on every cell holding one of them: f at an exact
    zero, f(c) +- sup|f''|*delta^2/2 at a bracket centre c of half-width
    delta, and f's own enclosure at both ends of an unresolved piece.
    Between them f is monotone, so these entries and the cell endpoints
    bound f on every cell.

    Raises EvalDomainError where f itself has no finite enclosure on an
    unresolved piece (a pole, or the edge of f's domain), and IsolationError
    when a level would hold more than ``_MAX_PIECES`` pieces.
    """
    cuts = lo + (hi - lo) * _CUTS  # the first level is already split
    cuts[-1] = hi
    a, b = cuts[:-1], cuts[1:]
    exact, brackets, unresolved = [], [], []
    while len(a):  # every level cuts pieces 8-fold, down to the floor
        if len(a) > _MAX_PIECES:
            raise IsolationError(
                f"derivative not resolved on [{lo!r}, {hi!r}] within {_MAX_PIECES} pieces"
            )
        s_lo, s_hi = enclose(d1, a, b)
        cross = (s_lo < 0.0) & (s_hi > 0.0)
        touch = ~cross & ((s_lo == 0.0) | (s_hi == 0.0)) & (s_lo != s_hi)
        if touch.any():  # f monotone, but an end may be an exact zero of f'
            ends = np.concatenate((a[touch], b[touch]))
            exact.append(ends[_points(d1, ends) == 0.0])
        a, b, s_lo, s_hi = a[cross], b[cross], s_lo[cross], s_hi[cross]
        if not len(a):
            break
        c_lo, c_hi = enclose(d2, a, b)
        vals = _points(d1, np.concatenate((a, b)))
        fa, fb = vals[: len(a)], vals[len(a) :]
        ok = ((c_lo >= 0.0) | (c_hi <= 0.0)) & np.isfinite(fa) & np.isfinite(fb)
        exact.append(a[ok & (fa == 0.0)])
        exact.append(b[ok & (fb == 0.0)])
        sign_change = ok & (np.sign(fa) * np.sign(fb) < 0.0)  # fa * fb may underflow
        if sign_change.any():  # with sup|f''| over the piece, for the error term
            curv = np.maximum(np.abs(c_lo), np.abs(c_hi))
            brackets.append(tuple(x[sign_change] for x in (a, b, fa, fb, curv)))
        rest = ~ok
        width = b - a
        # at the floor, or too few floats between the ends to split them
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        at_floor = rest & ((width <= floor) | (width <= 2 * _SPLIT * ulp))
        split = rest & ~at_floor
        if at_floor.any():
            unresolved.append((a[at_floor], b[at_floor]))
        a, b = a[split], b[split]
        cuts = a[:, None] + (b - a)[:, None] * _CUTS
        cuts[:, -1] = b
        a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()

    roots = [np.concatenate(exact)] if exact else []
    ts, tv = [], []
    if roots:
        ts.append(roots[0])
        tv.append(_points(f, roots[0]))
    if brackets:
        ba, bb, bfa, bfb, curv = (np.concatenate(x) for x in zip(*brackets))
        ends = zip(ba.tolist(), bb.tolist(), bfa.tolist(), bfb.tolist())
        ba, bb = np.array([_narrow(slope, *x, tol) for x in ends]).T
        c = 0.5 * (ba + bb)
        delta = 0.5 * (bb - ba)
        err = _up(0.5 * curv * delta * delta, 4.0 * _EPS)
        taylor = np.isfinite(err)  # else f's own enclosure, as for an unresolved piece
        if not taylor.all():
            unresolved.append((ba[~taylor], bb[~taylor]))
        c, err = c[taylor], err[taylor]
        fc = _points(f, c)
        roots.append(c)
        ts += [c, c]
        tv += [fc - err, fc + err]  # rounded to nearest, like the endpoint values
    if unresolved:
        ua = np.concatenate([x[0] for x in unresolved])
        ub = np.concatenate([x[1] for x in unresolved])
        f_lo, f_hi = enclose(f, ua, ub)
        bad = ~(np.isfinite(f_lo) & np.isfinite(f_hi))
        if bad.any():
            t = float(0.5 * (ua[bad][0] + ub[bad][0]))
            raise EvalDomainError(f"kernel has no finite bound near t={t!r}")
        roots.append(0.5 * (ua + ub))
        ts += [ua, ua, ub, ub]
        tv += [f_lo, f_hi, f_lo, f_hi]

    roots_arr = np.unique(np.concatenate(roots)) if roots else np.empty(0)
    if not ts:
        return roots_arr, np.empty(0), np.empty(0)
    ts_arr, tv_arr = np.concatenate(ts), np.concatenate(tv)
    if not np.all(np.isfinite(tv_arr)):
        bad = int(np.argmax(~np.isfinite(tv_arr)))
        t = float(ts_arr[bad])
        raise EvalDomainError(f"kernel evaluation left the real domain at t={t!r}")
    order = np.argsort(ts_arr, kind="stable")
    return roots_arr, ts_arr[order], tv_arr[order]
