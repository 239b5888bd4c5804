"""The benchmark's workloads: seeded inputs, the solve calls, and their checks.

A workload is a fixed list of ``Call`` objects made from ``--seed``.  The
runner makes the calls one after another (a closed loop, one thread,
``workers=1``) and checks every result against a reference that owes
nothing to the package: the closed forms in ``closed_forms``, the pinned
values of the acceptance criteria, or a verifier's own ``passed`` flag.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import closed_forms as cf

# Rough cost of one refinement level, in ms per 2^20 cells, per atom, on
# the reference machine: endpoint or critical sums plus the grid for the
# polynomials, the two sampling passes plus the grid for sin and exp.  Only
# used to give every oracle case about the same predicted work.
_MS_PER_MCELL = {
    "t": 19.0,
    "t^2": 19.0,
    "t^3": 24.0,
    "3*t^2 - 2*t": 24.0,
    "sin(t)": 600.0,
    "exp(t)": 500.0,
}
_ORACLE_CASE_MS = 65.0
_ORACLE_TOL = 1e-6
_ORACLE_MAX_DEPTH = 24

# The depth model is exact away from a depth change; stay this far (log2)
# from one so that the integrator's depth is the predicted one.
_DEPTH_MARGIN = 0.1

_WIDE_DIM = 1000
_WIDE_TOL = 1e-3
_WIDE_DEPTH = 11

_DRAWS = 200_000


@dataclass
class Call:
    """One call of a workload: a closure, its check and its result digest.

    ``kind`` is "solve" for the calls whose latency ``solve_p50_s`` reports
    (integrate, antiderivative build, verify_*, mvt_integral_solve) and
    "query" for a block of antiderivative reads.
    """

    id: str
    fn: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], Any] = lambda r: None
    kind: str = "solve"


@dataclass
class Workload:
    calls: list[Call]
    # (kernel sources, dim) of every function the workload parses; the
    # set-up probe builds exactly these.
    kernel_specs: list[tuple[list[str], int]]
    # a multi-atom integrate case re-run with workers=2 for determinism
    parallel_case: tuple[Any, Any, Any] | None = None
    meta: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Shared checks
# --------------------------------------------------------------------------

def result_digest(r) -> tuple:
    """Every field of an IntegralResult, bit for bit."""
    return (
        r.value.data.tobytes(),
        r.lower.data.tobytes(),
        r.upper.data.tobytes(),
        r.gap.data.tobytes(),
        r.depth,
        r.converged,
        r.extrema_method,
    )


def check_integral(r, refs: list[float], ref_scale: list[float], tol: float) -> str | None:
    """Converged, within tol of the closed form, and an exact bracket holds.

    ``ref_scale`` bounds the magnitudes the reference was computed from; its
    rounding is a few ulps of that.
    """
    if not r.converged:
        return f"did not converge (depth {r.depth})"
    for i, ref in enumerate(refs):
        v = r.value[i]
        if not abs(v - ref) <= tol * (1.0 + abs(ref)):
            return f"atom {i}: value {v!r} vs reference {ref!r}"
        if r.extrema_method == "exact":
            slack = 8.0 * np.finfo(float).eps * ref_scale[i]
            if not (r.lower[i] - slack <= ref <= r.upper[i] + slack):
                return f"atom {i}: reference {ref!r} outside [{r.lower[i]!r}, {r.upper[i]!r}]"
    return None


def _ref_scale(src: str, a: float, b: float) -> float:
    F = cf.KERNELS[src][1]
    return abs(F(a)) + abs(F(b))


def cross_check_closed_forms(cases) -> None:
    """mpmath.quad against each closed form, for (src, a, b) triples."""
    import mpmath

    for src, a, b in cases:
        f = cf.KERNELS[src][0]
        want = float(mpmath.quad(lambda t: f(float(t)), [a, b]))
        got = cf.integral(src, a, b)
        if not abs(got - want) <= 1e-12 * (1.0 + abs(want)):
            raise AssertionError(f"closed form of {src} on [{a}, {b}]: {got!r} vs quad {want!r}")


# --------------------------------------------------------------------------
# oracle: the acceptance generator, cost-stratified
# --------------------------------------------------------------------------

def _draw_box(rng, src: str, tol: float, want) -> tuple[float, float]:
    """A box from the acceptance generator whose model depth satisfies ``want``."""
    for _ in range(_DRAWS):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
        if cf.near_boundary(src, lo, hi, tol, _DEPTH_MARGIN):
            continue
        if want(cf.model_depth(src, lo, hi, tol)):
            return lo, hi
    raise RuntimeError(f"no box for {src} after {_DRAWS} draws")


def _oracle_cases(seed: int, tiny: bool):
    """Eighteen cases over the acceptance oracle's kernel pool.

    For each kernel k of the pool and each dim 1-3 there is one case whose
    kernels are k and the next dim - 1 kernels of the pool (cyclically), so
    every dim has a third of its atoms sampled, as the acceptance generator
    has on average.  Each case gets the depth at which its predicted work is
    ``_ORACLE_CASE_MS``.  The seed permutes the atoms, picks the atom that
    closes at that depth, and draws every box from the acceptance
    generator's distribution (lo ~ U(-2, 1), width ~ U(0.1, 2)): the chosen
    atom's until it closes at the case's depth, the others' until they
    close no deeper.  Atoms therefore need different depths, as in the
    acceptance draw, while the work per pass barely moves between seeds.
    """
    rng = np.random.default_rng([seed, 1])
    pool = cf.ORACLE_KERNELS
    starts = [pool.index("sin(t)")] if tiny else range(len(pool))
    case_ms = 4.0 if tiny else _ORACLE_CASE_MS
    cases = []
    for dim in (1, 2, 3):
        for k in starts:
            sources = [pool[(k + j) % len(pool)] for j in range(dim)]
            sources = [sources[i] for i in rng.permutation(dim)]
            weight = sum(_MS_PER_MCELL[s] for s in sources)
            depth = round(math.log2(case_ms / (2.0 * weight)) + 20)
            deepest = int(rng.integers(dim))
            boxes = [
                _draw_box(rng, src, _ORACLE_TOL, (lambda d: d == depth) if i == deepest else (lambda d: d <= depth))
                for i, src in enumerate(sources)
            ]
            cases.append((sources, boxes, depth))
    return cases


def oracle(seed: int, tiny: bool = False) -> Workload:
    from ordercalc import Element, LatticeFunction, OrderInterval, ToleranceSchedule
    integ = importlib.import_module("ordercalc.integrate")

    sched = ToleranceSchedule(_ORACLE_TOL, _ORACLE_MAX_DEPTH)
    cases = _oracle_cases(seed, tiny)
    cross_check_closed_forms((s, a, b) for sources, boxes, _ in cases for s, (a, b) in zip(sources, boxes))
    calls = []
    specs = []
    parallel = None
    for n, (sources, boxes, depth) in enumerate(cases):
        f = LatticeFunction.coordinatewise(sources)
        box = OrderInterval(Element([a for a, _ in boxes]), Element([b for _, b in boxes]))
        refs = [cf.integral(s, a, b) for s, (a, b) in zip(sources, boxes)]
        scale = [_ref_scale(s, a, b) for s, (a, b) in zip(sources, boxes)]
        specs.append((sources, len(sources)))
        calls.append(
            Call(
                id=f"oracle[{n}] {sources} depth {depth}",
                fn=lambda f=f, box=box: integ.integrate(f, box, sched, workers=1),
                check=lambda r, refs=refs, scale=scale: check_integral(r, refs, scale, sched.tol),
                digest=result_digest,
            )
        )
        if parallel is None and len(sources) > 1:
            parallel = (f, box, sched)
    return Workload(
        calls=calls,
        kernel_specs=specs,
        parallel_case=parallel,
        meta={"cases": len(calls), "model_depths": [d for _, _, d in cases]},
    )


# --------------------------------------------------------------------------
# wide: dim 1000, one broadcast kernel
# --------------------------------------------------------------------------

def wide(seed: int, tiny: bool = False) -> Workload:
    from ordercalc import Element, LatticeFunction, OrderInterval, ToleranceSchedule
    integ = importlib.import_module("ordercalc.integrate")

    dim = 20 if tiny else _WIDE_DIM
    src = "t^2"
    rng = np.random.default_rng([seed, 2])
    # Every atom closes by depth 11, and one at exactly 11, so the refinement
    # runs the same number of levels for every seed.
    boxes = [_draw_box(rng, src, _WIDE_TOL, lambda d: d == _WIDE_DEPTH)]
    boxes += [_draw_box(rng, src, _WIDE_TOL, lambda d: d <= _WIDE_DEPTH) for _ in range(dim - 1)]
    order = rng.permutation(dim)
    boxes = [boxes[i] for i in order]
    cross_check_closed_forms((src, a, b) for a, b in boxes[:16])
    f = LatticeFunction.coordinatewise(src, dim=dim)
    box = OrderInterval(Element([a for a, _ in boxes]), Element([b for _, b in boxes]))
    sched = ToleranceSchedule(_WIDE_TOL, _ORACLE_MAX_DEPTH)
    refs = [cf.integral(src, a, b) for a, b in boxes]
    scale = [_ref_scale(src, a, b) for a, b in boxes]
    call = Call(
        id=f"wide dim {dim} {src}",
        fn=lambda: integ.integrate(f, box, sched, workers=1),
        check=lambda r: check_integral(r, refs, scale, sched.tol),
        digest=result_digest,
    )
    return Workload(
        calls=[call],
        kernel_specs=[([src], dim)],
        parallel_case=None,
        meta={"dim": dim, "model_depth": _WIDE_DEPTH},
    )


# --------------------------------------------------------------------------
# calculus: the acceptance calculus criteria and antiderivative reads
# --------------------------------------------------------------------------

def _report_check(extra: Callable[[Any], str | None] | None = None):
    def check(report) -> str | None:
        if not report.passed:
            return f"{report.name} failed: max residual {report.max_residual.to_json()}"
        return extra(report) if extra else None

    return check


def _report_digest(report) -> str:
    return repr(report.to_dict())


def _pinned_lhs(want: float):
    def check(report) -> str | None:
        got = report.details[0]["lhs"][0]
        return None if abs(got - want) <= 1e-5 else f"lhs {got!r} vs pinned {want!r}"

    return check


def calculus(seed: int, tiny: bool = False) -> Workload:
    from ordercalc import Element, LatticeFunction, OrderInterval, ToleranceSchedule
    calc = importlib.import_module("ordercalc.calculus")

    LF = LatticeFunction.coordinatewise

    def box(dim: int) -> OrderInterval:
        return OrderInterval(Element([0.0] * dim), Element([1.0] * dim))

    rng = np.random.default_rng([seed, 3])
    calls: list[Call] = []
    specs: list[tuple[list[str], int]] = []

    def fn(sources, dim: int):
        specs.append((list(sources), dim))
        return LF(list(sources), dim=dim)

    # FTC1, dims 1-3, t^2 and sin(t)
    ftc1_sched = ToleranceSchedule(1e-5, 22)
    for dim in (1,) if tiny else (1, 2, 3):
        for src in ("t^2", "sin(t)"):
            f = fn([src], dim)
            s = int(rng.integers(2**31))
            calls.append(
                Call(
                    id=f"ftc1 dim {dim} {src}",
                    fn=lambda f=f, dim=dim, s=s: calc.verify_ftc1(
                        f, box(dim), interior_samples=10, tol=1e-4, seed=s, sched=ftc1_sched
                    ),
                    check=_report_check(),
                    digest=_report_digest,
                )
            )

    # FTC2: 48 sampled pairs and 2 pinned incomparable pairs
    F2, f2 = fn(["t^3/3"], 2), fn(["t^2"], 2)
    s = int(rng.integers(2**31))
    calls.append(
        Call(
            id="ftc2 sampled pairs",
            fn=lambda: calc.verify_ftc2(F2, f2, box(2), samples=4 if tiny else 48, tol=1e-5, seed=s),
            check=_report_check(),
            digest=_report_digest,
        )
    )
    pinned = [
        (Element([1.0, 0.0]), Element([0.0, 1.0])),
        (Element([0.75, 0.25]), Element([0.25, 0.75])),
    ]
    calls.append(
        Call(
            id="ftc2 pinned pairs",
            fn=lambda: calc.verify_ftc2(F2, f2, box(2), tol=1e-5, pairs=pinned),
            check=_report_check(),
            digest=_report_digest,
        )
    )

    # MVT for integrals: 50 pairs of [t^2, t^3 - t], then c(t^2) on [0, 1]
    mvt_src = ["t^2", "t^3 - t"]
    fm = fn(mvt_src, 2)
    mvt_sched = ToleranceSchedule(1e-4, 18)
    for n, (x, y) in enumerate(_mvt_pairs(rng, mvt_src, mvt_sched.tol, 5 if tiny else 50)):
        calls.append(
            Call(
                id=f"mvt[{n}] x={x.tolist()} y={y.tolist()}",
                fn=lambda x=x, y=y: calc.mvt_integral_solve(
                    fm, Element(x), Element(y), tol=1e-10, sched=mvt_sched
                ),
                check=lambda c, x=x, y=y: _check_mvt(mvt_src, x, y, c, mvt_sched.tol),
                digest=lambda c: c.data.tobytes(),
            )
        )
    fsq = fn(["t^2"], 2)
    calls.append(
        Call(
            id="mvt pinned t^2 on [0, 1]",
            fn=lambda: calc.mvt_integral_solve(fsq, Element([0.0, 0.0]), Element([1.0, 1.0])),
            check=lambda c: None
            if np.all(np.abs(c.data - 3**-0.5) <= 1e-6)
            else f"c = {c.to_json()} vs 3^-1/2",
            digest=lambda c: c.data.tobytes(),
        )
    )

    # substitution and by-parts
    usub = [
        (("t^2", "1", "t + 1"), 7.0 / 3.0),
        (("t", "2*t", "t^2"), None),
    ]
    for (fs, gs, Gs), lhs in usub[:1] if tiny else usub:
        fu, gu, Gu = fn([fs], 2), fn([gs], 2), fn([Gs], 2)
        calls.append(
            Call(
                id=f"substitution f={fs} g={gs} G={Gs}",
                fn=lambda fu=fu, gu=gu, Gu=Gu: calc.verify_substitution(fu, gu, Gu, box(2), tol=1e-5),
                check=_report_check(_pinned_lhs(lhs) if lhs is not None else None),
                digest=_report_digest,
            )
        )
    parts = [(("t", "t^2/2"), 1.0 / 3.0), (("sin(t)", "t"), None)]
    for (fs, gs), lhs in parts[:1] if tiny else parts:
        fp, gp = fn([fs], 2), fn([gs], 2)
        calls.append(
            Call(
                id=f"by-parts f={fs} g={gs}",
                fn=lambda fp=fp, gp=gp: calc.verify_by_parts(
                    fp, gp, fp.derivative(), gp.derivative(), box(2), tol=1e-5
                ),
                check=_report_check(_pinned_lhs(lhs) if lhs is not None else None),
                digest=_report_digest,
            )
        )

    # an antiderivative built once (prefix sums written), then read
    anti_src = ["sin(t)", "t^3 - t"]
    fa = fn(anti_src, 2)
    anti_sched = ToleranceSchedule(1e-4, 16) if tiny else ToleranceSchedule()
    built: dict[str, Any] = {}

    def build():
        built["F"] = calc.antiderivative(fa, box(2), sched=anti_sched)
        return built["F"]

    def query():
        F = built.pop("F")  # so that no pass starts with the last pass's grids alive
        return np.array([F.eval(Element(p)).data for p in points])

    points = rng.uniform(0.0, 1.0, (20 if tiny else 200, 2))
    calls.append(
        Call(
            id=f"antiderivative build {anti_src}",
            fn=build,
            check=lambda F: None if F.dim == 2 else f"dim {F.dim}",
        )
    )
    calls.append(
        Call(
            id=f"antiderivative queries x{len(points)}",
            fn=query,
            check=lambda vals: _check_queries(anti_src, points, vals, anti_sched.tol),
            digest=lambda vals: vals.tobytes(),
            kind="query",
        )
    )
    cross_check_closed_forms(
        [("t^2", -1.0, 2.0), ("t^3 - t", -1.0, 2.0), ("sin(t)", 0.0, 1.0), ("t^3 - t", 0.0, 1.0)]
    )
    return Workload(
        calls=calls,
        kernel_specs=specs,
        meta={"solve_calls": sum(c.kind == "solve" for c in calls), "queries": len(points)},
    )


def _mvt_depth(sources, x, y, tol: float) -> int | None:
    """Model depth of signed_integrate over the pair's box; None near a change."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    if any(cf.near_boundary(s, a, b, tol, _DEPTH_MARGIN) for s, a, b in zip(sources, lo, hi)):
        return None
    return max(cf.model_depth(s, a, b, tol) for s, a, b in zip(sources, lo, hi))


def _mvt_pairs(rng, sources, tol: float, n: int):
    """n pairs from the acceptance draw (x, y ~ U(-1, 2)^2), depth-stratified.

    The depths are the n quantiles of the draw's own depth distribution,
    taken from a fixed reference sample; the seed draws pairs until each
    depth is met.  The pairs change with the seed, the work of each call
    hardly does, so the median call time holds still.
    """
    ref = np.random.default_rng(0)
    depths = [
        d for d in (_mvt_depth(sources, *ref.uniform(-1.0, 2.0, (2, 2)), tol) for _ in range(4000))
        if d is not None
    ]
    depths.sort()
    targets = [depths[int((k + 0.5) * len(depths) / n)] for k in range(n)]
    pairs = []
    for target in targets:
        for _ in range(_DRAWS):
            x, y = rng.uniform(-1.0, 2.0, (2, 2))
            if _mvt_depth(sources, x, y, tol) == target:
                pairs.append((x, y))
                break
        else:
            raise RuntimeError(f"no MVT pair of depth {target}")
    return pairs


def _check_mvt(sources, x, y, c, tol: float) -> str | None:
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    if not np.all((lo <= c.data) & (c.data <= hi)):
        return f"c = {c.to_json()} outside the box"
    for i, src in enumerate(sources):
        ref = cf.integral(src, x[i], y[i])
        got = (y[i] - x[i]) * cf.KERNELS[src][0](c[i])
        # c solves against the integrator's value, which is within tol of ref
        if not abs(got - ref) <= tol * (1.0 + abs(ref)) + 1e-8:
            return f"atom {i}: (y-x) f(c) = {got!r} vs integral {ref!r}"
    return None


def _check_queries(sources, points, vals, tol: float) -> str | None:
    for i, src in enumerate(sources):
        total = cf.integral(src, 0.0, 1.0)
        for p, v in zip(points, vals):
            ref = cf.integral(src, 0.0, p[i])
            if not abs(v[i] - ref) <= tol * (1.0 + abs(total)):
                return f"F({p.tolist()})[{i}] = {v[i]!r} vs closed form {ref!r}"
    return None


WORKLOADS = {"oracle": oracle, "wide": wide, "calculus": calculus}
