"""Command-line front end.

Subcommands: integrate, signed-integrate, verify {ftc1,ftc2,mvt,usub,parts},
bands, totord, demo swap.  Elements are comma-separated decimals; point
lists are semicolon-separated.  Exit codes: 0 success/pass, 1 usage or
input error, 2 non-convergence or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from ._kernels_fallback import NAME as BACKEND_NAME
from .calculus import (
    mvt_integral_solve,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)
from .functions import LatticeFunction
from .integrate import ToleranceSchedule, darboux_sums, integrate, signed_integrate
from .lattice import Element, OrderInterval, totord, trichotomy
from .partitions import Partition


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_element(text: str, dim: int | None) -> Element:
    vals = [float(part) for part in text.split(",") if part.strip() != ""]
    if not vals:
        raise ValueError(f"empty element {text!r}")
    if dim is not None and len(vals) == 1 and dim > 1:
        vals = vals * dim
    if dim is not None and len(vals) != dim:
        raise ValueError(f"element {text!r} has {len(vals)} coords, expected {dim}")
    return Element(vals)


def _flag_element(args, name: str) -> Element:
    """The element given by ``--name``, of ``--dim`` coordinates; ValueError if it is missing."""
    text = getattr(args, name)
    if text is None:
        raise ValueError(f"--{name} is required")
    return _parse_element(text, args.dim)


def _parse_points(text: str) -> list[Element]:
    return [_parse_element(chunk, None) for chunk in text.split(";") if chunk.strip()]


def _function(args, flag: str = "kernel") -> LatticeFunction:
    descriptor = getattr(args, "function", None)
    if descriptor and flag == "kernel":
        f = LatticeFunction.from_descriptor(json.loads(descriptor))
        if args.dim is not None and f.dim != args.dim:
            raise ValueError(f"descriptor dim {f.dim} != --dim {args.dim}")
        return f
    kernels = getattr(args, flag.replace("-", "_"), None)
    if not kernels:
        raise ValueError(f"--{flag} is required")
    dim = args.dim or 1
    if len(kernels) not in (1, dim):
        raise ValueError(f"--{flag} takes 1 or {dim} expressions")
    return LatticeFunction.coordinatewise(list(kernels), dim=dim)


def _sched(args) -> ToleranceSchedule:
    return ToleranceSchedule(tol=args.tol, max_depth=args.max_depth)


def _emit(payload: dict, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _result_rows(result_dict: dict) -> list[dict]:
    dim = len(result_dict["value"])
    return [
        {
            "atom": i,
            "value": result_dict["value"][i],
            "lower": result_dict["lower"][i],
            "upper": result_dict["upper"][i],
            "gap": result_dict["gap"][i],
            "converged": result_dict["converged"],
        }
        for i in range(dim)
    ]


# --------------------------------------------------------------------------
# Handlers
# --------------------------------------------------------------------------

def _cmd_integrate(args) -> int:
    f = _function(args)
    lo = _flag_element(args, "lo")
    hi = _flag_element(args, "hi")
    result = integrate(f, OrderInterval(lo, hi), sched=_sched(args))
    payload = {"command": "integrate", "backend": BACKEND_NAME, **result.to_dict()}
    _emit(payload, _result_rows(result.to_dict()), args.format)
    return 0 if result.converged else 2


def _cmd_signed_integrate(args) -> int:
    f = _function(args)
    a = _flag_element(args, "a")
    b = _flag_element(args, "b")
    result = signed_integrate(f, a, b, sched=_sched(args))
    payload = {"command": "signed-integrate", "backend": BACKEND_NAME, **result.to_dict()}
    _emit(payload, _result_rows(result.to_dict()), args.format)
    return 0 if result.converged else 2


def _report_exit(report, args) -> int:
    payload = {"command": f"verify {report.name}", "backend": BACKEND_NAME}
    payload.update(report.to_dict())
    rows = [
        {"atom": i, "max_residual": payload["max_residual"][i], "passed": report.passed}
        for i in range(len(payload["max_residual"]))
    ]
    _emit(payload, rows, args.format)
    return 0 if report.passed else 2


def _cmd_verify(args) -> int:
    which = args.which
    if which == "mvt":
        f = _function(args)
        x = _flag_element(args, "x")
        y = _flag_element(args, "y")
        c = mvt_integral_solve(f, x, y, tol=args.tol)
        lhs = (y - x) * f.eval(c)
        rhs = signed_integrate(f, x, y).value
        residual = abs(lhs - rhs)
        passed = bool(max(residual.data) <= max(args.tol, 1e-8))
        payload = {
            "command": "verify mvt",
            "backend": BACKEND_NAME,
            "c": c.to_json(),
            "residual": residual.to_json(),
            "passed": passed,
        }
        rows = [
            {"atom": i, "c": c.to_json()[i], "residual": residual.to_json()[i]}
            for i in range(c.dim)
        ]
        _emit(payload, rows, args.format)
        return 0 if passed else 2

    f = _function(args)
    if which == "ftc1":
        lo = _flag_element(args, "lo")
        hi = _flag_element(args, "hi")
        report = verify_ftc1(
            f,
            OrderInterval(lo, hi),
            interior_samples=args.samples,
            tol=args.tol,
            seed=args.seed,
        )
        return _report_exit(report, args)
    if which == "ftc2":
        if not args.anti:
            raise ValueError("verify ftc2 needs --anti (the antiderivative)")
        F = LatticeFunction.coordinatewise(list(args.anti), dim=args.dim or 1)
        if args.x and args.y:
            x = _flag_element(args, "x")
            y = _flag_element(args, "y")
            box = OrderInterval(x.inf(y), x.sup(y))
            report = verify_ftc2(F, f, box, tol=args.tol, seed=args.seed, pairs=[(x, y)])
        else:
            lo = _flag_element(args, "lo")
            hi = _flag_element(args, "hi")
            report = verify_ftc2(
                F, f, OrderInterval(lo, hi), samples=args.samples, tol=args.tol, seed=args.seed
            )
        return _report_exit(report, args)
    if which == "usub":
        if not args.G:
            raise ValueError("verify usub needs --G (the substitution)")
        lo = _flag_element(args, "lo")
        hi = _flag_element(args, "hi")
        G = LatticeFunction.coordinatewise(list(args.G), dim=args.dim or 1)
        g = (
            LatticeFunction.coordinatewise(list(args.g), dim=args.dim or 1)
            if args.g
            else G.derivative()
        )
        if g is None:
            raise ValueError("--G is not symbolically differentiable; pass --g")
        report = verify_substitution(f, g, G, OrderInterval(lo, hi), tol=args.tol)
        return _report_exit(report, args)
    if which == "parts":
        if not args.g:
            raise ValueError("verify parts needs --g (the second factor)")
        lo = _flag_element(args, "lo")
        hi = _flag_element(args, "hi")
        g = LatticeFunction.coordinatewise(list(args.g), dim=args.dim or 1)
        df = f.derivative()
        dg = g.derivative()
        if df is None or dg is None:
            raise ValueError("verify parts needs symbolically differentiable kernels")
        report = verify_by_parts(f, g, df, dg, OrderInterval(lo, hi), tol=args.tol)
        return _report_exit(report, args)
    raise ValueError(f"unknown verify target {which!r}")


def _cmd_bands(args) -> int:
    x = _flag_element(args, "x")
    y = _flag_element(args, "y")
    decomposition = trichotomy(x, y)
    lt, gt, eq = decomposition.parts
    payload = {
        "command": "bands",
        "lt": lt.to_json(),
        "gt": gt.to_json(),
        "eq": eq.to_json(),
    }
    rows = [
        {"atom": i, "band": "lt" if i in lt else ("gt" if i in gt else "eq")}
        for i in range(x.dim)
    ]
    _emit(payload, rows, args.format)
    return 0


def _cmd_totord(args) -> int:
    points = _parse_points(args.points)
    chain = totord(points)
    payload = {"command": "totord", "chain": [p.to_json() for p in chain]}
    rows = [
        {"index": k, **{f"atom{i}": p.to_json()[i] for i in range(p.dim)}}
        for k, p in enumerate(chain)
    ]
    _emit(payload, rows, args.format)
    return 0


def _cmd_demo(args) -> int:
    if args.what != "swap":
        raise ValueError(f"unknown demo {args.what!r}")
    f = LatticeFunction.swap()
    interval = OrderInterval(Element((0.0, 0.0)), Element((1.0, 1.0)))
    p = Partition(
        (Element((0.0, 0.0)), Element((1.0, 0.0)), Element((1.0, 1.0))), interval
    )
    q = Partition(
        (Element((0.0, 0.0)), Element((0.0, 1.0)), Element((1.0, 1.0))), interval
    )
    lower_p = darboux_sums(f, p).lower
    upper_q = darboux_sums(f, q).upper
    result = integrate(f, interval, sched=_sched(args))
    payload = {
        "command": "demo swap",
        "lower_sum_P": lower_p.to_json(),
        "upper_sum_Q": upper_q.to_json(),
        "lower_leq_upper": lower_p.leq(upper_q),
        "integrable": False,
        **{f"integrate_{k}": v for k, v in result.to_dict().items()},
    }
    rows = _result_rows(result.to_dict())
    _emit(payload, rows, args.format)
    return 2 if not result.converged else 0


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------

# The shared options: (type, default) by name.  A subcommand takes only
# those its handler reads.
_OPTIONS = {
    "dim": (int, None),
    "tol": (float, 1e-6),
    "max-depth": (int, 24),
    "seed": (int, 0),
}


def _add_options(sub: argparse.ArgumentParser, *names: str) -> None:
    """The options ``names`` of ``_OPTIONS``, and ``--format``."""
    for name in names:
        kind, default = _OPTIONS[name]
        sub.add_argument(f"--{name}", type=kind, default=default)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordercalc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("integrate", parents=[], help="integrate over an order interval")
    sp.add_argument("--lo", required=True)
    sp.add_argument("--hi", required=True)
    sp.add_argument("--kernel", action="append", default=None)
    sp.add_argument("--function", default=None, help="JSON function descriptor")
    _add_options(sp, "dim", "tol", "max-depth")
    sp.set_defaults(handler=_cmd_integrate)

    sp = subs.add_parser("signed-integrate", help="integral between possibly incomparable endpoints")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--kernel", action="append", default=None)
    _add_options(sp, "dim", "tol", "max-depth")
    sp.set_defaults(handler=_cmd_signed_integrate)

    sp = subs.add_parser("verify", help="check an integral-calculus identity")
    sp.add_argument("which", choices=("ftc1", "ftc2", "mvt", "usub", "parts"))
    sp.add_argument("--lo")
    sp.add_argument("--hi")
    sp.add_argument("--x")
    sp.add_argument("--y")
    sp.add_argument("--kernel", action="append", default=None)
    sp.add_argument("--anti", action="append", default=None)
    sp.add_argument("--g", action="append", default=None)
    sp.add_argument("--G", action="append", default=None)
    sp.add_argument("--samples", type=int, default=50)
    _add_options(sp, "dim", "tol", "seed")
    sp.set_defaults(handler=_cmd_verify)

    sp = subs.add_parser("bands", help="trichotomy decomposition of two elements")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    _add_options(sp, "dim")
    sp.set_defaults(handler=_cmd_bands)

    sp = subs.add_parser("totord", help="total orderisation of a point list")
    sp.add_argument("--points", required=True)
    _add_options(sp)
    sp.set_defaults(handler=_cmd_totord)

    sp = subs.add_parser("demo", help="built-in demonstrations")
    sp.add_argument("what", choices=("swap",))
    _add_options(sp, "tol", "max-depth")
    sp.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
