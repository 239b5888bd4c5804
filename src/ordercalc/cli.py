"""Command-line front end.

Subcommands: integrate, signed-integrate, verify {ftc1,ftc2,mvt,usub,parts},
bands, totord, demo swap, one handler each; integrate and signed-integrate
share theirs, which reads the endpoints of its subcommand (--lo and --hi,
or --a and --b).  A subcommand takes only the options its handler reads.
The verify targets share one subcommand, so each target refuses the value
flags it does not read.  They read: mvt --x and --y; ftc1 --lo and --hi;
ftc2 --anti, with --lo and --hi or the one pair --x and --y; usub --lo,
--hi and --G, with --g or else G's derivative; parts --lo, --hi and --g.
Elements are comma-separated decimals, with no empty coordinate; point
lists are semicolon-separated, and empty entries of them are skipped.
Exit codes: 0 success/pass, 1 usage or input error, 2 non-convergence or
verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from ._kernels_fallback import NAME as BACKEND_NAME
from .calculus import (
    _mvt_closes,
    _mvt_solve,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)
from .functions import LatticeFunction
from .integrate import ToleranceSchedule, darboux_sums, integrate, signed_integrate
from .lattice import Element, OrderInterval, totord, trichotomy
from .partitions import Partition


# Options whose value may begin with "-": elements such as -1,-2 or -1e308,
# and kernels such as -t, which argparse would read as option names.
_VALUE_OPTIONS = frozenset(
    {"--lo", "--hi", "--a", "--b", "--x", "--y", "--points", "--kernel", "--anti", "--g", "--G", "--function"}
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Parse ``args``, an option of ``_VALUE_OPTIONS`` taking the next one as its value.

        ``--lo -1,-2`` is read as ``--lo=-1,-2``: a value that begins with a
        single "-" is joined to its option before argparse sees it.
        """
        args = list(sys.argv[1:] if args is None else args)
        joined: list[str] = []
        for arg in args:
            if joined and joined[-1] in _VALUE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _parse_element(text: str, dim: int | None) -> Element:
    if not text.strip():
        raise ValueError(f"empty element {text!r}")
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"element {text!r} has an empty coordinate")
    vals = [float(part) for part in parts]
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


def _interval(args) -> OrderInterval:
    """The order interval [``--lo``, ``--hi``]."""
    return OrderInterval(_flag_element(args, "lo"), _flag_element(args, "hi"))


def _parse_points(text: str) -> list[Element]:
    return [_parse_element(chunk, None) for chunk in text.split(";") if chunk.strip()]


def _function(args) -> LatticeFunction:
    """The function of ``--function``, or else of the ``--kernel`` expressions."""
    descriptor = getattr(args, "function", None)
    if descriptor:
        f = LatticeFunction.from_descriptor(json.loads(descriptor))
        if args.dim is not None and f.dim != args.dim:
            raise ValueError(f"descriptor dim {f.dim} != --dim {args.dim}")
        return f
    if not args.kernel:
        raise ValueError("--kernel is required")
    dim = args.dim or 1
    if len(args.kernel) not in (1, dim):
        raise ValueError(f"--kernel takes 1 or {dim} expressions")
    return LatticeFunction.coordinatewise(list(args.kernel), dim=dim)


def _kernels(args, name: str) -> LatticeFunction:
    """The function of the expressions of ``--name``, one per atom or one for all."""
    return LatticeFunction.coordinatewise(list(getattr(args, name)), dim=args.dim or 1)


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
    """``integrate`` over [--lo, --hi], or ``signed-integrate`` from --a to --b."""
    f = _function(args)
    if args.command == "integrate":
        result = integrate(f, _interval(args), sched=_sched(args))
    else:
        result = signed_integrate(f, _flag_element(args, "a"), _flag_element(args, "b"), sched=_sched(args))
    payload = {"command": args.command, "backend": BACKEND_NAME, **result.to_dict()}
    _emit(payload, _result_rows(result.to_dict()), args.format)
    return 0 if result.converged else 2


def _verified(report) -> tuple[dict, list[dict]]:
    """The payload and rows of a VerificationReport."""
    payload = {"command": f"verify {report.name}", "backend": BACKEND_NAME, **report.to_dict()}
    rows = [{"atom": i, "max_residual": r, "passed": report.passed} for i, r in enumerate(payload["max_residual"])]
    return payload, rows


def _verify_mvt(args, f):
    x, y = _flag_element(args, "x"), _flag_element(args, "y")
    c, integral = _mvt_solve(f, x, y, args.tol)
    residual = abs((y - x) * f.eval(c) - integral)
    passed = all(_mvt_closes(r, t, args.tol) for r, t in zip(residual.data.tolist(), integral.data.tolist()))
    c, residual = c.to_json(), residual.to_json()
    payload = {"command": "verify mvt", "backend": BACKEND_NAME, "c": c, "residual": residual, "passed": passed}
    return payload, [{"atom": i, "c": ci, "residual": ri} for i, (ci, ri) in enumerate(zip(c, residual))]


def _verify_ftc1(args, f):
    return _verified(verify_ftc1(f, _interval(args), interior_samples=args.samples, tol=args.tol, seed=args.seed))


def _verify_ftc2(args, f):
    if not args.anti:
        raise ValueError("verify ftc2 needs --anti (the antiderivative)")
    F = _kernels(args, "anti")
    if args.x is None and args.y is None:
        return _verified(verify_ftc2(F, f, _interval(args), samples=args.samples, tol=args.tol, seed=args.seed))
    x, y = _flag_element(args, "x"), _flag_element(args, "y")
    box = OrderInterval(x.inf(y), x.sup(y))
    return _verified(verify_ftc2(F, f, box, tol=args.tol, seed=args.seed, pairs=[(x, y)]))


def _verify_usub(args, f):
    if not args.G:
        raise ValueError("verify usub needs --G (the substitution)")
    interval = _interval(args)
    G = _kernels(args, "G")
    g = _kernels(args, "g") if args.g else G.derivative()
    if g is None:
        raise ValueError("--G is not symbolically differentiable; pass --g")
    return _verified(verify_substitution(f, g, G, interval, tol=args.tol))


def _verify_parts(args, f):
    if not args.g:
        raise ValueError("verify parts needs --g (the second factor)")
    interval = _interval(args)
    g = _kernels(args, "g")
    df, dg = f.derivative(), g.derivative()
    if df is None or dg is None:
        raise ValueError("verify parts needs symbolically differentiable kernels")
    return _verified(verify_by_parts(f, g, df, dg, interval, tol=args.tol))


# Each verify target: the value flags without a default that it reads, and
# its check.  A target refuses any other of those flags.
_VERIFY = {
    "mvt": (("x", "y"), _verify_mvt),
    "ftc1": (("lo", "hi"), _verify_ftc1),
    "ftc2": (("lo", "hi", "x", "y", "anti"), _verify_ftc2),
    "usub": (("lo", "hi", "G", "g"), _verify_usub),
    "parts": (("lo", "hi", "g"), _verify_parts),
}


def _cmd_verify(args) -> int:
    reads, check = _VERIFY[args.which]
    for name in ("lo", "hi", "x", "y", "anti", "g", "G"):
        if name not in reads and getattr(args, name) is not None:
            raise ValueError(f"verify {args.which} does not read --{name}")
    payload, rows = check(args, _function(args))
    _emit(payload, rows, args.format)
    return 0 if payload["passed"] else 2


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
    sp.set_defaults(handler=_cmd_integrate)

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
