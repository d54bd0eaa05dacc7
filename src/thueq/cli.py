"""Command-line surface: deterministic tables and JSON reports over the
verification library, plus the end-to-end pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .exactnum import Rat, sig_str

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64

# rounded bounds can carry thousands of digits; keep str() able to print them
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(200_000)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _num(x) -> dict:
    """Canonical rendering of a rational: exact plus 4-digit decimal hint."""
    x = Fraction(x)
    return {"rat": f"{x.numerator}/{x.denominator}", "dec": sig_str(x)}


def _quad(q) -> dict:
    return {"d": q.d, "a": q.a, "b": q.b, "str": str(q)}


def _emit(args, payload: dict, table: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in table:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify_all(args) -> int:
    from .measure import theorem_assembly

    report = theorem_assembly(args.tmin, kmax=args.kmax, rmax=args.rmax)
    doc = {
        "tool": "thueq",
        "version": __version__,
        "schema": 1,
        "config": {
            "tmin": _num(report.tmin),
            "rmax": args.rmax,
            "kmax": args.kmax,
            "threads": 1,
        },
        "gates": [{"name": g.name, "ok": g.ok, "detail": g.detail}
                  for g in report.all_gates],
        "kappa_hi": None if report.kappa_hi is None else _num(report.kappa_hi),
        "contradiction_upper": (None if report.contradiction_upper is None
                                else _num(report.contradiction_upper)),
        "descent_lower_0": (None if report.descent_lower_0 is None
                            else _num(report.descent_lower_0)),
        "descent_lower_3": (None if report.descent_lower_3 is None
                            else _num(report.descent_lower_3)),
        "verdict": report.verdict,
        "timing": None,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.verdict == "proven" else EXIT_INCONCLUSIVE


def _cmd_irreducible_list(args) -> int:
    from .dioph import irreducibility_exceptions

    ts, root_cases = irreducibility_exceptions()
    payload = {
        "reducible": [_quad(t) for t in ts],
        "field_root_cases": [_quad(t) for t in root_cases],
    }
    table = [f"{len(ts)} reducible parameters:"]
    table += [f"  {t}" for t in ts]
    table.append("field-root cases: " + ", ".join(str(t) for t in root_cases))
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_small_solutions(args) -> int:
    from .dioph import small_solution_search, t_value_set

    sols = small_solution_search(args.tmin)
    tset = sorted(t_value_set(sols))
    payload = {
        "tmin": _num(args.tmin),
        "count": len(sols),
        "solutions": [
            {"d": s.d, "t": _quad(s.t), "x": _quad(s.x), "y": _quad(s.y),
             "mu": _quad(s.mu)}
            for s in sols
        ],
        "t_values": [{"d": d, "a": a, "b": b} for d, a, b in tset],
    }
    table = [f"{len(sols)} non-trivial solutions with min size < 3, "
             f"|t| >= {args.tmin}:"]
    table += [f"  d={s.d}  t={s.t}  x={s.x}  y={s.y}  mu={s.mu}" for s in sols]
    table.append(f"{len(tset)} parameter values (closed under negation)")
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .quadfield import enumerate_bounded

    elems = enumerate_bounded(args.max_abs, normalize=True)
    payload = {"max_abs": _num(args.max_abs), "count": len(elems),
               "elements": [_quad(x) for x in elems]}
    table = [f"{len(elems)} normalized elements with norm <= {args.max_abs}^2:"]
    table += [f"  d={x.d}  {x}" for x in elems]
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_descent(args) -> int:
    from .descent import run_descent, step1, step2_type0

    records = run_descent(args.type, kmax=args.kmax, tmin=args.tmin)
    first = (["step 1: |y| > 2.67 |t|", "step 2: |y| > |t|^2 / 5.02"]
             if args.type == 0 else ["step 1: |y| > |t| / 2.27"])
    # evaluate the closed-form steps so their gates run too
    step1(args.type, args.tmin)
    if args.type == 0:
        step2_type0(args.tmin)
    payload = {
        "type": args.type,
        "tmin": _num(args.tmin),
        "steps": [
            {"k": r.k, "c": _num(r.c_out), "c_exact": _num(r.c_exact),
             "y_lower": _num(Fraction(args.tmin) ** r.k / r.c_out),
             "nonvanish_margin": sig_str(r.nonvanish_margin),
             "nonvanish_ok": r.nonvanish_ok}
            for r in records
        ],
        "final_lower_bound": _num(Fraction(args.tmin) ** records[-1].k
                                  / records[-1].c_out),
    }
    table = first + [
        f"step k={r.k}: |y| > |t|^{r.k} / {sig_str(r.c_out)}"
        f"   (at tmin: {sig_str(Fraction(args.tmin) ** r.k / r.c_out)},"
        f" gate margin {sig_str(r.nonvanish_margin)})"
        for r in records
    ]
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_constants(args) -> int:
    from .measure import measure_constants

    mc = measure_constants(args.type, args.tmin, args.rmax)
    payload = {
        "type": mc.type_index,
        "k0": _num(mc.k0), "Q_coeff": _num(mc.Q_coeff),
        "l0_coeff": _num(mc.l0_coeff), "E_div": _num(mc.E_div),
        "qmin_coeff": _num(mc.qmin_coeff), "c_coeff": _num(mc.c_coeff),
        "lines": [{"name": n, "margin": sig_str(m)} for n, m in mc.lines],
    }
    table = [
        f"type {mc.type_index}: k0={sig_str(mc.k0)}, Q={sig_str(mc.Q_coeff)}|t|,"
        f" l0={sig_str(mc.l0_coeff)}/|t|, E=|t|/{sig_str(mc.E_div)},"
        f" |q| >= {sig_str(mc.qmin_coeff)}|t|, c={sig_str(mc.c_coeff)}|t|",
    ] + [f"  {n}: margin {sig_str(m)}" for n, m in mc.lines]
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_corollary_lin(args) -> int:
    from .measure import corollary_lin

    r = corollary_lin(args.C, args.t0)
    payload = {
        "C": _num(args.C),
        "t0": _num(r["t0"]),
        "C0": _num(r["C0"]),
        "terms": [_num(t) for t in r["terms"]],
        "consistency_margin": _num(r["consistency_margin"]),
        "exceptional_family_coeff": _num(r["exceptional_family_coeff"]),
    }
    table = [
        f"C = {sig_str(args.C)}: t0 = {r['t0']}, C0 = {sig_str(r['C0'])}",
        "  terms: " + ", ".join(sig_str(t) for t in r["terms"]),
        f"  consistency margin 443 - 137.1528/0.31 = "
        f"{sig_str(r['consistency_margin'])}",
        f"  (x, +-x) family: |x| <= {sig_str(r['exceptional_family_coeff'])}"
        f" |t|^(1/4)",
    ]
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_corollary_eps(args) -> int:
    from .measure import corollary_eps

    r = corollary_eps(args.eps)
    payload = {
        "eps": _num(args.eps),
        "t0": _num(r["t0"]),
        "gates": [{"name": g.name, "ok": g.ok, "detail": g.detail}
                  for g in r["gates"]],
        "gates_at_double": [{"name": g.name, "ok": g.ok} for g in
                            r["gates_at_double"]],
    }
    table = [f"eps = {args.eps}: t0 = {sig_str(r['t0'])}"]
    table += [f"  gate {g.name}: {'ok' if g.ok else 'FAIL'}" for g in r["gates"]]
    table.append("  re-verified at 2*t0: "
                 + ("ok" if all(g.ok for g in r["gates_at_double"]) else "FAIL"))
    _emit(args, payload, table)
    return EXIT_OK


def _cmd_rouche_certs(args) -> int:
    from .rouche import base_certificates, certify_high_order, root_separation

    certs = dict(base_certificates(args.tmin))
    certs["B"] = certify_high_order("B", args.tmin)
    certs["B3"] = certify_high_order("B3", args.tmin)
    sep = root_separation(args.tmin)
    payload = {
        "tmin": _num(args.tmin),
        "certificates": [
            {"name": name, "radius_coeff": _num(c.radius_c),
             "radius_exp": c.radius_exp, "verified": c.verified,
             "margin": sig_str(c.margin)}
            for name, c in sorted(certs.items())
        ],
        "separation": {k: _num(v) for k, v in sorted(sep.items())},
    }
    table = [
        f"{name}: radius {sig_str(c.radius_c)}/|t|^{c.radius_exp}  "
        f"{'verified' if c.verified else 'FAILED'}  margin {sig_str(c.margin)}"
        for name, c in sorted(certs.items())
    ] + [f"separation {k}: {sig_str(v)}" for k, v in sorted(sep.items())]
    _emit(args, payload, table)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="thueq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run the full verification pipeline")
    p.add_argument("--tmin", type=_rat, default=Fraction(100))
    p.add_argument("--rmax", type=int, default=60)
    p.add_argument("--kmax", type=int, default=11)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify_all)

    p = sub.add_parser("irreducible-list", help="parameters with reducible form")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_irreducible_list)

    p = sub.add_parser("small-solutions", help="exhaustive small-solution search")
    p.add_argument("--tmin", type=_rat, default=Fraction(0))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_small_solutions)

    p = sub.add_parser("enumerate", help="ring elements of bounded modulus")
    p.add_argument("--max-abs", type=_rat, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("descent", help="iterated lower bounds for |y|")
    p.add_argument("--type", type=int, choices=(0, 3), required=True)
    p.add_argument("--tmin", type=_rat, default=Fraction(100))
    p.add_argument("--kmax", type=int, default=11)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_descent)

    p = sub.add_parser("constants", help="irrationality-measure constants")
    p.add_argument("--type", type=int, choices=(0, 3), required=True)
    p.add_argument("--tmin", type=_rat, default=Fraction(100))
    p.add_argument("--rmax", type=int, default=60)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("corollary-lin", help="thresholds for |F| <= C|t|")
    p.add_argument("--C", type=_rat, required=True)
    p.add_argument("--t0", type=_rat, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_corollary_lin)

    p = sub.add_parser("corollary-eps", help="thresholds for |F| <= |t|^(2-eps)")
    p.add_argument("--eps", type=_rat, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_corollary_eps)

    p = sub.add_parser("rouche-certs", help="uniform root-enclosure certificates")
    p.add_argument("--tmin", type=_rat, default=Fraction(100))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rouche_certs)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify-all", "descent"):
        from .descent import KMAX, KSTART

        # verify-all runs both chains, so it needs the later first step
        kmin = KSTART[args.type] if args.command == "descent" else max(KSTART.values())
        if not kmin <= args.kmax <= KMAX:
            parser.error(f"--kmax must be in [{kmin}, {KMAX}]")
    try:
        return args.fn(args)
    except (ArithmeticError, ValueError) as exc:
        print(f"certification failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
