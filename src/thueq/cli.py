"""Command-line surface: deterministic tables and JSON reports over the
verification library, plus the end-to-end pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .descent import BETA_COEFF, KMAX, KSTART
from .exactnum import MAX_DIGITS, TMIN_FLOOR, OutputLimitError, Rat, sig_str
from .quadfield import MAX_ABS

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64

# rounded bounds and arguments can carry thousands of digits: keep str() able to print, and
# Fraction() able to parse, integers up to the limit that _exact enforces
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(MAX_DIGITS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _nonneg_rat(text: str) -> Fraction:
    x = _rat(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text!r}")
    return x


_LIMIT_BITS = 664_386  # (10**MAX_DIGITS).bit_length(): fewer bits, at most MAX_DIGITS digits


def _exact(x) -> str:
    """str(x) for an int or a Fraction, or OutputLimitError if an integer in it has more
    than MAX_DIGITS digits: its bit length decides, but at 10**MAX_DIGITS's own, where one
    comparison does.  str() alone does not: from CPython 3.12 it prints about 200,757."""
    for n in (abs(x.numerator), x.denominator):
        if (b := n.bit_length()) > _LIMIT_BITS or b == _LIMIT_BITS and n >= 10 ** MAX_DIGITS:
            raise OutputLimitError
    return str(x)


def _num(x) -> dict:
    """Canonical rendering of a rational: exact plus 4-digit decimal hint."""
    x = Fraction(x)
    return {"rat": f"{_exact(x.numerator)}/{_exact(x.denominator)}", "dec": sig_str(x)}


def _quad(q) -> dict:
    return {"d": q.d, "a": q.a, "b": q.b, "str": str(q)}


def _emit(args, table: list[str], payload) -> None:
    """Print the table, or with --json the dict that payload() builds: a table
    never pays for the exact rationals of the JSON report."""
    if getattr(args, "json", False):
        print(json.dumps(payload(), indent=2))
    else:
        print("\n".join(table))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify_all(args) -> int:
    from .measure import RMAX, theorem_assembly

    report = theorem_assembly(args.tmin, kmax=args.kmax)
    doc = {
        "tool": "thueq",
        "version": __version__,
        "schema": 1,
        "config": {
            "tmin": _num(report.tmin),
            "rmax": RMAX,
            "kmax": args.kmax,
            "threads": 1,
        },
        "gates": [g._asdict() for g in report.all_gates],
        **{f: None if getattr(report, f) is None else _num(getattr(report, f))
           for f in ("kappa_hi", "contradiction_upper", "descent_lower_0", "descent_lower_3")},
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
    table = [f"{len(ts)} reducible parameters:"]
    table += [f"  {t}" for t in ts]
    table.append("field-root cases: " + ", ".join(str(t) for t in root_cases))
    _emit(args, table, lambda: {
        "reducible": [_quad(t) for t in ts],
        "field_root_cases": [_quad(t) for t in root_cases],
    })
    return EXIT_OK


def _cmd_small_solutions(args) -> int:
    from .dioph import small_solution_search, t_value_set

    sols = small_solution_search(args.tmin)
    tset = sorted(t_value_set(sols))
    table = [f"{len(sols)} non-trivial solutions with min size < 3, "
             f"|t| >= {_exact(args.tmin)}:"]
    table += [f"  d={s.d}  t={s.t}  x={s.x}  y={s.y}  mu={s.mu}" for s in sols]
    table.append(f"{len(tset)} parameter values (closed under negation)")
    _emit(args, table, lambda: {
        "tmin": _num(args.tmin),
        "count": len(sols),
        "solutions": [
            {"d": s.d, "t": _quad(s.t), "x": _quad(s.x), "y": _quad(s.y),
             "mu": _quad(s.mu)}
            for s in sols
        ],
        "t_values": [{"d": d, "a": a, "b": b} for d, a, b in tset],
    })
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from .quadfield import enumerate_bounded

    elems = enumerate_bounded(args.max_abs, normalize=True)
    table = [f"{len(elems)} normalized elements with norm <= {_exact(args.max_abs)}^2:"]
    table += [f"  d={x.d}  {x}" for x in elems]
    _emit(args, table, lambda: {"max_abs": _num(args.max_abs), "count": len(elems),
                                "elements": [_quad(x) for x in elems]})
    return EXIT_OK


def _cmd_descent(args) -> int:
    from .descent import STEP1_COEFF, STEP1_DIVISOR, STEP2_DIVISOR, run_descent

    records = run_descent(args.type, kmax=args.kmax, tmin=args.tmin)
    # each step's bound at tmin, and its margin once, rounded from the pair held at its index
    steps = [(r, Fraction(args.tmin) ** r.k / r.c_out,
              sig_str(r[r._fields.index("nonvanish_margin")])) for r in records]
    first = ([f"step 1: |y| > {sig_str(STEP1_COEFF)} |t|",
              f"step 2: |y| > |t|^2 / {sig_str(STEP2_DIVISOR)}"]
             if args.type == 0 else [f"step 1: |y| > |t| / {sig_str(STEP1_DIVISOR)}"])
    table = first + [
        f"step k={r.k}: |y| > |t|^{r.k} / {sig_str(r.c_out)}"
        f"   (at tmin: {sig_str(y)}, gate margin {margin})"
        for r, y, margin in steps
    ]
    _emit(args, table, lambda: {
        "type": args.type,
        "tmin": _num(args.tmin),
        "steps": [
            {"k": r.k, "c": _num(r.c_out), "c_exact": _num(r.c_exact), "y_lower": _num(y),
             "nonvanish_margin": margin, "nonvanish_ok": r.nonvanish_ok}
            for r, y, margin in steps
        ],
        "final_lower_bound": _num(steps[-1][1]),
    })
    return EXIT_OK


def _cmd_constants(args) -> int:
    from .measure import measure_constants

    mc = measure_constants(args.type, args.tmin)
    table = [
        f"type {mc.type_index}: k0={sig_str(mc.k0)}, Q={sig_str(mc.Q_coeff)}|t|,"
        f" l0={sig_str(mc.l0_coeff)}/|t|, E=|t|/{sig_str(mc.E_div)},"
        f" |q| >= {sig_str(mc.qmin_coeff)}|t|, c={sig_str(mc.c_coeff)}|t|",
    ] + [f"  {n}: margin {sig_str(m)}" for n, m in mc.lines]
    _emit(args, table, lambda: {
        "type": mc.type_index,
        "k0": _num(mc.k0), "Q_coeff": _num(mc.Q_coeff),
        "l0_coeff": _num(mc.l0_coeff), "E_div": _num(mc.E_div),
        "qmin_coeff": _num(mc.qmin_coeff), "c_coeff": _num(mc.c_coeff),
        "lines": [{"name": n, "margin": sig_str(m)} for n, m in mc.lines],
    })
    return EXIT_OK


def _cmd_corollary_lin(args) -> int:
    from .corollary import C2_DIVISOR, LIN_COEFF, corollary_lin
    from .measure import C_COEFF

    r = corollary_lin(args.C, args.t0)
    table = [
        f"C = {sig_str(args.C)}: t0 = {_exact(r['t0'])}, C0 = {sig_str(r['C0'])}",
        "  terms: " + ", ".join(sig_str(t) for t in r["terms"]),
        f"  consistency margin {sig_str(LIN_COEFF, 7)} - {sig_str(BETA_COEFF * C_COEFF[3], 7)}"
        f"/{sig_str(C2_DIVISOR, 7)} = {sig_str(r['consistency_margin'])}",
        f"  (x, +-x) family: |x| <= {sig_str(r['exceptional_family_coeff'])}"
        f" |t|^(1/4)",
    ]
    _emit(args, table, lambda: {
        "C": _num(args.C),
        "t0": _num(r["t0"]),
        "C0": _num(r["C0"]),
        "terms": [_num(t) for t in r["terms"]],
        "consistency_margin": _num(r["consistency_margin"]),
        "exceptional_family_coeff": _num(r["exceptional_family_coeff"]),
    })
    return EXIT_OK


def _cmd_corollary_eps(args) -> int:
    from .corollary import corollary_eps

    r = corollary_eps(args.eps)
    table = [f"eps = {_exact(args.eps)}: t0 = {sig_str(r['t0'])}"]
    table += [f"  gate {g.name}: {'ok' if g.ok else 'FAIL'}" for g in r["gates"]]
    table.append("  re-verified at 2*t0: "
                 + ("ok" if all(g.ok for g in r["gates_at_double"]) else "FAIL"))
    _emit(args, table, lambda: {
        "eps": _num(args.eps),
        "t0": _num(r["t0"]),
        "gates": [g._asdict() for g in r["gates"]],
        "gates_at_double": [{"name": g.name, "ok": g.ok} for g in
                            r["gates_at_double"]],
    })
    return EXIT_OK


def _cmd_rouche_certs(args) -> int:
    from .rouche import base_certificates, certify_high_order, root_separation

    base = base_certificates(args.tmin)
    # the separation reads alpha0..alpha3, and is shown only when they hold
    sep = root_separation(args.tmin) if all(c.verified for c in base.values()) else {}
    certs = sorted({**base, "B": certify_high_order("B", args.tmin),
                    "B3": certify_high_order("B3", args.tmin)}.items())
    certs = [(name, c, sig_str(c[c._fields.index("margin")])) for name, c in certs]
    table = [
        f"{name}: radius {sig_str(c.radius_c)}/|t|^{c.radius_exp}  "
        f"{'verified' if c.verified else 'FAILED'}  margin {margin}"
        for name, c, margin in certs
    ] + [f"separation {k}: {sig_str(v)}" for k, v in sorted(sep.items())]
    _emit(args, table, lambda: {
        "tmin": _num(args.tmin),
        "certificates": [
            {"name": name, "radius_coeff": _num(c.radius_c),
             "radius_exp": c.radius_exp, "verified": c.verified, "margin": margin}
            for name, c, margin in certs
        ],
        "separation": {k: _num(v) for k, v in sorted(sep.items())} if sep else None,
    })
    return EXIT_OK if all(c.verified for _, c, _ in certs) else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------

# the shared flags, as (flag, add_argument keywords)
_TMIN = ("--tmin", {"type": _nonneg_rat, "default": TMIN_FLOOR})
_KMAX = ("--kmax", {"type": int, "default": KMAX})
_TYPE = ("--type", {"type": int, "choices": (0, 3), "required": True})
_JSON = ("--json", {"action": "store_true"})

# each command: its handler, its help line and its flags, in --help order
_COMMANDS = {
    "verify-all": (_cmd_verify_all, "run the full verification pipeline",
                   [_TMIN, _KMAX, ("--out", {})]),
    "irreducible-list": (_cmd_irreducible_list, "parameters with reducible form", [_JSON]),
    "small-solutions": (_cmd_small_solutions, "exhaustive small-solution search",
                        [("--tmin", {"type": _nonneg_rat, "default": Fraction(0)}), _JSON]),
    "enumerate": (_cmd_enumerate, "ring elements of bounded modulus",
                  [("--max-abs", {"type": _nonneg_rat, "required": True,
                                  "help": f"the bound m on |x|, at most {MAX_ABS}"}), _JSON]),
    "descent": (_cmd_descent, "iterated lower bounds for |y|", [_TYPE, _TMIN, _KMAX, _JSON]),
    "constants": (_cmd_constants, "irrationality-measure constants", [_TYPE, _TMIN, _JSON]),
    "corollary-lin": (_cmd_corollary_lin, "thresholds for |F| <= C|t|",
                      [("--C", {"type": _rat, "required": True}), ("--t0", {"type": _rat}),
                       _JSON]),
    "corollary-eps": (_cmd_corollary_eps, "thresholds for |F| <= |t|^(2-eps)",
                      [("--eps", {"type": _rat, "required": True}), _JSON]),
    "rouche-certs": (_cmd_rouche_certs, "uniform root-enclosure certificates", [_TMIN, _JSON]),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="thueq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify-all", "descent"):
        # verify-all runs both chains, so it needs the later first step
        kmin = KSTART[args.type] if args.command == "descent" else max(KSTART.values())
        if not kmin <= args.kmax <= KMAX:
            parser.error(f"--kmax must be in [{kmin}, {KMAX}]")
    if args.command == "enumerate" and args.max_abs > MAX_ABS:
        parser.error(f"--max-abs must be at most {MAX_ABS}")
    try:
        return args.fn(args)
    except OutputLimitError:
        hint = {"corollary-lin": "a smaller --C",
                "corollary-eps": "a larger --eps"}.get(args.command, "smaller arguments")
        print(f"output limit: an exact result exceeds the {MAX_DIGITS:,}-digit "
              f"output limit; ask for {hint}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        print(f"certification failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"I/O failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
