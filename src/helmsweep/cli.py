"""Command-line front end: solve, sweep, analyze-symbols."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from .bench import PRECONDITIONERS, PROBLEMS, SOLVERS, ProblemSpec, run, sweep_study
from .symbols import C_factor, SymbolParams, rho_factor


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON problem spec; flags override its values")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--k", type=float, help="wavenumber (waveguide, cavity)")
    p.add_argument("--omega", type=float, help="angular frequency (wedge)")
    p.add_argument("--subdomains", type=int)
    p.add_argument("--overlap-cells", type=int, dest="overlap_cells")
    p.add_argument("--nppwl", type=int)
    p.add_argument("--precond", choices=PRECONDITIONERS, dest="preconditioner")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--tol", type=float, action="append",
                   help="stopping tolerance; repeat to record counts at several")
    p.add_argument("--max-iters", type=int, dest="maxit")
    p.add_argument("--out", dest="out_dir", help="directory for run outputs")


def _spec_from_args(args: argparse.Namespace) -> ProblemSpec:
    base = ProblemSpec.load(args.config).to_dict() if args.config else {}
    overrides = {}
    for field in dataclasses.fields(ProblemSpec):
        v = getattr(args, field.name, None)
        if v is not None:
            overrides[field.name] = v
    # tolerances come from the repeatable --tol flag
    if args.tol:
        overrides["tolerances"] = tuple(args.tol)
    merged = {**base, **overrides}
    if "problem" not in merged:
        raise ValueError("--problem (or a config file naming one) is required")
    return ProblemSpec.from_dict(merged)


def _print_counts(label: str, counts: dict, converged: bool, seconds: float) -> None:
    parts = ", ".join(f"tol {t}: {c}" for t, c in counts.items())
    state = "" if converged else "  [not converged]"
    print(f"{label}: {parts}  ({seconds:.2f}s){state}")


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    record = run(spec)
    _print_counts(f"{spec.problem} N={spec.subdomains} {spec.preconditioner}",
                  record.counts, record.converged, record.solve_time)
    if spec.out_dir:
        print(f"outputs in {spec.out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    values = [int(v) for v in args.values.split(",")]
    preconds = args.preconds.split(",") if args.preconds else None
    out_dir = spec.out_dir
    records, rows = sweep_study(spec, args.vary, values,
                                preconditioners=preconds, out_dir=out_dir)
    w = csv.writer(sys.stdout)
    for row in rows:
        w.writerow(row)
    if out_dir:
        print(f"table.csv in {out_dir}", file=sys.stderr)
    return 0


def _cmd_symbols(args: argparse.Namespace) -> int:
    for flag, value in (("--k", args.k), ("--xi-min", args.xi_min), ("--xi-max", args.xi_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    width = args.width
    strips = tuple((i * width, (i + 1) * width) for i in range(args.strips))
    if args.mode == "waveguide":
        if args.length is None:
            raise ValueError("waveguide mode needs --length")
        lo = max(1, int(np.ceil(args.xi_min)))
        xis = np.arange(lo, int(np.floor(args.xi_max)) + 1, dtype=float)
    else:
        xis = np.linspace(args.xi_min, args.xi_max, args.samples)
    # every row is computed before the output is opened, so invalid
    # arguments leave no file behind
    rows = [["xi", "lambda_re", "lambda_im", "rho_j_abs", "rho", "C"]]
    for xi in xis:
        params = SymbolParams(k=args.k, xi=float(xi), strips=strips,
                              delta=args.overlap, mode=args.mode,
                              length=args.length)
        lam, degenerate = params.lam()
        row = [f"{xi:g}", f"{lam.real:.17g}", f"{lam.imag:.17g}"]
        if degenerate:
            row += ["nan"] * 3
        else:
            row += [f"{v:.17g}" for v in (abs(params.rho_j()), rho_factor(params),
                                          C_factor(params))]
        rows.append(row)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmsweep",
        description="Substructured Helmholtz solver with sweeping preconditioners")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one problem configuration")
    _add_problem_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="re-run over subdomain counts or overlaps")
    _add_problem_flags(p_sweep)
    p_sweep.add_argument("--vary", choices=("subdomains", "overlap"), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--preconds",
                         help="comma-separated preconditioners for table columns")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sym = sub.add_parser("analyze-symbols",
                           help="CSV of lambda, rho_j, rho, C over a Fourier range")
    p_sym.add_argument("--k", type=float, required=True)
    p_sym.add_argument("--strips", type=int, default=4, help="number of strips")
    p_sym.add_argument("--width", type=float, default=1.0, help="strip width")
    p_sym.add_argument("--overlap", type=float, default=0.05)
    p_sym.add_argument("--mode", choices=("plane", "waveguide"), default="plane")
    p_sym.add_argument("--length", type=float, help="waveguide height")
    p_sym.add_argument("--xi-min", type=float, default=0.0, dest="xi_min")
    p_sym.add_argument("--xi-max", type=float, default=None, dest="xi_max")
    p_sym.add_argument("--samples", type=int, default=200)
    p_sym.add_argument("--out", help="CSV path (default stdout)")
    p_sym.set_defaults(func=_cmd_symbols)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "xi_max", None) is None and args.command == "analyze-symbols":
        args.xi_max = 2.0 * args.k
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
