"""Command-line frontend.

Every command prints deterministic text: fixed basis orderings, exact
rationals (p/q, the denominator omitted when 1), no timestamps.  The
verify command runs the same invariant suite the acceptance tests use;
its registry lives in the checks module and is read here as CHECKS.

Each handler imports the modules it runs, so a one-shot command loads
(and, without bytecode caches, compiles) only those: sp-nf never loads
the pairing engine, and only verify loads the checks.

Exit codes: 0 on success (all PASS for verify), 1 when a verification
fails or an internal cross-check aborts (under verify, an abort inside a
check is that check's FAIL line, and the later checks still run), 2 on
usage errors including out-of-range parameters.  A genus above
GENUS_CEILING is out of range for every command but adjunct, whose work
does not grow with the genus.
"""

import argparse
import sys
from typing import Optional, Sequence

from .errors import (
    DomainError,
    GenusMismatch,
    InconsistentRecursion,
    SingularMatrix,
    VerificationFailure,
)

# The ring at (6, 1) takes seconds to build and the cost grows steeply
# with the genus, so without a ceiling a short command line could ask for
# unbounded work.  Library callers are not limited.
GENUS_CEILING = 6


def __getattr__(name: str):
    """The verify suite's sweep, registry and checks, read from the checks
    module on first use (CHECKS is that module's list, not a copy)."""
    if name in ("SWEEP", "CHECKS") or name.startswith("check_"):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- small print helpers ---------------------------------------------------

def _print_matrix(m, out) -> None:
    from .extalg import render_frac
    for i in range(m.nrows):
        out.write(" ".join(map(render_frac, m.row(i))))
        out.write("\n")


def _print_basis_legend(g: int, r: int, out) -> None:
    from .extalg import render_class
    from .floerring import build_oracle
    ring = build_oracle(g, r)
    out.write("# basis\n")
    for i, e in enumerate(ring.basis):
        out.write(f"z{i + 1} = {render_class(e)}\n")


# -- command handlers ------------------------------------------------------

def _cmd_betti(args, out) -> int:
    from .symprod import betti
    out.write(" ".join(str(b) for b in betti(args.g, args.d)) + "\n")
    return 0


def _cmd_sp_relation(args, out) -> int:
    from .symprod import relation_R, render_bipoly
    out.write(render_bipoly(relation_R(args.g, args.d, args.k)) + "\n")
    return 0


def _cmd_sp_nf(args, out) -> int:
    from .symprod import parse_bipoly, render_bipoly, sector_normal_form
    p = parse_bipoly(args.expr)
    out.write(render_bipoly(sector_normal_form(args.g, args.d, args.k, p))
              + "\n")
    return 0


def _cmd_floer_relations(args, out) -> int:
    from .floerring import recursion_unique
    from .symprod import render_bipoly
    rs = recursion_unique(args.g, args.r)
    family = rs.tilde if args.variant == "tilde" else rs.recursion
    for k in sorted(family):
        out.write(f"k={k}: {render_bipoly(family[k])}\n")
    return 0


def _cmd_floer_dim(args, out) -> int:
    from .floerring import build_oracle, presentation_dimension
    ring = build_oracle(args.g, args.r)
    pres = presentation_dimension(args.g, args.r)
    out.write(f"oracle={ring.dim} presentation={pres}\n")
    return 0


def _cmd_floer_nf(args, out) -> int:
    from .extalg import parse_class, render_class
    from .floerring import build_oracle
    ring = build_oracle(args.g, args.r)
    z = parse_class(args.g, args.expr)
    out.write(render_class(ring.nf_class(z)) + "\n")
    return 0


def _cmd_gram(args, out) -> int:
    from .floerring import build_oracle
    ring = build_oracle(args.g, args.r)
    _print_basis_legend(args.g, args.r, out)
    out.write(f"# gram {ring.dim}x{ring.dim}\n")
    _print_matrix(ring.gram, out)
    return 0


def _cmd_umatrix(args, out) -> int:
    from .glueadj import universal_matrix
    _, m = universal_matrix(args.g, args.r)
    _print_basis_legend(args.g, args.r, out)
    out.write(f"# inverse gram {m.nrows}x{m.ncols}\n")
    _print_matrix(m, out)
    return 0


def _cmd_glue(args, out) -> int:
    from .extalg import render_frac
    from .glueadj import glue, load_sw_table
    t1 = load_sw_table(args.t1)
    t2 = load_sw_table(args.t2)
    out.write(render_frac(glue(args.g, args.r, t1, t2)) + "\n")
    return 0


def _cmd_adjunct(args, out) -> int:
    from .glueadj import AdjunctionQuery, adjunction_verdict
    q = AdjunctionQuery(g=args.g, sigma_sq=args.sigma2, c1_dot=args.c1dot,
                        deg_b=args.degb, b_plus=args.bplus, l=args.l,
                        d_s=args.ds)
    out.write(str(adjunction_verdict(q)) + "\n")
    return 0


def _cmd_verify(args, out) -> int:
    from .checks import CHECKS, SWEEP
    if args.all:
        if args.g is not None or args.r is not None:
            raise DomainError("verify --all runs the whole sweep; it takes "
                              "no --g or --r")
        cases, run = SWEEP, CHECKS
    else:
        if args.g is None or args.r is None:
            raise DomainError("verify needs --g and --r, or --all")
        cases = [(args.g, args.r)]
        run = [check for check in CHECKS if check[2]]
    ok = True
    for name, fn, _ in run:
        try:
            fails = fn(cases)
        except (VerificationFailure, SingularMatrix, InconsistentRecursion) as e:
            # a ring or sector build that fails its own certificate fails
            # the check that asked for it; the later checks still run
            fails = [f"{type(e).__name__}: {e}"]
        if fails:
            ok = False
            out.write(f"FAIL {name}: {fails[0]}")
            if len(fails) > 1:
                out.write(f" (+{len(fails) - 1} more)")
            out.write("\n")
        else:
            out.write(f"PASS {name}\n")
    return 0 if ok else 1


# -- argument parsing ------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="swfloer",
        description="Exact computations in the Floer ring of a product "
                    "three-manifold and its gluing formulas.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(handler=handler)
        return p

    intreq = dict(type=int, required=True)
    add("betti", _cmd_betti, g=intreq, d=intreq)
    add("sp-relation", _cmd_sp_relation, g=intreq, d=intreq, k=intreq)
    add("sp-nf", _cmd_sp_nf, g=intreq, d=intreq, k=intreq,
        expr=dict(required=True))
    add("floer-relations", _cmd_floer_relations, g=intreq, r=intreq,
        variant=dict(choices=["tilde", "recursion"], default="tilde"))
    add("floer-dim", _cmd_floer_dim, g=intreq, r=intreq)
    add("floer-nf", _cmd_floer_nf, g=intreq, r=intreq,
        expr=dict(required=True))
    add("gram", _cmd_gram, g=intreq, r=intreq)
    add("umatrix", _cmd_umatrix, g=intreq, r=intreq)
    add("glue", _cmd_glue, g=intreq, r=intreq,
        t1=dict(required=True), t2=dict(required=True))
    add("adjunct", _cmd_adjunct, g=intreq, sigma2=intreq, c1dot=intreq,
        degb=dict(type=int, default=0), bplus=dict(type=int, choices=[1, 2],
                                                   default=2),
        l=dict(type=int, default=None), ds=dict(type=int, default=None))
    add("verify", _cmd_verify, g=dict(type=int, default=None),
        r=dict(type=int, default=None),
        all=dict(action="store_true", default=False))
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command != "adjunct" and (args.g or 0) > GENUS_CEILING:
            raise DomainError(f"genus {args.g} is above the command-line "
                              f"ceiling {GENUS_CEILING}")
        return args.handler(args, sys.stdout)
    except (DomainError, GenusMismatch, OSError) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 2
    except (VerificationFailure, SingularMatrix, InconsistentRecursion) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
