"""Code that runs inside a child interpreter of the benchmark.

    python3 perfbench/child.py sweep RESULT [SPANS]
        ``swfloer verify --all`` with each check timed once per case
        (once in all for the two checks that ignore the case list); with
        SPANS the package is traced and each timed piece is a root span.
    python3 perfbench/child.py cli SUMMARY SPANS -- <swfloer arguments>
        one traced CLI command; stdout is the command's own output.
    python3 perfbench/child.py sizes RESULT
        size counters of the (5, 1) ring, read from public attributes.

The parent puts the checkout's ``src`` directory on PYTHONPATH.  Result
files are JSON; span files are written by ``Tracer.write``.
"""

import json
import sys
from time import perf_counter

from swfloer import cli, floerring, glueadj
from tracer import Tracer, nonzeros


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


# -- verify-sweep --------------------------------------------------------------

def sweep(result_path, spans_path=None):
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    ops = []

    def timed(name, fn, per_case):
        """fn over the cases, one timed operation per case when the check
        runs per case; same calls in the same order as fn(cases)."""
        def run(cases):
            fails = []
            for part in ([[c] for c in cases] if per_case else [cases]):
                span = tracer.open("cli.check." + name) if tracer else None
                t = perf_counter()
                try:
                    fails += fn(part)
                finally:
                    ops.append((name, perf_counter() - t))
                    if tracer:
                        tracer.close(span)
            return fails
        return run

    cli.CHECKS[:] = [(n, timed(n, fn, per_case), per_case)
                     for n, fn, per_case in cli.CHECKS]
    code = cli.main(["verify", "--all"])
    sys.stdout.flush()
    out = {"ops": ops}
    if tracer:
        tracer.active = False
        out["trace"] = tracer.summary()
        tracer.write(spans_path)
    _dump(result_path, out)
    return code


# -- one traced CLI command --------------------------------------------------

def traced_cli(summary_path, spans_path, argv):
    tracer = Tracer()
    tracer.install()
    span = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(span)
        tracer.active = False
        sys.stdout.flush()
    _dump(summary_path, tracer.summary())
    tracer.write(spans_path)
    return code


# -- size counters -------------------------------------------------------------

def sizes(result_path):
    ring = floerring.build_oracle(5, 1)
    _, m = glueadj.universal_matrix(5, 1)
    _dump(result_path, {
        "swpair.monomials.g5r1": len(ring.monos),
        "swpair.dim.g5r1": ring.dim,
        "swpair.radical_dim.g5r1": sum(len(ring.radical_vectors(q))
                                       for q in range(2 * ring.d + 1)),
        "swpair.mixed_dim.g5r1": len(ring.mixed_radical_elements()),
        "swpair.gram_nnz.g5r1": nonzeros(ring.gram),
        "glueadj.umatrix_nnz.g5r1": nonzeros(m),
    })
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "sweep":
        return sweep(*rest)
    if mode == "cli":
        sep = rest.index("--")
        return traced_cli(rest[0], rest[1], rest[sep + 1:])
    if mode == "sizes":
        return sizes(*rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
