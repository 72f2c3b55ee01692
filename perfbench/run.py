"""swfloer benchmark: one named workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    verify-sweep   cold ``swfloer verify --all`` in a fresh interpreter
    cli-cold       a seeded stream of one-shot CLI commands, one
                   interpreter each, genus 2 to 5

Both are closed loops with one request in flight and at most one child
interpreter alive.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced and prints the
per-layer metrics, including the tracing overhead.  Every output is
checked; the last line of stdout is the JSON result.

``--record-reference`` rewrites perfbench/reference.json, the stdout
digests of every command the cli-cold workload can draw.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference.json"
PY = sys.executable

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0

# Set-up probes per run, spread over the run: a shared machine slows
# down in phases of several seconds, and the median of probes taken at
# different times is steadier than that of probes taken in a row.
PROBES = 5

CHECK_NAMES = [
    "dimension-match", "relations-annihilate", "presentation-basis",
    "recursion-consistency", "gram-structure", "deformation-cup",
    "middle-coefficient", "gluing-cap", "high-degree-vanishing",
    "betti-triple-count", "adjunction-table",
]

SWEEP = [(g, r) for g in range(2, 6) for r in range(1, g)]

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]

# span name -> which totals to report ("self" or "incl")
SPAN_METRICS = [
    ("qlinalg.rref", "self"),
    ("qlinalg.kernel_basis", "self"),
    ("qlinalg.invert", "self"),
    ("qlinalg.QMatrix.apply", "self"),
    ("extalg.wedge", "self"),
    ("extalg.monomials_up_to", "self"),
    ("swpair.PairingQuotient.init", "self"),
    ("swpair.PairingQuotient.nf_vector", "self"),
    ("swpair.class_pair", "self"),
    ("symprod.ring_oracle", "self"),
    ("symprod.sector_normal_form", "self"),
    ("floerring.presentation_quotient", "self"),
    ("floerring.deformation_components", "self"),
    ("floerring.recursion_unique", "self"),
    ("glueadj.universal_matrix", "incl"),
    ("glueadj.kernel_K_basis", "incl"),
    ("glueadj.glue", "incl"),
]

SIZE_COUNTERS = [
    "swpair.monomials.g5r1", "swpair.dim.g5r1", "swpair.radical_dim.g5r1",
    "swpair.mixed_dim.g5r1", "swpair.gram_nnz.g5r1",
    "glueadj.umatrix_nnz.g5r1",
]


def per_layer_spec():
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for span, kind in SPAN_METRICS:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.{kind}_s", "s", "lower"))
    out.append(("qlinalg.fill_ratio", "ratio", "higher"))
    out.append(("swpair.class_pair.nonzero_ratio", "ratio", "higher"))
    out.extend((name, "count", "lower") for name in SIZE_COUNTERS)
    out.extend((f"cli.check.{n}.wall_s", "s", "lower") for n in CHECK_NAMES)
    out.append(("cli.stdout_bytes", "bytes", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# -- child processes ---------------------------------------------------------

class Run:
    """Deadline, environment and failure log shared by one benchmark run."""

    def __init__(self, seed, seconds, budget_s=RUN_BUDGET_S):
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.errors = []
        self.failed = 0

    def timeout(self):
        left = self.deadline - perf_counter()
        if left <= 0:
            raise TimeoutError("run budget exhausted")
        return left

    def call(self, argv):
        """Run a child to completion; returns (seconds, CompletedProcess)."""
        t = perf_counter()
        p = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                           timeout=self.timeout())
        return perf_counter() - t, p

    def import_probe(self):
        """Time from interpreter start to a loaded ``swfloer.cli``."""
        t = perf_counter()
        p = subprocess.Popen(
            [PY, "-c", "import swfloer.cli; print('ready', flush=True)"],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            first = p.stdout.readline()
            ready = perf_counter() - t
            p.communicate(timeout=self.timeout())
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        if first != "ready\n" or p.returncode != 0:
            raise RuntimeError(f"import probe failed: {first!r}")
        return ready

    def fail(self, message, count=1):
        self.errors.append(message)
        self.failed += count


def end_to_end(setup_s, wall_s, lat_s):
    return {"setup_s": setup_s, "wall_s": wall_s,
            "ops_per_s": len(lat_s) / wall_s if wall_s else 0.0,
            **latency_metrics(lat_s), "peak_rss_mb": peak_child_rss_mb()}


def peak_child_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def latency_metrics(lat_s):
    ms = sorted(x * 1000.0 for x in lat_s)
    if len(ms) < 2:
        ms = ms * 2
    q = statistics.quantiles(ms, n=100, method="inclusive")
    return {"op_p50_ms": statistics.median(ms), "op_p90_ms": q[89],
            "op_p99_ms": q[98]}


def tail_note(lat_s, metrics):
    ms = [x * 1000.0 for x in lat_s]
    return " ".join(
        f"{k}: {sum(1 for x in ms if x > metrics[k])} of {len(ms)} beyond"
        for k in ("op_p90_ms", "op_p99_ms"))


def merge_trace(total, part):
    for key in ("calls", "self_s", "incl_s", "counters"):
        dst = total.setdefault(key, {})
        for name, v in part[key].items():
            dst[name] = dst.get(name, 0) + v
    total["spans"] = total.get("spans", 0) + part["spans"]


def layer_metrics(trace, sizes, check_s, stdout_bytes, overhead_s):
    calls = trace.get("calls", {})
    counters = trace.get("counters", {})
    values = {}
    for span, kind in SPAN_METRICS:
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.{kind}_s"] = trace.get(f"{kind}_s", {}).get(span, 0.0)
    entries = counters.get("qlinalg.entries", 0)
    values["qlinalg.fill_ratio"] = (
        counters.get("qlinalg.nonzeros", 0) / entries if entries else 0.0)
    pairs = calls.get("swpair.class_pair", 0)
    values["swpair.class_pair.nonzero_ratio"] = (
        counters.get("swpair.class_pair.nonzero", 0) / pairs if pairs else 0.0)
    values.update(sizes)
    for name in CHECK_NAMES:
        values[f"cli.check.{name}.wall_s"] = check_s.get(name, 0.0)
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.overhead_s"] = overhead_s
    return values


def read_sizes(run):
    path = WORK / "sizes.json"
    _, p = run.call([PY, str(BENCH / "child.py"), "sizes", str(path)])
    if p.returncode != 0:
        run.fail("size counters: exit " + str(p.returncode))
        return {name: 0 for name in SIZE_COUNTERS}
    return json.loads(path.read_text())


# -- verify-sweep ----------------------------------------------------------------

def _sweep_once(run, spans=None):
    result = WORK / ("sweep-traced.json" if spans else "sweep.json")
    argv = [PY, str(BENCH / "child.py"), "sweep", str(result)]
    if spans:
        argv.append(str(spans))
    wall, p = run.call(argv)
    lines = p.stdout.decode().splitlines()
    names = [ln[5:] for ln in lines if ln.startswith("PASS ")]
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    if p.returncode != 0 or bad or any(n not in names for n in CHECK_NAMES):
        run.fail(f"verify --all: exit {p.returncode}, "
                 f"{bad[:1] or 'missing checks'}; {p.stderr.decode()[-300:]}")
    data = json.loads(result.read_text()) if p.returncode == 0 else {}
    return wall, len(p.stdout), data.get("ops", []), data.get("trace", {})


def check_totals(ops):
    totals = {}
    for name, sec in ops:
        totals[name] = totals.get(name, 0.0) + sec
    return totals


def verify_sweep(run, traced):
    """Every registry check over the sweep, cold, in registry order.

    An operation is one check on one case (one run in all for the two
    checks that ignore the case list), 92 in a sweep.  The check RNGs
    are seeded inside the registry, so the seed is unused.
    """
    attempted = len(CHECK_NAMES)
    if not traced:
        probes = [run.import_probe() for _ in range(PROBES // 2)]
        wall, _, ops, _ = _sweep_once(run)
        probes += [run.import_probe() for _ in range(PROBES - len(probes))]
        lat = [sec for _, sec in ops] or [0.0]
        m = end_to_end(statistics.median(probes), wall, lat)
        return m, attempted, [tail_note(lat, m)] + [
            f"check {n}: {s:.3f} s" for n, s in check_totals(ops).items()]
    wall, stdout_bytes, ops, _ = _sweep_once(run)
    spans = WORK / "trace-verify-sweep.tsv.gz"
    twall, _, _, trace = _sweep_once(run, spans)
    values = layer_metrics(trace, read_sizes(run), check_totals(ops),
                           stdout_bytes, twall - wall)
    return values, 2 * attempted, [
        f"untraced wall {wall:.3f} s, traced wall {twall:.3f} s, "
        f"{trace.get('spans', 0)} spans in {spans}"]


# -- cli-cold --------------------------------------------------------------------

# The (5, 1) commands that rebuild the dim-244 ring, per 20 s of run
# length.  With six light commands per heavy one this makes 105
# commands, enough for 11 samples beyond the 90th percentile; the two
# cheapest heavy commands come four times each so that the 90th
# percentile falls inside their cluster, and the two dearest three times
# each so that the 99th falls inside theirs.
HEAVY = (["floer-dim"] * 4 + ["floer-nf"] * 4 + ["gram"]
         + ["umatrix"] * 3 + ["glue"] * 3)
COMMANDS = ["gram", "umatrix", "floer-nf", "floer-dim", "floer-relations",
            "sp-nf", "glue"]
VARIANTS = {"floer-relations": 2, "floer-nf": 8, "sp-nf": 8, "glue": 8}
LIGHT_PER_HEAVY = 6


def pool_keys():
    """Every command the cli-cold stream can draw, as reference keys."""
    return [f"{cmd} g{g} r{r} v{v}" for cmd in COMMANDS for g, r in SWEEP
            for v in range(VARIANTS.get(cmd, 1))]


def pool_argv(key, table_dir):
    """The swfloer arguments of a pool key; writes its table files."""
    cmd, g, r, v = key.split()
    g, r, v = int(g[1:]), int(r[1:]), int(v[1:])
    rng = random.Random(key)
    base = [cmd, "--g", str(g)]
    if cmd == "sp-nf":
        d = g - 1 - r
        poly = inputs.random_bipoly(rng, d)
        return base + ["--d", str(d), "--k", str(rng.randint(0, d)),
                       "--expr=" + inputs.bipoly_text(poly)]
    base += ["--r", str(r)]
    if cmd == "floer-relations":
        return base + ["--variant", ["tilde", "recursion"][v]]
    if cmd == "floer-nf":
        return base + ["--expr=" + inputs.class_text(
            inputs.random_class(rng, g, r))]
    if cmd == "glue":
        paths = []
        for side in (1, 2):
            path = table_dir / f"{cmd}-g{g}-r{r}-v{v}-{side}.swt"
            path.write_text(inputs.table_text(
                g, r, inputs.random_table(rng, g, r)))
            paths.append(str(path))
        return base + ["--t1", paths[0], "--t2", paths[1]]
    return base


def cli_stream(seed, seconds):
    """The heavy (5, 1) commands, and six light commands for each heavy
    one, in a seeded order.

    Every seed does the same heavy work; the seed picks the light
    commands (genus 5 cases drawn twice as often), every variant and the
    order.
    """
    rng = random.Random(seed)
    reps = max(1, round(seconds / 20))
    light = [(cmd, g, r) for cmd in COMMANDS for g, r in SWEEP
             if not ((g, r) == (5, 1) and cmd in HEAVY)]
    weights = [2 if g == 5 else 1 for _, g, _ in light]
    picks = [(cmd, 5, 1) for cmd in HEAVY * reps]
    picks += rng.choices(light, weights, k=LIGHT_PER_HEAVY * len(picks))
    keys = [f"{cmd} g{g} r{r} v{rng.randrange(VARIANTS.get(cmd, 1))}"
            for cmd, g, r in picks]
    rng.shuffle(keys)
    return keys


def _cli_command(run, key, reference, traced=False, index=0):
    """Run one pool command cold; returns (seconds, stdout bytes, trace)."""
    args = pool_argv(key, WORK / "tables")
    if traced:
        summary = WORK / "cli-summary.json"
        spans = WORK / "trace-cli-cold" / f"{index:04d}.tsv.gz"
        argv = [PY, str(BENCH / "child.py"), "cli", str(summary), str(spans),
                "--", *args]
    else:
        argv = [PY, "-m", "swfloer.cli", *args]
    dt, p = run.call(argv)
    digest = [hashlib.sha256(p.stdout).hexdigest(), len(p.stdout)]
    if p.returncode != 0 or reference.get(key) != digest:
        run.fail(f"{key}: exit {p.returncode}, stdout does not match the "
                 f"reference; {p.stderr.decode()[-300:]}")
    trace = (json.loads(summary.read_text())
             if traced and p.returncode == 0 else None)
    return dt, len(p.stdout), trace


def cli_cold(run, traced):
    """Fresh-interpreter CLI commands; stdout must match the reference.

    wall_s is the sum of the command latencies; the set-up probes run
    between commands, spread evenly over the stream.
    """
    reference = json.loads(REFERENCE.read_text())["digests"]
    keys = cli_stream(run.seed, run.seconds)
    (WORK / "tables").mkdir(parents=True, exist_ok=True)
    if not traced:
        probes, lat = [], []
        every = -(-len(keys) // PROBES)
        for i, key in enumerate(keys):
            if i % every == 0:
                probes.append(run.import_probe())
            lat.append(_cli_command(run, key, reference)[0])
        m = end_to_end(statistics.median(probes), sum(lat), lat)
        return m, len(keys), [tail_note(lat, m)]
    wall = stdout_bytes = 0
    for key in keys:
        dt, nbytes, _ = _cli_command(run, key, reference)
        wall += dt
        stdout_bytes += nbytes
    (WORK / "trace-cli-cold").mkdir(parents=True, exist_ok=True)
    twall, trace = 0, {}
    for i, key in enumerate(keys):
        dt, _, part = _cli_command(run, key, reference, True, i)
        twall += dt
        if part:
            merge_trace(trace, part)
    values = layer_metrics(trace, read_sizes(run), {}, stdout_bytes,
                           twall - wall)
    return values, 2 * len(keys), [
        f"untraced wall {wall:.3f} s, traced wall {twall:.3f} s, "
        f"{trace.get('spans', 0)} spans in {WORK / 'trace-cli-cold'}"]


def record_reference():
    run = Run(0, 0, budget_s=3600.0)
    (WORK / "tables").mkdir(parents=True, exist_ok=True)
    digests = {}
    for key in pool_keys():
        _, p = run.call([PY, "-m", "swfloer.cli",
                         *pool_argv(key, WORK / "tables")])
        if p.returncode != 0:
            raise SystemExit(f"{key}: exit {p.returncode}: {p.stderr.decode()}")
        digests[key] = [hashlib.sha256(p.stdout).hexdigest(), len(p.stdout)]
    REFERENCE.write_text(json.dumps({
        "about": "sha256 and byte count of the stdout of every cli-cold "
                 "pool command; rewrite with run.py --record-reference",
        "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} commands in {REFERENCE}")


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "cli-cold": cli_cold,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (SRC / "swfloer" / "cli.py").is_file():
        sys.stderr.write(f"no swfloer package under {SRC}; run from a "
                         f"checkout of the repository\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    if not args.workload:
        ap.error("--workload is required")
    run = Run(args.seed, args.seconds)
    try:
        values, attempted, notes = WORKLOADS[args.workload](run, bool(args.trace))
    finally:
        shutil.rmtree(WORK / "tables", ignore_errors=True)
    failed = min(run.failed, attempted)
    units = dict(END_TO_END) if not args.trace else {
        n: u for n, u, _ in per_layer_spec()}
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} trace {args.trace}")
    for note in notes:
        print("# " + note)
    for err in run.errors[:5]:
        print("# FAILED " + err)
    print(f"# fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
