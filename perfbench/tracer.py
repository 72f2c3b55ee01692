"""Span tracer that instruments the swfloer package from outside.

Each traced entry point is replaced by a wrapper in every loaded
``swfloer`` module that holds it under its own name.  The package binds
most helpers with ``from .x import name``, so patching only the defining
module would miss every call made from another module.  Methods are
patched once on their class.

Spans live in flat arrays (name, parent, start, end) so that the roughly
one million ``class_pair`` spans of a full sweep stay cheap to hold.
Self time is computed on the fly from the span stack: when a span ends,
its duration is added to its parent's child total, and its self time is
its duration minus its own child total.
"""

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced entry point; the span name is
# "<module>.<attribute path>" with "__init__" shown as "init".
TARGETS = [
    ("qlinalg", "rref"),
    ("qlinalg", "kernel_basis"),
    ("qlinalg", "invert"),
    ("qlinalg", "QMatrix.apply"),
    ("extalg", "wedge"),
    ("extalg", "monomials_up_to"),
    ("swpair", "PairingQuotient.__init__"),
    ("swpair", "PairingQuotient.nf_vector"),
    ("swpair", "class_pair"),
    ("symprod", "ring_oracle"),
    ("symprod", "sector_normal_form"),
    ("floerring", "presentation_quotient"),
    ("floerring", "deformation_components"),
    ("floerring", "recursion_unique"),
    ("glueadj", "universal_matrix"),
    ("glueadj", "kernel_K_basis"),
    ("glueadj", "glue"),
]

# Entry points whose first argument is a matrix; its fill is recorded.
MATRIX_INPUT = {"qlinalg.rref", "qlinalg.kernel_basis", "qlinalg.invert"}


def nonzeros(m):
    return sum(1 for i in range(m.nrows) for v in m.row(i) if v)


class Tracer:
    """Records spans and per-name totals while ``install``-ed wrappers run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.counters = {}
        # each frame: [span index, child time]
        self._stack = []
        self.active = True

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.incl_s[name] = 0.0
        return i

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, name):
        """Start a span; returns a token for ``close``."""
        nid = self._id(name)
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        end = perf_counter()
        frame = self._stack.pop()
        if frame[0] != idx:
            raise RuntimeError("spans closed out of order")
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name, fn):
        tracer = self
        fill = name in MATRIX_INPUT
        nonzero = name == "swpair.class_pair"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if fill:
                m = args[0]
                tracer.count("qlinalg.entries", m.nrows * m.ncols)
                tracer.count("qlinalg.nonzeros", nonzeros(m))
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if nonzero and out:
                tracer.count("swpair.class_pair.nonzero")
            return out
        return wrapper

    def install(self):
        """Patch every target in every loaded swfloer module."""
        import swfloer.cli  # noqa: F401  (loads every module of the package)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "swfloer" or n.startswith("swfloer.")]
        for modname, attr in TARGETS:
            owner = sys.modules["swfloer." + modname]
            span = modname + "." + attr.replace("__init__", "init")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original)
            patched = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched += 1
            if not patched:
                raise RuntimeError(f"no module binds {span}")

    def summary(self):
        """Per-name totals and counters, as plain JSON-able data."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "counters": dict(self.counters),
                "spans": len(self.span_start)}

    def write(self, path):
        """Write every span as gzipped TSV: name, parent index, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            names = self.names
            for i, (n, p, s, e) in enumerate(zip(self.span_name,
                                                  self.span_parent,
                                                  self.span_start,
                                                  self.span_end)):
                fh.write(f"{i}\t{names[n]}\t{p}\t{s:.7f}\t{e:.7f}\n")
