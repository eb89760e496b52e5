"""Per-layer tracing of khlab from outside the program.

The layers are the package's modules.  Each traced function is replaced, at
every module attribute that refers to it (the defining module, the modules
that imported it by name, and the package namespace), by a wrapper that
records a span and adds the call's duration, less its traced children, to
the function's self time.  Nothing in src/khlab changes, and an untraced run
executes the unmodified functions.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "khlab"

# (layer, attribute in khlab.<layer>): the public functions the benchmark
# times.  A name a later refactor removes is skipped and reads as 0 calls.
TRACED = [
    ("braid", "parse_braid"),
    ("braid", "braid_closure"),
    ("diagram", "from_pd"),
    ("diagram", "resolve"),
    ("diagram", "classify_edge"),
    ("cube", "build_complex"),
    ("homology", "homology_table"),
    ("homology", "GradedMatrix.restrict"),
    ("homology", "smith_normal_form"),
    ("homology", "kernel_basis"),
    ("invariants", "jones_state_sum"),
    ("invariants", "kernel_structure_check"),
    ("invariants", "reduction_consistency"),
    ("invariants", "verify_positive_braid"),
    ("cli", "run"),
]


def _count_complex(counts, args, result):
    counts["cube.generators"] += sum(result.dims)
    counts["cube.nonzeros"] += sum(len(d) for d in result.diffs)


def _count_snf(counts, args, result):
    matrix = args[0]
    if hasattr(matrix, "entries"):
        nnz, rows = len(matrix.entries), matrix.rows
    else:
        nnz, rows = sum(1 for row in matrix for v in row if v), len(matrix)
    counts["homology.snf.nnz_in"] += nnz
    counts["homology.snf.rows_max"] = max(counts["homology.snf.rows_max"], rows)
    counts["homology.snf.rank_sum"] += result.rank
    counts["homology.snf.torsion_entries"] += len(result.torsion())


def _count_kernel(counts, args, result):
    counts["homology.kernel_basis.vectors"] += len(result)


# Counts taken from the arguments and results of one traced function.
HOOKS = {
    "cube.build_complex": _count_complex,
    "homology.smith_normal_form": _count_snf,
    "homology.kernel_basis": _count_kernel,
}
COUNTS = [
    "cube.generators",
    "cube.nonzeros",
    "homology.snf.nnz_in",
    "homology.snf.rows_max",
    "homology.snf.rank_sum",
    "homology.snf.torsion_entries",
    "homology.kernel_basis.vectors",
]


class Tracer:
    """Self time of every traced function; spans, calls and counts while recording.

    Self time accumulates whenever the tracer is installed.  Spans (name,
    start, end, parent span, input id), call counts and the argument/result
    counts are taken only while `recording` is set, which the benchmark does
    for exactly one pass over its inputs so that they repeat run to run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple] = []
        self.recording = False
        self.input_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []  # (object, attribute, original, wrapper)

    def install(self) -> None:
        """Put the wrappers in place; the first call finds every target."""
        if not self.names:
            self._plan()
        for obj, key, _, wrapper in self._patches:
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original, _ in self._patches:
            setattr(obj, key, original)

    def _plan(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, attr in TRACED:
            owner = sys.modules.get(f"{PACKAGE}.{layer}")
            cls_name, _, fn_name = attr.rpartition(".")
            name = f"{layer}.{attr}"
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(fn_name) if cls is not None else None
                targets = [(cls, fn_name)] if original is not None else []
            else:
                original = getattr(owner, fn_name, None)
                targets = [(m, key) for m in modules if original is not None
                           for key, value in list(vars(m).items()) if value is original]
            wrapper = self._wrap(name, original, HOOKS.get(name))
            self._patches += [(obj, key, original, wrapper) for obj, key in targets]

    def _wrap(self, name, fn, hook):
        k = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        if fn is None:
            return None
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(tracer.spans) if tracer.recording else -1
            if span >= 0:
                tracer.spans.append(None)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]  # [time covered by child spans, span index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[k] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if span >= 0:
                    tracer.spans[span] = (k, start, end, parent, tracer.input_id)
                    calls[k] += 1
            if hook is not None and span >= 0:
                hook(tracer.counts, args, result)
            return result

        return traced

    def write_spans(self, path, origin: float) -> None:
        """Recorded spans as TSV, times in seconds from `origin`."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tinput\n")
            for idx, (k, start, end, parent, input_id) in enumerate(self.spans):
                fh.write(f"{idx}\t{self.names[k]}\t{start - origin:.7f}\t"
                         f"{end - origin:.7f}\t{parent}\t{input_id}\n")
