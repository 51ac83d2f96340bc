"""The traced run: the program's own calls, timed in spans.

`Instrumentation.instrumented` wraps each layer function under the name the
calling module bound it to (`cli.build_pipeline`, `pipeline.order_complex`,
`cli.dumps`, ...), plus `IntMatrix.mul` and `homology.smith_normal_form`,
and restores every binding on exit.  Inside the context the traced run calls
`finsplice.cli.main` itself, so the spans describe the program's call
sequence, whatever it is: a call the program stops making stops showing.  A
binding the program no longer has is skipped and listed in
`Instrumentation.missing`.

A span's self time is its duration minus its children's.  Work the tracer
does for itself (counting nonzeros, hashing matrices) runs in `trace.*`
spans, so it is charged to no layer.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

TIME_SPANS = {
    "cli": "cli.self_s",
    "cli.parse": "cli.parse_s",
    "io.load": "io.load_s",
    "io.dumps": "io.dumps_s",
    "spaces.from_preorder": "spaces.from_preorder_s",
    "spaces.from_min_opens": "spaces.from_min_opens_s",
    "spaces.specialisation_preorder": "spaces.specialisation_preorder_s",
    "orders.strictify": "orders.strictify_s",
    "orders.decompose": "orders.decompose_s",
    "complexes.order_complex": "complexes.order_complex_s",
    "complexes.chain_complex": "complexes.chain_complex_s",
    "complexes.relative": "complexes.relative_s",
    "complexes.cochain": "complexes.cochain_s",
    "matrices.mul": "matrices.mul_s",
    "homology.snf": "homology.snf_s",
    "homology.groups": "homology.groups_s",
    "pipeline.build": "pipeline.build_s",
    "splice.splice": "splice.splice_s",
    "splice.cohomology": "splice.cohomology_s",
    "splice.theorem": "splice.theorem_s",
    "splice.compare": "splice.compare_s",
}
MAX_FACE_DIM = 6


class Tracer:
    """Spans and counters of one op: name, parent, start and end per span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.seen_snf: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Counter:
        children = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name] += end - start - children[i]
        return out

    def metrics(self) -> Counter:
        """This op's per-layer metrics: self seconds per layer plus counters."""
        times = self.self_times()
        out = Counter({metric: times.get(name, 0.0) for name, metric in TIME_SPANS.items()})
        out.update(self.counts)
        return out


class Instrumentation:
    """Wraps the program's layer calls with spans while the context is open."""

    def __init__(self, finsplice):
        self.fs = finsplice
        self.tracer = Tracer()
        self.missing: list[str] = []

    def bindings(self) -> list[tuple]:
        """(owner, attribute, span, hook before the call, hook after it)."""
        fs = self.fs
        cli, pipeline = fs.cli, fs.pipeline
        return [
            (cli, "main", "cli", None, None),
            (cli, "build_parser", "cli.parse", None, None),
            (cli._Parser, "parse_args", "cli.parse", None, None),
            (cli, "load_space", "io.load", None, _count_space),
            (fs.io, "from_preorder", "spaces.from_preorder", None, None),
            (fs.io, "from_min_opens", "spaces.from_min_opens", None, None),
            (cli, "build_pipeline", "pipeline.build", None, _count_pipeline),
            (pipeline, "specialisation_preorder", "spaces.specialisation_preorder", None, None),
            (pipeline, "strictify", "orders.strictify", _count_strictify, None),
            (fs.complexes, "strictify", "orders.strictify", _count_strictify, None),
            (pipeline, "decompose", "orders.decompose", None, None),
            (pipeline, "order_complex", "complexes.order_complex", None, None),
            (pipeline, "chain_complex", "complexes.chain_complex", None, _count_maps),
            (pipeline, "relative_chain_complex", "complexes.relative", None, _count_maps),
            (pipeline, "cochain", "complexes.cochain", None, _count_maps),
            (cli, "cochain", "complexes.cochain", None, _count_maps),
            (fs.matrices.IntMatrix, "mul", "matrices.mul", _count_mul, None),
            (fs.homology, "smith_normal_form", "homology.snf", _count_snf, None),
            (cli, "all_groups", "homology.groups", None, None),
            (cli, "splice", "splice.splice", None, None),
            (cli, "splice_negative", "splice.splice", None, None),
            (cli, "spliced_cohomology", "splice.cohomology", None, _count_zero_maps),
            (cli, "theorem_claimed_groups", "splice.theorem", None, None),
            (cli, "compare", "splice.compare", None, None),
            (cli, "dumps", "io.dumps", None, _count_report),
        ]

    def _wrap(self, stack, owner, attr, span_name, before, after):
        original = getattr(owner, attr)
        instrumentation = self

        def wrapper(*args, **kwargs):
            tracer = instrumentation.tracer
            if before:
                with tracer.span("trace.count"):
                    before(tracer, *args, **kwargs)
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after:
                with tracer.span("trace.count"):
                    after(tracer, result, *args, **kwargs)
            return result

        if attr in vars(owner):
            stack.callback(setattr, owner, attr, original)
        else:  # inherited, as `parse_args` is: remove the override again
            stack.callback(delattr, owner, attr)
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def instrumented(self):
        self.missing = []
        with contextlib.ExitStack() as stack:
            for owner, attr, span_name, before, after in self.bindings():
                if hasattr(owner, attr):
                    self._wrap(stack, owner, attr, span_name, before, after)
                else:
                    self.missing.append(f"{owner.__name__}.{attr}")
            yield self


def _count_space(tracer, space, *args):
    tracer.counts["spaces.points"] += len(space.points)
    tracer.counts["spaces.opens"] += len(space.opens)


def _count_pipeline(tracer, data, *args):
    tracer.counts["orders.complementary"] += len(data.decomposition.complementary)
    faces = data.ambient_complex.face_counts()
    tracer.counts["complexes.ambient_faces"] += sum(faces)
    for k in range(MAX_FACE_DIM + 1):
        tracer.counts[f"complexes.faces_dim{k}"] += faces[k] if k < len(faces) else 0


def _count_strictify(tracer, *args, **kwargs):
    tracer.counts["orders.strictify_calls"] += 1


def _count_maps(tracer, chain, *args):
    for m in chain.maps:
        tracer.counts["complexes.map_entries"] += m.rows * m.cols
        tracer.counts["complexes.map_nnz"] += sum(1 for row in m.entries for x in row if x)


def _count_mul(tracer, a, b):
    tracer.counts["matrices.mul_calls"] += 1
    tracer.counts["matrices.mul_madds"] += a.rows * a.cols * b.cols


def _count_snf(tracer, matrix, *args, **kwargs):
    tracer.counts["homology.snf_calls"] += 1
    tracer.counts["homology.snf_entries"] += matrix.rows * matrix.cols
    key = (matrix.rows, matrix.cols, matrix.entries)
    if key in tracer.seen_snf:
        tracer.counts["homology.snf_repeats"] += 1
    tracer.seen_snf.add(key)


def _count_zero_maps(tracer, groups, spliced, *args, **kwargs):
    """Block-boundary maps of the assembled complex, read after the program used it."""
    n = abs(spliced.length)
    tracer.counts["splice.zero_maps"] += sum(1 for d in range(len(spliced.assembled.maps)) if d % n == n - 1)


def _count_report(tracer, text, *args):
    tracer.counts["io.report_bytes"] += len(text.encode())
