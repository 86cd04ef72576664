"""Spans around the library's layer boundaries, for the traced benchmark run.

The library looks the wrapped names up in its module globals at call time
(``biotsplit.benchmark`` calls ``build_system``, ``refine``, ...;
``biotsplit.biot`` calls ``assemble_form``, ``lu_factor``, ``step_*``, ...),
so rebinding them on the module objects puts a span around every call
without changing the library.  ``Factorization.solve`` is wrapped on the
class.  Spans stay in memory; ``per_layer_metrics`` reduces one pass's spans
to the per-layer metrics of ``BENCHMARK.json``.

Work that only the trace needs (hashing each factored matrix, reading the
fill from L and U) runs in spans of its own named ``trace.*``, so it lands
in the tracing overhead and not in a layer's self time.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import time
import weakref
from dataclasses import dataclass

import numpy as np

#: Layers of the library that spans are attributed to (the part of a span
#: name before the first dot).  ``fem`` work is inside ``assembly`` and
#: ``biot.build_system`` spans; ``cli`` is not called.
LAYERS = ("mesh", "assembly", "linalg", "biot", "benchmark")

FORM_KINDS = ("elasticity", "div-coupling", "mass", "p-stiffness")

#: Bytes one stored factor entry moves in a triangular solve: an 8-byte
#: value and a 4-byte row index.
BYTES_PER_FILL_ENTRY = 12


@dataclass
class Span:
    name: str
    start: float
    parent: int
    tag: str = ""
    end: float = 0.0
    count: int = 0  # sweeps of a split step; fill nnz of a factorization or solve
    key: str = ""   # hash of a factored matrix's structure and values

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``installed``; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._fill = weakref.WeakKeyDictionary()  # Factorization -> L+U nnz
        self._classes: dict[int, str] = {}        # matrix dimension -> class

    # -- recording --------------------------------------------------------

    def open(self, name: str, tag: str = "") -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent, tag)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        s = self.open(name, tag)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name, fn, tag="", after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, tag(*args) if callable(tag) else tag) as s:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(s, result)
            return result
        return traced

    # -- hooks with extra bookkeeping ---------------------------------------

    def _level_dims(self, span, system):
        """Map the new level's block dimensions to factorization classes."""
        o = system.offsets
        self._classes = {o[3]: "coupled", o[2]: "stokes", system.M.num_dofs: "pressure"}

    def _count_sweeps(self, span, result):
        span.count = len(result[1])

    def _factor(self, lu_factor):
        @functools.wraps(lu_factor)
        def traced(A, *args, **kwargs):
            with self.span("trace.hash"):
                key = matrix_key(A)
            with self.span("linalg.factor", self._classes.get(A.shape[0], "other")) as s:
                fact = lu_factor(A, *args, **kwargs)
            with self.span("trace.fill"):
                s.count = int(fact._lu.L.nnz + fact._lu.U.nnz)
            s.key = key
            self._fill[fact] = s.count
            return fact
        return traced

    def _solve(self, solve):
        @functools.wraps(solve)
        def traced(fact, *args, **kwargs):
            with self.span("linalg.solve") as s:
                result = solve(fact, *args, **kwargs)
            s.count = self._fill.get(fact, 0)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap the library's layer boundaries; restore them on exit."""
        bench, biot = lib.benchmark, lib.biot
        patches = [
            (bench, "build_system", "biot.build_system", "", self._level_dims),
            (bench, "initial_state", "benchmark.initial_state", "", None),
            (bench, "compute_errors", "benchmark.compute_errors", "", None),
            (bench, "refine", "mesh.refine", "", None),
            (bench, "build_uniform", "mesh.build_uniform", "", None),
            (biot, "assemble_form", "assembly.form", lambda kind, *a: kind, None),
            (biot, "assemble_functional", "assembly.functional", "", None),
            (biot, "constrain_matrix", "assembly.dirichlet", "", None),
            (biot, "dirichlet_columns", "assembly.dirichlet", "", None),
            (biot, "step_coupled", "biot.step", "coupled", None),
            (biot, "step_te_decoupled", "biot.step", "te", None),
            (biot, "step_iterative", "biot.step", "iterative", self._count_sweeps),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in patches]
        saved.append((biot, "lu_factor", biot.lu_factor))
        saved.append((lib.linalg.Factorization, "solve", lib.linalg.Factorization.solve))
        try:
            for mod, attr, name, tag, after in patches:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), tag, after))
            biot.lu_factor = self._factor(biot.lu_factor)
            lib.linalg.Factorization.solve = self._solve(lib.linalg.Factorization.solve)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)


def matrix_key(A) -> str:
    """Hash of a sparse matrix's shape, structure and values."""
    A = A.tocsr(copy=True)
    A.sum_duplicates()
    A.sort_indices()
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    for arr in (A.indptr, A.indices, A.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def per_layer_metrics(spans: list[Span]) -> dict:
    """One traced pass's spans -> {metric name: (value, unit)}."""
    own = self_times(spans)

    def total(name, tag=None, self_time=False):
        return sum(own[i] if self_time else s.duration for i, s in enumerate(spans)
                   if s.name == name and (tag is None or s.tag == tag))

    def pick(name):
        return [s for s in spans if s.name == name]

    factors, solves = pick("linalg.factor"), pick("linalg.solve")
    steps = pick("biot.step")
    splits = [s for s in steps if s.tag == "iterative"]
    sweeps = sum(s.count for s in splits)
    fills = [s.count for s in factors]
    unique = len({s.key for s in factors})

    m = {
        "linalg.factor_s": (total("linalg.factor"), "s"),
        "linalg.factor_calls": (len(factors), "count"),
        "linalg.factor_unique": (unique, "count"),
        "linalg.factor_useful_ratio": (unique / len(factors) if factors else 1.0, "ratio"),
    }
    # Seconds per class for the classes both workloads factor.  ``sweep64``
    # never factors a coupled matrix, and a time that reads exactly 0 on every
    # run is not a measurement, so the coupled class is given as a count; its
    # seconds are factor_s minus the other two.
    m["linalg.factor_calls.coupled"] = (
        sum(s.tag == "coupled" for s in factors), "count")
    for cls in ("stokes", "pressure"):
        m[f"linalg.factor_s.{cls}"] = (total("linalg.factor", cls), "s")
    m.update({
        "linalg.fill_nnz": (sum(fills), "nnz"),
        "linalg.fill_nnz.max": (max(fills, default=0), "nnz"),
        "linalg.solve_calls": (len(solves), "count"),
        "linalg.solve_s": (total("linalg.solve"), "s"),
        "linalg.solve_bytes_computed": (
            sum(s.count for s in solves) * BYTES_PER_FILL_ENTRY, "B"),
        "biot.steps": (len(steps), "count"),
        "biot.sweeps": (sweeps, "count"),
        "biot.sweep_s": (sum(s.duration for s in splits) / sweeps if sweeps else 0.0, "s"),
        "biot.step_self_s": (total("biot.step", self_time=True), "s"),
        "biot.build_system_s": (total("biot.build_system"), "s"),
        "biot.build_system_self_s": (total("biot.build_system", self_time=True), "s"),
        "assembly.form_s": (total("assembly.form"), "s"),
    })
    for kind in FORM_KINDS:
        m[f"assembly.form_s.{kind}"] = (total("assembly.form", kind), "s")
    m.update({
        "assembly.form_calls": (len(pick("assembly.form")), "count"),
        "assembly.functional_s": (total("assembly.functional"), "s"),
        "assembly.dirichlet_s": (total("assembly.dirichlet"), "s"),
        "mesh.refine_s": (total("mesh.refine"), "s"),
        "benchmark.initial_state_s": (total("benchmark.initial_state"), "s"),
        "benchmark.errors_s": (total("benchmark.compute_errors"), "s"),
    })
    layer_self = dict.fromkeys(LAYERS + ("trace",), 0.0)
    for s, t in zip(spans, own):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer, t in layer_self.items():
        m[f"layer.self_s.{layer}"] = (t, "s")
    return m
