"""Span recording around the public functions of ``ffcert``, and the per-layer
metrics derived from the spans.

The benchmark wraps each function in ``TARGETS`` at every module attribute
that refers to it (``ffcert.sampling.term_eigendecomposition`` as well as
``ffcert.operators.term_eigendecomposition``), so a call is recorded no matter
which name the caller uses.  A target that no longer exists records zero calls.
Spans are kept in memory and written out when the run ends.

``self_s`` is a span's duration minus the part of its interval that its child
spans cover.  All per-layer numbers are totals over the traced batch, whose op
count is fixed per workload, so counts repeat exactly from run to run.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

# (module under ffcert, attribute); "Class.method" wraps a method on its class.
TARGETS = (
    ("operators", "assemble"),
    ("operators", "embed_term"),
    ("operators", "analyze"),
    ("operators", "verify_frustration_free"),
    ("operators", "term_eigendecomposition"),
    ("states", "PreparedState.reduced_density_matrix"),
    ("states", "fidelity"),
    ("sampling", "outcome_distribution"),
    ("sampling", "sample_outcomes"),
    ("sampling", "term_sample_means"),
    ("certification", "plan"),
    ("certification", "certify"),
    ("clock", "build_feynman_kitaev"),
    ("clock", "history_state"),
    ("circuits", "decompose_ccz"),
    ("circuits", "pad_identities"),
    ("iqp", "encode_iqp"),
    ("supremacy", "build_instance"),
    ("io", "load_json"),
    ("io", "dumps"),
    ("io", "hamiltonian_from_dict"),
    ("io", "state_from_dict"),
)

# The CLI steps of the cli-unary chain, timed by the benchmark around ffcert.cli.main.
CLI_STEPS = ("ham_build", "ham_analyze", "ham_verify_ff", "certify_plan",
             "certify_run", "certify_montecarlo")

# Used when ffcert.operators no longer defines DENSE_CUTOFF.
DEFAULT_DENSE_CUTOFF = 512


# Every per-layer metric, with its unit, in the order they are reported.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("operators.assemble.calls", "count"),
    ("operators.assemble.self_s", "s"),
    ("operators.assemble.nnz", "count"),
    ("operators.embed_term.calls", "count"),
    ("operators.embed_term.self_s", "s"),
    ("operators.analyze.calls", "count"),
    ("operators.analyze.self_s", "s"),
    ("operators.analyze.iterative_calls", "count"),
    ("operators.analyze.matvecs", "count"),
    ("operators.analyze.distinct_frac", "ratio"),
    ("operators.analyze.gap_drift", "ratio"),
    ("operators.verify_frustration_free.calls", "count"),
    ("operators.verify_frustration_free.self_s", "s"),
    ("operators.term_eigendecomposition.calls", "count"),
    ("operators.term_eigendecomposition.self_s", "s"),
    ("operators.term_eigendecomposition.distinct_frac", "ratio"),
    ("operators.term_eigendecomposition.dim3", "count"),
    ("states.reduced_density_matrix.calls", "count"),
    ("states.reduced_density_matrix.self_s", "s"),
    ("states.reduced_density_matrix.distinct_frac", "ratio"),
    ("states.fidelity.calls", "count"),
    ("states.fidelity.self_s", "s"),
    ("sampling.outcome_distribution.calls", "count"),
    ("sampling.outcome_distribution.self_s", "s"),
    ("sampling.sample_outcomes.calls", "count"),
    ("sampling.sample_outcomes.self_s", "s"),
    ("sampling.sample_outcomes.shots", "count"),
    ("sampling.sample_outcomes.ns_per_shot", "ns"),
    ("sampling.term_sample_means.calls", "count"),
    ("sampling.term_sample_means.self_s", "s"),
    ("certification.plan.calls", "count"),
    ("certification.plan.self_s", "s"),
    ("certification.certify.calls", "count"),
    ("certification.certify.self_s", "s"),
    ("clock.build_feynman_kitaev.calls", "count"),
    ("clock.build_feynman_kitaev.self_s", "s"),
    ("clock.history_state.calls", "count"),
    ("clock.history_state.self_s", "s"),
    ("circuits.decompose_ccz.self_s", "s"),
    ("circuits.pad_identities.self_s", "s"),
    ("iqp.encode_iqp.self_s", "s"),
    ("supremacy.build_instance.calls", "count"),
    ("supremacy.build_instance.self_s", "s"),
    ("io.load_json.self_s", "s"),
    ("io.load_json.bytes", "bytes"),
    ("io.dumps.self_s", "s"),
    ("io.dumps.bytes", "bytes"),
    ("io.hamiltonian_from_dict.self_s", "s"),
    ("io.state_from_dict.self_s", "s"),
    *((f"cli.{step}.s", "s") for step in CLI_STEPS),
    ("trace.overhead_frac", "ratio"),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # index of the op the span belongs to; -1 for set-up


class Tracer:
    """In-memory span recorder; ``clock`` is replaceable so tests can fake time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread (the Monte-Carlo pool) was started by whatever the
        # main thread has open, so that span is the cause.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    @contextmanager
    def span(self, name: str):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


class LayerStats:
    """Counts recorded at the wrapped boundaries, next to the spans."""

    def __init__(self):
        self.nnz = 0
        self.dim3 = 0
        self.shots = 0
        self.matvecs = 0
        self.iterative_calls = 0
        self.bytes: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.gaps: dict[str, list[float]] = defaultdict(list)
        # id -> (object, key); holding the object keeps its id from being reused
        self._keys: dict[int, tuple[object, object]] = {}
        # hooks also run on worker threads (the Monte-Carlo pool)
        self.lock = threading.Lock()

    def _cached_key(self, obj, compute):
        hit = self._keys.get(id(obj))
        if hit is None:
            hit = self._keys[id(obj)] = (obj, compute(obj))
        return hit[1]

    def identity_key(self, obj) -> int:
        return self._cached_key(obj, id)

    def term_key(self, term) -> str:
        return self._cached_key(term, lambda t: _digest([t.matrix]))

    def hamiltonian_key(self, h) -> str:
        def compute(h):
            parts = [repr((h.system.sites, h.system.dims, h.energy_offset)).encode()]
            for t in h.terms:
                parts += [repr(t.support).encode(), t.matrix]
            return _digest(parts)
        return self._cached_key(h, compute)


def _digest(parts) -> str:
    sha = hashlib.sha1()
    for p in parts:
        sha.update(p if isinstance(p, bytes) else p.tobytes())
    return sha.hexdigest()


def _hooks(stats: LayerStats) -> dict:
    """Per-span-name callbacks run after a successful call: (arguments, result)."""

    def assemble(a, result):
        stats.nnz += int(getattr(result, "nnz", 0))

    def analyze(a, result):
        h = a.get("h")
        if h is None:
            return
        ops = sys.modules.get("ffcert.operators")
        cutoff = getattr(ops, "DENSE_CUTOFF", DEFAULT_DENSE_CUTOFF)
        if h.system.dim > cutoff:
            stats.iterative_calls += 1
        key = stats.hamiltonian_key(h)
        stats.distinct["operators.analyze"].add(key)
        gap = getattr(result, "gap", None)
        if gap is not None:
            stats.gaps[key].append(float(gap))

    def term_eig(a, result):
        term = a.get("term")
        if term is not None:
            stats.dim3 += int(term.matrix.shape[0]) ** 3
            stats.distinct["operators.term_eigendecomposition"].add(stats.term_key(term))

    def reduced(a, result):
        if "self" in a:
            key = (stats.identity_key(a["self"]), tuple(a.get("dims", ())),
                   tuple(a.get("keep", ())))
            stats.distinct["states.reduced_density_matrix"].add(key)

    def sample(a, result):
        stats.shots += int(a.get("shots", 0))

    def load_json(a, result):
        path = a.get("path")
        if path is not None:
            stats.bytes["io.load_json"] += os.path.getsize(path)

    def dumps(a, result):
        if isinstance(result, str):
            stats.bytes["io.dumps"] += len(result.encode())

    return {
        "operators.assemble": assemble,
        "operators.analyze": analyze,
        "operators.term_eigendecomposition": term_eig,
        "states.reduced_density_matrix": reduced,
        "sampling.sample_outcomes": sample,
        "io.load_json": load_json,
        "io.dumps": dumps,
    }


def _wrap(tracer: Tracer, stats: LayerStats, name: str, fn, hook):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            with stats.lock:
                hook(bound.arguments, result)
        return result

    return wrapper


class _CountingSpla:
    """``scipy.sparse.linalg`` as ffcert.operators sees it, with ``eigsh``
    applied through a LinearOperator that counts operator applications."""

    def __init__(self, real, stats: LayerStats):
        self._real = real
        self._stats = stats

    def __getattr__(self, name):
        return getattr(self._real, name)

    def eigsh(self, A, *args, **kwargs):
        if kwargs.get("sigma") is not None:
            return self._real.eigsh(A, *args, **kwargs)
        inner = self._real.aslinearoperator(A)
        stats = self._stats

        def matvec(x):
            stats.matvecs += 1
            return inner.matvec(x)

        def matmat(x):
            stats.matvecs += x.shape[1]
            return inner.matmat(x)

        counted = self._real.LinearOperator(inner.shape, matvec=matvec, matmat=matmat,
                                            dtype=inner.dtype)
        return self._real.eigsh(counted, *args, **kwargs)


def install(tracer: Tracer, stats: LayerStats):
    """Wrap every target at every ffcert binding; returns a function that undoes it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ffcert" or n.startswith("ffcert."))]
    hooks = _hooks(stats)
    undo: list[tuple[object, str, object]] = []
    for mod_name, attr in TARGETS:
        owner = sys.modules.get(f"ffcert.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        orig = vars(owner).get(leaf)
        if not callable(orig):
            continue
        name = f"{mod_name}.{leaf}"
        wrapper = _wrap(tracer, stats, name, orig, hooks.get(name))
        if path:  # a method: wrapping it on its class covers every caller
            undo.append((owner, leaf, orig))
            setattr(owner, leaf, wrapper)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    ops = sys.modules.get("ffcert.operators")
    real = getattr(ops, "spla", None)
    if real is not None and hasattr(real, "eigsh"):
        undo.append((ops, "spla", real))
        ops.spla = _CountingSpla(real, stats)

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def layer_metrics(spans: list[Span], stats: LayerStats,
                  overhead_frac: float) -> dict[str, float]:
    """Every metric in LAYER_METRICS, from the spans and counts of a traced batch."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.sid]
        total_s[s.name] += s.end - s.start

    def frac(name):
        return len(stats.distinct[name]) / calls[name] if calls[name] else 0.0

    drift = 0.0
    for gaps in stats.gaps.values():
        if len(gaps) > 1 and min(abs(g) for g in gaps) > 0:
            drift = max(drift, (max(gaps) - min(gaps)) / min(abs(g) for g in gaps))

    shots_s = self_s["sampling.sample_outcomes"]
    special = {
        "operators.assemble.nnz": stats.nnz,
        "operators.analyze.iterative_calls": stats.iterative_calls,
        "operators.analyze.matvecs": stats.matvecs,
        "operators.analyze.distinct_frac": frac("operators.analyze"),
        "operators.analyze.gap_drift": drift,
        "operators.term_eigendecomposition.distinct_frac":
            frac("operators.term_eigendecomposition"),
        "operators.term_eigendecomposition.dim3": stats.dim3,
        "states.reduced_density_matrix.distinct_frac":
            frac("states.reduced_density_matrix"),
        "sampling.sample_outcomes.shots": stats.shots,
        "sampling.sample_outcomes.ns_per_shot":
            shots_s * 1e9 / stats.shots if stats.shots else 0.0,
        "io.load_json.bytes": stats.bytes["io.load_json"],
        "io.dumps.bytes": stats.bytes["io.dumps"],
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        if metric in special:
            out[metric] = special[metric]
        elif stat == "calls":
            out[metric] = calls[layer]
        elif stat == "self_s":
            out[metric] = self_s[layer]
        elif stat == "s":
            out[metric] = total_s[layer]
        else:
            raise KeyError(metric)
    return out
