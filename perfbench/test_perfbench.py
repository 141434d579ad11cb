"""Self-tests of the benchmark: span arithmetic, seeded inputs and metric names.

Run from the checkout root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import ffcert  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from ffcert import certification, io, operators, sampling  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a1"].parent == by_name["a"].sid
    assert by_name["a"].parent == by_name["b"].parent == by_name["outer"].sid
    own = spans.self_times(tracer.spans)
    assert {n: own[s.sid] for n, s in by_name.items()} == {
        "outer": 6.0, "a": 1.5, "a1": 0.5, "b": 2.0}


def test_self_time_counts_overlapping_children_once():
    group = [spans.Span(0, "p", 0.0, 10.0, None, 0),
             spans.Span(1, "c", 2.0, 6.0, 0, 0),
             spans.Span(2, "c", 4.0, 8.0, 0, 0),
             spans.Span(3, "c", 9.0, 12.0, 0, 0)]
    assert spans.self_times(group)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_install_wraps_every_binding_and_restores(fixture_h):
    h, summary, rho = fixture_h
    originals = (operators.term_eigendecomposition, certification.term_sample_means)
    tracer, stats = spans.Tracer(), spans.LayerStats()
    restore = spans.install(tracer, stats)
    try:
        assert sampling.term_eigendecomposition is operators.term_eigendecomposition
        assert ffcert.term_eigendecomposition is operators.term_eigendecomposition
        assert operators.term_eigendecomposition is not originals[0]
        cert_plan = certification.plan(0.9, 0.05, 0.05, summary, h.n_terms,
                                       h.interaction_strength)
        cert_plan = dataclasses.replace(cert_plan, shots_per_term=50)
        certification.certify(h, summary, rho, cert_plan, seed=3)
    finally:
        restore()
    assert (operators.term_eigendecomposition, certification.term_sample_means) == originals
    assert sampling.term_eigendecomposition is originals[0]

    by_sid = {s.sid: s for s in tracer.spans}

    def chain(span):
        names = []
        while span is not None:
            names.append(span.name)
            span = by_sid.get(span.parent)
        return names

    eig = next(s for s in tracer.spans if s.name == "operators.term_eigendecomposition")
    assert chain(eig) == ["operators.term_eigendecomposition", "sampling.outcome_distribution",
                          "sampling.sample_outcomes", "sampling.term_sample_means",
                          "certification.certify"]
    values = spans.layer_metrics(tracer.spans, stats, 0.0)
    assert values["sampling.sample_outcomes.shots"] == 50 * h.n_terms
    assert values["operators.term_eigendecomposition.calls"] == h.n_terms
    assert values["operators.term_eigendecomposition.dim3"] == sum(
        t.matrix.shape[0] ** 3 for t in h.terms)
    assert values["states.fidelity.calls"] == 1


def test_missing_target_records_zero_calls(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("operators", "gone"),
                                                           ("nomodule", "gone")))
    tracer, stats = spans.Tracer(), spans.LayerStats()
    spans.install(tracer, stats)()
    assert not hasattr(operators, "gone")
    assert spans.layer_metrics([], stats, 0.0)["operators.analyze.calls"] == 0


def test_eigsh_counter_counts_operator_applications():
    import scipy.sparse as sp

    stats = spans.LayerStats()
    counting = spans._CountingSpla(operators.spla, stats)
    a = sp.diags(np.linspace(0.0, 1.0, 600).astype(complex)).tocsr()
    kwargs = dict(k=2, which="SA", tol=1e-10, v0=np.ones(600, dtype=complex),
                  return_eigenvectors=False)
    counted = counting.eigsh(a, **kwargs)
    assert stats.matvecs > 0
    np.testing.assert_array_equal(counted, operators.spla.eigsh(a, **kwargs))


def _certify_inputs(seed):
    poly = workloads.certify_polynomial(seed)
    return (poly.cubic, poly.quadratic, poly.linear,
            [workloads.derive_seed(seed, i) for i in range(6)])


def _cli_inputs(seed):
    return [io.dumps(io.circuit_to_dict(c)) for c in workloads.cli_circuits(seed)]


@pytest.mark.parametrize("inputs", [_certify_inputs, _cli_inputs])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(inputs):
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_cli_mix_dimensions():
    dims = sorted(2 ** (c.num_qubits + c.length) for c in workloads.cli_circuits(1))
    assert dims[0] == 2**10 and dims[-1] == 2**13


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name, tmp_path):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    w = workloads.make(name, 5, tmp_path, tiny=True)
    results, failed, metrics, _lines, _extra = run.run_untraced(w, 0.0, speed.SpeedProbe())
    assert not failed and results
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

    w = workloads.make(name, 5, tmp_path, tiny=True)
    results, failed, metrics, _lines, _extra = run.run_traced(w, tmp_path / "t",
                                                              speed.SpeedProbe())
    assert not failed and results
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert (tmp_path / "t.spans.jsonl").stat().st_size > 0


def test_scaled_time_divides_out_probe_speed():
    assert speed.scaled(0.3, speed.REF_S, speed.REF_S) == pytest.approx(0.3)
    # the machine ran at half speed around the op: probe twice as slow
    assert speed.scaled(0.6, 2 * speed.REF_S, 2 * speed.REF_S) == pytest.approx(0.3)
    assert speed.scaled(0.3, speed.REF_S, 3 * speed.REF_S) == pytest.approx(0.15)


@pytest.fixture
def fixture_h():
    """Two-qubit commuting projectors P1 (x) I and I (x) P1: ground state |00>."""
    p1 = np.diag([0.0, 1.0]).astype(complex)
    system = operators.SiteSystem(("a", "b"), (2, 2))
    h = operators.LocalHamiltonian(system, (operators.LocalTerm(("a",), p1),
                                            operators.LocalTerm(("b",), p1)))
    summary = operators.analyze(h)
    rho = ffcert.PreparedState.from_pure(np.array([1, 0, 0, 0], dtype=complex))
    return h, summary, rho
