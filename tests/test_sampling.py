import numpy as np
import pytest

import ffcert as fc
from ffcert.rand import stream_rng
from ffcert.sampling import draw_counts, outcome_distribution, term_sample_means
from helpers import (
    Z,
    random_density,
    random_hermitian,
    random_unitary,
    term_levels_oracle,
    three_qubit_fixture,
)


def test_ground_state_of_projector_gives_constant_outcomes():
    system = fc.SiteSystem(("q",), (2,))
    term = fc.LocalTerm(("q",), Z)
    rho = fc.PreparedState.from_pure(np.array([1, 0], dtype=complex))
    records = fc.sample_term(rho, system, term, shots=500, seed=0)
    assert all(r.outcome == 1.0 for r in records)
    assert [r.shot_index for r in records] == list(range(500))


def test_maximally_mixed_z_mean_within_five_sigma():
    system = fc.SiteSystem(("q",), (2,))
    term = fc.LocalTerm(("q",), Z)
    rho = fc.PreparedState.maximally_mixed(2)
    m = 100_000
    records = fc.sample_term(rho, system, term, shots=m, seed=7)
    mean = np.mean([r.outcome for r in records])
    assert abs(mean) <= 5.0 / np.sqrt(m)  # outcome variance is 1


def test_clock_ground_state_energy_concentrates_at_zero():
    c = fc.CircuitProgram(1, tuple(fc.gate("H", 0) if i % 2 else fc.gate("T", 0)
                                   for i in range(4)))
    h = fc.build_feynman_kitaev(c)
    s = fc.analyze(h)
    rho = fc.PreparedState.from_pure(s.ground_vector())
    m = 10_000
    records = fc.sample_hamiltonian(rho, h, shots=m, seed=3)
    e_star, _ = fc.estimate_energy(records, h.n_terms)
    # every term annihilates the ground state, so outcomes are all but surely 0
    assert abs(e_star) <= 5 * h.n_terms / np.sqrt(m)


def test_outcome_distribution_matches_reduced_state():
    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.5))
    values, probs = outcome_distribution(rho, h.system, h.terms[0])
    assert sorted(values) == pytest.approx([0.0, 1.0])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[np.argmin(values)] == pytest.approx(0.75, abs=1e-12)


def test_records_reproducible_byte_for_byte():
    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.4))
    a = fc.sample_hamiltonian(rho, h, shots=200, seed=99)
    b = fc.sample_hamiltonian(rho, h, shots=200, seed=99)
    assert a == b
    c = fc.sample_hamiltonian(rho, h, shots=200, seed=98)
    assert a != c


def test_per_term_streams_are_order_independent():
    h, s = three_qubit_fixture()
    rho = fc.PreparedState.maximally_mixed(8)
    direct = fc.sample_term(rho, h.system, h.terms[2], shots=50, seed=5, term_index=2)
    bulk = [r for r in fc.sample_hamiltonian(rho, h, shots=50, seed=5) if r.term_index == 2]
    assert direct == bulk


def test_term_sample_means_agree_with_records():
    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.3))
    means = term_sample_means(rho, h, shots=400, seed=21)
    records = fc.sample_hamiltonian(rho, h, shots=400, seed=21)
    _, per_term = fc.estimate_energy(records, h.n_terms)
    assert means == pytest.approx(per_term, abs=1e-12)


def test_estimate_energy_examples():
    zeros = [fc.MeasurementRecord(0, i, 0.0) for i in range(10)]
    e, per = fc.estimate_energy(zeros, 1)
    assert e == 0.0 and per == [0.0]

    recs = ([fc.MeasurementRecord(0, i, 0.3) for i in range(4)]
            + [fc.MeasurementRecord(1, i, 0.2) for i in range(4)])
    e, per = fc.estimate_energy(recs, 2)
    assert e == pytest.approx(0.5)
    assert per == pytest.approx([0.3, 0.2])

    e_off, _ = fc.estimate_energy(recs, 2, energy_offset=0.5)
    assert e_off == pytest.approx(0.0)

    with pytest.raises(fc.MissingTerm):
        fc.estimate_energy(recs, 3)


def test_unbiased_and_one_over_sqrt_m_scaling():
    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.6))
    exact = fc.expected_energy(rho, h)
    spreads = []
    for m in (100, 10_000):
        estimates = [sum(term_sample_means(rho, h, m, seed)) for seed in range(60)]
        assert np.mean(estimates) == pytest.approx(exact, abs=5 * 2.0 / np.sqrt(m * 60))
        spreads.append(np.std(estimates))
    # a 100x shot increase shrinks the spread by about 10x
    ratio = spreads[0] / spreads[1]
    assert 5.0 <= ratio <= 20.0


def test_hoeffding_conformance_light():
    # reduced-size version of the conformance check (acceptance covers 500 reps)
    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.4))
    exact = fc.expected_energy(rho, h)
    alpha, eps = 0.1, 0.1
    cert_plan = fc.plan_for(h, s, f_threshold=0.8, alpha=alpha, epsilon=eps)
    failures = 0
    reps = 150
    for i in range(reps):
        e_star = float(term_sample_means(rho, h, cert_plan.shots_per_term, 5000 + i).sum())
        if abs(e_star - exact) > s.gap * eps:
            failures += 1
    assert failures / reps <= alpha


def test_expected_energy_matches_assembled_trace():
    h, s = three_qubit_fixture()
    rng = np.random.default_rng(8)
    from helpers import random_density
    rho_mat = random_density(rng, 8)
    rho = fc.PreparedState.from_dense(rho_mat)
    oracle = float(np.real(np.trace(fc.assemble(h).toarray() @ rho_mat)))
    assert fc.expected_energy(rho, h) == pytest.approx(oracle, abs=1e-10)


def test_sampler_config_validation():
    with pytest.raises(fc.InvalidParameter):
        fc.SamplerConfig(seed=1, shots_per_term=0)
    cfg = fc.SamplerConfig(seed=1, shots_per_term=10)
    assert cfg.shots_per_term == 10


def test_empirical_distribution_chi_square_sanity():
    from scipy.stats import chisquare

    # three distinct outcomes on a qutrit term
    system = fc.SiteSystem(("s",), (3,))
    term = fc.LocalTerm(("s",), np.diag([0.0, 1.0, 2.0]).astype(complex))
    probs = np.array([0.5, 0.3, 0.2])
    rho = fc.PreparedState.from_diagonal(probs)
    m = 60_000
    outcomes = np.array([r.outcome for r in fc.sample_term(rho, system, term, m, seed=17)])
    counts = [np.sum(outcomes == v) for v in (0.0, 1.0, 2.0)]
    assert chisquare(counts, probs * m).pvalue > 1e-3


def test_probability_leak_guard():
    from ffcert.states import _MaxMixedAtom

    class LeakyAtom(_MaxMixedAtom):
        def reduced(self, dims, keep):
            return 0.5 * super().reduced(dims, keep)

    system = fc.SiteSystem(("q",), (2,))
    term = fc.LocalTerm(("q",), Z)
    broken = fc.PreparedState(((1.0, LeakyAtom(2)),))
    with pytest.raises(fc.ProbabilityLeak):
        fc.sample_term(broken, system, term, shots=10, seed=0)


def _spectrum_cases():
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 6)
    # scale 2: gaps of 0.9e-10 * scale merge, 1.1e-10 * scale do not
    near = np.array([-2.0, -2.0 + 1.8e-10, 0.5, 0.5 + 2.2e-10, 1.0, 1.0])
    rank2 = np.diag([0.0] * 6 + [1.0] * 2).astype(complex)
    w8 = random_unitary(rng, 8)
    return [
        pytest.param(random_hermitian(rng, 5), 5, id="random"),
        pytest.param((u * near) @ u.conj().T, 4, id="near-degenerate"),
        pytest.param(w8 @ rank2 @ w8.conj().T, 2, id="rotated rank-2 projector"),
        pytest.param(3.0 * np.eye(4, dtype=complex), 1, id="scalar"),
    ]


@pytest.mark.parametrize("matrix,n_levels", _spectrum_cases())
def test_cached_spectrum_matches_fresh_eigendecomposition(matrix, n_levels):
    d = matrix.shape[0]
    system = fc.SiteSystem(("s",), (d,))
    term = fc.LocalTerm(("s",), matrix)
    reference = term_levels_oracle(term.matrix)
    assert len(reference) == n_levels
    assert len(term.spectrum.values) == n_levels
    assert term.spectrum.values == pytest.approx([e for e, _ in reference], abs=1e-14)

    decomp = fc.term_eigendecomposition(term)
    for (e, p), (e_ref, p_ref) in zip(decomp, reference):
        assert e == e_ref
        assert np.max(np.abs(p - p_ref)) <= 1e-12

    rng = np.random.default_rng(d)
    for _ in range(5):
        red = random_density(rng, d)
        values, probs = outcome_distribution(fc.PreparedState.from_dense(red), system, term)
        assert np.array_equal(values, term.spectrum.values)
        seed_formula = [float(np.real(np.trace(red @ p))) for _, p in reference]
        assert probs == pytest.approx(seed_formula, abs=1e-12)


def test_term_eigh_runs_once_per_term(monkeypatch):
    h, s = three_qubit_fixture()
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.3))
    for seed in range(3):
        term_sample_means(rho, h, shots=100, seed=seed)
        fc.sample_hamiltonian(rho, h, shots=10, seed=seed)
    for term in h.terms:
        fc.term_eigendecomposition(term)
    assert len(calls) == h.n_terms


def test_huge_shot_counts_draw_in_exact_chunks():
    m = 2**64 + 3
    counts = draw_counts(stream_rng(4, 0), m, np.array([0.25, 0.5, 0.25]))
    assert sum(int(c) for c in counts) == m
    assert all(c >= 0 for c in counts)

    h, s = three_qubit_fixture()
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.5))
    means = term_sample_means(rho, h, shots=m, seed=6)
    assert np.all(np.isfinite(means))
    assert np.all((means >= 0.0) & (means <= 1.0))


def test_draw_counts_rejects_nonpositive_shots():
    with pytest.raises(fc.InvalidParameter):
        draw_counts(stream_rng(0, 0), 0, np.array([1.0]))
