import math

import numpy as np
import pytest

import ffcert as fc
from ffcert.certification import sample_bound, supplied_gap_summary
from ffcert.supremacy import history_preparation
from helpers import (
    P1,
    engineered_fidelity_state,
    random_density,
    random_hermitian,
    three_qubit_fixture,
)


def summary_with(gap, norm, dim=2):
    basis = np.zeros((dim, 1), dtype=complex)
    basis[0, 0] = 1.0
    return fc.SpectralSummary(ground_energy=0.0, first_excited=gap, gap=gap, norm=norm,
                              ground_basis=basis, unique_ground=True, degeneracy_tol=1e-8)


def test_plan_golden_shot_count():
    # n=4, J=1, gap=0.5, eps=0.1, alpha=0.05: direct evaluation of the bound
    # gives 3200 * ln(5 / (-ln 0.95)) = 14654.826..., hence m = 14655.
    s = summary_with(gap=0.5, norm=2.0)
    p = fc.plan(0.5, 0.05, 0.1, s, n_terms=4, interaction_strength=1.0)
    assert p.shots_per_term == 14655


def test_plan_boundary_epsilon_allowed():
    s = summary_with(gap=1.0, norm=2.0)
    p = fc.plan(0.9, 0.05, 0.05, s, n_terms=2, interaction_strength=1.0)
    assert p.epsilon == 0.05


def test_plan_two_level_system_delta_is_two_eps():
    s = summary_with(gap=1.0, norm=1.0)
    p = fc.plan(0.8, 0.1, 0.05, s, n_terms=1, interaction_strength=1.0)
    assert p.fidelity_gap == pytest.approx(2 * 0.05, abs=1e-15)


def test_plan_formula_forms_coincide():
    # the bound in fidelity units with error gap*eps equals the energy-units
    # form with alpha_bar = 1 - alpha
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        j = float(rng.uniform(0.1, 3.0))
        gap = float(rng.uniform(0.05, 2.0))
        eps = float(rng.uniform(0.01, 0.4))
        alpha = float(rng.uniform(0.01, 0.5))
        lhs = sample_bound(n, j, gap, eps, alpha)
        alpha_bar = 1.0 - alpha
        energy_eps = gap * eps
        rhs = (j**2 * n**2) / (2 * energy_eps**2) * math.log(
            (n + 1) / math.log(1.0 / alpha_bar))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_plan_validation_errors():
    s = summary_with(gap=1.0, norm=2.0)
    with pytest.raises(fc.InvalidParameter):
        fc.plan(1.2, 0.1, 0.05, s, 2, 1.0)
    with pytest.raises(fc.InvalidParameter):
        fc.plan(0.8, 0.0, 0.05, s, 2, 1.0)
    with pytest.raises(fc.InvalidParameter):
        fc.plan(0.8, 0.1, 0.2, s, 2, 1.0)  # eps > (1 - F_T)/2
    degenerate = fc.SpectralSummary(0.0, 1.0, 1.0, 2.0, np.eye(2, dtype=complex)[:, :2],
                                    unique_ground=False, degeneracy_tol=1e-8)
    with pytest.raises(fc.DegenerateGround):
        fc.plan(0.8, 0.1, 0.05, degenerate, 2, 1.0)


def test_supplied_gap_summary_records_source():
    h, s = three_qubit_fixture()
    patched = supplied_gap_summary(s, gap=0.5)
    p = fc.plan(0.8, 0.1, 0.05, patched, h.n_terms, h.interaction_strength,
                gap_source="supplied")
    assert p.gap == 0.5 and p.gap_source == "supplied"
    # the supplied gap, not the computed one, drives the reported bound
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.2))
    report = fc.certify(h, s, rho, p, seed=8)
    assert report.f_min_star == pytest.approx(1.0 - report.e_star / 0.5, abs=1e-12)


def test_fidelity_bounds_endpoints():
    s = summary_with(gap=0.5, norm=2.0)
    assert fc.fidelity_bounds(0.0, s) == (1.0, 1.0)
    f_min, f_max = fc.fidelity_bounds(0.5, s)
    assert f_min == pytest.approx(0.0)
    assert f_max == pytest.approx(1.0 - 0.5 / 2.0)
    # small negative estimates clip to zero, larger ones are rejected
    assert fc.fidelity_bounds(-1e-10, s) == (1.0, 1.0)
    with pytest.raises(fc.InvalidParameter):
        fc.fidelity_bounds(-1e-3, s)


def test_fidelity_bounds_monotone_decreasing():
    s = summary_with(gap=0.7, norm=3.0)
    grid = np.linspace(0.0, 3.0, 40)
    mins, maxs = zip(*(fc.fidelity_bounds(float(e), s) for e in grid))
    assert all(a > b for a, b in zip(mins, mins[1:]))
    assert all(a > b for a, b in zip(maxs, maxs[1:]))


def test_fidelity_bounds_sandwich_500_random_fixtures():
    rng = np.random.default_rng(77)
    done = 0
    while done < 500:
        d = int(rng.integers(3, 65))
        raw = random_hermitian(rng, d)
        w = np.linalg.eigvalsh(raw)
        system = fc.SiteSystem(("s",), (d,))
        h = fc.LocalHamiltonian(system, (fc.LocalTerm(("s",), raw),), energy_offset=float(w[0]))
        s = fc.analyze(h)
        if not s.unique_ground or s.gap <= 0:
            continue
        dense = fc.assemble(h).toarray()
        gs = s.ground_vector()
        sigma = random_density(rng, d)
        e_sigma = float(np.real(np.trace(dense @ sigma)))
        weight = float(rng.uniform(0.0, 0.95)) * min(1.0, s.first_excited / max(e_sigma, 1e-12))
        rho = (1 - weight) * np.outer(gs, gs.conj()) + weight * sigma
        energy = float(np.real(np.trace(dense @ rho)))
        if energy >= s.first_excited:
            continue
        fid = float(np.real(np.vdot(gs, rho @ gs)))
        f_min, f_max = fc.fidelity_bounds(max(energy, 0.0), s)
        assert f_min <= fid + 1e-9
        assert fid <= f_max + 1e-9
        done += 1


def test_certify_exact_ground_accepts(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    rho = fc.PreparedState.from_pure(s.ground_vector())
    report = fc.certify(h, s, rho, cert_plan, seed=1)
    assert report.verdict == "accept"
    assert report.e_star == 0.0
    assert report.f_min_star == 1.0
    assert report.true_fidelity == pytest.approx(1.0, abs=1e-12)


def test_certify_far_state_rejects(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    far = engineered_fidelity_state(s, h, 0.4)
    rejected = sum(fc.certify(h, s, far, cert_plan, seed=i).verdict == "reject"
                   for i in range(50))
    assert rejected >= 45  # soundness guarantees >= 1 - alpha on average


def test_certify_verdict_is_pure_threshold(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.2))
    for seed in range(10):
        r = fc.certify(h, s, rho, cert_plan, seed=seed)
        assert r.accepted == (r.f_min_star >= cert_plan.f_threshold + cert_plan.epsilon)
        assert r.f_min_star == pytest.approx(1.0 - r.e_star / cert_plan.gap, abs=1e-12)


def test_certify_reproducible(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    rho = fc.apply_noise(fc.PreparedState.from_pure(s.ground_vector()),
                         fc.NoiseSpec.depolarizing(0.3))
    assert fc.certify(h, s, rho, cert_plan, seed=4) == fc.certify(h, s, rho, cert_plan, seed=4)


def test_certify_at_planned_shot_count_on_iqp_clock():
    # the planned m (about 6e12 per term here), with no cap
    poly = fc.IQPPolynomial.make(3, cubic=[(1, 2, 3)], quadratic=[(1, 2)], linear=[3])
    inst = fc.build_instance(poly, padding=fc.decompose_ccz(fc.encode_iqp(poly)).length)
    h = inst.hamiltonian
    cert_plan = fc.plan(0.9, 0.05, 0.05, inst.summary, h.n_terms, h.interaction_strength)
    assert cert_plan.shots_per_term > 10**12
    ideal = history_preparation(inst)
    assert all(fc.certify(h, inst.summary, ideal, cert_plan, seed).accepted
               for seed in range(3))

    noisy = fc.apply_noise(ideal, fc.NoiseSpec.depolarizing(0.01))
    seeds = range(4)
    mean = np.mean([fc.certify(h, inst.summary, noisy, cert_plan, seed).e_star_raw
                    for seed in seeds])
    # Hoeffding per term over len(seeds) * m outcomes, union bound at 1e-9
    samples = len(seeds) * cert_plan.shots_per_term
    width = math.sqrt(math.log(2 * h.n_terms / 1e-9) / (2 * samples))
    tol = width * sum(float(np.ptp(t.spectrum.values)) for t in h.terms)
    exact = fc.expected_energy(noisy, h)
    assert tol < 1e-2 * exact
    assert abs(mean - exact) <= tol


def test_delta_bound_sanity_over_random_plans():
    rng = np.random.default_rng(13)
    for _ in range(300):
        f_t = float(rng.uniform(0.05, 0.95))
        eps = float(rng.uniform(0.001, (1 - f_t) / 2))
        gap = float(rng.uniform(0.05, 1.0))
        norm = gap * float(rng.uniform(1.0, 5.0))
        s = summary_with(gap=gap, norm=norm)
        p = fc.plan(f_t, 0.1, eps, s, n_terms=3, interaction_strength=1.0)
        assert 2 * eps * gap / norm <= p.fidelity_gap + 1e-12
        assert p.fidelity_gap <= (1 - f_t) + 2 * eps + 1e-12
        assert f_t + p.fidelity_gap <= 1.0 + 1e-12


def test_evaluate_protocol_regions(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    assert fc.evaluate_protocol_regions(1.0, cert_plan) == "must_accept"
    assert fc.evaluate_protocol_regions(0.4, cert_plan) == "must_reject"
    assert fc.evaluate_protocol_regions(0.8, cert_plan) == "must_reject"  # boundary rejects
    mid = cert_plan.f_threshold + cert_plan.fidelity_gap / 2
    assert fc.evaluate_protocol_regions(mid, cert_plan) == "indeterminate"


def test_accepts_imply_true_fidelity_above_threshold(fixture_3q):
    # one-sided guarantee: acceptance certifies membership in the good region
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    accepted, good = 0, 0
    for i, f in enumerate(np.linspace(0.70, 0.999, 60)):
        rho = engineered_fidelity_state(s, h, float(f))
        report = fc.certify(h, s, rho, cert_plan, seed=40_000 + i)
        if report.accepted:
            accepted += 1
            good += report.true_fidelity > cert_plan.f_threshold
    assert accepted > 0
    assert good / accepted >= 1 - cert_plan.alpha


def test_hoeffding_shots_and_register_size():
    assert fc.hoeffding_shots(0.05, 0.02) == math.ceil(math.log(40) / (2 * 0.02**2))
    assert fc.phase_register_qubits(3, 0.25) == 3 + 2  # log2(2 + 2) = 2
    with pytest.raises(fc.InvalidParameter):
        fc.hoeffding_shots(0.0, 0.1)


def phase_fixture():
    system = fc.SiteSystem(("q0", "q1", "q2"), (2, 2, 2))
    terms = (fc.LocalTerm(("q0",), 1.0 * P1), fc.LocalTerm(("q1",), 2.0 * P1),
             fc.LocalTerm(("q2",), 4.0 * P1))
    h = fc.LocalHamiltonian(system, terms)
    return h, fc.analyze(h)


def test_phase_estimation_exact_ground():
    h, s = phase_fixture()
    rho = fc.PreparedState.from_pure(s.ground_vector())
    f_hat, err = fc.phase_estimation_fidelity(rho, h, s, t_qubits=8, shots=2000, seed=0)
    assert f_hat == 1.0 and err == 0.0


def test_phase_estimation_orthogonal_state():
    h, s = phase_fixture()
    excited = np.zeros(8, dtype=complex)
    excited[-1] = 1.0  # |111>, energy 7, well separated
    rho = fc.PreparedState.from_pure(excited)
    f_hat, _ = fc.phase_estimation_fidelity(rho, h, s, t_qubits=8, shots=2000, seed=1)
    assert f_hat <= 0.01


def test_phase_estimation_mixture_tracks_exact_fidelity():
    h, s = phase_fixture()
    gs = fc.PreparedState.from_pure(s.ground_vector())
    shots = fc.hoeffding_shots(0.05, 0.02)
    for p in (0.1, 0.4, 0.8):
        rho = fc.apply_noise(gs, fc.NoiseSpec.depolarizing(p))
        exact = (1 - p) + p / 8
        f_hat, _ = fc.phase_estimation_fidelity(rho, h, s, 8, shots, seed=int(p * 100))
        assert abs(f_hat - exact) <= 0.02


def test_phase_estimation_resolution_guard():
    h, s = phase_fixture()
    rho = fc.PreparedState.from_pure(s.ground_vector())
    with pytest.raises(fc.ResolutionTooCoarse):
        fc.phase_estimation_fidelity(rho, h, s, t_qubits=3, shots=100, seed=0)
