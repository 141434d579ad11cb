"""Finite-statistics measurement of local Hamiltonian terms.

Each shot measures one term in its eigenbasis on a fresh copy of the state:
outcome e with probability Tr(rho_reduced P_e).  Shots are i.i.d., so the
outcome counts of m shots are one multinomial draw; every entry point below
draws those counts once per term and derives means or per-shot records from
them.  Streams are keyed by (seed, term_index), so per-term sampling is
order-independent and reproducible byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, MissingTerm, ProbabilityLeak
from .operators import LocalHamiltonian, LocalTerm, SiteSystem
from .rand import stream_rng
from .states import PreparedState

PROBABILITY_TOL = 1e-8
# Largest shot count one multinomial call accepts; larger counts are drawn
# in chunks of this size, which is exact because multinomial draws add.
MAX_DRAW = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MeasurementRecord:
    term_index: int
    shot_index: int
    outcome: float


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    shots_per_term: int

    def __post_init__(self):
        if self.shots_per_term < 1:
            raise InvalidParameter("shots_per_term must be >= 1")


def outcome_distribution(rho: PreparedState, system: SiteSystem, term: LocalTerm
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the term and their measurement probabilities on rho."""
    keep = tuple(system.index(s) for s in term.support)
    red = rho.reduced_density_matrix(system.dims, keep)
    leak = float(np.trace(red).real) - 1.0
    if abs(leak) > PROBABILITY_TOL:
        raise ProbabilityLeak(f"outcome probabilities sum to 1 {leak:+.2e}")
    probs = np.clip(term.spectrum.weights(red), 0.0, None)
    return term.spectrum.values, probs / probs.sum()


def draw_counts(rng: np.random.Generator, shots: int, probs: np.ndarray) -> np.ndarray:
    """Outcome counts of ``shots`` i.i.d. draws from ``probs``; they sum to ``shots``.

    Counts above the int64 range come back as Python integers.
    """
    shots = int(shots)
    if shots < 1:
        raise InvalidParameter(f"shot count {shots} must be >= 1")
    if shots <= MAX_DRAW:
        return rng.multinomial(shots, probs)
    counts = np.zeros(len(probs), dtype=object)
    for done in range(0, shots, MAX_DRAW):
        counts += rng.multinomial(min(MAX_DRAW, shots - done), probs).astype(object)
    return counts


def sample_outcomes(rho: PreparedState, system: SiteSystem, term: LocalTerm,
                    shots: int, seed: int, term_index: int = 0) -> np.ndarray:
    """Per-shot outcomes for one term: its counts in a random order drawn from
    the same stream; deterministic given (seed, term_index)."""
    values, probs = outcome_distribution(rho, system, term)
    rng = stream_rng(seed, term_index)
    return rng.permutation(np.repeat(values, draw_counts(rng, shots, probs)))


def sample_term(rho: PreparedState, system: SiteSystem, term: LocalTerm,
                shots: int, seed: int, term_index: int = 0) -> list[MeasurementRecord]:
    """Measurement records wrapping :func:`sample_outcomes` (same stream, same draws)."""
    outcomes = sample_outcomes(rho, system, term, shots, seed, term_index)
    return [MeasurementRecord(term_index, i, float(o)) for i, o in enumerate(outcomes)]


def term_sample_means(rho: PreparedState, h: LocalHamiltonian, shots: int,
                      seed: int) -> np.ndarray:
    """Per-term sample means from the counts alone; any shot count up to
    arbitrary size costs one multinomial draw per term (per int64 chunk)."""
    means = np.empty(h.n_terms)
    for idx, term in enumerate(h.terms):
        values, probs = outcome_distribution(rho, h.system, term)
        counts = draw_counts(stream_rng(seed, idx), shots, probs)
        means[idx] = float(counts @ values) / int(shots)
    return means


def sample_hamiltonian(rho: PreparedState, h: LocalHamiltonian, shots: int,
                       seed: int) -> list[MeasurementRecord]:
    """All terms, ``shots`` measurements each, on independent streams."""
    records: list[MeasurementRecord] = []
    for idx, term in enumerate(h.terms):
        records.extend(sample_term(rho, h.system, term, shots, seed, term_index=idx))
    return records


def estimate_energy(records: list[MeasurementRecord], n_terms: int,
                    energy_offset: float = 0.0) -> tuple[float, list[float]]:
    """Sum of per-term sample means, minus the energy offset."""
    sums = np.zeros(n_terms)
    counts = np.zeros(n_terms, dtype=int)
    for r in records:
        sums[r.term_index] += r.outcome
        counts[r.term_index] += 1
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise MissingTerm(f"no measurement records for terms {missing.tolist()}")
    means = sums / counts
    return float(means.sum() - energy_offset), [float(m) for m in means]


def expected_energy(rho: PreparedState, h: LocalHamiltonian) -> float:
    """Exact <H>_rho via reduced density matrices (no full assembly)."""
    total = 0.0
    for term in h.terms:
        keep = tuple(h.system.index(s) for s in term.support)
        red = rho.reduced_density_matrix(h.system.dims, keep)
        total += float(np.real(np.trace(red @ term.matrix)))
    return total - h.energy_offset
