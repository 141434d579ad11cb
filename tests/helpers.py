"""Independent oracles and shared fixtures for the test suite.

Everything here recomputes expected values through a different route than
the library: explicit per-entry embeddings, truth-table loops, dense algebra.
"""
from __future__ import annotations

import numpy as np

import ffcert as fc

P1 = np.diag([0.0, 1.0]).astype(complex)
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def dense_embed_oracle(system: fc.SiteSystem, term: fc.LocalTerm) -> np.ndarray:
    """Entrywise embedding: <g'|O|g> = M[a', a] * delta(rest digits)."""
    D = system.dim
    dims = system.dims
    pos = [system.sites.index(s) for s in term.support]

    def digits(g: int) -> list[int]:
        out = []
        for d in reversed(dims):
            g, r = divmod(g, d)
            out.append(r)
        return list(reversed(out))

    out = np.zeros((D, D), dtype=complex)
    for gr in range(D):
        dr = digits(gr)
        for gc in range(D):
            dc = digits(gc)
            if any(dr[i] != dc[i] for i in range(len(dims)) if i not in pos):
                continue
            a = 0
            for p in pos:
                a = a * dims[p] + dr[p]
            b = 0
            for p in pos:
                b = b * dims[p] + dc[p]
            out[gr, gc] += term.matrix[a, b]
    return out


def ngap_oracle(p: fc.IQPPolynomial) -> float:
    """Truth-table count with plain Python integers."""
    n = p.n_vars
    count = 0
    for x in range(2**n):
        bits = [(x >> i) & 1 for i in range(n)]  # bits[i] = variable i+1
        val = 0
        for (i, j, k) in p.cubic:
            val ^= bits[i - 1] & bits[j - 1] & bits[k - 1]
        for (i, j) in p.quadratic:
            val ^= bits[i - 1] & bits[j - 1]
        for i in p.linear:
            val ^= bits[i - 1]
        count += 1 if val == 0 else -1
    return count / 2**n


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = rank or d
    a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def term_levels_oracle(matrix: np.ndarray, merge_tol: float = 1e-10
                       ) -> list[tuple[float, np.ndarray]]:
    """Fresh eigh, runs within merge_tol * max(1, |w|_max) of their first
    eigenvalue merged, one explicit projector per level."""
    w, v = np.linalg.eigh(matrix)
    scale = max(1.0, float(np.max(np.abs(w))))
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > merge_tol * scale:
            block = v[:, start:i]
            out.append((float(np.mean(w[start:i])), block @ block.conj().T))
            start = i
    return out


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def three_qubit_fixture() -> tuple[fc.LocalHamiltonian, fc.SpectralSummary]:
    """4 commuting projectors on 3 qubits: J = 1, gap = 1, norm = 4, ground |000>."""
    system = fc.SiteSystem(("q0", "q1", "q2"), (2, 2, 2))
    terms = (
        fc.LocalTerm(("q0",), P1),
        fc.LocalTerm(("q1",), P1),
        fc.LocalTerm(("q2",), P1),
        fc.LocalTerm(("q0", "q1"), np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)),
    )
    h = fc.LocalHamiltonian(system, terms)
    return h, fc.analyze(h)


def engineered_fidelity_state(summary: fc.SpectralSummary, h: fc.LocalHamiltonian,
                              target_f: float) -> fc.PreparedState:
    """rho = F |gs><gs| + (1-F) |e1><e1|, so the ground overlap is exactly F."""
    dense = fc.assemble(h).toarray()
    w, v = np.linalg.eigh(dense)
    gs, e1 = v[:, 0], v[:, 1]
    rho = target_f * np.outer(gs, gs.conj()) + (1.0 - target_f) * np.outer(e1, e1.conj())
    return fc.PreparedState.from_dense(rho, label=f"F={target_f}")


def l1_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
