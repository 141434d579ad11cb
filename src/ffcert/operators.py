"""k-local Hamiltonians on finite site sets.

Terms are small Hermitian matrices attached to a few sites; the full operator
is assembled sparsely as sum of (term embedded on its support) tensor identity
elsewhere, minus a known energy offset.  Spectral analysis returns the ground
energy, the gap, the operator norm and an orthonormal basis of the ground
space, which is everything the certification layer consumes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BudgetExceeded, ConvergenceFailure, DimensionMismatch, SupportMismatch

DEFAULT_DIM_BUDGET = 2**20
# Full dense diagonalization below this dimension; above it an iterative
# solver runs first, with a dense fallback allowed up to DENSE_FALLBACK_MAX.
DENSE_CUTOFF = 512
DENSE_FALLBACK_MAX = 4096

HERMITICITY_TOL = 1e-12
# Eigenvalues of a term within this fraction of max(1, |w|_max) of the first
# eigenvalue of their run are one measurement outcome.
TERM_MERGE_TOL = 1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SiteSystem:
    """Ordered collection of sites with per-site local dimensions."""

    sites: tuple[str, ...]
    dims: tuple[int, ...]
    budget: int = DEFAULT_DIM_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(str(s) for s in self.sites))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.sites) < 1:
            raise DimensionMismatch("a site system needs at least one site")
        if len(self.sites) != len(self.dims):
            raise DimensionMismatch("sites and dims must have equal length")
        if len(set(self.sites)) != len(self.sites):
            raise DimensionMismatch("site identifiers must be unique")
        if any(d < 2 for d in self.dims):
            raise DimensionMismatch("every local dimension must be >= 2")
        if self.dim > self.budget:
            raise BudgetExceeded(
                f"total dimension {self.dim} exceeds budget {self.budget}"
            )

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, site: str) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise SupportMismatch(f"unknown site {site!r}") from None

    def strides(self) -> tuple[int, ...]:
        """Row-major strides: basis index g = sum_i digit_i * stride_i."""
        out = [1] * len(self.dims)
        for i in range(len(self.dims) - 2, -1, -1):
            out[i] = out[i + 1] * self.dims[i + 1]
        return tuple(out)


@dataclass(frozen=True)
class LocalTerm:
    """Hermitian matrix acting on an ordered subset of sites."""

    support: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(str(s) for s in self.support))
        m = _as_readonly(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("term matrix must be square")
        if len(set(self.support)) != len(self.support):
            raise SupportMismatch("support sites must be distinct")
        herm = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if herm > HERMITICITY_TOL:
            raise DimensionMismatch(f"term matrix not Hermitian (residual {herm:.2e})")

    @property
    def norm(self) -> float:
        """Spectral norm of the term matrix."""
        return float(np.linalg.norm(self.matrix, 2))

    @functools.cached_property
    def spectrum(self) -> TermSpectrum:
        """Measurement levels of the term, computed on first use and kept.

        The term is frozen and its matrix read-only, so one ``eigh`` serves
        every later measurement of it.
        """
        return TermSpectrum.of(self.matrix)


@dataclass(frozen=True)
class TermSpectrum:
    """Distinct eigenvalues of a term with the eigenvectors of each level.

    ``values`` ascend.  Columns of ``basis`` are orthonormal eigenvectors of
    every level except the most degenerate one, ``dominant``; ``owner`` maps
    each column to its level.  The dominant projector is the identity minus
    the others, so a rank-r projector term costs O(d r) memory, not O(d^2).
    """

    values: np.ndarray
    basis: np.ndarray  # d x R
    owner: np.ndarray  # R level indices
    dominant: int

    @classmethod
    def of(cls, matrix: np.ndarray) -> TermSpectrum:
        w, v = np.linalg.eigh(matrix)
        scale = max(1.0, float(np.max(np.abs(w))))
        starts = [0]
        for i in range(1, len(w)):
            if w[i] - w[starts[-1]] > TERM_MERGE_TOL * scale:
                starts.append(i)
        level = np.repeat(np.arange(len(starts)), np.diff(starts + [len(w)]))
        values = np.array([np.mean(run) for run in np.split(w, starts[1:])])
        values.setflags(write=False)
        dominant = int(np.argmax(np.bincount(level)))
        keep = level != dominant
        return cls(values, _as_readonly(v[:, keep]), level[keep], dominant)

    def weights(self, red: np.ndarray) -> np.ndarray:
        """Tr(red P_e) per level; the dominant level takes Tr(red) minus the rest."""
        per_column = np.einsum("ij,ij->j", self.basis.conj(), red @ self.basis).real
        out = np.zeros(len(self.values))
        np.add.at(out, self.owner, per_column)
        out[self.dominant] = float(np.trace(red).real) - out.sum()
        return out

    def projectors(self) -> list[np.ndarray]:
        """One projector per level; together they resolve the identity."""
        rest = np.eye(self.basis.shape[0], dtype=complex)
        out: list[np.ndarray] = []
        for e in range(len(self.values)):
            block = self.basis[:, self.owner == e]
            out.append(block @ block.conj().T)
            rest -= out[-1]
        out[self.dominant] = rest
        return out


@dataclass(frozen=True)
class LocalHamiltonian:
    """Sum of local terms plus a scalar energy offset subtracted at assembly."""

    system: SiteSystem
    terms: tuple[LocalTerm, ...]
    energy_offset: float = 0.0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise DimensionMismatch("a Hamiltonian needs at least one term")
        for t in self.terms:
            d = math.prod(self.system.dims[self.system.index(s)] for s in t.support)
            if t.matrix.shape[0] != d:
                raise DimensionMismatch(
                    f"term on {t.support} has dimension {t.matrix.shape[0]}, expected {d}"
                )

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def interaction_strength(self) -> float:
        """J: the largest spectral norm among the local terms."""
        return max(t.norm for t in self.terms)

    @property
    def locality(self) -> int:
        return max(len(t.support) for t in self.terms)


def support_layout(system: SiteSystem, support: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index offsets splitting the global basis into (support, rest) digits.

    Returns (supp_offsets, rest_offsets): global index = supp_offsets[a] +
    rest_offsets[b] where a runs row-major over the support sites in the
    given order and b row-major over the remaining sites in system order.
    """
    positions = [system.index(s) for s in support]
    strides = system.strides()
    dims = system.dims

    supp_dims = [dims[p] for p in positions]
    d_supp = math.prod(supp_dims)
    supp_offsets = np.zeros(d_supp, dtype=np.int64)
    rem = np.arange(d_supp, dtype=np.int64)
    for j in range(len(positions) - 1, -1, -1):
        rem, digit = np.divmod(rem, supp_dims[j])
        supp_offsets += digit * strides[positions[j]]

    rest_positions = [p for p in range(len(dims)) if p not in positions]
    rest_dims = [dims[p] for p in rest_positions]
    d_rest = math.prod(rest_dims) if rest_dims else 1
    rest_offsets = np.zeros(d_rest, dtype=np.int64)
    rem = np.arange(d_rest, dtype=np.int64)
    for j in range(len(rest_positions) - 1, -1, -1):
        rem, digit = np.divmod(rem, rest_dims[j])
        rest_offsets += digit * strides[rest_positions[j]]
    return supp_offsets, rest_offsets


def embed_term(system: SiteSystem, term: LocalTerm) -> sp.csr_matrix:
    """Term matrix tensored with identity on all other sites, as sparse CSR."""
    supp_offsets, rest_offsets = support_layout(system, term.support)
    d_rest = rest_offsets.size
    rows_a, cols_a = np.nonzero(term.matrix)
    vals = term.matrix[rows_a, cols_a]

    rows = (supp_offsets[rows_a][:, None] + rest_offsets[None, :]).ravel()
    cols = (supp_offsets[cols_a][:, None] + rest_offsets[None, :]).ravel()
    data = np.repeat(vals, d_rest)
    D = system.dim
    return sp.coo_matrix((data, (rows, cols)), shape=(D, D)).tocsr()


def assemble(h: LocalHamiltonian, budget: int | None = None) -> sp.csr_matrix:
    """Full sparse operator: sum of embedded terms minus energy_offset * identity."""
    D = h.system.dim
    cap = h.system.budget if budget is None else budget
    if D > cap:
        raise BudgetExceeded(f"dimension {D} exceeds budget {cap}")
    total = sp.csr_matrix((D, D), dtype=complex)
    for t in h.terms:
        total = total + embed_term(h.system, t)
    if h.energy_offset != 0.0:
        total = total - h.energy_offset * sp.identity(D, dtype=complex, format="csr")
    return total


@dataclass(frozen=True)
class SpectralSummary:
    """Low-lying spectral data of an assembled Hamiltonian.

    ``norm`` is the spread E_max - E_0 of the offset-shifted operator, which
    is the operator norm whenever the ground energy sits at zero.  The ground
    space is stored as an orthonormal basis; the dense projector is derived
    on demand and only sensible at desk scale.
    """

    ground_energy: float
    first_excited: float
    gap: float
    norm: float
    ground_basis: np.ndarray  # D x r, orthonormal columns
    unique_ground: bool
    degeneracy_tol: float

    def __post_init__(self):
        object.__setattr__(self, "ground_basis", _as_readonly(self.ground_basis))

    @property
    def degeneracy(self) -> int:
        return self.ground_basis.shape[1]

    @property
    def ground_projector(self) -> np.ndarray:
        v = self.ground_basis
        return v @ v.conj().T

    def ground_vector(self) -> np.ndarray:
        if not self.unique_ground:
            raise ConvergenceFailure("ground space is degenerate; no single ground vector")
        return self.ground_basis[:, 0]


def _dense_spectrum(H: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(H.toarray())
    return w, v


def _iterative_spectrum(H: sp.spmatrix, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Lowest-k eigenpairs and the largest algebraic eigenvalue."""
    w, v = spla.eigsh(H, k=k, which="SA", tol=1e-12, maxiter=20000)
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    wmax = spla.eigsh(H, k=1, which="LA", tol=1e-12, maxiter=20000,
                      return_eigenvectors=False)
    return w, v, float(wmax[0])


def analyze(h: LocalHamiltonian, degeneracy_tol: float | None = None,
            budget: int | None = None) -> SpectralSummary:
    """Ground energy, gap, norm and ground-space basis of the assembled operator."""
    H = assemble(h, budget=budget)
    D = H.shape[0]

    if D <= DENSE_CUTOFF:
        w, v = _dense_spectrum(H)
        e_max = float(w[-1])
    else:
        k = min(8, D - 1)
        try:
            w, v, e_max = _iterative_spectrum(H, k)
        except spla.ArpackError:
            if D <= DENSE_FALLBACK_MAX:
                w, v = _dense_spectrum(H)
                e_max = float(w[-1])
            else:
                raise ConvergenceFailure(
                    f"iterative eigensolver failed at dimension {D}"
                ) from None

    e0 = float(w[0])
    norm = e_max - e0
    if degeneracy_tol is None:
        degeneracy_tol = 1e-8 * max(norm, 1.0)

    cluster = int(np.sum(w <= e0 + degeneracy_tol))
    if cluster >= len(w):
        # every computed eigenvalue sits in the ground cluster: resolve more
        if D <= DENSE_FALLBACK_MAX and len(w) < D:
            w, v = _dense_spectrum(H)
            e_max = float(w[-1])
            norm = e_max - float(w[0])
            e0 = float(w[0])
            cluster = int(np.sum(w <= e0 + degeneracy_tol))
        if cluster >= len(w) and len(w) < D:
            raise ConvergenceFailure("could not resolve the first excited level")

    # a fully degenerate spectrum has no excited level: report gap zero
    e1 = float(w[cluster]) if cluster < len(w) else e0
    basis = np.linalg.qr(v[:, :cluster])[0]
    return SpectralSummary(
        ground_energy=e0,
        first_excited=e1,
        gap=e1 - e0,
        norm=norm,
        ground_basis=basis,
        unique_ground=(cluster == 1),
        degeneracy_tol=float(degeneracy_tol),
    )


@dataclass(frozen=True)
class FFVerdict:
    """Result of the frustration-freeness check, with per-term residuals."""

    frustration_free: bool
    hamiltonian_residual: float
    term_residuals: tuple[float, ...]
    tol: float


def verify_frustration_free(h: LocalHamiltonian, summary: SpectralSummary,
                            tol: float = 1e-8) -> FFVerdict:
    """True iff the assembled operator and every raw term annihilate the ground space."""
    V = np.asarray(summary.ground_basis)
    H = assemble(h)
    ham_res = float(np.linalg.norm(H @ V, 2))
    residuals = []
    for t in h.terms:
        residuals.append(float(np.linalg.norm(embed_term(h.system, t) @ V, 2)))
    ok = ham_res <= tol and max(residuals) <= tol
    return FFVerdict(ok, ham_res, tuple(residuals), tol)


def term_eigendecomposition(term: LocalTerm) -> list[tuple[float, np.ndarray]]:
    """Eigenvalues and eigenprojectors of a term, near-degenerate levels merged.

    The projectors resolve the identity on the term's support and reconstruct
    the matrix; they are the measurement outcomes of :mod:`ffcert.sampling`.
    Built from the term's cached :attr:`LocalTerm.spectrum`.
    """
    spec = term.spectrum
    return [(float(e), p) for e, p in zip(spec.values, spec.projectors())]
