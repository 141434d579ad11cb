"""The benchmark's workloads: inputs made from a seed, set-up, ops and checks.

Each workload runs ops in cycles.  ``op`` is the timed unit; ``observe``
extracts what ``check`` needs, outside the timed region; ``check`` compares
every op with a reference computed by a different route after timing ends.

certify-m1e4 / certify-m1e6
    One op is one ``certification.certify`` call on the compact-clock
    Hamiltonian of a seeded 3-variable IQP polynomial, padded with identities
    to 63 gates (dimension 512, so the spectrum takes the dense path; 66 terms
    of up to 256x256).  Ops cycle through the ideal history state,
    depolarizing noise at 1e-4 and dephasing at 1e-2.  At m = 1e4 shots per
    term the per-call work that depends only on (H, rho) dominates an op; at
    m = 1e6 drawing the shots does.

cli-unary
    One op is the in-process ``ffcert.cli.main`` chain ham build (unary) ->
    analyze -> verify-ff -> certify plan -> certify run (ideal history state)
    -> certify montecarlo (depolarizing 0.01) for one random circuit on 1 to 3
    work qubits with 8 to 10 gates (dimension 2^10 to 2^13).  The iterative
    ``analyze``, run five times per chain, dominates; CLI and JSON costs show.
    IQP compact clocks are left out: at n = 4, ``io.dumps`` alone takes about
    20 s and writes about 200 MB.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffcert import certification, circuits, cli, clock, io, iqp, operators, states, supremacy
from spans import maybe_span

F_THRESHOLD, ALPHA, EPSILON = 0.9, 0.05, 0.05

IQP_VARS = 3
PADDED_LENGTH = 63  # (2^3 work states) x (63 + 1 clock states) = 512 = dense cutoff
CERTIFY_DIM = 512
CERTIFY_NOISE = (("depolarizing", 1e-4), ("dephasing", 1e-2))

# (work qubits, gates) of the cli-unary circuits; dimension 2^(K+L).  Chain
# cost depends on (K, L), not on the gates.  Two cheaper and two dearer
# circuits around four of one shape put the median op inside that shape, and
# that shape is 2^12: chains at 2^11 and below are mostly Python and JSON work,
# whose speed on a shared 2-core machine swung by up to 60% between runs.
CLI_MIX = ((1, 9), (2, 8), (2, 10), (2, 10), (2, 10), (2, 10), (3, 10), (3, 10))
CLI_MIX_TINY = ((1, 4), (1, 9))
CLI_SHOTS = 10**4
CLI_REPS = 4
CLI_NOISE = 0.01
ONE_QUBIT_GATES = ("H", "X", "Y", "Z", "S", "SDG", "T", "TDG")
TWO_QUBIT_GATES = ("CX", "CZ", "SWAP")

GAP_RTOL = 1e-8
ENERGY_ATOL = 1e-9
# Per-check false-failure probability of the Bernstein bound on mean E*.
CHECK_DELTA = 1e-9


def derive_seed(seed: int, index: int) -> int:
    """Measurement seed of op ``index``: 63 bits of sha256("seed:index")."""
    digest = hashlib.sha256(f"{int(seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def certify_polynomial(seed: int) -> iqp.IQPPolynomial:
    """The cubic monomial, two of the three quadratic and two of the three
    linear monomials, chosen by the seed.

    An op's cost follows the number of two-qubit gates (their terms are
    256x256, the others 128x128), so every seed gets the same count: 6 CX
    from the CCZ and 2 CZ, in a circuit of 23 gates.
    """
    rng = np.random.default_rng([int(seed), 1])
    pairs = [(1, 2), (1, 3), (2, 3)]
    quadratic = [pairs[i] for i in rng.choice(3, size=2, replace=False)]
    linear = [int(i) + 1 for i in rng.choice(3, size=2, replace=False)]
    return iqp.IQPPolynomial.make(IQP_VARS, [(1, 2, 3)], quadratic, linear)


def cli_circuits(seed: int, mix=CLI_MIX) -> list[circuits.CircuitProgram]:
    """One random circuit per (work qubits, gates) entry of ``mix``."""
    out = []
    for j, (k, length) in enumerate(mix):
        rng = np.random.default_rng([int(seed), j])
        ops = []
        for _ in range(length):
            if k > 1 and rng.integers(2):
                a, b = rng.choice(k, size=2, replace=False)
                ops.append(circuits.gate(TWO_QUBIT_GATES[rng.integers(len(TWO_QUBIT_GATES))],
                                         int(a), int(b)))
            else:
                ops.append(circuits.gate(ONE_QUBIT_GATES[rng.integers(len(ONE_QUBIT_GATES))],
                                         int(rng.integers(k))))
        out.append(circuits.CircuitProgram(k, tuple(ops)))
    return out


def bernstein_tolerance(variance: float, spread: float, samples: int) -> float:
    """Half-width t with P(|mean - expectation| >= t) <= CHECK_DELTA.

    The mean E* over k ops of m shots per term is a sum of independent
    single-shot outcomes x / samples, samples = k m.  ``variance`` is the sum
    over terms of the one-shot outcome variance and ``spread`` the largest
    term's eigenvalue range, so Bernstein's inequality gives
    t = sqrt(2 L variance / samples) + 2 L spread / (3 samples),
    L = ln(2 / CHECK_DELTA): about 6.5 standard errors plus a range term that
    matters only when few outcomes are nonzero.
    """
    lg = math.log(2.0 / CHECK_DELTA)
    return math.sqrt(2.0 * lg * variance / samples) + 2.0 * lg * spread / (3.0 * samples)


@dataclass
class OpResult:
    index: int
    latency: float  # seconds, as measured
    scaled: float  # seconds at the speed probe's reference speed
    outcome: dict | None
    error: str | None


class CertifyWorkload:
    cycle_len = len(CERTIFY_NOISE) + 1

    def __init__(self, name: str, seed: int, shots: int, trace_cycles: int,
                 setup_repeats: int):
        self.name = name
        self.seed = seed
        self.shots = shots
        self.trace_cycles = trace_cycles
        self.setup_repeats = setup_repeats

    def setup(self) -> None:
        poly = certify_polynomial(self.seed)
        encoded = circuits.decompose_ccz(iqp.encode_iqp(poly))
        inst = supremacy.build_instance(poly, PADDED_LENGTH - encoded.length)
        h = inst.hamiltonian
        if h.system.dim != CERTIFY_DIM:
            raise RuntimeError(f"instance dimension {h.system.dim}, expected {CERTIFY_DIM}")
        ideal = supremacy.history_preparation(inst)
        noisy = [states.apply_noise(ideal, states.NoiseSpec(kind, p)) for kind, p in CERTIFY_NOISE]
        planned = certification.plan(F_THRESHOLD, ALPHA, EPSILON, inst.summary,
                                     h.n_terms, h.interaction_strength)
        self.inst = inst
        self.preps = [ideal, *noisy]
        self.planned_m = planned.shots_per_term
        self.plan = dataclasses.replace(planned,
                                        shots_per_term=min(self.shots, planned.shots_per_term))

    def op(self, i: int, tracer):
        return certification.certify(self.inst.hamiltonian, self.inst.summary,
                                     self.preps[i % self.cycle_len], self.plan,
                                     derive_seed(self.seed, i))

    def observe(self, i: int, report) -> dict:
        return {"prep": i % self.cycle_len, "verdict": report.verdict,
                "e_star_raw": float(report.e_star_raw)}

    def check(self, results: list[OpResult]) -> set[int]:
        """Ideal: accepted every time.  Noisy: mean E* within a Bernstein bound
        of the dense Tr(H rho); if it is not, every op on that preparation fails."""
        h = self.inst.hamiltonian
        failed = {r.index for r in results if r.error is not None}
        done = [r for r in results if r.error is None]
        failed |= {r.index for r in done if r.outcome["prep"] == 0
                   and r.outcome["verdict"] != "accept"}
        dense_h = operators.assemble(h).toarray()
        embedded = [operators.embed_term(h.system, t) for t in h.terms]
        spread = max(float(np.ptp(np.linalg.eigvalsh(t.matrix))) for t in h.terms)
        m = self.plan.shots_per_term
        for p in range(1, self.cycle_len):
            mine = [r for r in done if r.outcome["prep"] == p]
            if not mine:
                continue
            rho = self.preps[p].to_dense()
            rho_t = rho.T
            expected = float(np.real(np.sum(dense_h * rho_t)))
            variance = 0.0
            for t in embedded:
                first = float(np.real(t.multiply(rho_t).sum()))
                second = float(np.real((t @ t).multiply(rho_t).sum()))
                variance += max(second - first**2, 0.0)
            # the mean over ops of the per-term shot means: len(mine) * m draws per term
            mean = float(np.mean([r.outcome["e_star_raw"] for r in mine]))
            tol = bernstein_tolerance(variance, spread, len(mine) * m)
            if abs(mean - expected) > tol:
                failed |= {r.index for r in mine}
        return failed

    def info(self) -> dict:
        h = self.inst.hamiltonian
        return {"dimension": h.system.dim, "terms": h.n_terms,
                "m": self.plan.shots_per_term, "planned_m": self.planned_m,
                "m_capped": self.plan.shots_per_term < self.planned_m,
                "gap": self.inst.summary.gap,
                "preparations": ["ideal"] + [f"{k} {p}" for k, p in CERTIFY_NOISE]}


class CliUnaryWorkload:
    def __init__(self, name: str, seed: int, mix, trace_cycles: int, setup_repeats: int,
                 workdir: Path):
        self.name = name
        self.seed = seed
        self.mix = mix
        self.cycle_len = len(mix)
        self.trace_cycles = trace_cycles
        self.setup_repeats = setup_repeats
        self.workdir = workdir
        self.planned_m: dict[int, int] = {}

    def _path(self, j: int, kind: str) -> str:
        return str(self.workdir / f"c{j}.{kind}.json")

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.circuits = cli_circuits(self.seed, self.mix)
        for j, c in enumerate(self.circuits):
            psi = clock.history_state(c, "unary")
            ideal = {"kind": "pure", "amplitudes": io.pairs_from_vector(psi.amplitudes),
                     "label": "ideal"}
            noisy = {"kind": "noisy_pure", "base": ideal, "label": "depolarized",
                     "channel": {"name": "depolarizing", "p": CLI_NOISE}}
            for kind, doc in (("circuit", io.circuit_to_dict(c)), ("ideal", ideal),
                              ("noisy", noisy)):
                with open(self._path(j, kind), "w") as fh:
                    fh.write(io.dumps(doc))

    def _step(self, tracer, step: str, argv: list[str]) -> None:
        with maybe_span(tracer, f"cli.{step}"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{step} exited with {code}")

    def op(self, i: int, tracer):
        j = i % self.cycle_len
        p = functools.partial(self._path, j)
        seed = str(derive_seed(self.seed, i))
        self._step(tracer, "ham_build", ["ham", "build", "--circuit", p("circuit"),
                                         "--encoding", "unary", "-o", p("ham")])
        self._step(tracer, "ham_analyze", ["ham", "analyze", "--ham", p("ham"),
                                           "-o", p("analysis")])
        self._step(tracer, "ham_verify_ff", ["ham", "verify-ff", "--ham", p("ham"),
                                             "-o", p("verdict")])
        self._step(tracer, "certify_plan",
                   ["certify", "plan", "--ft", str(F_THRESHOLD), "--alpha", str(ALPHA),
                    "--eps", str(EPSILON), "--ham", p("ham"), "-o", p("plan")])
        # The planned m (billions) is beyond what the sampler can draw: run on a capped copy.
        with open(p("plan")) as fh:
            plan = json.load(fh)
        plan["shots_per_term"] = min(CLI_SHOTS, plan["shots_per_term"])
        with open(p("plan-capped"), "w") as fh:
            json.dump(plan, fh, indent=2, sort_keys=True)
        self._step(tracer, "certify_run",
                   ["certify", "run", "--ham", p("ham"), "--state", p("ideal"),
                    "--plan", p("plan-capped"), "--seed", seed, "-o", p("report")])
        self._step(tracer, "certify_montecarlo",
                   ["certify", "montecarlo", "--ham", p("ham"), "--state", p("noisy"),
                    "--plan", p("plan-capped"), "--seed", seed, "--reps", str(CLI_REPS),
                    "--threads", "1", "-o", p("montecarlo")])

    def observe(self, i: int, _unused) -> dict:
        j = i % self.cycle_len

        def load(kind):
            with open(self._path(j, kind)) as fh:
                return json.load(fh)

        analysis, verdict = load("analysis"), load("verdict")
        report, mc = load("report"), load("montecarlo")
        self.planned_m[j] = int(load("plan")["shots_per_term"])
        return {"circuit": j, "gap": analysis["gap"],
                "ground_energy": analysis["ground_energy"],
                "frustration_free": verdict["frustration_free"],
                "verdict": report["verdict"], "e_star": report["E_star"],
                "mc_accepts": mc["accepts"]}

    def reference_gaps(self) -> list[float]:
        """Dense gap of the compact-clock Hamiltonian of each circuit (at most 96-dim)."""
        return [operators.analyze(clock.build_feynman_kitaev(c, "compact")).gap
                for c in self.circuits]

    def check(self, results: list[OpResult]) -> set[int]:
        refs = self.reference_gaps()
        failed = set()
        for r in results:
            o = r.outcome
            ok = r.error is None and (
                abs(o["gap"] - refs[o["circuit"]]) <= GAP_RTOL * abs(refs[o["circuit"]])
                and abs(o["ground_energy"]) <= ENERGY_ATOL
                and o["frustration_free"] is True
                and o["verdict"] == "accept" and o["e_star"] <= ENERGY_ATOL
                and o["mc_accepts"] == 0)
            if not ok:
                failed.add(r.index)
        return failed

    def info(self) -> dict:
        hams = [io.hamiltonian_from_dict(io.load_json(self._path(j, "ham")))
                for j in range(self.cycle_len)]
        return {"dimension": [h.system.dim for h in hams],
                "terms": [h.n_terms for h in hams],
                "m": CLI_SHOTS,
                "planned_m": [self.planned_m.get(j) for j in range(self.cycle_len)],
                "m_capped": any(m is not None and m > CLI_SHOTS
                                for m in self.planned_m.values()),
                "circuits": [list(spec) for spec in self.mix]}


WORKLOADS = ("certify-m1e4", "certify-m1e6", "cli-unary")


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it to one quick cycle for self-tests."""
    repeats = 1 if tiny else 9
    if name in ("certify-m1e4", "certify-m1e6"):
        shots = 100 if tiny else {"certify-m1e4": 10**4, "certify-m1e6": 10**6}[name]
        cycles = 1 if tiny else {"certify-m1e4": 10, "certify-m1e6": 2}[name]
        return CertifyWorkload(name, seed, shots, cycles, repeats)
    if name == "cli-unary":
        return CliUnaryWorkload(name, seed, CLI_MIX_TINY if tiny else CLI_MIX, 1, repeats,
                                workdir / name)
    raise KeyError(name)
