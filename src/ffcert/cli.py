"""Command-line front end.

Subcommands mirror the library layers: ``ham`` (build/analyze/verify-ff),
``circuit compile``, ``certify`` (plan/run/montecarlo), ``iqp``
(gen/gap/encode/supremacy) and ``sample``.  Every run emits a JSON document
that echoes its own configuration, so reports regenerate byte-identically
from the echo.  Exit codes: 0 success, 1 domain error (JSON on stderr),
2 usage error (JSON on stderr for out-of-range counts and thread settings).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import certification, io, iqp, operators, sampling, supremacy
from .circuits import decompose_ccz, pad_identities
from .clock import build_feynman_kitaev
from .errors import FFCertError
from .rand import RNG_ID, SEED_DERIVATION_ID, derive_seed

THREADS_ENV = "FFCERT_THREADS"


class UsageError(Exception):
    """Bad command-line input; reported as JSON on stderr with exit code 2."""


def _positive_int(text: str, name: str) -> int:
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be an integer, got {text!r}") from None
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    return value


def _positive(flag: str):
    """argparse ``type`` for a flag that takes a positive integer."""
    return functools.partial(_positive_int, name=flag)


def _thread_count(args) -> int:
    if args.threads is not None:
        return args.threads
    return _positive_int(os.environ.get(THREADS_ENV, "1"), THREADS_ENV)


def _emit(doc: dict, out: str | None) -> None:
    text = io.dumps(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_ham(path: str, budget: int | None):
    return io.hamiltonian_from_dict(io.load_json(path), budget=budget)


def _echo(args, fields: list[str]) -> dict:
    return {f: getattr(args, f.replace("-", "_")) for f in fields}


# ---------------------------------------------------------------------------
# ham
# ---------------------------------------------------------------------------

def cmd_ham_build(args) -> int:
    circuit = io.circuit_from_dict(io.load_json(args.circuit))
    if args.pad:
        circuit = pad_identities(circuit, args.pad)
    h = build_feynman_kitaev(circuit, args.encoding,
                             penalty_weights=(args.w_in, args.w_up, args.w_clk),
                             budget=args.budget)
    doc = io.hamiltonian_to_dict(h)
    doc["config"] = _echo(args, ["circuit", "encoding", "pad", "w_in", "w_up", "w_clk"])
    if h.notes:
        doc["notes"] = list(h.notes)
    _emit(doc, args.out)
    return 0


def cmd_ham_analyze(args) -> int:
    h = _load_ham(args.ham, args.budget)
    summary = operators.analyze(h, degeneracy_tol=args.degeneracy_tol)
    doc = io.summary_to_dict(summary)
    doc["config"] = _echo(args, ["ham", "degeneracy_tol"])
    _emit(doc, args.out)
    return 0


def cmd_ham_verify_ff(args) -> int:
    h = _load_ham(args.ham, args.budget)
    summary = operators.analyze(h)
    verdict = operators.verify_frustration_free(h, summary, tol=args.tol)
    doc = io.verdict_to_dict(verdict)
    doc["config"] = _echo(args, ["ham", "tol"])
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# circuit
# ---------------------------------------------------------------------------

def cmd_circuit_compile(args) -> int:
    circuit = io.circuit_from_dict(io.load_json(args.circuit))
    compiled = decompose_ccz(circuit)
    if args.pad:
        compiled = pad_identities(compiled, args.pad)
    doc = io.circuit_to_dict(compiled)
    doc["config"] = _echo(args, ["circuit", "pad"])
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _plan_from_args(args, h) -> certification.CertificationPlan:
    if args.gap is not None:
        summary = operators.analyze(h)
        summary = certification.supplied_gap_summary(summary, args.gap, args.norm)
        return certification.plan(args.ft, args.alpha, args.eps, summary,
                                  h.n_terms, h.interaction_strength,
                                  gap_source="supplied")
    summary = operators.analyze(h)
    return certification.plan(args.ft, args.alpha, args.eps, summary,
                              h.n_terms, h.interaction_strength)


def cmd_certify_plan(args) -> int:
    h = _load_ham(args.ham, args.budget)
    cert_plan = _plan_from_args(args, h)
    doc = io.plan_to_dict(cert_plan)
    doc["config"] = _echo(args, ["ham", "ft", "alpha", "eps", "gap", "norm"])
    _emit(doc, args.out)
    return 0


def cmd_certify_run(args) -> int:
    h = _load_ham(args.ham, args.budget)
    summary = operators.analyze(h)
    cert_plan = io.plan_from_dict(io.load_json(args.plan))
    rho = io.state_from_dict(io.load_json(args.state))
    report = certification.certify(h, summary, rho, cert_plan, args.seed)
    doc = io.report_to_dict(report)
    doc["config"] = _echo(args, ["ham", "state", "plan", "seed"])
    _emit(doc, args.out)
    return 0


def _wilson_interval(k: int, n: int, z: float = 2.576) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def cmd_certify_montecarlo(args) -> int:
    h = _load_ham(args.ham, args.budget)
    summary = operators.analyze(h)
    cert_plan = io.plan_from_dict(io.load_json(args.plan))
    rho = io.state_from_dict(io.load_json(args.state))

    def one(i: int):
        return certification.certify(h, summary, rho, cert_plan, derive_seed(args.seed, i))

    with ThreadPoolExecutor(max_workers=_thread_count(args)) as pool:
        reports = list(pool.map(one, range(args.reps)))

    accepts = sum(r.accepted for r in reports)
    lo, hi = _wilson_interval(accepts, args.reps)
    doc = {
        "repetitions": args.reps,
        "accepts": accepts,
        "rejects": args.reps - accepts,
        "accept_rate": accepts / args.reps,
        "accept_rate_ci99": [lo, hi],
        "seed_derivation": SEED_DERIVATION_ID,
        "rng": RNG_ID,
        "plan": io.plan_to_dict(cert_plan),
        "config": _echo(args, ["ham", "state", "plan", "seed", "reps"]),
    }
    _emit(doc, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("repetition,seed,E_star,F_min_star,verdict\n")
            for i, r in enumerate(reports):
                fh.write(f"{i},{r.seed},{r.e_star!r},{r.f_min_star!r},{r.verdict}\n")
    return 0


# ---------------------------------------------------------------------------
# iqp
# ---------------------------------------------------------------------------

def cmd_iqp_gen(args) -> int:
    poly = iqp.random_polynomial(args.n, args.seed)
    text = iqp.format_polynomial(poly)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_poly(path: str) -> iqp.IQPPolynomial:
    with open(path) as fh:
        return iqp.parse_polynomial(fh.read())


def cmd_iqp_gap(args) -> int:
    value = iqp.ngap(_load_poly(args.poly))
    sys.stdout.write(f"{value!r}\n")
    return 0


def cmd_iqp_encode(args) -> int:
    circuit = iqp.encode_iqp(_load_poly(args.poly))
    doc = io.circuit_to_dict(circuit)
    doc["config"] = _echo(args, ["poly"])
    _emit(doc, args.out)
    return 0


def cmd_iqp_supremacy(args) -> int:
    poly = _load_poly(args.poly)
    padding = args.pad if args.pad is not None else _default_padding(poly)
    inst = supremacy.build_instance(poly, padding, budget=args.budget)
    cert_plan = certification.plan(args.ft, args.alpha, args.eps, inst.summary,
                                   inst.hamiltonian.n_terms,
                                   inst.hamiltonian.interaction_strength)
    shots_capped = False
    if args.max_shots is not None and cert_plan.shots_per_term > args.max_shots:
        # desk-scale escape hatch: the statistical guarantee no longer holds
        cert_plan = dataclasses.replace(cert_plan, shots_per_term=args.max_shots)
        shots_capped = True
    rho = (io.state_from_dict(io.load_json(args.state)) if args.state
           else supremacy.history_preparation(inst))
    outcome = supremacy.run_procedure(inst, rho, cert_plan, args.seed, args.shots)
    doc = {
        "n_vars": poly.n_vars,
        "ngap": iqp.ngap(poly),
        "completed_weight": inst.completed_weight,
        "completed_from": inst.completed_from,
        "circuit_length": inst.circuit.length,
        "branch": outcome.branch,
        "shots_capped": shots_capped,
        "plan": io.plan_to_dict(cert_plan),
        "rng": RNG_ID,
        "config": _echo(args, ["poly", "ft", "alpha", "eps", "seed", "shots", "pad",
                               "state", "max_shots"]),
    }
    if outcome.report is not None:
        doc["report"] = io.report_to_dict(outcome.report)
    if outcome.budget is not None:
        doc["budget"] = io.ledger_to_dict(outcome.budget)
    if outcome.samples is not None:
        doc["samples"] = [int(z) for z in outcome.samples]
        doc["completed_prob"] = outcome.completed_prob
        doc["retries_max"] = int(outcome.retries.max())
    _emit(doc, args.out)
    return 0


def _default_padding(poly: iqp.IQPPolynomial) -> int:
    return decompose_ccz(iqp.encode_iqp(poly)).length


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    h = _load_ham(args.ham, args.budget)
    rho = io.state_from_dict(io.load_json(args.state))
    records = sampling.sample_hamiltonian(rho, h, args.shots, args.seed)
    text = io.records_to_csv(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="dimension cap override (default 2^20)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffcert",
        description="certify frustration-free ground-state preparations",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ham = sub.add_parser("ham", help="Hamiltonian files").add_subparsers(
        dest="subcommand", required=True)
    b = ham.add_parser("build", help="compile a circuit file into a clock Hamiltonian")
    b.add_argument("--circuit", required=True)
    b.add_argument("--encoding", choices=["compact", "unary"], default="compact")
    b.add_argument("--pad", type=int, default=0)
    b.add_argument("--w-in", type=float, default=1.0, dest="w_in")
    b.add_argument("--w-up", type=float, default=1.0, dest="w_up")
    b.add_argument("--w-clk", type=float, default=1.0, dest="w_clk")
    b.add_argument("-o", "--out")
    _add_budget(b)
    b.set_defaults(func=cmd_ham_build)

    a = ham.add_parser("analyze", help="ground energy, gap, norm, ground space")
    a.add_argument("--ham", required=True)
    a.add_argument("--degeneracy-tol", type=float, default=None, dest="degeneracy_tol")
    a.add_argument("-o", "--out")
    _add_budget(a)
    a.set_defaults(func=cmd_ham_analyze)

    vf = ham.add_parser("verify-ff", help="check termwise ground-space annihilation")
    vf.add_argument("--ham", required=True)
    vf.add_argument("--tol", type=float, default=1e-8)
    vf.add_argument("-o", "--out")
    _add_budget(vf)
    vf.set_defaults(func=cmd_ham_verify_ff)

    circ = sub.add_parser("circuit", help="circuit files").add_subparsers(
        dest="subcommand", required=True)
    cc = circ.add_parser("compile", help="decompose CCZ gates, optionally pad identities")
    cc.add_argument("--circuit", required=True)
    cc.add_argument("--pad", type=int, default=0)
    cc.add_argument("-o", "--out")
    cc.set_defaults(func=cmd_circuit_compile)

    cert = sub.add_parser("certify", help="weak-membership certification").add_subparsers(
        dest="subcommand", required=True)
    cp = cert.add_parser("plan", help="shot count and fidelity gap for given thresholds")
    cp.add_argument("--ft", type=float, required=True)
    cp.add_argument("--alpha", type=float, required=True)
    cp.add_argument("--eps", type=float, required=True)
    cp.add_argument("--ham", required=True)
    cp.add_argument("--gap", type=float, default=None,
                    help="externally supplied gap (skips trusting the solver)")
    cp.add_argument("--norm", type=float, default=None)
    cp.add_argument("-o", "--out")
    _add_budget(cp)
    cp.set_defaults(func=cmd_certify_plan)

    cr = cert.add_parser("run", help="one certification run")
    cr.add_argument("--ham", required=True)
    cr.add_argument("--state", required=True)
    cr.add_argument("--plan", required=True)
    cr.add_argument("--seed", type=int, required=True)
    cr.add_argument("-o", "--out")
    _add_budget(cr)
    cr.set_defaults(func=cmd_certify_run)

    cm = cert.add_parser("montecarlo", help="repeated certification with derived seeds")
    cm.add_argument("--ham", required=True)
    cm.add_argument("--state", required=True)
    cm.add_argument("--plan", required=True)
    cm.add_argument("--seed", type=int, required=True)
    cm.add_argument("--reps", type=_positive("--reps"), required=True)
    cm.add_argument("--threads", type=_positive("--threads"), default=None)
    cm.add_argument("--csv", default=None)
    cm.add_argument("-o", "--out")
    _add_budget(cm)
    cm.set_defaults(func=cmd_certify_montecarlo)

    iqp_p = sub.add_parser("iqp", help="degree-3 polynomials and IQP circuits").add_subparsers(
        dest="subcommand", required=True)
    ig = iqp_p.add_parser("gen", help="random polynomial")
    ig.add_argument("--n", type=int, required=True)
    ig.add_argument("--seed", type=int, required=True)
    ig.add_argument("-o", "--out")
    ig.set_defaults(func=cmd_iqp_gen)

    igap = iqp_p.add_parser("gap", help="normalized gap by enumeration")
    igap.add_argument("--poly", required=True)
    igap.set_defaults(func=cmd_iqp_gap)

    ienc = iqp_p.add_parser("encode", help="polynomial to Hadamard-sandwich circuit")
    ienc.add_argument("--poly", required=True)
    ienc.add_argument("-o", "--out")
    ienc.set_defaults(func=cmd_iqp_encode)

    isup = iqp_p.add_parser("supremacy", help="coin-flip certify-or-sample pipeline")
    isup.add_argument("--poly", required=True)
    isup.add_argument("--ft", type=float, required=True)
    isup.add_argument("--alpha", type=float, required=True)
    isup.add_argument("--eps", type=float, required=True)
    isup.add_argument("--seed", type=int, required=True)
    isup.add_argument("--shots", type=_positive("--shots"), default=1000)
    isup.add_argument("--pad", type=int, default=None,
                      help="identity padding (default: circuit length)")
    isup.add_argument("--max-shots", type=_positive("--max-shots"), default=None,
                      dest="max_shots",
                      help="cap the per-term shot count (voids the certification guarantee)")
    isup.add_argument("--state", default=None,
                      help="prepared-state file (default: ideal history state)")
    isup.add_argument("-o", "--out")
    _add_budget(isup)
    isup.set_defaults(func=cmd_iqp_supremacy)

    sm = sub.add_parser("sample", help="measurement records for every term, as CSV")
    sm.add_argument("--ham", required=True)
    sm.add_argument("--state", required=True)
    sm.add_argument("--shots", type=_positive("--shots"), required=True)
    sm.add_argument("--seed", type=int, required=True)
    sm.add_argument("-o", "--out")
    _add_budget(sm)
    sm.set_defaults(func=cmd_sample)

    return top


def _report_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _report_error(exc)
        return 2
    except (FFCertError, OSError, json.JSONDecodeError, KeyError) as exc:
        _report_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
