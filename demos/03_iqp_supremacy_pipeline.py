"""Certify-or-sample pipeline for an IQP circuit encoded in a ground state.

A random degree-3 polynomial over F2 becomes a Hadamard-sandwich circuit whose
0...0 amplitude is the normalized gap of the polynomial; the compiled clock
Hamiltonian carries the circuit output in its ground state.  A fair coin picks
between certifying the preparation and sampling its projected output, and the
certified trace-norm bound is chased through the 2/c projection contraction
against the 1/192 hardness threshold.
"""
import numpy as np

import ffcert as fc
from ffcert.supremacy import history_preparation

rng_seed = 11
poly = fc.random_polynomial(3, rng_seed)
print("=== Instance ===")
print(f"polynomial: {len(poly.cubic)} cubic, {len(poly.quadratic)} quadratic, "
      f"{len(poly.linear)} linear monomials on {poly.n_vars} variables")
print(f"ngap(f) = {fc.ngap(poly)}")

encoded = fc.decompose_ccz(fc.encode_iqp(poly))
inst = fc.build_instance(poly, padding=encoded.length)
print(f"compiled length L = {inst.circuit.length} (computation ends at "
      f"{inst.completed_from}), Hilbert dimension {inst.hamiltonian.system.dim}")
print(f"completed weight c = {inst.completed_weight:.4f}, gap = {inst.summary.gap:.5f}")

dist = fc.exact_output_distribution(poly)
print(f"p(0...0) = {dist[0]:.6f} = ngap^2 = {fc.ngap(poly) ** 2:.6f}")

cert_plan = fc.plan(0.9, 0.05, 0.05, inst.summary, inst.hamiltonian.n_terms,
                    inst.hamiltonian.interaction_strength)
print(f"\nfull-rigor shot count m = {cert_plan.shots_per_term:.3e} per term "
      "(one multinomial count draw per term, so no cap is needed)")

rho = history_preparation(inst)
print("\n=== Coin-flip runs on the ideal preparation ===")
for seed in range(6):
    out = fc.run_procedure(inst, rho, cert_plan, coin_seed=seed, shots=4000)
    if out.branch == "certify":
        r = out.report
        print(f"seed {seed}: certify -> {r.verdict}, E* = {r.e_star:.4f}, "
              f"F*_min = {r.f_min_star:.4f}")
        if out.budget:
            b = out.budget
            print(f"         budget: (2/c) * {b.epsilon_prep:.4f} = {b.post_bound:.4f} "
                  f"vs 1/192 = {b.threshold:.5f} -> "
                  f"{'PASS' if b.passed else 'FAIL'}")
    else:
        counts = np.bincount(out.samples, minlength=dist.size) / len(out.samples)
        tv = 0.5 * np.sum(np.abs(counts - dist))
        print(f"seed {seed}: sample -> {len(out.samples)} Z-basis samples, "
              f"TV to ideal {tv:.4f}, projection success {out.completed_prob:.3f}")

print("\n=== Error-budget arithmetic ===")
for eps_prep in (0.0, 1e-3, 1 / 192):
    lg = fc.ledger(eps_prep, inst.completed_weight)
    print(f"||rho_0 - rho_p||_1 <= {eps_prep:.4e}: post-projection bound "
          f"{lg.post_bound:.4e} -> {'below' if lg.passed else 'ABOVE'} 1/192")

# The certificate bounds the trace norm by 2*sqrt(1 - (F*_min - eps)), so even a
# perfect preparation needs eps < (c/768)^2 before the budget clears: hardness
# asks for constant accuracy, but energy certification delivers it only at
# inverse-polynomial precision.
eps_needed = (inst.completed_weight / 768) ** 2
print(f"\nclearing 1/192 through the certificate needs eps < {eps_needed:.2e} "
      f"(demo used eps = {cert_plan.epsilon})")
