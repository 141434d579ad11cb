import json

import numpy as np
import pytest

import ffcert as fc
from ffcert import io
from ffcert.cli import main
from helpers import random_pure, random_unitary, three_qubit_fixture


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_hamiltonian_roundtrip():
    h, _ = three_qubit_fixture()
    doc = io.hamiltonian_to_dict(h)
    again = io.hamiltonian_from_dict(json.loads(json.dumps(doc)))
    assert again.system == h.system
    assert again.energy_offset == h.energy_offset
    for a, b in zip(again.terms, h.terms):
        assert a.support == b.support
        assert np.array_equal(a.matrix, b.matrix)
    assert io.hamiltonian_to_dict(again) == doc


def test_state_roundtrip_pure_dense_noisy():
    rng = np.random.default_rng(0)
    psi = random_pure(rng, 4)
    pure_doc = {"kind": "pure", "amplitudes": io.pairs_from_vector(psi), "label": "x"}
    st = io.state_from_dict(json.loads(json.dumps(pure_doc)))
    assert io.state_to_dict(st) == pure_doc
    assert st.overlap_with_pure(psi) == pytest.approx(1.0, abs=1e-12)

    noisy_doc = {"kind": "noisy_pure", "base": pure_doc,
                 "channel": {"name": "depolarizing", "p": 0.25}}
    st2 = io.state_from_dict(json.loads(json.dumps(noisy_doc)))
    assert io.state_to_dict(st2) == noisy_doc
    assert st2.overlap_with_pure(psi) == pytest.approx(0.75 + 0.25 / 4, abs=1e-12)

    rho = st2.to_dense()
    dense_doc = {"kind": "dense", "rho": io.pairs_from_matrix(rho), "label": ""}
    st3 = io.state_from_dict(json.loads(json.dumps(dense_doc)))
    assert np.max(np.abs(st3.to_dense() - rho)) <= 1e-12
    assert io.state_to_dict(st3) == dense_doc


def test_circuit_roundtrip_with_matrix_gate():
    rng = np.random.default_rng(1)
    c = fc.CircuitProgram(3, (fc.gate("H", 0), fc.GateOp((1, 2), random_unitary(rng, 4)),
                              fc.gate("CCZ", 0, 1, 2)))
    doc = io.circuit_to_dict(c)
    again = io.circuit_from_dict(json.loads(json.dumps(doc)))
    assert io.circuit_to_dict(again) == doc
    assert np.max(np.abs(fc.statevector(again) - fc.statevector(c))) <= 1e-12


def test_circuit_roundtrip_basis_input():
    v = np.zeros(4, dtype=complex)
    v[0b10] = 1.0
    c = fc.CircuitProgram(2, (fc.gate("I", 0),), input_state=v)
    doc = io.circuit_to_dict(c)
    assert doc["input"] == "10"
    again = io.circuit_from_dict(doc)
    assert again.basis_input_bits() == (1, 0)


def test_plan_report_summary_roundtrip(fixture_3q):
    h, s = fixture_3q
    cert_plan = fc.plan_for(h, s, 0.8, 0.1, 0.05)
    assert io.plan_from_dict(json.loads(json.dumps(io.plan_to_dict(cert_plan)))) == cert_plan

    rho = fc.PreparedState.from_pure(s.ground_vector())
    report = fc.certify(h, s, rho, cert_plan, seed=3)
    rdoc = io.report_to_dict(report)
    assert io.report_from_dict(json.loads(json.dumps(rdoc))) == report

    sdoc = io.summary_to_dict(s)
    s2 = io.summary_from_dict(json.loads(json.dumps(sdoc)))
    assert s2.gap == s.gap and s2.norm == s.norm
    assert np.max(np.abs(s2.ground_basis - s.ground_basis)) == 0.0


def test_records_csv_roundtrip(fixture_3q):
    h, s = fixture_3q
    rho = fc.PreparedState.maximally_mixed(8)
    records = fc.sample_hamiltonian(rho, h, shots=20, seed=5)
    text = io.records_to_csv(records)
    assert text.splitlines()[0] == "term_index,shot_index,outcome"
    assert io.records_from_csv(text) == records


def test_float_serialization_is_lossless():
    values = [1 / 3, 0.1, 2**-52, 1e300, 14654.826116724043]
    assert json.loads(json.dumps(values)) == values


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def workdir(tmp_path):
    h, s = three_qubit_fixture()
    ham = tmp_path / "fixture.json"
    ham.write_text(io.dumps(io.hamiltonian_to_dict(h)))
    state = tmp_path / "state.json"
    state.write_text(io.dumps({
        "kind": "noisy_pure",
        "base": {"kind": "pure", "amplitudes": io.pairs_from_vector(s.ground_vector()),
                 "label": "gs"},
        "channel": {"name": "depolarizing", "p": 0.1},
    }))
    return tmp_path, ham, state


def test_cli_ham_analyze_and_verify(workdir, capsys):
    _, ham, _ = workdir
    assert main(["ham", "analyze", "--ham", str(ham)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(1.0)
    assert doc["unique_ground"] is True

    assert main(["ham", "verify-ff", "--ham", str(ham)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frustration_free"] is True


def test_cli_certify_plan_run_montecarlo(workdir, capsys):
    tmp, ham, state = workdir
    plan_file = tmp / "plan.json"
    assert main(["certify", "plan", "--ft", "0.8", "--alpha", "0.1", "--eps", "0.05",
                 "--ham", str(ham), "-o", str(plan_file)]) == 0
    plan_doc = json.loads(plan_file.read_text())
    assert plan_doc["shots_per_term"] >= 1
    assert plan_doc["gap_source"] == "computed"

    report_file = tmp / "report.json"
    assert main(["certify", "run", "--ham", str(ham), "--state", str(state),
                 "--plan", str(plan_file), "--seed", "7", "-o", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    assert report["verdict"] in ("accept", "reject")
    assert report["config"]["seed"] == 7
    assert report["rng"] == "philox4x64-multinomial"

    csv_file = tmp / "mc.csv"
    assert main(["certify", "montecarlo", "--ham", str(ham), "--state", str(state),
                 "--plan", str(plan_file), "--seed", "3", "--reps", "5",
                 "--csv", str(csv_file)]) == 0
    agg = json.loads(capsys.readouterr().out)
    assert agg["repetitions"] == 5
    assert agg["accepts"] + agg["rejects"] == 5
    assert 0.0 <= agg["accept_rate_ci99"][0] <= agg["accept_rate_ci99"][1] <= 1.0
    assert len(csv_file.read_text().splitlines()) == 6


def test_cli_montecarlo_single_rep_equals_single_run(workdir, capsys):
    tmp, ham, state = workdir
    plan_file = tmp / "plan.json"
    main(["certify", "plan", "--ft", "0.8", "--alpha", "0.1", "--eps", "0.05",
          "--ham", str(ham), "-o", str(plan_file)])
    from ffcert.rand import derive_seed
    rep_seed = derive_seed(9, 0)
    main(["certify", "run", "--ham", str(ham), "--state", str(state),
          "--plan", str(plan_file), "--seed", str(rep_seed)])
    single = json.loads(capsys.readouterr().out)
    main(["certify", "montecarlo", "--ham", str(ham), "--state", str(state),
          "--plan", str(plan_file), "--seed", "9", "--reps", "1"])
    agg = json.loads(capsys.readouterr().out)
    assert agg["accept_rate"] == (1.0 if single["verdict"] == "accept" else 0.0)


def test_cli_ham_build_and_circuit_compile(tmp_path, capsys):
    circ = tmp_path / "circ.json"
    circ.write_text(io.dumps({
        "qubits": 2, "input": "00",
        "gates": [{"name": "H", "targets": [0]}, {"name": "CX", "targets": [0, 1]}],
    }))
    out = tmp_path / "ham.json"
    assert main(["ham", "build", "--circuit", str(circ), "--encoding", "compact",
                 "-o", str(out)]) == 0
    h = io.hamiltonian_from_dict(json.loads(out.read_text()))
    s = fc.analyze(h)
    assert abs(s.ground_energy) <= 1e-10 and s.unique_ground

    ccz = tmp_path / "ccz.json"
    ccz.write_text(io.dumps({
        "qubits": 3, "input": "000", "gates": [{"name": "CCZ", "targets": [0, 1, 2]}],
    }))
    assert main(["circuit", "compile", "--circuit", str(ccz), "--pad", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(len(g["targets"]) <= 2 for g in doc["gates"])
    assert len(doc["gates"]) == 13 + 2


def test_cli_plan_matches_library_on_clock_hamiltonian(tmp_path, capsys):
    circuit = fc.CircuitProgram(1, (fc.gate("H", 0), fc.gate("I", 0)))
    h = fc.build_feynman_kitaev(circuit)
    fk = tmp_path / "fk.json"
    fk.write_text(io.dumps(io.hamiltonian_to_dict(h)))
    assert main(["certify", "plan", "--ft", "0.9", "--alpha", "0.05", "--eps", "0.05",
                 "--ham", str(fk)]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = fc.plan_for(h, fc.analyze(h), 0.9, 0.05, 0.05)
    assert doc["shots_per_term"] == expected.shots_per_term
    assert doc["fidelity_gap"] == expected.fidelity_gap


def test_cli_montecarlo_accept_and_reject_rates(workdir, capsys):
    tmp, ham, _ = workdir
    h = io.hamiltonian_from_dict(json.loads(ham.read_text()))
    s = fc.analyze(h)
    plan_file = tmp / "plan.json"
    main(["certify", "plan", "--ft", "0.8", "--alpha", "0.1", "--eps", "0.05",
          "--ham", str(ham), "-o", str(plan_file)])

    exact = tmp / "exact.json"
    exact.write_text(io.dumps({
        "kind": "pure", "amplitudes": io.pairs_from_vector(s.ground_vector()), "label": "gs",
    }))
    main(["certify", "montecarlo", "--ham", str(ham), "--state", str(exact),
          "--plan", str(plan_file), "--seed", "1", "--reps", "100"])
    agg = json.loads(capsys.readouterr().out)
    assert agg["accept_rate"] >= 0.9

    far = tmp / "far.json"
    far.write_text(io.dumps({
        "kind": "noisy_pure",
        "base": {"kind": "pure", "amplitudes": io.pairs_from_vector(s.ground_vector()),
                 "label": "gs"},
        "channel": {"name": "depolarizing", "p": 0.8},
    }))
    main(["certify", "montecarlo", "--ham", str(ham), "--state", str(far),
          "--plan", str(plan_file), "--seed", "2", "--reps", "100"])
    agg = json.loads(capsys.readouterr().out)
    assert agg["rejects"] / 100 >= 0.9


def test_cli_iqp_pipeline(tmp_path, capsys):
    poly = tmp_path / "f.txt"
    assert main(["iqp", "gen", "--n", "2", "--seed", "4", "-o", str(poly)]) == 0
    text = poly.read_text()
    assert text.startswith("n 2")

    assert main(["iqp", "gap", "--poly", str(poly)]) == 0
    gap_out = float(capsys.readouterr().out.strip())
    assert gap_out == fc.ngap(fc.parse_polynomial(text))

    assert main(["iqp", "encode", "--poly", str(poly)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["qubits"] == 2

    out = tmp_path / "sup.json"
    assert main(["iqp", "supremacy", "--poly", str(poly), "--ft", "0.8", "--alpha", "0.1",
                 "--eps", "0.05", "--seed", "11", "--shots", "64",
                 "--max-shots", "200", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["branch"] in ("certify", "sample")
    assert doc["shots_capped"] is True
    if doc["branch"] == "certify":
        assert "report" in doc and "budget" in doc
    else:
        assert len(doc["samples"]) == 64


def test_cli_iqp_gap_constant_zero(tmp_path, capsys):
    poly = tmp_path / "zero.txt"
    poly.write_text("n 3\n")
    assert main(["iqp", "gap", "--poly", str(poly)]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


def test_cli_sample_csv(workdir, capsys):
    _, ham, state = workdir
    assert main(["sample", "--ham", str(ham), "--state", str(state),
                 "--shots", "10", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    rows = text.strip().splitlines()
    assert rows[0] == "term_index,shot_index,outcome"
    assert len(rows) == 1 + 4 * 10


def test_cli_domain_error_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(io.dumps({
        "sites": [{"id": "q", "dim": 2}],
        "terms": [{"support": ["nope"], "matrix": [[[1.0, 0.0]]]}],
        "energy_offset": 0.0,
    }))
    assert main(["ham", "analyze", "--ham", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SupportMismatch"


def test_cli_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "plan", "--no-such-flag", "1"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def _montecarlo_argv(tmp, ham, state):
    plan_file = tmp / "plan.json"
    main(["certify", "plan", "--ft", "0.8", "--alpha", "0.1", "--eps", "0.05",
          "--ham", str(ham), "-o", str(plan_file)])
    return ["certify", "montecarlo", "--ham", str(ham), "--state", str(state),
            "--plan", str(plan_file), "--seed", "3"]


def _assert_usage_error(capsys, argv, name):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "UsageError"
    assert name in err["message"]


def test_cli_montecarlo_zero_reps_is_usage_error(workdir, capsys):
    argv = _montecarlo_argv(*workdir)
    _assert_usage_error(capsys, argv + ["--reps", "0"], "--reps")


def test_cli_montecarlo_negative_reps_is_usage_error(workdir, capsys):
    argv = _montecarlo_argv(*workdir)
    _assert_usage_error(capsys, argv + ["--reps", "-1"], "--reps")


@pytest.mark.parametrize("value", ["x", "1.5", "0", "-2"])
def test_cli_bad_threads_env_is_usage_error(workdir, capsys, monkeypatch, value):
    argv = _montecarlo_argv(*workdir)
    monkeypatch.setenv("FFCERT_THREADS", value)
    _assert_usage_error(capsys, argv + ["--reps", "2"], "FFCERT_THREADS")


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_cli_sample_nonpositive_shots_is_usage_error(workdir, capsys, shots):
    _, ham, state = workdir
    _assert_usage_error(capsys, ["sample", "--ham", str(ham), "--state", str(state),
                                 "--shots", shots, "--seed", "2"], "--shots")


def test_cli_reports_regenerate_byte_identically(workdir):
    tmp, ham, state = workdir
    plan_file = tmp / "plan.json"
    main(["certify", "plan", "--ft", "0.8", "--alpha", "0.1", "--eps", "0.05",
          "--ham", str(ham), "-o", str(plan_file)])
    r1, r2 = tmp / "r1.json", tmp / "r2.json"
    args = ["certify", "run", "--ham", str(ham), "--state", str(state),
            "--plan", str(plan_file), "--seed", "42"]
    main(args + ["-o", str(r1)])
    main(args + ["-o", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()
