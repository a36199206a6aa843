"""Command-line interface: output formats, values, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from qdemon import cli
from qdemon import engine as eng
from qdemon import qmatrix as qm
from qdemon.channel import report_to_json
from qdemon.cli import _recorded_flags, main
from qdemon.spin_demon import SpinDemonParams, scatter

LN2 = math.log(2)


def run_json(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, args):
    code = main(args)
    return code, capsys.readouterr().out


def test_channel_maximal_purification(capsys):
    code, doc = run_json(capsys, [
        "channel", "--theta", "0", "--eta", "3.141592653589793", "--phi", "0",
        "--input", "chaotic", "--demon", "up"])
    assert code == 0
    assert math.isclose(doc["entropy_gain"], -LN2, abs_tol=1e-9)
    assert doc["entropy_out"] < 1e-10
    assert math.isclose(doc["gamma_abs"], 1.0, abs_tol=1e-9)


def test_channel_superposition_demon_unital(capsys):
    code, doc = run_json(capsys, [
        "channel", "--theta", "0.3", "--eta", "1.0",
        "--demon", "superposition", "0.7071", "0.7071"])
    assert code == 0
    assert doc["gamma_abs"] <= 1e-12
    assert doc["unital"] is True


def test_channel_balanced_mixture(capsys):
    code, doc = run_json(capsys, [
        "channel", "--theta", "0", "--eta", "3.141592653589793",
        "--input", "chaotic", "--demon", "mixture", "0.5"])
    assert code == 0
    assert math.isclose(doc["entropy_out"], LN2, abs_tol=1e-10)


def normalised_outer(a, b):
    v = np.array([a, b])
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


#: ``--input`` kind: (extra flags, the input state expected from them)
CHANNEL_INPUTS = {
    "chaotic": ([], np.eye(2, dtype=complex) / 2.0),
    "up": ([], np.diag([1.0, 0.0]).astype(complex)),
    "down": ([], np.diag([0.0, 1.0]).astype(complex)),
    "pure": (["--amplitudes", "0.3", "-1.2", "2.5", "0.7"],
             normalised_outer(complex(0.3, -1.2), complex(2.5, 0.7))),
}

#: ``--demon`` spec: the demon state expected from it
CHANNEL_DEMONS = {
    ("up",): np.diag([1.0, 0.0]).astype(complex),
    ("mixture", "0.25"): np.diag([0.25, 0.75]).astype(complex),
    ("superposition", "1", "-2.5"): normalised_outer(1 + 0j, -2.5 + 0j),
}


@pytest.mark.parametrize("demon", list(CHANNEL_DEMONS))
@pytest.mark.parametrize("kind", list(CHANNEL_INPUTS))
def test_channel_report_matches_library_on_expected_states(capsys, kind, demon):
    extra, rho_in = CHANNEL_INPUTS[kind]
    code, doc = run_json(capsys, [
        "channel", "--input", kind, *extra, "--demon", *demon, "--theta", "0.4",
        "--eta", "2.1", "--phi", "-0.7", "--alpha", "1.3", "--beta-phase", "0.2"])
    assert code == 0
    params = SpinDemonParams(theta=0.4, eta=2.1, phi=-0.7, alpha=1.3, beta_phase=0.2)
    want = report_to_json(scatter(rho_in, CHANNEL_DEMONS[demon], params))
    assert doc.pop("entropy_in") == qm.von_neumann_entropy(rho_in)
    doc.pop("flags_cli")
    assert doc == json.loads(json.dumps(want))


def test_channel_bad_demon_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["channel", "--demon", "mixture", "1.5"])
    assert err.value.code == 2


def test_invalid_state_exits_2_with_its_message(capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise qm.InvalidStateError("density matrix is not Hermitian")

    monkeypatch.setattr(cli, "scatter", reject)
    with pytest.raises(SystemExit) as err:
        main(["channel"])
    assert err.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("error: density matrix is not Hermitian")


def test_channel_decomposes_five_times(capsys, monkeypatch):
    # the demon's validation, apply_channel's three, and the input's entropy:
    # the JSON's entropy_out is the report's, not a sixth decomposition
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    code, doc = run_json(capsys, ["channel", "--theta", "0.3", "--eta", "1.1",
                                  "--input", "up", "--demon", "mixture", "0.8"])
    assert code == 0 and len(calls) == 5
    assert doc["entropy_out"] == qm.von_neumann_entropy(
        np.array([complex(re, im) for re, im in doc["rho_out"]["entries"]]).reshape(2, 2))


def test_gates_ud_json(capsys):
    code, doc = run_json(capsys, ["gates", "--which", "UD"])
    assert code == 0
    entries = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(4, 4)
    printed = 0.5 * np.array([[1, -1, -1, 1], [1, 1, 1, 1],
                              [-1, -1, 1, 1], [-1, 1, -1, 1]])
    assert np.allclose(entries, printed, atol=1e-12)


def test_gates_vd_permutation(capsys):
    code, doc = run_json(capsys, ["gates", "--which", "VD"])
    entries = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(4, 4)
    assert np.allclose(entries, [[1, 0, 0, 0], [0, 0, 1, 0],
                                 [0, 0, 0, 1], [0, 1, 0, 0]], atol=1e-12)


def test_gates_u14_at_quarter_phase(capsys):
    code, doc = run_json(capsys, ["gates", "--which", "U14",
                                  "--phase", "-1.5707963"])
    entries = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(2, 2)
    hbar = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    assert np.allclose(entries, hbar, atol=1e-6)


def test_gates_unknown_name_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["gates", "--which", "XYZ"])
    assert err.value.code == 2


def test_gates_csv_has_header_and_flags(capsys):
    code, text = run_text(capsys, ["gates", "--which", "SWAP", "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0].startswith("row,")
    assert lines[-1] == "# flags: gates --which SWAP --format csv"


def test_mzi_restored_visibility(capsys, tmp_path):
    out = tmp_path / "mzi.csv"
    code = main(["mzi", "--chi", "1.5707963267948966", "--epsilon", "0",
                 "--flux-steps", "96", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "flux_rad,p3,p4"
    vis_line = [l for l in lines if l.startswith("# visibility")][0]
    assert float(vis_line.split("=")[1]) >= 0.999
    assert lines[-1].startswith("# flags:")


def test_mzi_chaotic_demon(capsys):
    code, text = run_text(capsys, ["mzi", "--epsilon", "0.5"])
    vis = [l for l in text.splitlines() if l.startswith("# visibility")][0]
    assert float(vis.split("=")[1]) <= 0.001


def test_mzi_bypass_coherent(capsys):
    code, text = run_text(capsys, ["mzi", "--chi", "0", "--bypass-demon"])
    vis = [l for l in text.splitlines() if l.startswith("# visibility")][0]
    assert float(vis.split("=")[1]) > 0.999999


def test_mzi_epsilon_out_of_range_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["mzi", "--epsilon", "0.7"])
    assert err.value.code == 2


def test_engine_report_optimal_power_point(capsys):
    code, doc = run_json(capsys, [
        "engine", "report", "--beta-delta", "1e-6", "--beta-d-delta", "2",
        "--policy", "opt-power"])
    assert code == 0
    assert abs(doc["net_work"] - 0.43) < 0.01
    assert abs(doc["eta_2cy"] - 0.57) < 0.01
    assert doc["eta_local"] == 1.0


def test_engine_sweep_ideal_below_threshold_all_nonpositive(capsys):
    code, text = run_text(capsys, [
        "engine", "sweep", "--beta-d-delta", "1.0", "--policy", "ideal",
        "--steps", "21"])
    assert code == 0
    lines = [l for l in text.strip().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    net_col = header.index("net_work")
    for line in lines[1:]:
        assert float(line.split(",")[net_col]) <= 0.0


def test_engine_frontier_single_point(capsys):
    code, text = run_text(capsys, [
        "engine", "frontier", "--pe", "0.5", "--beta-d-delta", "2",
        "--policy", "opt-eta"])
    assert code == 0
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert math.isclose(float(row["eps_eta"]), 0.5, abs_tol=1e-9)
    assert math.isclose(float(row["eps_w_bd2"]), 1 / (1 + math.exp(2)), abs_tol=1e-9)


def test_engine_optimize_reports_result(capsys):
    code, doc = run_json(capsys, [
        "engine", "optimize", "--pe", "0.5", "--beta-d-delta", "2",
        "--target", "power"])
    assert code == 0
    assert doc["converged"] is True
    assert abs(doc["epsilon_star"] - 1 / (1 + math.exp(2))) < 1e-10
    assert doc["residual"] <= 1e-12


def test_engine_optimize_nonconvergence_exits_3(capsys):
    code = main(["engine", "optimize", "--pe", "0.5", "--beta-d-delta", "50",
                 "--target", "power"])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err


def cycle_json(report):
    """The hand-written `engine report` document the CLI once built: the
    oracle for the one built from the dataclass."""
    return {
        "p_e": report.p_e, "p_g": report.p_g, "heat": report.heat,
        "w_minus": report.w_minus, "w_plus": report.w_plus,
        "w_out": report.w_out, "w_in": report.w_in,
        "net_work": report.net_work,
        "eta_local": report.eta_local, "eta_2cy": report.eta_2cy,
        "dit_out_entropy": report.dit_out_entropy,
        "field_ledger": {name: value for name, value in report.field_ledger},
    }


@pytest.mark.parametrize("beta_delta,bd_delta,policy", [
    (1e-6, 2.0, "ideal"), (0.5, 3.0, "opt-power"), (0.7, 2.0, "opt-eta"),
    (0.5, 2.0, "fixed:0.4"),  # no heat absorbed: NaN efficiencies
])
def test_engine_report_bytes_match_hand_built_document(capsys, beta_delta, bd_delta, policy):
    code, text = run_text(capsys, ["engine", "report", "--beta-delta", str(beta_delta),
                                   "--beta-d-delta", str(bd_delta), "--policy", policy])
    assert code == 0
    _, p_e = eng.thermal_wit(beta_delta, 1.0)
    eps = eng.resolve_epsilon(policy, p_e, bd_delta)
    report = eng.run_cycle(eng.EngineParams(beta=beta_delta, beta_d=bd_delta,
                                            delta_w=1.0, epsilon=eps))
    doc = cycle_json(report)
    doc["epsilon"] = eps
    doc["policy"] = policy
    assert text == json.dumps(doc, indent=2) + "\n"


def test_engine_optimize_document_keys(capsys):
    code, doc = run_json(capsys, ["engine", "optimize", "--pe", "0.3", "--beta-d-delta", "2"])
    assert code == 0
    assert list(doc) == ["epsilon_star", "objective_value", "converged", "iterations",
                         "residual", "roots", "target", "p_e", "beta_d_delta"]
    result = eng.optimize_epsilon_power(0.3, 2.0)
    assert doc["roots"] == list(result.roots) == [result.epsilon_star]
    assert (doc["target"], doc["p_e"], doc["beta_d_delta"]) == ("power", 0.3, 2.0)


@pytest.mark.parametrize("args", [
    # eps* ~ 2.7e-18 lies below the search floor EPS_FLOOR = 1e-15
    ["engine", "report", "--beta-delta", "1", "--policy", "opt-power", "--beta-d-delta", "40"],
    ["engine", "sweep", "--policy", "opt-power", "--beta-d-delta", "40", "--steps", "21"],
])
def test_engine_policy_nonconvergence_exits_3(capsys, args):
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("non-convergence: policy opt-power failed to converge")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["engine", "report", "--beta-delta", "nan"],
    ["engine", "report", "--beta-delta", "1", "--beta-d-delta", "inf"],
    ["engine", "optimize", "--beta-d-delta", "nan"],
    ["engine", "optimize", "--target", "eta", "--pe", "0.3", "--beta-d-delta", "nan"],
    ["engine", "optimize", "--target", "eta", "--pe", "0.3", "--beta-d-delta=-inf"],
    # grid ends, checked before numpy builds a grid of NaNs from them
    ["engine", "sweep", "--beta-max-frac", "inf"],
    ["engine", "sweep", "--beta-d-delta", "1e308", "--beta-max-frac", "10"],
    ["engine", "sweep", "--beta-min=-inf"],
    ["engine", "frontier", "--pe-min", "inf"],
])
def test_engine_non_finite_input_exits_2(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()  # one error, no warning before it
    assert usage.startswith("usage: ") and "must be finite" in error
    assert not error.endswith("got nan") or "nan" in args  # no NaN the user never typed


@pytest.mark.parametrize("args", [
    # finite ends whose difference overflows inside np.linspace
    ["engine", "sweep", "--beta-min=-1e308", "--beta-d-delta", "1e308"],
    ["engine", "sweep", "--beta-min=-0.5", "--steps", "3"],
    # a negative sweep end, whose span from 1e308 overflows inside np.linspace
    ["engine", "sweep", "--beta-min", "1e308", "--beta-d-delta", "1e308",
     "--beta-max-frac", "-1"],
])
def test_engine_negative_beta_min_exits_2(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()  # one error, no numpy warning before it
    assert usage.startswith("usage: ") and "beta must be non-negative, got -" in error


def test_csv_writes_nan_cells_as_nan():
    rows = [{"a": float("nan"), "b": np.float64("nan"), "c": -np.float64("nan"), "d": 0.5}]
    assert cli._csv(rows, []).splitlines()[:2] == ["a,b,c,d", "nan,nan,nan,0.5"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
def test_gates_non_finite_phase_exits_2(capsys, fmt, phase):
    with pytest.raises(SystemExit) as err:
        main(["gates", "--which", "U14", "--format", fmt, f"--phase={phase}"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"phase must be finite, got {phase}" in captured.err


@pytest.mark.parametrize("policy", ["fixed:abc", "fixed:"])
def test_engine_unparsable_fixed_policy_exits_2(capsys, policy):
    with pytest.raises(SystemExit) as err:
        main(["engine", "sweep", "--policy", policy, "--steps", "3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"fixed epsilon must be a number, got {policy!r}" in captured.err


@pytest.mark.parametrize("args", [
    ["engine", "sweep", "--steps", "0"],
    ["engine", "sweep", "--steps", "-1"],
    ["engine", "frontier", "--steps", "0"],
    ["engine", "frontier", "--steps", "-1"],
])
def test_engine_grid_steps_below_one_exit_2(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"steps must be at least 1, got {args[-1]}" in captured.err


@pytest.mark.filterwarnings("error")
def test_engine_sweep_overflowing_carnot_term_prints_without_warning(capsys):
    # 1e300 / 1e-10 overflows: a Python float quietly gives -inf, a numpy scalar warned
    args = ["engine", "sweep", "--beta-min", "1e300", "--beta-d-delta", "1e-10", "--steps", "3"]
    assert main(args) == 0
    assert capsys.readouterr() == (
        "beta_delta,p_e,epsilon,heat,net_work,eta_2cy,eta_carnot\n"
        "1e+300,4.94065645841e-324,0,9.88131291682e-324,-7.36157812303e-311,-7.45e+12,-inf\n"
        "5e+299,4.94065645841e-324,0,9.88131291682e-324,-7.36157812303e-311,-7.45e+12,-inf\n"
        "1e-10,0.499999999975,0,0.99999999995,-13862943610.2,-13862943610.9,0\n"
        "# flags: engine sweep --beta-min 1e300 --beta-d-delta 1e-10 --steps 3\n", "")


def test_engine_frontier_at_one_pe_ignores_steps(capsys):
    code, text = run_text(capsys, ["engine", "frontier", "--pe", "0.3", "--steps", "0"])
    assert code == 0
    assert len(text.splitlines()) == 3  # header, one row, flags


def test_engine_optimize_eta_rejects_non_positive_beta_d_delta(capsys):
    with pytest.raises(SystemExit) as err:
        main(["engine", "optimize", "--target", "eta", "--pe", "0.3", "--beta-d-delta", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta_d_delta must be finite and positive" in captured.err


@pytest.mark.parametrize("args", [
    ["channel", "--demon", "superposition", "nan", "1"],
    ["channel", "--demon", "superposition", "inf", "1"],
    ["channel", "--input", "pure", "--amplitudes", "nan", "0", "0", "1"],
    ["channel", "--input", "pure", "--amplitudes", "1", "0", "inf", "0"],
    ["channel", "--input", "pure", "--amplitudes", "0", "0", "0", "0"],
])
def test_channel_non_finite_input_exits_2(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def report_numbers(doc):
    return np.array([doc[k] for k in ("entropy_in", "entropy_out", "entropy_gain")]
                    + [x for k in ("rho_out", "demon_out", "joint_out")
                       for x in np.ravel(doc[k]["entries"])])


@pytest.mark.parametrize("amplitudes, unit", [
    (["1e-300", "0", "0", "2e-300"], ["1", "0", "0", "2"]),
    (["1e200", "0", "1e200", "0"], ["1", "0", "1", "0"]),
])
def test_channel_accepts_amplitudes_at_any_finite_scale(capsys, amplitudes, unit):
    # their squares under- or overflow, so the plain norm reads 0 or inf
    code, doc = run_json(capsys, ["channel", "--input", "pure", "--amplitudes", *amplitudes])
    assert code == 0
    _, want = run_json(capsys, ["channel", "--input", "pure", "--amplitudes", *unit])
    assert np.allclose(report_numbers(doc), report_numbers(want), rtol=0.0, atol=1e-15)


def test_outputs_byte_identical_across_runs(tmp_path):
    args = ["engine", "sweep", "--beta-d-delta", "2.0", "--policy", "opt-eta",
            "--steps", "11"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SWEEP = ["engine", "sweep", "--beta-d-delta", "2.0", "--policy", "opt-eta",
         "--steps", "11"]


def test_sweep_footer_records_every_flag_but_output(tmp_path):
    out = tmp_path / "a.csv"
    assert main(SWEEP + ["--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == ("# flags: engine sweep --beta-d-delta 2.0 "
                         "--policy opt-eta --steps 11")


@pytest.mark.parametrize("spelling", [
    ["--output={}"], ["--out", "{}"], ["--o", "{}"], ["--outp={}"]])
def test_output_spellings_write_same_bytes(tmp_path, spelling):
    plain = tmp_path / "plain.csv"
    other = tmp_path / "other.csv"
    assert main(SWEEP + ["--output", str(plain)]) == 0
    assert main(SWEEP[:2] + [s.format(other) for s in spelling] + SWEEP[2:]) == 0
    assert other.read_bytes() == plain.read_bytes()


def test_output_dash_same_as_stdout(capsys):
    args = ["gates", "--which", "SWAP", "--format", "csv"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert main(args + ["--output", "-"]) == 0
    assert capsys.readouterr().out == stdout


def test_channel_json_identical_across_output_paths(tmp_path):
    args = ["channel", "--theta", "0.3", "--demon", "mixture", "0.25"]
    a = tmp_path / "c1.json"
    b = tmp_path / "c2.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["flags_cli"] == (
        "channel --theta 0.3 --demon mixture 0.25")


def test_flags_keep_end_of_options_marker(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["engine", "--output", str(out), "--beta-d-delta", "2", "3",
                 "--steps", "3", "--", "frontier"]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == ("# flags: engine --beta-d-delta 2 3 --steps 3 "
                         "-- frontier")


@pytest.mark.parametrize("argv, recorded", [
    (["mzi", "--output", "-1", "--chi", "0"], "mzi --chi 0"),
    (["mzi", "--chi", "0", "--ou=x y"], "mzi --chi 0"),
    (["engine", "sweep", "--steps", "3", "--", "--output", "x"],
     "engine sweep --steps 3 -- --output x"),
    (["engine", "report", "--policy", "-"], "engine report --policy -"),
    (["gates", "--which", "UD", "--outputs", "x"],
     "gates --which UD --outputs x"),
])
def test_recorded_flags_drop_only_output(argv, recorded):
    assert _recorded_flags(argv) == recorded


def outcome(capsys, args):
    """(exit code, stdout, stderr) of one main() call."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("sequence, codes", [
    # the nargs="+" default list must be neither shared nor mutated; a
    # default frontier writes one column per entry of it
    ([["engine", "frontier", "--steps", "3"],
      ["engine", "frontier", "--beta-d-delta", "2", "3", "--steps", "3"],
      ["engine", "sweep"], ["engine", "frontier", "--steps", "3"]], [0, 0, 0, 0]),
    # the mzi subparser's set_defaults(eta=pi) must still apply
    ([["mzi", "--eta", "1.0"], ["mzi"]], [0, 0]),
    # usage errors after a success still exit 2 with the same message
    ([["gates", "--which", "UD"], ["gates", "--which", "NOPE"],
      ["engine", "report", "--policy", "bogus"]], [0, 2, 2]),
])
def test_reused_parser_matches_fresh_parser(capsys, sequence, codes):
    fresh = []
    for args in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(capsys, args))
    cli._parser.cache_clear()
    reused = [outcome(capsys, args) for args in sequence]
    assert [code for code, _, _ in fresh] == codes
    assert reused == fresh
