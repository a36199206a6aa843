"""Command-line interface: output formats, values, exit codes, determinism."""

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import cli
from qdemon import engine as eng
from qdemon import qmatrix as qm
from qdemon.channel import apply_channel
from qdemon.circuits import pswap_gate
from qdemon.cli import _recorded_flags, main
from qdemon.spin_demon import SpinDemonParams, scatter, spin_config
from cli_corpus import CORPUS, EXTREMES, POLICIES
from conftest import random_density

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
    want = cli._report_json(scatter(rho_in, CHANNEL_DEMONS[demon], params))
    assert doc["entropy_in"] == qm.von_neumann_entropy(rho_in)
    doc.pop("flags_cli")
    assert doc == json.loads(json.dumps(want))


def test_report_serialisation():
    config = spin_config(SpinDemonParams(eta=np.pi), np.diag([1.0, 0.0]))
    report = apply_channel(np.eye(2) / 2, config)
    blob = cli._report_json(report)
    assert math.isclose(blob["entropy_gain"], -LN2, abs_tol=1e-9)
    assert math.isclose(blob["gamma_abs"], 1.0, abs_tol=1e-12)
    assert blob["unital"] is False
    assert blob["entropy_in"] == report.entropy_in == LN2
    rho_back = np.array([complex(re, im) for re, im in blob["rho_out"]["entries"]])
    assert np.allclose(rho_back.reshape(2, 2), report.rho_out, atol=0.0)


def test_json_round_trip(rng):
    m = random_density(rng, 4)
    doc = cli._matrix_json(m)
    assert doc["dim"] == 4
    assert len(doc["entries"]) == 16
    assert all(len(pair) == 2 for pair in doc["entries"])
    back = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(4, 4)
    assert np.allclose(back, m, atol=0.0)


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


def test_channel_decomposes_four_times(capsys, monkeypatch):
    # the demon's validation and apply_channel's three: the JSON's entropy_in and
    # entropy_out are the report's, not a fifth and sixth decomposition
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    code, doc = run_json(capsys, ["channel", "--theta", "0.3", "--eta", "1.1",
                                  "--input", "up", "--demon", "mixture", "0.8"])
    assert code == 0 and len(calls) == 4
    assert doc["entropy_in"] == qm.von_neumann_entropy(np.diag([1.0, 0.0]))
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


@pytest.mark.parametrize("phase", [None, 0.3, -2.5])
def test_gates_pswap_is_the_engines_partial_swap(capsys, phase):
    args = ["gates", "--which", "PSWAP"] + ([] if phase is None else ["--phase", repr(phase)])
    code, doc = run_json(capsys, args)
    assert code == 0 and doc["gate"] == "PSWAP"
    gate = pswap_gate() if phase is None else pswap_gate(phase)
    assert doc["entries"] == [[z.real, z.imag] for z in gate.reshape(-1).tolist()]


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_opt_eta_report_next_to_half_stays_below_carnot(capsys):
    # H(x) - H(eps) cancels next to p_e = 1/2: today w_in reads -1.1e-16 and eta_2cy
    # 1.00000003, above both unit efficiency and Carnot
    beta_delta = 1.0411181076233397e-08
    code, doc = run_json(capsys, ["engine", "report", "--policy", "opt-eta",
                                  "--beta-delta", repr(beta_delta)])
    assert code == 0
    assert doc["w_in"] >= 0.0 and doc["eta_2cy"] <= 1.0 - beta_delta / 2.0


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


def test_engine_optimize_nonconvergence_writes_the_document_then_the_note(capsys, tmp_path):
    path = tmp_path / "F"
    code = main(["engine", "optimize", "--target", "eta", "--beta-d-delta", "40",
                 "--pe", "1e-9", "--output", str(path)])
    captured = capsys.readouterr()
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert code == 3 and captured.out == ""
    assert doc["converged"] is False and doc["target"] == "eta" and doc["p_e"] == 1e-9
    assert captured.err == f"non-convergence: residual {doc['residual']:.3e}\n"


@pytest.mark.parametrize("policy", ["ideal", "opt-power", "opt-eta", "fixed:0.1"])
def test_engine_threshold_refuses_beta_d_delta_below_its_minimum(capsys, policy):
    # as report, sweep and optimize do; opt-eta once wrote bisection's first midpoint
    with pytest.raises(SystemExit) as err:
        main(["engine", "threshold", "--beta-d-delta", "1e-310", "--policy", policy])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert f"beta_d_delta must be at least {eng.BETA_D_MIN!r}" in captured.err


@pytest.mark.parametrize("policy", ["ideal", "opt-power", "opt-eta", "fixed:0.01", "fixed:0"])
@pytest.mark.parametrize("bd_delta", [1.5, 2.0, 6.5, 17.0])
def test_engine_threshold_is_minimal_beta(capsys, policy, bd_delta):
    code, text = run_text(capsys, ["engine", "threshold", "--policy", policy,
                                   "--beta-d-delta", repr(bd_delta)])
    assert code == 0
    beta = eng.minimal_beta(bd_delta, policy)
    assert json.loads(text) == {"beta_d_delta": bd_delta, "policy": policy,
                                "max_beta_delta": None if math.isnan(beta) else beta}
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_engine_threshold_without_a_work_window_writes_null(capsys):
    # the ideal policy yields net work only for beta_d_delta above 2 ln 2
    code, doc = run_json(capsys, ["engine", "threshold", "--beta-d-delta", "1"])
    assert code == 0
    assert doc == {"beta_d_delta": 1.0, "policy": "ideal", "max_beta_delta": None}


def test_engine_threshold_nonconvergence_exits_3(capsys):
    code = main(["engine", "threshold", "--policy", "opt-eta", "--beta-d-delta", "40"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("non-convergence: policy opt-eta failed to converge")


@pytest.mark.parametrize("policy", ["opt-eta", "opt-power"])
@pytest.mark.parametrize("bd_delta", ["1e-20", "1e-300"])
def test_engine_threshold_exits_3_where_p_e_rounds_to_one_half(capsys, policy, bd_delta):
    # p_e rounds to 1/2 there, so R is never seen above beta_d_delta: no root
    code = main(["engine", "threshold", "--policy", policy, "--beta-d-delta", bd_delta])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (f"non-convergence: policy {policy} failed to converge: "
                            f"no root seen below {float(bd_delta)}\n")


def test_engine_threshold_answers_at_17_5(capsys):
    # opt thresholds are answered up to about beta_d_delta = 17.77
    code, doc = run_json(capsys, ["engine", "threshold", "--policy", "opt-eta",
                                  "--beta-d-delta", "17.5"])
    assert code == 0 and doc["max_beta_delta"] == eng.minimal_beta(17.5, "opt-eta")
    assert 16.4 < doc["max_beta_delta"] < 16.5


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
    (0.5, 2.0, "fixed:0.4"),  # no heat absorbed: NaN efficiencies, written as null
    # heat 2.2e-16 and w_in 1.4e299: eta_2cy = net/heat overflows to -inf, written as null
    (0.8472978603872037, 1e-300, "fixed:0.2999999999999999"),
])
def test_engine_report_bytes_match_hand_built_document(capsys, beta_delta, bd_delta, policy):
    code, text = run_text(capsys, ["engine", "report", "--beta-delta", str(beta_delta),
                                   "--beta-d-delta", str(bd_delta), "--policy", policy])
    assert code == 0
    _, p_e = eng.thermal_wit(beta_delta)
    eps = eng.resolve_epsilon(policy, p_e, bd_delta)
    report = eng.run_cycle(beta_delta, bd_delta, eps)
    doc = cycle_json(report)
    doc["epsilon"] = eps
    doc["policy"] = policy
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in doc.items()}
    assert text == json.dumps(doc, indent=2) + "\n"
    assert "NaN" not in text and "Infinity" not in text  # RFC 8259 JSON has neither


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
    # grid ends, checked before a grid of NaNs is built from them
    ["engine", "sweep", "--beta-max-frac", "inf"],
    ["engine", "sweep", "--beta-d-delta", "1e308", "--beta-max-frac", "10"],
    ["engine", "sweep", "--beta-min=-inf"],
    ["engine", "frontier", "--pe-min", "inf"],
    ["engine", "threshold", "--beta-d-delta", "nan"],
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
    # finite ends whose difference overflows inside the grid builder
    ["engine", "sweep", "--beta-min=-1e308", "--beta-d-delta", "1e308"],
    ["engine", "sweep", "--beta-min=-0.5", "--steps", "3"],
    # a negative sweep end, whose span from 1e308 overflows inside the grid builder
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


def test_csv_row_format_is_format_per_cell():
    # one "%.12g" per cell, applied once per row, spells every cell as format(v, ".12g")
    cells = [0.1, 1 / 3, -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e300,
             -2.5e-7, 123456789012.5, 0, 3, -7, 10**20, 2**70, np.float64(0.1), np.float64(-0.0),
             np.float64("nan"), np.float64("-inf"), np.float64(1 / 3), np.float64(5e-324)]
    rows = [dict(zip(map(str, range(len(cells))), order)) for order in (cells, cells[::-1])]
    assert cli._csv(rows, []).splitlines()[1:3] == [
        ",".join(format(v, ".12g") for v in order) for order in (cells, cells[::-1])]
    # cells follow the header, whatever order a later row lists its keys in
    rows = [{"a": 1.5, "b": -0.0}, {"b": 2.0, "a": math.inf}]
    assert cli._csv(rows, []).splitlines()[:3] == ["a,b", "1.5,-0", "inf,2"]
    assert cli._csv([{"a": 0.25}], []).splitlines()[:2] == ["a", "0.25"]


def test_write_to_a_file_is_utf8_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old contents")
    cli._write(str(path), "# flags: --policy 'fixed:0.1' µ\n")
    assert path.read_bytes() == "# flags: --policy 'fixed:0.1' µ\n".encode("utf-8")
    # text that cannot be encoded leaves an empty file, as a failed text-mode write did
    with pytest.raises(UnicodeEncodeError):
        cli._write(str(path), "bad \udcff")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("args, names, column", [
    (["--beta-d-delta", "2", "2.0000001", "--steps", "3"], "2.0 and 2.0000001", "eps_w_bd2"),
    (["--beta-d-delta", "2", "2", "--pe", "0.3"], "2.0 and 2.0", "eps_w_bd2"),
])
def test_engine_frontier_refuses_two_values_for_one_column(capsys, args, names, column):
    # a second value once overwrote the first one's column; refused as a parameter,
    # not worded as one of argparse's own usage errors
    with pytest.raises(SystemExit) as err:
        main(["engine", "frontier", *args])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: ")
    assert error == (f"qdemon: error: beta_d_delta values {names} both name the "
                     f"frontier column {column}")


def test_linspace_is_numpy_linspace_bit_for_bit():
    def bits(points):
        return [float(x).hex() for x in points]

    rng = np.random.default_rng(18)
    # one point, a descending grid, signed zeros, and a step that underflows to 0
    grids = [(0.3, 0.7, 1), (-0.0, 0.0, 1), (-0.0, 0.0, 3), (0.7, 0.5, 11), (0.0, 5e-324, 3),
             (0.0, 1.5e-323, 10)]
    for _ in range(1000):
        # the benchmark's grids: 21-point sweeps from 0, 11-point frontiers up to 1/2
        bdd = math.exp(rng.uniform(math.log(0.5), math.log(40.0)))
        bd = float(rng.uniform(0.0, bdd))
        grids += [(0.0, bdd * (bd / bdd), 21), (eng.thermal_wit(bd)[1], 0.5, 11)]
    for start, stop, num in grids:
        assert bits(cli._linspace(start, stop, num)) == bits(np.linspace(start, stop, num)), (
            start, stop, num)


#: keys and strings: quotes, backslashes, control characters, non-ASCII characters (astral
#: ones too) and lone surrogates, among any other characters
ESCAPED = '"\\/\x00\x1f\x7f\t\n\u2028é€\U0001f600\ud800\udfff'
json_text = st.text(st.one_of(st.sampled_from(ESCAPED), st.characters()), max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(10**40), 0]),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.225e-308, math.nan, -math.inf, np.float64(math.inf)]),
    json_text)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=24)


def nulled(value):
    """value with each non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [nulled(v) for v in value]
    if isinstance(value, dict):
        return {k: nulled(v) for k, v in value.items()}
    return value


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(doc=json_documents)
@example(doc=[])
@example(doc={"": {}, "a": [[], ()], "b": (1.5, [None, True, False])})
@example(doc={"x": [math.nan, {"y": -math.inf, "z": math.inf}], "w": -0.0})
def test_dumps_is_json_dumps_indent_2(doc):
    assert cli._dumps(doc) == json.dumps(nulled(doc), indent=2, allow_nan=False)



@pytest.mark.parametrize("value", [{1}, [0.5, {"a": frozenset()}], {"a": (1, {2})},
                                   np.int64(3), b"bytes", 1j])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps(value)
    assert str(got.value) == str(want.value)


def test_json_writes_null_for_every_non_finite_float():
    doc = {"a": math.nan, "b": -math.inf, "c": np.float64(math.inf), "d": [math.nan, 0.5],
           "e": {"f": math.inf, "g": (-math.inf, [np.float64(math.nan)])}, "h": 0.25, "i": "x"}
    assert cli._json(doc) == json.dumps(
        {"a": None, "b": None, "c": None, "d": [None, 0.5],
         "e": {"f": None, "g": [None, [None]]}, "h": 0.25, "i": "x"}, indent=2) + "\n"


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
    rows = eng.sweep_beta(1e-10, "ideal", [1e300, 5e299])
    assert cli._csv(rows, []).splitlines()[:3] == [
        "beta_delta,p_e,epsilon,heat,net_work,eta_2cy,eta_carnot",
        "1e+300,4.94065645841e-324,0,9.88131291682e-324,-7.36157812303e-311,-7.45e+12,-inf",
        "5e+299,4.94065645841e-324,0,9.88131291682e-324,-7.36157812303e-311,-7.45e+12,-inf"]
    # the CLI sweeps upward only, to beta_d_delta * beta_max_frac, and refuses this grid
    args = ["engine", "sweep", "--beta-min", "1e300", "--beta-d-delta", "1e-10", "--steps", "3"]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta_min must not exceed the sweep end 1e-10, got 1e+300" in captured.err


@pytest.mark.parametrize("args, values", [
    (["engine", "report", "--beta-delta", "1"], ["3", "7", "nan"]),
    (["engine", "sweep", "--steps", "3"], ["2", "4"]),
    (["engine", "optimize"], ["2", "2"]),
    (["engine", "optimize", "--target", "eta", "--pe", "0.3"], ["2", "inf"]),
])
def test_engine_extra_beta_d_delta_outside_frontier_exits_2(capsys, args, values):
    # only frontier has a column per value
    with pytest.raises(SystemExit) as err:
        main([*args, "--beta-d-delta", *values])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{args[1]} takes one beta_d_delta, got {len(values)}" in captured.err


def test_engine_frontier_at_one_pe_ignores_steps(capsys):
    code, text = run_text(capsys, ["engine", "frontier", "--pe", "0.3", "--steps", "0"])
    assert code == 0
    assert len(text.splitlines()) == 3  # header, one row, flags


def optimize_refusals(capsys, bd_delta):
    """stderr of `engine optimize --pe 0.3 --beta-d-delta bd_delta` for the eta
    and the power target, each of which must exit 2 writing nothing to stdout."""
    errors = []
    for target in ("eta", "power"):
        with pytest.raises(SystemExit) as err:
            main(["engine", "optimize", "--target", target, "--pe", "0.3",
                  "--beta-d-delta", bd_delta])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    return errors


def test_engine_optimize_eta_rejects_non_positive_beta_d_delta(capsys):
    eta, power = optimize_refusals(capsys, "0")
    assert "beta_d_delta must be positive, got 0.0" in eta
    assert eta == power


def test_engine_optimize_eta_rejects_beta_d_delta_below_its_minimum(capsys):
    # 2 ln 2 / beta_d overflows below BETA_D_MIN: the power target always refused it
    eta, power = optimize_refusals(capsys, "1e-320")
    assert f"beta_d_delta must be at least {eng.BETA_D_MIN!r}" in eta
    assert eta == power


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


@pytest.mark.parametrize("where, reason", [("missing/x.json", "No such file or directory"),
                                           ("", "Is a directory")])
def test_output_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, where, reason):
    # a missing directory, or a path that is a directory: exit 2, no traceback, no file
    path = str(tmp_path / where) if where else str(tmp_path)
    code, out, err = outcome(capsys, ["engine", "report", "--output", path])
    assert (code, out) == (2, "")
    assert err.endswith(f"qdemon: error: cannot write --output {path}: {reason}\n")
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


def test_flux_steps_no_host_can_hold_is_a_usage_error(tmp_path, capsys):
    # 10^15 samples ask numpy for 7.11 PiB, which fails at once without touching memory:
    # exit 2, no traceback, no --output file. A size a host could allocate is never tried.
    argv = ["mzi", "--flux-steps", "1000000000000000"]
    for extra in ([], ["--output", str(tmp_path / "mzi.csv")]):
        code, out, err = outcome(capsys, argv + extra)
        assert (code, out) == (2, "")
        assert "qdemon: error: out of memory: Unable to allocate" in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


SUBPARSERS = cli.build_parser()[1]
VALUES = [*EXTREMES, *POLICIES, "0", "0.3", "2", "-1", "1e-320", "8.5", "abc", "extra",
          "report", "sweep", "frontier", "optimize", "threshold", "power", "eta", "PSWAP",
          "U14", "json", "csv", "up", "mixture", "superposition", "pure", "chaotic"]


def abbreviated(option_strings):
    """An option string or any abbreviation of it (ambiguous ones too: --beta, --o)."""
    return st.sampled_from(sorted(option_strings)).flatmap(
        lambda o: st.integers(min(len(o), 3), len(o)).map(lambda n: o[:n]))


options = abbreviated({o for sub in SUBPARSERS.values() for action in sub._actions
                       for o in action.option_strings})
tokens = st.one_of(
    options, st.sampled_from(VALUES),
    st.tuples(options, st.sampled_from(VALUES)).map("=".join),
    st.sampled_from(["--", "-h", "--help", "--bogus", "-x", "-hx", "--h", "-"]))
# a subcommand, its mode or gate or none, its own options with values (as --opt value
# or --opt=value), then anything; or anything at all
HEADS = {"engine": [["report"], ["sweep"], ["frontier"], ["optimize"], ["threshold"], []],
         "gates": [["--which", "UD"], ["--which", "PSWAP"], []]}


def command_argvs(name):
    own = abbreviated({o for action in SUBPARSERS[name]._actions for o in action.option_strings})
    flag = st.tuples(own, st.sampled_from(VALUES), st.booleans()).map(
        lambda p: ["=".join(p[:2])] if p[2] else list(p[:2]))
    head = st.sampled_from(HEADS.get(name, [[]]))
    return st.tuples(head, st.lists(flag, max_size=4), st.lists(tokens, max_size=3)).map(
        lambda t: [name, *t[0], *sum(t[1], []), *t[2]])


argvs = st.one_of(
    *(command_argvs(name) for name in sorted(SUBPARSERS)),
    st.tuples(st.one_of(st.sampled_from(sorted(SUBPARSERS)),
                        st.sampled_from(["-h", "--", "lift", "-x"]), tokens),
              st.lists(tokens, max_size=8)).map(lambda t: [t[0], *t[1]]))


def parse_outcome(parse, argv):
    """The namespace one parse gives, or its exit code, with what it wrote to
    stdout and stderr at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80", "LINES": "24"}):
        try:
            got = repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


def corpus_examples(test):
    """``test`` with each argv of the CLI corpus as one more explicit example."""
    for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]:
        test = example(argv=case["argv"])(test)
    return test


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argv=argvs)
@corpus_examples
# the edges of the read that skips argparse: a negative number is a value, -1e-3
# and -inf too (build_parser's matcher); a "+" option swallows the mode; a value
# missing, repeated, empty or outside its choices; a required option missing; a "--"
# where a value goes, which argparse skips
@example(argv=["engine", "sweep", "--beta-min", "-1"])
@example(argv=["engine", "report", "--policy", "--", "ideal"])
@example(argv=["engine", "sweep", "--beta-min", "-1e-3"])
@example(argv=["engine", "report", "--beta-delta", "-inf"])
@example(argv=["engine", "--beta-d-delta", "2", "3", "report"])
@example(argv=["engine", "report", "--steps"])
@example(argv=["engine", "frontier", "--steps", "3", "--pe", "0.4", "--steps", "5", "--pe", "0.3"])
@example(argv=["engine", "report", "--policy", ""])
@example(argv=["engine", "report", "--target", "speed"])
@example(argv=["gates", "--phase", "1"])
@example(argv=["channel", "--demon", "mixture", "0.3", "--input", "up"])
@example(argv=["engine", "report", "--beta-delta", "1", "--policy", "opt-eta"])
@example(argv=["engine", "frontier", "--beta-d-delta", "2", "4", "--o", "x", "extra"])
@example(argv=["gates", "--which", "U14", "--phase=-1", "--", "UD"])
@example(argv=["mzi", "--bypass", "--flux-steps", "8", "-h"])
@example(argv=["channel", "--demon", "mixture", "0.3", "--input=pure", "--amp", "1", "0", "0", "1"])
@example(argv=["engine", "--beta", "1", "report"])
@example(argv=["engine"])
@example(argv=[])
def test_one_pass_parse_matches_parse_args(argv):
    main_step = parse_outcome(lambda a: cli._parse(a)[1], argv)
    assert main_step == parse_outcome(lambda a: cli.build_parser()[0].parse_args(a), argv)


def test_main_skips_the_top_level_parse_of_a_subcommand_argv(capsys, tmp_path):
    parser = cli._parser()[0]
    with mock.patch.object(parser, "parse_known_args", wraps=parser.parse_known_args) as top:
        assert main(["engine", "report", "--output", str(tmp_path / "report.json")]) == 0
        with pytest.raises(SystemExit):
            main(["engine", "report", "extra"])
        assert top.call_count == 0
        # leftovers still meet the top-level parser's error, as parse_args gives it
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qdemon: error: unrecognized arguments: extra")
        with pytest.raises(SystemExit):
            main([])  # no subcommand: the top-level parser parses
        assert top.call_count == 1


def test_main_reads_the_bench_engine_argvs_without_argparse(capsys, tmp_path):
    # the four argv shapes of the engine_cli benchmark and negative values, exponent and
    # -inf forms too, skip argparse; an abbreviated or "=" option and help do not
    engine = cli._parser()[1]["engine"]
    out = str(tmp_path / "op")
    with mock.patch.object(engine, "parse_known_args", wraps=engine.parse_known_args) as parse:
        for argv in (["report", "--beta-delta", "1.5", "--beta-d-delta", "3.0", "--policy",
                      "opt-eta"],
                     ["sweep", "--beta-d-delta", "3.0", "--policy", "opt-power",
                      "--beta-max-frac", "0.5", "--steps", "21"],
                     ["frontier", "--beta-d-delta", "3.0", "7.5", "--pe-min", "0.2",
                      "--steps", "11"],
                     ["optimize", "--target", "eta", "--beta-d-delta", "3.0", "--pe", "0.2"]):
            assert main(["engine", *argv, "--output", out]) == 0
        assert cli._parse(["engine", "sweep", "--beta-min", "-1"])[1].beta_min == -1.0
        assert cli._parse(["engine", "report", "--beta-delta", "-INF"])[1].beta_delta == -math.inf
        with pytest.raises(SystemExit) as exc:  # the parameter refusal, not a missing value
            main(["engine", "sweep", "--beta-min", "-1e-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qdemon: error: beta must be non-negative, got -0.001")
        assert parse.call_count == 0
        assert main(["engine", "report", "--out", out]) == 0
        assert main(["engine", "report", "--output=" + out]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["engine", "report", "-h"])
        assert exc.value.code == 0
        assert parse.call_count == 3
