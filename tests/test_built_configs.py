"""Channel configs the package builds itself: stored unchecked, equal to checked ones.

``spin_config``, ``double_dot_protocol`` and ``run_double_mzi`` make their five
unitaries from checked angles and store them through ``ChannelConfig._built``,
with no ``check_unitary`` call; the MZI also builds its demon diag(1 - ε, ε)
unchecked. These tests show that every such unitary passes the check it skips,
that each built config equals ``ChannelConfig(...)`` of the same arrays bit for
bit, that a bad demon is refused as ``ChannelConfig(...)`` refuses it, that the
module matrices the builders share cannot be written, and that configs and
reports, which hold arrays, compare and hash by identity.
"""

import cmath
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdemon import channel as ch
from qdemon import circuits as qc
from qdemon import cli, interferometer, spin_demon
from qdemon.interferometer import MziConfig, run_double_mzi
from qdemon.qmatrix import InvalidStateError, check_unitary
from qdemon.spin_demon import (I2, SpinDemonParams, beam_splitter, demon_unitaries, scatter,
                               spin_config)
from cli_corpus import run_case
from conftest import random_density

GUARD = settings(max_examples=300, deadline=None, derandomize=True, database=None)

#: finite angles up to ±1e300, subnormals (and zeros), and the bench's [0, 2π)
angles = st.one_of(st.floats(-1e300, 1e300),
                   st.floats(-sys.float_info.min, sys.float_info.min,
                             exclude_min=True, exclude_max=True),
                   st.floats(0.0, 2 * math.pi, exclude_max=True))
seeds = st.integers(0, 2**32 - 1)


def config_bits(config) -> list:
    """dtype, shape and bytes of each member array of a config."""
    members = (config.scattering, *config.lead_unitaries, config.demon_state)
    assert not any(m.flags.writeable for m in members)
    return [(m.dtype.str, m.shape, m.tobytes()) for m in members]


def report_bits(report) -> list:
    """Every field of a report as bits: arrays with their dtype and shape, numbers
    with their type, so that -0.0 and 0.0 differ."""
    fields = []
    for name, value in vars(report).items():
        if isinstance(value, np.ndarray):
            fields.append((name, value.dtype.str, value.shape, value.tobytes()))
        elif isinstance(value, (float, complex)):
            fields.append((name, type(value), np.array(value).tobytes()))
        else:
            fields.append((name, type(value), value))
    return fields


def handed_to_apply_channel(module, call):
    """Run ``call``; return the one config it gives ``module.apply_channel``, and its result."""
    configs = []

    def capture(rho_in, config, *flags):
        configs.append(config)
        return ch.apply_channel(rho_in, config, *flags)

    with mock.patch.object(module, "apply_channel", capture):
        result = call()
    (config,) = configs
    return config, result


def scatter_route_p3(config: MziConfig) -> np.ndarray:
    """run_double_mzi's p3 by way of ``scatter``, which checks the demon and the
    unitaries: the route the MZI took before it built its config unchecked."""
    z = -0.5 * math.cos(config.chi) * cmath.exp(1j * config.arm_phase)
    rho = np.array([[0.5, z], [z.conjugate(), 0.5]])
    demon = np.diag([1.0 - config.epsilon, config.epsilon])
    coherence = scatter(rho, demon, config.params).rho_out[0, 1]
    flux = np.linspace(0.0, 2.0 * np.pi, config.flux_samples, endpoint=False)
    return 0.5 + (np.exp(1j * flux) * coherence).real


@GUARD
@given(spin=st.tuples(*[angles] * 5), dot=st.tuples(*[angles] * 4), mzi=st.tuples(angles, angles),
       eps=st.floats(0.0, 0.5), seed=seeds)
@example(spin=(0.0,) * 5, dot=(-math.pi / 2, 0.0, 0.0, math.pi), mzi=(math.pi / 2,) * 2,
         eps=0.0, seed=0)
@example(spin=(1e300, -1e300, 5e-324, -5e-324, 2 * math.pi - 1e-15),
         dot=(-1e300, 1e300, -5e-324, 1e-310), mzi=(1e300, -1e300), eps=0.5, seed=1)
def test_built_configs_equal_checked_ones(spin, dot, mzi, eps, seed):
    rng = np.random.default_rng(seed)
    params, dd = SpinDemonParams(*spin), qc.DoubleDotConfig(*dot)
    s = beam_splitter(params.theta, params.eta)
    u1, u3 = demon_unitaries(params)
    q = qc.u14(dd.tunneling_phase)
    d = qc.conditional_pi_phase(dd.interaction_phase)[:2, :2]
    dd_s, dd_leads = beam_splitter(dd.theta, dd.eta), (q @ d @ q, q @ q, d, I2)
    # every unitary the builders store passes the check they skip: it raises on any
    check_unitary(np.array((s, u1, u3, q, dd_s, *dd_leads)))

    demon, rho_in = random_density(rng), random_density(rng)
    mzi_config = MziConfig(chi=mzi[0], epsilon=eps, flux_samples=16, params=params,
                           arm_phase=mzi[1])
    built_dd, dd_report = handed_to_apply_channel(
        qc, lambda: qc.double_dot_protocol(rho_in, demon, dd))
    built_mzi, mzi_report = handed_to_apply_channel(
        interferometer, lambda: run_double_mzi(mzi_config))
    dd_flags = ("dot-basis-physical",)
    cases = [(spin_config(params, demon), ch.ChannelConfig(s, (u1, I2, u3, I2), demon), ()),
             (built_dd, ch.ChannelConfig(dd_s, dd_leads, demon), dd_flags),
             (built_mzi, ch.ChannelConfig(s, (u1, I2, u3, I2), np.diag([1.0 - eps, eps])), ())]
    for built, checked, flags in cases:
        assert config_bits(built) == config_bits(checked)
        assert not np.shares_memory(built.demon_state, demon)
        assert built._unitary.tobytes() == checked._unitary.tobytes()
        assert type(built._gamma) is type(checked._gamma)
        assert np.array(built._gamma).tobytes() == np.array(checked._gamma).tobytes()
        assert report_bits(ch.apply_channel(rho_in, built, flags)) == \
            report_bits(ch.apply_channel(rho_in, checked, flags))
    assert report_bits(dd_report) == report_bits(ch.apply_channel(rho_in, cases[1][1], dd_flags))
    assert mzi_report.p3.tobytes() == scatter_route_p3(mzi_config).tobytes()


def test_nested_list_demon_builds_the_array_config():
    demon = [[0.75, 0.25j], [-0.25j, 0.25]]
    params = SpinDemonParams(0.3, 1.1, 2.0, 0.4, 5.0)
    assert config_bits(spin_config(params, demon)) == \
        config_bits(spin_config(params, np.array(demon)))


nan, inf = math.nan, math.inf
NOT_FINITE = "entries must be finite, got NaN or inf"
NOT_A_QUBIT = "lead/demon matrix demon_state must be 2x2"
#: bad demons, and the type and message of the refusal ChannelConfig(...) gives each
BAD_DEMONS = {
    "nan": ([[nan, 0], [0, 1]], InvalidStateError, NOT_FINITE),
    "inf": ([[inf, 0], [0, 0]], InvalidStateError, NOT_FINITE),
    "-inf": ([[1, 0], [0, -inf]], InvalidStateError, NOT_FINITE),
    "non-hermitian": ([[0.5, 0.1], [0.2, 0.5]], InvalidStateError,
                      "density matrix is not Hermitian"),
    "trace": (np.diag([0.7, 0.7]), InvalidStateError,
              "density matrix trace is (1.4+0j), expected 1"),
    "negative": (np.diag([1.5, -0.5]), InvalidStateError,
                 "density matrix has negative eigenvalue -5.000e-01"),
    "3x3": (np.eye(3) / 3, InvalidStateError, NOT_A_QUBIT),
    # the state check's fault comes before the 2x2 refusal
    "3x3 trace": (np.ones((3, 3)), InvalidStateError, "density matrix trace is (3+0j), expected 1"),
    "4x4": (np.eye(4) / 4, InvalidStateError, NOT_A_QUBIT),
    "4x4 non-hermitian": (np.triu(np.ones((4, 4))) / 4, InvalidStateError,
                          "density matrix is not Hermitian"),
    "nested 3d": ([[[1.0]]], InvalidStateError, "expected a square matrix, got shape (1, 1, 1)"),
    "nested ragged": ([[1, 0], [0]], ValueError, "setting an array element with a sequence"),
}


@pytest.mark.parametrize("name", BAD_DEMONS)
def test_bad_demons_are_refused_as_the_checked_config_refuses_them(name):
    demon, kind, message = BAD_DEMONS[name]
    params, good, bad = SpinDemonParams(0.3, 1.1), np.eye(2) / 2, np.diag([0.7, 0.7])
    calls = [lambda: ch.ChannelConfig(beam_splitter(0.3, 1.1), (I2,) * 4, demon),
             lambda: spin_config(params, demon)]
    for rho_in in (good, bad):      # the demon is refused before rho_in is looked at
        calls += [lambda rho_in=rho_in: scatter(rho_in, demon, params),
                  lambda rho_in=rho_in: qc.double_dot_protocol(rho_in, demon, qc.DoubleDotConfig())]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is kind and str(err.value).startswith(message)
        assert kind is ValueError or str(err.value) == message


@pytest.mark.parametrize("name", [n for n in BAD_DEMONS if n != "nested ragged"])
def test_cli_channel_refuses_bad_demons_with_exit_2(name, tmp_path):
    demon, _, message = BAD_DEMONS[name]
    with mock.patch.object(cli, "demon_state_from_spec", lambda kind, value=None: demon):
        result = run_case(["channel", "--demon", "up"], tmp_path)
    assert (result["exit"], result["stdout"]) == (2, "")
    assert result["stderr"].endswith(f"qdemon: error: {message}\n")


def test_check_unitary_runs_once_per_checked_config_and_never_on_built_ones(monkeypatch, rng):
    calls = []
    monkeypatch.setattr(ch, "check_unitary", lambda u: calls.append(u.shape) or check_unitary(u))
    demon, rho_in = random_density(rng), random_density(rng)
    ch.ChannelConfig(beam_splitter(0.3, 1.1), (I2,) * 4, demon)
    assert calls == [(5, 2, 2)]
    calls.clear()
    params = SpinDemonParams(*rng.uniform(0.0, 2 * np.pi, size=5))
    spin_config(params, demon)
    scatter(rho_in, demon, params)
    for basis in ("physical", "operational"):
        qc.double_dot_protocol(rho_in, demon, qc.DoubleDotConfig(), dot_basis=basis)
    for bypass in (False, True):
        run_double_mzi(MziConfig(epsilon=0.2, params=params, bypass_demon=bypass))
    assert calls == []


@pytest.mark.parametrize("owner, name", [(spin_demon, "I2"), (qc, "SIGMA_Z"), (qc, "HADAMARD"),
                                         (qc, "HBAR"), (qc, "CNOT_UP"), (qc, "CNOT_DOWN"),
                                         (qc, "UD"), (qc, "VD"), (qc, "SWAP")])
def test_module_matrices_are_read_only(owner, name):
    matrix = getattr(owner, name)
    with pytest.raises(ValueError, match=re.escape("read-only")):
        matrix[0, 0] = matrix[0, 0]     # a write that changes nothing where it is allowed


def test_gates_cnot_hands_out_the_read_only_module_matrix():
    assert cli._GATES["CNOT"] is qc.CNOT_UP and not qc.CNOT_UP.flags.writeable


def test_configs_and_reports_compare_and_hash_by_identity():
    # two configs, channel reports or visibility reports with equal arrays: each is
    # equal only to itself, and hashes without looking at its arrays
    params, demon, rho_in = SpinDemonParams(0.3, 1.1), np.diag([1.0, 0.0]), np.eye(2) / 2
    u1, u3 = demon_unitaries(params)
    built = spin_config(params, demon)
    checked = ch.ChannelConfig(beam_splitter(0.3, 1.1), (u1, I2, u3, I2), demon)
    mzi = MziConfig(epsilon=0.1, flux_samples=8, params=params)
    pairs = [(config_bits, built, spin_config(params, demon)), (config_bits, built, checked),
             (report_bits, scatter(rho_in, demon, params), ch.apply_channel(rho_in, checked)),
             (report_bits, run_double_mzi(mzi), run_double_mzi(mzi))]
    for bits, a, b in pairs:
        assert bits(a) == bits(b)
        assert a == a and b == b and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
