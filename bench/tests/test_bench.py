"""Tests of the benchmark's own arithmetic, failure accounting and seeding."""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qdemon import channel, spin_demon  # noqa: E402


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile(values, 0.001) == 1
    assert harness.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


@pytest.mark.parametrize("n", [11, 12, 50, 123, 999, 1000, 1001, 5000])
def test_tail_quantile_leaves_ten_samples_beyond(n):
    q = harness.tail_quantile(n)
    values = list(range(n))
    tail = harness.percentile(values, q)
    assert sum(v > tail for v in values) >= 10
    assert q <= 0.99
    if n >= 1000:
        assert q == 0.99
    else:
        assert sum(v > tail for v in values) == 10


def test_tail_quantile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail_quantile(10)


def test_host_factors_scale_to_the_nominal_host():
    nominal = harness.CAL_NOMINAL_S
    assert harness.host_factors([nominal] * 5) == pytest.approx([1.0] * 4)
    # a host twice as slow halves every latency; one stray calibration is outvoted
    cal = [2 * nominal] * 6
    cal[3] = 50 * nominal
    assert harness.host_factors(cal) == pytest.approx([0.5] * 5)
    loop = harness.Loop([0.004, 0.006], [0, 1], [2 * nominal] * 3)
    assert loop.scaled() == pytest.approx([0.002, 0.003])


def test_self_times_subtract_direct_children():
    # (op, id, parent, layer, name, start, end) in end order, as recorded
    spans = [
        (0, 3, 2, "qmatrix", "qmatrix.tensor", 210, 250),
        (0, 2, 1, "circuits", "circuits.u14", 200, 300),
        (0, 4, 1, "qmatrix", "qmatrix.dag", 400, 420),
        (0, 1, 0, "engine", "engine.run_cycle", 100, 900),
        (0, 0, -1, "cli", "cli.main", 0, 1000),
        (1, 5, -1, "channel", "channel.gamma", 2000, 2050),
    ]
    self_ns = tracing.self_times_ns(spans)
    assert self_ns == {"cli": 200, "engine": 680, "circuits": 60,
                       "qmatrix": 60, "channel": 50}
    assert sum(self_ns.values()) == 1000 + 50


class FakeWorkload:
    """Ops 0, 1, 2 raise, exit and answer wrongly; op 3 succeeds; op 4 is declined."""

    def run(self, spec):
        if spec == 0:
            raise ValueError("injected")
        if spec == 1:
            raise SystemExit(2)
        if spec == 4:
            raise harness.Declined("injected decline")
        return spec

    def check(self, spec, out):
        problems = ["injected wrong output"] if spec == 2 else []
        return workloads.Checked(problems=problems, values=[float(out)])


def test_failures_are_counted_and_do_not_abort_the_run():
    wl = FakeWorkload()
    statuses = [harness.execute(wl, spec)[1] for spec in range(5)]
    assert statuses == [harness.ERROR, harness.ERROR, harness.WRONG, harness.OK,
                        harness.DECLINED]

    tally = harness.Tally()
    loop = harness.closed_loop(wl, itertools.cycle(range(5)), 0.05, tally)
    n = len(loop.latencies)
    assert tally.attempted == n > 5
    assert tally.errors == sum(1 for i in range(n) if i % 5 in (0, 1))
    assert tally.wrong == sum(1 for i in range(n) if i % 5 == 2)
    assert tally.declined == sum(1 for i in range(n) if i % 5 == 4)
    assert tally.failed == tally.errors + tally.wrong
    assert tally.answered == sum(1 for i in range(n) if i % 5 == 3)
    assert any("SystemExit" in note for note in tally.notes)
    assert not any("decline" in note for note in tally.notes)


def _engine_spec(*argv):
    return {"argv": ["engine", "report", *argv], "ext": "json", "mode": "report",
            "rows": None, "header": None}


def test_cli_outcomes(tmp_path):
    wl = workloads.EngineCli(tmp_path)
    # H' rejects the x that p_e underflows to: a parameter refusal, exit 2
    _, status, detail, _ = harness.execute(
        wl, _engine_spec("--beta-delta", "38", "--beta-d-delta", "40", "--policy", "opt-eta"))
    assert status == harness.DECLINED and detail.startswith("rejected parameter")
    # opt-power does not converge here: exit code 3
    _, status, detail, _ = harness.execute(
        wl, _engine_spec("--beta-delta", "5.2", "--beta-d-delta", "40",
                         "--policy", "opt-power"))
    assert status == harness.DECLINED and detail.startswith("non-convergence")
    # a request the CLI cannot parse is the benchmark's fault: a failure
    _, status, detail, _ = harness.execute(wl, _engine_spec("--no-such-flag"))
    assert status == harness.ERROR and detail.startswith("SystemExit")
    _, status, _, checked = harness.execute(
        wl, _engine_spec("--beta-delta", "1", "--beta-d-delta", "2", "--policy", "ideal"))
    assert status == harness.OK and checked.bytes_out > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    wl = workloads.make_workloads(tmp_path)[name]

    def first(seed):
        return list(itertools.islice(workloads.spec_stream(wl, seed), 40))

    assert workloads.fingerprint(first(7)) == workloads.fingerprint(first(7))
    assert workloads.fingerprint(first(7)) != workloads.fingerprint(first(8))


def test_values_match_tolerance_and_nan():
    assert workloads.values_match([1.0 + 1e-12, math.nan], [1.0, math.nan], 1e-9, 1e-10)
    assert not workloads.values_match([1.0 + 1e-6], [1.0], 1e-9, 1e-10)
    assert not workloads.values_match([math.nan], [1.0], 1e-9, 1e-10)
    assert not workloads.values_match([1.0], [1.0, 2.0], 1e-9, 1e-10)


def test_reference_mismatch_counts_as_wrong(tmp_path, monkeypatch):
    doc = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    entry = doc["workloads"]["mzi_visibility"]
    entry["values"] = [None if v is None else [x + 1.0 for x in v] for v in entry["values"]]
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", perturbed)
    tally = harness.Tally()
    run.check_reference(workloads.make_workloads(tmp_path)["mzi_visibility"], tally)
    recorded = sum(v is not None for v in entry["values"])
    assert recorded > 0 and tally.attempted == tally.wrong == recorded


def test_tracer_spans_counts_and_restore():
    config = spin_demon.spin_config(spin_demon.SpinDemonParams(eta=np.pi),
                                    np.diag([1.0, 0.0]).astype(complex))
    original = channel.apply_channel
    tracer = tracing.Tracer()
    with tracer.installed():
        assert channel.apply_channel is not original
        channel.apply_channel(np.eye(2) / 2, config)
    assert channel.apply_channel is original
    records = list(tracer.span_records())
    roots = [r for r in records if r[2] == -1]
    assert [r[4] for r in roots] == ["channel.apply_channel"]
    self_ns = tracing.self_times_ns(records)
    assert sum(self_ns.values()) == roots[0][6] - roots[0][5]
    assert tracer.calls["channel"] >= 3          # apply_channel, joint_unitary, gamma, ...
    assert tracer.counts["channel.joint_unitary_builds"] == 1
    assert tracer.counts["qmatrix.eig_calls"] >= 3
    assert tracer.counts["qmatrix.validations"] >= 1
