#!/usr/bin/env python3
"""Benchmark of qdemon: three seeded closed-loop workloads.

    python3 bench/run.py --workload channel_scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --record-reference

Run from the root of a checkout; qdemon is imported from ``src/`` there. One
client in one process runs op after op (closed loop) on inputs made from
``--seed``; numpy's BLAS is pinned to one thread because every matrix is 2x2
or 4x4. Every op's outputs are checked against qdemon's documented
invariants, and a fixed subset of ops is compared with outputs recorded
when the benchmark was defined (``reference.json``). An op is declined when
the program turns it down the documented way (engine_cli: exit code 3 with a
non-convergence message, or a usage error naming a rejected parameter); it
fails when it raises otherwise (SystemExit included), exits non-zero
otherwise, or fails a check. The run carries on either way. ``failed``
counts failed ops only; declined ones lower ok_frac. ``correct`` is false,
and the exit code 1, when any output was wrong.

``--trace 0`` reports the end-to-end metrics:

* throughput_ops_s: measured ops per second of op time (op time excludes
  input generation and checks, which are the benchmark's own work);
* op_p50_ms, op_p99_ms: per-op latency of every measured op, failed ones
  included; the tail uses the highest quantile <= 0.99 with at least ten
  samples beyond it, printed with the sample count;
* these three are scaled for the host's speed at the time of each op
  (see harness.py); the unscaled figures are printed alongside;
* ok_frac: ops answered with checked output over ops attempted (declined
  and failed ops are the rest), over reference, warm-up and measured ops;
* setup_s: median wall time of several fresh interpreters that import qdemon
  and generate the first inputs, scaled for host speed like the latencies;
* peak_rss_mb: peak resident memory of the run.

``--trace 1`` runs a fixed number of ops (proportional to ``--seconds``, so
counts repeat exactly for one seed) once untraced and once traced, and
reports per-layer calls, self time, source lines and counters, and
trace.overhead_frac; spans are written to ``.bench_out/``.

Steadiness: latencies are scaled for host speed and taken over a thousand
ops or more, the first second of ops is warm-up, and set-up is the median
of several interpreters.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("channel_scan", "mzi_visibility", "engine_cli")

SETUP_REPEATS = 7
SETUP_SPECS = 256
WARMUP_S = 1.0

#: traced-run ops per second of --seconds, sized so a traced run lasts about --seconds
TRACE_OPS_PER_S = {"channel_scan": 100, "mzi_visibility": 15, "engine_cli": 15}

REFERENCE_SEED = 160407557
REFERENCE_OPS = 24
#: fixed from float64 before recording: unit round-off 2.2e-16 grown by the
#: ~1e2-op kernels and by |ln| of the 1e-300 eigenvalue floor (~690)
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-10

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
                    "ok_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import qdemon from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "qdemon" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qdemon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdemon

    if Path(qdemon.__file__).resolve().parent != SRC / "qdemon":
        raise SystemExit(f"bench: imported qdemon from {qdemon.__file__}, not {SRC}")
    import qdemon.cli  # noqa: F401  (engine_cli's entry point is part of set-up)


def load_workloads() -> dict:
    """The three workloads; call after import_program (they import qdemon)."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    return workloads.make_workloads(OUT_DIR)


def reference_specs(workload) -> list:
    from workloads import spec_stream

    return list(islice(spec_stream(workload, REFERENCE_SEED), REFERENCE_OPS))


def record_reference() -> None:
    """Write reference.json: outputs of the reference ops that succeed here."""
    from workloads import fingerprint

    doc = {"seed": REFERENCE_SEED, "ops": REFERENCE_OPS,
           "rtol": REFERENCE_RTOL, "atol": REFERENCE_ATOL, "workloads": {}}
    with contextlib.redirect_stderr(io.StringIO()):
        for name, workload in load_workloads().items():
            specs = reference_specs(workload)
            values = []
            for spec in specs:
                _, status, _, checked = harness.execute(workload, spec)
                values.append(checked.values if status == harness.OK else None)
            doc["workloads"][name] = {"fingerprint": fingerprint(specs), "values": values}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def check_reference(workload, tally) -> None:
    """Run the reference ops and count any mismatch as a wrong output."""
    from workloads import fingerprint, values_match

    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = doc["workloads"][workload.name]
    specs = reference_specs(workload)
    if fingerprint(specs) != entry["fingerprint"]:
        raise SystemExit(f"bench: {workload.name} reference inputs no longer match "
                         f"{REFERENCE.name}; the input generator changed")
    for spec, want in zip(specs, entry["values"]):
        if want is None:
            continue  # failed when recorded: nothing to compare with
        _, status, detail, checked = harness.execute(workload, spec)
        if status == harness.DECLINED:
            status, detail = harness.WRONG, f"declined an op the reference answered: {detail}"
        elif (status == harness.OK
                and not values_match(checked.values, want, doc["rtol"], doc["atol"])):
            status, detail = harness.WRONG, "outputs differ from the reference"
        tally.add(status, detail)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing the benchmark's set-up,
    each scaled for host speed by calibrations just before and after it."""
    times = []
    before = harness.calibration_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - t0
        after = harness.calibration_seconds()
        times.append(elapsed * harness.CAL_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return harness.median(times)


def setup_probe(workload: str, seed: int) -> None:
    import_program()
    from workloads import spec_stream

    specs = spec_stream(load_workloads()[workload], seed)
    list(islice(specs, SETUP_SPECS))


def end_to_end(workload, seed: int, seconds: float, tally) -> dict:
    from workloads import spec_stream

    setup_s = setup_seconds(workload.name, seed)
    specs = spec_stream(workload, seed)
    with contextlib.redirect_stderr(io.StringIO()):
        check_reference(workload, tally)
        warm = harness.closed_loop(workload, specs, WARMUP_S, tally)
        gc.collect()
        loop = harness.closed_loop(workload, specs, seconds, tally)
    lat = loop.scaled()
    n = len(lat)
    ordered = sorted(lat)
    q_tail = harness.tail_quantile(n)
    raw = sorted(loop.latencies)
    print(f"{workload.name} seed {seed}: {n} measured ops, {len(warm.latencies)} warm-up, "
          f"{tally.attempted} attempted, {tally.declined} declined, {tally.errors} errors, "
          f"{tally.wrong} wrong")
    print(f"  latency: p50 and p{100 * q_tail:g} of {n} ops, "
          f"{n - math.ceil(q_tail * n - 1e-9)} beyond the tail quantile")
    print(f"  host: calibration median {1e3 * harness.median(loop.calibrations):.3f} ms "
          f"over {len(loop.calibrations)} calibrations; unscaled "
          f"p50 {1e3 * harness.percentile(raw, 0.5):.4g} ms, "
          f"tail {1e3 * harness.percentile(raw, q_tail):.4g} ms, {n / sum(raw):.4g} ops/s")
    return {
        "throughput_ops_s": n / sum(lat),
        "op_p50_ms": 1e3 * harness.percentile(ordered, 0.5),
        "op_p99_ms": 1e3 * harness.percentile(ordered, q_tail),
        "ok_frac": tally.answered / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, seed: int, seconds: float, tally) -> dict:
    from workloads import spec_stream

    n_ops = max(1, round(TRACE_OPS_PER_S[workload.name] * seconds))
    batch = list(islice(spec_stream(workload, seed), n_ops))
    tracer = tracing.Tracer()
    bytes_out = 0
    with contextlib.redirect_stderr(io.StringIO()):
        check_reference(workload, tally)
        # warm up on other inputs: the traced batch must not depend on timing
        harness.closed_loop(workload, spec_stream(workload, seed + 1), WARMUP_S, tally)
        gc.collect()
        untraced = sum(harness.execute(workload, spec)[0] for spec in batch)
        gc.collect()
        traced = 0.0
        with tracer.installed():
            for i, spec in enumerate(batch):
                tracer.op = i
                dt, status, detail, checked = harness.execute(workload, spec)
                traced += dt
                tally.add(status, detail)
                if checked is not None:
                    bytes_out += checked.bytes_out
    path = OUT_DIR / f"spans-{workload.name}.csv.gz"
    tracing.write_spans(path, tracer)
    print(f"{workload.name} seed {seed}: traced {n_ops} ops ({tracer.span_count()} spans "
          f"in {path.relative_to(ROOT)}), {tally.declined} declined, {tally.errors} errors, "
          f"{tally.wrong} wrong")
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    return metrics


def run_one(args) -> int:
    import_program()
    workload = load_workloads()[args.workload]
    tally = harness.Tally()
    if args.trace:
        metrics = per_layer(workload, args.seed, args.seconds, tally)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in
                   end_to_end(workload, args.seed, args.seconds, tally).items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in tally.notes:
        print(f"  first failures: {note[:200]}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 and not lines:
            return proc.returncode
        doc = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, entry in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout's qdemon")
    args = parser.parse_args(argv)
    if args.record_reference:
        import_program()
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
