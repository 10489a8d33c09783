"""twemac-jcf benchmark: one command for every workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Runs whole rounds of the workload in
one fresh worker process (see worker.py), at least one and more while
another fits in --seconds, and times importing the package and building
its CLI parser in fresh processes before and after.  Round times are
reported rescaled to a reference host speed, measured by speedprobe.py
on the worker's CPU during each operation.  It checks every
operation's output against the references in reference.py and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker wraps the package's functions (tracer.py) and the metrics are the
per-layer ones.  Run records and span files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, check, round_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150
# Probe sample time that wall_norm_s is rescaled to: a round reads the
# seconds it would take on a CPU that runs the probe kernel in 0.5 ms.
PROBE_REF_S = 5e-4
# single-threaded BLAS/OpenMP, set before numpy is imported
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import twemac_jcf.cli as cli; cli.build_parser(); print(time.perf_counter())"
)


def measure_setup(probes: int) -> list:
    """Seconds from process start until the package is imported and the parser built.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            env=ENV, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def run_worker(args, tag: str) -> dict:
    result = OUT / f"{tag}.worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if args.trace:
        cmd += ["--trace-file", str(OUT / f"{tag}.spans.json")]
    # its own process group, so that a timeout also ends the speed probe
    worker = subprocess.Popen(cmd, env=ENV, start_new_session=True)
    try:
        code = worker.wait(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def round_seconds(work: dict, rescale: bool = False) -> list:
    """Sum of the operation times of each round.

    With rescale, each operation's time is multiplied by PROBE_REF_S over
    the mean probe sample taken while it ran.
    """
    sums = [0.0] * work["rounds"]
    for op in work["ops"]:
        scale = PROBE_REF_S / op["probe_s"] if rescale else 1.0
        sums[op["round"]] += op["wall_s"] * scale
    return sums


def end_to_end(work: dict, setup: list) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_norm_s": _metric(statistics.median(round_seconds(work, rescale=True)), "s"),
        "peak_rss_mb": _metric(work["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(trace: dict, rounds: int) -> dict:
    total, self_t, calls = trace["total"], trace["self"], trace["calls"]
    nested, counts = trace["nested"], trace["counts"]

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def k(name):
        return counts.get(name, 0.0)

    def inside(parent, *children):
        return sum(nested.get(f"{c}|{parent}", 0.0) for c in children)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    ft, isd = "threshold.find_threshold", "threshold.is_decodable"
    dc, dr = "de_coupled.de_coupled", "de_core.de_regular"
    c_iters, r_iters = k("de_coupled.iters"), k("de_core.iters")
    peel, fr = "simulate.peel_decode", "simulate.failure_rate"
    m = {
        "threshold.thresholds": (n(ft) / rounds, "count"),
        "threshold.evals": (n(isd) / rounds, "count"),
        "threshold.evals_success": (k("evals_success") / rounds, "count"),
        "threshold.evals_stall": (k("evals_stall") / rounds, "count"),
        "threshold.evals_cap": (k("evals_cap") / rounds, "count"),
        "threshold.bisection_ms": (ratio(t(ft), n(ft), 1e3), "ms"),
        "threshold.eval_ms": (ratio(t(isd), n(isd), 1e3), "ms"),
        "threshold.self_ms": (ratio(self_t.get(ft, 0.0), n(ft), 1e3), "ms"),
        "de_coupled.calls": (n(dc) / rounds, "count"),
        "de_coupled.iters": (c_iters / rounds, "count"),
        "de_coupled.us_per_iter": (ratio(t(dc), c_iters, 1e6), "us"),
        "de_coupled.ns_per_pos_iter": (ratio(t(dc), k("de_coupled.pos_iters"), 1e9), "ns"),
        "de_coupled.window_us_per_iter": (
            ratio(inside(dc, "de_coupled.eff_vc_window", "de_coupled.eff_cv_window"), c_iters, 1e6), "us"),
        "de_coupled.kernel_us_per_iter": (
            ratio(inside(dc, "de_coupled.chk_matrices", "de_coupled.var_matrices",
                         "de_coupled.mat_power"), c_iters, 1e6), "us"),
        "de_coupled.renorm_us_per_iter": (ratio(inside(dc, "de_coupled.renormalize"), c_iters, 1e6), "us"),
        "de_coupled.bookkeeping_us_per_iter": (ratio(self_t.get(dc, 0.0), c_iters, 1e6), "us"),
        "de_coupled.rows_per_iter": (ratio(k("de_coupled.rows"), c_iters), "count"),
        "de_coupled.active_share": (ratio(k("de_coupled.rows"), k("de_coupled.pos_iters")), "share"),
        "de_core.calls": (n(dr) / rounds, "count"),
        "de_core.iters": (r_iters / rounds, "count"),
        "de_core.us_per_iter": (ratio(t(dr), r_iters, 1e6), "us"),
        "de_core.chk_update_us": (ratio(t("de_core.chk_update"), n("de_core.chk_update"), 1e6), "us"),
        "de_core.var_update_us": (ratio(t("de_core.var_update"), n("de_core.var_update"), 1e6), "us"),
        "de_core.decoder_output_us": (
            ratio(t("de_core.decoder_output"), n("de_core.decoder_output"), 1e6), "us"),
        "de_core.bookkeeping_us_per_iter": (ratio(self_t.get(dr, 0.0), r_iters, 1e6), "us"),
        "simulate.sample_regular_graph_ms": (
            ratio(t("simulate.sample_regular_graph"), n("simulate.sample_regular_graph"), 1e3), "ms"),
        "simulate.sample_coupled_graph_ms": (
            ratio(t("simulate.sample_coupled_graph"), n("simulate.sample_coupled_graph"), 1e3), "ms"),
        "simulate.edge_arrays_ms": (ratio(t("simulate.edge_arrays"), n("simulate.edge_arrays"), 1e3), "ms"),
        "simulate.peel_ms": (ratio(self_t.get(peel, 0.0), n(peel), 1e3), "ms"),
        "simulate.peel_ns_per_edge": (ratio(self_t.get(peel, 0.0), k("simulate.edges"), 1e9), "ns"),
        "simulate.trial_ms": (ratio(t(fr), k("simulate.trials"), 1e3), "ms"),
        "simulate.vars_per_s": (ratio(k("simulate.vars"), t(fr)), "1/s"),
        "channel.sample_states_ms": (
            ratio(t("channel.sample_states"), n("channel.sample_states"), 1e3), "ms"),
        "channel.eval_us": (ratio(t("channel.eval"), n("channel.eval"), 1e6), "us"),
        "rates.rate_bounds_calls": (n("rates.rate_bounds") / rounds, "count"),
        "rates.rate_bounds_us": (ratio(t("rates.rate_bounds"), n("rates.rate_bounds"), 1e6), "us"),
        "cli.self_ms": (
            ratio(t("cli.main") - inside("cli.main", ft, "threshold.sweep", fr, "rates.rate_bounds"),
                  n("cli.main"), 1e3), "ms"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "twemac_jcf" / "__init__.py").is_file():
        print(f"error: no twemac_jcf package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    reference.self_check()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Half the setup probes run before the worker and half after it, since
    # the host's speed switches between states within seconds.  The first
    # probe only warms the page cache.
    setup = measure_setup(1 + SETUP_PROBES // 2)[1:]
    work = run_worker(args, tag)
    setup += measure_setup(SETUP_PROBES - len(setup))

    rounds = work["rounds"]
    ops = [op for r in range(rounds) for op in round_ops(args.workload, args.seed, r)]
    if len(ops) != len(work["ops"]):
        raise RuntimeError("worker ran a different list of operations")
    # An operation fails when the CLI errors or its output fails a check; a
    # failed check also means the program computed a wrong value.
    failed, wrong = 0, 0
    for op, out in zip(ops, work["ops"]):
        out["problems"] = check(op, out)
        if out["problems"]:
            failed += 1
            wrong += "error" not in out
            print(f"FAILED {op.label}: {'; '.join(out['problems'])}", file=sys.stderr)

    metrics = per_layer(work["trace"], rounds) if args.trace else end_to_end(work, setup)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "setup_s": setup,
              "round_s": round_seconds(work),
              "round_norm_s": round_seconds(work, rescale=True),
              "machine": work["machine"], "ops": work["ops"], "metrics": metrics,
              "missing_wrapped": work.get("trace", {}).get("missing", [])}
    (OUT / f"{tag}.run.json").write_text(json.dumps(record, indent=1))
    print(f"machine: {json.dumps(work['machine'])}; rounds: {rounds}", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
