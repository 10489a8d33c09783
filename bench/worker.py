"""Run whole rounds of one workload in this fresh process.

Started by run.py with BLAS/OpenMP threads limited to 1.  Imports the
package from the checkout's src/, optionally wraps its functions for
tracing, calls `twemac_jcf.cli.main(argv)` for each operation with the
result written to a temporary file, and writes what it saw as JSON to
--result.  Checking happens in run.py, after this process has ended.

The worker pins itself to one CPU and runs speedprobe.py on the same CPU
while it works; each operation records the mean probe sample taken during
it, which run.py uses to rescale wall times to a reference host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import round_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def read_rows(path: Path) -> list:
    """Data rows of a CLI CSV file: '#' metadata lines, a header, rows."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def run_op(cli, op, out: Path) -> dict:
    record = {"label": op.label, "argv": list(op.argv)}
    start = time.perf_counter()
    record["start"] = start
    try:
        code = cli.main(list(op.argv) + ["--out", str(out)])
    except SystemExit as exc:  # argparse and parser.exit report usage errors this way
        code = exc.code
    except Exception as exc:  # an operation that raises is counted as failed
        code = f"{type(exc).__name__}: {exc}"
    record["wall_s"] = time.perf_counter() - start
    if code not in (0, None):
        record["error"] = f"cli.main returned {code!r}"
        return record
    try:
        record["rows"] = read_rows(out)
        curves = Path(str(out) + ".curves.csv")
        if curves.exists():
            record["curve_rows"] = len(read_rows(curves))
    except (OSError, IndexError) as exc:
        record["error"] = f"unreadable output: {exc!r}"
    return record


def start_probe(cpu: int, path: Path) -> subprocess.Popen:
    probe = subprocess.Popen([sys.executable, str(BENCH / "speedprobe.py"), str(cpu), str(path)],
                             stdout=subprocess.PIPE, text=True)
    if probe.stdout.readline().strip() != "ready":
        probe.kill()
        probe.wait()
        raise RuntimeError("the speed probe did not start")
    return probe


def stop_probe(probe: subprocess.Popen, path: Path) -> list:
    """Stop the probe and return its samples, (start, seconds) pairs."""
    probe.terminate()
    try:
        probe.wait(timeout=10)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.wait()
    probe.stdout.close()
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)


def attach_probe(ops: list, samples: list) -> None:
    """Mean probe sample during each operation (the 5 nearest if fewer fell in it)."""
    for op in ops:
        start, end = op["start"], op["start"] + op["wall_s"]
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < 5:
            mid = 0.5 * (start + end)
            inside = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:5]]
        op["probe_n"] = len(inside)
        op["probe_s"] = sum(inside) / len(inside)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import twemac_jcf
    import twemac_jcf.cli as cli

    if Path(twemac_jcf.__file__).resolve().parent != ROOT / "src" / "twemac_jcf":
        raise SystemExit(f"twemac_jcf imported from {twemac_jcf.__file__}, not from this checkout")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(twemac_jcf)

    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe_file = Path(args.result).with_suffix(".probe.json")
    probe = start_probe(cpu, probe_file)
    tmp_dir = Path(args.result).with_suffix(".out")
    tmp_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            for i, op in enumerate(round_ops(args.workload, args.seed, rounds)):
                record = run_op(cli, op, tmp_dir / f"r{rounds}-op{i}.csv")
                record["round"] = rounds
                ops.append(record)
            rounds += 1
            # stop before a round of average length would overrun --seconds
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        samples = stop_probe(probe, probe_file)
    attach_probe(ops, samples)

    machine = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    result = {
        "ops": ops,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine,
        "probe_samples": len(samples),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "rounds": rounds})
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
