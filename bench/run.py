"""holodet benchmark: one seeded workload, checked against independent oracles.

    python3 bench/run.py --workload torus_sweep --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Set-up is sampled in SETUP_RUNS fresh child
processes; the last one also runs the closed loop (one client, each op sent
after the previous one returns).  Children pin BLAS to one thread.  The
report goes to stdout, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Everything a run
writes stays under .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
TAIL_BLOCK = 100
#: A run must end within RUN_MARGIN_S + RUN_FACTOR * --seconds, children included.
RUN_MARGIN_S = 60.0
RUN_FACTOR = 2.0

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_REASON = ("one client op at a time on a 2-core machine; with default OpenBLAS "
               "threading the first lstsq stalled for 0.84 s in a probe")


class BenchError(Exception):
    """The harness could not complete a run."""


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it.

    For n sorted samples that is rank n - 10, the 100 (n - 10) / n percentile.
    With fewer than 11 samples no percentile qualifies and the maximum is
    returned as the 100th.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def block_tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, blocks): the median of ``tail_latency`` over blocks of the run.

    The ops are cut into ``len // TAIL_BLOCK`` consecutive blocks of near-equal
    size (one block for a shorter run).  A single extreme percentile over
    thousands of ops is set by a handful of stalls; per block the rule gives
    about the 90th percentile, and the median over blocks is steady from run
    to run.
    """
    n = len(latencies)
    k = max(1, n // TAIL_BLOCK)
    tails = [tail_latency(latencies[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return statistics.median(t[0] for t in tails), statistics.median(t[1] for t in tails), k


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """(metrics in reference time, the same in wall-clock time, details printed beside them).

    ``setups`` holds (set-up wall time, reference scale) per child start.  A
    wall time times its scale is a reference time (see ``speed.py``): the
    run's mean scale for the throughput, each op's local scale for latencies.
    """
    records = result["records"]
    failed = dict(records["errors"])
    # a failed op counts as missing any latency limit
    latencies = [math.inf if i in failed else lat for i, lat in enumerate(records["latency_s"])]
    attempted = len(latencies)
    scales = speed.op_scales(result["ref_unit_at"], result["ref_unit_s"], attempted)
    ref_latencies = [lat * k for lat, k in zip(latencies, scales)]
    tail, pct, blocks = block_tail_latency(latencies)
    wall = {
        "throughput_per_s": (sum(records["values"]) / result["wall_s"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "fail_ratio": (len(failed) / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    metrics = dict(wall)
    metrics["throughput_per_s"] = (wall["throughput_per_s"][0] / result["ref_scale"], "1/s")
    metrics["latency_p50_ms"] = (1e3 * statistics.median(ref_latencies), "ms")
    metrics["latency_tail_ms"] = (1e3 * block_tail_latency(ref_latencies)[0], "ms")
    metrics["setup_s"] = (statistics.median(s * k for s, k in setups), "s")
    details = {
        "latency_tail_ms": (f"median over {blocks} block(s) of about "
                            f"{attempted // blocks} ops of the p{pct:.4g} latency"),
        "setup_s": f"median of {len(setups)} child starts",
        "fail_ratio": f"{len(failed)}/{attempted} ops failed",
    }
    return metrics, wall, details


def _git_commit(root: Path) -> str:
    """HEAD of the git repository whose top level is ``root``, else ``unknown``."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = proc.stdout.split()
    if proc.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == root.resolve():
        return out[1]
    return "unknown"


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(seed: int, child: dict) -> dict:
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "blas_reason": BLAS_REASON,
        "python": child["python"],
        "numpy": child["numpy"],
        "platform": platform.platform(),
        "commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
    }


def _read_line(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    return proc.stdout.readline().strip() if ready else ""


def run_child(args, run_dir: Path, deadline: float, setup_only: bool) -> tuple[float, float]:
    """Start a child and wait for it to end; return its set-up time and reference scale."""
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = _read_line(proc, deadline)
        setup = time.perf_counter() - start
        if line != "READY":
            raise BenchError(f"child did not become ready (got {line!r})")
        line = _read_line(proc, deadline)
        if not line.startswith("SCALE "):
            raise BenchError(f"child sent no reference scale (got {line!r})")
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        if code != 0:
            raise BenchError(f"child exited with code {code}")
        return setup, float(line.split()[1])
    except subprocess.TimeoutExpired:
        raise BenchError("child ran past the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _tally(errors) -> dict:
    out: dict[str, int] = {}
    for err in errors:
        if err is not None:
            out[err] = out.get(err, 0) + 1
    return out


def _layer_lines(workload, metrics: dict, traced_wall_s: float, traced_ops: int) -> list[str]:
    lines = [f"{'layer':18} {'calls/op':>10} {'self ms/op':>11} {'error ratio':>11}"]
    total = metrics["harness.self_ms_per_op"]
    for layer in spans.LAYERS:
        lines.append(f"{layer:18} {metrics[f'{layer}.calls_per_op']:10.2f} "
                     f"{metrics[f'{layer}.self_ms_per_op']:11.4f} "
                     f"{metrics[f'{layer}.error_ratio']:11.3g}")
        total += metrics[f"{layer}.self_ms_per_op"]
    wall_ms = 1e3 * traced_wall_s / traced_ops
    lines.append(f"{'harness':18} {'':10} {metrics['harness.self_ms_per_op']:11.4f}")
    lines.append(f"layer self times + harness = {total:.4f} ms/op; "
                 f"traced wall = {wall_ms:.4f} ms/op over {traced_ops} ops")
    share = sum(metrics[f"{layer}.self_ms_per_op"] for layer in workload.dominant) / wall_ms
    verdict = "held" if share > 0.5 else "did not hold"
    lines.append(f"predicted dominant layer {' + '.join(workload.dominant)}: "
                 f"{100 * share:.1f}% of traced wall, prediction {verdict}")
    lines.append(f"polarization.conditioning_max = {metrics['polarization.conditioning_max']:.6g}; "
                 f"trace.overhead_ratio = {metrics['trace.overhead_ratio']:.4f}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_MARGIN_S + RUN_FACTOR * args.seconds
    if not (ROOT / "src" / "holodet" / "__init__.py").is_file():
        print(f"error: no holodet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workloads.write_inputs(args.workload, args.seed, run_dir)
    try:
        setups = [run_child(args, run_dir, deadline, setup_only=True)
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        setups.append(run_child(args, run_dir, deadline, setup_only=False))
    except BenchError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    if not Path(result["holodet_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: child imported holodet from {result['holodet_file']}", file=sys.stderr)
        return 1

    records = result["records"]
    errors = [err for _, err in records["errors"]]
    attempted, failed = len(records["latency_s"]), len(errors)
    probe = result.get("probe", [])
    # a probe op may fail (that is the known defect), but never with a wrong value
    correct = failed == 0 and result["warmup_error"] is None and "WrongValue" not in probe
    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(args.seed, result),
              "input_shares": result["summary"], "failures_by_type": _tally(errors)}
    print(f"holodet benchmark: {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    print("stamp " + json.dumps(report["stamp"], sort_keys=True))
    print("input shares " + json.dumps(result["summary"], sort_keys=True))
    print("failures by type " + json.dumps(report["failures_by_type"], sort_keys=True))
    if probe:
        report["probe"] = {"attempted": len(probe), "by_type": _tally(probe)}
        print(f"known-defect probe (canonical Im > {workloads.TORUS_TIMED_MAX:g}, untimed): "
              f"{len(probe)} ops, failures {json.dumps(_tally(probe), sort_keys=True)}")

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["trace"].items()}
        for line in _layer_lines(workload, result["trace"], result["traced_wall_s"],
                                 result["traced_ops"]):
            print(line)
    else:
        e2e, wall, details = end_to_end(result, setups)
        print(f"reference time: {len(result['ref_unit_s'])} kernel units in the loop, scale "
              f"{result['ref_scale']:.4g} (speed.NOMINAL_S / mean unit time)")
        print(f"{'metric':18} {'reference':>14} {'wall clock':>14}")
        for name, (value, unit) in e2e.items():
            extra = f"  ({details[name]})" if name in details else ""
            print(f"{name:18} {value:14.6g} {wall[name][0]:14.6g} {unit}{extra}")
        # fail_ratio is printed above; its median over runs is 0 on every
        # workload, so a bound relative to it is undefined and it is not compared
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items() if name != "fail_ratio"}
        report["fail_ratio"] = e2e["fail_ratio"][0]
        report["wall_clock"] = {name: value for name, (value, _) in wall.items()}
        report["ref_scale"] = result["ref_scale"]
    report["metrics"] = metrics
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True),
                                         encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("calls_per_op"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
