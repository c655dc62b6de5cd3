"""One workload run in a fresh process: import holodet, warm up, run the closed loop.

Started by run.py with BLAS pinned to one thread.  It prints ``READY`` once
holodet is imported and one untimed warm-up op has passed its oracle, then
``SCALE <s>`` from a few units of the reference kernel (``speed.py``), then
runs ops one after another (each sent only after the previous returns) until
the time is up, and writes ``result.json`` to its run directory.  With
``--trace 1`` it runs each op twice, untraced and with spans installed, in
alternating order, and writes ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import spans
import speed
import workloads

#: At most this many diverted probe ops run after the timed loop.
PROBE_LIMIT = 12
#: Reference kernel units timed right after set-up.
SETUP_REF_UNITS = 8


def run_one(prog, workload, op):
    """(latency_s, values, error kind or None, result); a failure is never retried."""
    t0 = time.perf_counter()
    try:
        result = workload.run(prog, op)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, 0, workloads.error_kind(exc), None
    latency = time.perf_counter() - t0
    try:
        return latency, workload.check(op, result), None, result
    except workloads.WrongValue:
        return latency, 0, "WrongValue", result


class Records:
    """Per-op outcomes in flat arrays, so the harness adds little to the child's memory."""

    def __init__(self):
        self.latency_s = array("d")
        self.values = array("q")
        self.errors: dict[int, str] = {}

    def add(self, latency: float, values: int, error: str | None) -> None:
        if error is not None:
            self.errors[len(self.values)] = error
        self.latency_s.append(latency)
        self.values.append(values)

    def to_json(self) -> dict:
        return {"latency_s": self.latency_s.tolist(), "values": self.values.tolist(),
                "errors": sorted(self.errors.items())}


def closed_loop(prog, workload, stream, seconds, records: Records, ref: speed.Reference):
    """Run ops until ``seconds`` pass; return (ops drawn, first probes, wall).

    Ops flagged as probes are drawn but set aside, not run.  After each op
    the reference kernel runs until it has taken ``speed.SHARE`` of the loop's
    time so far, so its samples are spread over the run like the ops.  The
    wall time returned leaves the kernel's time out.
    """
    drawn, probes = 0, []
    start = time.perf_counter()
    deadline = start + seconds
    for op in stream:
        drawn += 1
        if op.get("probe"):
            if len(probes) < PROBE_LIMIT:
                probes.append(op)
            continue
        records.add(*run_one(prog, workload, op)[:3])
        now = time.perf_counter()
        ref.keep_up(now - start - ref.total_s, len(records.values))
        if now >= deadline:
            break
    return drawn, probes, time.perf_counter() - start - ref.total_s


def traced_pairs(prog, workload, stream, seconds, records: Records, run_dir: Path):
    """Run each op untraced and traced, in alternating order, until ``seconds`` pass.

    Return (ops drawn, ops paired, per-layer metrics).  The two runs of an op
    are moments apart, so the overhead ratio compares like with like even
    while the machine's speed drifts.  Spans are installed only around the
    traced run; the untraced run is the unmodified program.
    """
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name.startswith("holodet.")}
    tracer = spans.Tracer()
    conditioning = 0.0
    walls = [0.0, 0.0]  # untraced, traced
    drawn = paired = 0
    deadline = time.perf_counter() + seconds
    for op in stream:
        drawn += 1
        if op.get("probe"):
            continue
        for traced in (False, True) if paired % 2 == 0 else (True, False):
            if traced:
                tracer.op = paired
                tracer.install(modules, prog)
            try:
                start = time.perf_counter()
                latency, values, error, result = run_one(prog, workload, op)
                walls[traced] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            records.add(latency, values, error)
            if traced and workload.conditioning is not None and error is None:
                conditioning = max(conditioning, workload.conditioning(result))
        paired += 1
        if time.perf_counter() >= deadline:
            break
    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = spans.layer_metrics(tracer.spans, walls[True], paired)
    metrics["polarization.conditioning_max"] = conditioning
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    return drawn, paired, walls[True], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="exit after the warm-up op (a set-up time sample)")
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    prog = workloads.load_program()
    warmup_error = run_one(prog, workload, workload.warmup(str(args.run_dir)))[2]
    print("READY", flush=True)
    # the machine's speed right after set-up, to put the set-up time in reference time
    ref = speed.Reference()
    for _ in range(SETUP_REF_UNITS):
        ref.unit()
    print(f"SCALE {ref.scale()!r}", flush=True)
    if args.setup_only:
        return 0 if warmup_error is None else 1

    import holodet
    import numpy

    out = {"warmup_error": warmup_error, "holodet_file": holodet.__file__,
           "numpy": numpy.__version__, "python": sys.version.split()[0]}
    records = Records()
    stream = workload.ops(args.seed, str(args.run_dir))
    if args.trace:
        drawn, paired, wall, metrics = traced_pairs(prog, workload, stream, args.seconds,
                                                    records, args.run_dir)
        out.update(trace=metrics, traced_wall_s=wall, traced_ops=paired)
    else:
        ref = speed.Reference()
        drawn, probes, wall = closed_loop(prog, workload, stream, args.seconds, records, ref)
        out.update(wall_s=wall, peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   ref_scale=ref.scale(), ref_unit_s=ref.unit_s.tolist(),
                   ref_unit_at=ref.unit_at.tolist())
        out["probe"] = [run_one(prog, workload, op)[2] for op in probes]
    out["records"] = records.to_json()
    out["summary"] = workload.summary(
        list(itertools.islice(workload.ops(args.seed, str(args.run_dir)), drawn)))
    (args.run_dir / "result.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
