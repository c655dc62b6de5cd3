"""Self-tests of the benchmark harness: statistics, spans, inputs and oracles.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

import oracles
import spans
import workloads
from child import Records, run_one, traced_pairs
from run import TAIL_BLOCK, block_tail_latency, end_to_end, tail_latency
from workloads import WrongValue


# --- tail percentile -----------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    lat = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct, n = tail_latency(lat)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in lat) == 10


def test_tail_with_twenty_samples_is_the_median_rank():
    value, pct, n = tail_latency([float(x) for x in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_tail_without_enough_samples_is_the_maximum():
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_block_tail_is_the_median_of_per_block_p90():
    # three blocks whose 90th percentiles are 1, 2 and 3 ms
    lat = []
    for level in (1.0, 3.0, 2.0):
        lat += [0.5] * (TAIL_BLOCK - 11) + [level] + [9.0] * 10
    assert block_tail_latency(lat) == (2.0, 90.0, 3)
    # a remainder shorter than a block is spread over the blocks, not dropped
    value, pct, blocks = block_tail_latency(lat + [0.5] * (TAIL_BLOCK // 2))
    assert blocks == 3 and pct > 90.0
    assert block_tail_latency(lat[:50]) == tail_latency(lat[:50])[:2] + (1,)


def test_end_to_end_metrics_from_records():
    # 30 ops of 20 ms and 2 values each in 0.6 s; op 5 failed
    result = {"records": {"latency_s": [0.02] * 30, "values": [2] * 5 + [0] + [2] * 24,
                          "errors": [[5, "BudgetError"]]},
              "wall_s": 0.6, "peak_rss_kb": 2048,
              "ref_scale": 1.0, "ref_unit_s": [0.01], "ref_unit_at": [30]}
    m, wall, _ = end_to_end(result, [(0.4, 1.0), (0.6, 1.0), (0.5, 1.0)])
    assert m == wall
    assert m["throughput_per_s"][0] == pytest.approx(58 / 0.6)
    assert m["latency_p50_ms"][0] == pytest.approx(20.0)
    assert m["latency_tail_ms"][0] == pytest.approx(20.0)
    assert m["setup_s"][0] == 0.5
    assert m["fail_ratio"][0] == pytest.approx(1 / 30)
    assert m["peak_rss_mb"][0] == 2.0


def test_reference_time_scales_times_and_throughput():
    # the machine ran at half speed: a kernel unit took twice NOMINAL_S
    result = {"records": {"latency_s": [0.04] * 20, "values": [1] * 20, "errors": []},
              "wall_s": 0.8, "peak_rss_kb": 2048,
              "ref_scale": 0.5, "ref_unit_s": [0.02] * 3, "ref_unit_at": [5, 10, 20]}
    m, wall, _ = end_to_end(result, [(0.8, 0.5), (0.9, 0.25), (0.4, 1.0)])
    assert wall["throughput_per_s"][0] == pytest.approx(25.0)
    assert m["throughput_per_s"][0] == pytest.approx(50.0)
    assert m["latency_p50_ms"][0] == pytest.approx(20.0)
    assert m["latency_tail_ms"][0] == pytest.approx(20.0)
    # each set-up sample is scaled by the speed measured right after it
    assert m["setup_s"][0] == pytest.approx(0.4)
    assert wall["setup_s"][0] == pytest.approx(0.8)
    assert m["peak_rss_mb"] == wall["peak_rss_mb"]


def test_reference_kernel_keeps_its_share():
    import speed

    ref = speed.Reference()
    ref.keep_up(0.0)
    assert len(ref.unit_s) == 0
    ref.keep_up(1.0)
    assert ref.total_s >= speed.SHARE * 1.0
    assert ref.scale() == pytest.approx(speed.NOMINAL_S * len(ref.unit_s) / sum(ref.unit_s))


def test_op_scales_follow_the_nearest_units():
    import speed

    # the machine ran at full speed for ops 0-9 and at half speed for ops 10-19
    unit_at = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    unit_s = [0.01] * 5 + [0.02] * 5
    scales = speed.op_scales(unit_at, unit_s, 20, window=2)
    assert scales[0] == scales[9] == 1.0
    assert scales[12] == scales[19] == 0.5
    # ops 10 and 11 ran between the last fast unit and the first slow one
    assert scales[10] == scales[11] == pytest.approx(2 / 3)
    assert speed.op_scales(unit_at, unit_s, 3, window=50) == pytest.approx([2 / 3] * 3)


def test_failed_ops_count_as_missing_the_tail():
    value, _, _ = tail_latency([1.0] * 10 + [math.inf] * 11)
    assert value == math.inf


# --- spans ---------------------------------------------------------------------


def test_self_time_from_nested_spans():
    """assemble_extension -> split f -> closed_form_log_det / cone_potential."""
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def closed_form_log_det():
        next(ticks)  # one tick of own work

    def cone_potential():
        next(ticks)
        next(ticks)

    cf = tracer.wrap("torus_spectral", "torus_spectral.closed_form_log_det", closed_form_log_det)
    cp = tracer.wrap("potential_builder", "potential_builder.cone_potential", cone_potential)

    def split_f():
        next(ticks)
        cf()
        cp()
        cp()

    f = tracer.wrap("extension", "extension.split_f", split_f)

    def assemble_extension():
        f()
        next(ticks)

    tracer.op = 0
    start = next(ticks)
    tracer.wrap("extension", "extension.assemble_extension", assemble_extension)()
    wall = next(ticks) - start

    names = [s[spans.NAME] for s in tracer.spans]
    parents = [s[spans.PARENT] for s in tracer.spans]
    assert names == ["extension.assemble_extension", "extension.split_f",
                     "torus_spectral.closed_form_log_det",
                     "potential_builder.cone_potential", "potential_builder.cone_potential"]
    assert parents == [-1, 0, 1, 1, 1]
    # durations: assemble 16, split f 13, closed form 2, each cone potential 3
    assert spans.self_times(tracer.spans) == [3, 5, 2, 3, 3]

    m = spans.layer_metrics(tracer.spans, wall, ops=1)
    assert m["extension.self_ms_per_op"] == 8e3
    assert m["torus_spectral.self_ms_per_op"] == 2e3
    assert m["potential_builder.self_ms_per_op"] == 6e3
    assert m["potential_builder.calls_per_op"] == 2
    assert m["harness.self_ms_per_op"] == 2e3
    total = sum(m[f"{layer}.self_ms_per_op"] for layer in spans.LAYERS)
    assert total + m["harness.self_ms_per_op"] == 1e3 * wall


def test_span_records_errors_and_unwinds():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("special_functions", "special_functions.boom", boom)
    with pytest.raises(ValueError):
        traced()
    ok = tracer.wrap("special_functions", "special_functions.ok", lambda: 1)
    assert ok() == 1
    assert [s[spans.RAISED] for s in tracer.spans] == [True, False]
    assert tracer.spans[1][spans.PARENT] == -1
    m = spans.layer_metrics(tracer.spans, 1.0, ops=2)
    assert m["special_functions.error_ratio"] == 0.5


def test_install_wraps_import_sites_and_uninstall_restores():
    prog = workloads.load_program()
    import holodet.extension as extension
    import sys

    modules = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("holodet.")}
    original = extension.cone_potential
    tracer = spans.Tracer()
    tracer.install(modules, prog)
    try:
        assert extension.cone_potential is not original
        prog.closed_form_log_det(1.5j)
        names = [s[spans.NAME] for s in tracer.spans]
        assert names[0] == "torus_spectral.closed_form_log_det"
        assert "special_functions.eta" in names
    finally:
        tracer.uninstall()
    assert extension.cone_potential is original


def test_traced_pairs_run_each_op_untraced_and_traced(tmp_path):
    import holodet.extension as extension

    prog = workloads.load_program()
    torus = workloads.WORKLOADS["torus_sweep"]
    ops = iter([workloads.torus_op(0.1 + 1.2j), workloads.torus_op(0.3 + 2.0j)])
    original = extension.cone_potential
    records = Records()
    drawn, paired, wall, m = traced_pairs(prog, torus, ops, 1e3, records, tmp_path)
    assert (drawn, paired) == (2, 2)
    assert len(records.values) == 4 and not records.errors
    assert extension.cone_potential is original
    span_ops = {json.loads(line)[spans.OP] for line in (tmp_path / "spans.jsonl").open()}
    assert span_ops == {0, 1}
    # each traced run calls the spectral and closed-form routes once
    assert m["torus_spectral.calls_per_op"] == 2
    assert m["trace.overhead_ratio"] > 0
    total = sum(m[f"{layer}.self_ms_per_op"] for layer in spans.LAYERS)
    assert math.isclose(total + m["harness.self_ms_per_op"], 1e3 * wall / paired)


# --- generated inputs ----------------------------------------------------------


def _input_bytes(name: str, seed: int, count: int = 50) -> bytes:
    """The input files and the first ``count`` ops, serialized: what a seed fixes."""
    wl = workloads.WORKLOADS[name]
    stream = wl.ops(seed, ".bench_runs/x")
    payload = {"files": wl.files(seed), "ops": [next(stream) for _ in range(count)]}
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a = _input_bytes(name, 7)
    assert a == _input_bytes(name, 7)
    assert a != _input_bytes(name, 8)


def test_torus_moduli_reduce_to_their_generated_height():
    stream = workloads.torus_ops(3, ".")
    for _ in range(200):
        op = next(stream)
        zc = oracles.reduce_modulus(complex(*op["z"]))
        assert abs(zc.imag - op["height"]) <= 1e-9 * op["height"]


# --- oracles reject perturbed values ------------------------------------------


def _fmt(v: complex) -> str:
    return f"{v.real:.15g}{v.imag:+.15g}i"


def _torus_output(z, spectral_shift=0.0, closed_shift=0.0):
    return (0, f"closed_form_log_det={oracles.torus_closed_form(z) + closed_shift:.15g}\n"
               f"spectral_log_det={oracles.torus_spectral_log_det(z) + spectral_shift:.15g}\n"
               "tail_bound=1e-12\nPASS zeta0_diagnostic residual=0 tol=1.0e-09\n")


def test_torus_oracle_rejects_perturbed_values():
    op = workloads.torus_op(workloads.apply_word("STtS", 0.2 + 40j), 40.0)
    z = complex(*op["z"])
    assert workloads.check_torus(op, _torus_output(z)) == 1
    with pytest.raises(WrongValue):
        workloads.check_torus(op, _torus_output(z, spectral_shift=1e-7))
    with pytest.raises(WrongValue):
        workloads.check_torus(op, _torus_output(z, closed_shift=1e-7))
    with pytest.raises(WrongValue):
        workloads.check_torus(op, (2, ""))


def test_grid_oracle_rejects_a_perturbed_point():
    form = workloads.potential_catalog(5)[1]["pole4"]
    op = workloads.grid_op("c.txt", "pole4", form, -0.2 + 0.6j, 0.3 + 0.7j, 0.1 - 0.5j, 9)
    rows = ["re_z,im_z,re_w,im_w,re_q,im_q"]
    w = complex(*op["w"])
    for j in range(9):
        z = -0.2 + 0.6j + (j / 8) * (0.5 + 0.1j)
        q = oracles.pole_potential(complex(*form["coefficient"]), 4, z, w,
                                   complex(*form["base_z"]), complex(*form["base_w"]))
        if j == 4:
            bad = ",".join(repr(v) for v in (z.real, z.imag, w.real, w.imag, q.real + 1e-8, q.imag))
        rows.append(",".join(repr(v) for v in (z.real, z.imag, w.real, w.imag, q.real, q.imag)))
    good = "\n".join(rows) + "\n"
    assert workloads.check_potential(op, (0, good)) == 9
    rows[5] = bad
    with pytest.raises(WrongValue):
        workloads.check_potential(op, (0, "\n".join(rows) + "\n"))


def test_gmix_oracle_rejects_a_perturbed_value():
    z, w = [0.3 + 0.2j, 0.1j], [-0.2 + 0j, 0.4 - 0.1j]
    op = workloads.gmix_op("c.txt", z, w)
    q = oracles.gmix_potential(z, w)
    assert workloads.check_potential(op, (0, f"q={_fmt(q)}\n")) == 1
    with pytest.raises(WrongValue):
        workloads.check_potential(op, (0, f"q={_fmt(q + 1e-8)}\n"))


def test_extension_oracle_rejects_a_perturbed_value():
    z, w = 0.1 + 1.1j, -0.2 - 0.9j
    op = workloads.extend_op("r.txt", z, w)
    value = oracles.split_extension(z, w)
    assert workloads.check_extend(op, (0, _fmt(value) + "\n")) == 1
    with pytest.raises(WrongValue):
        workloads.check_extend(op, (0, _fmt(value + 1e-7j) + "\n"))


def test_disc_oracle_rejects_a_perturbed_fit():
    op = workloads.disc_op(0.1 + 0.5j, 8)
    exact = SimpleNamespace(evaluate=oracles.split_extension)
    off = SimpleNamespace(evaluate=lambda z, w: oracles.split_extension(z, w) + 1e-4)
    assert workloads.check_diag(op, (exact, 1e-9)) == 1
    with pytest.raises(WrongValue):
        workloads.check_diag(op, (exact, 2e-5))
    with pytest.raises(WrongValue):
        workloads.check_diag(op, (off, 1e-9))


def test_oracle_matches_holodet_where_both_are_sound():
    from holodet.extension import ProductPoint, genus1_extension
    from holodet.special_functions import log_eta
    from holodet.torus_spectral import closed_form_log_det

    for z in (0.3 + 1.1j, -0.45 + 0.05j, 0.2 + 0.02j):
        assert abs(oracles.log_eta(z) - log_eta(z)) < 1e-10
        assert abs(oracles.torus_closed_form(z) - closed_form_log_det(z)) < 1e-9
    z, w = 0.3 + 0.7j, -0.1 - 1.3j
    expected = genus1_extension(ProductPoint(z, w)) - oracles.DIAGONAL_CONSTANT
    assert abs(oracles.split_extension(z, w) - expected) < 1e-12


# --- failure tally ---------------------------------------------------------------


def _library_workload(fn, check=None):
    return SimpleNamespace(run=lambda prog, op: fn(op), check=check)


def test_failures_are_tallied_by_type_and_never_raised():
    from holodet.torus_spectral import closed_form_log_det

    prog = workloads.load_program()
    leak = run_one(prog, _library_workload(closed_form_log_det), 1e-5j)
    assert leak[1:3] == (0, "untyped:ValueError")

    op = workloads.torus_op(0.1 + 150j, 150.0)
    escaped = run_one(prog, workloads.WORKLOADS["torus_sweep"], op)
    assert escaped[1:3] == (0, "BudgetError")

    wrong = run_one(prog, _library_workload(lambda op: 1.0, _reject), None)
    assert wrong[1:3] == (0, "WrongValue")


def _reject(op, result):
    raise WrongValue("perturbed")
