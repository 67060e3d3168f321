"""Tests for the benchmark's own logic (percentiles, spans, golden checks).

Run from the repository root: ``python -m pytest -q bench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(20) == (50, 10)
    assert run.tail_percentile(99) == (50, 49)
    assert run.tail_percentile(100) == (90, 10)
    assert run.tail_percentile(240) == (90, 24)
    assert run.tail_percentile(1000) == (99, 10)
    assert run.tail_percentile(10_000) == (99.9, 10)


def test_nearest_rank_percentile_is_an_observed_value():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    assert run.percentile([7.0, 3.0], 50) == 3.0
    assert run.percentile([7.0, 3.0], 90) == 7.0
    assert run.samples_beyond(11, 90) == 1


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("catalog.load", 1.0, 4.0, 0),
        _span("involution.validate", 2.0, 3.5, 1),
        _span("decider.answer", 5.0, 9.0, 0),
        _span("cone_kernel.simplex", 6.0, 7.0, 3),
        _span("cone_kernel.simplex", 7.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 1.5, 1.5, 1.5, 1.0, 1.5]
    m = tracing.layer_metrics(spans, stdout_bytes=0)
    assert m["cli.self_s"] == 3.0
    assert m["layer.cone_kernel.self_s"] == 2.5
    assert m["cone_kernel.simplex.calls"] == 2
    assert sum(m[f"layer.{x}.self_s"] for x in tracing.LAYERS) == 10.0


def test_lp_calls_are_attributed_to_enclosing_enumerate_and_virtsym():
    spans = [
        ["parabolic.enumerate", 0.0, 5.0, -1, 0, {"faces": 2}],
        ["cone_kernel.simplex", 1.0, 2.0, 0, 0, {"cells": 6, "feasible": True}],
        _span("parabolic.build", 2.0, 3.0, 0),
        _span("parabolic.virtsym", 6.0, 9.0, -1),
        _span("parabolic.symtype", 6.5, 7.0, 3),
        ["cone_kernel.simplex", 7.0, 8.0, 3, 0,
         {"cells": 4, "feasible": False}],
    ]
    m = tracing.layer_metrics(spans, stdout_bytes=0)
    assert m["parabolic.enumerate.lp_calls"] == 1
    assert m["parabolic.virtsym.lp_calls"] == 1
    assert m["parabolic.lp_per_face"] == 0.5
    assert m["cone_kernel.simplex.cells"] == 10
    assert m["cone_kernel.simplex.feasible_ratio"] == 0.5


def test_tracer_wraps_every_binding_and_restores_it():
    from branchdec import catalog, involution, parabolic
    from branchdec.root_core import build_root_datum, vec

    original = involution.validate_involution
    assert catalog.validate_involution is original
    datum = build_root_datum("su(1,1)")
    tracer = tracing.Tracer()
    with tracer:
        assert catalog.validate_involution is not original
        assert involution.validate_involution is catalog.validate_involution
        tracer.mark(7)
        parabolic.build_parabolic(datum, vec(1))
    assert involution.validate_involution is original
    assert catalog.validate_involution is original
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("parabolic.build", -1, 7)]


def test_golden_rows_count_a_flipped_verdict_as_a_failure():
    golden = {
        "+-0": [3, 1, "true", "true", "false", "unsupported", "true", "true"],
        "++-": [1, 3, "false", "false", "true", "true", "false", "false"],
    }
    same = [(k, list(v)) for k, v in golden.items()]
    assert workloads.compare_rows(golden, same) == (2, 0)
    flipped = [(k, list(v)) for k, v in golden.items()]
    flipped[1][1][2] = "true"
    assert workloads.compare_rows(golden, flipped) == (2, 1)
    assert workloads.compare_rows(golden, same[:1]) == (2, 1)
    assert workloads.compare_rows(golden, same + [("---", [])]) == (3, 1)


def test_golden_verdicts_check_exit_code_and_answer():
    body = '{"question": "deco", "answer": true}'
    assert workloads.check_verdict([0, True], 0, body)
    assert not workloads.check_verdict([0, False], 0, body)
    assert not workloads.check_verdict([3, None], 0, body)
    assert workloads.check_verdict([3, None], 3, "")
    assert not workloads.check_verdict([0, True], "raised KeyError: x", "")


def test_golden_faces_compare_as_a_multiset():
    assert workloads.compare_multiset(["a", "b"], ["b", "a"]) == (2, 0)
    assert workloads.compare_multiset(["a", "b"], ["a", "a"]) == (3, 2)


def test_check_stream_counts_an_injected_flipped_verdict():
    wl = workloads.CheckStream(seed=3)
    assert len(wl.stream) == 240

    def answer(expected):
        rc, ans = expected
        return rc, "" if rc else f'{{"answer": {str(ans).lower()}}}', 0, 1

    raw = [answer(expected) for _, expected in wl.stream]
    assert (wl.check(raw).attempted, wl.check(raw).failed) == (240, 0)
    i = next(i for i, (_, exp) in enumerate(wl.stream) if exp[0] == 0)
    rc, stdout, t0, t1 = raw[i]
    raw[i] = (rc, stdout.replace("true", "T").replace("false", "true")
              .replace("T", "false"), t0, t1)
    res = wl.check(raw)
    assert (res.attempted, res.failed) == (240, 1)


def test_inclusive_time_counts_outermost_spans_of_a_name_once():
    spans = [
        _span("parabolic.virtsym", 0.0, 4.0, -1),
        _span("parabolic.virtsym", 1.0, 2.0, 0),
        _span("cone_kernel.simplex", 1.5, 1.75, 1),
        _span("cone_kernel.simplex", 3.0, 3.5, 0),
    ]
    assert tracing.inclusive_times(spans) == {
        "parabolic.virtsym": 4.0, "cone_kernel.simplex": 0.75}


def test_scaled_time_removes_samples_and_divides_by_local_speed():
    import speed

    ref = speed.REFERENCE_S
    smp = speed.SpeedSampler()
    # kernel at reference speed early on, at half speed from t=10 on
    for start, kernel in ((0.5, ref), (1.0, ref), (10.5, 2 * ref),
                          (11.0, 2 * ref), (11.5, 2 * ref)):
        smp.starts.append(start)
        smp.ends.append(start + 0.01)
        smp.kernel_s.append(kernel)
    assert smp.scaled(0.0, 2.0) == pytest.approx(2.0 - 0.02)
    assert smp.scaled(10.0, 12.0) == pytest.approx((2.0 - 0.03) / 2)
    assert smp.factor(30.0, 31.0) == 2.0  # no sample near: all samples


def test_classify_sweep_counts_unparsable_output_as_failed_rows():
    wl = workloads.ClassifySweep(seed=0)
    pair = "(so(4),so(3))"
    raw = [(pair, 0, "X\tdim_levi\ndamaged row\n", 0.0, 1.0)]
    res = wl.check(raw)
    assert (res.attempted, res.failed) == (4, 4)
