"""Fast checks of the benchmark's own logic, at sizes that run in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import qdims.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import ROOT_SPAN, Span, Tracer, installed, pass_layers, self_times  # noqa: E402


def _span(span_id, parent, start, end, name="x"):
    return Span(name=name, pass_id=0, span_id=span_id, parent=parent, start=start, end=end)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 1, 2.0, 3.0),
            _span(3, 0, 5.0, 9.0),
        ]
        assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})

    def test_overlapping_children_count_once(self):
        spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_child_clipped_to_parent(self):
        spans = [_span(0, None, 0.0, 2.0), _span(1, 0, 1.0, 5.0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_layers_account_for_the_pass(self):
        spans = [
            _span(0, None, 0.0, 10.0, ROOT_SPAN),
            _span(1, 0, 1.0, 4.0, "systems.sample"),
            _span(2, 1, 2.0, 3.0, "singular.svd"),
            _span(3, 0, 5.0, 9.0, "systems.sample"),
        ]
        layers = pass_layers(spans, Counter({"empirical.binnings": 4,
                                             "empirical.binned_samples": 2}))
        assert layers["systems.sample_s"] == pytest.approx(6.0)
        assert layers["singular.svd_s"] == pytest.approx(1.0)
        assert layers["bench.unattributed_s"] == pytest.approx(3.0)
        assert layers["trace.wall_s"] == pytest.approx(10.0)
        self_sum = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.wall_s")
        assert self_sum == pytest.approx(10.0)
        assert layers["empirical.binnings_per_sample"] == 2.0
        assert layers["theory.svf_calls_per_solve"] == 0.0


class TestAggregation:
    def test_pass_medians_split_traced_and_skip_failed(self):
        ref = calibrate.REFERENCE_S
        passes = [
            {"traced": False, "wall_s": 3.0, "cpu_s": 2.0, "kernel_s": 2 * ref},
            {"traced": False, "wall_s": 1.0, "cpu_s": 1.0, "kernel_s": 2 * ref},
            {"traced": False, "wall_s": float("nan"), "cpu_s": float("nan"),
             "kernel_s": 2 * ref},
            {"traced": False, "wall_s": 2.0, "cpu_s": 9.0, "kernel_s": 2 * ref},
            {"traced": True, "wall_s": 5.0, "cpu_s": 5.0, "kernel_s": 2 * ref},
            {"traced": True, "wall_s": 7.0, "cpu_s": 6.0, "kernel_s": 2 * ref},
        ]
        # the kernel ran twice as long as its reference time around every
        # pass, so each time in reference seconds is half the measured one
        got = worker.pass_medians(passes, kernel_before=2 * ref)
        assert got == pytest.approx({
            "kernel_s": 2 * ref,
            "measured_wall_s": 2.0, "measured_cpu_s": 2.0, "wall_s": 1.0, "cpu_s": 1.0,
            "traced_measured_wall_s": 6.0, "traced_measured_cpu_s": 5.5,
            "traced_wall_s": 3.0, "traced_cpu_s": 2.75})

    def test_each_pass_is_scaled_by_the_kernels_beside_it(self):
        ref = calibrate.REFERENCE_S
        # the machine slows to half speed for the second pass and stays slow
        passes = [{"traced": False, "wall_s": 1.0, "cpu_s": 1.0, "kernel_s": ref},
                  {"traced": False, "wall_s": 2.0, "cpu_s": 2.0, "kernel_s": 2 * ref},
                  {"traced": False, "wall_s": 2.0, "cpu_s": 2.0, "kernel_s": 2 * ref}]
        got = worker.pass_medians(passes, kernel_before=ref)
        assert got["wall_s"] == pytest.approx(1.0)
        assert got["measured_wall_s"] == 2.0

    def test_reference_kernel_is_deterministic(self):
        assert calibrate.kernel() == calibrate.kernel()
        assert calibrate.measure() > 0

    def test_layer_medians(self):
        per_pass = [{"a_s": 1.0, "n": 4.0}, {"a_s": 3.0, "n": 4.0}, {"a_s": 2.0, "n": 4.0}]
        assert worker.layer_medians(per_pass) == {"a_s": 2.0, "n": 4.0}

    def test_fail_fraction_counting(self):
        totals = {"attempted": 0, "failed": 0, "failures": []}
        worker.tally([("a", True), ("b", False), ("c", True)], totals)
        worker.tally([("pass raised", False)], totals)
        assert (totals["attempted"], totals["failed"]) == (4, 2)
        assert totals["failures"] == ["b", "pass raised"]
        res = {"failed": 2, "attempted": 4, "metrics": {"wall_s": 1.5}}
        out = run.summary(res, {"wall_s": "s"})
        assert out == {"correct": False, "attempted": 4, "failed": 2,
                       "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}

    def test_summary_rejects_metric_names_off_the_spec(self):
        res = {"failed": 0, "attempted": 1, "metrics": {"wall_s": 1.0, "extra": 2.0}}
        with pytest.raises(run.BenchError):
            run.summary(res, {"wall_s": "s"})


def _site_objects():
    out = []
    for module, path, _, _ in tracing.SITES:
        owner, attr = tracing._owner(module, path)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def _tiny_config(tmp_path) -> str:
    raw = {
        "system": {"kind": "similar", "dim": 1, "ratios": [[1 / 3, 1 / 3]]},
        "translations": {"kind": "finite-set", "vectors": [[0.0], [2 / 3]]},
        "measure": {"p": [[0.75, 0.25]]},
        "q": [0.5, 2],
        "scales": {"base": 2, "min_exp": 3, "max_exp": 8},
        "samples": 20000,
        "seed": 3,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestWrappers:
    def test_traced_pass_records_layers_and_restores_every_site(self, tmp_path, capsys):
        before = _site_objects()
        tracer = Tracer()
        with installed(tracer) as sites:
            assert sites.missing == []
            assert qdims.cli.main is not before[0][2]
            tracer.begin_pass(0)
            rc = qdims.cli.main(["compare", "--config", _tiny_config(tmp_path),
                                 "--out", str(tmp_path / "out")])
            tracer.end_pass()
        assert rc == 0
        for owner, attr, raw in before:
            assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} left wrapped"

        names = {s.name for s in tracer.spans}
        assert {ROOT_SPAN, "cli.command", "harness.run", "systems.sample",
                "systems.separation", "empirical.bin", "theory.solve"} <= names
        assert all(s.pass_id == 0 and not math.isnan(s.end) for s in tracer.spans)
        counts = tracer.counts[0]
        assert counts["systems.sample_points"] == 20000
        assert counts["empirical.binnings"] == 2
        assert counts["empirical.binned_samples"] == 1
        assert counts["harness.rows"] == 2

    def test_calls_outside_a_pass_are_not_recorded(self):
        tracer = Tracer()
        with installed(tracer):
            system = qdims.AffineSystem([[[[0.5, 0.0], [0.0, 0.4]], [[0.3, 0.1], [0.0, 0.3]]]])
            qdims.theory.svf_log(qdims.theory.batched_log_singular_values(
                system.linear_maps(1)), 1.0)
        assert tracer.spans == [] and tracer.counts == {}

    def test_missing_site_is_reported_not_fatal(self):
        sites = tracing.SITES + (("qdims.cli", "no_such_function", "cli.command", None),)
        before = _site_objects()
        with installed(Tracer(), sites) as inst:
            pass
        assert inst.missing == ["qdims.cli.no_such_function"]
        assert all(vars(o)[a] is raw for o, a, raw in before)


class TestSpec:
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        layers = pass_layers([_span(0, None, 0.0, 1.0, ROOT_SPAN)], Counter())
        assert {m["name"] for m in spec["per_layer"]} == set(layers) | {"trace.overhead_s"}
        assert {m["name"] for m in spec["end_to_end"]} == {
            "setup_s", "wall_s", "cpu_s", "peak_rss_mb"}

    def test_workload_registry_matches_run(self):
        import workloads

        assert tuple(workloads.WORKLOADS) == run.WORKLOADS
