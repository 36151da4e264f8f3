"""Tests of the benchmark itself (not of linwalk).  Run from the repo root:

    python3 -m pytest -q perfbench
"""
import json
import sys
import types

import numpy as np
import pytest

import run
import spans
from measure import PER_LAYER, REFERENCE, check_records, run_pass
from workloads import WORKLOADS, GaitBatch, RelaxCold, SweepCold, ValidateRk4
import linwalk.gaits
from linwalk.gaits import NoRelaxTimeError
from linwalk.model import StrideTiming, default_params


def S(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_on_a_synthetic_tree():
    tree = [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 3.0, 6.0, parent=0),      # overlaps a: the union counts once
        S("a1", 2.0, 3.0, parent=1),
        S("c", 9.0, 12.0, parent=0),     # clipped to the parent's interval
        S("root", 20.0, 21.0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    table = spans.layer_table(tree, names=("root", "a", "b", "a1", "c", "idle"))
    assert table["idle"] == {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
    assert table["root"]["calls"] == 2
    assert table["root"]["self_s"] == pytest.approx(5.0)
    assert table["root"]["total_s"] == pytest.approx(11.0)
    assert spans.top_level_time(tree) == pytest.approx(11.0)
    assert spans.count_under(tree, "a1", "root") == 1
    assert spans.count_under(tree, "a", "b") == 0


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def double(x, *, plus=0):
        """Doubles."""
        return 2 * x + plus

    def fails():
        raise KeyError("boom")

    mod.double, mod.fails = double, fails
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_wrappers_are_transparent_and_restored(fake_module):
    originals = (fake_module.double, fake_module.fails)
    tracer = spans.Tracer()
    layers = ((fake_module.__name__, "double", "fake.double"),
              (fake_module.__name__, "fails", "fake.fails"))
    with spans.Wrapped(tracer, layers):
        assert fake_module.double is not originals[0]
        assert fake_module.double.__doc__ == "Doubles."
        assert fake_module.double(3, plus=1) == 7     # op None: no span
        assert tracer.spans == []
        tracer.op = 5
        assert fake_module.double(3, plus=1) == 7
        with pytest.raises(KeyError):
            fake_module.fails()
    assert (fake_module.double, fake_module.fails) == originals
    assert [(s.name, s.op, s.error) for s in tracer.spans] == [
        ("fake.double", 5, False), ("fake.fails", 5, True)]


def test_a_missing_site_fails_and_leaves_nothing_wrapped(fake_module):
    original = fake_module.double
    layers = ((fake_module.__name__, "double", "fake.double"),
              (fake_module.__name__, "absent", "fake.absent"))
    with pytest.raises(AttributeError):
        spans.Wrapped(spans.Tracer(), layers)
    assert fake_module.double is original


def test_linwalk_wrappers_keep_outputs_and_are_restored():
    timing = StrideTiming(T_ds=0.3, T_ss=0.56)
    body = default_params("adult")
    plain = linwalk.gaits.synthesize_gait(body, timing, 1.0, "stage-walk")
    saved = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.LAYERS}
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.Wrapped(tracer):
        traced = linwalk.gaits.synthesize_gait(body, timing, 1.0, "stage-walk")
    tracer.op = None
    assert np.array_equal(plain.Q0, traced.Q0)
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in saved.items())
    names = {s.name for s in tracer.spans}
    assert {"gaits.synthesize_gait", "gaits.build_periodicity",
            "gaits.null_basis", "gaits.solve_eqp"} <= names


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    made = [WORKLOADS[name](seed) for seed in (7, 7, 8)]
    try:
        first, again, other = ([w.op_input(k) for k in range(3)] for w in made)
        assert _same(first, again)
        assert not _same(first, other)
        if name == "gait-batch":
            assert made[0].timings == made[1].timings
            assert made[0].timings != made[2].timings
    finally:
        for w in made:
            w.close()


def _perturb(name, rec):
    if name == "sweep-cold":
        rec["economy"][0] *= 1.0 + 1e-8
    elif name == "gait-batch":
        i = int(np.argmax(np.abs(rec["Q0"])))
        rec["Q0"][i] *= 1.0 + 1e-8
    elif name == "relax-cold":
        rec["T_relax"] *= 1.0 + 1e-8
    else:
        rec["discrepancy"][0] += 1e-8 * rec["scale"]


@pytest.mark.parametrize("cls", [SweepCold, GaitBatch, RelaxCold, ValidateRk4])
def test_perturbed_reference_is_a_failed_op(cls):
    reference = json.loads(REFERENCE.read_text())[cls.name]
    w = cls.__new__(cls)          # the checks need no inputs or set-up
    records = [dict(json.loads(json.dumps(r)), k=k, latency_s=0.0, error=None)
               for k, r in enumerate(reference[:2])]
    assert check_records(w, records, reference) == []
    _perturb(cls.name, records[1])
    failures = check_records(w, records, reference)
    assert [k for k, _ in failures] == [1]
    assert "reference" in failures[0][1]


def test_an_op_that_raises_is_a_failed_op():
    class Raises:
        name, salt = "raises", 0

        def __init__(self):
            self.seed = 0

        def op_input(self, k):
            return k

        def before_op(self, k):
            pass

        def run_op(self, k):
            if k == 1:
                raise NoRelaxTimeError("a linwalk error, not expected here")
            return k

        def summarize(self, k, out):
            return {"out": out}

        def check(self, rec, ref):
            return []

    w = Raises()
    got = run_pass(w, n_ops=3)
    assert [r["error"] for r in got["records"]] == [
        None, "raised NoRelaxTimeError", None]
    assert check_records(w, got["records"], None) == [
        (1, "raised NoRelaxTimeError")]
    assert len(got["relative"]) == 2        # left out of op_p50_cal


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    fake = {"latencies_s": [0.1, 0.2], "units": [1, 1], "busy_s": 0.3,
            "peak_rss_mb": 80.0, "relative": [10.0, 20.0]}
    reported = run.end_to_end(fake, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in reported.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in PER_LAYER]
