"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

rmtlab = run.import_rmtlab()

SMALL_ESD = {"kind": "esd", "replicates": 3,
             "ensemble": {"n": 40, "fractions": [0.5, 0.5],
                          "law_intra": workloads.UNIFORM,
                          "law_cross": workloads.RADEMACHER, "seed": 5}}


def rmtlab_bindings():
    return {(name, attr): obj
            for name, mod in sys.modules.items()
            if name == "rmtlab" or name.startswith("rmtlab.")
            for attr, obj in vars(mod).items()}


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.setenv("RMTLAB_THREADS", "2")
    before = rmtlab_bindings()
    originals = tracing.traced_functions(rmtlab)
    tr = tracing.Tracer(rmtlab)
    with tr:
        during = rmtlab_bindings()
        for key, obj in before.items():
            if any(obj is fn for fn in originals.values()):
                assert during[key] is not obj, key
                assert during[key].__wrapped__ is obj, key
        # imported by name into other modules, so those bindings matter
        assert rmtlab.experiments.eigenvalues_sym is not \
            before[("rmtlab.spectral", "eigenvalues_sym")]
        call = run.Call(tmp_path, 0, SMALL_ESD)
        assert run.run_call(rmtlab.cli, call)[2] is None
    after = rmtlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    table = tracing.span_table(tr.spans)
    assert table["spectral.eigenvalues_sym"]["calls"] == 3
    assert table[tracing.REPLICATE_SPAN]["calls"] == 3
    runs = [s for s in tr.spans if s[1] == tracing.RUN_SPAN]
    replicates = [s for s in tr.spans if s[1] == tracing.REPLICATE_SPAN]
    assert all(s[4] == runs[0][0] for s in replicates)
    metrics = tracing.layer_metrics(tr)
    assert metrics["spectral.eigenvalues_sym.flops_computed"] == \
        3 * (4 * 40**3 // 3)
    assert 0 < metrics["experiments.replicate_overlap"] <= 2.0 + 1e-9


def test_traced_outputs_equal_untraced(tmp_path):
    call = run.Call(tmp_path, 0, SMALL_ESD)
    run.run_call(rmtlab.cli, call)
    untraced = run.outputs.fingerprint(call.out)
    with tracing.Tracer(rmtlab):
        run.run_call(rmtlab.cli, call)
    assert run.outputs.fingerprint(call.out) == untraced


def test_metric_names_are_valid_and_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tr = tracing.Tracer(rmtlab)
    with tr:
        run.run_call(rmtlab.cli, run.Call(tmp_path, 0, SMALL_ESD))
    layer = set(tracing.layer_metrics(tr)) | {
        "experiments.files_written", "experiments.bytes_written",
        "trace.overhead_s"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for name in layer | set(run.END_TO_END_UNITS):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("config, code", [
    ({"kind": "esd", "ensemble": {"n": -5}}, 2),
    ({"kind": "nope"}, 2),
])
def test_bad_config_counts_as_failure(tmp_path, config, code):
    call = run.Call(tmp_path, 0, config)
    seconds, got, failure = run.run_call(rmtlab.cli, call)
    assert got == code and failure
    bench = run.Run("dense_spectra", 0, rmtlab.cli, [call])
    bench.one_pass()
    assert (bench.attempted, bench.failed) == (1, 1)


def test_truth_check_flags_violations():
    assert workloads.truth_problems({"kind": "charfn", "witness": None})
    assert workloads.truth_problems(
        {"kind": "esd", "replicates": [{"ks_vs_semicircle": 0.2}]})
    assert not workloads.truth_problems({"kind": "walks",
                                         "all_identities_hold": True})


def test_configs_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 3) == workloads.configs(name, 3)
        assert len(workloads.configs(name, 3)) >= workloads.TIMED_CALLS
    assert workloads.configs("dense_spectra", 3) != \
        workloads.configs("dense_spectra", 4)


def test_reference_comparison_tolerance():
    ref = {"a": 1.0, "b": [1, "x", True], "c": {"d": 2.5}}
    assert not run.outputs.mismatches(
        ref, {"a": 1.0 + 1e-12, "b": [1, "x", True], "c": {"d": 2.5},
              "extra": 0})
    assert run.outputs.mismatches(ref, {"a": 1.0 + 1e-6, "b": [1, "x", True],
                                        "c": {"d": 2.5}})
    assert run.outputs.mismatches(ref, {"a": 1.0, "b": [1.0, "x", True],
                                        "c": {"d": 2.5}})
