"""Tests of the benchmark's certificate checker, tracer and metric list.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import sys
import types
from fractions import Fraction

import pytest

from certify import Certifier
from run import END_TO_END_UNITS, ROOT, SRC, WORKLOADS, per_layer_units
from spans import LAYERS, Tracer, TraceError, layer_functions, package_modules

if str(SRC) not in sys.path:
    sys.path.append(str(SRC))

from otdual import cli  # noqa: E402


def _report(tmp_path, verb, *flags, size="4x4", seed=7):
    instance = tmp_path / f"instance-{size}-{seed}.json"
    if not instance.exists():
        assert cli.main(["gen", f"--seed={seed}", "--size", size, "-o", str(instance)]) == 0
    out = tmp_path / "report.json"
    assert cli.main([verb, str(instance), *flags, "-o", str(out)]) == 0
    return str(instance), json.loads(instance.read_text()), json.loads(out.read_text())


def _shift(value, delta):
    if isinstance(value, str):
        return str(Fraction(value) + Fraction(delta))
    return value + float(Fraction(delta))


def _coupling_moved(report, key):
    report["result"][key][0][0] = _shift(report["result"][key][0][0], "1/1000")


def _potential_raised(report, key):
    report["result"][key]["f"][0] = _shift(report["result"][key]["f"][0], "1/1000")


def _witness_raised(report, key):
    report["result"][key][1] = _shift(report["result"][key][1], "1/1000")


PERTURBATIONS = [
    ("solve", "rational", _coupling_moved, "coupling_alpha"),
    ("solve", "rational", _coupling_moved, "coupling_alpha_star"),
    ("solve", "rational", _potential_raised, "potentials_beta"),
    ("solve", "rational", _potential_raised, "potentials_beta_star"),
    ("solve", "float", _coupling_moved, "coupling_alpha"),
    ("solve", "float", _potential_raised, "potentials_beta"),
    ("wasserstein", "rational", _coupling_moved, "coupling"),
    ("wasserstein", "rational", _witness_raised, "witness_f"),
    ("wasserstein", "float", _coupling_moved, "coupling"),
    ("wasserstein", "float", _witness_raised, "witness_f"),
]


@pytest.mark.parametrize("verb, mode, perturb, key", PERTURBATIONS)
def test_perturbed_reports_are_rejected(tmp_path, verb, mode, perturb, key):
    path, doc, report = _report(tmp_path, verb, "--mode", mode)
    assert Certifier().check(verb, doc, report, mode, path) == []
    bad = copy.deepcopy(report)
    perturb(bad, key)
    assert Certifier().check(verb, doc, bad, mode, path)


def test_dependent_verbs_need_and_match_the_certified_values(tmp_path):
    certifier = Certifier()
    path, doc, chain = _report(tmp_path, "chain")
    assert certifier.check("chain", doc, chain, "rational", path)  # nothing certified yet
    _, _, solve = _report(tmp_path, "solve")
    assert certifier.check("solve", doc, solve, "rational", path) == []
    assert certifier.check("chain", doc, chain, "rational", path) == []
    for verb, flags, key in (
        ("chain", (), "alpha_star"),
        ("partition", ("--lipschitz", "24", "--eps", "12"), "beta"),
        ("extend", (), "alpha"),
        ("approx", (), "beta_star_base"),
    ):
        _, _, report = _report(tmp_path, verb, *flags)
        assert certifier.check(verb, doc, report, "rational", path) == []
        report["result"][key] = _shift(report["result"][key], "1/1000")
        assert certifier.check(verb, doc, report, "rational", path), verb


def test_cover_and_arveson_certificates(tmp_path):
    certifier = Certifier()
    path, doc, cover = _report(tmp_path, "cover", size="8x4", seed=3)
    assert certifier.check("cover", doc, cover, "rational", path) == []
    _, _, arveson = _report(tmp_path, "arveson", size="8x4", seed=3)
    assert certifier.check("arveson", doc, arveson, "rational", path) == []
    shrunk = copy.deepcopy(cover)
    shrunk["result"]["cover_a"] = shrunk["result"]["cover_a"][1:]
    shrunk["result"]["cover_b"] = shrunk["result"]["cover_b"][1:]
    assert Certifier().check("cover", doc, shrunk, "rational", path)


def _renamed(module_name, function_name):
    def function(path):
        return path

    function.__name__ = function_name
    function.__module__ = module_name
    module = types.ModuleType(module_name)
    setattr(module, function_name, function)
    return module


@pytest.mark.parametrize("module_name, function_name, message", [
    ("otdual.lp", "_simplex_maximize", "otdual.lp has no public function"),
    ("otdual.instances", "read_instance", "otdual.instances.load_instance"),
])
def test_a_renamed_boundary_fails_the_trace(module_name, function_name, message):
    modules = dict(package_modules())
    modules[module_name] = _renamed(module_name, function_name)
    with pytest.raises(TraceError, match=message):
        layer_functions(modules)


def test_tracer_wraps_every_layer_and_restores_the_package(tmp_path):
    instance = tmp_path / "instance.json"
    assert cli.main(["gen", "--seed=1", "--size", "4x4", "-o", str(instance)]) == 0
    original = cli.solve_alpha
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve_alpha is not original
        code = cli.main(["solve", str(instance), "-o", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0 and cli.solve_alpha is original
    summary = tracer.layer_summary()
    assert set(summary) == set(LAYERS)
    assert [(s[0], s[1]) for s in tracer.root_spans()] == [("cli", "main")]
    # five solves and two coupling checks
    assert summary["transport"]["calls"] == 7 and tracer.counts["transport.cells"] == 5 * 16
    report = (tmp_path / "report.json").read_bytes()
    elapsed = json.loads(report)["elapsed_seconds"]
    assert tracer.counts["cli.bytes_out"] == len(report) - len(json.dumps(elapsed))


def test_benchmark_json_lists_the_metrics_and_workloads_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
