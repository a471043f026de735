import json
import re
from fractions import Fraction as F

import pytest

import otdual as ot
from otdual import rectangles
from otdual.cli import main, run_scenario
from otdual.errors import DualityError, ParseError, ValidationError
from otdual.instances import (
    generate_instance,
    instance_to_jsonable,
    load_instance,
    parse_instance,
    save_instance,
)


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_doc():
    return {
        "arithmetic": "rational",
        "space_x": {"weights": ["1"]},
        "space_y": {"weights": ["1"]},
        "cost": {"matrix": [["7"]]},
    }


def swap_doc():
    return {
        "arithmetic": "rational",
        "space_x": {"weights": ["1/2", "1/2"], "metric": [["0", "1"], ["1", "0"]]},
        "space_y": {"weights": ["1/2", "1/2"]},
        "cost": {"matrix": [["0", "1"], ["1", "0"]]},
        "rectangles": [{"x": [0], "y": [0]}, {"x": [1], "y": [1]}],
        "partition": {"cells": [[0], [1]], "null_cell_index": None, "representatives": [0, 1]},
        "map": [0, 1],
    }


# --- loading -----------------------------------------------------------------

def test_minimal_instance_loads(tmp_path):
    instance = load_instance(write(tmp_path, minimal_doc()))
    assert instance.space_x.size == 1
    assert instance.cost.values == ((7,),)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_instance(str(tmp_path / "nope.json"))


def test_invalid_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_instance(str(path))


def test_bad_weights_name_the_defect(tmp_path):
    doc = minimal_doc()
    doc["space_x"]["weights"] = ["1/2", "1/10"]
    doc["space_y"]["weights"] = ["1"]
    doc["cost"] = {"matrix": [["1"], ["2"]]}
    with pytest.raises(ValidationError) as info:
        load_instance(write(tmp_path, doc))
    assert "space_x" in str(info.value)


def test_cost_shape_mismatch_rejected(tmp_path):
    doc = minimal_doc()
    doc["cost"] = {"matrix": [["1", "2"]]}
    with pytest.raises(ValidationError):
        load_instance(write(tmp_path, doc))


def test_bad_number_string_is_a_parse_error(tmp_path):
    doc = minimal_doc()
    doc["cost"] = {"matrix": [["seven"]]}
    with pytest.raises(ParseError):
        load_instance(write(tmp_path, doc))


def test_map_range_validated(tmp_path):
    doc = swap_doc()
    doc["map"] = [0, 5]
    with pytest.raises(ValidationError):
        load_instance(write(tmp_path, doc))


def test_formula_costs(tmp_path):
    doc = {
        "arithmetic": "rational",
        "space_x": {"weights": ["1/3", "1/3", "1/3"]},
        "space_y": {"weights": ["1/3", "1/3", "1/3"]},
        "cost": {"formula": "absolute-difference"},
    }
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost.values == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    doc["cost"] = {"formula": "equality-indicator"}
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost.values == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    doc["cost"] = {"formula": "squared-difference"}
    doc["space_x"]["coords"] = ["0", "1/2", "1"]
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost.values[1][0] == F(1, 4)


def test_unknown_formula_rejected(tmp_path):
    doc = minimal_doc()
    doc["cost"] = {"formula": "cubic"}
    with pytest.raises(ParseError):
        load_instance(write(tmp_path, doc))


def test_round_trip_identity(tmp_path):
    first = load_instance(write(tmp_path, swap_doc()))
    save_instance(first, tmp_path / "copy.json")
    second = load_instance(str(tmp_path / "copy.json"))
    assert first == second


def test_round_trip_identity_float(tmp_path):
    doc = swap_doc()
    doc["arithmetic"] = "float"
    first = load_instance(write(tmp_path, doc))
    save_instance(first, tmp_path / "copy.json")
    second = load_instance(str(tmp_path / "copy.json"))
    assert first == second


def test_generated_instances_round_trip_and_are_deterministic(tmp_path):
    a = generate_instance(99, 3, 4)
    b = generate_instance(99, 3, 4)
    assert a == b
    save_instance(a, tmp_path / "gen.json")
    assert load_instance(str(tmp_path / "gen.json")) == a


# --- scenarios through main() --------------------------------------------------

def run(args):
    return main(args)


def test_every_verb_runs_on_a_generated_instance(tmp_path, capsys):
    assert run(["gen", "--seed", "5", "--size", "3x3", "-o", str(tmp_path / "g.json")]) == 0
    path = str(tmp_path / "g.json")
    for verb in ("solve", "chain", "cover", "arveson", "wasserstein", "oracle-check", "extend", "approx"):
        code = run([verb, path, "-o", str(tmp_path / "r.json")])
        report = json.loads((tmp_path / "r.json").read_text())
        assert code == 0, (verb, report)
        assert report["ok"] is True
    assert run(["partition", path, "--eps", "2", "--lipschitz", "24",
                "-o", str(tmp_path / "r.json")]) == 0


def test_solve_reports_the_standard_chain(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    assert run(["solve", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["chain"] == ["0", "0", "1", "1"]
    assert report["result"]["alpha"] == "0"


def test_rational_reports_use_exact_strings(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    run(["solve", path])
    report = json.loads(capsys.readouterr().out)
    for row in report["result"]["coupling_alpha"]:
        for entry in row:
            assert isinstance(entry, str)
            F(entry)  # parses exactly


def test_wasserstein_two_point_example(tmp_path, capsys):
    doc = {
        "arithmetic": "rational",
        "space_x": {"weights": ["1", "0"], "metric": [["0", "1"], ["1", "0"]]},
        "space_y": {"weights": ["0", "1"]},
    }
    path = write(tmp_path, doc)
    assert run(["wasserstein", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["alpha"] == "1"
    assert report["result"]["beta_lipschitz"] == "1"


def test_oracle_check_reports_exact_match(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    assert run(["oracle-check", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["match"] == "exact"


def test_chain_example_through_cli(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    assert run(["chain", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [report["result"][k] for k in ("beta", "alpha", "alpha_star", "beta_star")] == [
        "0", "0", "1", "1",
    ]


def test_input_errors_exit_2(tmp_path, capsys):
    doc = minimal_doc()
    doc["space_x"]["weights"] = ["2"]
    path = write(tmp_path, doc)
    assert run(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["solve", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert run(["gen", "--seed", "1", "--size", "banana"]) == 2
    path = write(tmp_path, swap_doc(), "swap.json")
    no_rep, null_mass = swap_doc(), swap_doc()
    no_rep["partition"]["representatives"] = [0, None]
    null_mass["partition"].update(null_cell_index=1, representatives=[0, None])
    no_rep = write(tmp_path, no_rep, "no_rep.json")
    null_mass = write(tmp_path, null_mass, "null_mass.json")
    bad_cell, bad_rect = swap_doc(), swap_doc()
    bad_cell["partition"]["cells"][1][0] = 5
    bad_rect["rectangles"][0]["x"][0] = "a"
    bad_cell = write(tmp_path, bad_cell, "bad_cell.json")
    bad_rect = write(tmp_path, bad_rect, "bad_rect.json")
    for args, flag in (
        (["solve", path, "--tolerance", "-1"], "--tolerance"),
        (["solve", path, "--mode", "float", "--tolerance", "inf"], "--tolerance"),
        (["solve", path, "--mode", "float", "--tolerance", "nan"], "--tolerance"),
        (["partition", path, "--eps", "abc", "--lipschitz", "24"], "--eps"),
        (["partition", path, "--eps", "1/0", "--lipschitz", "24"], "--eps"),
        (["partition", path, "--eps", "1", "--lipschitz", "x"], "--lipschitz"),
        (["partition", path, "--mode", "float", "--eps", "1e999", "--lipschitz", "24"], "--eps"),
        (["approx", path, "--n", "1,x"], "--n"),
        (["extend", no_rep], "cell 1 has no representative"),
        (["extend", null_mass], "the null cell has mass"),
        (["extend", bad_cell], "partition.cells[1][0]"),
        (["cover", bad_rect], "rectangles[0].x[0]"),
    ):
        capsys.readouterr()
        assert run(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, (args, err)


@pytest.mark.parametrize("tolerance", [-1, float("nan"), float("inf")])
def test_library_rejects_a_bad_tolerance(tolerance):
    with pytest.raises(ValidationError):
        parse_instance(minimal_doc(), tolerance=tolerance)


def test_library_rejects_an_unknown_mode():
    with pytest.raises(DualityError, match="unknown arithmetic mode"):
        parse_instance(minimal_doc(), mode_override="decimal")


HALF = (F(1, 2), F(1, 2))
SWAP = ((0, 1), (1, 0))
LIBRARY_SOLVERS = (
    ot.solve_alpha, ot.solve_alpha_star, ot.solve_beta, ot.solve_beta_star, ot.check_chain,
)
BAD_NUMBERS = (float("nan"), float("inf"), "x", None, True, "1/0")


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("solver", LIBRARY_SOLVERS, ids=lambda f: f.__name__)
def test_library_solvers_name_a_bad_number(solver, bad, mode):
    ctx = ot.Context(mode)
    with pytest.raises(DualityError, match=re.escape("cost[0][1]")):
        solver(((0, bad), (1, 0)), HALF, HALF, ctx)
    with pytest.raises(DualityError, match=re.escape("mu[0]")):
        solver(SWAP, (bad, F(1, 2)), HALF, ctx)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda bad, ctx: ot.oracle_enumerate(((0, bad), (1, 0)), HALF, HALF, "alpha", ctx=ctx),
    lambda bad, ctx: ot.min_cover(
        ot.RectangleFamily(nx=2, ny=2, rects=(((1, 0), (1, 0)),)), (bad, F(1, 2)), HALF, ctx
    ),
    lambda bad, ctx: ot.wasserstein1(((0, bad), (bad, 0)), HALF, HALF, ctx),
], ids=["oracle_enumerate", "min_cover", "wasserstein1"])
def test_library_entries_reject_a_bad_number(call, bad, mode):
    with pytest.raises(DualityError):
        call(bad, ot.Context(mode))


def test_float_overflow_exits_2_without_non_finite_json(tmp_path, capsys):
    # A cost whose potentials overflow the float range, leaving NaN and inf.
    wide = {
        "arithmetic": "float",
        "space_x": {"weights": [0.5, 0.5]},
        "space_y": {"weights": [0.5, 0.5]},
        "cost": {"matrix": [[1e308, -1e308], [-1e308, 1e308]]},
    }
    # A Lipschitz modulus of 1e308: approx doubles its stages up to inf.
    steep = swap_doc()
    steep["arithmetic"] = "float"
    steep["cost"]["matrix"][0][1] = 1e308
    wide, steep = write(tmp_path, wide, "wide.json"), write(tmp_path, steep, "steep.json")
    for args, named in (
        (["solve", wide], "overflowed"),
        (["chain", wide], "overflowed"),
        (["approx", steep], "n is inf"),
    ):
        assert run(args) == 2, args
        out, err = capsys.readouterr()
        assert "NaN" not in out and "Infinity" not in out, args
        assert err.startswith("error: ") and named in err, (args, err)


def test_non_finite_numbers_are_rejected(tmp_path, capsys):
    doc = swap_doc()
    doc["arithmetic"] = "float"
    doc["cost"]["matrix"][0][0] = float("nan")
    path = write(tmp_path, doc)
    with pytest.raises(ParseError, match=r"cost\.matrix\[0\]\[0\]"):
        load_instance(path)
    assert run(["solve", path]) == 2
    doc = swap_doc()
    doc["arithmetic"] = "float"
    doc["space_x"]["metric"][0][1] = float("inf")
    with pytest.raises(ParseError, match=r"space_x\.metric\[0\]\[1\]"):
        load_instance(write(tmp_path, doc))


@pytest.mark.parametrize("verb, flags, runs", [
    ("chain", (), 2),
    ("partition", ("--eps", "12", "--lipschitz", "24"), 2),
    ("extend", (), 2),
    ("approx", (), 5),
])
def test_verbs_solve_each_cost_and_side_once(tmp_path, simplex_runs, verb, flags, runs):
    path = str(tmp_path / "g.json")
    assert run(["gen", "--seed", "2", "--size", "4x4", "-o", path]) == 0
    assert run([verb, path, *flags, "-o", str(tmp_path / "r.json")]) == 0
    assert len(simplex_runs) == runs


def field_paths(doc, prefix=()):
    """Every key and list position in a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def test_malformed_fields_never_raise(tmp_path, capsys):
    paths = list(field_paths(swap_doc()))
    assert len(paths) == 48
    for path in paths:
        for value in (-1, 2, 0.5, "a", True, None, [], ["a"], {}, 1e308, -1e308, "1/0"):
            doc = swap_doc()
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            instance = write(tmp_path, doc)
            for flags in ((), ("--mode", "float")):
                code = main(["extend", instance, *flags])
                out = capsys.readouterr().out
                assert code in (0, 1, 2), (path, value, flags, code)
                assert "NaN" not in out and "Infinity" not in out, (path, value, flags)


def test_solver_invariant_failure_exits_1(tmp_path, capsys, monkeypatch):
    max_flow_cut = rectangles._max_flow_cut

    def off_by_one(*args):
        flow, reachable = max_flow_cut(*args)
        return flow + 1, reachable

    monkeypatch.setattr(rectangles, "_max_flow_cut", off_by_one)
    assert run(["cover", write(tmp_path, swap_doc())]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {}
    assert [c["name"] for c in report["checks"]] == ["solver_invariants"]
    assert "min cut does not match the max flow" in report["checks"][0]["detail"]["error"]


def test_scenario_needs_its_fields(tmp_path, capsys):
    path = write(tmp_path, minimal_doc())
    assert run(["cover", path]) == 2  # no rectangles
    assert run(["approx", path]) == 2  # no metric


def test_detected_invariant_violation_exits_1(tmp_path, capsys):
    # A stage list in decreasing order is a genuine monotonicity violation:
    # the n=4 approximant dominates the n=1 approximant for this cost.
    doc = swap_doc()
    doc["cost"] = {"matrix": [["0", "10"], ["10", "0"]]}
    path = write(tmp_path, doc)
    assert run(["approx", path, "--n", "4,1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


def test_float_mode_override(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    assert run(["solve", path, "--mode", "float"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["arithmetic"] == "float"
    assert isinstance(report["result"]["alpha"], float)


def test_reports_are_deterministic_apart_from_timing(tmp_path):
    path = write(tmp_path, swap_doc())
    instance = load_instance(path)
    first = run_scenario(instance, "solve")
    second = run_scenario(instance, "solve")
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_gen_is_deterministic_via_cli(tmp_path):
    run(["gen", "--seed", "3", "--size", "2x2", "-o", str(tmp_path / "a.json")])
    run(["gen", "--seed", "3", "--size", "2x2", "-o", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_extend_scenario_agrees_with_coarse_plan(tmp_path, capsys):
    path = write(tmp_path, swap_doc())
    assert run(["extend", path]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {c["name"]: c["ok"] for c in report["checks"]}
    assert names["coarse_agreement"] and names["extended_marginals"]


def test_run_scenario_rejects_unknown_command(tmp_path):
    instance = parse_instance(minimal_doc())
    with pytest.raises(ValidationError):
        run_scenario(instance, "meditate")


def test_instance_jsonable_matches_schema(tmp_path):
    instance = parse_instance(swap_doc())
    doc = instance_to_jsonable(instance)
    assert doc["arithmetic"] == "rational"
    assert doc["cost"]["matrix"][0] == ["0", "1"]
    assert doc["rectangles"][0] == {"x": [0], "y": [0]}
