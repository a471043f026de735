import hashlib
import inspect
import json
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otdual as ot
from otdual import cli, rectangles, transport
from otdual.cli import main, run_scenario
from otdual.errors import (
    DimensionMismatch,
    DualityError,
    InvariantViolation,
    ParseError,
    SpaceMismatch,
    ValidationError,
)
from otdual.instances import (
    generate_instance,
    instance_to_jsonable,
    load_instance,
    parse_instance,
    save_instance,
)
from otdual.lp import simplex_maximize
from otdual.numeric import format_number
from otdual.wasserstein import lipschitz_violations


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
    }


# --- loading -----------------------------------------------------------------

def test_minimal_instance_loads(tmp_path):
    instance = load_instance(write(tmp_path, minimal_doc()))
    assert instance.space_x.size == 1
    assert instance.cost == ((7,),)


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


def test_formula_costs(tmp_path):
    doc = {
        "arithmetic": "rational",
        "space_x": {"weights": ["1/3", "1/3", "1/3"]},
        "space_y": {"weights": ["1/3", "1/3", "1/3"]},
        "cost": {"formula": "absolute-difference"},
    }
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    doc["cost"] = {"formula": "equality-indicator"}
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    doc["cost"] = {"formula": "squared-difference"}
    doc["space_x"]["coords"] = ["0", "1/2", "1"]
    instance = load_instance(write(tmp_path, doc))
    assert instance.cost[1][0] == F(1, 4)


def test_coords_are_read_only_for_a_formula_cost(tmp_path, capsys):
    bad_coords = swap_doc()
    bad_coords["space_x"]["coords"] = ["a", "1"]
    runs = []
    for name, doc in (("plain.json", swap_doc()), ("coords.json", bad_coords)):
        code = main(["chain", write(tmp_path, doc, name)])
        out, err = capsys.readouterr()
        runs.append((code, err, re.sub(r'("elapsed_seconds": )[^\n]*', r"\1", out)))
    assert runs[0] == runs[1] and runs[0][0] == 0
    bad_coords["cost"] = {"formula": "absolute-difference"}
    assert main(["chain", write(tmp_path, bad_coords, "formula.json")]) == 2
    assert "cannot read number 'a' in space_x.coords[0]" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_gen_files_round_trip_byte_for_byte(tmp_path, mode):
    path, copy = tmp_path / "gen.json", tmp_path / "copy.json"
    for size in ("4x4", "9x3", "12x12", "24x4", "2x8"):
        for seed in range(3):
            assert main(["gen", "--seed", str(seed), "--size", size, "--mode", mode,
                         "-o", str(path)]) == 0
            save_instance(load_instance(str(path)), copy)
            assert copy.read_bytes() == path.read_bytes(), (size, seed)


def test_a_map_written_by_older_gen_runs_is_ignored(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "0", "--size", "4x4", "-o", path]) == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    # The map `gen` once wrote for this file: nu is mu pushed forward by it.
    old = write(tmp_path, dict(doc, map=[2, 3, 3, 2]), "old.json")
    assert load_instance(old) == load_instance(path)
    capsys.readouterr()
    for verb in cli._VERBS:
        flags = ["--eps", "12", "--lipschitz", "24"] if verb == "partition" else []
        for mode in ("rational", "float"):
            runs = []
            for instance in (path, old):
                code = main([verb, instance, *flags, "--mode", mode])
                out, err = capsys.readouterr()
                runs.append((code, err, re.sub(r'("elapsed_seconds": )[^\n]*', r"\1", out)))
            assert runs[0] == runs[1], (verb, mode)


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
        (["approx", path, "--n", ""], "--n"),
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
THIRDS = (F(1, 3), F(2, 3))
SWAP = ((0, 1), (1, 0))
COST = ((0, 1), (2, 0))
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


@pytest.mark.parametrize("args, named", [
    (([1, 2], [1], [1]), "cost"),
    ((None, [1], [1]), "cost"),
    (([[1]], 5, [1]), "mu"),
    (([[1]], [1], None), "nu"),
], ids=["cost-row", "cost", "mu", "nu"])
@pytest.mark.parametrize("solver", LIBRARY_SOLVERS, ids=lambda f: f.__name__)
def test_library_solvers_name_a_bad_container(solver, args, named):
    with pytest.raises(DualityError, match=f"^{named}"):
        solver(*args)


FAMILY = ot.RectangleFamily(nx=2, ny=2, rects=(((1, 0), (1, 0)),))
ZEROS = ot.PotentialPair(f=(0, 0), g=(0, 0), side="lower")


def with_bad(bad):
    """SWAP with its entry [0][1] replaced by ``bad``."""
    return ((0, bad), (1, 0))


def coarse_plan():
    return ot.CoarseCoupling(
        partition=ot.singleton_partition(2), matrix=((F(1, 2), 0), (0, F(1, 2))), nu=HALF
    )


def one_stage(base):
    return ot.ApproximantSequence(base_cost=base, stages=((1, COST),))


# Each entry, called with one bad number, and the name the error gives it.
# The entries without a ctx parameter infer their mode from the arguments.
BAD_NUMBER_CALLS = {
    "oracle_enumerate": (
        lambda bad, ctx: ot.oracle_enumerate(with_bad(bad), HALF, HALF, "alpha", ctx=ctx),
        "cost[0][1]",
    ),
    "min_cover": (lambda bad, ctx: ot.min_cover(FAMILY, (bad, F(1, 2)), HALF, ctx), "mu[0]"),
    "wasserstein1": (
        lambda bad, ctx: ot.wasserstein1(((0, bad), (bad, 0)), HALF, HALF, ctx), "metric[0][1]"
    ),
    "lipschitz_modulus": (
        lambda bad, ctx: ot.lipschitz_modulus(with_bad(bad), SWAP, ctx), "cost[0][1]"
    ),
    "oscillation": (
        lambda bad, ctx: ot.oscillation(
            with_bad(bad), ot.Partition(cells=((True, True),), representatives=(0,)), ctx
        ),
        "cost[0][1]",
    ),
    "lipschitz_violations": (
        lambda bad, ctx: lipschitz_violations(((0, bad), (bad, 0)), (0, 2), ctx), "metric[0][1]"
    ),
    "potential_defect": (
        lambda bad, ctx: ot.potential_defect(
            ot.PotentialPair(f=(0, bad), g=(0, 0), side="lower"), SWAP, ctx
        ),
        "pair.f[1]",
    ),
    "PotentialPair.dual_value": (
        lambda bad, ctx: ot.PotentialPair(f=(0, 0), g=(bad, 0), side="lower").dual_value(
            HALF, HALF
        ),
        "g[0]",
    ),
    "row_min_potential": (lambda bad, ctx: ot.row_min_potential(SWAP, (0, bad)), "g[1]"),
    "mask_mass": (lambda bad, ctx: ot.mask_mass((F(1, 2), bad), (True, True)), "weights[1]"),
    "transport_value": (
        lambda bad, ctx: ot.transport_value(with_bad(bad), SWAP), "coupling_or_matrix[0][1]"
    ),
    "coupling_defects": (
        lambda bad, ctx: ot.coupling_defects(
            ot.Coupling(matrix=((F(1, 2), 0), (0, F(1, 2))), mu=(bad, F(1, 2)), nu=HALF), ctx
        ),
        "coupling.mu[0]",
    ),
    "metric_repair": (lambda bad, ctx: ot.metric_repair(with_bad(bad), ctx), "matrix[0][1]"),
    "beta_star_limit_check": (
        lambda bad, ctx: ot.beta_star_limit_check(one_stage(with_bad(bad)), HALF, HALF, ctx),
        "sequence.base_cost[0][1]",
    ),
    "normalize_cost": (lambda bad, ctx: ot.normalize_cost(with_bad(bad), ZEROS, ctx), "cost[0][1]"),
    "lipschitz_infconv": (
        lambda bad, ctx: ot.lipschitz_infconv(
            COST, 1, ot.make_space(HALF, ((0, bad), (bad, 0))), ctx=ctx
        ),
        "space_x.metric[0][1]",
    ),
    "oscillation_partition": (
        lambda bad, ctx: ot.oscillation_partition(SWAP, bad, ot.make_space(HALF, SWAP), 1, ctx),
        "eps",
    ),
    "validate_space": (
        lambda bad, ctx: ot.validate_space(ot.make_space((bad, F(1, 2)), SWAP), ctx),
        "space.weights[0]",
    ),
    "conditional_measure": (
        lambda bad, ctx: ot.conditional_measure(ot.make_space((bad, F(1, 2))), (True, True), ctx),
        "space.weights[0]",
    ),
    "limsup_mass": (
        lambda bad, ctx: ot.limsup_mass(ot.make_space((bad, F(1, 2))), ((True, False),), 0, ctx),
        "space.weights[0]",
    ),
    "pushforward": (
        lambda bad, ctx: ot.pushforward(ot.make_space((bad, F(1, 2))), (0, 1), 2, ctx),
        "space.weights[0]",
    ),
    "monge_coupling": (
        lambda bad, ctx: ot.monge_coupling(ot.make_space(HALF), (1, 0), (bad, F(1, 2)), ctx),
        "nu[0]",
    ),
    "product_coupling": (lambda bad, ctx: ot.product_coupling((bad, F(1, 2)), HALF, ctx), "mu[0]"),
    "diagonal_coupling": (lambda bad, ctx: ot.diagonal_coupling((bad, F(1, 2)), ctx=ctx), "space[0]"),
    "extend_coupling": (lambda bad, ctx: ot.extend_coupling(coarse_plan(), (bad, F(1, 2)), ctx), "mu[0]"),
    "transport_polytope_vertices": (
        lambda bad, ctx: ot.transport_polytope_vertices((bad, F(1, 2)), HALF, ctx=ctx), "mu[0]"
    ),
    "truncation_duality": (
        lambda bad, ctx: ot.truncation_duality(FAMILY, HALF, HALF, 0, bad, ctx), "eps"
    ),
    "arveson_witness": (
        lambda bad, ctx: ot.arveson_witness(FAMILY, HALF, (F(1, 2), bad), ctx), "nu[1]"
    ),
    "lipschitz_dual": (
        lambda bad, ctx: ot.lipschitz_dual(SWAP, (bad, F(1, 2)), HALF, ctx), "mu[0]"
    ),
    "shifted_infconv": (
        lambda bad, ctx: ot.shifted_infconv(COST, 1, ot.make_space(HALF, SWAP), (0, bad), ctx),
        "f[1]",
    ),
    "partition_discretize": (
        lambda bad, ctx: ot.partition_discretize(with_bad(bad), ot.singleton_partition(2), ctx),
        "cost[0][1]",
    ),
    "infconv_sequence": (
        lambda bad, ctx: ot.infconv_sequence(COST, ot.make_space(HALF, SWAP), (1, bad), ctx=ctx),
        "n",
    ),
    "parse_instance": (
        lambda bad, ctx: parse_instance(
            dict(minimal_doc(), cost={"matrix": [[bad]]}), mode_override=ctx.mode
        ),
        "cost.matrix[0][0]",
    ),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("call, named", BAD_NUMBER_CALLS.values(), ids=BAD_NUMBER_CALLS.keys())
def test_library_entries_reject_a_bad_number(call, named, bad, mode):
    with pytest.raises(ParseError, match=re.escape(named)):
        call(bad, ot.Context(mode))


# Each entry, called with an argument that is not a sequence, or, where a
# row names one, with an argument of another wrong kind: the error class and
# the kind the message says the argument is not.
BAD_CONTAINER_CALLS = {
    "min_cover": (lambda: ot.min_cover(FAMILY, 5, HALF), "mu"),
    "arveson_witness": (lambda: ot.arveson_witness(FAMILY, HALF, None), "nu"),
    "truncation_duality": (lambda: ot.truncation_duality(FAMILY, 5, HALF, 0, F(1, 10)), "mu"),
    "wasserstein1": (lambda: ot.wasserstein1(SWAP, 5, HALF), "mu"),
    "lipschitz_dual": (lambda: ot.lipschitz_dual(None, HALF, HALF), "metric"),
    "lipschitz_modulus": (lambda: ot.lipschitz_modulus(SWAP, None), "metric"),
    "product_coupling": (lambda: ot.product_coupling(5, HALF), "mu"),
    "transport_polytope_vertices": (lambda: ot.transport_polytope_vertices(5, HALF), "mu"),
    "simplex_maximize": (lambda: simplex_maximize((1,), ((1,),), None), "rhs"),
    "diagonal_coupling": (lambda: ot.diagonal_coupling(None), "space"),
    "diagonal_coupling-target": (
        lambda: ot.diagonal_coupling(HALF, target=(1, 2, 3)), "target",
        SpaceMismatch, "a tuple, not a ProbabilitySpace",
    ),
    "transport_value": (lambda: ot.transport_value(None, SWAP), "coupling_or_matrix"),
    "metric_repair": (lambda: ot.metric_repair(None), "matrix"),
    "potential_defect": (lambda: ot.potential_defect(ZEROS, None), "values"),
    "PotentialPair.dual_value": (lambda: ZEROS.dual_value(None, HALF), "mu"),
    "mask_mass": (lambda: ot.mask_mass(None, (True,)), "weights"),
    "row_min_potential": (lambda: ot.row_min_potential(SWAP, 5), "g"),
    "normalize_cost": (lambda: ot.normalize_cost(None, ZEROS), "cost"),
    "lipschitz_infconv": (lambda: ot.lipschitz_infconv(None, 1, ot.make_space(HALF, SWAP)), "cost"),
    "beta_star_limit_check": (lambda: ot.beta_star_limit_check(one_stage(COST), None, HALF), "mu"),
    "extend_coupling": (lambda: ot.extend_coupling(coarse_plan(), None), "mu"),
    "monge_coupling": (lambda: ot.monge_coupling(ot.make_space(HALF), (1, 0), None), "nu"),
    "infconv_sequence": (
        lambda: ot.infconv_sequence(COST, ot.make_space(HALF, SWAP), None), "n_values"
    ),
    "PotentialPair": (lambda: ot.PotentialPair(f=None, g=(0,), side="lower"), "f"),
    "make_space": (lambda: ot.make_space(None), "weights"),
    "Coupling": (lambda: ot.Coupling(matrix=5, mu=(1,), nu=(1,)), "matrix"),
    "CoarseCoupling": (
        lambda: ot.CoarseCoupling(partition=ot.singleton_partition(2), matrix=5, nu=HALF), "matrix"
    ),
    "Partition": (lambda: ot.Partition(cells=5), "cells"),
    "Partition-representatives": (
        lambda: ot.Partition(cells=((True,),), representatives=5), "representatives"
    ),
    "RectangleFamily": (lambda: ot.RectangleFamily(nx=2, ny=2, rects=5), "rects"),
    "ApproximantSequence": (
        lambda: ot.ApproximantSequence(base_cost=((0,),), stages=5), "stages"
    ),
}


@pytest.mark.parametrize("row", BAD_CONTAINER_CALLS.values(), ids=BAD_CONTAINER_CALLS.keys())
def test_library_entries_name_a_bad_container(row):
    call, named, error, kind = row if len(row) == 4 else (*row, ParseError, "not a sequence")
    with pytest.raises(error, match=f"^{named} is {kind}$"):
        call()


THIRDS3 = (F(1, 3),) * 3
TALL = ((0,), (1,), (2,))


# Each entry or constructor, called with arguments whose sizes disagree, and
# the argument the error names: the first whose size differs from the one an
# earlier argument fixed.
BAD_SHAPE_CALLS = {
    **{
        solver.__name__: (lambda solver=solver: solver(COST, THIRDS3, HALF), "mu")
        for solver in LIBRARY_SOLVERS
    },
    "oracle_enumerate": (lambda: ot.oracle_enumerate(COST, HALF, THIRDS3, "alpha"), "nu"),
    "solve_alpha-ragged-cost": (lambda: ot.solve_alpha(((0, 1), (1,)), HALF, HALF), "cost[1]"),
    "min_cover": (lambda: ot.min_cover(FAMILY, THIRDS3, HALF), "mu"),
    "arveson_witness": (lambda: ot.arveson_witness(FAMILY, HALF, THIRDS3), "nu"),
    "truncation_duality": (
        lambda: ot.truncation_duality(FAMILY, HALF, THIRDS3, 0, F(1, 10)), "nu"
    ),
    "covers": (lambda: ot.covers(FAMILY, (True,), (True, True)), "a"),
    "wasserstein1": (lambda: ot.wasserstein1(SWAP, HALF, THIRDS3), "nu"),
    "lipschitz_dual": (lambda: ot.lipschitz_dual(SWAP, THIRDS3, HALF), "mu"),
    "lipschitz_violations": (lambda: lipschitz_violations(SWAP, (0, 1, 5)), "f"),
    "lipschitz_violations-short": (lambda: lipschitz_violations(SWAP, (0,)), "f"),
    "lipschitz_modulus": (lambda: ot.lipschitz_modulus(TALL, SWAP), "metric"),
    "row_min_potential": (lambda: ot.row_min_potential(((0, 5), (1, 7)), (0,)), "g"),
    "shifted_infconv": (
        lambda: ot.shifted_infconv(COST, 1, ot.make_space(HALF, SWAP), (0, 0, 5)), "f"
    ),
    "lipschitz_infconv": (
        lambda: ot.lipschitz_infconv(TALL, 1, ot.make_space(HALF, SWAP)), "space_x.metric"
    ),
    "infconv_sequence": (
        lambda: ot.infconv_sequence(TALL, ot.make_space(HALF, SWAP), (1,)), "space_x.metric"
    ),
    "oscillation_partition": (
        lambda: ot.oscillation_partition(TALL, 1, ot.make_space(HALF, SWAP), 1), "space_x.metric"
    ),
    "oscillation": (
        lambda: ot.oscillation(COST, ot.Partition(cells=((True, True, True),))), "cost"
    ),
    "partition_discretize": (
        lambda: ot.partition_discretize(COST, ot.singleton_partition(3)), "cost"
    ),
    "normalize_cost": (
        lambda: ot.normalize_cost(COST, ot.PotentialPair(f=(0, 0, 0), g=(0, 0), side="lower")),
        "lower.f",
    ),
    "potential_defect": (
        lambda: ot.potential_defect(ot.PotentialPair(f=(0, 0), g=(0,), side="lower"), SWAP),
        "pair.g",
    ),
    "PotentialPair.dual_value": (lambda: ZEROS.dual_value(THIRDS3, HALF), "f"),
    "beta_star_limit_check": (
        lambda: ot.beta_star_limit_check(one_stage(COST), THIRDS3, HALF), "sequence.base_cost"
    ),
    "transport_value": (lambda: ot.transport_value(SWAP, ((0, 1),)), "values"),
    "extend_coupling": (lambda: ot.extend_coupling(coarse_plan(), THIRDS3), "mu"),
    "monge_coupling": (
        lambda: ot.monge_coupling(ot.make_space(HALF), (1, 0, 0), HALF), "mapping"
    ),
    "pushforward": (lambda: ot.pushforward(ot.make_space(HALF), (1,), 2), "mapping"),
    "conditional_measure": (
        lambda: ot.conditional_measure(ot.make_space(HALF), (True,)), "cell"
    ),
    "limsup_mass": (lambda: ot.limsup_mass(ot.make_space(HALF), ((True,),), 0), "sets[0]"),
    "mask_mass": (lambda: ot.mask_mass(HALF, (True,)), "mask"),
    "mask_union": (lambda: ot.mask_union((True,), (True, False)), "masks[1]"),
    "metric_repair": (lambda: ot.metric_repair(((0, 1),)), "matrix[0]"),
    "make_space": (lambda: ot.make_space(HALF, ((0,),)), "metric"),
    "simplex_maximize": (lambda: simplex_maximize((1, 2), ((1,),), (1,)), "lhs[0]"),
    "parse_instance": (
        lambda: parse_instance(dict(minimal_doc(), cost={"matrix": [["1", "2"]]})),
        "cost.matrix[0]",
    ),
    "parse_instance-points": (
        lambda: parse_instance(dict(swap_doc(), space_x={"weights": ["1/2", "1/2"], "points": ["a"]})),
        "space_x: points",
    ),
    "parse_instance-representatives": (
        lambda: parse_instance(
            dict(minimal_doc(), partition={"cells": [[0]], "representatives": [0, 0]})
        ),
        "partition: representatives",
    ),
    "ProbabilitySpace": (lambda: ot.ProbabilitySpace(points=("a",), weights=HALF), "points"),
    "Coupling": (lambda: ot.Coupling(matrix=SWAP, mu=THIRDS3, nu=HALF), "mu"),
    "CoarseCoupling": (
        lambda: ot.CoarseCoupling(
            partition=ot.singleton_partition(2), matrix=((F(1, 2), 0),), nu=HALF
        ),
        "matrix",
    ),
    "Partition": (lambda: ot.Partition(cells=((True, False), (True,))), "cells[1]"),
    "Partition-representatives": (
        lambda: ot.Partition(cells=((True,),), representatives=(0, 0)), "representatives"
    ),
    "RectangleFamily": (
        lambda: ot.RectangleFamily(nx=2, ny=2, rects=(((True,), (True, False)),)), "rects[0][0]"
    ),
    "ApproximantSequence": (
        lambda: ot.ApproximantSequence(base_cost=COST, stages=((1, ((0,),)),)), "stages[0]"
    ),
}


@pytest.mark.parametrize("call, named", BAD_SHAPE_CALLS.values(), ids=BAD_SHAPE_CALLS.keys())
def test_library_entries_name_a_shape_mismatch(call, named):
    with pytest.raises(DimensionMismatch, match=rf"^{re.escape(named)} has \d+ (entr|row)"):
        call()


def test_a_shape_mismatch_is_a_validation_error():
    assert issubclass(DimensionMismatch, ValidationError)


# Exported functions that read no number from their caller: they take
# sizes, indices, masks or paths, build objects whose numbers a later entry
# reads, or write numbers the package made.
NO_NUMBERS = {
    "covers", "format_number", "generate_instance", "indicator_cost", "instance_to_jsonable",
    "load_instance", "make_space", "mask_from_indices", "mask_indices", "mask_union",
    "save_instance", "singleton_partition",
}


# Parameters that carry a size: vectors, matrices, masks and the objects
# built on them.  A variadic parameter counts as two.
SIZED = {
    "a", "b", "base_cost", "c", "cell", "cells", "coarse", "coupling_or_matrix", "f", "family",
    "g", "lhs", "lower", "mapping", "mask", "masks", "matrix", "metric", "mu", "nu", "nx", "ny",
    "objective", "pair", "partition", "points", "rects", "representatives", "rhs", "sequence",
    "sets", "space", "space_x", "stages", "target", "values", "weights",
}
# Entries whose sized arguments share no dimension: mu and nu of a product
# or of a polytope, f and g of a pair; diagonal_coupling raises SpaceMismatch.
UNRELATED_SHAPES = {
    "PotentialPair", "diagonal_coupling", "product_coupling", "transport_polytope_vertices",
}


def sized_parameters(obj) -> int:
    return sum(
        2 if p.kind is p.VAR_POSITIONAL else 1
        for p in inspect.signature(obj).parameters.values() if p.name in SIZED
    )


def test_every_exported_function_is_checked_at_the_library_boundary():
    exported = {
        name for name, obj in vars(ot).items()
        if not name.startswith("_") and inspect.isfunction(obj)
    }
    checked = (
        set(BAD_NUMBER_CALLS) | set(BAD_CONTAINER_CALLS) | NO_NUMBERS
        | {solver.__name__ for solver in LIBRARY_SOLVERS}
    )
    assert not exported - checked, sorted(exported - checked)
    # Functions and the constructors that check their fields.
    shaped = {
        name for name, obj in vars(ot).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj) and hasattr(obj, "__post_init__"))
        and sized_parameters(obj) >= 2
    }
    unchecked = shaped - set(BAD_SHAPE_CALLS) - UNRELATED_SHAPES
    assert not unchecked, sorted(unchecked)


@pytest.mark.parametrize("call, named", [
    (lambda: simplex_maximize((1, "x"), ((1, 1),), (1,)), "objective[1]"),
    (lambda: simplex_maximize((1,), ((1,), (None,)), (1, 1)), "lhs[1][0]"),
    (lambda: simplex_maximize((1,), ((1,),), (float("inf"),)), "rhs[0]"),
], ids=["objective", "lhs", "rhs"])
def test_simplex_maximize_names_a_bad_entry(call, named):
    with pytest.raises(ParseError, match=re.escape(named)):
        call()


# Distances of 1e308: the Lipschitz LP's right-hand sides d(i,j) + d(i,0)
# - d(j,0) and 2 d(i,0) lie beyond the float range, but only as exact values.
FAR = ((0, 1e308, 1e308), (1e308, 0, 1e308), (1e308, 1e308, 0))


def test_float_wasserstein1_solves_distances_near_the_float_range():
    report = ot.wasserstein1(FAR, (0.5, 0.25, 0.25), (0.25, 0.25, 0.5))
    assert report.primal_value == report.dual_value == 2.5e307
    assert not lipschitz_violations(FAR, report.lipschitz_witness)


def one_shot(values):
    """A generator over ``values``: it can be read only once."""
    return (x for x in values)


def one_shot_rows(rows):
    return one_shot(map(one_shot, rows))


def tuple_rows(rows):
    return tuple(map(tuple, rows))


# Each call takes a converter for vectors and one for matrices.
@pytest.mark.parametrize("call", [
    lambda vec, mat: ot.solve_alpha(mat(COST), vec(THIRDS), vec(HALF)),
    lambda vec, mat: ot.product_coupling(vec((0.5, 0.5)), vec((0.25, 0.75))),
    lambda vec, mat: ot.monge_coupling(ot.make_space(HALF), vec((1, 0)), vec(HALF)),
    lambda vec, mat: ot.pushforward(ot.make_space(THIRDS), vec((1, 1)), 2),
    lambda vec, mat: ot.extend_coupling(
        ot.CoarseCoupling(
            partition=ot.singleton_partition(2), matrix=((F(1, 3), 0), (F(1, 6), F(1, 2))), nu=HALF
        ),
        vec(THIRDS),
    ),
    lambda vec, mat: ot.transport_polytope_vertices(vec(THIRDS), vec(HALF)),
    lambda vec, mat: ot.min_cover(FAMILY, vec(THIRDS), vec(HALF)),
    lambda vec, mat: ot.arveson_witness(FAMILY, vec(THIRDS), vec(HALF)),
    lambda vec, mat: ot.truncation_duality(FAMILY, vec(THIRDS), vec(HALF), 0, F(1, 10)),
    lambda vec, mat: ot.wasserstein1(mat(SWAP), vec(THIRDS), vec(HALF)),
    lambda vec, mat: ot.lipschitz_dual(mat(SWAP), vec(THIRDS), vec(HALF)),
    lambda vec, mat: lipschitz_violations(mat(SWAP), vec((0, 2))),
    lambda vec, mat: ot.shifted_infconv(COST, 1, ot.make_space(HALF, SWAP), vec((0, 1))),
    lambda vec, mat: ot.lipschitz_modulus(COST, mat(SWAP)),
    lambda vec, mat: ot.beta_star_limit_check(
        ot.ApproximantSequence(base_cost=COST, stages=((1, COST),)),
        vec(THIRDS),
        vec(HALF),
    ),
    lambda vec, mat: simplex_maximize(vec((1, 1)), mat(((1, 2), (3, 1))), vec((4, 5))),
    lambda vec, mat: ot.infconv_sequence(COST, ot.make_space(HALF, SWAP), vec((1, 2))),
], ids=[
    "solve_alpha", "product_coupling", "monge_coupling", "pushforward", "extend_coupling",
    "transport_polytope_vertices", "min_cover", "arveson_witness", "truncation_duality",
    "wasserstein1", "lipschitz_dual", "lipschitz_violations", "shifted_infconv",
    "lipschitz_modulus", "beta_star_limit_check", "simplex_maximize", "infconv_sequence",
])
def test_library_entries_read_generators_like_tuples(call):
    assert call(one_shot, one_shot_rows) == call(tuple, tuple_rows)


def test_infconv_sequence_reads_every_stage_in_one_mode():
    # The float stage parameter selects float mode for the rational cost too.
    space = ot.make_space(HALF, SWAP)
    sequence = ot.infconv_sequence(COST, space, (1, 0.5))
    assert sequence == ot.infconv_sequence(COST, space, (1, 0.5), ctx=ot.Context("float"))
    assert {type(x) for _, stage in sequence.stages for row in stage for x in row} == {float}


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


# solve is absent: its simplex runs are pinned by the benchmark's tracer test.
@pytest.mark.parametrize("verb, flags, runs", [
    ("chain", (), 2),
    ("partition", ("--eps", "12", "--lipschitz", "24"), 2),
    ("extend", (), 2),
    ("approx", (), 5),
    ("cover", (), 1),
    ("arveson", (), 1),
    ("wasserstein", (), 1),
    ("oracle-check", (), 2),
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
    assert len(paths) == 45
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


def shift_cover_potentials(monkeypatch):
    solve = rectangles.solve_alpha_star

    def row_shifted(*args):
        # Lowering f on row 0 leaves the cell (0, 0) of the union uncovered.
        best = solve(*args)
        f = best.potentials.f
        return replace(best, potentials=replace(best.potentials, f=(f[0] - 1, *f[1:])))

    monkeypatch.setattr(rectangles, "solve_alpha_star", row_shifted)


def raise_simplex_potential(monkeypatch):
    simplex = transport._network_simplex

    def raised(values, mu, nu):
        # u[0] + 1 exceeds the cost on every basic cell of row 0.
        value, matrix, u, v = simplex(values, mu, nu)
        return value, matrix, (u[0] + 1, *u[1:]), v

    monkeypatch.setattr(transport, "_network_simplex", raised)


@pytest.mark.parametrize("verb, patch, solvers, message", [
    ("cover", shift_cover_potentials, (), "rounded potentials fail to cover the family"),
    ("solve", raise_simplex_potential, (ot.solve_alpha, ot.solve_alpha_star),
     "optimality certificate fails: cell (0, "),
], ids=["cover", "solve"])
def test_solver_invariant_failure_exits_1(tmp_path, capsys, monkeypatch, verb, patch, solvers,
                                          message):
    patch(monkeypatch)
    assert run([verb, write(tmp_path, swap_doc())]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {}
    assert [c["name"] for c in report["checks"]] == ["solver_invariants"]
    assert message in report["checks"][0]["detail"]["error"]
    for solver in solvers:
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            solver(((0, 1), (1, 0)), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


@pytest.mark.parametrize("seed", range(10))
def test_float_costs_near_1e9_keep_beta_equal_to_alpha(tmp_path, capsys, seed):
    # The reported beta and beta* are alpha and alpha* rounded once, and the
    # oracle rounds the same lattice optimum once, so no absolute tolerance
    # judges a recomputed value at this scale.
    path = str(tmp_path / "g.json")
    assert run(["gen", "--seed", str(seed), "--size", "4x4", "--mode", "float", "-o", path]) == 0
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["cost"]["matrix"] = [[x * 1e9 for x in row] for row in doc["cost"]["matrix"]]
    path = write(tmp_path, doc)
    capsys.readouterr()
    for verb in ("solve", "chain", "approx", "oracle-check"):
        code, report = run_report([verb, path], capsys)
        assert code == 0, (verb, report["checks"])
        if verb == "solve":
            result = report["result"]
            assert result["beta"] == result["alpha"] and result["beta_star"] == result["alpha_star"]
            assert all(
                isinstance(result[name], float)
                for name in ("beta", "alpha", "alpha_star", "beta_star")
            )


@pytest.mark.parametrize("verb, size, seed", [
    *((verb, size, seed) for verb in ("cover", "arveson")
      for size, seed in (("9x9", 0), ("9x9", 1), ("9x9", 3), ("12x12", 2))),
    *(("wasserstein", size, seed) for size, seed in (
        ("4x4", 1), ("4x4", 2), ("6x6", 2), ("9x9", 3), ("9x9", 4), ("12x12", 2))),
    ("oracle-check", "4x4", 1), ("oracle-check", "4x4", 4),
])
def test_float_routes_agree_exactly_under_tolerance_0(tmp_path, capsys, verb, size, seed):
    # The cover value, the Lipschitz dual and the oracle read the float
    # marginals onto the simplex's lattice and round its exact optimum once,
    # so no tolerance is needed to match the certified value.
    path = str(tmp_path / "g.json")
    assert run(["gen", "--seed", str(seed), "--size", size, "--mode", "float", "-o", path]) == 0
    code, report = run_report([verb, path, "--tolerance", "0"], capsys)
    assert code == 0, report["checks"]
    result = report["result"]
    if verb == "cover":
        assert result["cover_value"] == result["alpha_star"]
    elif verb == "wasserstein":
        assert result["beta_lipschitz"] == result["alpha"]
    elif verb == "oracle-check":
        assert result["match"] == "exact"


ARVESON_TINY_CELL = {
    "arithmetic": "float",
    "space_x": {"weights": [1e-12, 0.999999999999]},
    "space_y": {"weights": [0.5, 0.5]},
    "rectangles": [{"x": [0], "y": [0]}],
}


@pytest.mark.parametrize("mode, alpha_star", [("rational", "1/1000000000000"), ("float", 1e-12)])
def test_arveson_decides_a_tiny_union_as_rational_mode_does(tmp_path, capsys, mode, alpha_star):
    # The union {(0, 0)} can carry mass 1e-12, below the float tolerance:
    # the verdict follows the exact cover value, not the tolerance.
    code, report = run_report(["arveson", write(tmp_path, ARVESON_TINY_CELL), "--mode", mode],
                              capsys)
    assert code == 0 and report["checks"] == []
    assert report["result"]["alpha_star"] == alpha_star
    assert "null_cover" not in report["result"]


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_a_float_weight_just_below_0_is_read_as_0(tmp_path, capsys, verb):
    # Loading accepts a weight within the tolerance below 0; the solve must
    # then certify, not fail its own certificate.  oracle-check enumerates
    # at most 16 cells, so it runs on a 4x4 instance.
    size = "4x4" if verb == "oracle-check" else "6x6"
    path = str(tmp_path / "g.json")
    assert run(["gen", "--seed", "4", "--size", size, "--mode", "float", "-o", path]) == 0
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    weights = doc["space_x"]["weights"]
    low, high = weights.index(min(weights)), weights.index(max(weights))
    weights[high] += weights[low]
    weights[low] = -1e-13
    flags = ["--eps", "12", "--lipschitz", "24"] if verb == "partition" else []
    code, report = run_report([verb, write(tmp_path, doc), *flags], capsys)
    assert code == 0, report["checks"]


NEEDS_COST = "error: this scenario needs a 'cost' field in the instance\n"
NEEDS_RECTANGLES = "error: this scenario needs a 'rectangles' field\n"
EVERY_FIELD = ("cost", "metric", "partition", "rectangles")


def needs_metric(verb):
    return f"error: the {verb} scenario needs a metric on space_x\n"


def test_scenario_needs_its_fields(tmp_path, capsys):
    path = write(tmp_path, minimal_doc())
    assert run(["cover", path]) == 2  # no rectangles
    assert run(["approx", path]) == 2  # no metric
    # Each needed field missing alone, then every field missing at once:
    # a verb names the first field it needs.
    for verb, missing, message in (
        ("solve", ("cost",), NEEDS_COST),
        ("chain", ("cost",), NEEDS_COST),
        ("approx", ("cost",), NEEDS_COST),
        ("approx", ("metric",), needs_metric("approx")),
        ("partition", ("cost",), NEEDS_COST),
        ("partition", ("metric",), needs_metric("partition")),
        ("extend", ("cost",), NEEDS_COST),
        ("extend", ("partition",), "error: the extend scenario needs a 'partition' field\n"),
        ("cover", ("rectangles",), NEEDS_RECTANGLES),
        ("arveson", ("rectangles",), NEEDS_RECTANGLES),
        ("wasserstein", ("metric",), needs_metric("wasserstein")),
        ("oracle-check", ("cost",), NEEDS_COST),
        ("solve", EVERY_FIELD, NEEDS_COST),
        ("chain", EVERY_FIELD, NEEDS_COST),
        ("approx", EVERY_FIELD, NEEDS_COST),
        ("partition", EVERY_FIELD, NEEDS_COST),
        ("extend", EVERY_FIELD, NEEDS_COST),
        ("cover", EVERY_FIELD, NEEDS_RECTANGLES),
        ("arveson", EVERY_FIELD, NEEDS_RECTANGLES),
        ("wasserstein", EVERY_FIELD, needs_metric("wasserstein")),
        ("oracle-check", EVERY_FIELD, NEEDS_COST),
    ):
        doc = swap_doc()
        for field in missing:
            del (doc["space_x"] if field == "metric" else doc)[field]
        flags = ["--eps", "1", "--lipschitz", "24"] if verb == "partition" else []
        capsys.readouterr()
        assert run([verb, write(tmp_path, doc), *flags]) == 2, (verb, missing)
        assert capsys.readouterr() == ("", message), (verb, missing)


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


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_format_number_renders_a_document(mode):
    half, one = ("1/2", "1") if mode == "rational" else (0.5, 1.0)
    doc = {"a": (F(1, 2), {"b": 1, "c": None}), "d": 1}
    # JSON text, so that an int left unrendered differs from 1.0.
    rendered = json.dumps(format_number(doc, mode))
    assert rendered == json.dumps({"a": [half, {"b": one, "c": None}], "d": one})
    for value in ([F(1, 2), 3], True, False, "1/2", None):
        assert format_number(value, mode) is value
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="non-finite"):
            format_number({"a": (1.0, {"b": bad})}, "float")


def reference_format_number(value, mode):
    """format_number as it rendered a Fraction before: through Fraction(value)."""
    if value is None or isinstance(value, (bool, str, list)):
        return value
    if isinstance(value, dict):
        return {key: reference_format_number(x, mode) for key, x in value.items()}
    if isinstance(value, tuple):
        return [reference_format_number(x, mode) for x in value]
    if mode == "rational":
        return str(F(value))
    number = float(value)
    if not math.isfinite(number):
        raise ValidationError(
            f"cannot report the non-finite value {number!r}; float arithmetic overflowed"
        )
    return number


def rendered(render, value, mode):
    """The repr of ``render``'s result, or the type of what it raised."""
    try:
        return repr(render(value, mode))
    except Exception as exc:
        return type(exc)


def documents(fractions, integers, floats):
    """Nested dicts, tuples and lists of numbers, flags, names and None."""
    leaves = st.one_of(fractions, integers, floats, st.booleans(), st.text(max_size=4), st.none())
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.lists(inner, max_size=4),
        ),
        max_leaves=20,
    )


@settings(max_examples=200)
@given(doc=documents(st.fractions(), st.integers(), st.floats()))
def test_format_number_renders_every_document_as_before(doc):
    for mode in ("rational", "float"):
        # repr tells "1" from 1, 1 from 1.0 and 0.0 from -0.0.
        assert rendered(format_number, doc, mode) == rendered(reference_format_number, doc, mode)


# Documents that render in float mode: no entry overflows a float.
finite_documents = documents(
    st.fractions(-10**6, 10**6), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(bad=st.sampled_from([math.inf, -math.inf, math.nan]), doc=finite_documents)
def test_format_number_refuses_a_non_finite_float_after_any_document(bad, doc):
    format_number(doc, "float")
    with pytest.raises(ValidationError, match="non-finite"):
        format_number({"a": (doc, {"b": bad})}, "float")


def run_report(argv, capsys):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_empty_rectangle_union_reports_an_empty_cover(tmp_path, capsys, mode):
    doc = swap_doc()
    doc["rectangles"] = [{"x": [], "y": [0]}]
    path = write(tmp_path, doc)
    kind, zero = (str, "0") if mode == "rational" else (float, 0.0)
    code, report = run_report(["cover", path, "--mode", mode], capsys)
    result = report["result"]
    assert code == 0 and result["cover_a"] == [] and result["cover_b"] == []
    assert type(result["cover_value"]) is kind and result["cover_value"] == zero
    code, report = run_report(["arveson", path, "--mode", mode], capsys)
    null_cover = report["result"]["null_cover"]
    assert code == 0 and null_cover["a"] == [] and null_cover["b"] == []
    assert type(null_cover["value"]) is kind and null_cover["value"] == zero


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_decreasing_stages_report_only_the_stages(tmp_path, capsys, mode):
    doc = swap_doc()
    doc["cost"] = {"matrix": [["0", "10"], ["10", "0"]]}
    code, report = run_report(["approx", write(tmp_path, doc), "--n", "4,1", "--mode", mode], capsys)
    assert code == 1
    assert report["result"] == {"stages": ["4", "1"] if mode == "rational" else [4.0, 1.0]}
    assert all(type(n) is (str if mode == "rational" else float) for n in report["result"]["stages"])


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_lipschitz_violations_are_reported_as_index_pairs(tmp_path, capsys, monkeypatch, mode):
    monkeypatch.setattr(cli, "lipschitz_violations", lambda *args: ((0, 1), (1, 0)))
    code, report = run_report(["wasserstein", write(tmp_path, swap_doc()), "--mode", mode], capsys)
    check = next(c for c in report["checks"] if c["name"] == "witness_is_1_lipschitz")
    assert code == 1 and check["ok"] is False
    assert check["detail"] == {"violations": [[0, 1], [1, 0]]}
    assert all(type(i) is int for pair in check["detail"]["violations"] for i in pair)


# Every verb in both modes on two generated instances: the exit code, the
# stderr, and the sha256 of the report with the value of elapsed_seconds cut.
# A deliberate change to a report updates these literals, with a note in
# CHANGES.md saying why.
GOLDEN_INSTANCES = {"4x4": 0, "9x3": 1}
# sha256 of the files `otdual gen --seed 0` writes: tall metrics like the
# benchmark's and a square instance, in both modes.
GOLDEN_GEN = {
    ("24x4", "rational"): "04d70d1a0cfcde27fbf4f8f78d58615c14ca76602e9398edbd85f2e15406242b",
    ("24x4", "float"): "a0e93be41855437dd58e6cf0e5cb282841cb23577ffc3cc448da03c3db0ddbc1",
    ("32x4", "rational"): "3950e058e2efbedc5fd67d0b8ea2e7350710467727a933adbd12086020d5736a",
    ("32x4", "float"): "2b96c26a93c7ae1b1ea78f8ec9b16e60efdcec778a04c3ab0af6059005a1784e",
    ("12x12", "rational"): "5bf94558ab4a25bfcbed920e8c432713651e9d70ac8f56edb0f82f108d576b98",
    ("12x12", "float"): "9f93ec956c338d8dfcde272f8e0001b6a7ecedf1b1a711f9876d267f99c4c37f",
}
# gen files at a seed of the kind perfbench draws its instances with
# (benchmark seed * 1000 + 100 * size index + instance index).
GOLDEN_GEN_SEED = 1003
GOLDEN_GEN_AT_SEED = {
    ("8x8", "rational"): "908ee57faa557e8f853851db4227581caf847cb3e690c5f20373d5f1ca01f486",
    ("8x8", "float"): "deedc238c0d0bd626d27d41e8896ede8a1434f31b42e78a6a45901a5ebb693bf",
    ("10x10", "rational"): "12249b9322faf9c6d9e3047b1b1c7c9ee2b7705311e71370ee0703c61afe4d5d",
    ("10x10", "float"): "40df996891f084934c048e254d815f66dde11b897d6ab65e64fb789b0d8abd0a",
    ("28x4", "rational"): "aac1cc505ddea7a0173533ed03588fa0fd8bb63430a25649e70bca7f095b753b",
    ("28x4", "float"): "0c4da45121d78b3e55cc54245d37b631cc377c185b9fb5cbf542617663a2a808",
}
GOLDEN = {
    ("4x4", "rational", "solve"):
        (0, "", "cda41fd93495fc38d574012890dfe0905efa2589c21135325b16936ad268604a"),
    ("4x4", "float", "solve"):
        (0, "", "4edbb5f1b04628ef5a3c34018b5cc7a795ea3679a2d6663c9375a94f12407a88"),
    ("4x4", "rational", "chain"):
        (0, "", "ef39578a587d35130c789581bd054be10ba4e8391e44cc627c2f1401f6f1bdef"),
    ("4x4", "float", "chain"):
        (0, "", "6694730f491785d8fffe7e534d86842a9153794958bb979c1b0a91ae2af74421"),
    ("4x4", "rational", "approx"):
        (0, "", "a5e6252b20398b0b8f5054e20634b1a0ca482c6a42953f6f1566fa8c9726a6da"),
    ("4x4", "float", "approx"):
        (0, "", "282df978ad99fef27f3915392b2869e8ace66f8bb49827f1f90d6d2ef146e1dd"),
    ("4x4", "rational", "partition --eps 12 --lipschitz 24"):
        (0, "", "f026548429c48c75c37a7b8bec1f8b896efa109b0f48b3126d25a077a1c03999"),
    ("4x4", "float", "partition --eps 12 --lipschitz 24"):
        (0, "", "9c79f46e703fee58c6d8db93b2fd248d773e021659808aa9dea30e1945d907f8"),
    ("4x4", "rational", "partition --eps 1 --lipschitz 24"):
        (0, "", "f026548429c48c75c37a7b8bec1f8b896efa109b0f48b3126d25a077a1c03999"),
    ("4x4", "float", "partition --eps 1 --lipschitz 24"):
        (0, "", "9c79f46e703fee58c6d8db93b2fd248d773e021659808aa9dea30e1945d907f8"),
    ("4x4", "rational", "extend"):
        (0, "", "624ed740776381dfa566f9f7500db3df60601b336f24bd555c13274b6dbdacf9"),
    ("4x4", "float", "extend"):
        (0, "", "fb6648273b9294f6e022b2a2bdc958898793bd80603edd4e157e6e5aae5364be"),
    ("4x4", "rational", "cover"):
        (0, "", "e8155ea4ad2b4eea3f72014844b9ea050bad9bfd07e19affe49807724f826987"),
    ("4x4", "float", "cover"):
        (0, "", "a4b8359507d94b8d4f7749383d2f1cee6a67052d4af9062fc6cfed91f2866db6"),
    ("4x4", "rational", "arveson"):
        (0, "", "ec8a8deaad64dca50ee1813799d943eaad4e984ea7a158a286c849851b4c8bc7"),
    ("4x4", "float", "arveson"):
        (0, "", "f6933af7b7eaf4b3eaf8d73bef49ae9df0127be07e601ea6b574d9dbbcb03a23"),
    ("4x4", "rational", "wasserstein"):
        (0, "", "a47db1fd3e84d06015f9b7ad86bfc4be7795d54cc79241d6b70014f764a1dac4"),
    ("4x4", "float", "wasserstein"):
        (0, "", "995a5bfe8521db6f7a1df43d690c3392d3acdd53d3d115299abb242724e4d4ac"),
    ("4x4", "rational", "oracle-check"):
        (0, "", "114407d4e23499c13eddce7197176b3a27f7beb3f2054b7d2529c0851aff74df"),
    ("4x4", "float", "oracle-check"):
        (0, "", "3c8320af60b7c0af570bd9254efe97c95447114bd35d08e8c3b1e33045b94440"),
    ("9x3", "rational", "solve"):
        (0, "", "39fe777f8c119a0e6bec19f564945a4edbacedddf1af0b28761253a8e997cc74"),
    ("9x3", "float", "solve"):
        (0, "", "52494187b4024c74598717014b2111041bb765c8acc48fadbc12b8d7ec588acd"),
    ("9x3", "rational", "chain"):
        (0, "", "9e911b5724c4a58d3169fda1e051f157e5577d90c2b7752889cf2d191d6663d2"),
    ("9x3", "float", "chain"):
        (0, "", "3960b5396a05c925c90c0c07474afd1ff53af01a0f07c0c672b7a0e739d9af67"),
    ("9x3", "rational", "approx"):
        (0, "", "e682250bb40f76644a8bd01a49d324ca5a278c4888e778967c4e0a9fd4934da9"),
    ("9x3", "float", "approx"):
        (0, "", "c39a928e29dc16e86cf5d52595d82f073da3e3210484f20231987e17f66f51b2"),
    ("9x3", "rational", "partition --eps 12 --lipschitz 24"):
        (0, "", "e2566593a248fdffa77572bc6f5f3c466455a321943d1db2b508ff03ba006529"),
    ("9x3", "float", "partition --eps 12 --lipschitz 24"):
        (0, "", "2bee0e4aa1ba9e0e18434bc490ec09b948224200e1ba8b7cf1dd496d7f8692e6"),
    ("9x3", "rational", "partition --eps 1 --lipschitz 24"):
        (0, "", "1a1e6cefe4194e8b5f79eea8421a0d4b68b7c626cc4f3f33078b8d24510d5e87"),
    ("9x3", "float", "partition --eps 1 --lipschitz 24"):
        (0, "", "48f09c26459d28e4ef40c37a3e659733a2b15c27943d72049d28af72c7b4ac3d"),
    ("9x3", "rational", "extend"):
        (0, "", "28be67d6f1d0c953f8caead2761e824f44519d254451dd715d578c8a3530e447"),
    ("9x3", "float", "extend"):
        (0, "", "bbfebe049a7267d91a5cd3a990e7bb801e25d6e69a97112d0535a441a6978904"),
    ("9x3", "rational", "cover"):
        (0, "", "a8afa05b2d1e71cc625d2f166d26ef240c3f117e052ae726097e47c19b235f82"),
    ("9x3", "float", "cover"):
        (0, "", "46be8ffd2a575f31a4ad3c4dcfdbc0ac70d5d3b13815b577fb42210bd6c85229"),
    ("9x3", "rational", "arveson"):
        (0, "", "e03487ad824bdb5d8d9691fb03043a96166f465f73c4ddbebf768d9b178cc5bb"),
    ("9x3", "float", "arveson"):
        (0, "", "63109408c9e89e5389ecc19c1a0475ac5d7c32559c65de8cd5eb5a72130bdb90"),
    ("9x3", "rational", "wasserstein"):
        (2, "error: wasserstein needs mu and nu on one point set; the spaces differ in size\n", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("9x3", "float", "wasserstein"):
        (2, "error: wasserstein needs mu and nu on one point set; the spaces differ in size\n", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("9x3", "rational", "oracle-check"):
        (2, "error: 9x3 = 27 cells exceeds the cap of 16\n", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("9x3", "float", "oracle-check"):
        (2, "error: 9x3 = 27 cells exceeds the cap of 16\n", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_generated_instances_match_their_golden_digests(tmp_path):
    mismatches = []
    for (size, mode), expected in GOLDEN_GEN.items():
        path = tmp_path / f"{size}-{mode}.json"
        assert run(["gen", "--seed", "0", "--size", size, "--mode", mode, "-o", str(path)]) == 0
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != expected:
            mismatches.append(f"{size} {mode}: got {got}")
    assert not mismatches, "\n".join(mismatches)


def test_generated_instances_at_a_benchmark_seed_match_their_golden_digests(tmp_path):
    mismatches = []
    for (size, mode), expected in GOLDEN_GEN_AT_SEED.items():
        path = tmp_path / f"{size}-{mode}.json"
        assert run(["gen", "--seed", str(GOLDEN_GEN_SEED), "--size", size, "--mode", mode,
                    "-o", str(path)]) == 0
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != expected:
            mismatches.append(f"{size} {mode}: got {got}")
    assert not mismatches, "\n".join(mismatches)


def test_reports_match_their_golden_digests(tmp_path, capsys):
    paths = {}
    for size, seed in GOLDEN_INSTANCES.items():
        paths[size] = str(tmp_path / f"{size}.json")
        assert run(["gen", "--seed", str(seed), "--size", size, "-o", paths[size]]) == 0
    capsys.readouterr()
    mismatches = []
    for (size, mode, verb), expected in GOLDEN.items():
        name, *flags = verb.split()
        argv = [name, paths[size], *flags, "--mode", mode]
        code = run(argv)
        out, err = capsys.readouterr()
        report = re.sub(r'("elapsed_seconds": )[^\n]*', r"\1", out)
        got = (code, err, hashlib.sha256(report.encode()).hexdigest())
        if got != expected:
            mismatches.append(f"{argv}: got {got}")
    assert not mismatches, "\n".join(mismatches)
