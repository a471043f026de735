"""Command-line batch surface: load an instance, run a scenario, emit JSON.

Exit codes: 0 on success, 1 when an invariant check fails (the interesting
outcome when hunting for counterexamples on random instances), 2 on input
errors.  Reports are deterministic for a fixed instance and seed except for
the ``elapsed_seconds`` field.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from .approx import (
    beta_star_limit_check,
    infconv_sequence,
    lipschitz_modulus,
    oscillation,
    oscillation_partition,
    partition_discretize,
)
from .couplings import CoarseCoupling, extend_coupling
from .errors import DualityError, InvariantViolation, NotMonotone, ParseError, ValidationError
from .instances import (
    Instance,
    generate_instance,
    instance_to_jsonable,
    load_instance,
)
from .numeric import fold_sum, format_number
from .oracle import DEFAULT_CELL_CAP, oracle_enumerate
from .rectangles import Cover, arveson_witness, min_cover
from .spaces import mask_indices
from .transport import (
    check_chain,
    coupling_defects,
    solve_alpha,
    solve_alpha_star,
    solve_beta,
    solve_beta_star,
    transport_value,
)
from .wasserstein import lipschitz_violations, wasserstein1


def _check(name, ok, **detail):
    entry = {"name": name, "ok": bool(ok)}
    if detail:
        entry["detail"] = detail
    return entry


def _coupling_checks(ctx, name, coupling):
    defects = asdict(coupling_defects(coupling, ctx))
    return _check(name, defects.pop("ok"), **defects)


def _scenario_solve(instance, ctx, options):
    cost = instance.cost
    mu, nu = instance.space_x.weights, instance.space_y.weights
    low = solve_alpha(cost, mu, nu, ctx)
    high = solve_alpha_star(cost, mu, nu, ctx)
    beta = solve_beta(cost, mu, nu, ctx)
    beta_star = solve_beta_star(cost, mu, nu, ctx)
    chain = check_chain(cost, mu, nu, ctx)
    result = {
        "beta": beta.value,
        "alpha": low.value,
        "alpha_star": high.value,
        "beta_star": beta_star.value,
        "chain": chain.as_tuple(),
        "coupling_alpha": low.coupling.matrix,
        "coupling_alpha_star": high.coupling.matrix,
        "potentials_beta": {"f": beta.potentials.f, "g": beta.potentials.g},
        "potentials_beta_star": {"f": beta_star.potentials.f, "g": beta_star.potentials.g},
    }
    checks = [
        _check("chain_inequality", chain.ok, chain=chain.as_tuple()),
        _coupling_checks(ctx, "alpha_coupling_marginals", low.coupling),
        _coupling_checks(ctx, "alpha_star_coupling_marginals", high.coupling),
    ]
    return result, checks


def _scenario_chain(instance, ctx, options):
    cost = instance.cost
    chain = check_chain(cost, instance.space_x.weights, instance.space_y.weights, ctx)
    result = {
        "beta": chain.beta,
        "alpha": chain.alpha,
        "alpha_star": chain.alpha_star,
        "beta_star": chain.beta_star,
    }
    return result, [_check("chain_inequality", chain.ok)]


def _parse_n_list(text, ctx):
    out = tuple(ctx.number(part, "--n") for part in map(str.strip, text.split(",")) if part)
    if not out:
        raise ValidationError("--n produced an empty stage list")
    return out


def _scenario_approx(instance, ctx, options):
    cost, metric = instance.cost, instance.space_x.metric
    mu, nu = instance.space_x.weights, instance.space_y.weights
    modulus = lipschitz_modulus(cost, metric, ctx)
    if options.get("n") is not None:
        ns = _parse_n_list(options["n"], ctx)
    else:
        if modulus is None:
            raise ValidationError(
                "cost has no finite Lipschitz modulus; pass --n explicitly"
            )
        ns = (ctx.number(1),)
        while ns[-1] < max(modulus, 1):
            ns += (ns[-1] * 2,)
    sequence = infconv_sequence(cost, instance.space_x, ns, ctx=ctx)
    try:
        report = beta_star_limit_check(sequence, mu, nu, ctx)
    except NotMonotone as exc:
        return {"stages": ns}, [_check("stages_monotone", False, error=str(exc))]
    reaches = modulus is not None and ns[-1] >= max(modulus, 0)
    result = {
        "stages": ns,
        "beta_star_stages": report.stage_values,
        "beta_star_base": report.base_value,
        "final_gap": report.final_gap,
        "lipschitz_modulus": modulus,
        "last_stage_reaches_modulus": reaches,
    }
    checks = [_check("stages_monotone", True)]
    if reaches:
        checks.append(_check("final_gap_zero", ctx.is_zero(report.final_gap)))
    return result, checks


def _scenario_partition(instance, ctx, options):
    cost = instance.cost
    eps = ctx.number(options["eps"], "--eps")
    bound = ctx.number(options["lipschitz"], "--lipschitz")
    mu, nu = instance.space_x.weights, instance.space_y.weights
    part = oscillation_partition(cost, eps, instance.space_x, bound, ctx)
    osc = oscillation(cost, part, ctx)
    actual = max((x for x in osc if x is not None), default=ctx.number(0))
    coarse_cost = partition_discretize(cost, part, ctx)
    # beta is the certified value of the same solve as alpha.
    alpha = solve_alpha(cost, mu, nu, ctx).value
    alpha0 = solve_alpha(coarse_cost, mu, nu, ctx).value
    result = {
        "cells": [list(mask_indices(c)) for c in part.cells],
        "representatives": list(part.representatives),
        "oscillation_per_cell": osc,
        "oscillation_max": actual,
        "alpha": alpha,
        "alpha_discretized": alpha0,
        "beta": alpha,
        "beta_discretized": alpha0,
    }
    checks = [
        _check("oscillation_within_eps", ctx.leq(actual, eps)),
        _check("alpha_transfer_within_eps", ctx.leq(abs(alpha - alpha0), eps)),
    ]
    return result, checks


def _scenario_extend(instance, ctx, options):
    cost, part = instance.cost, instance.partition
    mu, nu = instance.space_x.weights, instance.space_y.weights
    masses = part.cell_masses(mu)
    null = part.null_cell_index
    if null is not None and not ctx.is_zero(masses[null]):
        raise ValidationError(
            f"the null cell has mass {masses[null]}; coarse solving needs mass 0"
        )
    # Coarse cost: one row per cell, the row its members share after
    # discretization; the null cell and empty cells carry no mass.
    discretized = partition_discretize(cost, part, ctx)
    zero_row = tuple(ctx.number(0) for _ in range(instance.space_y.size))
    rows = tuple(
        discretized[members[0]] if k != null and members else zero_row
        for k, members in enumerate(map(mask_indices, part.cells))
    )
    coarse_report = solve_alpha(rows, masses, nu, ctx)
    coarse = CoarseCoupling(partition=part, matrix=coarse_report.coupling.matrix, nu=nu)
    fine = extend_coupling(coarse, mu, ctx)
    alpha = solve_alpha(cost, mu, nu, ctx).value
    fine_value = transport_value(fine, cost)
    agreement_ok = True
    for k, cell in enumerate(part.cells):
        members = mask_indices(cell)
        for y in range(instance.space_y.size):
            lhs = fold_sum(fine.matrix[x][y] for x in members)
            if not ctx.eq(lhs, coarse.matrix[k][y]):
                agreement_ok = False
    result = {
        "cell_masses": masses,
        "coarse_value": coarse_report.value,
        "coarse_coupling": coarse.matrix,
        "extended_coupling": fine.matrix,
        "extended_cost": fine_value,
        "alpha": alpha,
    }
    checks = [
        _coupling_checks(ctx, "extended_marginals", fine),
        _check("coarse_agreement", agreement_ok),
        _check("extension_feasible_above_alpha", ctx.leq(alpha, fine_value)),
    ]
    return result, checks


def _scenario_cover(instance, ctx, options):
    family = instance.rectangles
    mu, nu = instance.space_x.weights, instance.space_y.weights
    cover = min_cover(family, mu, nu, ctx)
    result = {
        "cover_a": list(mask_indices(cover.a)),
        "cover_b": list(mask_indices(cover.b)),
        "cover_value": cover.value,
        "alpha_star": cover.value,
    }
    # min_cover has checked that the cover contains the union and is worth alpha*.
    return result, []


def _scenario_arveson(instance, ctx, options):
    family = instance.rectangles
    mu, nu = instance.space_x.weights, instance.space_y.weights
    outcome = arveson_witness(family, mu, nu, ctx)
    if isinstance(outcome, Cover):
        result = {
            "null_cover": {
                "a": list(mask_indices(outcome.a)),
                "b": list(mask_indices(outcome.b)),
                "value": outcome.value,
            }
        }
    else:
        result = {
            "alpha_star": outcome.alpha_star,
            "maximizing_coupling": outcome.coupling.matrix,
        }
    # arveson_witness branches on the exact cover value; a check could only restate it.
    return result, []


def _scenario_wasserstein(instance, ctx, options):
    metric = instance.space_x.metric
    if instance.space_x.size != instance.space_y.size:
        raise ValidationError(
            "wasserstein needs mu and nu on one point set; the spaces differ in size"
        )
    mu, nu = instance.space_x.weights, instance.space_y.weights
    report = wasserstein1(metric, mu, nu, ctx)
    violations = lipschitz_violations(metric, report.lipschitz_witness, ctx)
    result = {
        "alpha": report.primal_value,
        "beta_lipschitz": report.dual_value,
        "witness_f": report.lipschitz_witness,
        "coupling": report.coupling.matrix,
    }
    checks = [
        _check("duality_gap_zero", report.primal_value == report.dual_value),
        _check("witness_is_1_lipschitz", not violations, violations=list(violations)),
    ]
    return result, checks


def _scenario_oracle_check(instance, ctx, options):
    cost = instance.cost
    mu, nu = instance.space_x.weights, instance.space_y.weights
    cap = options.get("cap", DEFAULT_CELL_CAP)
    low = solve_alpha(cost, mu, nu, ctx).value
    high = solve_alpha_star(cost, mu, nu, ctx).value
    oracle_low = oracle_enumerate(cost, mu, nu, "alpha", cap=cap, ctx=ctx)
    oracle_high = oracle_enumerate(cost, mu, nu, "alpha_star", cap=cap, ctx=ctx)
    # Both routes round the exact optimum of one lattice problem once.
    exact = low == oracle_low and high == oracle_high
    result = {
        "alpha": low,
        "alpha_oracle": oracle_low,
        "alpha_star": high,
        "alpha_star_oracle": oracle_high,
        "match": "exact" if exact else "mismatch",
    }
    return result, [_check("solver_matches_oracle", exact)]


# The message naming each instance field a verb can need, when it is absent.
_MISSING = {
    "cost": "this scenario needs a 'cost' field in the instance",
    "metric": "the {verb} scenario needs a metric on space_x",
    "partition": "the {verb} scenario needs a 'partition' field",
    "rectangles": "this scenario needs a 'rectangles' field",
}


@dataclass(frozen=True)
class _Verb:
    """A CLI verb: its scenario, the instance fields it needs, its help and flags."""

    scenario: Callable
    needs: tuple[str, ...]
    help: str
    flags: dict = field(default_factory=dict)


# Every verb but ``gen``, in the order ``otdual --help`` lists them.
_VERBS = {
    "solve": _Verb(_scenario_solve, ("cost",), "all four values with optimality witnesses"),
    "chain": _Verb(_scenario_chain, ("cost",),
                   "the ordered quadruple (beta, alpha, alpha*, beta*)"),
    "extend": _Verb(_scenario_extend, ("cost", "partition"),
                    "solve the coarse problem and extend its plan to the full space"),
    "cover": _Verb(_scenario_cover, ("rectangles",), "minimal cover of the rectangle union"),
    "arveson": _Verb(_scenario_arveson, ("rectangles",),
                     "null cover or counter-evidence for the rectangle union"),
    "wasserstein": _Verb(_scenario_wasserstein, ("metric",),
                         "metric cost solved along both dual routes"),
    "approx": _Verb(_scenario_approx, ("cost", "metric"),
                    "infimal-convolution stages and beta* limits",
                    {"--n": {"help": "comma-separated stage parameters"}}),
    "partition": _Verb(_scenario_partition, ("cost", "metric"),
                       "oscillation partition and value transfer",
                       {"--eps": {"required": True, "help": "oscillation level"},
                        "--lipschitz": {"required": True, "help": "uniform Lipschitz bound"}}),
    "oracle-check": _Verb(_scenario_oracle_check, ("cost",), "compare the solver with enumeration",
                          {"--cap": {"type": int, "default": DEFAULT_CELL_CAP,
                                     "help": "max cell count to enumerate"}}),
}


def run_scenario(instance: Instance, command: str, options: dict | None = None) -> dict:
    """Execute one scenario and return the full report document.

    A scenario returns raw solver values; its result and its checks are
    rendered here, in one pass.  A broken solver invariant becomes the
    failed check ``solver_invariants``.
    """
    verb = _VERBS.get(command)
    if verb is None:
        raise ValidationError(f"unknown command {command!r}; known: {sorted(_VERBS)}")
    for field in verb.needs:
        owner = instance.space_x if field == "metric" else instance
        if getattr(owner, field) is None:
            raise ValidationError(_MISSING[field].format(verb=command))
    ctx = instance.ctx
    started = time.perf_counter()
    try:
        result, checks = verb.scenario(instance, ctx, options or {})
    except InvariantViolation as exc:
        result, checks = {}, [_check("solver_invariants", False, error=str(exc))]
    result, checks = format_number((result, tuple(checks)), ctx.mode)
    elapsed = time.perf_counter() - started
    return {
        "command": command,
        "arithmetic": ctx.mode,
        "tolerance": None if ctx.mode == "rational" else ctx.tolerance,
        "sizes": {"x": instance.space_x.size, "y": instance.space_y.size},
        "result": result,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "elapsed_seconds": elapsed,
    }


def _emit(document, output):
    text = json.dumps(document, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=["rational", "float"], default=None,
                        help="override the instance's arithmetic mode")
    common.add_argument("--tolerance", type=float, default=None,
                        help="absolute tolerance for float mode (default 1e-9)")
    common.add_argument("--output", "-o", default=None, help="write the report here")

    parser = argparse.ArgumentParser(
        prog="otdual",
        description="Exact transport duality values and constructions on finite instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help, parents=[common])
        p.add_argument("instance", help="path to the instance JSON file")
        for flag, settings in verb.flags.items():
            p.add_argument(flag, **settings)

    p = sub.add_parser("gen", help="emit a random instance", parents=[common])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, help="RxC, e.g. 3x4")
    return parser


# Parsing leaves a parser unchanged, so main builds one per process:
# building it costs more than loading and solving a small instance.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.tolerance is not None and not (
            math.isfinite(args.tolerance) and args.tolerance >= 0
        ):
            raise ParseError(
                f"--tolerance must be a finite number >= 0, got {args.tolerance!r}"
            )
        if args.command == "gen":
            try:
                m_text, n_text = args.size.lower().split("x")
                m, n = int(m_text), int(n_text)
            except ValueError:
                raise ParseError(f"--size must look like 3x4, got {args.size!r}") from None
            instance = generate_instance(args.seed, m, n, mode=args.mode or "rational")
            _emit(instance_to_jsonable(instance), args.output)
            return 0
        instance = load_instance(
            args.instance, mode_override=args.mode, tolerance=args.tolerance
        )
        options = {flag[2:]: getattr(args, flag[2:]) for flag in _VERBS[args.command].flags}
        report = run_scenario(instance, args.command, options)
        _emit(report, args.output)
        return 0 if report["ok"] else 1
    except DualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
