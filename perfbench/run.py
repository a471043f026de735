"""Benchmark of otdual CLI calls: a closed loop with one caller, in-process.

    python3 perfbench/run.py --workload transport-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports ``otdual`` from
``src/``, writes its instances with ``otdual gen`` into a scratch directory
under ``.perfbench_work/``, then calls ``otdual.cli.main(argv)`` on them one
call after another.  Every report is checked by the independent certificate
checker in ``certify.py`` and digested without its ``elapsed_seconds``.

Set-up writes a pool of instance sets; each set holds one call of every
verb and size of the workload.  A sweep is the first few sets, at least 40
calls.  A run makes one sweep and then continues with the next sets of the
pool, set by set, until ``--seconds`` have passed, so a longer run sees more
distinct instances.  The run sets up seven times: once before the calls and
six times spread between the sets, each time into a scratch directory.

With ``--trace 0`` the last output line carries the end-to-end metrics.
With ``--trace 1`` the run mixes untraced and traced sweeps; the traced
ones wrap each layer module's public functions (see ``spans.py``) and the
last line carries the per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from certify import Certifier
from spans import COUNT_NAMES, LAYERS, Tracer, TraceError, package_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CALLS = 40  # so that ten calls lie beyond the 75th percentile
SETUP_REPEATS = 7
SELF_TIME_SLACK = 0.01  # share of traced call time the layer self times may miss
REF_LOOP_ITERATIONS = 2_000_000

PARTITION = ("partition", "--lipschitz", "24", "--eps", "12")
TRANSPORT_VERBS = (("solve",), ("chain",), PARTITION, ("extend",), ("approx",))
TALL_VERBS = (("solve",), ("cover",), ("arveson",))
WASSERSTEIN = (("wasserstein",),)


@dataclass(frozen=True)
class Workload:
    why: str
    # (size, verbs, instances): every set calls the verbs on one instance of
    # this size, taken in turn from a pool of that many instances.
    sizes: tuple
    sets: int  # instance sets a run can take before the pool repeats


# Each set calls every verb on one instance of every size.  The sizes are
# close together so that the call times spread smoothly from the fastest
# call to the slowest: with a few far-apart sizes they fall into clusters,
# and a percentile that lies between two clusters jumps from seed to seed.
# The sizes are small so that one run sees many instances: the time of a
# call varies about 25% from instance to instance (pivot counts differ).
WORKLOADS = {
    "transport-exact": Workload(
        why=("the main job users run: five verbs on 8x8 to 12x12 rational instances, "
             "dominated by the network simplex on Fractions"),
        sizes=tuple((f"{n}x{n}", TRANSPORT_VERBS, 16) for n in range(8, 13)),
        sets=16,
    ),
    # The tall calls cost what their size sets (the n^3 triangle check while
    # loading; about 5% from instance to instance), so a few tall instances
    # serve many sets; the wasserstein LP's pivots vary much more, so those
    # are new in every set.
    "metric-exact": Workload(
        why=("metric loading (the n^3 triangle check on tall 24x4 to 32x4 instances) and the "
             "dense Lipschitz LP of wasserstein on 8x8 to 12x12 dominate; the simplex is light"),
        sizes=(
            *((f"{n}x4", TALL_VERBS, 3) for n in range(24, 33, 4)),
            *((f"{n}x{n}", WASSERSTEIN, 16) for n in range(8, 13)),
        ),
        sets=16,
    ),
}

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "call_p50_s": "s",
    "call_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units.update({name: "bytes" if "bytes" in name else "count" for name in COUNT_NAMES})
    units["trace.overhead_s"] = "s"
    units["machine.ref_loop_s"] = "s"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


@dataclass(frozen=True)
class Call:
    verb: str
    instance: str
    argv: tuple


@dataclass(frozen=True)
class Plan:
    instances: tuple  # (gen seed, size, path)
    sets: tuple  # tuple of tuples of Call
    sweep_sets: int  # leading sets that make one sweep

    def sweep(self):
        return [call for group in self.sets[: self.sweep_sets] for call in group]


def build_plan(workload, seed, directory):
    instances = []
    pools = []
    for i, (size, verbs, count) in enumerate(workload.sizes):
        pool = []
        for j in range(count):
            gen_seed = seed * 1000 + 100 * i + j
            path = str(directory / f"instance-{gen_seed}-{size}.json")
            instances.append((gen_seed, size, path))
            pool.append(path)
        pools.append((pool, verbs))
    sets = tuple(
        tuple(
            Call(verb[0], pool[k % len(pool)], (verb[0], pool[k % len(pool)], *verb[1:]))
            for pool, verbs in pools
            for verb in verbs
        )
        for k in range(workload.sets)
    )
    sweep_sets = -(-MIN_CALLS // len(sets[0]))
    if sweep_sets > len(sets):
        raise BenchError(f"a sweep must make at least {MIN_CALLS} calls")
    return Plan(tuple(instances), sets, sweep_sets)


def import_cli():
    """Import ``otdual.cli`` afresh from this checkout's ``src/``."""
    if not (SRC / "otdual" / "__init__.py").is_file():
        raise BenchError(f"no otdual package under {SRC}")
    for name in [n for n in sys.modules if n == "otdual" or n.startswith("otdual.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("otdual.cli")
    if Path(cli.__file__).resolve().parent != SRC / "otdual":
        raise BenchError(f"otdual was imported from {cli.__file__}, not from {SRC}")
    return cli


def reference_loop_seconds():
    """Time a fixed pure-Python loop: a diagnostic of the machine's speed."""
    start = perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i & 7
    return perf_counter() - start


class Runner:
    """One workload at one seed: set-up, the closed loop and the checks."""

    def __init__(self, name, seed, directory):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.directory = directory
        self.report_path = str(directory / "report.json")
        self.certifier = Certifier()
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- set-up --------------------------------------------------------------

    def set_up(self):
        """Set up the run: the package, instances and warm-up call it uses."""
        directory = self.directory / "instances"
        directory.mkdir()
        seconds, self.cli, self.plan, warm, outcome = self._set_up_once(directory)
        self.instance_docs = {}
        for _, _, path in self.plan.instances:
            with open(path, encoding="utf-8") as handle:
                self.instance_docs[path] = json.load(handle)
        self._judge(warm, *outcome)
        return seconds

    def _set_up_once(self, directory):
        """Import, write the instances with ``otdual gen``, make one warm-up call."""
        start = perf_counter()
        cli = import_cli()
        plan = build_plan(self.workload, self.seed, directory)
        for gen_seed, size, path in plan.instances:
            code = cli.main(["gen", f"--seed={gen_seed}", "--size", size, "-o", path])
            if code != 0:
                raise BenchError(f"otdual gen exited {code} for seed {gen_seed}, size {size}")
        warm = plan.sets[0][0]
        outcome = self._invoke(cli, warm)
        return perf_counter() - start, cli, plan, warm, outcome

    def repeat_set_up(self, index):
        """Time one more set-up in a scratch directory; the run keeps its own package."""
        saved = package_modules()
        directory = self.directory / f"setup-{index}"
        directory.mkdir()
        try:
            seconds, _, _, warm, outcome = self._set_up_once(directory)
            with open(warm.instance, encoding="utf-8") as handle:
                self.instance_docs[warm.instance] = json.load(handle)
            self._judge(warm, *outcome)
            del self.instance_docs[warm.instance]
        finally:
            for name in package_modules():
                del sys.modules[name]
            sys.modules.update(saved)
            shutil.rmtree(directory)
        return seconds

    # -- calls ---------------------------------------------------------------

    def _invoke(self, cli, call):
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        try:
            code, error = cli.main([*call.argv, "-o", self.report_path]), None
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception:  # every failure of a call is counted, never fatal
            code, error = None, traceback.format_exc(limit=4)
        return code, error

    def call(self, call):
        """Make one timed call, then check it; return its wall time."""
        start = perf_counter()
        code, error = self._invoke(self.cli, call)
        wall = perf_counter() - start
        self._judge(call, code, error)
        return wall

    def _judge(self, call, code, error):
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(f"raised {error}")
        elif code != 0:
            problems.append(f"exit code {code}")
        try:
            with open(self.report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"no readable report: {exc}")
        else:
            problems += self.certifier.check(
                call.verb, self.instance_docs[call.instance], report, "rational", call.instance,
            )
            report.pop("elapsed_seconds", None)
            text = json.dumps(report, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(call.argv, digest) != digest:
                problems.append("report differs from an earlier identical call")
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(call.argv)}: {'; '.join(problems)}")

    def sweep(self):
        return [self.call(call) for call in self.plan.sweep()]

    def report_digest(self):
        """Digest of the sweep's reports, which every run makes."""
        joined = "".join(self.digests.get(call.argv, "missing") for call in self.plan.sweep())
        return hashlib.sha256(joined.encode()).hexdigest()

    # -- untraced run ----------------------------------------------------------

    def measure(self, seconds):
        """One sweep, then whole instance sets until ``seconds`` have passed.

        The set-ups after the first are spread evenly over the run, so that
        their median, like the calls, samples the machine over the whole run
        rather than its first seconds.  Returns the wall time of every call
        and the times of those set-ups.
        """
        sets = self.plan.sets
        walls, setups = [], []
        start = perf_counter()
        k = 0
        while k < self.plan.sweep_sets or perf_counter() - start - sum(setups) < seconds:
            due = (len(setups) + 1) * seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS - 1 and perf_counter() - start - sum(setups) >= due:
                setups.append(self.repeat_set_up(len(setups) + 1))
            walls += [self.call(call) for call in sets[k % len(sets)]]
            k += 1
        while len(setups) < SETUP_REPEATS - 1:
            setups.append(self.repeat_set_up(len(setups) + 1))
        return walls, setups

    # -- traced run ------------------------------------------------------------

    def traced_sweep(self, tracer):
        tracer.reset()
        tracer.install()
        walls = []
        try:
            for index, call in enumerate(self.plan.sweep()):
                tracer.call_id = index
                walls.append(self.call(call))
        finally:
            tracer.uninstall()
        summary = tracer.layer_summary()
        roots = tracer.root_spans()
        if [(s[0], s[1]) for s in roots] != [("cli", "main")] * len(walls):
            self.problems.append("trace: not every call has exactly one cli.main root span")
        self_total = sum(entry["self_s"] for entry in summary.values())
        call_total = sum(walls)
        if not (1 - SELF_TIME_SLACK) * call_total <= self_total <= call_total:
            self.problems.append(
                f"trace: layer self times add to {self_total:.6f} s, "
                f"traced call time is {call_total:.6f} s"
            )
        counts = {name: tracer.counts.get(name, 0) for name in COUNT_NAMES}
        return call_total, summary, counts

    def measure_traced(self, seconds):
        """Run untraced (U) and traced (T) sweeps until ``seconds`` have passed.

        The order U T T U, repeated, spreads slow drift of the machine's
        speed evenly over both kinds.
        """
        tracer = Tracer()
        untraced, traced, summaries, counts = [], [], [], []
        start = perf_counter()
        k = 0
        while k < 2 or perf_counter() - start < seconds:
            if k % 4 in (1, 2):
                wall, summary, count = self.traced_sweep(tracer)
                traced.append(wall)
                summaries.append(summary)
                counts.append(count)
            else:
                untraced.append(sum(self.sweep()))
            k += 1
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{self.name}-seed{self.seed}.jsonl")

        exact = [(count, {layer: (s["calls"], s["errors"]) for layer, s in summary.items()})
                 for count, summary in zip(counts, summaries)]
        if any(entry != exact[0] for entry in exact):
            self.problems.append("trace: counts differ between traced sweeps")
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.fmean(s[layer]["self_s"] for s in summaries)
            metrics[f"{layer}.calls"] = summaries[0][layer]["calls"]
            metrics[f"{layer}.errors"] = summaries[0][layer]["errors"]
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
        return metrics


def run(name, seed, seconds, trace):
    """Run one workload; return summary lines, the result document and problems."""
    WORK.mkdir(exist_ok=True)
    directory = WORK / f"run-{name}-{seed}-{os.getpid()}"
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir()
    try:
        ref_loop_s = reference_loop_seconds()
        runner = Runner(name, seed, directory)
        setup_s = runner.set_up()
        if trace:
            metrics = runner.measure_traced(seconds)
            metrics["machine.ref_loop_s"] = ref_loop_s
            units = per_layer_units()
        else:
            walls, setups = runner.measure(seconds)
            metrics = {
                "calls_per_s": len(walls) / sum(walls),
                "call_p50_s": statistics.median(walls),
                "call_p75_s": statistics.quantiles(walls, n=4)[2],
                "setup_s": statistics.median([setup_s, *setups]),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    lines = [f"workload {name}  seed {seed}  trace {trace}  calls {runner.attempted}"]
    lines += [f"  {key:<26} {metrics[key]:.6g} {units[key]}" for key in units]
    ratio = runner.failed / runner.attempted
    lines.append(f"  {'failed_call_ratio':<26} {ratio:.6g} ratio ({runner.failed} of {runner.attempted})")
    if not trace:
        lines.append(f"  {'machine.ref_loop_s':<26} {ref_loop_s:.6g} s")
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "report_digest": runner.report_digest(),
        "failed_call_ratio": ratio,
        "machine.ref_loop_s": ref_loop_s,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if trace:
        record["counts"] = {key: metrics[key] for key in units
                            if not key.endswith("_s")}
    lines.append("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return lines, result, runner.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        lines, result, problems = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
