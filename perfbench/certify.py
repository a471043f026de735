"""Independent certificates for otdual CLI reports.

The checker reads the instance and report JSON documents itself and imports
nothing from otdual.  In rational mode every number is read as an exact
``fractions.Fraction`` and compared exactly; in float mode numbers are
compared within ``FLOAT_TOLERANCE``.

A report is certified when its witnesses prove its values:

- ``solve``: both couplings are feasible, the lower potentials satisfy
  f_i + g_j <= c_ij and the upper ones f_i + g_j >= c_ij, and for each side
  sum P*c = mu.f + nu.g = the reported values.
- ``wasserstein``: the coupling is feasible, the witness is 1-Lipschitz, and
  sum P*d = (mu - nu).f = the reported values.
- ``cover``: the cover contains the union and its value is mu(a) + nu(b).
- ``arveson``: a null cover contains the union with value 0; otherwise the
  maximizing coupling is feasible and its mass on the union equals the
  instance's certified cover value.
- ``chain``, ``partition``, ``extend`` and ``approx``: every reported alpha,
  beta, alpha* or beta* equals the value certified for the same instance by
  an earlier ``solve``.

Couplings are never compared with one another: tied optima may differ.
"""
from __future__ import annotations

from fractions import Fraction

FLOAT_TOLERANCE = 1e-9
VERBS = ("solve", "wasserstein", "cover", "arveson", "chain", "partition", "extend", "approx")


class Arithmetic:
    """Number reading and comparison for one arithmetic mode."""

    def __init__(self, mode):
        if mode not in ("rational", "float"):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        self.exact = mode == "rational"

    def number(self, value):
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        if self.exact:
            if not isinstance(value, (int, str)):
                raise ValueError(f"{value!r} is not an exact number")
            return Fraction(value)
        if isinstance(value, str):
            return float(Fraction(value))
        if not isinstance(value, (int, float)):
            raise ValueError(f"{value!r} is not a number")
        return float(value)

    def vector(self, values):
        return [self.number(v) for v in values]

    def matrix(self, rows):
        return [self.vector(row) for row in rows]

    def eq(self, a, b):
        return a == b if self.exact else abs(a - b) <= FLOAT_TOLERANCE

    def leq(self, a, b):
        return a <= b if self.exact else a <= b + FLOAT_TOLERANCE


class Instance:
    """The parts of an instance document the certificates need."""

    def __init__(self, doc, ar):
        self.mu = ar.vector(doc["space_x"]["weights"])
        self.nu = ar.vector(doc["space_y"]["weights"])
        metric = doc["space_x"].get("metric")
        self.metric = ar.matrix(metric) if metric is not None else None
        cost = doc.get("cost")
        self.cost = ar.matrix(cost["matrix"]) if cost is not None else None
        self.rectangles = [(set(r["x"]), set(r["y"])) for r in doc.get("rectangles") or ()]
        self.union = {(x, y) for xs, ys in self.rectangles for x in xs for y in ys}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pairing(p, c):
    return sum(_dot(prow, crow) for prow, crow in zip(p, c))


class Certifier:
    """Checks reports, remembering certified values per instance and mode."""

    def __init__(self):
        self._certified = {}

    def check(self, verb, instance_doc, report, mode, key):
        """Return the list of problems found; an empty list certifies the report."""
        ar = Arithmetic(mode)
        problems = []
        try:
            if report.get("command") != verb:
                problems.append(f"report is for {report.get('command')!r}, not {verb!r}")
            if report.get("arithmetic") != mode:
                problems.append(f"report arithmetic is {report.get('arithmetic')!r}, not {mode!r}")
            if report.get("ok") is not True:
                problems.append("report says ok is not true")
            if verb not in VERBS:
                raise ValueError(f"no certificate for the verb {verb!r}")
            check = getattr(self, "_" + verb)
            inst = Instance(instance_doc, ar)
            values = self._certified.setdefault((key, mode), {})
            check(ar, inst, report["result"], values, problems)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            problems.append(f"malformed report: {type(exc).__name__}: {exc}")
        return problems

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coupling(ar, name, p, mu, nu, problems):
        if len(p) != len(mu) or any(len(row) != len(nu) for row in p):
            problems.append(f"{name} has the wrong shape")
            return
        if any(not ar.leq(0, x) for row in p for x in row):
            problems.append(f"{name} has a negative entry")
        for i, row in enumerate(p):
            if not ar.eq(sum(row), mu[i]):
                problems.append(f"{name} row {i} sums to {sum(row)}, not mu[{i}] = {mu[i]}")
        for j in range(len(nu)):
            col = sum(row[j] for row in p)
            if not ar.eq(col, nu[j]):
                problems.append(f"{name} column {j} sums to {col}, not nu[{j}] = {nu[j]}")

    @staticmethod
    def _same(ar, name, reported, certified, problems):
        if not ar.eq(reported, certified):
            problems.append(f"{name} = {reported} differs from the certified {certified}")

    def _side(self, ar, inst, result, suffix, side, problems):
        """Certify one side of ``solve``; return its certified value."""
        c = inst.cost
        p = ar.matrix(result["coupling_alpha" + suffix])
        potentials = result["potentials_beta" + suffix]
        f, g = ar.vector(potentials["f"]), ar.vector(potentials["g"])
        self._coupling(ar, "coupling_alpha" + suffix, p, inst.mu, inst.nu, problems)
        if len(f) != len(inst.mu) or len(g) != len(inst.nu):
            problems.append(f"potentials_beta{suffix} have the wrong length")
            return None
        for i, row in enumerate(c):
            for j, cij in enumerate(row):
                total = f[i] + g[j]
                if not (ar.leq(total, cij) if side == "lower" else ar.leq(cij, total)):
                    problems.append(f"potentials_beta{suffix} infeasible at ({i}, {j})")
                    break
        primal = _pairing(p, c)
        dual = _dot(inst.mu, f) + _dot(inst.nu, g)
        self._same(ar, f"mu.f + nu.g of potentials_beta{suffix}", dual, primal, problems)
        self._same(ar, "alpha" + suffix, ar.number(result["alpha" + suffix]), primal, problems)
        self._same(ar, "beta" + suffix, ar.number(result["beta" + suffix]), dual, problems)
        return primal

    def _need(self, values, name, problems):
        if name not in values:
            problems.append(f"no certified {name} for this instance; run its certifying verb first")
        return values.get(name)

    def _agree(self, ar, result, names, values, problems):
        """Reported values named in ``names`` must equal the certified ones."""
        for reported, certified in names:
            value = self._need(values, certified, problems)
            if value is not None:
                self._same(ar, reported, ar.number(result[reported]), value, problems)

    # -- verbs -------------------------------------------------------------

    def _solve(self, ar, inst, result, values, problems):
        alpha = self._side(ar, inst, result, "", "lower", problems)
        alpha_star = self._side(ar, inst, result, "_star", "upper", problems)
        if problems:
            return
        chain = ar.vector(result["chain"])
        expected = [alpha, alpha, alpha_star, alpha_star]
        if len(chain) != 4 or not all(ar.eq(a, b) for a, b in zip(chain, expected)):
            problems.append("chain differs from (beta, alpha, alpha*, beta*)")
        for name, value in (("alpha", alpha), ("alpha_star", alpha_star)):
            if name in values:
                self._same(ar, name, value, values[name], problems)
            values[name] = value

    def _wasserstein(self, ar, inst, result, values, problems):
        d = inst.metric
        p = ar.matrix(result["coupling"])
        f = ar.vector(result["witness_f"])
        self._coupling(ar, "coupling", p, inst.mu, inst.nu, problems)
        if len(f) != len(d):
            problems.append("witness_f has the wrong length")
            return
        for i in range(len(d)):
            if any(not ar.leq(f[i] - f[j], d[i][j]) for j in range(len(d))):
                problems.append(f"witness_f is not 1-Lipschitz at point {i}")
        primal = _pairing(p, d)
        dual = _dot([a - b for a, b in zip(inst.mu, inst.nu)], f)
        self._same(ar, "(mu - nu).f", dual, primal, problems)
        self._same(ar, "alpha", ar.number(result["alpha"]), primal, problems)
        self._same(ar, "beta_lipschitz", ar.number(result["beta_lipschitz"]), dual, problems)

    def _cover_value(self, ar, inst, a, b, reported, problems):
        a, b = set(a), set(b)
        for x, y in inst.union:
            if x not in a and y not in b:
                problems.append(f"cover misses the cell ({x}, {y}) of the union")
                break
        value = sum(inst.mu[i] for i in a) + sum(inst.nu[j] for j in b)
        self._same(ar, "cover value", ar.number(reported), value, problems)
        return value

    def _cover(self, ar, inst, result, values, problems):
        value = self._cover_value(
            ar, inst, result["cover_a"], result["cover_b"], result["cover_value"], problems
        )
        self._same(ar, "alpha_star", ar.number(result["alpha_star"]), value, problems)
        if not problems:
            values["cover"] = value

    def _arveson(self, ar, inst, result, values, problems):
        if "null_cover" in result:
            null = result["null_cover"]
            value = self._cover_value(ar, inst, null["a"], null["b"], null["value"], problems)
            self._same(ar, "null cover value", value, 0, problems)
            return
        p = ar.matrix(result["maximizing_coupling"])
        self._coupling(ar, "maximizing_coupling", p, inst.mu, inst.nu, problems)
        mass = sum(p[x][y] for x, y in inst.union)
        self._same(ar, "alpha_star", ar.number(result["alpha_star"]), mass, problems)
        cover = self._need(values, "cover", problems)
        if cover is not None:
            self._same(ar, "coupling mass on the union", mass, cover, problems)

    def _chain(self, ar, inst, result, values, problems):
        self._agree(ar, result, (("beta", "alpha"), ("alpha", "alpha"),
                                 ("alpha_star", "alpha_star"), ("beta_star", "alpha_star")),
                    values, problems)

    def _partition(self, ar, inst, result, values, problems):
        cells = sorted(i for cell in result["cells"] for i in cell)
        if cells != list(range(len(inst.mu))):
            problems.append("partition cells do not partition X")
        self._agree(ar, result, (("alpha", "alpha"), ("beta", "alpha")), values, problems)

    def _extend(self, ar, inst, result, values, problems):
        p = ar.matrix(result["extended_coupling"])
        self._coupling(ar, "extended_coupling", p, inst.mu, inst.nu, problems)
        cost = _pairing(p, inst.cost)
        self._same(ar, "extended_cost", ar.number(result["extended_cost"]), cost, problems)
        self._agree(ar, result, (("alpha", "alpha"),), values, problems)
        alpha = values.get("alpha")
        if alpha is not None and not ar.leq(alpha, cost):
            problems.append("extended coupling costs less than the certified alpha")

    def _approx(self, ar, inst, result, values, problems):
        self._agree(ar, result, (("beta_star_base", "alpha_star"),), values, problems)
        stages = ar.vector(result["beta_star_stages"])
        gap = ar.number(result["beta_star_base"]) - (stages[-1] if stages else 0)
        self._same(ar, "final_gap", ar.number(result["final_gap"]), gap, problems)
