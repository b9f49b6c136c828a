"""The three workloads as rounds of operations on the checkerboard package.

Runs inside the worker process. A round is the workload's fixed list of
operations; every operation is timed on its own, and the round's outputs
are checked after the round, outside the timed part. Each workload has an
untraced form of every operation, which calls the package the way a user
does, and a traced form, which reaches the same result through the
package's public parts with a span around each layer.

Each `run_round` returns (kinds, seconds, outputs, round_seconds): the kind
and latency of every operation in order, what each returned, and the time
from the first operation's start to the last one's end. Each
`check_round` returns, per operation, whether it passed and whether it is
in the known-fault slice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import sqrt
from time import perf_counter

import numpy as np

import checks

SECTORS = {  # component name -> (start direction, end direction)
    "psi_pp": ("R", "R"),
    "psi_pm": ("L", "R"),
    "psi_mp": ("R", "L"),
    "psi_mm": ("L", "L"),
}
SERIES_TOL = 1e-16  # closed_matrix's default series tolerance


class Workload:
    """What the three workloads share: the package, and how one operation
    is timed. A refusal by the package's typed error is the operation's
    output; every check counts it as failed."""

    def __init__(self, cb):
        self.cb = cb
        self.dirs = {d.value: d for d in cb.Direction}

    def _timed(self, kinds, seconds, outputs, kind, fn, *args):
        start = perf_counter()
        try:
            out = fn(*args)
        except self.cb.CheckerboardError as exc:
            out = exc
        seconds.append(perf_counter() - start)
        kinds.append(kind)
        outputs.append(out)


def _refused(out) -> bool:
    return isinstance(out, Exception)


# --------------------------------------------------------------- refine

class Refine(Workload):
    """Exact quadratic-lattice components and the uniform baseline, swept
    by doubling lattice size at v = 0, +-3/5 and +-5/13."""

    def warm(self):
        cb = self.cb
        cb.exact_parts(cb.LatticeSpec(P=2, Q=2, t=Fraction(1)))
        cb.linear_parts(cb.LinearSpec(N=4, P=2, Q=2, t=Fraction(1)))

    def _quadratic(self, P, Q, t):
        return self.cb.exact_parts(self.cb.LatticeSpec(P=P, Q=Q, t=t))

    def _linear(self, N, P, Q, t):
        return self.cb.linear_parts(self.cb.LinearSpec(N=N, P=P, Q=Q, t=t))

    def _quadratic_traced(self, tr, P, Q, t):
        cb = self.cb
        spec = cb.LatticeSpec(P=P, Q=Q, t=t)
        with tr.span("sym_table"):
            tables = (cb.elem_sym_table(P - 1), cb.elem_sym_table(Q - 1))
        tr.add("sym_table.calls", 2)
        tr.peak("sym_table.max_bits",
                max(e.bit_length() for tab in tables for e in tab.values))
        polys = {}
        for name, (start, end) in SECTORS.items():
            with tr.span("coeffs"):
                polys[name] = cb.exact_component(P, Q, self.dirs[start],
                                                 self.dirs[end])
            tr.add("coeffs.calls", 1)
            tr.add("coeffs.terms", len(polys[name].orders()))
        parts = {}
        for name, poly in polys.items():
            eps0 = spec.eps0
            with tr.span("eval_exact"):
                parts[name] = poly.evaluate_exact(eps0)
            tr.add("eval_exact.calls", 1)
            tr.add("eval_exact.out_bits", checks.fraction_bits(parts[name]))
        return parts

    def _linear_traced(self, tr, N, P, Q, t):
        cb = self.cb
        parts = {}
        with tr.span("linear"):
            spec = cb.LinearSpec(N=N, P=P, Q=Q, t=t)
            for name, (start, end) in SECTORS.items():
                poly = cb.linear_component(P, Q, self.dirs[start],
                                           self.dirs[end])
                parts[name] = poly.evaluate_exact(spec.epsilon)
                tr.add("linear.terms", len(poly.orders()))
        return parts

    def run_round(self, payload, tr=None):
        kinds, seconds, outputs = [], [], []
        if tr is None:
            ops = {"quadratic": self._quadratic, "linear": self._linear}
        else:
            ops = {"quadratic": partial(self._quadratic_traced, tr),
                   "linear": partial(self._linear_traced, tr)}
        t = payload["t"]
        begin = perf_counter()
        for sweep in payload["sweeps"]:
            # A fresh sweep, as one `converge` run sees it: the e_k table
            # cache holds only what this sweep has built so far.
            self.cb.elem_sym_table.cache_clear()
            model = sweep["model"]
            for size in sweep["sizes"]:
                self._timed(kinds, seconds, outputs, model, ops[model],
                            *size, t)
        return kinds, seconds, outputs, perf_counter() - begin

    def check_round(self, payload, outputs, tr=None):
        ops = [(sweep, size) for sweep in payload["sweeps"]
               for size in sweep["sizes"]]
        by_key = {(sweep["model"], size[-2], size[-1]): parts
                  for (sweep, size), parts in zip(ops, outputs)}
        verdicts = []
        prev = None  # (sweep, deviation, segments) of the previous size
        for (sweep, size), parts in zip(ops, outputs):
            P, Q = size[-2], size[-1]
            segments = size[0] if sweep["model"] == "linear" else P + Q
            mirrored = by_key[(sweep["model"], Q, P)]
            if _refused(parts) or _refused(mirrored):
                verdicts.append((False, False))
                prev = None
                continue
            dev = checks.deviation(parts, sweep["limit"])
            ok = (checks.refine_identities(parts, sweep["v_is_zero"])
                  and checks.refine_mirror(parts, mirrored))
            if prev is not None and prev[0] is sweep:
                ok = ok and checks.converges(prev[1], prev[2], dev, segments)
            if size == sweep["sizes"][-1]:
                ok = ok and checks.within_final_bound(dev, segments)
            prev = (sweep, dev, segments)
            verdicts.append((ok, False))
        return verdicts


# ---------------------------------------------------------------- field

class Field(Workload):
    """Closed forms at scattered points, grid Bessel arrays, the Dirac
    stencil on plane waves, and the Dirac residual with its control."""

    def __init__(self, cb):
        super().__init__(cb)
        self.grid_fns = {"j0": cb.j0_values, "j1": cb.j1_values}

    def warm(self):
        cb = self.cb
        cb.closed_matrix(1.0, 0.0)
        small = np.linspace(0.0, 1.0, 8)
        cb.j0_values(small)
        cb.j1_values(small)
        field = np.ones((4, 4), dtype=complex)
        cb.residual_rows(field, field, 0.1)
        cb.dirac_residual(cb.Region(0.5, 1.0, 0.2), 0.1)

    def _closed(self, t, x):
        m = self.cb.closed_matrix(t, x)
        return (m.psi_pp, m.psi_pm, m.psi_mp, m.psi_mm)

    def _closed_traced(self, tr, t, x):
        # closed_matrix from its public parts: the two series, then the
        # remainder (argument, prefactors, assembly) booked to `closed`.
        cb = self.cb
        with tr.span("closed"):
            if t <= abs(x):
                raise cb.DomainError(f"({t}, {x}) is outside the cone")
            s = sqrt((t - x) * (t + x))
            with tr.span("bessel_scalar"):
                r0 = cb.bessel_j0(s, tol=SERIES_TOL)
                r1 = cb.bessel_j1(s, tol=SERIES_TOL)
            j0 = float(r0.value)
            j1 = float(r1.value)
            m = cb.PropagatorMatrix(
                psi_pp=complex(0.0, (t + x) / s * j1),
                psi_pm=complex(j0, 0.0),
                psi_mp=complex(j0, 0.0),
                psi_mm=complex(0.0, (t - x) / s * j1))
        tr.add("closed.calls", 1)
        tr.add("bessel_scalar.calls", 2)
        tr.add("bessel_scalar.terms", r0.terms_used + r1.terms_used)
        return (m.psi_pp, m.psi_pm, m.psi_mp, m.psi_mm)

    def _grid_traced(self, tr, fn, s):
        with tr.span("bessel_grid"):
            out = fn(s)
        tr.add("bessel_grid.nodes", s.size)
        return out

    def _stencil_traced(self, tr, u, w, h):
        with tr.span("stencil"):
            out = self.cb.residual_rows(u, w, h)
        tr.add("stencil.nodes", u.size)
        return out

    def _dirac(self, region, h, j0_scale):
        return self.cb.dirac_residual(self.cb.Region(*region), h, j0_scale)

    def _dirac_traced(self, tr, region, h, j0_scale):
        with tr.span("dirac"):
            rep = self._dirac(region, h, j0_scale)
        tr.add("dirac.points", rep.points_coarse + rep.points_fine)
        return rep

    def _call(self, payload, kind, index, tr):
        cb = self.cb
        if kind == "closed":
            pts = payload["points"]
            args = (float(pts["t"][index]), float(pts["x"][index]))
            if tr is None:
                return self._closed, args
            return self._closed_traced, (tr,) + args
        if kind == "grid":
            g = payload["grids"][index]
            fn = self.grid_fns[g["fn"]]
            if tr is None:
                return fn, (g["s"],)
            return self._grid_traced, (tr, fn, g["s"])
        if kind == "stencil":
            st = payload["stencils"][index]
            args = (st["u"], st["w"], st["h"])
            if tr is None:
                return cb.residual_rows, args
            return self._stencil_traced, (tr,) + args
        d = payload["dirac"][index]
        args = (d["region"], d["h"], d["j0_scale"])
        if tr is None:
            return self._dirac, args
        return self._dirac_traced, (tr,) + args

    def run_round(self, payload, tr=None):
        kinds, seconds, outputs = [], [], []
        calls = [(kind, self._call(payload, kind, index, tr))
                 for kind, index in payload["order"]]
        begin = perf_counter()
        for kind, (fn, args) in calls:
            self._timed(kinds, seconds, outputs, kind, fn, *args)
        return kinds, seconds, outputs, perf_counter() - begin

    def check_round(self, payload, outputs, tr=None):
        pts = payload["points"]
        order = payload["order"]
        closed_at = [i for i, (kind, _) in enumerate(order)
                     if kind == "closed" and not _refused(outputs[i])]
        index = np.array([order[i][1] for i in closed_at], dtype=int)
        got = np.array([outputs[i] for i in closed_at],
                       dtype=complex).reshape(-1, 4)
        closed_pass = dict(zip(closed_at, checks.closed_ok(
            got, pts["ref"][index], pts["tol"][index])))
        verdicts = []
        for i, ((kind, j), out) in enumerate(zip(order, outputs)):
            if kind == "closed":
                ok = bool(closed_pass.get(i, False))
                fault = bool(pts["fault"][j])
            elif kind == "grid":
                g = payload["grids"][j]
                ok = not _refused(out) and checks.grid_ok(out, g["ref"], g["s"])
                fault = g["fault"]
            elif kind == "stencil":
                st = payload["stencils"][j]
                ok = not _refused(out) and checks.stencil_ok(
                    out, st["expected"], st["tol"])
                fault = False
            else:
                honest = payload["dirac"][j]["j0_scale"] == 1.0
                ok = not _refused(out) and checks.dirac_ok(
                    out.observed_order, out.max_residual_h, honest)
                fault = False
            verdicts.append((ok, fault))
        return verdicts


# ----------------------------------------------------------- crosscheck

class Crosscheck(Workload):
    """Brute-force path enumeration against the closed-form sector sums,
    for every sector of every small lattice."""

    def warm(self):
        R, L = self.dirs["R"], self.dirs["L"]
        self.cb.exact_component(2, 2, R, L)
        self.cb.sector_sum_bruteforce(2, 2, R, L)

    def _sector(self, P, Q, start, end):
        return (self.cb.exact_component(P, Q, start, end),
                self.cb.sector_sum_bruteforce(P, Q, start, end))

    def _sector_traced(self, tr, P, Q, start, end):
        with tr.span("coeffs"):
            exact = self.cb.exact_component(P, Q, start, end)
        tr.add("coeffs.calls", 1)
        tr.add("coeffs.terms", len(exact.orders()))
        with tr.span("bruteforce"):
            brute = self.cb.sector_sum_bruteforce(P, Q, start, end)
        return exact, brute

    def run_round(self, payload, tr=None):
        kinds, seconds, outputs = [], [], []
        op = self._sector if tr is None else partial(self._sector_traced, tr)
        begin = perf_counter()
        for P, Q, start, end, _ in payload["sectors"]:
            self._timed(kinds, seconds, outputs, "sector", op,
                        P, Q, self.dirs[start], self.dirs[end])
        return kinds, seconds, outputs, perf_counter() - begin

    def check_round(self, payload, outputs, tr=None):
        verdicts = []
        for (P, Q, start, end, paths), out in zip(payload["sectors"],
                                                  outputs):
            enumerated = sum(1 for _ in self.cb.enumerate_paths(
                P, Q, self.dirs[start], self.dirs[end]))
            if tr is not None:
                tr.add("bruteforce.paths", enumerated)
            ok = not _refused(out) and checks.sector_ok(
                out[1], out[0], enumerated, paths)
            verdicts.append((ok, False))
        return verdicts


WORKLOADS = {"refine": Refine, "field": Field, "crosscheck": Crosscheck}
