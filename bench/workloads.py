"""Workload definitions: seeded inputs, oracles and per-run correctness checks.

Every workload turns a seed into the inputs of one timed call, computes its
oracle once (outside any timed region) and checks each run's outputs against
it.  `check` returns the run's verdict and its `max_rel_err`: the largest
normwise relative error ||x - x_ref||_2 / ||x_ref||_2 over the output columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A run fails its check when any column's normwise relative error exceeds this.
TOL = 1e-9

# Seeded workloads run STRATA inputs per invocation, one omega per stratum.
STRATA = 4

# max_rel_err is reported as max(measured, ERR_FLOOR).  Below 1e-12 (the
# program's own per-step trace tolerance) the measured value is rounding noise
# whose size changes with the seed by up to a factor of ten (2e-15 to 4e-14 on
# kraus-engine, 3e-16 to 2e-15 on traj-dump), which no fixed spread bound can
# hold; above it, changes are real precision changes and show as measured.
ERR_FLOOR = 1e-12


@dataclass
class Job:
    """What one worker runs: the inputs, where it writes, and the work count."""

    kind: str                      # "cli" or "engine"
    work_units: float
    unit: str
    argv: list[str] = field(default_factory=list)
    engine: dict = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    max_rel_err: float
    detail: str
    rows_out: int = 0
    bytes_out: int = 0


def omega_strata(seed: int, lo: float, hi: float) -> list[float]:
    """One omega in each of STRATA equal strata of [lo, hi].

    Run time depends strongly on omega (the share of subnormal tail entries
    changes trajectory time by 80% across [0.55, 0.65]), so one omega per seed
    would make run_s a function of the seed.  The seed draws the offset u of
    every stratum instead, mirrored (1 - u) in every other one, so that the
    strata together sample the whole range the same way for every seed.
    """
    u = np.random.default_rng(seed).uniform()
    width = (hi - lo) / STRATA
    return [lo + (k + (u if k % 2 == 0 else 1.0 - u)) * width for k in range(STRATA)]


def normwise(x: np.ndarray, ref: np.ndarray) -> float:
    """||x - ref||_2 / ||ref||_2 over the entries where ref is finite."""
    # long double: the squares of values up to 1e196 (Z on eq-sweep) stay finite
    ref = np.asarray(ref, dtype=np.longdouble)
    keep = np.isfinite(ref)
    ref = ref[keep]
    diff = np.asarray(x, dtype=np.longdouble)[keep] - ref
    num = float(np.sqrt(np.sum(diff * diff)))
    den = float(np.sqrt(np.sum(ref * ref)))
    if not math.isfinite(num):
        return math.inf
    return num / den if den > 0 else num


def chain(n_nodes: int, steps: int, omega: float):
    """Yield p_0..p_steps of the three-band chain started at node 0.

    The reference for every trajectory oracle: in long double it carries about
    three more digits than the program's float64 stencil.
    """
    w = np.longdouble(omega)
    lam = 1 - w
    p = np.zeros(n_nodes, dtype=np.longdouble)
    p[0] = 1
    for i in range(steps + 1):
        yield p
        if i < steps:
            q = np.empty_like(p)
            q[0] = lam * (p[0] + p[1])
            q[1:-1] = w * p[:-2] + lam * p[2:]
            q[-1] = w * (p[-2] + p[-1])
            p = q


def _entropy(p: np.ndarray) -> np.longdouble:
    nz = p[p > 0]
    return -(nz * np.log(nz)).sum()


def _beta(omega: float) -> np.longdouble:
    w = np.longdouble(omega)
    return -(np.log(w) - np.log1p(-w))


def _bytes_and_rows(*paths: str) -> tuple[int, int]:
    size = rows = 0
    for p in paths:
        data = Path(p).read_bytes()
        size += len(data)
        rows += data.count(b"\n")
    return size, rows


# ------------------------------------------------------------------ traj-long

def _traj_argv(n_nodes, steps, omega, out):
    return ["trajectory", "--n-nodes", str(n_nodes), "--steps", str(steps),
            "--omega", repr(omega), "--out", out]


def _read_series(path: str, steps: int) -> tuple[np.ndarray | None, str]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (steps + 1, 5):
        return None, f"series has shape {data.shape}, expected {(steps + 1, 5)}"
    if not np.array_equal(data[:, 0], np.arange(steps + 1)):
        return None, "step column is not 0..steps"
    return data, ""


class TrajLong:
    name = "traj-long"
    why = ("long exact trajectory: compute-bound in the stencil and the entropy "
           "reduction, with a support band narrower than N for the first half")
    unit = "site-updates"
    sizes = {"full": dict(n_nodes=2500, steps=5000), "smoke": dict(n_nodes=60, steps=200)}
    half_width = 5                 # the CLI's T_est smoothing half-width

    def make(self, seed: int, work: Path, size: str) -> list[Job]:
        n, steps = self.sizes[size]["n_nodes"], self.sizes[size]["steps"]
        out = str(work / "traj.csv")
        return [Job("cli", float(n * steps), self.unit,
                    argv=_traj_argv(n, steps, omega, out), outputs={"series": out},
                    params=dict(n_nodes=n, steps=steps, omega=omega))
                for omega in omega_strata(seed, 0.55, 0.65)]

    def oracle(self, job: Job) -> dict:
        n, steps, omega = (job.params[k] for k in ("n_nodes", "steps", "omega"))
        sites = np.arange(n, dtype=np.longdouble)
        s = np.empty(steps + 1, dtype=np.longdouble)
        e = np.empty(steps + 1, dtype=np.longdouble)
        for i, p in enumerate(chain(n, steps, omega)):
            s[i] = _entropy(p)
            e[i] = p @ sites
        idx = np.arange(steps + 1)
        lo = np.maximum(idx - self.half_width, 0)
        hi = np.minimum(idx + self.half_width, steps)
        t_est = (e[hi] - e[lo]) / (s[hi] - s[lo])
        s_gen = s - e * _beta(omega)
        return {"S": s, "E": e, "T_est": t_est, "S_gen": s_gen}

    def check(self, job: Job, ref: dict) -> Verdict:
        path = job.outputs["series"]
        size, rows = _bytes_and_rows(path)
        data, why = _read_series(path, job.params["steps"])
        if data is None:
            return Verdict(False, math.inf, why, rows - 1, size)
        errs = {c: normwise(data[:, k], ref[c])
                for k, c in enumerate(("S", "E", "T_est", "S_gen"), start=1)}
        worst = max(errs, key=errs.get)
        s_gen = data[:, 4]
        if not np.all(np.diff(s_gen) >= -1e-12 * np.maximum(1.0, np.abs(s_gen[1:]))):
            return Verdict(False, errs[worst], "S_gen decreases", rows - 1, size)
        ok = errs[worst] <= TOL
        return Verdict(ok, errs[worst], f"worst column {worst}: {errs[worst]:.3e}",
                       rows - 1, size)


# ------------------------------------------------------------------ traj-dump

class TrajDump:
    name = "traj-dump"
    why = ("same trajectory code as traj-long but dominated by per-value CSV "
           "formatting and O(steps*N) memory of --dump-distributions")
    unit = "rows"
    sizes = {"full": dict(n_nodes=200, steps=1250), "smoke": dict(n_nodes=20, steps=30)}
    mass_tol = 1e-12

    def make(self, seed: int, work: Path, size: str) -> list[Job]:
        n, steps = self.sizes[size]["n_nodes"], self.sizes[size]["steps"]
        out, dump = str(work / "dump-series.csv"), str(work / "dump.csv")
        return [Job("cli", float((steps + 1) * (n + 1)), self.unit,
                    argv=_traj_argv(n, steps, omega, out) + ["--dump-distributions", dump],
                    outputs={"series": out, "dump": dump},
                    params=dict(n_nodes=n, steps=steps, omega=omega))
                for omega in omega_strata(seed, 0.6, 0.7)]

    def oracle(self, job: Job) -> dict:
        n, steps, omega = (job.params[k] for k in ("n_nodes", "steps", "omega"))
        return {"p": np.array(list(chain(n, steps, omega)))}

    def check(self, job: Job, ref: dict) -> Verdict:
        n, steps = job.params["n_nodes"], job.params["steps"]
        size, rows = _bytes_and_rows(job.outputs["series"], job.outputs["dump"])
        rows -= 2
        series, why = _read_series(job.outputs["series"], steps)
        if series is None:
            return Verdict(False, math.inf, why, rows, size)
        dump = np.loadtxt(job.outputs["dump"], delimiter=",", skiprows=1, ndmin=2)
        if dump.shape != ((steps + 1) * n, 3):
            return Verdict(False, math.inf,
                           f"dump has shape {dump.shape}, expected {((steps + 1) * n, 3)}",
                           rows, size)
        if not (np.array_equal(dump[:, 0], np.repeat(np.arange(steps + 1), n))
                and np.array_equal(dump[:, 1], np.tile(np.arange(n), steps + 1))):
            return Verdict(False, math.inf, "dump (n, m) index columns are wrong", rows, size)
        p = dump[:, 2].reshape(steps + 1, n)
        mass = float(np.abs(p.sum(axis=1) - 1.0).max())
        err = max(normwise(p, ref["p"]), mass)
        ok = mass <= self.mass_tol and err <= TOL
        return Verdict(ok, err, f"max mass drift {mass:.3e}, p error {err:.3e}", rows, size)


# ------------------------------------------------------------------ eq-sweep

EQ_FIELDS = ["omega", "beta", "T", "Z", "E", "varE", "S", "F", "Cv"]


def _grid(text: str) -> list[float]:
    # the CLI's inclusive start:stop:step expansion
    start, stop, step = map(float, text.split(":"))
    out, k = [], 0
    while start + k * step <= stop + 1e-9 * step:
        out.append(start + k * step)
        k += 1
    return out


def _mp_thermo(n_nodes: int, omega: float) -> dict:
    """40-digit equilibrium observables by direct summation over the N levels."""
    import mpmath as mp

    with mp.workdps(40):
        w = mp.mpf(omega)
        beta = -mp.log(w / (1 - w))
        a = mp.exp(-beta)
        terms = [a ** m for m in range(n_nodes)]
        z = mp.fsum(terms)
        e = mp.fsum(m * t for m, t in enumerate(terms)) / z
        var = mp.fsum(m * m * t for m, t in enumerate(terms)) / z - e * e
        out = {"beta": beta, "Z": z, "E": e, "varE": var, "S": mp.log(z) + beta * e,
               "Cv": beta * beta * var}
        out["T"] = 1 / beta if beta != 0 else mp.inf
        out["F"] = -mp.log(z) / beta if beta != 0 else -mp.inf
        return {k: float(v) for k, v in out.items()}


class EqSweep:
    name = "eq-sweep"
    why = ("dense omega sweep through the JSON writer and thread pool; hits beta=0 "
           "(inf sentinels) and |N beta|=0.01, the series/closed-form seam")
    unit = "sweep-points"
    sizes = {"full": dict(n_nodes=50, grid="0.0001:0.9999:0.00005"),
             "smoke": dict(n_nodes=50, grid="0.499:0.501:0.00005")}
    seam = 0.1                     # rows with |N beta| <= seam are always checked
    stride = 100                   # plus every stride-th row

    def make(self, seed: int, work: Path, size: str) -> list[Job]:
        # The sweep is fixed by its purpose (it must hit beta=0 and the seam);
        # the seed is not used.
        n, grid = self.sizes[size]["n_nodes"], self.sizes[size]["grid"]
        out = str(work / "eq.json")
        omegas = _grid(grid)
        argv = ["equilibrium", "--n-nodes", str(n), "--omega", grid,
                "--format", "json", "--out", out]
        return [Job("cli", float(len(omegas)), self.unit, argv=argv,
                    outputs={"sweep": out}, params=dict(n_nodes=n, grid=grid))]

    def oracle(self, job: Job) -> dict:
        n = job.params["n_nodes"]
        omegas = _grid(job.params["grid"])
        center = omegas.index(0.5)
        rows = {i for i, w in enumerate(omegas)
                if i % self.stride == 0 or abs(n * float(_beta(w))) <= self.seam}
        rows.add(center)
        return {"omegas": omegas, "center": center,
                "rows": {i: _mp_thermo(n, omegas[i]) for i in sorted(rows)}}

    def check(self, job: Job, ref: dict) -> Verdict:
        path = job.outputs["sweep"]
        size, _ = _bytes_and_rows(path)
        with open(path) as fh:
            records = json.load(fh)
        omegas, center = ref["omegas"], ref["center"]
        rows = len(records)
        if rows != len(omegas) or any(list(r) != EQ_FIELDS for r in records):
            return Verdict(False, math.inf, f"{rows} records or wrong fields", rows, size)
        got = np.array([r["omega"] for r in records])
        if np.abs(got - np.array(omegas)).max() > 1e-12:
            return Verdict(False, math.inf, "omega column differs from the grid", rows, size)
        # "inf"/"-inf" only at beta = 0, and exactly T = inf, F = -inf there
        strings = {(i, k) for i, r in enumerate(records) for k, v in r.items()
                   if isinstance(v, str)}
        if strings != {(center, "T"), (center, "F")} or \
                (records[center]["T"], records[center]["F"]) != ("inf", "-inf"):
            return Verdict(False, math.inf, f"sentinels at {sorted(strings)[:4]}", rows, size)
        checked = sorted(ref["rows"])
        errs = {}
        for k in EQ_FIELDS[1:]:
            x = np.array([float(records[i][k]) for i in checked])
            r = np.array([ref["rows"][i][k] for i in checked])
            errs[k] = normwise(x, r)
        worst = max(errs, key=errs.get)
        return Verdict(errs[worst] <= TOL, errs[worst],
                       f"worst column {worst}: {errs[worst]:.3e} over {len(checked)} rows",
                       rows, size)


# ------------------------------------------------------------------ kraus-engine

def haar_unitaries(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Haar-random unitaries: QR of complex Ginibre matrices with phase fix."""
    z = (rng.standard_normal((count, dim, dim))
         + 1j * rng.standard_normal((count, dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


class KrausEngine:
    name = "kraus-engine"
    why = ("the generic Kraus engine (channel layer) on Haar-random d=2 unitaries; "
           "the only workload that reaches channel.step and validate_channel")
    unit = "engine-steps"
    sizes = {"full": dict(n_nodes=64, dim=2, steps=250), "smoke": dict(n_nodes=8, dim=2, steps=20)}

    def make(self, seed: int, work: Path, size: str) -> list[Job]:
        rng = np.random.default_rng(seed)
        n, dim, steps = (self.sizes[size][k] for k in ("n_nodes", "dim", "steps"))
        unitaries = haar_unitaries(rng, n - 1, dim)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        inputs = str(work / "engine-inputs.npz")
        np.savez(inputs, unitaries=unitaries, psi=psi)
        out = str(work / "marginals.npy")
        return [Job("engine", float(steps), self.unit,
                    engine=dict(n_nodes=n, omega=omega, steps=steps, inputs=inputs, out=out),
                    outputs={"marginals": out}, params=dict(n_nodes=n, steps=steps, omega=omega))
                for omega in omega_strata(seed, 0.55, 0.65)]

    def oracle(self, job: Job) -> dict:
        n, steps, omega = (job.params[k] for k in ("n_nodes", "steps", "omega"))
        # position marginal after k steps equals the classical chain's p_k
        return {"p": np.array(list(chain(n, steps, omega)))[1:]}

    def check(self, job: Job, ref: dict) -> Verdict:
        got = np.load(job.outputs["marginals"])
        if got.shape != ref["p"].shape:
            return Verdict(False, math.inf, f"marginals have shape {got.shape}")
        err = normwise(got, ref["p"])
        return Verdict(err <= TOL, err, f"marginal error {err:.3e}")


WORKLOADS = {w.name: w for w in (TrajLong(), TrajDump(), EqSweep(), KrausEngine())}
