"""The benchmark's workloads: input generation, one op each, output checks.

Every op gets a fresh input drawn from SeedSequence(workload_seed, op_index).
Series inputs come from the benchmark's own Euler scheme for the baseline
model, so they stay fixed when jdsmooth's simulator changes; the
``mc_coverage`` op simulates inside jdsmooth, because that is what it
measures.

jdsmooth functions are looked up through their module at call time, so a
traced run's wrappers see every call the ops make.
"""

from __future__ import annotations

import math
import re

import numpy as np

from jdsmooth import bandwidth, inference, locallinear, mc, proxy, simulate
from jdsmooth.errors import JdsmoothError
from jdsmooth.kernels import KernelFamily, KernelSpec

FAMILIES = (KernelFamily.GAMMA, KernelFamily.GAUSSIAN)

# baseline model: mu(x) = 1 - 10x, sigma^2(x) = 0.1 + 0.1 x^2, 20 expected
# Normal(0, 0.036^2) jumps over the horizon, X_0 = 0.1, Y_0 = 100
_A0, _A1, _B0, _B1 = 1.0, -10.0, 0.1, 0.1
_JUMPS, _JUMP_STD, _X0, _Y0 = 20.0, 0.036, 0.1, 100.0

# curves: rule-of-thumb constant and the fixed small bandwidth
_ROT_C = 2.0
_SMALL_H = 0.002
_ALPHA = 0.05

# mc_coverage cell.  Timed ops run the cell on one thread: with 2 pool
# threads on a 2-vCPU host the op time is bimodal (about 2.0 s when both
# threads share a core, 3.1-3.7 s when they hand the GIL across cores),
# which no bound can hold.  The pool runs once per run, on the first
# untraced op's input, for the bitwise rows check and the pool metrics.
_MC_H = 0.02
_MC_POINTS = (0.01, 0.15)
MC_POOL_WORKERS = 2

# drift intercepts checked against an explicit weighted least-squares
# solve, per (bandwidth, family) pair of a curves op; the tolerance is the
# normal-equation error bound eps * cond^2 of the weighted design (measured
# discrepancies stay below 1% of it) plus a floor
_WLS_SAMPLES = 1
_WLS_FLOOR = 1e-12

# block-CV objective recomputed by brute force at the selected bandwidth
_CV_TOL = 1e-6

SIZES = {
    "full": {
        "curves": {"T": 10.0, "n": 5000, "grid": 50},
        "blockcv": {"T": 10.0, "n": 1000},
        "mc_coverage": {"T": 50.0, "n": 5000, "replicates": 40},
    },
    "tiny": {
        "curves": {"T": 10.0, "n": 400, "grid": 6},
        "blockcv": {"T": 10.0, "n": 120},
        "mc_coverage": {"T": 10.0, "n": 400, "replicates": 3},
    },
}


def seed_sequence(workload_seed: int, op_index: int, *extra: int):
    return np.random.SeedSequence(int(workload_seed), spawn_key=(int(op_index), *extra))


def baseline_series(ss, T: float, n: int) -> tuple[np.ndarray, float]:
    """Integrated series Y of the baseline model on n Euler steps over [0, T]."""
    rng = np.random.default_rng(ss)
    delta = T / n
    count = int(rng.poisson(_JUMPS))
    times = rng.uniform(0.0, T, count)
    sizes = rng.normal(0.0, _JUMP_STD, count)
    jumps = np.zeros(n)
    np.add.at(jumps, np.minimum((times / delta).astype(np.int64), n - 1), sizes)
    shocks = (rng.standard_normal(n) * math.sqrt(delta)).tolist()
    jumps = jumps.tolist()
    y = [_Y0]
    x = _X0
    for i in range(n):
        y.append(y[-1] + x * delta)
        x += (_A0 + _A1 * x) * delta + math.sqrt(_B0 + _B1 * x * x) * shocks[i] + jumps[i]
    return np.array(y), delta


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def reason_class(reason: str) -> str:
    """A flag or gap reason with its numbers masked, e.g. 'collinear at x=# (det=#)'."""
    return _NUMBER.sub("#", reason)


def _error_class(exc: Exception) -> str:
    return f"{type(exc).__name__}: {reason_class(str(exc))}"


def _flags(mapping: dict) -> dict:
    """Grid indices grouped by reason class: {reason: [i, ...]}."""
    grouped: dict[str, list[int]] = {}
    for i, reason in sorted(mapping.items()):
        grouped.setdefault(reason_class(reason), []).append(int(i))
    return grouped


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float)]


# ---------------------------------------------------------------------------
# curves


def _pointwise(fn, grid):
    values, flags = [], {}
    for i, x in enumerate(grid):
        try:
            values.append(fn(float(x)))
        except (JdsmoothError, ValueError) as exc:
            values.append(math.nan)
            flags[i] = _error_class(exc)
    return np.array(values), _flags(flags)


def _band_outputs(tag, band, values, classes):
    values[f"{tag}.center"] = _floats(band.center)
    values[f"{tag}.lower"] = _floats(band.lower)
    values[f"{tag}.upper"] = _floats(band.upper)
    classes[f"{tag}.gaps"] = _flags(band.gaps)
    classes[f"{tag}.clipped"] = [int(i) for i in np.flatnonzero(band.clipped)]
    classes[f"{tag}.boundary"] = [
        i for i, r in enumerate(band.regimes) if r.kappa is not None
    ]


def _analyse(p, triples, spec, grid, tag, values, classes):
    """Curves, curvature, density, bands and jump components at every grid point."""
    ll = locallinear
    Target = ll.Target
    drift = ll.estimate_drift_curve(triples, spec, grid)
    m2 = ll.estimate_m_curve(triples, spec, grid)
    m4 = ll.estimate_moment_curve(triples, spec, grid, 4)
    m6 = ll.estimate_moment_curve(triples, spec, grid, 6)
    for name, curve in (("drift", drift), ("m2", m2), ("m4", m4), ("m6", m6)):
        values[f"{tag}.{name}"] = _floats(curve.values)
        values[f"{tag}.{name}_slope"] = _floats(curve.slopes)
        classes[f"{tag}.{name}.flags"] = _flags(curve.failures)

    dens, classes[f"{tag}.density.flags"] = _pointwise(
        lambda x: ll.estimate_density(p, spec, x), grid
    )
    curv_d, classes[f"{tag}.curv_drift.flags"] = _pointwise(
        lambda x: ll.estimate_second_derivative(triples, Target.DRIFT, spec, x), grid
    )
    curv_v, classes[f"{tag}.curv_m2.flags"] = _pointwise(
        lambda x: ll.estimate_second_derivative(
            triples, Target.COND_VARIANCE, spec, x
        ),
        grid,
    )
    values[f"{tag}.density"] = _floats(dens)
    values[f"{tag}.curv_drift"] = _floats(curv_d)
    values[f"{tag}.curv_m2"] = _floats(curv_v)

    inf = inference
    n, delta = len(p), p.delta
    dband = inf.confidence_band(
        drift, inf.BandCompanions(m2.values, dens, curv_d), _ALPHA, n=n, delta=delta
    )
    vband = inf.confidence_band(
        m2, inf.BandCompanions(m4.values, dens, curv_v), _ALPHA, n=n, delta=delta
    )
    _band_outputs(f"{tag}.drift_band", dband, values, classes)
    _band_outputs(f"{tag}.m2_band", vband, values, classes)

    comps = np.full((grid.size, 3), math.nan)
    jflags = {}
    for i in range(grid.size):
        moments = (m2.values[i], m4.values[i], m6.values[i])
        if not all(math.isfinite(v) for v in moments):
            jflags[i] = "missing moment"
            continue
        try:
            jc = inf.identify_jump_components(*(float(v) for v in moments))
        except (JdsmoothError, ValueError) as exc:
            jflags[i] = _error_class(exc)
            continue
        comps[i] = (jc.sigma2, jc.lam, jc.sigma_z2)
        if jc.flags:
            jflags[i] = ",".join(jc.flags)
    for j, name in enumerate(("sigma2", "lam", "sigma_z2")):
        values[f"{tag}.jumps.{name}"] = _floats(comps[:, j])
    classes[f"{tag}.jumps.flags"] = _flags(jflags)
    return drift


def curves_input(seed, i, size):
    return baseline_series(seed_sequence(seed, i), size["T"], size["n"])


def curves_op(inp, size):
    """Full pointwise analysis of one series at two bandwidths, both families."""
    y, delta = inp
    p = proxy.build_proxy(y, delta)
    triples = proxy.build_regression_triples(p)
    grid = np.linspace(float(np.min(p.values)), float(np.max(p.values)), size["grid"])
    h_rot = bandwidth.rule_of_thumb(p, c=_ROT_C, T=p.delta * len(p)).h
    values, classes, drifts = {"grid": _floats(grid)}, {}, {}
    for label, h in (("rot", h_rot), ("small", _SMALL_H)):
        values[f"{label}.h"] = [float(h)]
        for fam in FAMILIES:
            spec = KernelSpec(fam, float(h))
            tag = f"{label}.{fam.value}"
            drifts[tag] = (spec, _analyse(p, triples, spec, grid, tag, values, classes))
    jt = inference.bs_jump_test(p)
    values["jumptest"] = [
        jt.statistic, jt.realized_variance, jt.bipower_variation, jt.quadpower
    ]
    classes["jumptest.reject"] = bool(jt.reject)
    outputs = {"values": values, "classes": classes}
    work = 2 * len(FAMILIES) * grid.size
    return outputs, work, {"p": p, "drifts": drifts}


def _reference_weights(spec: KernelSpec, u: np.ndarray, x: float) -> np.ndarray:
    """Kernel weights written out independently of jdsmooth.kernels."""
    h = spec.bandwidth
    if spec.family is KernelFamily.GAUSSIAN:
        z = (x - u) / h
        with np.errstate(under="ignore"):
            return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))
    s = x / h
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(under="ignore"):
        out[pos] = np.exp(
            s * np.log(u[pos]) - u[pos] / h - (s + 1.0) * math.log(h) - math.lgamma(s + 1.0)
        )
    if s == 0.0:
        out[u == 0.0] = 1.0 / h
    return out


def wls_intercept(triples, spec: KernelSpec, x: float) -> tuple[float, float]:
    """Drift intercept by an explicit weighted least-squares solve at x.

    Returns the intercept and the tolerance a fit of the same design can
    be held to: the largest |response| carrying weight times
    (floor + eps * cond^2).
    """
    k = _reference_weights(spec, triples.weight_points, x)
    act = k > 0
    dx = triples.design_points[act] - x
    y = triples.drift[act]
    sw = np.sqrt(k[act])
    design = np.column_stack([np.ones_like(dx), dx]) * sw[:, None]
    beta, *_ = np.linalg.lstsq(design, y * sw, rcond=None)
    cond = float(np.linalg.cond(design))
    tol = float(np.max(np.abs(y))) * (_WLS_FLOOR + np.finfo(float).eps * cond * cond)
    return float(beta[0]), tol


def curves_invariants(outputs, extra, seed, i) -> list[str]:
    """Drift intercepts at sampled grid points equal an explicit WLS solve."""
    rng = np.random.default_rng(seed_sequence(seed, i, 1))
    triples = proxy.build_regression_triples(extra["p"])
    problems = []
    for tag, (spec, drift) in extra["drifts"].items():
        ok = np.flatnonzero(np.isfinite(drift.values))
        for j in rng.choice(ok, size=min(_WLS_SAMPLES, ok.size), replace=False):
            x = float(drift.grid[j])
            ref, tol = wls_intercept(triples, spec, x)
            got = float(outputs["values"][f"{tag}.drift"][j])
            if not abs(got - ref) <= tol:
                problems.append(
                    f"{tag}.drift[{j}] at x={x!r}: {got!r} but WLS gives {ref!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# blockcv


def blockcv_input(seed, i, size):
    return baseline_series(seed_sequence(seed, i), size["T"], size["n"])


def blockcv_op(inp, size):
    """Block cross-validation of the Gamma drift bandwidth on one series."""
    y, delta = inp
    p = proxy.build_proxy(y, delta)
    choice = bandwidth.block_cv(p)
    best = int(np.argmin(choice.objectives))
    folds = int(choice.candidates.size) * (len(p) - 2 * int(choice.k))
    outputs = {
        "values": {
            "objectives": _floats(choice.objectives),
            "candidates": _floats(choice.candidates),
            "h": [float(choice.h)],
        },
        "classes": {"argmin": best, "k": int(choice.k), "failures": int(choice.failures)},
    }
    return outputs, folds, {"p": p}


def cv_objective(p, h: float, k: int) -> float:
    """Block-CV objective of the Gamma drift fit at h, by brute force.

    Fits one held-out center at a time with the held-out block's weights
    zeroed, so the check needs O(n) memory, and applies the same failure
    rules as the selector: a fold with no kernel mass, a collinear design,
    or a center below zero scores the response variance.
    """
    v = np.asarray(p.values, dtype=float)
    n = v.size
    w, d = v[:-2], v[1:-1]
    resp = (v[2:] - v[1:-1]) / p.delta
    penalty = float(np.var(resp))
    spec = KernelSpec(KernelFamily.GAMMA, h)
    terms = []
    # fold centers are 1-based proxy indices; triple j starts at proxy index j + 2
    for c in range(k + 1, n - k + 1):
        xc, yc = float(v[c - 1]), float(resp[c - 2])
        if xc < 0:
            terms.append(penalty)
            continue
        kw = _reference_weights(spec, w, xc)
        kw[max(0, c - k - 2) : c + k - 1] = 0.0
        dx = d - xc
        s0, s1, s2 = kw.sum(), (kw * dx).sum(), (kw * dx * dx).sum()
        t0, t1 = (kw * resp).sum(), (kw * resp * dx).sum()
        scale = float(np.abs(dx[kw > 0]).max(initial=0.0))
        det = s0 * s2 - s1 * s1
        ok = kw.max() > 1e-300 and s0 > 1e-300 and scale > 0
        if ok and det > 1e-13 * (s0 * scale) ** 2:
            terms.append((yc - (s2 * t0 - s1 * t1) / det) ** 2)
        else:
            terms.append(penalty)
    return math.fsum(terms) / n


def blockcv_invariants(outputs, extra, seed, i) -> list[str]:
    """Argmin consistent with the score curve; selected score by brute force."""
    vals, cls = outputs["values"], outputs["classes"]
    best = cls["argmin"]
    problems = []
    if vals["h"][0] != vals["candidates"][best]:
        problems.append(f"selected h {vals['h'][0]!r} is not the argmin candidate")
    ref = cv_objective(extra["p"], vals["candidates"][best], cls["k"])
    got = vals["objectives"][best]
    if not abs(got - ref) <= _CV_TOL * abs(ref):
        problems.append(f"objective at argmin {got!r} but brute force gives {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# mc_coverage


def mc_input(seed, i, size):
    return int(seed_sequence(seed, i).generate_state(1, dtype=np.uint32)[0])


def mc_op(base_seed, size, workers=1):
    """One coverage cell: simulate, fit and band every replicate at two points."""
    cfg = mc.McConfig(
        model=simulate.baseline_model(),
        T=size["T"],
        n=size["n"],
        replicates=size["replicates"],
        base_seed=base_seed,
        families=FAMILIES,
        bandwidths=(mc.BandwidthSetting(fixed=_MC_H),),
        eval_points=_MC_POINTS,
        target=locallinear.Target.DRIFT,
        workers=workers,
    )
    report = mc.run_coverage_experiment(cfg)
    values, classes = {}, {}
    for row in report.rows:
        tag = f"{row['family']}.x={row['x']!r}"
        for key, v in row.items():
            if isinstance(v, float):
                values[f"{tag}.{key}"] = [v]
            else:
                classes[f"{tag}.{key}"] = v
    classes["failed_records"] = {
        f"{rec['r']}.{rec['family']}.{rec['x']!r}": reason_class(rec["reason"])
        for rec in report.records
        if not rec["ok"]
    }
    return {"values": values, "classes": classes}, size["replicates"], {"rows": report.rows}


def mc_invariants(outputs, extra, seed, i) -> list[str]:
    # the pool comparison runs once per run, outside the op loop
    return []


def rows_identical(a: list[dict], b: list[dict]) -> bool:
    """Bitwise row equality, with NaN equal to NaN."""
    return [{k: repr(v) for k, v in r.items()} for r in a] == [
        {k: repr(v) for k, v in r.items()} for r in b
    ]


WORKLOADS = {
    "curves": (curves_input, curves_op, curves_invariants),
    "blockcv": (blockcv_input, blockcv_op, blockcv_invariants),
    "mc_coverage": (mc_input, mc_op, mc_invariants),
}
