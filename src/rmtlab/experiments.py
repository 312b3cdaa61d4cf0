"""Config-driven experiment runner.

Each experiment kind samples and analyzes; `run_experiment` then writes a
`report.json` plus kind-specific CSV files into an output directory.
Outputs are a pure function of (config, seed) on one host: every random
draw is counter-based, and each replicate's result lands at its own index.

A call with several replicates queues them on a module thread pool, one
thread per thread of numpy's OpenBLAS pool as found at import, and waits
for them.  For the length of the map the BLAS pool is pinned to one thread:
the pin is process-global.  Each replicate is then solved on one BLAS
thread whatever the pool size, so multi-replicate outputs do not depend on
it.  No replicate starts after one has failed, and the failure with the
lowest index is raised.  A one-replicate call, and every call where the
BLAS pool cannot be reached or has, or had at import, one thread, runs
serially on the pool as found.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import (EnsembleError, EnsembleSpec, EntryLaw, check_fractions,
                       is_finite, make_partition, sample_cross_block,
                       sample_matrix, scale_matrix, singleton_partition)
from .graphenergy import (check_large_parts, energy_bounds_unbalanced,
                          energy_decomposition_check, graph_energy,
                          predicted_energy_gnp, predicted_energy_multipartite,
                          sample_graph)
from .laws import (LawError, catalan, gamma_bipartite_printed,
                   gamma_proposition_printed, hankel_report, limit_moments,
                   mixing_radius, pseudo_char_grid, semicircle_cdf,
                   semicircle_moment, semicircle_stieltjes)
from .spectral import (SpectralError, _set_blas_threads, blas_threads,
                       eigenvalues_bipartite, eigenvalues_sym,
                       empirical_moment, esd, ks_distance, stieltjes_empirical)
from .walks import enumerate_shapes, is_good_zero_mean

KINDS = ("esd", "moments", "stieltjes", "walks", "hankel", "charfn",
         "energy", "decomposition")
_BLAS_NAME = np.show_config(mode="dicts").get("Build Dependencies", {}) \
    .get("blas", {}).get("name")


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` is the offending path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NumericError(RuntimeError):
    """An experiment failed numerically after config validation."""


def _get(cfg: dict, field: str, typ, default=None, required: bool = False):
    cur = cfg
    parts = field.split(".")
    for p in parts[:-1]:
        cur = cur.get(p, {}) if isinstance(cur, dict) else {}
    if not isinstance(cur, dict) or parts[-1] not in cur or cur[parts[-1]] is None:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    val = cur[parts[-1]]
    if typ in (int, float) and isinstance(val, (int, float)):
        if isinstance(val, bool):
            raise ConfigError(field, f"expected {typ}, got bool")
        if not is_finite(val):
            raise ConfigError(field, f"expected a finite number, got {val}")
        if typ is float:
            val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(field, f"expected {typ}, got {type(val).__name__}")
    return val


def _items(values: list, field: str, typ=(int, float)) -> list:
    """values, once every item is a finite typ; a bool counts as no number."""
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, typ):
            raise ConfigError(f"{field}[{i}]",
                              f"expected {typ}, got {type(v).__name__}")
        if not is_finite(v):
            raise ConfigError(f"{field}[{i}]",
                              f"expected a finite number, got {v}")
    return values


def _ensemble_spec(cfg: dict, seed_override=None) -> EnsembleSpec:
    n = _get(cfg, "ensemble.n", int, required=True)
    if n < 1:
        raise ConfigError("ensemble.n", "must be at least 1")
    fractions = _items(_get(cfg, "ensemble.fractions", list, required=True),
                       "ensemble.fractions")
    law_intra = _law(cfg, "ensemble.law_intra")
    law_cross = _law(cfg, "ensemble.law_cross")
    seed = seed_override if seed_override is not None \
        else _get(cfg, "ensemble.seed", int, default=0)
    try:
        return EnsembleSpec(partition=make_partition(n, fractions),
                            law_intra=law_intra, law_cross=law_cross,
                            seed=seed)
    except EnsembleError as exc:
        raise ConfigError("ensemble", str(exc)) from exc


def _law(cfg: dict, field: str) -> EntryLaw:
    try:
        return EntryLaw.from_dict(_get(cfg, field, dict, required=True))
    except EnsembleError as exc:
        raise ConfigError(field, str(exc)) from exc


def reference_radius(spec: EnsembleSpec, override=None) -> float:
    """Semicircle radius the ESD of this ensemble is expected to approach.

    One part: plain Wigner with radius sigma_intra.  Parts of vanishing
    size (largest fraction <= 5%): radius sigma_cross.  Otherwise the mixed
    radius sqrt((s1 + (m-1) s2)/m) for m comparable parts when s2 > 0, else
    sigma_cross.  A radius that is not positive is a config error.
    """
    if override is not None and not override > 0:
        raise ConfigError("reference_radius", "must be positive")
    if override is not None:
        return float(override)
    s1 = float(spec.law_intra.variance)
    s2 = float(spec.law_cross.variance)
    m = spec.partition.m
    if m > 1 and max(spec.partition.fractions) > 0.05 and s2 > 0:
        return mixing_radius(m, s1, s2)
    radius = math.sqrt(s1 if m == 1 else s2)
    if radius == 0.0:
        raise ConfigError("ensemble", "zero entry variance gives radius 0")
    return radius


def histogram(eigs: np.ndarray, bins: int, range_=None):
    """Equal-width binned counts and densities over the spectrum.

    Density is count/(n*width), so the densities integrate to 1 whenever
    the range covers every eigenvalue.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise ValueError("empty spectrum")
    if bins < 2:
        raise ValueError("need at least 2 bins")
    lo, hi = (float(eigs.min()), float(eigs.max())) if range_ is None \
        else (float(range_[0]), float(range_[1]))
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(eigs, bins=bins, range=(lo, hi))
    width = edges[1] - edges[0]
    density = counts / (eigs.size * width)
    return edges, counts, density


def _cell(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _write_csv(fh, header, rows) -> None:
    """The one CSV writer: floats (numpy's too) as repr(float(x)), other
    cells with str."""
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows([_cell(x) for x in row] for row in rows)


# the threads of every replicate map, one per thread of the BLAS pool found
# at import; each starts on first use and then lives on, so its malloc arena
# and what that arena holds are reused by every later map
_HELPER_THREADS = blas_threads() or 1
_HELPERS = ThreadPoolExecutor(_HELPER_THREADS, thread_name_prefix="replicate")


def _replicate_workers(pool: int | None, replicates: int) -> int:
    """Threads a map of `replicates` replicates runs on, for a BLAS pool
    of `pool` threads (None: not reachable)."""
    if pool is None or replicates < 2:
        return 1
    return min(pool, replicates, _HELPER_THREADS)


def _map_replicates(fn, replicates: int):
    """[fn(0), ..., fn(replicates - 1)].

    Where more than one thread can work, every replicate is queued on
    `_HELPERS` and solves on a one-thread BLAS pool while the caller waits;
    the pool size is restored once no replicate runs, however the map ends.
    Replicates start in index order, and none starts after one has failed,
    so the first failure in index order is the one with the lowest index,
    as the serial map would raise it.  (A named function: the benchmark's
    tracer times replicates here.)
    """
    pool = blas_threads()
    if _replicate_workers(pool, replicates) < 2:
        return [fn(i) for i in range(replicates)]
    failed = threading.Event()

    def one(i):
        if failed.is_set():  # a lower index failed; its error is raised
            return None
        try:
            return fn(i)
        except BaseException:
            failed.set()
            raise

    futures = []
    _set_blas_threads(1)
    try:
        futures.extend(_HELPERS.submit(one, i) for i in range(replicates))
        wait(futures)
    except BaseException:
        # an interrupted caller starts no queued replicate and waits for
        # the running ones before the pool is resized
        failed.set()
        wait(futures)
        raise
    finally:
        _set_blas_threads(pool)
    return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# per-kind runners; each returns (report_fragment, tables), where tables maps
# a CSV file name to (header, rows).  Runners never touch the disk.
# ---------------------------------------------------------------------------

def _table(header, records):
    """(header, rows) of the given columns of a list of dict records."""
    return header, [[r[c] for c in header] for r in records]


def _spectra(spec: EnsembleSpec, replicates: int):
    # a two-part ensemble whose intra law is the point mass at 0 has
    # matrices [[0, B], [B^T, 0]]: only the cross block B is sampled, and
    # the spectrum is +-sigma(B).  Every other ensemble is solved whole.
    # Each replicate scales and solves its own fresh sample in place.
    if spec.partition.m == 2 and spec.law_intra.raw_moment(2) == 0:
        def one(i):
            return eigenvalues_bipartite(scale_matrix(
                sample_cross_block(spec, i), spec.n, overwrite=True))
    else:
        def one(i):
            return eigenvalues_sym(scale_matrix(sample_matrix(spec, i),
                                                overwrite=True),
                                   overwrite=True)
    return _map_replicates(one, replicates)


def _run_esd(cfg, seed, replicates):
    spec = _ensemble_spec(cfg, seed)
    bins = _get(cfg, "bins", int, default=40)
    if bins < 2:
        raise ConfigError("bins", "need at least 2 bins")
    radius = reference_radius(spec, _get(cfg, "reference_radius", float))
    spectra = _spectra(spec, replicates)
    tables = {}
    per_rep = []
    for i, eigs in enumerate(spectra):
        tables[f"eigenvalues_r{i}.csv"] = (["eigenvalue"], eigs[:, None])
        per_rep.append({
            "replicate": i,
            "ks_vs_semicircle": ks_distance(esd(eigs),
                                            lambda x: semicircle_cdf(x, radius)),
            "moment2": empirical_moment(eigs, 2),
            "moment4": empirical_moment(eigs, 4),
        })
    all_eigs = np.concatenate(spectra)
    edges, counts, density = histogram(all_eigs, bins,
                                       (-1.05 * radius, 1.05 * radius))
    tables["histogram.csv"] = (["bin_lo", "bin_hi", "count", "density"],
                               list(zip(edges, edges[1:], counts, density)))
    report = {
        "ensemble": spec.to_dict(),
        "reference_radius": radius,
        "replicates": per_rep,
        "aggregate": {
            "mean_ks": float(np.mean([r["ks_vs_semicircle"] for r in per_rep])),
            "mean_moment2": float(np.mean([r["moment2"] for r in per_rep])),
            "mean_moment4": float(np.mean([r["moment4"] for r in per_rep])),
        },
    }
    return report, tables


def _run_moments(cfg, seed, replicates):
    spec = _ensemble_spec(cfg, seed)
    max_k = _get(cfg, "max_k", int, default=8)
    if not 1 <= max_k <= 64:
        raise ConfigError("max_k", "must be in 1..64")
    radius = reference_radius(spec, _get(cfg, "reference_radius", float))
    spectra = _spectra(spec, replicates)
    rows = []
    for k in range(max_k + 1):
        emp = float(np.mean([empirical_moment(e, k) for e in spectra]))
        theo = float(semicircle_moment(k, radius))
        rows.append({"k": k, "empirical": emp, "theoretical": theo,
                     "abs_err": abs(emp - theo)})
    tables = {
        "moment_table.csv": _table(["k", "empirical", "theoretical",
                                    "abs_err"], rows),
        "theoretical_moments.csv": (
            ["k", "gamma", "provenance"],
            [[r["k"], r["theoretical"], "main_theorem"] for r in rows]),
    }
    return {"ensemble": spec.to_dict(), "reference_radius": radius,
            "moments": rows}, tables


def _run_stieltjes(cfg, seed, replicates):
    spec = _ensemble_spec(cfg, seed)
    z_grid = _get(cfg, "z_grid", list,
                  default=[[0.0, 1.0], [0.5, 1.0], [-0.5, 0.5], [1.0, 2.0]])
    radius = reference_radius(spec, _get(cfg, "reference_radius", float))
    for j, pair in enumerate(z_grid):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"z_grid[{j}]", "expected [re, im]")
        if _items(pair, f"z_grid[{j}]")[1] <= 0:
            raise ConfigError(f"z_grid[{j}]", "Im z must be positive")
    spectra = _spectra(spec, replicates)
    rows = []
    for re, im in z_grid:
        z = complex(re, im)
        emp = np.mean([stieltjes_empirical(e, z) for e in spectra])
        theo = semicircle_stieltjes(z, radius)
        rows.append({"re_z": re, "im_z": im,
                     "emp_re": emp.real, "emp_im": emp.imag,
                     "theory_re": theo.real, "theory_im": theo.imag,
                     "abs_err": abs(emp - theo)})
    # the report keeps the grid as given; the CSV writes ints as floats too
    header = ["re_z", "im_z", "emp_re", "emp_im", "theory_re", "theory_im",
              "abs_err"]
    return {"ensemble": spec.to_dict(), "reference_radius": radius,
            "grid": rows}, \
        {"stieltjes.csv": (header, [[float(r[c]) for c in header]
                                    for r in rows])}


def _run_walks(cfg, seed, replicates):
    max_k = _get(cfg, "max_k", int, default=8)
    if not 2 <= max_k <= 10 or max_k % 2 != 0:
        raise ConfigError("max_k", "must be an even integer in 2..10")
    rows = []
    shape_rows = []
    for k in range(2, max_k + 1, 2):
        v = k // 2 + 1
        shapes = enumerate_shapes(k, v)
        g = sum(map(is_good_zero_mean, shapes))  # good_shape_count(k, v)
        t = catalan(k // 2)
        rows.append({"k": k, "v": v, "shapes": len(shapes), "good": g,
                     "catalan": t, "identity_holds": g == t})
        shape_rows.extend([k, v, "-".join(map(str, s))] for s in shapes)
    tables = {
        "walks.csv": _table(["k", "v", "shapes", "good", "catalan",
                             "identity_holds"], rows),
        "shapes.csv": (["k", "v", "shape"], shape_rows),
    }
    return {"table": rows,
            "all_identities_hold": all(r["identity_holds"] for r in rows)}, \
        tables


def _hankel_gammas(cfg, k: int):
    source = _get(cfg, "hankel.source", str, default="main")
    L = 2 * k
    if source in ("main", "uniform", "walk_oracle"):
        s2 = _get(cfg, "hankel.sigma2sq", float, default=1.0)
        if source == "main":
            m = _get(cfg, "hankel.m", int, default=2)
            if m < 2:
                raise ConfigError("hankel.m", "must be at least 2")
            fractions = [Fraction(1, m)] * m
            s1 = _get(cfg, "hankel.sigma1sq", float, default=1.0)
        elif source == "uniform":  # one part: semicircle of radius sigma2
            fractions, s1 = [1], s2
        else:
            fractions = _get(cfg, "hankel.fractions", list, required=True)
            try:
                check_fractions(_items(fractions, "hankel.fractions"))
            except EnsembleError as exc:
                raise ConfigError("hankel.fractions", str(exc)) from exc
            s1 = _get(cfg, "hankel.sigma1sq", float, default=0.0)
        return [float(g) for g in limit_moments(fractions, s1, s2, L)], source
    if source == "bipartite_printed":
        nu1 = _get(cfg, "hankel.nu1", float, required=True)
        s2 = _get(cfg, "hankel.sigma2sq", float, default=1.0)
        vals = [gamma_bipartite_printed(j, nu1, 1 - nu1, s2)
                for j in range(L + 1)]
        vals[0] = 1.0  # printed formula is only stated for k >= 1
        return vals, source
    if source == "proposition_printed":
        m = _get(cfg, "hankel.m", int, required=True)
        nu1 = _get(cfg, "hankel.nu1", float, required=True)
        nu2 = _get(cfg, "hankel.nu2", float, required=True)
        if L > 6:
            raise ConfigError("hankel.k", "printed values stop at gamma_6")
        vals = [1.0] + [0.0] * L
        for j in range(1, k + 1):
            vals[2 * j] = float(gamma_proposition_printed(j, m, nu1, nu2))
        return vals, source
    raise ConfigError("hankel.source", f"unknown source {source!r}")


def _run_hankel(cfg, seed, replicates):
    k = _get(cfg, "hankel.k", int, default=3)
    if not 1 <= k <= 5:
        raise ConfigError("hankel.k", "must be in 1..5")
    try:  # the law functions reject their arguments with LawError
        gammas, source = _hankel_gammas(cfg, k)
    except LawError as exc:
        raise ConfigError("hankel", str(exc)) from exc
    rep = hankel_report(gammas, k)
    return {"source": source, "k": k, "gammas": gammas,
            "determinants": rep["determinants"],
            "min_eigenvalue": rep["min_eigenvalue"], "psd": rep["psd"]}, \
        {"hankel.csv": (["minor", "determinant"],
                        list(enumerate(rep["determinants"])))}


def _run_charfn(cfg, seed, replicates):
    nuhat = _get(cfg, "charfn.nuhat", float, required=True)
    sigma2 = _get(cfg, "charfn.sigma2", float, default=1.0)
    t_max = _get(cfg, "charfn.t_max", float, default=60.0)
    step = _get(cfg, "charfn.step", float, default=0.05)
    try:
        rows = list(pseudo_char_grid(nuhat, sigma2, t_max, step))
    except LawError as exc:
        raise ConfigError("charfn", str(exc)) from exc
    witness = next((t for t, val in rows if val < -1.0), None)
    return {"nuhat": nuhat, "sigma2": sigma2, "t_max": t_max,
            "witness": witness}, {"charfn.csv": (["t", "pseudo_char"], rows)}


def _graph_setup(cfg, seed):
    n = _get(cfg, "graph.n", int, required=True)
    if n < 1:
        raise ConfigError("graph.n", "must be at least 1")
    p = _get(cfg, "graph.p", float, required=True)
    if not 0.0 <= p <= 1.0:
        raise ConfigError("graph.p", "must lie in [0, 1]")
    fractions = _get(cfg, "graph.fractions", list)
    gseed = seed if seed is not None else _get(cfg, "graph.seed", int, default=0)
    if not 0 <= gseed < 2**64:  # EnsembleSpec's rule for ensemble.seed
        raise ConfigError("graph.seed", "seed must fit in 64 unsigned bits")
    try:
        partition = singleton_partition(n) if fractions is None \
            else make_partition(n, _items(fractions, "graph.fractions"))
    except EnsembleError as exc:
        raise ConfigError("graph.fractions", str(exc)) from exc
    return partition, p, gseed, fractions


def _run_energy(cfg, seed, replicates):
    partition, p, gseed, fractions = _graph_setup(cfg, seed)
    n = partition.n
    if not 0.0 < p < 1.0:
        raise ConfigError("graph.p", "energy prediction requires 0 < p < 1")
    if fractions is None:
        prediction = predicted_energy_gnp(n, p)
        m_report = n
    elif len(fractions) < 2:
        raise ConfigError("graph.fractions",
                          "energy prediction needs at least two parts")
    else:
        m_report = len(fractions)
        prediction = predicted_energy_multipartite(n, m_report, p)

    def one(i):
        return graph_energy(sample_graph(partition, p, gseed, i),
                            overwrite=True)

    energies = _map_replicates(one, replicates)
    rows = []
    for i, e in enumerate(energies):
        rows.append({"n": n, "p": p, "m": m_report, "replicate": i,
                     "energy": e, "normalized": e / n**1.5,
                     "prediction": prediction,
                     "rel_dev": (e - prediction) / prediction})
    return {"rows": rows,
            "aggregate": {
                "mean_energy": float(np.mean(energies)),
                "mean_normalized": float(np.mean(energies)) / n**1.5,
                "prediction": prediction,
            }}, \
        {"energy.csv": _table(["n", "p", "m", "replicate", "energy",
                               "normalized", "prediction", "rel_dev"], rows)}


def _run_decomposition(cfg, seed, replicates):
    partition, p, gseed, fractions = _graph_setup(cfg, seed)
    if fractions is None:
        raise ConfigError("graph.fractions", "decomposition needs explicit parts")
    large = _items(_get(cfg, "graph.large_parts", list, required=True),
                   "graph.large_parts", int)
    try:
        check_large_parts(partition.m, large)
    except EnsembleError as exc:
        raise ConfigError("graph.large_parts", str(exc)) from exc

    def one(i):
        return energy_decomposition_check(partition, large, p, gseed, i)

    checks = _map_replicates(one, replicates)
    bounds = None
    if 0.0 < p < 1.0:
        bounds = energy_bounds_unbalanced(partition.n, partition.fractions,
                                          large, p)
    report = {"large_parts": list(large), "bounds": bounds,
              "replicates": [
                  {"replicate": i, "energy_A": c["energy_A"],
                   "energy_X": c["energy_X"], "energy_D": c["energy_D"],
                   "block_diagonal": c["block_diagonal"], "holds": c["holds"]}
                  for i, c in enumerate(checks)],
              "all_hold": all(c["holds"] for c in checks)}
    return report, {}


_RUNNERS = {
    "esd": _run_esd,
    "moments": _run_moments,
    "stieltjes": _run_stieltjes,
    "walks": _run_walks,
    "hankel": _run_hankel,
    "charfn": _run_charfn,
    "energy": _run_energy,
    "decomposition": _run_decomposition,
}


def run_experiment(config: dict, out_dir, seed=None, replicates=None) -> dict:
    """Execute the configured study, writing report.json and CSVs.

    The runner computes every table first; files are written only once it
    has returned.  Raises ConfigError for bad configs and NumericError for
    a failed solve, floating-point trouble or a failed write; any other
    exception is a bug and propagates unchanged.  A failed run leaves no
    files behind.
    """
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = _get(config, "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; valid: {KINDS}")
    replicates = replicates if replicates is not None \
        else _get(config, "replicates", int, default=1)
    if replicates < 1:
        raise ConfigError("replicates", "must be at least 1")
    out = Path(out_dir)
    written: list[Path] = []
    t0 = time.monotonic()
    # which BLAS pool computed the bits; runs differ in it only across hosts
    pool = blas_threads()
    env = {"numpy": np.__version__, "blas": _BLAS_NAME, "blas_threads": pool,
           "cpu_count": os.cpu_count(),
           "replicate_workers": _replicate_workers(pool, replicates)}
    try:
        fragment, tables = _RUNNERS[kind](config, seed, replicates)
        report = {
            "kind": kind,
            "config": config,
            "seed": seed,
            "replicate_count": replicates,
            "version": __version__,
            "wall_clock_s": time.monotonic() - t0,
            "env": env,
            **fragment,
        }
        out.mkdir(parents=True, exist_ok=True)
        # a file counts as written once opened, so a partial one is removed
        for name, (header, rows) in tables.items():
            with open(out / name, "w", newline="") as fh:
                written.append(out / name)
                _write_csv(fh, header, rows)
        with open(out / "report.json", "w") as fh:
            written.append(out / "report.json")
            json.dump(report, fh, indent=2, sort_keys=True)
        return report
    except Exception as exc:
        for f in written:
            f.unlink(missing_ok=True)
        if isinstance(exc, (SpectralError, np.linalg.LinAlgError,
                            ArithmeticError, OSError)):
            raise NumericError(f"{kind} experiment failed: {exc}") from exc
        raise
