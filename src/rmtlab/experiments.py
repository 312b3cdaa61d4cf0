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

import contextlib
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
                          leading_energy, sample_graph)
from .laws import (LawError, catalan, gamma_bipartite_printed,
                   gamma_proposition_printed, hankel_report, limit_moments,
                   pseudo_char_grid, semicircle_cdf, semicircle_moment,
                   semicircle_stieltjes)
from .spectral import (SpectralError, _set_blas_threads, _two_stage_from_n,
                       blas_threads, eigenvalues_bipartite, eigenvalues_sym,
                       empirical_moment, esd, ks_distance, stieltjes_empirical)
from .walks import enumerate_shapes, is_good_zero_mean

_BLAS_NAME = np.show_config(mode="dicts").get("Build Dependencies", {}) \
    .get("blas", {}).get("name")


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` is the offending path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NumericError(RuntimeError):
    """An experiment failed numerically after config validation."""


def _get(cfg: dict, field: str, typ, default=None, required: bool = False,
         lo=None, hi=None):
    """The value at the dotted path `field` of cfg, through `_check`;
    default where it is absent or null."""
    cur = cfg
    parts = field.split(".")
    for p in parts[:-1]:
        cur = cur.get(p, {}) if isinstance(cur, dict) else {}
    if not isinstance(cur, dict) or cur.get(parts[-1]) is None:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    return _check(field, cur[parts[-1]], typ, lo, hi)


def _check(field: str, val, typ, lo=None, hi=None):
    """val, once it is a typ in [lo, hi]; a number must be finite, a bool
    is no number, and a float field takes an int and returns it as float."""
    if isinstance(val, bool) or not isinstance(
            val, (int, float) if typ is float else typ):
        raise ConfigError(field, f"expected {typ}, got {type(val).__name__}")
    if isinstance(val, (int, float)):
        if not is_finite(val):
            raise ConfigError(field, f"expected a finite number, got {val}")
        if (lo is not None and val < lo) or (hi is not None and val > hi):
            raise ConfigError(field, f"must be at least {lo}" if hi is None
                              else f"must lie in [{lo}, {hi}]")
        if typ is float:
            val = float(val)
    return val


def _items(values: list, field: str, typ=(int, float)) -> list:
    """values, once every item passes `_check` as a typ."""
    return [_check(f"{field}[{i}]", v, typ) for i, v in enumerate(values)]


@contextlib.contextmanager
def _as_config_error(field: str):
    """Raise a library's refusal of its arguments (EnsembleError, LawError)
    as ConfigError(field)."""
    try:
        yield
    except (EnsembleError, LawError) as exc:
        raise ConfigError(field, str(exc)) from exc


def _ensemble_spec(cfg: dict, seed_override=None) -> EnsembleSpec:
    if "reference_radius" in cfg:  # a set radius would score another law
        raise ConfigError("reference_radius", "not a config key")
    n = _get(cfg, "ensemble.n", int, required=True, lo=1)
    fractions = _items(_get(cfg, "ensemble.fractions", list, required=True),
                       "ensemble.fractions")
    law_intra = _law(cfg, "ensemble.law_intra")
    law_cross = _law(cfg, "ensemble.law_cross")
    seed = seed_override if seed_override is not None \
        else _get(cfg, "ensemble.seed", int, default=0)
    with _as_config_error("ensemble"):
        return EnsembleSpec(partition=make_partition(n, fractions),
                            law_intra=law_intra, law_cross=law_cross,
                            seed=seed)


def _law(cfg: dict, field: str) -> EntryLaw:
    with _as_config_error(field):
        return EntryLaw.from_dict(_get(cfg, field, dict, required=True))


def reference_radius(spec: EnsembleSpec) -> float:
    """Semicircle radius the ESD of this ensemble is expected to approach.

    One part: plain Wigner with radius sigma_intra.  Parts of vanishing
    size (largest fraction <= 5%): radius sigma_cross.  Otherwise the mixed
    radius sqrt((s1 + (m-1) s2)/m) for m comparable parts when s2 > 0, else
    sigma_cross.  A radius of 0 is a config error; no config key sets it.
    """
    s1 = float(spec.law_intra.variance)
    s2 = float(spec.law_cross.variance)
    m = spec.partition.m
    if m > 1 and max(spec.partition.fractions) > 0.05 and s2 > 0:
        return math.sqrt((s1 + (m - 1) * s2) / m)
    radius = math.sqrt(s1 if m == 1 else s2)
    if radius == 0.0:
        raise ConfigError("ensemble", "zero entry variance gives radius 0")
    return radius


def _write_csv(fh, header, rows) -> None:
    """The one CSV writer.  Cells are Python scalars or strings, which csv
    writes as repr for a float and str for anything else; an ndarray of
    rows is written as its .tolist()."""
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)


# the threads of every replicate map, one per thread of the BLAS pool found
# at import; each starts on first use and then lives on, so its malloc arena
# and what that arena holds are reused by every later map
_HELPER_THREADS = blas_threads() or 1
_HELPERS = ThreadPoolExecutor(_HELPER_THREADS, thread_name_prefix="replicate")


def _replicate_workers(pool: int | None, replicates: int) -> int:
    """Threads a map of `replicates` replicates runs on, for a BLAS pool
    of `pool` threads (None: not reachable): one where the pool has fewer
    than two, else one per replicate up to the size of `_HELPERS`."""
    if pool is None or pool < 2:
        return 1
    return min(replicates, _HELPER_THREADS)


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
    # charfn's cap on grid points caps the histogram too
    bins = _get(cfg, "bins", int, default=40, lo=2, hi=10**6)
    radius = reference_radius(spec)
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
    half = max(1.05 * radius, float(np.max(np.abs(all_eigs))))
    # the range covers every eigenvalue, so the densities
    # count/(n*width) integrate to 1
    counts, edges = np.histogram(all_eigs, bins=bins, range=(-half, half))
    density = counts / (all_eigs.size * (edges[1] - edges[0]))
    tables["histogram.csv"] = (["bin_lo", "bin_hi", "count", "density"],
                               list(zip(edges.tolist(), edges[1:].tolist(),
                                        counts.tolist(), density.tolist())))
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
    max_k = _get(cfg, "max_k", int, default=8, lo=1, hi=64)
    radius = reference_radius(spec)
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
    radius = reference_radius(spec)
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
    max_k = _get(cfg, "max_k", int, default=8, lo=2, hi=10)
    if max_k % 2 != 0:
        raise ConfigError("max_k", "must be even")
    rows = []
    shape_rows = []
    for k in range(2, max_k + 1, 2):
        v = k // 2 + 1
        shapes = enumerate_shapes(k, v)
        g = int(np.count_nonzero(is_good_zero_mean(shapes)))  # g(v, k)
        t = catalan(k // 2)
        rows.append({"k": k, "v": v, "shapes": len(shapes), "good": g,
                     "catalan": t, "identity_holds": g == t})
        # every label is one digit (v <= 6): a row's characters are its
        # labels' digits with a "-" between each two
        text = np.full((len(shapes), 2 * k - 1), ord("-"), dtype=np.uint32)
        text[:, ::2] = shapes + ord("0")
        shape_rows.extend([k, v, s] for s in
                          text.view(f"U{2 * k - 1}").ravel().tolist())
    tables = {
        "walks.csv": _table(["k", "v", "shapes", "good", "catalan",
                             "identity_holds"], rows),
        "shapes.csv": (["k", "v", "shape"], shape_rows),
    }
    return {"table": rows,
            "all_identities_hold": all(r["identity_holds"] for r in rows)}, \
        tables


def _hankel_gammas(cfg, source: str, k: int):
    """gamma_0..gamma_2k.  `main` (m equal parts) and `walk_oracle` (the
    given fractions; [1] is the semicircle of radius sqrt(sigma1sq)) are
    `limit_moments`; the two `*_printed` sources are the paper's text."""
    L = 2 * k
    if source in ("main", "walk_oracle"):
        s2 = _get(cfg, "hankel.sigma2sq", float, default=1.0)
        if source == "main":
            m = _get(cfg, "hankel.m", int, default=2, lo=2)
            fractions = [Fraction(1, m)] * m
            s1 = _get(cfg, "hankel.sigma1sq", float, default=1.0)
        else:
            fractions = _get(cfg, "hankel.fractions", list, required=True)
            with _as_config_error("hankel.fractions"):
                check_fractions(_items(fractions, "hankel.fractions"))
            s1 = _get(cfg, "hankel.sigma1sq", float, default=0.0)
        return [float(g) for g in limit_moments(fractions, s1, s2, L)]
    if source == "bipartite_printed":
        nu1 = _get(cfg, "hankel.nu1", float, required=True)
        s2 = _get(cfg, "hankel.sigma2sq", float, default=1.0)
        vals = [gamma_bipartite_printed(j, nu1, 1 - nu1, s2)
                for j in range(L + 1)]
        vals[0] = 1.0  # printed formula is only stated for k >= 1
        return vals
    if source == "proposition_printed":
        m = _get(cfg, "hankel.m", int, required=True)
        nu1 = _get(cfg, "hankel.nu1", float, required=True)
        nu2 = _get(cfg, "hankel.nu2", float, required=True)
        vals = [1.0] + [0.0] * L
        for j in range(1, k + 1):
            vals[2 * j] = float(gamma_proposition_printed(j, m, nu1, nu2))
        return vals
    raise ConfigError("hankel.source", f"unknown source {source!r}")


def _run_hankel(cfg, seed, replicates):
    source = _get(cfg, "hankel.source", str, default="main")
    # the printed proposition stops at gamma_6
    k = _get(cfg, "hankel.k", int, default=3, lo=1,
             hi=3 if source == "proposition_printed" else 5)
    with _as_config_error("hankel"):
        gammas = _hankel_gammas(cfg, source, k)
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
    with _as_config_error("charfn"):
        rows = list(pseudo_char_grid(nuhat, sigma2, t_max, step))
    witness = next((t for t, val in rows if val < -1.0), None)
    return {"nuhat": nuhat, "sigma2": sigma2, "t_max": t_max,
            "witness": witness}, {"charfn.csv": (["t", "pseudo_char"], rows)}


def _graph_setup(cfg, seed):
    n = _get(cfg, "graph.n", int, required=True, lo=1)
    p = _get(cfg, "graph.p", float, required=True, lo=0.0, hi=1.0)
    fractions = _get(cfg, "graph.fractions", list)
    gseed = seed if seed is not None else _get(cfg, "graph.seed", int, default=0)
    with _as_config_error("graph.fractions"):
        partition = singleton_partition(n) if fractions is None \
            else make_partition(n, _items(fractions, "graph.fractions"))
    with _as_config_error("graph.seed"):  # EnsembleSpec refuses only a seed
        spec = EnsembleSpec(partition, EntryLaw.constant_zero(),
                            EntryLaw.bernoulli(p), gseed)
    return spec, p, fractions


def _run_energy(cfg, seed, replicates):
    spec, p, fractions = _graph_setup(cfg, seed)
    n = spec.n
    if not 0.0 < p < 1.0:
        raise ConfigError("graph.p", "energy prediction requires 0 < p < 1")
    if fractions is None:
        m_report, c = n, 1.0
    elif len(fractions) < 2:
        raise ConfigError("graph.fractions",
                          "energy prediction needs at least two parts")
    elif len(set(fractions)) > 1:
        raise ConfigError("graph.fractions",
                          "energy predicts equal parts only; kind "
                          "decomposition bounds the energy of unequal ones")
    else:  # balanced parts: c = (m-1)/m
        m_report = len(fractions)
        c = (m_report - 1) / m_report
    prediction = leading_energy(n, p, c)

    def one(i):
        return graph_energy(sample_graph(spec, i), overwrite=True)

    energies = _map_replicates(one, replicates)
    rows = []
    for i, e in enumerate(energies):
        rows.append({"n": n, "p": p, "m": m_report, "replicate": i,
                     "energy": e, "normalized": e / n**1.5,
                     "prediction": prediction,
                     "rel_dev": (e - prediction) / prediction})
    return {"ensemble": spec.to_dict(), "rows": rows,
            "aggregate": {
                "mean_energy": float(np.mean(energies)),
                "mean_normalized": float(np.mean(energies)) / n**1.5,
                "prediction": prediction,
            }}, \
        {"energy.csv": _table(["n", "p", "m", "replicate", "energy",
                               "normalized", "prediction", "rel_dev"], rows)}


def _run_decomposition(cfg, seed, replicates):
    spec, p, fractions = _graph_setup(cfg, seed)
    if fractions is None:
        raise ConfigError("graph.fractions", "decomposition needs explicit parts")
    large = _items(_get(cfg, "graph.large_parts", list, required=True),
                   "graph.large_parts", int)
    with _as_config_error("graph.large_parts"):
        check_large_parts(spec.partition.m, large)

    def one(i):
        return energy_decomposition_check(spec, large, i)

    checks = _map_replicates(one, replicates)
    bounds = None
    if 0.0 < p < 1.0:
        bounds = energy_bounds_unbalanced(spec, large)
    report = {"ensemble": spec.to_dict(), "large_parts": list(large),
              "bounds": bounds,
              "replicates": [{"replicate": i, **c}
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
KINDS = tuple(_RUNNERS)


def run_experiment(config: dict, out_dir, seed=None, replicates=None) -> dict:
    """Execute the configured study, writing report.json and CSVs.

    The runner computes every table first; files are written only once it
    has returned.  Raises ConfigError for bad configs and NumericError for
    a failed solve, floating-point trouble or a failed write; any other
    exception is a bug and propagates unchanged.  A failed run leaves no
    files behind, and neither does an interrupt (KeyboardInterrupt or any
    other BaseException), which propagates unchanged too; the directories
    the run created go with them, and no directory that existed before.
    """
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    kind = _get(config, "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}; valid: {KINDS}")
    replicates = _check("replicates", replicates, int, lo=1) \
        if replicates is not None \
        else _get(config, "replicates", int, default=1, lo=1)
    out = Path(out_dir)
    written: list[Path] = []
    created: list[Path] = []
    t0 = time.monotonic()
    # which BLAS pool and driver computed the bits; runs differ in them only
    # across hosts
    pool = blas_threads()
    env = {"numpy": np.__version__, "blas": _BLAS_NAME, "blas_threads": pool,
           "cpu_count": os.cpu_count(),
           "replicate_workers": _replicate_workers(pool, replicates),
           "two_stage_from_n": _two_stage_from_n()}
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
        # the directories this run creates, deepest first
        created = [d for d in (out, *out.parents) if not d.exists()]
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
    except BaseException as exc:
        for f in written:
            f.unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):  # not empty: not only ours
                d.rmdir()
        if isinstance(exc, (SpectralError, np.linalg.LinAlgError,
                            ArithmeticError, OSError)):
            raise NumericError(f"{kind} experiment failed: {exc}") from exc
        raise
