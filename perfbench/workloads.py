"""The benchmark's workloads: CLI calls generated from a seed, and checks.

Each workload is a fixed list of `rmtlab` CLI calls.  The seed argument of
the benchmark derives every ensemble and graph seed, so the same seed gives
the same configs.  README.md says why each workload is in the set.
"""

from __future__ import annotations

import hashlib
import itertools

UNIFORM = {"kind": "uniform_interval", "params": {"lo": -1.0, "hi": 1.0}}
RADEMACHER = {"kind": "rademacher", "params": {}}
ZERO = {"kind": "constant_zero", "params": {}}

HANKEL_FRACTIONS = (0.4, 0.3, 0.2, 0.1)

# Truth bounds.  The energy prediction is a leading term: at n = 800..1500
# the sampled energies sit 2-5% above it, so 10% leaves room on both sides.
KS_BOUND = 0.05
ENERGY_REL_DEV_BOUND = 0.10


def derive_seed(seed: int, workload: str, call: int) -> int:
    """A 32-bit seed for one call, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{call}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _ensemble(n, fractions, law_intra, law_cross, seed):
    return {"n": n, "fractions": list(fractions), "law_intra": law_intra,
            "law_cross": law_cross, "seed": seed}


def _dense_spectra(s):
    return [
        {"kind": "esd", "replicates": 4,
         "ensemble": _ensemble(2000, [0.5, 0.5], UNIFORM, RADEMACHER, s(0))},
        {"kind": "moments", "replicates": 2, "max_k": 8,
         "ensemble": _ensemble(2000, [0.8, 0.2], ZERO, RADEMACHER, s(1))},
        {"kind": "stieltjes", "replicates": 2,
         "ensemble": _ensemble(2000, [0.001] * 1000, UNIFORM, RADEMACHER,
                               s(2))},
    ]


def _graph_energy(s):
    # The exact oracles ride at the end of this pass rather than in a
    # workload of their own: pure-Python timings on a shared host swing too
    # much to gate on, so they are timed only as part of `wall_s` here.  The
    # seed only picks the order of the Hankel parts.  Limit moments do not
    # depend on how parts are labelled and the oracle sums exact rationals,
    # so every order gives the same outputs and the same amount of work.
    orders = list(itertools.permutations(HANKEL_FRACTIONS))
    fractions = orders[s(3) % len(orders)]
    return [
        {"kind": "energy", "replicates": 4,
         "graph": {"n": 1500, "fractions": [0.25] * 4, "p": 0.5,
                   "seed": s(0)}},
        {"kind": "decomposition", "replicates": 2,
         "graph": {"n": 1200, "fractions": [0.6, 0.2, 0.2],
                   "large_parts": [0, 1, 2], "p": 0.5, "seed": s(1)}},
        {"kind": "energy", "replicates": 2,
         "graph": {"n": 1500, "p": 0.5, "seed": s(2)}},
        {"kind": "walks", "max_k": 10},
        {"kind": "hankel",
         "hankel": {"source": "walk_oracle", "fractions": list(fractions),
                    "sigma1sq": 0.25, "sigma2sq": 1.0, "k": 4}},
        {"kind": "charfn",
         "charfn": {"nuhat": 0.3 ** 0.5, "t_max": 60.0, "step": 0.01}},
    ]


def _replicate_parallel(s):
    return [
        {"kind": "esd", "replicates": 24,
         "ensemble": _ensemble(800, [0.5, 0.5], UNIFORM, RADEMACHER, s(0))},
        {"kind": "energy", "replicates": 24,
         "graph": {"n": 800, "p": 0.3, "seed": s(1)}},
        {"kind": "moments", "replicates": 24, "max_k": 8,
         "ensemble": _ensemble(800, [0.8, 0.2], ZERO, RADEMACHER, s(2))},
    ]


# name -> (RMTLAB_THREADS, config generator)
WORKLOADS = {
    "dense_spectra": (1, _dense_spectra),
    "graph_energy": (1, _graph_energy),
    "replicate_parallel": (2, _replicate_parallel),
}
# The first three calls of every pass are timed one by one (call1_s..).
TIMED_CALLS = 3


def configs(workload: str, seed: int) -> list[dict]:
    """The CLI configs of one pass over the workload."""
    _, make = WORKLOADS[workload]
    return make(lambda call: derive_seed(seed, workload, call))


def truth_problems(report: dict) -> list[str]:
    """Violations of the call's own source of truth; empty when it holds."""
    kind = report.get("kind")
    problems = []
    if kind == "esd":
        worst = max(r["ks_vs_semicircle"] for r in report["replicates"])
        if not worst < KS_BOUND:
            problems.append(f"esd: KS {worst} >= {KS_BOUND}")
    elif kind == "energy":
        worst = max(abs(r["rel_dev"]) for r in report["rows"])
        if not worst < ENERGY_REL_DEV_BOUND:
            problems.append(f"energy: |rel_dev| {worst} >= "
                            f"{ENERGY_REL_DEV_BOUND}")
    elif kind == "decomposition":
        if report["all_hold"] is not True:
            problems.append("decomposition: sandwich bound does not hold")
    elif kind == "walks":
        if report["all_identities_hold"] is not True:
            problems.append("walks: good-walk count differs from Catalan")
    elif kind == "hankel":
        # walk_oracle gammas are moments of a probability measure
        if report["psd"] is not True:
            problems.append("hankel: moment matrix is not PSD")
    elif kind == "charfn":
        if report["witness"] is None:
            problems.append("charfn: no negativity witness")
    return problems
