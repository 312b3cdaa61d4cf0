"""Every function and method of `src/rmtlab` is reached by a CLI run, or is
on the allowlist below with its reason.

One small config per kind, and per `hankel` source, plus one bad config,
goes through `cli.main` under `sys.setprofile`.  Each run but one has one
replicate, so it stays on the calling thread, where the profile function
sees it: the replicate map's threads started before the profile was set
and do not run it.  The one two-replicate run reaches the calling
thread's side of a threaded map.  Code that only tests call belongs in
`tests/`; an allowlist entry that a run reaches, or that no longer exists,
fails too.
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import rmtlab
from rmtlab import cli, experiments
from rmtlab.spectral import blas_threads

SRC = Path(rmtlab.__file__).parent

RADEMACHER = {"kind": "rademacher", "params": {}}
UNIFORM = {"kind": "uniform_interval", "params": {"lo": -1.0, "hi": 1.0}}
ZERO = {"kind": "constant_zero", "params": {}}


def _ensemble(fractions, intra):
    return {"ensemble": {"n": 12, "fractions": fractions, "law_intra": intra,
                         "law_cross": RADEMACHER, "seed": 3}}


CONFIGS = [
    ("esd", _ensemble([0.5, 0.5], RADEMACHER)),
    ("esd", _ensemble([0.75, 0.25], ZERO)),  # the two-part SVD route
    ("moments", {**_ensemble([0.75, 0.25], ZERO), "max_k": 4}),
    ("stieltjes", _ensemble([1.0], UNIFORM)),
    ("walks", {"max_k": 4}),
    ("hankel", {"hankel": {"source": "main", "m": 3, "k": 2}}),
    ("hankel", {"hankel": {"source": "walk_oracle",
                           "fractions": [0.75, 0.25], "k": 2}}),
    ("hankel", {"hankel": {"source": "bipartite_printed", "nu1": 0.8,
                           "k": 2}}),
    ("hankel", {"hankel": {"source": "proposition_printed", "m": 3,
                           "nu1": 0.8, "nu2": 0.1, "k": 2}}),
    ("charfn", {"charfn": {"nuhat": 0.5477, "t_max": 10.0}}),
    ("energy", {"graph": {"n": 12, "p": 0.5}, "replicates": 2}),
    ("energy", {"graph": {"n": 12, "p": 0.5, "fractions": [0.5, 0.5]}}),
    ("decomposition", {"graph": {"n": 12, "p": 0.5,
                                 "fractions": [0.5, 0.25, 0.25],
                                 "large_parts": [0]}}),
]
BAD_CONFIG = ("esd", {"ensemble": {"n": 0}})

# reached by no CLI run, and why each stays in src/
ALLOWED = {
    "ensemble.EntryLaw.rademacher": "public API",
    "ensemble.EntryLaw.two_point": "public API",
    "ensemble.EntryLaw.uniform_interval": "public API",
    "laws.semicircle_density": "public API (rmtlab.__all__)",
    "ensemble.EnsembleSpec.from_dict":
        "replays a report's `ensemble` record",
    "ensemble.sample_matrix":
        "public and replay API: a run samples the upper triangle alone",
    "graphenergy.sample_graph": "ditto, for a graph record",
    "ensemble._mirror": "completes sample_matrix and sample_graph",
    "spectral._openblas": "runs once, at import",
    "walks._walk_sum": "exact finite-n oracle, to be wired in (ROADMAP 1)",
    "walks._kept_edges": "ditto",
    "walks.exact_trace_moment_by_order": "ditto",
    "walks.exact_expected_trace_moment": "ditto",
    "graphenergy.kyfan_check":
        "matrix inequality, to be run on graphs (ROADMAP 13)",
    "spectral.esd_sup_distance": "ditto",
    "spectral.numeric_rank": "ditto",
    "spectral.check_rank_inequality": "ditto",
    "spectral.check_stieltjes_perturbation": "ditto",
}
# where the BLAS pool has one thread, every replicate map runs serially
SERIAL_ONLY = {"spectral._set_blas_threads": "no threaded map on this host"}


def defined_functions() -> dict:
    """{"module.qualname": code} for every function and method whose code
    lies in src/rmtlab; dataclass-generated methods have none there."""
    found = {}
    for info in pkgutil.iter_modules(rmtlab.__path__):
        module = importlib.import_module(f"rmtlab.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)  # classmethod
                code = getattr(member, "__code__", None)
                if code is not None and Path(code.co_filename).parent == SRC:
                    found[f"{Path(code.co_filename).stem}."
                          f"{member.__qualname__}"] = code
    return found


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    runs = []
    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (kind, cfg) in enumerate(CONFIGS + [BAD_CONFIG]):
            path = tmp_path / f"config_{i}.json"
            path.write_text(json.dumps(cfg))
            runs.append(cli.main([kind, "--config", str(path),
                                  "--out", str(tmp_path / f"out_{i}")]))
    finally:
        sys.setprofile(old)
    capsys.readouterr()
    assert runs == [0] * len(CONFIGS) + [2]
    allowed = dict(ALLOWED)
    if experiments._replicate_workers(blas_threads(), 2) < 2:
        allowed.update(SERIAL_ONLY)
    unreached = {name for name, code in defined_functions().items()
                 if code not in reached}
    assert unreached - set(allowed) == set(), "reached by no run"
    assert set(allowed) - unreached == set(), "stale allowlist entries"
