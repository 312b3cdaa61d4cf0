import csv
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import graph_spec
from rmtlab import experiments, spectral
from rmtlab.cli import main as cli_main
from rmtlab.ensemble import (EnsembleSpec, EntryLaw, PartitionSpec,
                             _upper_fill, make_partition,
                             sample_cross_block, sample_matrix, scale_matrix,
                             singleton_partition)
from rmtlab.experiments import (KINDS, ConfigError, NumericError,
                                _cross_block_only, _energies, _spectra,
                                reference_radius, run_experiment)
from rmtlab.graphenergy import graph_energy, sample_graph
from rmtlab.laws import catalan, pseudo_char_grid, semicircle_moment
from rmtlab.spectral import (SpectralError, _set_blas_threads, blas_threads,
                             eigenvalues_bipartite, eigenvalues_sym,
                             moments_bipartite)
from rmtlab.walks import enumerate_shapes, is_good_zero_mean


def rademacher_cfg(kind, n=30, fractions=(0.5, 0.5), **extra):
    cfg = {
        "kind": kind,
        "ensemble": {
            "n": n,
            "fractions": list(fractions),
            "law_intra": EntryLaw.rademacher().to_dict(),
            "law_cross": EntryLaw.rademacher().to_dict(),
            "seed": 7,
        },
    }
    cfg.update(extra)
    return cfg


def zero_intra_cfg(kind, n=150, **extra):
    """Two parts [.8, .2], zero intra blocks, Rademacher cross block."""
    cfg = rademacher_cfg(kind, n=n, fractions=(0.8, 0.2), **extra)
    cfg["ensemble"]["law_intra"] = EntryLaw.constant_zero().to_dict()
    return cfg


# a JSON `true` in each list field, and the item the error must name
BOOL_ITEMS = [
    ("ensemble.fractions[0]", rademacher_cfg("esd", fractions=[True])),
    ("z_grid[0][0]", rademacher_cfg("stieltjes", z_grid=[[True, True]])),
    ("graph.fractions[0]",
     {"kind": "energy", "graph": {"n": 20, "p": 0.5, "fractions": [True]}}),
    ("graph.large_parts[0]",
     {"kind": "decomposition",
      "graph": {"n": 20, "p": 0.5, "fractions": [0.5, 0.5],
                "large_parts": [True]}}),
    ("hankel.fractions[0]",
     {"kind": "hankel",
      "hankel": {"source": "walk_oracle", "fractions": [True]}}),
]


def _law_cfg(law):
    cfg = rademacher_cfg("esd", n=20)
    cfg["ensemble"]["law_cross"] = law
    return cfg


# a non-finite number in a numeric field (JSON NaN / Infinity, or an
# integer too large for a float), and the field the error must name
HUGE = 10 ** 400
NON_FINITE = [
    ("hankel.sigma1sq",
     {"kind": "hankel",
      "hankel": {"source": "main", "m": 3, "sigma1sq": math.nan, "k": 3}}),
    ("ensemble.law_cross",
     _law_cfg({"kind": "bernoulli", "params": {"p": math.nan}})),
    ("ensemble.law_cross",
     _law_cfg({"kind": "uniform_interval",
               "params": {"lo": -math.inf, "hi": 1.0}})),
    ("z_grid[0][0]", rademacher_cfg("stieltjes", z_grid=[[math.inf, 1.0]])),
    ("charfn.t_max",
     {"kind": "charfn", "charfn": {"nuhat": 0.5, "t_max": math.nan}}),
    ("graph.p", {"kind": "energy", "graph": {"n": 20, "p": math.nan}}),
    ("charfn.t_max",
     {"kind": "charfn", "charfn": {"nuhat": 0.5, "t_max": HUGE}}),
    ("graph.p", {"kind": "energy", "graph": {"n": 20, "p": HUGE}}),
    ("ensemble.n", rademacher_cfg("esd", n=HUGE)),
    ("ensemble.fractions[0]", rademacher_cfg("esd", fractions=[HUGE, 0.5])),
    ("z_grid[0][0]", rademacher_cfg("stieltjes", z_grid=[[HUGE, 1.0]])),
    ("hankel.sigma2sq",
     {"kind": "hankel",
      "hankel": {"source": "walk_oracle", "fractions": [1], "sigma2sq": HUGE,
                 "k": 3}}),
    ("ensemble.law_cross",
     _law_cfg({"kind": "uniform_interval", "params": {"lo": 0, "hi": HUGE}})),
]


def _graph_cfg(kind="energy", **graph):
    base = {"n": 20, "p": 0.5}
    if kind == "decomposition":
        base.update(fractions=[0.5, 0.5], large_parts=[0])
    return {"kind": kind, "graph": {**base, **graph}}


def _hankel_cfg(**hankel):
    return {"kind": "hankel", "hankel": {"source": "main", **hankel}}


def _charfn_cfg(**charfn):
    return {"kind": "charfn", "charfn": {"nuhat": 0.5, **charfn}}


def _ensemble_seed_cfg(seed):
    cfg = rademacher_cfg("esd", n=20)
    cfg["ensemble"]["seed"] = seed
    return cfg


# a value just outside the inclusive range of each ranged field, the field
# the error must name, and the command-line flags of the run; the seed
# range [0, 2**64) is EnsembleSpec's
BELOW_1 = math.nextafter(0.0, -1.0)
ABOVE_1 = math.nextafter(1.0, 2.0)
OUT_OF_RANGE = [
    ("ensemble.n", rademacher_cfg("esd", n=0), []),
    ("bins", rademacher_cfg("esd", n=20, bins=1), []),
    ("bins", rademacher_cfg("esd", n=20, bins=10**6 + 1), []),
    # the histogram takes at most charfn's 10**6 grid points; uncapped,
    # 10**7 bins would build a 10**7-row histogram.csv in memory
    ("bins", rademacher_cfg("esd", n=20, bins=10**7), []),
    ("max_k", rademacher_cfg("moments", n=20, max_k=0), []),
    ("max_k", rademacher_cfg("moments", n=20, max_k=65), []),
    # even values, so the range refuses them and not the parity rule
    ("max_k", {"kind": "walks", "max_k": 0}, []),
    ("max_k", {"kind": "walks", "max_k": 12}, []),
    ("hankel.k", _hankel_cfg(k=0), []),
    ("hankel.k", _hankel_cfg(k=6), []),
    ("hankel.k", _hankel_cfg(source="proposition_printed", m=3, nu1=0.8,
                             nu2=0.1, k=4), []),
    ("hankel.m", _hankel_cfg(m=1), []),
    ("graph.n", _graph_cfg(n=0), []),
    ("graph.n", _graph_cfg("decomposition", n=0), []),
    ("graph.p", _graph_cfg(p=BELOW_1), []),
    ("graph.p", _graph_cfg(p=ABOVE_1), []),
    ("graph.p", _graph_cfg("decomposition", p=BELOW_1), []),
    ("graph.p", _graph_cfg("decomposition", p=ABOVE_1), []),
    ("graph.seed", _graph_cfg(seed=-1), []),
    ("graph.seed", _graph_cfg(seed=2**64), []),
    ("seed", _graph_cfg("decomposition"), ["--seed", str(2**64)]),
    ("ensemble.seed", _ensemble_seed_cfg(-1), []),
    ("ensemble.seed", _ensemble_seed_cfg(2**64), []),
    ("seed", rademacher_cfg("esd", n=20), ["--seed", "-1"]),
    ("replicates", rademacher_cfg("esd", n=20, replicates=0), []),
    ("replicates", rademacher_cfg("esd", n=20), ["--replicates", "0"]),
    # the kinds that sample nothing refuse a bad `--seed` too
    ("seed", {"kind": "walks", "max_k": 2}, ["--seed", "-1"]),
    ("seed", _hankel_cfg(), ["--seed", "-1"]),
    ("seed", {"kind": "charfn", "charfn": {"nuhat": 0.5}}, ["--seed", "-1"]),
    # charfn's open bounds: 0 < nuhat < sqrt(1/2), sigma2 > 0, step > 0
    ("charfn.nuhat", _charfn_cfg(nuhat=0.0), []),
    ("charfn.nuhat", _charfn_cfg(nuhat=math.sqrt(0.5)), []),
    ("charfn.nuhat", _charfn_cfg(nuhat=-0.5), []),
    ("charfn.sigma2", _charfn_cfg(sigma2=0.0), []),
    ("charfn.sigma2", _charfn_cfg(sigma2=-1.0), []),
    ("charfn.step", _charfn_cfg(step=0.0), []),
    ("charfn.step", _charfn_cfg(step=-0.01), []),
    # the joint rules name the section: |nuhat * sigma2 * t_max| = 60.5,
    # and 60 / 1e-5 = 6e6 grid points
    ("charfn", _charfn_cfg(sigma2=2.0, t_max=60.5), []),
    ("charfn", _charfn_cfg(step=1e-5), []),
    # a variance is refused by its own field on every source; the printed
    # bipartite formula took sigma2sq = -2 and wrote gamma_2 = -0.5
    ("hankel.sigma2sq", _hankel_cfg(source="bipartite_printed", nu1=0.5,
                                    sigma2sq=-2, k=2), []),
    ("hankel.sigma1sq", _hankel_cfg(m=3, sigma1sq=BELOW_1), []),
    ("hankel.sigma2sq", _hankel_cfg(m=3, sigma2sq=BELOW_1), []),
    ("hankel.sigma1sq", _hankel_cfg(source="walk_oracle", fractions=[1],
                                    sigma1sq=-1.0), []),
    # bipartite_printed's nu2 is 1 - nu1, so (0, 1) is nu1's own rule
    ("hankel.nu1", _hankel_cfg(source="bipartite_printed", nu1=0.0), []),
    ("hankel.nu1", _hankel_cfg(source="bipartite_printed", nu1=1.0), []),
    ("hankel.nu1", _hankel_cfg(source="bipartite_printed", nu1=-0.5), []),
    # a grid needs a point: t_max > 0, and t_max >= step joins two fields
    ("charfn.t_max", _charfn_cfg(t_max=-5.0), []),
    ("charfn.t_max", _charfn_cfg(t_max=0.0), []),
    ("charfn", _charfn_cfg(t_max=0.01), []),
    # proposition_printed's fractions each lie in (0, 1); 1.2 + 2 * -0.1 = 1
    # met the joint rule and wrote gamma_2 = -0.115.  The joint rule names
    # the section.
    ("hankel.nu1", _hankel_cfg(source="proposition_printed", m=3, nu1=1.2,
                               nu2=-0.1), []),
    ("hankel.nu1", _hankel_cfg(source="proposition_printed", m=3, nu1=0.0,
                               nu2=0.5), []),
    ("hankel.nu2", _hankel_cfg(source="proposition_printed", m=3, nu1=0.5,
                               nu2=-0.1), []),
    ("hankel.nu2", _hankel_cfg(source="proposition_printed", m=3, nu1=0.5,
                               nu2=1.0), []),
    ("hankel", _hankel_cfg(source="proposition_printed", m=3, nu1=0.5,
                           nu2=0.5), []),
    # an empty grid was solved and written as a header-only stieltjes.csv
    ("z_grid", rademacher_cfg("stieltjes", n=20, z_grid=[]), []),
]


def cli_exit(tmp_path, cfg, *flags):
    """Exit code of `rmtlab <kind>` run on cfg with the given flags."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli_main([cfg["kind"], "--config", str(path),
                     "--out", str(tmp_path / "out"), *flags])


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "nope"}, "/tmp/x")

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            run_experiment({}, "/tmp/x")

    def test_non_dict(self):
        with pytest.raises(ConfigError):
            run_experiment([], "/tmp/x")

    def test_missing_ensemble_field(self, tmp_path):
        cfg = rademacher_cfg("esd")
        del cfg["ensemble"]["n"]
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, tmp_path)
        assert exc.value.field == "ensemble.n"

    def test_wrong_type(self, tmp_path):
        cfg = rademacher_cfg("esd")
        cfg["ensemble"]["n"] = "thirty"
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_bad_fractions(self, tmp_path):
        cfg = rademacher_cfg("esd", fractions=(0.5, 0.4))
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, tmp_path)
        assert exc.value.field == "ensemble"

    def test_bad_replicates(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(rademacher_cfg("esd"), tmp_path, replicates=0)

    # each run below is into tmp_path / "out", so that a staging
    # directory left beside it would show in tmp_path

    def test_failed_run_leaves_no_outputs(self, tmp_path):
        cfg = rademacher_cfg("esd", bins=1)
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out")
        assert os.listdir(tmp_path) == []

    def test_numeric_failure_leaves_no_outputs(self, tmp_path, monkeypatch):
        # the KS distances run after both replicate spectra are computed
        def broken(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr("rmtlab.experiments.ks_distance", broken)
        with pytest.raises(NumericError):
            run_experiment(rademacher_cfg("esd"), tmp_path / "out",
                           replicates=2)
        assert os.listdir(tmp_path) == []

    def test_bug_propagates_and_leaves_no_outputs(self, tmp_path,
                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr("rmtlab.experiments.ks_distance", broken)
        with pytest.raises(TypeError, match="injected"):
            run_experiment(rademacher_cfg("esd"), tmp_path / "out",
                           replicates=2)
        assert os.listdir(tmp_path) == []

    def test_interrupt_during_write_leaves_no_outputs(self, tmp_path,
                                                      monkeypatch):
        # the second table is cut off mid-file by an interrupt, which is
        # not an Exception; the first table is complete by then.  out
        # exists empty, so the staging directory is made beside it
        out = tmp_path / "out"
        out.mkdir()
        write_csv = experiments._write_csv
        calls = []

        def interrupted(fh, header, rows):
            calls.append(header)
            if len(calls) == 2:
                fh.write("eigenvalue\n0.")
                raise KeyboardInterrupt
            write_csv(fh, header, rows)

        monkeypatch.setattr("rmtlab.experiments._write_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(rademacher_cfg("esd"), out, replicates=2)
        assert len(calls) == 2
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(out) == []

    def test_write_failure_removes_written_tables(self, tmp_path,
                                                  monkeypatch):
        # the three tables are written; then the report cannot open
        out = tmp_path / "out"
        out.mkdir()
        opened = []

        def report_fails(path, *args, **kwargs):
            opened.append(Path(path).name)
            if opened[-1] == "report.json":
                raise OSError("injected")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(experiments, "open", report_fails, raising=False)
        with pytest.raises(NumericError, match="injected"):
            run_experiment(rademacher_cfg("esd"), out, replicates=2)
        assert opened == ["eigenvalues_r0.csv", "eigenvalues_r1.csv",
                          "histogram.csv", "report.json"]
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(out) == []

    def test_failed_run_creates_no_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(rademacher_cfg("esd", bins=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_failed_write_removes_the_directories_it_created(
            self, tmp_path, monkeypatch):
        def full(fh, header, rows):
            raise OSError("no space left on device")

        monkeypatch.setattr("rmtlab.experiments._write_csv", full)
        with pytest.raises(NumericError, match="no space left"):
            run_experiment(rademacher_cfg("esd"), tmp_path / "new" / "out")
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["replicates", "bins", "ensemble.n",
                                       "reference_radius"])
    def test_bool_rejected_for_numbers(self, tmp_path, field):
        cfg = rademacher_cfg("esd")
        *path, last = field.split(".")
        target = cfg
        for p in path:
            target = target[p]
        target[last] = True
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, tmp_path)
        assert exc.value.field == field

    @pytest.mark.parametrize("item, cfg", BOOL_ITEMS,
                             ids=[item for item, _ in BOOL_ITEMS])
    def test_bool_rejected_in_list_items(self, tmp_path, capsys, item, cfg):
        assert cli_exit(tmp_path, cfg) == 2
        assert f"config error: {item}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, cfg", NON_FINITE,
                             ids=[f"{field}-{i}" for i, (field, _)
                                  in enumerate(NON_FINITE)])
    def test_non_finite_numbers_exit_two(self, tmp_path, capsys, field, cfg):
        assert cli_exit(tmp_path, cfg) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_law_parameter_exits_two(self, tmp_path, capsys):
        cfg = _law_cfg({"kind": "bernoulli", "params": {}})
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: ensemble.law_cross:" in capsys.readouterr().err

    @pytest.mark.parametrize("law", [
        {"kind": "bernoulli", "params": [0.5]},
        {"kind": "bernoulli", "params": {"p": None}},
        {"kind": "bernoulli", "params": {"p": [1]}},
        {"kind": "bernoulli", "params": {"p": True}},
        {"kind": "bernoulli", "params": {"p": "0.5"}},
    ], ids=["params_list", "null", "list", "bool", "string"])
    def test_law_parameter_not_a_number_exits_two(self, tmp_path, capsys,
                                                  law):
        assert cli_exit(tmp_path, _law_cfg(law)) == 2
        assert "config error: ensemble.law_cross:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, fractions", [(-5, (0.5, 0.5)), (0, (1.0,))],
                             ids=["negative", "zero"])
    def test_order_below_one_exits_two(self, tmp_path, capsys, n, fractions):
        cfg = rademacher_cfg("esd", n=n, fractions=fractions)
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: ensemble.n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, cfg, flags", OUT_OF_RANGE,
                             ids=[f"{field}-{i}" for i, (field, _, _)
                                  in enumerate(OUT_OF_RANGE)])
    def test_out_of_range_exits_two(self, tmp_path, capsys, field, cfg,
                                    flags):
        assert cli_exit(tmp_path, cfg, *flags) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# a child that runs esd with two replicates into argv[2] and SIGKILLs
# itself halfway through the second table
KILLED_IN_WRITE = """
import json, os, signal, sys
from rmtlab import experiments
write_csv = experiments._write_csv
calls = []

def killed(fh, header, rows):
    calls.append(header)
    if len(calls) == 2:
        fh.write("eigenvalue\\n0.")
        fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    write_csv(fh, header, rows)

experiments._write_csv = killed
experiments.run_experiment(json.loads(sys.argv[1]), sys.argv[2], replicates=2)
"""


def computed(*args):
    """Stands in for a runner, or a step of one, that must not be reached."""
    raise TypeError("the runner computed")


class TestPublish:
    """The output set appears at --out by one rename, or not at all."""

    def test_killed_run_leaves_no_partial_set(self, tmp_path):
        out = tmp_path / "out"
        src = str(Path(experiments.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", KILLED_IN_WRITE,
             json.dumps(rademacher_cfg("esd")), str(out)],
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert child.returncode == -signal.SIGKILL
        assert not out.exists()
        # only the hidden staging directory is left, beside out
        staging, = tmp_path.iterdir()
        assert staging.name.startswith(".out.")
        run_experiment(rademacher_cfg("esd"), out, replicates=2)
        assert sorted(p.name for p in out.iterdir()) == [
            "eigenvalues_r0.csv", "eigenvalues_r1.csv", "histogram.csv",
            "report.json"]

    def test_rerun_into_a_full_out_exits_two_before_computing(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = rademacher_cfg("esd", n=20)
        assert cli_exit(tmp_path, cfg, "--replicates", "3") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        monkeypatch.setattr(experiments, "_spectra", computed)
        assert cli_exit(tmp_path, cfg, "--replicates", "1") == 2
        assert "config error: out:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert len(before) == 5

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "out").write_text("kept")
        assert cli_exit(tmp_path, {"kind": "walks", "max_k": 2}) == 2
        assert "config error: out:" in capsys.readouterr().err
        assert (tmp_path / "out").read_text() == "kept"

    def test_published_directories_have_the_mode_of_mkdir(self, tmp_path):
        run_experiment({"kind": "walks", "max_k": 2}, tmp_path / "a" / "b")
        (tmp_path / "sibling").mkdir()
        mode = (tmp_path / "sibling").stat().st_mode
        assert (tmp_path / "a").stat().st_mode == mode
        assert (tmp_path / "a" / "b").stat().st_mode == mode
        assert sorted(os.listdir(tmp_path)) == ["a", "sibling"]

    def test_an_existing_out_keeps_its_mode(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        out.chmod(0o700)
        run_experiment({"kind": "walks", "max_k": 2}, out)
        assert out.stat().st_mode & 0o7777 == 0o700
        assert sorted(os.listdir(out)) == [
            "report.json", "shapes.csv", "walks.csv"]
        assert os.listdir(tmp_path) == ["out"]

    def test_mount_point_exits_two_before_computing(self, tmp_path, capsys,
                                                    monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        ismount = os.path.ismount
        monkeypatch.setattr(os.path, "ismount",
                            lambda p: Path(p) == out or ismount(p))
        monkeypatch.setitem(experiments._RUNNERS, "walks", computed)
        assert cli_exit(tmp_path, {"kind": "walks", "max_k": 2}) == 2
        assert "config error: out:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]
        assert os.listdir(out) == []

    def test_unwritable_parent_exits_two_before_computing(
            self, tmp_path, capsys, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(experiments.tempfile, "mkdtemp", denied)
        monkeypatch.setitem(experiments._RUNNERS, "walks", computed)
        assert cli_exit(tmp_path, {"kind": "walks", "max_k": 2}) == 2
        assert "config error: out: cannot stage beside" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_relative_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"max_k": 2}))
        assert cli_main(["walks", "--config", "cfg.json",
                         "--out", "rel/out"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "rel"]
        assert os.listdir(tmp_path / "rel") == ["out"]
        assert sorted(os.listdir(tmp_path / "rel" / "out")) == [
            "report.json", "shapes.csv", "walks.csv"]

    def test_of_two_runs_into_one_out_the_second_to_rename_fails(
            self, tmp_path, monkeypatch):
        # a second run publishes into out while the first is writing
        out = tmp_path / "out"
        write_csv = experiments._write_csv
        raced = []

        def racing(fh, header, rows):
            if not raced:
                raced.append(out)  # the second run's own writes pass
                raced.append(run_experiment({"kind": "walks", "max_k": 2},
                                            out))
            write_csv(fh, header, rows)

        monkeypatch.setattr(experiments, "_write_csv", racing)
        with pytest.raises(NumericError):
            run_experiment(rademacher_cfg("esd", n=20), out)
        assert raced[1]["kind"] == "walks"
        assert os.listdir(tmp_path) == ["out"]
        assert json.loads((out / "report.json").read_text())["kind"] == \
            "walks"


class TestWriteCsv:
    @staticmethod
    def written(header, rows) -> bytes:
        fh = io.StringIO(newline="")
        experiments._write_csv(fh, header, rows)
        return fh.getvalue().encode()

    def test_floats_by_repr_others_by_str(self):
        row = [0.1, 1e-05, 1e16, -0.0, math.nan, math.inf, True, 7, "a-b"]
        got = self.written(["x"], [row])
        assert got == b"x\r\n0.1,1e-05,1e+16,-0.0,nan,inf,True,7,a-b\r\n"
        assert got.decode() == "x\r\n" + ",".join(
            repr(c) if isinstance(c, float) else str(c) for c in row) + "\r\n"

    def test_an_ndarray_is_written_as_its_list(self):
        table = np.array([[0.1, -2.5e-300], [3.0, 1e16]])
        assert self.written(["a", "b"], table) == \
            self.written(["a", "b"], table.tolist())
        eigs = np.linspace(-1, 1, 7)[:, None]
        assert self.written(["eigenvalue"], eigs) == \
            self.written(["eigenvalue"], eigs.tolist())


class TestReferenceRadius:
    def spec(self, n, fractions, s_intra, s_cross):
        laws = {0: EntryLaw.constant_zero(), 1: EntryLaw.rademacher()}
        return EnsembleSpec(make_partition(n, fractions), laws[s_intra],
                            laws[s_cross], 0)

    def test_single_part(self):
        assert reference_radius(self.spec(4, [1.0], 1, 0)) == 1.0

    def test_vanishing_parts_use_cross(self):
        s = self.spec(50, [0.02] * 50, 0, 1)
        assert reference_radius(s) == 1.0

    def test_mixed(self):
        s = self.spec(10, [0.5, 0.5], 0, 1)
        assert reference_radius(s) == math.sqrt(0.5)

    @pytest.mark.parametrize("kind, fractions, law", [
        ("esd", [0.5, 0.5], "law_cross"), ("moments", [1.0], "law_intra")])
    def test_zero_variance_radius_exits_two(self, tmp_path, capsys, kind,
                                            fractions, law):
        cfg = rademacher_cfg(kind, n=20, fractions=fractions)
        cfg["ensemble"][law] = EntryLaw.constant_zero().to_dict()
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: ensemble:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, radius", list(itertools.product(
        ["esd", "moments", "stieltjes"], [2.5, 1e200, 0.0, -1.0])))
    def test_bad_override_exits_two(self, tmp_path, capsys, kind, radius):
        # the radius comes from the ensemble: a set one is refused, not
        # silently ignored, whatever its value
        cfg = rademacher_cfg(kind, n=20, reference_radius=radius)
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: reference_radius:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEsdRun:
    def test_outputs_and_report(self, tmp_path):
        cfg = rademacher_cfg("esd", n=60, bins=10)
        rep = run_experiment(cfg, tmp_path, replicates=2)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "histogram.csv").exists()
        assert (tmp_path / "eigenvalues_r0.csv").exists()
        assert (tmp_path / "eigenvalues_r1.csv").exists()
        assert len(rep["replicates"]) == 2
        assert 0.0 <= rep["aggregate"]["mean_ks"] <= 1.0
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["aggregate"] == rep["aggregate"]

    def test_deterministic_given_seed(self, tmp_path):
        cfg = rademacher_cfg("esd", n=40)
        r1 = run_experiment(cfg, tmp_path / "a", seed=3)
        r2 = run_experiment(cfg, tmp_path / "b", seed=3)
        r3 = run_experiment(cfg, tmp_path / "c", seed=4)
        assert r1["aggregate"] == r2["aggregate"]
        assert r1["aggregate"] != r3["aggregate"]
        a = (tmp_path / "a" / "eigenvalues_r0.csv").read_text()
        b = (tmp_path / "b" / "eigenvalues_r0.csv").read_text()
        assert a == b

    def test_ensemble_record_replays_the_spectra(self, tmp_path):
        # at n = 40 a solve is not split over BLAS threads, so the replayed
        # bits do not depend on the pool size
        run_experiment(rademacher_cfg("esd", n=40), tmp_path, seed=11,
                       replicates=3)
        report = json.loads((tmp_path / "report.json").read_text())
        spec = EnsembleSpec.from_dict(report["ensemble"])
        assert spec.seed == 11
        eigs = eigenvalues_sym(scale_matrix(sample_matrix(spec, 2)))
        replayed = io.StringIO(newline="")
        experiments._write_csv(replayed, ["eigenvalue"], eigs[:, None])
        assert replayed.getvalue().encode() == \
            (tmp_path / "eigenvalues_r2.csv").read_bytes()

    def test_histogram_csv_parses(self, tmp_path):
        # two replicates of n = 40: the histogram bins all 80 eigenvalues
        run_experiment(rademacher_cfg("esd", n=40, bins=8), tmp_path,
                       replicates=2)
        with open(tmp_path / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert sum(int(r["count"]) for r in rows) == 80
        for r in rows:
            width = float(r["bin_hi"]) - float(r["bin_lo"])
            assert width > 0
            assert float(r["density"]) == pytest.approx(
                int(r["count"]) / (80 * width), rel=1e-12)

    def test_histogram_covers_eigenvalues_beyond_the_radius(self, tmp_path):
        # 38 of these 400 eigenvalues lie beyond 1.05·R = 0.7535
        cfg = rademacher_cfg("esd", n=400, fractions=(0.9, 0.1))
        cfg["ensemble"]["law_cross"] = EntryLaw.uniform_interval(
            -0.3, 0.3).to_dict()
        cfg["ensemble"]["seed"] = 3
        rep = run_experiment(cfg, tmp_path)
        eigs = np.loadtxt(tmp_path / "eigenvalues_r0.csv", skiprows=1)
        assert np.sum(np.abs(eigs) > 1.05 * rep["reference_radius"]) == 38
        with open(tmp_path / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in rows) == 400
        mass = math.fsum(float(r["density"]) * (float(r["bin_hi"])
                                                - float(r["bin_lo"]))
                         for r in rows)
        assert abs(mass - 1.0) <= 1e-12

    def test_zero_intra_atom_is_exact(self, tmp_path):
        # spectrum +-sigma(B) plus n1 - n2 = 120 - 30 exact zeros, none -0.0
        run_experiment(zero_intra_cfg("esd"), tmp_path, replicates=3)
        for i in range(3):
            with open(tmp_path / f"eigenvalues_r{i}.csv") as fh:
                cells = [row[0] for row in csv.reader(fh)][1:]
            assert len(cells) == 150
            assert sum(float(c) == 0.0 for c in cells) == 90
            assert cells.count("0.0") == 90


# point masses at 0, each written as a different kind
ZERO_LAWS = [EntryLaw.constant_zero(), EntryLaw.bernoulli(0),
             EntryLaw.two_point(0, 0, Fraction(1, 2)),
             EntryLaw.two_point(3, 0, 0), EntryLaw.two_point(0, 3, 1)]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


class TestSpectraRoute:
    @pytest.mark.parametrize("fractions", [(0.7, 0.3), (0.3, 0.7)],
                             ids=["n1>n2", "n1<n2"])
    @pytest.mark.parametrize("law_intra", ZERO_LAWS, ids=lambda law: "_".join(
        [law.kind, *map(str, law.params)]))
    def test_zero_intra_law_samples_only_the_cross_block(
            self, monkeypatch, law_intra, fractions):
        spec = EnsembleSpec(make_partition(37, fractions), law_intra,
                            EntryLaw.uniform_interval(-1, 2), seed=5)
        n1 = spec.partition.sizes[0]
        want = [eigenvalues_bipartite(scale_matrix(sample_matrix(spec, r))
                                      [:n1, n1:]) for r in range(3)]
        monkeypatch.setattr(experiments, "_upper_fill",
                            _refuse("_upper_fill"))
        got = _spectra(spec, 3)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("sizes, law_intra", [
        ((25, 12), EntryLaw.rademacher()),
        ((12, 25), EntryLaw.bernoulli(Fraction(3, 10))),
        ((25, 12), EntryLaw.two_point(0, 3, Fraction(1, 2))),
        ((25, 12), EntryLaw.uniform_interval(-1, 1)),
        ((37,), EntryLaw.constant_zero()),
        ((20, 10, 7), EntryLaw.constant_zero())],
        ids=["rademacher", "bernoulli", "two_point", "uniform", "one_part",
             "three_parts"])
    def test_every_other_ensemble_is_solved_whole(self, monkeypatch, sizes,
                                                  law_intra):
        spec = EnsembleSpec(PartitionSpec(sum(sizes), sizes), law_intra,
                            EntryLaw.rademacher(), seed=6)
        want = [eigenvalues_sym(scale_matrix(sample_matrix(spec, r)))
                for r in range(3)]
        monkeypatch.setattr(experiments, "sample_cross_block",
                            _refuse("sample_cross_block"))
        got = _spectra(spec, 3)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_zero_sampled_blocks_of_a_random_law_are_solved_whole(self):
        # the intra law, not the sample, picks the route; the two routes
        # agree on such a matrix to the eigenvalues_bipartite tolerance
        spec = EnsembleSpec(PartitionSpec(9, (5, 4)),
                            EntryLaw.bernoulli(2.0**-60),
                            EntryLaw.rademacher(), seed=8)
        M = scale_matrix(sample_matrix(spec, 0))
        assert not M[:5, :5].any() and not M[5:, 5:].any()
        (got,) = _spectra(spec, 1)
        assert got.tobytes() == eigenvalues_sym(M).tobytes()
        assert np.max(np.abs(got - eigenvalues_bipartite(M[:5, 5:]))) <= \
            1e-13 * max(1.0, np.linalg.norm(M[:5, 5:], 2))


# small hosts: a few parts of 1..70 rows, strips cut inside and across them
HOSTS = st.lists(st.integers(1, 70), min_size=1, max_size=4).map(
    lambda sizes: PartitionSpec(sum(sizes), tuple(sizes)))
RUN_LAWS = [EntryLaw.constant_zero(), EntryLaw.rademacher(),
            EntryLaw.bernoulli(Fraction(3, 10)),
            EntryLaw.two_point(-1, 2, Fraction(2, 3)),
            EntryLaw.uniform_interval(-1, 1)]


class TestRunPathTriangle:
    """The run path samples, scales and solves the upper triangle alone;
    its spectra and energies are those of the mirrored public samples, bit
    for bit.  The reference goes through the replicate map too, so both
    solve on the same BLAS pool."""

    @settings(max_examples=40, deadline=None)
    @given(part=HOSTS, intra=st.sampled_from(RUN_LAWS),
           cross=st.sampled_from(RUN_LAWS), seed=st.integers(0, 2**64 - 1))
    def test_spectra(self, part, intra, cross, seed):
        spec = EnsembleSpec(part, intra, cross, seed)
        assume(not _cross_block_only(spec))  # no symmetric solve there
        got = _spectra(spec, 2)
        want = experiments._map_replicates(
            lambda r: eigenvalues_sym(scale_matrix(sample_matrix(spec, r))),
            2)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @settings(max_examples=40, deadline=None)
    @given(part=st.one_of(HOSTS, st.integers(1, 150).map(
               singleton_partition)),
           p=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**64 - 1))
    def test_energies(self, part, p, seed):
        spec = graph_spec(part, p, seed)
        assert _energies(spec, 2) == experiments._map_replicates(
            lambda r: graph_energy(sample_graph(spec, r)), 2)


class TestMomentsRun:
    def test_table(self, tmp_path):
        cfg = rademacher_cfg("moments", n=80, fractions=(1.0,), max_k=4)
        rep = run_experiment(cfg, tmp_path, replicates=3)
        rows = {r["k"]: r for r in rep["moments"]}
        assert rows[0]["empirical"] == pytest.approx(1.0)
        assert rows[0]["theoretical"] == 1.0
        assert rows[2]["theoretical"] == pytest.approx(0.25)
        assert rows[2]["abs_err"] <= 0.1
        with open(tmp_path / "moment_table.csv") as fh:
            disk = list(csv.DictReader(fh))
        assert len(disk) == 5
        assert float(disk[2]["theoretical"]) == pytest.approx(0.25)

    def test_ensemble_record_replays_the_moments(self, tmp_path):
        # zero intra blocks: the replay samples the cross block alone and
        # takes its moments from traces of Gram-matrix powers
        run_experiment(zero_intra_cfg("moments", n=40), tmp_path, seed=11,
                       replicates=3)
        report = json.loads((tmp_path / "report.json").read_text())
        spec = EnsembleSpec.from_dict(report["ensemble"])
        moments = [moments_bipartite(sample_cross_block(spec, i), 8)
                   for i in range(3)]
        assert [float(np.mean([m[k] for m in moments])) for k in range(9)] \
            == [row["empirical"] for row in report["moments"]]

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_two_part_moments_take_no_svd(self, monkeypatch, tmp_path,
                                          replicates):
        monkeypatch.setattr(spectral, "singular_values",
                            _refuse("singular_values"))
        monkeypatch.setattr(np.linalg, "svd", _refuse("np.linalg.svd"))
        rep = run_experiment(zero_intra_cfg("moments", n=60), tmp_path,
                             replicates=replicates)
        rows = rep["moments"]
        assert [r["empirical"] for r in rows[1::2]] == [0.0] * 4
        # tr(B B^T) = n1 * n2 / (4 n) for a +-1 block: M_2 = 2 n1 n2 / (4 n^2)
        assert rows[2]["empirical"] == pytest.approx(0.08, rel=1e-14)

    def test_two_part_moments_take_no_eigensolve(self, monkeypatch,
                                                 tmp_path):
        for name in ("eigenvalues_sym", "singular_values"):
            monkeypatch.setattr(spectral, name, _refuse(name))
        monkeypatch.setattr(np.linalg, "svd", _refuse("np.linalg.svd"))
        rep = run_experiment(zero_intra_cfg("moments", n=60), tmp_path,
                             replicates=2)
        assert rep["moments"][2]["empirical"] == pytest.approx(0.08,
                                                               rel=1e-14)

    def test_theoretical_moments_csv(self, tmp_path):
        cfg = rademacher_cfg("moments", n=40, fractions=(1.0,), max_k=2)
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "theoretical_moments.csv").read_text().splitlines()
        assert lines == ["k,gamma,provenance", "0,1.0,main_theorem",
                         "1,0.0,main_theorem", "2,0.25,main_theorem"]

    def test_bad_max_k(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(rademacher_cfg("moments", max_k=65), tmp_path)


class TestStieltjesRun:
    def test_default_grid(self, tmp_path):
        cfg = rademacher_cfg("stieltjes", n=100, fractions=(1.0,))
        rep = run_experiment(cfg, tmp_path, replicates=2)
        assert len(rep["grid"]) == 4
        for row in rep["grid"]:
            assert row["emp_im"] > 0 and row["theory_im"] > 0
            assert row["abs_err"] <= 0.2

    def test_rejects_lower_half_plane(self, tmp_path):
        cfg = rademacher_cfg("stieltjes", z_grid=[[0.0, -1.0]])
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)


class TestWalksRun:
    def test_identity_table(self, tmp_path):
        rep = run_experiment({"kind": "walks", "max_k": 8}, tmp_path)
        assert rep["all_identities_hold"]
        goods = [r["good"] for r in rep["table"]]
        assert goods == [1, 2, 5, 14]
        assert (tmp_path / "walks.csv").exists()
        assert (tmp_path / "shapes.csv").exists()

    def test_odd_max_k_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "walks", "max_k": 5}, tmp_path)

    @pytest.mark.parametrize("max_k", [2, 4, 6, 8, 10])
    def test_tables_match_enumeration_and_count(self, tmp_path, max_k):
        walks, shapes = ["k,v,shapes,good,catalan,identity_holds"], \
            ["k,v,shape"]
        for k in range(2, max_k + 1, 2):
            v = k // 2 + 1
            listed = enumerate_shapes(k, v).tolist()
            g = sum(map(is_good_zero_mean, listed))
            walks.append(f"{k},{v},{len(listed)},{g},{catalan(k // 2)},"
                         f"{g == catalan(k // 2)}")
            shapes += [f"{k},{v}," + "-".join(map(str, s)) for s in listed]
        run_experiment({"kind": "walks", "max_k": max_k}, tmp_path)
        for name, lines in (("walks.csv", walks), ("shapes.csv", shapes)):
            want = "".join(line + "\r\n" for line in lines).encode()
            assert (tmp_path / name).read_bytes() == want

    def test_one_enumeration_per_length(self, tmp_path, monkeypatch):
        calls = []

        def counting(k, v):
            calls.append((k, v))
            return enumerate_shapes(k, v)

        monkeypatch.setattr("rmtlab.experiments.enumerate_shapes", counting)
        monkeypatch.setattr("rmtlab.walks.enumerate_shapes", counting)
        run_experiment({"kind": "walks", "max_k": 10}, tmp_path)
        assert calls == [(k, k // 2 + 1) for k in (2, 4, 6, 8, 10)]


class TestHankelRun:
    def test_main_source_psd(self, tmp_path):
        cfg = {"kind": "hankel",
               "hankel": {"source": "main", "m": 2, "k": 3}}
        rep = run_experiment(cfg, tmp_path)
        assert rep["psd"]
        assert all(d > 0 for d in rep["determinants"])

    def test_proposition_printed_fails_psd(self, tmp_path):
        cfg = {"kind": "hankel",
               "hankel": {"source": "proposition_printed", "m": 3,
                          "nu1": 0.8, "nu2": 0.1, "k": 3}}
        rep = run_experiment(cfg, tmp_path)
        assert rep["determinants"][3] < 0
        assert not rep["psd"]

    def test_unknown_source(self, tmp_path):
        # one part is walk_oracle on fractions [1]; `uniform` is no source
        for source in ("wat", "uniform"):
            cfg = {"kind": "hankel", "hankel": {"source": source}}
            with pytest.raises(ConfigError):
                run_experiment(cfg, tmp_path)

    def test_main_and_uniform_are_semicircle_moments(self, tmp_path):
        # equal parts, and one part: walk_oracle on the uniform fractions [1]
        for hankel, radius in (
                ({"source": "main", "m": 3, "sigma1sq": 0.3,
                  "sigma2sq": 1.7}, math.sqrt((0.3 + 2 * 1.7) / 3)),
                ({"source": "walk_oracle", "fractions": [1], "sigma1sq": 1.7,
                  "sigma2sq": 1.7}, math.sqrt(1.7))):
            rep = run_experiment({"kind": "hankel",
                                  "hankel": {**hankel, "k": 5}},
                                 tmp_path / hankel["source"])
            assert rep["psd"]
            for k, g in enumerate(rep["gammas"]):
                assert g == pytest.approx(semicircle_moment(k, radius),
                                          rel=1e-14, abs=0)

    def test_m_below_two_exits_two(self, tmp_path):
        cfg = {"kind": "hankel", "hankel": {"source": "main", "m": 1}}
        assert cli_exit(tmp_path, cfg) == 2

    def test_printed_constraint_exits_two(self, tmp_path, capsys):
        cfg = {"kind": "hankel",
               "hankel": {"source": "proposition_printed", "m": 2,
                          "nu1": 0.5, "nu2": 0.5, "k": 3}}
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: hankel.m: must be at least 3" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("fractions", [[0.5, 0.7], [1.5, -0.5], []])
    def test_bad_fractions_exit_two(self, tmp_path, fractions):
        cfg = {"kind": "hankel",
               "hankel": {"source": "walk_oracle", "fractions": fractions}}
        assert cli_exit(tmp_path, cfg) == 2

    @pytest.mark.parametrize("field", ["sigma1sq", "sigma2sq"])
    def test_negative_variance_exits_two(self, tmp_path, field):
        cfg = {"kind": "hankel",
               "hankel": {"source": "main", "m": 3, field: -5.0, "k": 3}}
        assert cli_exit(tmp_path, cfg) == 2

    @pytest.mark.parametrize("field", ["sigma1sq", "sigma2sq"])
    def test_zero_variance_runs(self, tmp_path, field):
        cfg = {"kind": "hankel",
               "hankel": {"source": "main", "m": 3, field: 0.0, "k": 3}}
        assert cli_exit(tmp_path, cfg) == 0

    def test_seven_part_walk_oracle_runs(self, tmp_path):
        cfg = {"kind": "hankel",
               "hankel": {"source": "walk_oracle", "fractions": [1 / 7] * 7,
                          "sigma1sq": 0.25, "k": 5}}
        assert cli_exit(tmp_path, cfg) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["psd"] and len(rep["gammas"]) == 11


class TestCharfnRun:
    def test_witness_found(self, tmp_path):
        nuhat = math.sqrt(0.3)
        cfg = {"kind": "charfn", "charfn": {"nuhat": nuhat}}
        rep = run_experiment(cfg, tmp_path)
        t = rep["witness"]
        assert t is not None and 0 < t <= 60.0
        from rmtlab.laws import pseudo_char
        assert pseudo_char(t, nuhat, 1.0) < -1.0
        with open(tmp_path / "charfn.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and float(rows[0]["t"]) > 0

    def test_one_step_grid_has_one_point(self, tmp_path):
        rep = run_experiment(_charfn_cfg(t_max=0.05), tmp_path)
        with open(tmp_path / "charfn.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == [0.05]
        assert rep["witness"] is None

    def test_missing_nuhat(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "charfn", "charfn": {}}, tmp_path)

    def test_witness_matches_scan(self, tmp_path):
        nuhat = math.sqrt(0.3)
        cfg = {"kind": "charfn", "charfn": {"nuhat": nuhat, "step": 0.01}}
        rep = run_experiment(cfg, tmp_path)
        scan = pseudo_char_grid(nuhat, 1.0, 60.0, 0.01)
        assert rep["witness"] == next(t for t, val in scan if val < -1.0) \
            == 6.259999999999911
        with open(tmp_path / "charfn.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["pseudo_char"]) < -1e6
        assert float(rows[-1]["t"]) > rep["witness"]

    @pytest.mark.parametrize("charfn", [{"step": 0.0}, {"sigma2": 0.0},
                                        {"nuhat": 0.8}, {"t_max": 1e6},
                                        {"step": 1e-300}])
    def test_law_rejections_are_config_errors(self, tmp_path, charfn):
        cfg = {"kind": "charfn", "charfn": {"nuhat": 0.5, **charfn}}
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg, tmp_path)
        # the bound of one field names it; t_max = 1e6 breaks |nuhat *
        # sigma2 * t_max| <= 60 and step = 1e-300 the grid cap, rules that
        # join fields and name the section
        (key, val), = charfn.items()
        joint = key == "t_max" or val == 1e-300
        assert exc.value.field == ("charfn" if joint else f"charfn.{key}")

    def test_bug_is_not_relabelled(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr("rmtlab.laws.pseudo_char", broken)
        with pytest.raises(NumericError):
            run_experiment({"kind": "charfn", "charfn": {"nuhat": 0.5}},
                           tmp_path)


class TestEnergyRun:
    def test_gnp(self, tmp_path):
        cfg = {"kind": "energy", "graph": {"n": 120, "p": 0.5, "seed": 1}}
        rep = run_experiment(cfg, tmp_path, replicates=2)
        agg = rep["aggregate"]
        assert agg["mean_energy"] == pytest.approx(agg["prediction"], rel=0.15)
        with open(tmp_path / "energy.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert abs(float(rows[0]["rel_dev"])) <= 0.2

    def test_degenerate_p(self, tmp_path):
        cfg = {"kind": "energy", "graph": {"n": 50, "p": 1.0}}
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_one_part_fractions_exit_two(self, tmp_path, capsys):
        cfg = {"kind": "energy",
               "graph": {"n": 20, "p": 0.5, "fractions": [1.0]}}
        assert cli_exit(tmp_path, cfg) == 2
        assert "graph.fractions" in capsys.readouterr().err

    def test_unequal_parts_exit_two(self, tmp_path, capsys):
        # the leading term c = (m-1)/m holds for equal parts only
        cfg = {"kind": "energy",
               "graph": {"n": 20, "p": 0.5, "fractions": [0.8, 0.2]}}
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: graph.fractions:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def replay(self, tmp_path, graph, m, c):
        """Check energy.csv against energies replayed from the run's record
        and the leading term n^(3/2) (8/(3 pi)) sqrt(c p (1-p))."""
        cfg = {"kind": "energy", "graph": {"n": 40, "p": 0.3, **graph}}
        run_experiment(cfg, tmp_path, seed=11, replicates=3)
        report = json.loads((tmp_path / "report.json").read_text())
        spec = EnsembleSpec.from_dict(report["ensemble"])
        assert spec.seed == 11 and spec.law_intra == EntryLaw.constant_zero()
        assert spec.law_cross == EntryLaw.bernoulli(0.3)
        n = 40
        prediction = n**1.5 * (8.0 / (3.0 * math.pi)) \
            * math.sqrt(c * 0.3 * (1.0 - 0.3))
        rows = []
        for i in range(3):
            e = graph_energy(sample_graph(spec, i))
            rows.append([n, 0.3, m, i, e, e / n**1.5, prediction,
                         (e - prediction) / prediction])
        replayed = io.StringIO(newline="")
        experiments._write_csv(replayed, ["n", "p", "m", "replicate",
                                          "energy", "normalized",
                                          "prediction", "rel_dev"], rows)
        assert replayed.getvalue().encode() == \
            (tmp_path / "energy.csv").read_bytes()

    def test_ensemble_record_replays_the_energies(self, tmp_path):
        # a graph record replays through sample_graph, whose stream has no
        # diagonal entries; at n = 40 a solve is not split over BLAS threads
        self.replay(tmp_path, {}, m=40, c=1.0)

    def test_balanced_record_replays_the_energies(self, tmp_path):
        # four balanced parts: c = (m-1)/m = 3/4
        self.replay(tmp_path, {"fractions": [0.25] * 4}, m=4, c=3 / 4)


class TestDecompositionRun:
    def test_holds(self, tmp_path):
        cfg = {"kind": "decomposition",
               "graph": {"n": 40, "p": 0.5, "fractions": [0.6, 0.2, 0.2],
                         "large_parts": [0], "seed": 2}}
        rep = run_experiment(cfg, tmp_path, replicates=2)
        assert rep["all_hold"]
        assert rep["bounds"]["lower"] < rep["bounds"]["upper"]

    def test_needs_fractions(self, tmp_path):
        cfg = {"kind": "decomposition",
               "graph": {"n": 40, "p": 0.5, "large_parts": [0]}}
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_ensemble_record_replays_energy_a(self, tmp_path):
        cfg = _decomposition_cfg([0.6, 0.2, 0.2], [0, 1])
        run_experiment(cfg, tmp_path, seed=11, replicates=3)
        report = json.loads((tmp_path / "report.json").read_text())
        spec = EnsembleSpec.from_dict(report["ensemble"])
        assert [graph_energy(sample_graph(spec, i)) for i in range(3)] == \
            [r["energy_A"] for r in report["replicates"]]

    def test_kyfan_margins(self, tmp_path):
        cfg = _decomposition_cfg([0.6, 0.2, 0.2], [0, 1, 2])
        report = run_experiment(cfg, tmp_path, seed=5, replicates=3)
        for rec in report["replicates"]:
            verdicts = [rec["kyfan_upper"], rec["kyfan_lower"]]
            assert rec["holds"] == (rec["block_diagonal"]
                                    and all(v["holds"] for v in verdicts))
            for v in verdicts:
                assert set(v) == {"lhs", "rhs", "holds"}
                if v["holds"]:
                    assert v["lhs"] - v["rhs"] >= \
                        -1e-9 * max(v["lhs"], v["rhs"], 1.0)
            # E(A) + E(D) >= E(X) and E(X) + E(D) >= E(A)
            assert verdicts[0]["lhs"] == rec["energy_A"] + rec["energy_D"]
            assert verdicts[1]["rhs"] == rec["energy_A"]
        assert report["all_hold"]


def _decomposition_cfg(fractions, large_parts):
    return {"kind": "decomposition",
            "graph": {"n": 40, "p": 0.5, "fractions": fractions,
                      "large_parts": large_parts}}


class TestGraphConfigErrors:
    @pytest.mark.parametrize("cfg, field", [
        (_decomposition_cfg([0.5, 0.5], [7]), "graph.large_parts"),
        (_decomposition_cfg([0.5, 0.5], [-1]), "graph.large_parts"),
        (_decomposition_cfg([0.5, 0.5], []), "graph.large_parts"),
        (_decomposition_cfg([0.6, 0.2, 0.2], [0, 0]), "graph.large_parts"),
        ({"kind": "energy", "graph": {"n": 40, "p": 0.5, "seed": -1}},
         "graph.seed"),
        ({"kind": "energy", "graph": {"n": 40, "p": 0.5, "seed": 2**64}},
         "graph.seed"),
        ({"kind": "energy", "graph": {"n": -5, "p": 0.5}}, "graph.n"),
        ({"kind": "energy", "graph": {"n": 40, "p": 1.5}}, "graph.p"),
        ({"kind": "decomposition",
          "graph": {"n": 40, "p": -0.1, "fractions": [0.5, 0.5],
                    "large_parts": [0]}}, "graph.p"),
        ({"kind": "energy",
          "graph": {"n": 0, "p": 0.5, "fractions": [0.5, 0.5]}}, "graph.n"),
        ({"kind": "decomposition",
          "graph": {"n": -3, "p": 0.5, "fractions": [0.5, 0.5],
                    "large_parts": [0]}}, "graph.n"),
    ], ids=["index_past_end", "negative_index", "none_large",
            "repeated_index", "negative_seed", "seed_past_64_bits",
            "negative_n", "p_above_one", "negative_p", "zero_n_with_fractions",
            "negative_n_with_fractions"])
    def test_exits_two(self, tmp_path, capsys, cfg, field):
        assert cli_exit(tmp_path, cfg) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "energy",
                                    "graph": {"n": 40, "p": 0.5}}))
        assert cli_main(["energy", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--seed", "-3"]) == 2
        assert "config error: seed:" in capsys.readouterr().err


def _outputs(out):
    """report.json without its host record and timing, and every CSV."""
    report = json.loads((out / "report.json").read_text())
    del report["wall_clock_s"], report["env"]
    return report, {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}


needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's OpenBLAS is not reachable")


@pytest.fixture
def replicate_threads(monkeypatch):
    """Run replicate maps on a thread pool of a given size: a callable that
    swaps `experiments._HELPERS` for a pool of `threads` threads."""
    pools = []

    def use(threads):
        pools.append(ThreadPoolExecutor(threads))
        monkeypatch.setattr(experiments, "_HELPERS", pools[-1])
        monkeypatch.setattr(experiments, "_HELPER_THREADS", threads)

    yield use
    for pool in pools:
        pool.shutdown(wait=True)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS pool resized to two threads for the test, then
    restored, so that maps run threaded on a host of one thread too."""
    found = blas_threads()
    if found is None:
        pytest.skip("numpy's OpenBLAS is not reachable")
    _set_blas_threads(2)
    yield
    _set_blas_threads(found)


class TestThreads:
    def test_multithreaded_matches_serial(self, tmp_path, replicate_threads,
                                          two_blas_threads):
        # one replicate thread maps serially on the BLAS pool as found; at
        # n = 40 a solve is not split over BLAS threads, so it must match
        # a map over several replicate threads bit for bit
        cfg = rademacher_cfg("esd", n=40)
        replicate_threads(1)
        serial = run_experiment(cfg, tmp_path / "s", seed=1, replicates=4)
        replicate_threads(4)
        threaded = run_experiment(cfg, tmp_path / "t", seed=1, replicates=4)
        assert serial["env"]["replicate_workers"] == 1
        assert threaded["env"]["replicate_workers"] == 4
        assert serial["replicates"] == threaded["replicates"]
        assert _outputs(tmp_path / "s") == _outputs(tmp_path / "t")

    # n = 150: from about this order OpenBLAS splits a solve over its
    # threads, and a solve on more than one BLAS thread moves the last bits
    @pytest.mark.parametrize("cfg", [
        rademacher_cfg("esd", n=150),
        {"kind": "energy", "graph": {"n": 150, "p": 0.3, "seed": 4}},
        {"kind": "decomposition",
         "graph": {"n": 150, "p": 0.5, "fractions": [0.6, 0.2, 0.2],
                   "large_parts": [0, 2], "seed": 5}},
        pytest.param(zero_intra_cfg("moments"), id="moments_zero_intra"),
        # from the cut a one-thread solve is dsyevd_2stage
        pytest.param(rademacher_cfg("esd", n=spectral._TWO_STAGE_FROM_N),
                     id="esd_at_the_two_stage_cut"),
    ], ids=lambda cfg: cfg["kind"])
    def test_outputs_do_not_depend_on_thread_count(self, tmp_path, cfg,
                                                   replicate_threads,
                                                   two_blas_threads):
        # two or more replicate threads: every replicate solves on a
        # one-thread BLAS pool, whichever thread takes it
        outputs = []
        for threads in (2, 3, 4):
            replicate_threads(threads)
            out = tmp_path / str(threads)
            rep = run_experiment(cfg, out, replicates=5)
            assert rep["env"]["replicate_workers"] == threads
            outputs.append(_outputs(out))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    GRAPH_CFGS = [{"kind": "energy",
                   "graph": {"n": 40, "p": 0.5, "seed": 3}},
                  {"kind": "decomposition",
                   "graph": {"n": 40, "p": 0.5, "fractions": [0.6, 0.2, 0.2],
                             "large_parts": [0], "seed": 3}}]

    def test_one_replicate_and_the_fallback_start_no_thread(self, tmp_path,
                                                            monkeypatch):
        def refuse(*args):
            raise AssertionError("a thread was started or used")

        monkeypatch.setattr("threading.Thread.start", refuse)
        monkeypatch.setattr(experiments._HELPERS, "submit", refuse)
        cfgs = [rademacher_cfg("esd", n=40)] + self.GRAPH_CFGS
        for cfg in cfgs:
            rep = run_experiment(cfg, tmp_path / "one" / cfg["kind"])
            assert rep["env"]["replicate_workers"] == 1
        # without the OpenBLAS binding the map is serial and eigvalsh solves
        monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        for cfg in cfgs:
            rep = run_experiment(cfg, tmp_path / "fallback" / cfg["kind"],
                                 replicates=4)
            assert rep["replicate_count"] == 4
            assert rep["env"]["blas_threads"] is None
            assert rep["env"]["replicate_workers"] == 1

    @needs_openblas
    @pytest.mark.parametrize("failing, raised", [
        ({3: np.linalg.LinAlgError, 1: SpectralError, 2: KeyError},
         NumericError),
        ({4: ZeroDivisionError, 2: KeyError}, KeyError),
        ({0: OSError}, NumericError)])
    def test_map_restores_the_blas_pool_and_raises_the_first_failure(
            self, tmp_path, monkeypatch, failing, raised):
        pool = blas_threads()
        seen = []

        def sample(spec, i):
            seen.append(blas_threads())
            if i in failing:
                raise failing[i](f"replicate {i}")
            return _upper_fill(spec, i)

        monkeypatch.setattr(experiments, "_upper_fill", sample)
        with pytest.raises(raised) as info:
            run_experiment(rademacher_cfg("esd", n=40), tmp_path / "out",
                           replicates=6)
        first = min(failing)
        cause = info.value.__cause__ if raised is NumericError else info.value
        assert type(cause) is failing[first]
        assert f"replicate {first}" in str(cause)
        assert set(seen) == {1}  # every replicate ran on a one-thread pool
        assert blas_threads() == pool
        assert not (tmp_path / "out").exists()

    def test_every_replicate_runs_once_in_its_slot(self, monkeypatch):
        # more workers than cores, switching threads as often as possible:
        # a queue item lost or taken twice would run an index never or
        # twice, and a result in the wrong slot would break the order
        pins, ran, threads = [], [], set()
        monkeypatch.setattr(experiments, "blas_threads", lambda: 8)
        monkeypatch.setattr(experiments, "_set_blas_threads", pins.append)
        helpers = ThreadPoolExecutor(8)
        monkeypatch.setattr(experiments, "_HELPERS", helpers)
        monkeypatch.setattr(experiments, "_HELPER_THREADS", 8)

        def fn(i):
            ran.append(i)
            threads.add(threading.current_thread())
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = experiments._map_replicates(fn, 400)
        finally:
            sys.setswitchinterval(interval)
            helpers.shutdown(wait=True)
        assert got == [-i for i in range(400)]
        assert sorted(ran) == list(range(400))
        assert pins == [1, 8]
        assert len(threads) <= 8

    def test_replicate_workers_counts_the_threads_that_ran(
            self, tmp_path, monkeypatch, replicate_threads, two_blas_threads):
        # four replicate threads on a two-thread BLAS pool: the map runs on
        # all four, since the pool it queues on is not the BLAS pool
        replicate_threads(4)
        ran = set()
        all_in_flight = threading.Barrier(4, timeout=30)

        def sample(spec, i):
            ran.add(threading.current_thread())
            all_in_flight.wait()
            return _upper_fill(spec, i)

        monkeypatch.setattr(experiments, "_upper_fill", sample)
        rep = run_experiment(rademacher_cfg("esd", n=40), tmp_path,
                             replicates=8)
        assert rep["env"]["replicate_workers"] == len(ran) == 4

    @pytest.mark.parametrize("first, second, raised", [
        (SpectralError, KeyError, NumericError),
        (KeyError, SpectralError, KeyError)])
    def test_lowest_index_wins_among_concurrent_failures(
            self, tmp_path, monkeypatch, replicate_threads, two_blas_threads,
            first, second, raised):
        replicate_threads(2)
        both_started = threading.Barrier(2, timeout=30)

        def sample(spec, i):
            both_started.wait()  # replicates 0 and 1 are both in flight
            raise (first, second)[i](f"replicate {i}")

        monkeypatch.setattr(experiments, "_upper_fill", sample)
        with pytest.raises(raised) as info:
            run_experiment(rademacher_cfg("esd", n=40), tmp_path / "out",
                           replicates=2)
        cause = info.value.__cause__ if raised is NumericError else info.value
        assert type(cause) is first and "replicate 0" in str(cause)

    def test_no_replicate_starts_after_a_failure(self, replicate_threads,
                                                 two_blas_threads):
        # replicate 0 fails while replicate 1 runs; the later replicates
        # are queued by then and must not call fn, and replicate 1 must
        # keep its one-thread pool until it ends
        replicate_threads(2)
        called, pools_seen = [], []
        one_started, zero_raised = threading.Event(), threading.Event()

        def fn(i):
            called.append(i)
            if i == 0:
                assert one_started.wait(30)
                zero_raised.set()
                raise KeyError("replicate 0")
            if i == 1:
                one_started.set()
                assert zero_raised.wait(30)
                for _ in range(100):  # runs on after the failure
                    pools_seen.append(blas_threads())
                    time.sleep(0.001)
            return i

        with pytest.raises(KeyError, match="replicate 0"):
            experiments._map_replicates(fn, 24)
        assert 0 in called and 1 in called
        assert len(called) <= 2
        assert pools_seen == [1] * 100  # replicate 1 ended before the map
        assert blas_threads() == 2

    def test_an_interrupted_caller_starts_no_queued_replicate(
            self, monkeypatch, replicate_threads, two_blas_threads):
        # the caller's wait is interrupted while the first replicates run:
        # they finish on one BLAS thread, and no queued replicate starts
        replicate_threads(2)
        real_wait = experiments.wait
        release, interrupted = threading.Event(), []
        started, pools_seen = [], []

        def interrupted_wait(futures):
            if not interrupted:
                interrupted.append(True)
                raise KeyboardInterrupt
            release.set()  # the caller now drains the queue
            return real_wait(futures)

        def fn(i):
            started.append(i)
            assert release.wait(30)
            pools_seen.append(blas_threads())
            return i

        monkeypatch.setattr(experiments, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            experiments._map_replicates(fn, 24)
        assert len(started) <= 2
        assert pools_seen == [1] * len(started)
        assert blas_threads() == 2

    @pytest.mark.parametrize("cfg", [
        rademacher_cfg("esd", n=300),
        pytest.param(zero_intra_cfg("moments", n=300), id="moments"),
        pytest.param(rademacher_cfg("moments", n=300, fractions=(0.8, 0.2)),
                     id="moments_full_solve"),
        pytest.param(zero_intra_cfg("esd", n=300), id="esd_zero_intra"),
        {"kind": "energy", "graph": {"n": 300, "p": 0.3, "seed": 4}},
        {"kind": "decomposition",
         "graph": {"n": 300, "p": 0.5, "fractions": [0.6, 0.2, 0.2],
                   "large_parts": [0, 2], "seed": 5}},
    ], ids=lambda cfg: cfg["kind"])
    def test_caller_only_map_matches_the_full_pool(self, tmp_path, cfg,
                                                   replicate_threads,
                                                   two_blas_threads):
        # a serial map on a one-thread BLAS pool, then a map over two
        # replicate threads from a two-thread pool
        replicate_threads(2)
        outputs = []
        for size in (1, 2):
            _set_blas_threads(size)
            rep = run_experiment(cfg, tmp_path / str(size), replicates=3)
            assert rep["env"]["blas_threads"] == size
            assert rep["env"]["replicate_workers"] == size
            outputs.append(_outputs(tmp_path / str(size)))
        assert outputs[1] == outputs[0]


class TestCLI:
    def write_cfg(self, tmp_path, cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"kind": "walks", "max_k": 4})
        code = cli_main(["walks", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert line["kind"] == "walks"
        assert (tmp_path / "out" / "report.json").exists()

    def test_kind_mismatch_exit_two(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {"kind": "walks"})
        code = cli_main(["esd", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_kind_filled_from_argv(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"max_k": 4})
        assert cli_main(["walks", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0

    def test_bad_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["walks", "--config", missing,
                         "--out", str(tmp_path / "out")]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli_main(["walks", "--config", str(broken),
                         "--out", str(tmp_path / "out")]) == 2

    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        # json.load refuses integers of more than 4,300 digits with a plain
        # ValueError
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "charfn", "charfn": {"nuhat": 0.5, '
                        '"t_max": ' + "1" * 5000 + '}}')
        assert cli_main(["charfn", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"config error: cannot read {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_two(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"kind": "walks", "max_k": 99})
        assert cli_main(["walks", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2

    def test_seed_and_replicate_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path, rademacher_cfg("esd", n=30))
        out = tmp_path / "out"
        assert cli_main(["esd", "--config", cfg, "--out", str(out),
                         "--seed", "9", "--replicates", "2"]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["seed"] == 9 and rep["replicate_count"] == 2

    @pytest.mark.parametrize("error", [FloatingPointError, SpectralError])
    def test_numeric_failure_exit_three(self, tmp_path, capsys, monkeypatch,
                                        error):
        def broken(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(experiments, "eigenvalues_sym", broken)
        cfg = self.write_cfg(tmp_path, rademacher_cfg("esd"))
        out = tmp_path / "out"
        assert cli_main(["esd", "--config", cfg, "--out", str(out),
                         "--replicates", "2"]) == 3
        assert "numeric failure: esd experiment failed: injected" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_bug_propagates_out_of_main(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(experiments, "eigenvalues_sym", broken)
        cfg = self.write_cfg(tmp_path, rademacher_cfg("esd"))
        out = tmp_path / "out"
        with pytest.raises(TypeError, match="injected"):
            cli_main(["esd", "--config", cfg, "--out", str(out),
                      "--replicates", "2"])
        assert not out.exists()

    def test_unknown_kind_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bogus", "--config", "x", "--out", "y"])


@pytest.mark.parametrize("replicates", [1, 2, 5])
def test_env_names_the_pool_that_computed_the_bits(tmp_path, replicates):
    pool = blas_threads()
    rep = run_experiment(rademacher_cfg("esd", n=20), tmp_path,
                         replicates=replicates)
    assert rep["env"] == {
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ["name"],
        "blas_threads": pool, "cpu_count": os.cpu_count(),
        "replicate_workers": 1 if pool is None or pool < 2
        else min(replicates, experiments._HELPER_THREADS),
        "two_stage_from_n": None if pool is None
        else spectral._TWO_STAGE_FROM_N}
    assert json.loads((tmp_path / "report.json").read_text())["env"] == \
        rep["env"]


def test_env_has_no_two_stage_cut_without_the_driver(tmp_path, monkeypatch):
    # without the binding there is no pool size and no in-place solve
    monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
    rep = run_experiment(rademacher_cfg("esd", n=20), tmp_path)
    assert rep["env"]["blas_threads"] is None
    assert rep["env"]["two_stage_from_n"] is None
    assert json.loads((tmp_path / "report.json").read_text())["env"][
        "two_stage_from_n"] is None


def test_all_kinds_registered():
    assert set(KINDS) == {"esd", "moments", "stieltjes", "walks", "hankel",
                          "charfn", "energy", "decomposition"}
