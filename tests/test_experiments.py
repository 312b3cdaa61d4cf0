import csv
import json
import math

import numpy as np
import pytest

from rmtlab.cli import main as cli_main
from rmtlab.ensemble import EnsembleSpec, EntryLaw, make_partition
from rmtlab.experiments import (KINDS, ConfigError, NumericError, histogram,
                                reference_radius, run_experiment)
from rmtlab.laws import (catalan, find_negativity_witness, mixing_radius,
                         semicircle_moment)
from rmtlab.walks import enumerate_shapes, good_shape_count


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


# a non-finite number (JSON NaN / Infinity) in a numeric field, and the
# field the error must name
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
]


def cli_exit(tmp_path, cfg):
    """Exit code of `rmtlab <kind>` run on cfg."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli_main([cfg["kind"], "--config", str(path),
                     "--out", str(tmp_path / "out")])


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

    def test_failed_run_leaves_no_outputs(self, tmp_path):
        cfg = rademacher_cfg("esd", bins=1)
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_numeric_failure_leaves_no_outputs(self, tmp_path, monkeypatch):
        # the histogram runs after both replicate spectra are computed
        def broken(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr("rmtlab.experiments.histogram", broken)
        with pytest.raises(NumericError):
            run_experiment(rademacher_cfg("esd"), tmp_path, replicates=2)
        assert list(tmp_path.iterdir()) == []

    def test_bug_propagates_and_leaves_no_outputs(self, tmp_path,
                                                 monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr("rmtlab.experiments.histogram", broken)
        with pytest.raises(TypeError, match="injected"):
            run_experiment(rademacher_cfg("esd"), tmp_path, replicates=2)
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_removes_written_tables(self, tmp_path):
        (tmp_path / "report.json").mkdir()  # the last write cannot open
        with pytest.raises(NumericError):
            run_experiment(rademacher_cfg("esd"), tmp_path, replicates=2)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_run_creates_no_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(rademacher_cfg("esd", bins=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()

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


class TestReferenceRadius:
    def spec(self, n, fractions, s_intra, s_cross):
        laws = {0: EntryLaw.constant_zero(), 1: EntryLaw.rademacher()}
        return EnsembleSpec(make_partition(n, fractions), laws[s_intra],
                            laws[s_cross], 0)

    def test_override_wins(self):
        assert reference_radius(self.spec(4, [1.0], 1, 1), 2.5) == 2.5

    def test_single_part(self):
        assert reference_radius(self.spec(4, [1.0], 1, 0)) == 1.0

    def test_vanishing_parts_use_cross(self):
        s = self.spec(50, [0.02] * 50, 0, 1)
        assert reference_radius(s) == 1.0

    def test_mixed(self):
        s = self.spec(10, [0.5, 0.5], 0, 1)
        assert reference_radius(s) == pytest.approx(mixing_radius(2, 0.0, 1.0))

    @pytest.mark.parametrize("kind, fractions, law", [
        ("esd", [0.5, 0.5], "law_cross"), ("moments", [1.0], "law_intra")])
    def test_zero_variance_radius_exits_two(self, tmp_path, capsys, kind,
                                            fractions, law):
        cfg = rademacher_cfg(kind, n=20, fractions=fractions)
        cfg["ensemble"][law] = EntryLaw.constant_zero().to_dict()
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: ensemble:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, radius", [("stieltjes", 0.0),
                                              ("esd", -1.0)])
    def test_bad_override_exits_two(self, tmp_path, capsys, kind, radius):
        cfg = rademacher_cfg(kind, n=20, reference_radius=radius)
        assert cli_exit(tmp_path, cfg) == 2
        assert "config error: reference_radius:" in capsys.readouterr().err


class TestHistogram:
    def test_counts_and_density(self):
        eigs = np.array([0.1, 0.2, 0.3, 0.9])
        edges, counts, density = histogram(eigs, 2, (0.0, 1.0))
        assert list(counts) == [3, 1]
        assert density[0] == pytest.approx(3 / (4 * 0.5))
        assert np.allclose(edges, [0.0, 0.5, 1.0])

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        eigs = rng.normal(size=500)
        edges, counts, density = histogram(eigs, 25)
        width = edges[1] - edges[0]
        assert float(np.sum(density) * width) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram(np.array([]), 4)
        with pytest.raises(ValueError):
            histogram(np.array([1.0]), 1)


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

    def test_histogram_csv_parses(self, tmp_path):
        run_experiment(rademacher_cfg("esd", n=40, bins=8), tmp_path)
        with open(tmp_path / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert sum(int(r["count"]) for r in rows) <= 40
        for r in rows:
            assert float(r["bin_lo"]) < float(r["bin_hi"])

    def test_zero_intra_atom_is_exact(self, tmp_path):
        # spectrum +-sigma(B) plus n1 - n2 = 120 - 30 exact zeros, none -0.0
        run_experiment(zero_intra_cfg("esd"), tmp_path, replicates=3)
        for i in range(3):
            with open(tmp_path / f"eigenvalues_r{i}.csv") as fh:
                cells = [row[0] for row in csv.reader(fh)][1:]
            assert len(cells) == 150
            assert sum(float(c) == 0.0 for c in cells) == 90
            assert cells.count("0.0") == 90


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
            listed = enumerate_shapes(k, v)
            g = good_shape_count(k, v)
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
        cfg = {"kind": "hankel", "hankel": {"source": "wat"}}
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_main_and_uniform_are_semicircle_moments(self, tmp_path):
        for hankel, radius in (
                ({"source": "main", "m": 3, "sigma1sq": 0.3,
                  "sigma2sq": 1.7}, mixing_radius(3, 0.3, 1.7)),
                ({"source": "uniform", "sigma2sq": 1.7}, math.sqrt(1.7))):
            rep = run_experiment({"kind": "hankel",
                                  "hankel": {**hankel, "k": 5}}, tmp_path)
            assert rep["psd"]
            for k, g in enumerate(rep["gammas"]):
                assert g == pytest.approx(semicircle_moment(k, radius),
                                          rel=1e-14, abs=0)

    def test_m_below_two_exits_two(self, tmp_path):
        cfg = {"kind": "hankel", "hankel": {"source": "main", "m": 1}}
        assert cli_exit(tmp_path, cfg) == 2

    def test_printed_constraint_exits_two(self, tmp_path):
        cfg = {"kind": "hankel",
               "hankel": {"source": "proposition_printed", "m": 2,
                          "nu1": 0.5, "nu2": 0.5, "k": 3}}
        assert cli_exit(tmp_path, cfg) == 2

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

    def test_missing_nuhat(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "charfn", "charfn": {}}, tmp_path)

    def test_witness_matches_scan(self, tmp_path):
        nuhat = math.sqrt(0.3)
        cfg = {"kind": "charfn", "charfn": {"nuhat": nuhat, "step": 0.01}}
        rep = run_experiment(cfg, tmp_path)
        assert rep["witness"] == find_negativity_witness(nuhat, 1.0, 60.0,
                                                         0.01)
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
        assert exc.value.field == "charfn"

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
    ], ids=["index_past_end", "negative_index", "none_large",
            "repeated_index", "negative_seed", "seed_past_64_bits"])
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
        assert "config error: graph.seed" in capsys.readouterr().err


class TestThreads:
    def test_multithreaded_matches_serial(self, tmp_path, monkeypatch):
        cfg = rademacher_cfg("esd", n=40)
        serial = run_experiment(cfg, tmp_path / "s", seed=1, replicates=4)
        monkeypatch.setenv("RMTLAB_THREADS", "4")
        threaded = run_experiment(cfg, tmp_path / "t", seed=1, replicates=4)
        assert serial["replicates"] == threaded["replicates"]

    # n = 150: from about this order OpenBLAS splits a solve over its
    # threads, and a solve on fewer BLAS threads moves the last bits
    @pytest.mark.parametrize("cfg", [
        rademacher_cfg("esd", n=150),
        rademacher_cfg("moments", n=150, fractions=(0.8, 0.2)),
        {"kind": "energy", "graph": {"n": 150, "p": 0.3, "seed": 4}},
        {"kind": "decomposition",
         "graph": {"n": 150, "p": 0.5, "fractions": [0.6, 0.2, 0.2],
                   "large_parts": [0, 2], "seed": 5}},
        pytest.param(zero_intra_cfg("moments"), id="moments_zero_intra"),
        pytest.param(zero_intra_cfg("esd"), id="esd_zero_intra"),
    ], ids=lambda cfg: cfg["kind"])
    def test_outputs_do_not_depend_on_thread_count(self, tmp_path,
                                                   monkeypatch, cfg):
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RMTLAB_THREADS", threads)
            out = tmp_path / threads
            run_experiment(cfg, out, replicates=5)
            report = json.loads((out / "report.json").read_text())
            del report["wall_clock_s"]
            csvs = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
            outputs.append((report, csvs))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_run_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr("threading.Thread.start", refuse)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("RMTLAB_THREADS", "4")
        for cfg in [rademacher_cfg("esd", n=40),
                    {"kind": "energy",
                     "graph": {"n": 40, "p": 0.5, "seed": 3}},
                    {"kind": "decomposition",
                     "graph": {"n": 40, "p": 0.5,
                               "fractions": [0.6, 0.2, 0.2],
                               "large_parts": [0], "seed": 3}}]:
            rep = run_experiment(cfg, tmp_path / cfg["kind"], replicates=4)
            assert rep["replicate_count"] == 4

    def test_garbage_env_value_is_serial(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RMTLAB_THREADS", "lots")
        rep = run_experiment(rademacher_cfg("esd", n=20), tmp_path)
        assert rep["replicate_count"] == 1


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

    def test_unknown_kind_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bogus", "--config", "x", "--out", "y"])


def test_all_kinds_registered():
    assert set(KINDS) == {"esd", "moments", "stieltjes", "walks", "hankel",
                          "charfn", "energy", "decomposition"}
