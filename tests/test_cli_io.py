import functools
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gqsbnet
import gqsbnet.cli
from gqsbnet import (
    MissingDataset,
    ParseError,
    ScenarioConfig,
    SignedGraph,
    Termination,
    Trajectory,
    Verdict,
    bipartition_from_dominant,
    certify,
    dump_network,
    highland_path,
    integrate,
    generalized_laplacian,
    load_highland,
    load_network,
    load_state_file,
    loads_network,
    positive_components,
    predict_final,
    report_to_json,
    run_pipeline,
    signed_graph,
    trajectory_to_csv,
)
from gqsbnet.cli import main
from gqsbnet.fileio import enumerate_dict, format_float, render_json
from support import random_bloc_graph

ALLNEG = "3 3\n0 1 -1\n0 2 -3\n1 2 -3\n"
UNSTABLE = "3 3\n0 1 -5\n0 2 -1\n1 2 -1\n"


@pytest.fixture
def allneg_file(tmp_path):
    path = tmp_path / "allneg.txt"
    path.write_text(ALLNEG)
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.txt"
    path.write_text(UNSTABLE)
    return str(path)


def _declared_console_script(name):
    """Target of the console script ``name``: from the installed metadata
    when the gqsbnet distribution is installed, else from the source tree's
    pyproject.toml."""
    try:
        importlib.metadata.distribution("gqsbnet")
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")  # no TOML reader before 3.11
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["scripts"].get(name)
    found = importlib.metadata.entry_points(group="console_scripts").select(name=name)
    return next((ep.value for ep in found), None)


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# alliance data\n\n3 1   # header\n0 2 -1.5\n"
        g = loads_network(text)
        assert g.n == 3
        assert g.edges == ((0, 2, -1.5),)

    def test_round_trip_exact(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, 1 / 3), (1, 3, -0.1), (2, 3, 7.0)])
        assert loads_network(dump_network(g)) == g

    @pytest.mark.parametrize(
        "text,line,needle",
        [
            ("3\n", 1, "header"),
            ("a b\n", 1, "two integers"),
            ("3 1\n0 1\n", 2, "'i j w'"),
            ("3 1\n0 x 1\n", 2, "two integers and a real"),
            ("3 1\n1 1 2\n", 2, "self-loop"),
            ("3 1\n0 5 2\n", 2, "outside"),
            ("3 1\n0 1 0\n", 2, "zero weight"),
            ("3 2\n0 1 2\n1 0 -1\n", 3, "twice"),
            ("3 1\n0 1 nan\n", 2, "non-finite"),
            ("3 1\n0 1 inf\n", 2, "non-finite"),
            ("3 1\n0 1 -inf\n", 2, "non-finite"),
        ],
    )
    def test_bad_lines(self, text, line, needle):
        with pytest.raises(ParseError) as err:
            loads_network(text, name="net.txt")
        assert err.value.line == line
        assert needle in str(err.value)
        assert "net.txt" in str(err.value)

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError) as err:
            loads_network("3 2\n0 1 1\n")
        assert "promised 2" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            loads_network("# nothing\n")

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_network(tmp_path / "nope.txt")

    def test_state_file(self, tmp_path):
        path = tmp_path / "x0.txt"
        path.write_text("0.5, -1.0\n0.25")
        assert np.array_equal(load_state_file(path, 3), [0.5, -1.0, 0.25])
        with pytest.raises(ParseError):
            load_state_file(path, 4)
        path.write_text("0.5 huh")
        with pytest.raises(ParseError):
            load_state_file(path, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_state_file_non_finite(self, tmp_path, value):
        path = tmp_path / "x0.txt"
        path.write_text(f"0.5 {value} 0.25")
        with pytest.raises(ParseError, match="entry 2 is not finite") as info:
            load_state_file(path, 3)
        assert info.value.path == str(path)
        assert str(path) in str(info.value)


class TestBundledDataset:
    def test_shape_and_signs(self):
        raw = load_network(highland_path())
        assert raw.n == 16
        assert raw.m == 58
        assert all(w in (1.0, -1.0) for _, _, w in raw.edges)
        assert sum(1 for _, _, w in raw.edges if w > 0) == 29

    def test_three_blocs(self):
        raw = load_network(highland_path())
        comps = positive_components(raw)
        assert len(comps) == 3
        assert frozenset({0, 1, 14, 15}) in comps

    def test_relabeled_weights(self):
        config = ScenarioConfig("highland", (0,), weights=(10.0, -1.0, -10.0))
        g = load_highland(config)
        counts = {}
        for _, _, w in g.edges:
            counts[w] = counts.get(w, 0) + 1
        assert counts == {10.0: 29, -1.0: 10, -10.0: 19}

    def test_weight_signs_enforced(self):
        config = ScenarioConfig("highland", (0,), weights=(-10.0, -1.0, 10.0))
        with pytest.raises(ValueError):
            load_highland(config)

    def test_data_dir_override(self, tmp_path, monkeypatch):
        shutil.copy(highland_path(), tmp_path / "highland_tribes.txt")
        monkeypatch.setenv("GQSB_DATA_DIR", str(tmp_path))
        assert highland_path() == tmp_path / "highland_tribes.txt"

    def test_data_dir_override_missing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GQSB_DATA_DIR", str(tmp_path / "void"))
        with pytest.raises(MissingDataset):
            highland_path()


class TestPipeline:
    def test_worked_triangle_report(self, allneg_file, tmp_path):
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0 0\n")
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, x0_path=str(x0),
                                dt=0.01)
        report = run_pipeline(config)
        assert report.classification == "GQSB"
        assert report.p == 3
        assert report.bipartition_count == 3
        assert report.bipartition.v1 == frozenset({0, 1})
        assert report.certificate.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert report.outcome.kind.value == "AsymmetricPolarization"
        assert report.outcome.ratio == pytest.approx(-2.0, abs=1e-6)
        assert np.allclose(report.trajectory.states[-1], [1 / 3, 1 / 3, -1 / 6],
                           atol=1e-6)
        prov = report.provenance
        assert prov["network"] == allneg_file
        assert prov["weights"] is None
        assert prov["seed"] is None
        assert prov["x0_path"] == str(x0)
        assert len(prov["network_sha256"]) == 64

    def test_seeded_start_recorded(self, allneg_file):
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=42)
        report = run_pipeline(config)
        expect = np.random.default_rng(42).uniform(-1.0, 1.0, 3)
        assert np.array_equal(report.x0, expect)
        assert report.provenance["seed"] == 42

    def test_divergent_scenario_skips_simulation(self, unstable_file):
        config = ScenarioConfig(unstable_file, (0, 1), gamma=2.0)
        report = run_pipeline(config)
        assert report.certificate.verdict is Verdict.DIVERGENCE
        assert report.trajectory is None
        assert report.outcome is None
        assert '"outcome": null' in report_to_json(report)

    def test_byte_determinism(self, allneg_file):
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=7)
        first = report_to_json(run_pipeline(config))
        second = report_to_json(run_pipeline(config))
        assert first == second

    def test_report_fields_replay(self, allneg_file):
        # every derived field must be re-obtainable from the library calls
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=3)
        report = run_pipeline(config)
        g = load_network(allneg_file)
        b = bipartition_from_dominant(g, (0, 1))
        cert = certify(g, b, 2.0)
        assert report.certificate.spectrum == cert.spectrum
        assert report.certificate.verdict is cert.verdict
        assert np.array_equal(report.certificate.resistance, cert.resistance)
        bundle = generalized_laplacian(g, b, 2.0)
        traj = integrate(bundle, report.x0, dt=0.01)
        assert np.array_equal(report.trajectory.states[-1], traj.states[-1])

    def test_highland_scenario(self):
        config = ScenarioConfig("highland", (0,), gamma=2.0, dt=0.002, seed=0)
        report = run_pipeline(config)
        assert report.classification == "GQSB"
        assert report.p == 3
        assert report.certificate.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert report.outcome.kind.value == "AsymmetricPolarization"
        assert report.outcome.ratio == pytest.approx(-2.0, abs=1e-6)
        assert report.provenance["network"] == "bundled:highland_tribes.txt"
        assert report.provenance["weights"] == [10.0, -1.0, -10.0]


class TestSerialization:
    def test_format_float(self):
        assert format_float(0.1) == "0.1"
        assert format_float(2.0) == "2"
        assert format_float(-0.0) == "0"
        assert format_float(1 / 3) == "0.333333333333333"
        assert format_float(1e-17) == "1e-17"
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                format_float(bad)

    def test_render_json_layout(self):
        doc = {
            "b": [1.0, 2.5],
            "a": {"inner": None, "flag": True},
            "rows": [[1, 2], [3, 4]],
            "text": 'say "hi"\\',
        }
        out = render_json(doc)
        parsed = json.loads(out)
        assert parsed["text"] == 'say "hi"\\'
        assert list(parsed.keys()) == ["b", "a", "rows", "text"]
        assert '"b": [1, 2.5]' in out

    def test_render_json_numpy_scalars(self):
        out = render_json({"x": np.float64(0.5), "k": np.int64(3), "f": np.bool_(False)})
        assert json.loads(out) == {"x": 0.5, "k": 3, "f": False}

    def test_render_json_float_rows_in_bulk(self):
        values = [-0.0, 5e-324, 0.1, 1e-5, 1e16, 1 / 3, -2.5e-300, 123456789012345678.0]
        mixed = [np.float64(v) if k % 2 else v for k, v in enumerate(values)]
        for row in (values, mixed, tuple(mixed), list(np.array(values, dtype=np.float32))):
            expected = "[" + ", ".join(format_float(float(v)) for v in row) + "]"
            assert render_json(row) == expected
        assert render_json(values) == "[0, 4.94065645841247e-324, 0.1, 1e-05, 1e+16, " \
            "0.333333333333333, -2.5e-300, 1.23456789012346e+17]"

    def test_render_json_mixed_rows_unchanged(self):
        assert render_json([1, True, 2.5, np.int64(3), np.bool_(False), -0.0]) == \
            "[1, true, 2.5, 3, false, 0]"
        assert render_json([2.5, None, "a"]) == '[2.5, null, "a"]'
        assert render_json([[0.5, -0.0], [1, 2]]) == "[\n  [0.5, 0],\n  [1, 2]\n]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_render_json_float_rows_reject_non_finite(self, bad):
        for row in ([0.5, bad], [np.float64(0.5), np.float64(bad)], [1, bad]):
            with pytest.raises(ValueError):
                render_json({"x": row})

    def test_render_json_rejects_unknown(self):
        with pytest.raises(TypeError):
            render_json({"x": object()})

    def test_trajectory_csv(self, allneg_file):
        g = load_network(allneg_file)
        b = bipartition_from_dominant(g, (0, 1))
        bundle = generalized_laplacian(g, b, 2.0)
        traj = integrate(bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.1,
                         stop_tol=0.0, record_every=1)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x0,x1,x2"
        assert len(lines) == 12
        assert lines[1].startswith("0,")
        thinned = trajectory_to_csv(traj, stride=5).strip().split("\n")
        assert len(thinned) == 4
        assert thinned[-1] == lines[-1]
        with pytest.raises(ValueError):
            trajectory_to_csv(traj, stride=0)

    def test_trajectory_csv_matches_per_value_format(self):
        rng = np.random.default_rng(23)
        times = np.arange(9) * 0.125
        states = rng.standard_normal((9, 4))
        states[1] = [-0.0, 5e-324, 1e16, -1e16]
        states[2] = [0.1, -5e-324, 1 / 3, 123456789012345678.0]
        traj = Trajectory(times, states, Termination.CONVERGED)
        for stride in (1, 2, 3, 8, 9, 20):
            rows = [k for k in range(9) if k % stride == 0 or k == 8]
            expect = "t,x0,x1,x2,x3\n" + "".join(
                format_float(float(times[k])) + ","
                + ",".join(format_float(float(v)) for v in states[k]) + "\n"
                for k in rows)
            assert trajectory_to_csv(traj, stride) == expect
        assert "\n0.125,0,4.94065645841247e-324,1e+16,-1e+16\n" in trajectory_to_csv(traj)
        for bad in (np.nan, np.inf):
            broken = states.copy()
            broken[4, 2] = bad
            with pytest.raises(ValueError):
                trajectory_to_csv(Trajectory(times, broken, Termination.CONVERGED))


class TestCli:
    def test_classify(self, allneg_file, capsys):
        assert main(["classify", "--network", allneg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"classification": "GQSB", "p": 3, "bipartition_count": 3}

    def test_bipartitions(self, allneg_file, capsys):
        assert main(["bipartitions", "--network", allneg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["bipartitions"]) == 3
        assert doc["bipartitions"][0] == {"v1": [0], "v2": [1, 2]}

    def test_bipartitions_cap(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("25 0\n")
        assert main(["bipartitions", "--network", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_spectrum_plain(self, allneg_file, capsys):
        assert main(["spectrum", "--network", allneg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"repelling", "opposing"}

    def test_spectrum_scaled(self, allneg_file, capsys):
        code = main(["spectrum", "--network", allneg_file,
                     "--dominant", "0,1", "--gamma", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["scaled"], [0.0, 1.0, 9.0], atol=1e-9)

    def test_certify_polarizing(self, allneg_file, capsys):
        code = main(["certify", "--network", allneg_file, "--dominant", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert doc["decided_by"] == "resistance_pd"
        assert "resistance" not in doc
        code = main(["certify", "--network", allneg_file, "--dominant", "0,1",
                     "--detail", "full"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert np.allclose(doc["resistance"], [[2.0]], atol=1e-9)

    def test_certify_divergent_exit_two(self, unstable_file, capsys):
        code = main(["certify", "--network", unstable_file, "--dominant", "0,1"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "Divergence"

    def test_low_gamma_note_on_stderr(self, allneg_file, capsys):
        main(["certify", "--network", allneg_file, "--dominant", "0,1",
              "--gamma", "0.5"])
        assert "note:" in capsys.readouterr().err

    def test_missing_network_exit_one(self, tmp_path, capsys):
        code = main(["classify", "--network", str(tmp_path / "ghost.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exit_one(self, tmp_path, capsys, weight):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 2\n0 1 -1\n1 2 {weight}\n")
        assert main(["classify", "--network", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_start_state_exit_one(self, allneg_file, tmp_path, capsys, value):
        x0 = tmp_path / "x0.txt"
        x0.write_text(f"1 0 {value}\n")
        for command in ("report", "simulate", "predict"):
            code = main([command, "--network", allneg_file, "--dominant", "0,1",
                         "--x0", str(x0)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"{x0}: entry 3 is not finite" in err

    @pytest.mark.parametrize("tmax", ["inf", "1e300", "nan", "0", "-5"])
    def test_bad_horizon_exit_one(self, allneg_file, tmp_path, capsys, tmax):
        out = tmp_path / "out"
        for command in ("report", "simulate"):
            code = main([command, "--network", allneg_file, "--dominant", "0,1",
                         f"--tmax={tmax}", "--out", str(out)])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err
            assert not out.exists()

    def test_usage_errors_exit_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["certify", "--network"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_simulate_writes_files(self, allneg_file, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--network", allneg_file, "--dominant", "0,1",
                     "--gamma", "2", "--dt", "0.01", "--out", str(out)])
        assert code == 0
        csv = (out / "trajectory.csv").read_text()
        assert csv.startswith("t,x0,x1,x2\n")
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["kind"] == "AsymmetricPolarization"
        assert outcome["ratio"] == pytest.approx(-2.0, abs=1e-6)

    def test_simulate_divergent_exit_two(self, unstable_file, tmp_path):
        code = main(["simulate", "--network", unstable_file, "--dominant", "0,1",
                     "--out", str(tmp_path / "d")])
        assert code == 2
        outcome = json.loads((tmp_path / "d" / "outcome.json").read_text())
        assert outcome["kind"] == "Divergence"

    def test_predict_matches_library(self, allneg_file, tmp_path, capsys):
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0 0\n")
        code = main(["predict", "--network", allneg_file, "--dominant", "0,1",
                     "--gamma", "2", "--x0", str(x0)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        g = load_network(allneg_file)
        bundle = generalized_laplacian(g, bipartition_from_dominant(g, (0, 1)), 2.0)
        assert np.allclose(doc["x_final"], predict_final(bundle, [1.0, 0.0, 0.0]),
                           atol=1e-12)

    def test_report_files_match_pipeline(self, allneg_file, tmp_path):
        out = tmp_path / "rep"
        code = main(["report", "--network", allneg_file, "--dominant", "0,1",
                     "--gamma", "2", "--dt", "0.01", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=5)
        expect = report_to_json(run_pipeline(config))
        assert (out / "report.json").read_text() == expect
        assert (out / "trajectory.csv").exists()

    def test_report_divergent_writes_no_trajectory(self, unstable_file, tmp_path):
        out = tmp_path / "rep"
        code = main(["report", "--network", unstable_file, "--dominant", "0,1",
                     "--out", str(out)])
        assert code == 2
        assert (out / "report.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_sweep(self, allneg_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", "1.5,3", "--dt", "0.01", "--out", str(out)])
        assert code == 0
        for name, gamma in (("report_gamma_1p5.json", 1.5),
                            ("report_gamma_3.json", 3.0)):
            doc = json.loads((out / name).read_text())
            assert doc["certificate"]["gamma"] == gamma
            assert doc["outcome"]["kind"] == "AsymmetricPolarization"

    @pytest.mark.parametrize("network, dominant, extra", [
        ("allneg", "0,1", ["--dt", "0.01"]),
        ("allneg", "0,1", []),
        ("unstable", "0,1", []),
        ("highland", "0", ["--dt", "0.002", "--seed", "3"]),
    ])
    def test_sweep_reports_match_report(self, allneg_file, unstable_file, tmp_path,
                                        network, dominant, extra):
        path = {"allneg": allneg_file, "unstable": unstable_file}.get(network, network)
        gammas = ["1.5", "2", "0.75", "3.25"]
        for detail in ([], ["--detail", "full"]):
            out = tmp_path / f"sweep{len(detail)}"
            code = main(["sweep", "--network", path, "--dominant", dominant,
                         "--gammas", ",".join(gammas), "--out", str(out), *extra, *detail])
            assert code == 0
            assert len(list(out.iterdir())) == len(gammas)
            for gamma in gammas:
                single = tmp_path / f"report{gamma}-{len(detail)}"
                main(["report", "--network", path, "--dominant", dominant, "--gamma", gamma,
                      "--out", str(single), *extra, *detail])
                tag = format(float(gamma), "g").replace(".", "p")
                sweep_bytes = (out / f"report_gamma_{tag}.json").read_bytes()
                assert sweep_bytes == (single / "report.json").read_bytes()
                doc = json.loads(sweep_bytes)
                assert ("schema" in doc["certificate"]) == (not detail)

    def test_sweep_bad_gamma_writes_nothing(self, allneg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", "1.5,-1", "--dt", "0.01", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["2.0000001,2", "1.5,3,1.5", "2,2.0"])
    def test_sweep_colliding_names_write_nothing(self, allneg_file, tmp_path, capsys,
                                                 monkeypatch, gammas):
        def refuse(*args, **kwargs):
            raise AssertionError("a coefficient was computed")

        monkeypatch.setattr(gqsbnet.cli, "run_sweep", refuse)
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", gammas, "--dt", "0.01", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "report_gamma_" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["bipartitions"],
        ["report", "--dominant", "0,1", "--dt", "0.01"],
        ["sweep", "--dominant", "0,1", "--gammas", "1.5,2,3", "--dt", "0.01"],
    ])
    @pytest.mark.parametrize("network", ["file", "highland"])
    def test_one_cooperative_pass_per_graph(self, allneg_file, tmp_path, monkeypatch,
                                            argv, network):
        if network == "highland":
            if "--dominant" in argv:
                argv = [a if a != "0,1" else "0" for a in argv]
            path = "highland"
        else:
            path = allneg_file
        found = SignedGraph.__dict__["cooperative_labels"]
        passes = []
        joins = []

        def counted(g):
            passes.append(g)
            return found.func(g)

        def joined(*args):
            joins.append(args)
            return join(*args)

        wrapped = functools.cached_property(counted)
        wrapped.__set_name__(SignedGraph, "cooperative_labels")
        monkeypatch.setattr(SignedGraph, "cooperative_labels", wrapped)
        join = signed_graph._joined
        monkeypatch.setattr(signed_graph, "_joined", joined)
        code = main([argv[0], "--network", path, *argv[1:], "--out", str(tmp_path / "o")])
        assert code == 0
        # highland builds the raw file's graph and its relabelled copy
        graphs = 2 if network == "highland" else 1
        assert len(passes) == graphs
        assert len({id(g) for g in passes}) == len(passes)
        if argv[0] in ("classify", "bipartitions"):
            # nothing else on these paths joins nodes
            assert len(joins) == graphs

    def test_classify_matches_enumeration(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        for blocs in (1, 2, 2, 3, 5):
            g, _ = random_bloc_graph(rng, 9, blocs)
            path = tmp_path / "g.txt"
            path.write_text(dump_network(g))
            assert main(["classify", "--network", str(path)]) == 0
            listed = enumerate_dict(g)
            del listed["bipartitions"]
            assert capsys.readouterr().out == render_json(listed) + "\n"

    def test_weights_flag(self, capsys):
        code = main(["certify", "--network", "highland", "--dominant", "0",
                     "--weights", "5,-1,-5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "AsymmetricPolarization"

    def test_weights_flag_validated(self, capsys):
        code = main(["certify", "--network", "highland", "--dominant", "0",
                     "--weights", "1,2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_data_dir_override_applies(self, allneg_file, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(highland_path(), data / "highland_tribes.txt")
        monkeypatch.setenv("GQSB_DATA_DIR", str(data))
        assert main(["classify", "--network", "highland"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 3

    def test_console_script_installed(self, allneg_file, tmp_path):
        target = _declared_console_script("gqsbnet")
        assert target == "gqsbnet.cli:entry"
        # Make the child import the gqsbnet under test, ahead of any other copy.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(gqsbnet.__file__).parents[1]), env.get("PYTHONPATH")]))
        # Start the target the way a setuptools console-script wrapper does,
        # after reporting on stderr which gqsbnet the child imported.
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"entry = EntryPoint('gqsbnet', {target!r}, 'console_scripts').load()\n"
            "print(sys.modules['gqsbnet'].__file__, file=sys.stderr)\n"
            "sys.argv[0] = 'gqsbnet'\n"
            "sys.exit(entry())\n"
        )
        exe = shutil.which("gqsbnet")
        good = ["classify", "--network", allneg_file]
        bad = ["classify", "--network", str(tmp_path / "ghost.txt")]
        for args, status in ((good, 0), (bad, 1)):
            proc = subprocess.run([sys.executable, "-c", wrapper, *args], env=env,
                                  cwd=tmp_path, capture_output=True)
            origin, _, err = proc.stderr.decode().partition("\n")
            assert Path(origin).resolve() == Path(gqsbnet.__file__).resolve(), err
            assert proc.returncode == status, err
            if status == 0:
                assert json.loads(proc.stdout)["classification"] == "GQSB"
            else:
                assert "error:" in err
            if exe is not None:
                installed = subprocess.run([exe, *args], env=env, cwd=tmp_path,
                                           capture_output=True)
                assert installed.returncode == proc.returncode
                assert installed.stdout == proc.stdout

