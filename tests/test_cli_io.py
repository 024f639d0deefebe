import json
import shutil
import subprocess

import numpy as np
import pytest

from gqsbnet import (
    MissingDataset,
    ParseError,
    ScenarioConfig,
    SignedGraph,
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
    trajectory_to_csv,
)
from gqsbnet.cli import main
from gqsbnet.fileio import format_float, render_json

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
                     "--gammas", "1.5,3", "--dt", "0.01", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        for name, gamma in (("report_gamma_1p5.json", 1.5),
                            ("report_gamma_3.json", 3.0)):
            doc = json.loads((out / name).read_text())
            assert doc["certificate"]["gamma"] == gamma
            assert doc["outcome"]["kind"] == "AsymmetricPolarization"

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

    def test_console_script_installed(self, allneg_file):
        exe = shutil.which("gqsbnet")
        assert exe is not None
        proc = subprocess.run([exe, "classify", "--network", allneg_file],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "GQSB"
