import argparse
import functools
import gc
import hashlib
import importlib
import importlib.metadata
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import gqsbnet
import gqsbnet.cli
from gqsbnet import (
    BadState,
    BadStep,
    MissingDataset,
    ParseError,
    ScenarioConfig,
    SignedGraph,
    Termination,
    TooLarge,
    Trajectory,
    Verdict,
    bipartition_from_dominant,
    certify,
    dump_network,
    enumerate_gqsb_bipartitions,
    highland_path,
    integrate,
    generalized_laplacian,
    load_highland,
    load_network,
    load_state_file,
    loads_network,
    partner_core,
    partner_laplacian,
    positive_components,
    predict_final,
    repelling_laplacian,
    report_to_json,
    run_pipeline,
    signed_graph,
    sym_eigen,
    sym_eigvals,
    trajectory_to_csv,
)
from gqsbnet import fileio
from gqsbnet.cli import main
from gqsbnet.operators import _partner
from gqsbnet.fileio import (DETAILS, certificate_dict, enumerate_dict, format_float, render_json,
                            start_state)
from support import (
    core_calls,
    counting_linalg,
    random_bloc_graph,
    reference_block_integrate,
    tie_endpoints,
)

ALLNEG = "3 3\n0 1 -1\n0 2 -3\n1 2 -3\n"
UNSTABLE = "3 3\n0 1 -5\n0 2 -1\n1 2 -1\n"
BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark


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


def _child_env(**extra) -> dict:
    """This process's environment with ``extra`` set, for a child
    interpreter that imports the gqsbnet under test ahead of any other."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(gqsbnet.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


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


def _opened(monkeypatch) -> list[Path]:
    """The list, filled as the test runs, of the paths of the files opened
    through ``io.open``, which ``Path.read_bytes`` and ``Path.read_text``
    call."""
    opened = []
    io_open = io.open

    def counted(file, *args, **kwargs):
        opened.append(Path(file))
        return io_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    return opened


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


class TestFileEncoding:
    """Network and start-state files are UTF-8 whatever the locale, each
    undecodable byte kept as a lone surrogate."""

    def test_latin1_comment(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"# caf\xe9\n" + ALLNEG.encode())
        assert load_network(path) == loads_network(ALLNEG)

    def test_utf8_under_ascii_locale(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_bytes("# café\n".encode() + ALLNEG.encode())
        argv = ["certify", "--network", str(path), "--dominant", "0,1"]
        assert main(argv) == 0
        env = _child_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        boot = "import sys; from gqsbnet.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", boot, *argv], env=env,
                              capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == capsys.readouterr().out

    def test_stray_byte_in_edge_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"3 3\n0 1 -1\n0 2 -3\xe9\n1 2 -3\n")
        with pytest.raises(ParseError, match="two integers and a real") as info:
            load_network(path)
        assert (info.value.path, info.value.line) == (str(path), 3)

    def test_stray_byte_in_state_file(self, tmp_path):
        path = tmp_path / "x0.txt"
        path.write_bytes(b"1 0 \xe9")
        with pytest.raises(ParseError, match=r"entry 3 is not a real: '\\udce9'") as info:
            load_state_file(path, 3)
        assert info.value.path == str(path)

    @pytest.mark.parametrize("network, x0", [
        (b"3 3\n0 1 -1\n0 2 -3\xe9\n1 2 -3\n", None),
        (ALLNEG.encode(), b"1 0 \xe9"),
    ], ids=["edge_line", "x0"])
    def test_cli_stray_byte_writes_nothing(self, tmp_path, capsys, network, x0):
        path = tmp_path / "net.txt"
        path.write_bytes(network)
        argv = ["predict", "--network", str(path), "--dominant", "0,1"]
        bad = path
        if x0 is not None:
            bad = tmp_path / "x0.txt"
            bad.write_bytes(x0)
            argv += ["--x0", str(bad)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith("error: ") and str(bad) in got.err
        assert not out.exists()

    def test_cli_latin1_comment(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_bytes(b"# caf\xe9\n" + ALLNEG.encode())
        clean = tmp_path / "clean.txt"
        clean.write_text(ALLNEG)
        assert main(["certify", "--network", str(path), "--dominant", "0,1"]) == 0
        got = capsys.readouterr()
        assert main(["certify", "--network", str(clean), "--dominant", "0,1"]) == 0
        assert got == capsys.readouterr()


    @pytest.mark.parametrize("body", [
        ALLNEG.encode(),
        ALLNEG.replace("\n", "\r\n").encode(),
        "# café\n".encode() + ALLNEG.encode(),
        b"3 3\n0 1 -1\n0 0 -3\n1 2 -3\n",
    ], ids=["lf", "crlf", "cafe", "bad_edge"])
    def test_byte_order_mark(self, tmp_path, capsys, body):
        # dropped at the start, as utf-8-sig drops it: the file without it
        # gives the same output, or the same error on the same line
        got = []
        for data in (BOM + body, body):
            path = tmp_path / "net.txt"
            path.write_bytes(data)
            code = main(["certify", "--network", str(path), "--dominant", "0,1"])
            got.append((code, *capsys.readouterr()))
        assert got[0] == got[1]
        if body.startswith(b"3 3\n0 1 -1\n0 0"):
            assert got[0][0] == 1 and f"{tmp_path / 'net.txt'}: line 3: self-loop" in got[0][2]
        else:
            assert got[0][0] == 0

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_byte_order_mark_before_ascii_is_read_in_bulk(self, monkeypatch, newline):
        text = ALLNEG.replace("\n", newline)
        want = loads_network(text)

        def refuse(*args):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(fileio, "_loads_by_line", refuse)
        assert loads_network(BOM + text.encode()) == want
        assert loads_network("\ufeff" + text) == want

    @pytest.mark.parametrize("data, line", [
        (BOM + BOM + ALLNEG.encode(), 1),
        (ALLNEG.encode().replace(b"0 2", BOM + b"0 2"), 3),
    ], ids=["twice", "inside"])
    def test_byte_order_mark_elsewhere_is_a_parse_error(self, data, line):
        with pytest.raises(ParseError) as info:
            loads_network(data)
        assert info.value.line == line

    def test_byte_order_mark_in_state_file(self, tmp_path):
        path = tmp_path / "x0.txt"
        path.write_bytes(BOM + b"1 -2 3")
        assert np.array_equal(load_state_file(path, 3), [1.0, -2.0, 3.0])
        path.write_bytes(b"1 " + BOM + b"-2 3")
        with pytest.raises(ParseError, match=r"entry 2 is not a real: '\\ufeff-2'"):
            load_state_file(path, 3)


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

    def test_bundled_file_missing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GQSB_DATA_DIR", raising=False)
        monkeypatch.setattr(gqsbnet.fileio, "resources",
                            argparse.Namespace(files=lambda package: tmp_path))
        with pytest.raises(MissingDataset, match="bundled dataset missing"):
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

    def test_network_hash_is_of_the_parsed_bytes(self, allneg_file, monkeypatch):
        # the file changes once it has been parsed: the digest describes
        # the bytes the graph came from
        parse = fileio.loads_network

        def parse_then_change(data, name):
            g = parse(data, name)
            Path(allneg_file).write_text(UNSTABLE)
            return g

        monkeypatch.setattr(fileio, "loads_network", parse_then_change)
        report = run_pipeline(ScenarioConfig(allneg_file, (0, 1), dt=0.01))
        assert report.certificate.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert report.provenance["network_sha256"] == hashlib.sha256(ALLNEG.encode()).hexdigest()

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

    @pytest.mark.parametrize("text, verdict, built", [
        (ALLNEG, Verdict.ASYMMETRIC_POLARIZATION, 3),
        (UNSTABLE, Verdict.DIVERGENCE, 0),
        ("4 3\n0 1 -1\n0 2 -3\n1 2 -3\n", Verdict.INCONCLUSIVE, 0),  # node 3 isolated
    ], ids=["polarizing", "divergent", "disconnected"])
    def test_sweep_builds_a_bundle_only_where_the_flow_runs(self, tmp_path, monkeypatch,
                                                            text, verdict, built):
        # certify checks the coefficient, so a verdict that stops the flow
        # needs no bundle
        path = tmp_path / "net.txt"
        path.write_text(text)
        calls = []
        bundle = gqsbnet.operators.generalized_laplacian
        monkeypatch.setattr(gqsbnet.operators, "generalized_laplacian",
                            lambda *args: calls.append(args) or bundle(*args))
        reports = list(fileio.run_sweep(ScenarioConfig(str(path), (0, 1), dt=0.01),
                                        [1.5, 2.0, 3.0]))
        assert [r.certificate.verdict for r in reports] == [verdict] * 3
        assert [gamma for *_, gamma in calls] == [1.5, 2.0, 3.0][:built]

    def test_byte_determinism(self, allneg_file):
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=7)
        first = report_to_json(run_pipeline(config))
        second = report_to_json(run_pipeline(config))
        assert first == second

    def test_report_across_blas_thread_counts(self, tmp_path):
        # bytes are identical for one BLAS build and thread count; across
        # thread counts only the floats computed through BLAS may move, each
        # within 1e-10 of its field's scale: the headroom and the outcome
        g, _ = random_bloc_graph(np.random.default_rng(0), 300, 2)
        path = tmp_path / "blocs.txt"
        path.write_text(dump_network(g))
        core = partner_core(g, bipartition_from_dominant(g, (0,)))
        docs = []
        for threads in ("1", "2"):
            # twice at each count: at 2 threads the factorization, the
            # substitution and the eigh share OpenBLAS's pool
            runs = [subprocess.run(
                [sys.executable, "-m", "gqsbnet", "report", "--network", str(path),
                 "--dominant", "0", "--dt", "0.005"],
                env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True)
                for _ in range(2)]
            for proc in runs:
                assert (proc.returncode, proc.stderr) == (0, b"")
            assert runs[0].stdout == runs[1].stdout, threads
            docs.append(json.loads(runs[0].stdout))
        first, second = docs
        cert, outcome = [(first.pop(key), second.pop(key)) for key in ("certificate", "outcome")]
        assert first == second
        assert outcome[0]["kind"] == "AsymmetricPolarization"
        scales = {"antagonism_headroom": core.headroom, "headroom_tol": 0.0,
                  "v1_value": max(map(abs, first["provenance"]["x0"])),
                  "ratio": abs(outcome[0]["ratio"])}
        scales["v2_value"] = scales["defect"] = scales["v1_value"]
        for mine, theirs in (cert, outcome):
            assert mine.keys() == theirs.keys()
            for key, value in mine.items():
                if isinstance(value, float):
                    assert abs(value - theirs[key]) <= 1e-10 * scales[key], key
                else:
                    assert value == theirs[key], key

    def test_report_fields_replay(self, allneg_file):
        # every derived field must be re-obtainable from the library calls
        config = ScenarioConfig(allneg_file, (0, 1), gamma=2.0, dt=0.01, seed=3)
        report = run_pipeline(config)
        g = load_network(allneg_file)
        b = bipartition_from_dominant(g, (0, 1))
        cert = certify(g, b, 2.0)
        # the report's full certificate is a library certificate's, bit for
        # bit, ties and all
        bundle = generalized_laplacian(load_network(allneg_file), b, 2.0)
        assert report.certificate.verdict is cert.verdict
        assert report.certificate.antagonism_headroom == cert.antagonism_headroom
        assert report.certificate.tie_headroom.tobytes() == cert.tie_headroom.tobytes()
        assert render_json(certificate_dict(report.certificate, "full")) == render_json(
            certificate_dict(cert, "full"))
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

    def test_render_json_escapes_control_characters(self):
        text = "tab\there\nline\x01\x1f end"
        out = render_json(text)
        assert not any(ord(c) < 0x20 for c in out)
        assert json.loads(out) == text
        assert json.loads(render_json({"s": text})) == {"s": text}
        # strings without control characters keep their old bytes
        assert render_json('say "hi"\\ \u00e9\u2028\x7f') == '"say \\"hi\\"\\\\ \u00e9\u2028\x7f"'
        # a lone surrogate (os.fsdecode of an undecodable byte) is escaped
        assert render_json(os.fsdecode(b"tri\xff.txt")) == '"tri\\udcff.txt"'

    @pytest.mark.parametrize("key", ['a"b', "a\\b", "a\tb", "café", os.fsdecode(b"\xff")])
    def test_render_json_escapes_keys(self, key):
        # keys go through the string branch that values use
        doc = {key: 1, "inner": {key: [key]}}
        assert json.loads(render_json(doc)) == doc

    def test_render_json_empty_containers(self):
        assert render_json({}) == "{}"
        assert render_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'

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

    def test_render_json_int_rows_in_bulk(self):
        class Loud(int):
            def __str__(self):
                return "loud"

        big = 2 ** 63 + 5
        rows = {
            "[0, -1, 3, -9223372036854775808]": [0, -1, np.int64(3), np.int64(-2 ** 63)],
            f"[{big}, -{big}, 18446744073709551615]": [big, -big, np.uint64(2 ** 64 - 1)],
            "[7, -2]": [Loud(7), np.int8(-2)],
            # a bool among ints keeps its JSON spelling
            "[1, true, 2, false]": [1, True, np.int64(2), False],
            "[true, false]": [True, False],
            "[1, true, 3]": [np.int64(1), np.bool_(True), 3],
        }
        for expected, row in rows.items():
            assert render_json(row) == expected
            assert render_json(tuple(row)) == expected
        assert render_json({"v": [[3, 1], [-2]]}) == '{\n  "v": [\n    [3, 1],\n    [-2]\n  ]\n}'

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

    @pytest.mark.parametrize("stride", [2.5, 3.0, True, np.True_, "2", -1])
    def test_trajectory_csv_refuses_a_stride_not_a_count(self, stride):
        # 2.5 would keep every 5th row and True would act as 1
        traj = Trajectory(np.arange(9) * 0.5, np.zeros((9, 2)), Termination.CONVERGED)
        with pytest.raises(ValueError, match="stride must be an integer of at least 1"):
            trajectory_to_csv(traj, stride=stride)
        assert trajectory_to_csv(traj, np.int64(2)) == trajectory_to_csv(traj, 2)

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


# Each subcommand's flags besides --network, --weights and --out.
OPTIONS = {
    "classify": set(),
    "bipartitions": set(),
    "spectrum": {"--dominant"},
    "certify": {"--dominant", "--gamma", "--detail"},
    "simulate": {"--dominant", "--gamma", "--x0", "--seed", "--dt", "--tmax", "--stride"},
    "predict": {"--dominant", "--gamma", "--x0", "--seed"},
    "report": {"--dominant", "--gamma", "--x0", "--seed", "--dt", "--tmax", "--stride",
               "--detail"},
    "sweep": {"--dominant", "--gammas", "--x0", "--seed", "--dt", "--tmax", "--detail"},
}


class TestCli:
    def test_option_sets(self):
        # the parser built for a command registers every subcommand and
        # adds flags to that command's alone
        for command in OPTIONS:
            top = gqsbnet.cli._parser([command, "--network", "highland"])
            sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
            assert set(sub.choices) == set(OPTIONS)
            for name, parser in sub.choices.items():
                found = {s for a in parser._actions for s in a.option_strings}
                want = {"--network", "--weights", "--out"} | OPTIONS[name]
                assert found == {"-h", "--help"} | (want if name == command else set())

    @pytest.mark.parametrize("argv", [
        ["predict", "--dt", "1"],
        ["predict", "--tmax", "5"],
        ["predict", "--stride", "2"],
        ["sweep", "--gammas", "2", "--stride", "2"],
        ["spectrum", "--gamma", "3"],
    ])
    def test_unread_flags_are_usage_errors(self, allneg_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([argv[0], "--network", allneg_file, "--dominant", "0,1", *argv[1:],
                     "--out", str(out)])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["classify"], ["certify", "--dominant", "0,1"]])
    def test_weights_refused_on_file_network(self, allneg_file, capsys, argv):
        code = main([argv[0], "--network", allneg_file, *argv[1:], "--weights", "5,-1,-5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--weights" in err

    @pytest.mark.parametrize("command", ["report", "simulate"])
    @pytest.mark.parametrize("stride", ["0", "-2", "x"])
    def test_bad_stride_writes_nothing(self, allneg_file, tmp_path, capsys, command, stride):
        out = tmp_path / "d"
        code = main([command, "--network", allneg_file, "--dominant", "0,1", "--dt", "0.01",
                     "--stride", stride, "--out", str(out)])
        assert code == 1
        assert "--stride" in capsys.readouterr().err
        assert not out.exists()

    def test_stride_thins_trajectory_rows(self, allneg_file, capsys):
        argv = ["simulate", "--network", allneg_file, "--dominant", "0,1", "--dt", "0.01",
                "--tmax", "0.1"]
        assert main(argv) == 2  # too short to settle: Undetermined
        rows = capsys.readouterr().out.splitlines()
        assert main([*argv, "--stride", "3"]) == 2
        thinned = capsys.readouterr().out.splitlines()
        assert len(rows) == 12
        assert thinned == [rows[0], *rows[1::3], rows[-1]]

    @pytest.mark.parametrize("dominant", range(16))
    def test_spectrum_relabels_for_dominant(self, capsys, dominant):
        argv = ["--network", "highland", "--dominant", str(dominant)]
        assert main(["spectrum", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["certify", *argv, "--detail", "full"]) in (0, 2)
        cert = json.loads(capsys.readouterr().out)
        assert len(cert["ties"]) == cert["same_side_ties"]
        g = load_highland(ScenarioConfig("highland", (dominant,)))
        # eigvalsh's spectrum beside the partner's eigh
        full = generalized_laplacian(g, bipartition_from_dominant(g, (dominant,)),
                                     2.0).partner.eigenvalues
        assert np.allclose(doc["scaled"], full, rtol=0.0, atol=1e-12 * max(map(abs, full)))
        assert np.allclose(doc["repelling"], sym_eigen(repelling_laplacian(g)).eigenvalues,
                           rtol=1e-13, atol=1e-12)

    def test_spectrum_loads_network_once(self, monkeypatch, capsys):
        opened = _opened(monkeypatch)
        assert main(["spectrum", "--network", "highland", "--dominant", "5"]) == 0
        assert opened == [highland_path()]

    @pytest.mark.parametrize("network", ["highland", "file"])
    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_report_and_sweep_read_network_once(self, monkeypatch, tmp_path, allneg_file,
                                                command, network):
        path = highland_path() if network == "highland" else Path(allneg_file)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        out = tmp_path / "out"
        gammas = ["--gamma", "2"] if command == "report" else ["--gammas", "1.5,2,3"]
        opened = _opened(monkeypatch)
        argv = [command, "--network", network if network == "highland" else allneg_file,
                "--dominant", "0,1", *gammas, "--dt", "0.01", "--tmax", "1", "--out", str(out)]
        assert main(argv) == 0
        assert opened.count(path) == 1
        docs = [json.loads(f.read_bytes()) for f in sorted(out.glob("*.json"))]
        assert len(docs) == (1 if command == "report" else 3)
        assert {doc["provenance"]["network_sha256"] for doc in docs} == {digest}

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
        path.write_text("21 0\n")
        out = tmp_path / "out"
        assert main(["bipartitions", "--network", str(path), "--out", str(out)]) == 1
        with pytest.raises(TooLarge) as info:
            enumerate_gqsb_bipartitions(load_network(path))
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    def test_spectrum_plain(self, allneg_file, capsys):
        assert main(["spectrum", "--network", allneg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"repelling", "opposing"}

    @pytest.mark.parametrize("gamma", ["3", "2", "-5", "nan"])
    def test_spectrum_gamma_needs_dominant(self, capsys, gamma):
        # spectrum reads no coefficient, with --dominant or without it
        assert main(["spectrum", "--network", "highland", f"--gamma={gamma}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --gamma" in err

    def test_spectrum_scaled_is_the_core_spectrum(self, capsys, monkeypatch):
        docs = []
        render = gqsbnet.cli.render_json
        monkeypatch.setattr(gqsbnet.cli, "render_json",
                            lambda doc: docs.append(doc) or render(doc))
        assert main(["spectrum", "--network", "highland", "--dominant", "3"]) == 0
        g = load_highland(ScenarioConfig("highland", (3,)))
        want = sym_eigvals(partner_laplacian(g, bipartition_from_dominant(g, (3,))))
        assert np.array(docs[0]["scaled"]).tobytes() == want.tobytes()

    def test_spectrum_scaled_keeps_no_decomposition(self, capsys, monkeypatch):
        # the scaled spectrum is computed where it is printed: the partner
        # keeps its Laplacian and no eigh
        read = []
        laplacian = gqsbnet.operators.partner_laplacian
        monkeypatch.setattr(gqsbnet.operators, "partner_laplacian",
                            lambda g, b: read.append((g, b)) or laplacian(g, b))
        assert main(["spectrum", "--network", "highland", "--dominant", "3"]) == 0
        (g, b), = read
        kept = vars(_partner(g, b))
        assert "laplacian" in kept and "eigen" not in kept

    def test_spectrum_scaled(self, allneg_file, capsys):
        code = main(["spectrum", "--network", allneg_file, "--dominant", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["scaled"], [0.0, 1.0, 9.0], atol=1e-9)

    def test_certify_polarizing(self, allneg_file, capsys):
        code = main(["certify", "--network", allneg_file, "--dominant", "0,1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert doc["decided_by"] == "headroom"
        assert "resistance" not in doc
        code = main(["certify", "--network", allneg_file, "--dominant", "0,1",
                     "--detail", "full"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert "resistance" not in doc
        # the one tie's own headroom: weight 1, resistance 0.4 through |w|
        assert doc["ties"] == [[0, 1, pytest.approx(1.5, rel=1e-14)]]

    def test_certify_divergent_exit_two(self, unstable_file, capsys):
        code = main(["certify", "--network", unstable_file, "--dominant", "0,1"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "Divergence"

    def test_low_gamma_note_on_stderr(self, allneg_file, capsys):
        main(["certify", "--network", allneg_file, "--dominant", "0,1",
              "--gamma", "0.5"])
        assert "note:" in capsys.readouterr().err

    def test_sweep_notes_low_coefficients(self, allneg_file, capsys, monkeypatch):
        notes = []
        for gamma in ("0.5", "1"):
            main(["report", "--network", allneg_file, "--dominant", "0,1", "--gamma", gamma,
                  "--dt", "0.01"])
            notes.append(capsys.readouterr().err)
        assert all(note.startswith("note: ") for note in notes)
        # one note per coefficient in (0, 1], all before the first report
        before = []
        run_sweep = gqsbnet.cli.run_sweep
        monkeypatch.setattr(gqsbnet.cli, "run_sweep",
                            lambda *args: before.append(capsys.readouterr().err)
                            or run_sweep(*args))
        argv = ["sweep", "--network", allneg_file, "--dominant", "0,1", "--dt", "0.01"]
        assert main(argv + ["--gammas=0.5,2,1,-1"]) == 1
        assert before == ["".join(notes)]
        assert capsys.readouterr().err.startswith("error: dominance coefficient")
        assert main(argv + ["--gammas=2,3"]) == 0
        assert before[1:] == [""] and capsys.readouterr().err == ""
        # a file-name collision is refused before any note
        assert main(argv + ["--gammas=0.5,0.50"]) == 1
        assert capsys.readouterr().err.startswith("error: coefficients 0.5 and 0.5")

    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
    def test_refused_gamma_has_no_note(self, allneg_file, capsys, gamma):
        for command in ("certify", "report"):
            assert main([command, "--network", allneg_file, "--dominant", "0,1",
                         f"--gamma={gamma}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: dominance coefficient must be in (0, inf)")
            assert err.count("\n") == 1

    def test_negative_seed_is_bad_state(self, allneg_file, capsys):
        for command in ("report", "simulate", "predict"):
            assert main([command, "--network", allneg_file, "--dominant", "0,1",
                         "--seed", "-1"]) == 1
            assert capsys.readouterr().err == (
                "error: seed must be a non-negative integer, got -1\n")
        for seed in (-1, 1.5, True, None):
            with pytest.raises(BadState, match="seed must be a non-negative integer"):
                start_state(ScenarioConfig(allneg_file, (0, 1), seed=seed), 3)
        assert start_state(ScenarioConfig(allneg_file, (0, 1), seed=np.int64(7)), 3).shape == (3,)

    @pytest.mark.parametrize("command", ["certify", "report", "predict", "spectrum"])
    def test_dominant_not_integers_named(self, allneg_file, capsys, command):
        assert main([command, "--network", allneg_file, "--dominant", "0,x"]) == 1
        assert capsys.readouterr().err == (
            "error: --dominant needs integer node ids, got '0,x'\n")

    @pytest.mark.parametrize("argv, text", [
        (["certify", "--network", "highland", "--dominant", "0", "--weights"], "5,x,-5"),
        (["report", "--network", "highland", "--dominant", "0", "--weights"], "5 -1 1e"),
        (["sweep", "--network", "highland", "--dominant", "0", "--gammas"], "1.5,x"),
        (["sweep", "--network", "highland", "--dominant", "0", "--gammas"], "2,,3;"),
    ])
    def test_numbers_not_numbers_named(self, capsys, argv, text):
        flag = argv[-1]
        assert main([*argv, text]) == 1
        assert capsys.readouterr() == ("", f"error: {flag} needs numbers, got {text!r}\n")

    @pytest.mark.parametrize("text", [
        "3 3\n0 1 -1e308\n0 2 -1e308\n1 2 -1e308\n",
        "2 1\n0 1 -1e308\n",
        "3 2\n0 1 -1e308\n1 2 -1e308\n",
    ])
    def test_weights_near_the_largest_float_too_large(self, tmp_path, capsys, text):
        # twice a node's absolute weight sum overflows: TooLarge, before
        # numpy can warn, lose the trace to NaN or fail to converge
        path = tmp_path / "huge.txt"
        path.write_text(text)
        for command in ("certify", "report", "spectrum"):
            code = main([command, "--network", str(path), "--dominant", "0"])
            got = capsys.readouterr()
            if command == "certify" and text.startswith("2 1"):
                # one tie, across the split: no same-side antagonism, so the
                # headroom is infinite and no weight is summed
                assert code == 0 and json.loads(got.out)["same_side_ties"] == 0
                continue
            assert code == 1
            assert got.out == ""
            if command == "report" and text.startswith("2 1"):
                # the flow runs on the scaled partner, whose radius 2e308
                # leaves a default step below the double range: the
                # absolute default horizon is what refuses
                assert got.err.startswith("error: t_max / dt = inf steps exceeds")
            else:
                assert got.err.startswith("error: entries too large: twice the absolute sum")
            assert got.err.count("\n") == 1

    def test_weights_whose_quadrupled_sums_overflow(self, tmp_path, capsys):
        # twice each absolute row sum is finite, so certify and predict
        # answer: the headroom is a ratio of weights, so its verdict and
        # t* are weight 1's; the flow runs on the partner scaled by a power
        # of two, so simulate and report answer at a given stable step,
        # while the absolute default horizon refuses the default step
        path, unit = tmp_path / "big.txt", tmp_path / "unit.txt"
        path.write_text("3 3\n0 1 -1e307\n0 2 -3e307\n1 2 -3e307\n")
        unit.write_text(ALLNEG)
        docs = []
        for network in (path, unit):
            assert main(["certify", "--network", str(network), "--dominant", "0,1"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["verdict"] == docs[1]["verdict"] == "AsymmetricPolarization"
        assert abs(docs[0]["antagonism_headroom"] - docs[1]["antagonism_headroom"]) <= (
            1e-12 * docs[1]["antagonism_headroom"])
        assert main(["predict", "--network", str(path), "--dominant", "0,1"]) == 0
        capsys.readouterr()
        # the full certificate reads the same factor: each tie's own
        # headroom is the one at weight 1
        ties = []
        for network in (path, unit):
            assert main(["certify", "--network", str(network), "--dominant", "0,1",
                         "--detail", "full"]) == 0
            ties.append(json.loads(capsys.readouterr().out)["ties"])
        assert ties[0][0][:2] == ties[1][0][:2] == [0, 1]
        assert abs(ties[0][0][2] - ties[1][0][2]) <= 1e-12 * ties[1][0][2]
        assert main(["report", "--network", str(path), "--dominant", "0,1"]) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("error: t_max / dt = inf steps exceeds")
        assert got.err.count("\n") == 1
        # the partner's radius is 9e307: 400 steps of 2.5e-308 are stable
        timing = ["--dt", "2.5e-308", "--tmax", "1e-305"]
        assert main(["report", "--network", str(path), "--dominant", "0,1", *timing]) == 0
        outcome = json.loads(capsys.readouterr().out)["outcome"]
        assert outcome["kind"] == "AsymmetricPolarization"
        assert outcome["ratio"] == pytest.approx(-2.0, rel=1e-9)
        out = tmp_path / "sim"
        assert main(["simulate", "--network", str(path), "--dominant", "0,1", *timing,
                     "--out", str(out)]) == 0
        assert json.loads((out / "outcome.json").read_text())["kind"] == "AsymmetricPolarization"

    def test_subnormal_lone_tie_answers(self, tmp_path, capsys):
        # the one same-side tie is 1e-320 of the others, so M's one entry
        # is subnormal: t* overflows to infinity (null) and the flow
        # polarizes, with no warning; predict's limit does not read t*, so
        # it is the 1e-300 triangle's
        tiny, small = tmp_path / "tiny.txt", tmp_path / "small.txt"
        tiny.write_text("3 3\n0 1 -1e-320\n0 2 -1\n1 2 -1\n")
        small.write_text("3 3\n0 1 -1e-300\n0 2 -1\n1 2 -1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for detail in ("summary", "full"):
                assert main(["certify", "--network", str(tiny), "--dominant", "0,1",
                             "--detail", detail]) == 0
                out, err = capsys.readouterr()
                doc = json.loads(out)
                assert err == "" and doc["verdict"] == "AsymmetricPolarization"
                assert doc["antagonism_headroom"] is None
                assert doc.get("ties", [[0, 1, None]]) == [[0, 1, None]]
            assert main(["report", "--network", str(tiny), "--dominant", "0,1"]) == 0
            out, err = capsys.readouterr()
            doc = json.loads(out)
            assert err == "" and doc["certificate"]["antagonism_headroom"] is None
            assert doc["outcome"]["kind"] == "AsymmetricPolarization"
            predicted = []
            for network in (tiny, small):
                assert main(["predict", "--network", str(network), "--dominant", "0,1"]) == 0
                predicted.append(capsys.readouterr())
        assert predicted[0] == predicted[1] and predicted[0].err == ""

    @pytest.mark.parametrize("gamma", ["1e-300", "1.7e308"])
    def test_gauge_beyond_the_double_range_too_large(self, capsys, gamma):
        # the flow's coordinate gauge cannot be represented: one error line
        # (beside the note on a coefficient below 1), no warning, no outcome
        for command in ("report", "simulate"):
            argv = [command, "--network", "highland", "--dominant", "0", "--gamma", gamma,
                    "--dt", "0.002"]
            assert main(argv) == 1
            got = capsys.readouterr()
            errors = [line for line in got.err.splitlines() if line.startswith("error: ")]
            assert got.out == ""
            assert errors == ["error: coordinate gauge past the double range at coefficient "
                              f"{float(gamma):g}"]

    def test_gauge_entry_past_the_double_range_too_large(self, capsys):
        # below about 5.6e-309 the gauge entry 1 / gamma overflows: every
        # command that forms a gauge refuses it in one line, with no warning
        # (each runs in a child under PYTHONWARNINGS=error)
        for argv in (["certify"], ["certify", "--detail", "full"], ["predict"], ["report"]):
            proc = subprocess.run(
                [sys.executable, "-m", "gqsbnet", *argv, "--network", "highland",
                 "--dominant", "0", "--gamma", "1e-320"],
                env=_child_env(PYTHONWARNINGS="error"), capture_output=True, text=True)
            errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
            assert (proc.returncode, proc.stdout) == (1, "")
            assert errors == ["error: coordinate gauge past the double range at coefficient "
                              f"{1e-320:g}"]
        # a coefficient whose gauge entry is representable certifies as before
        assert main(["certify", "--network", "highland", "--dominant", "0",
                     "--gamma", "1e-300"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "AsymmetricPolarization"

    def test_gauge_near_the_double_range_runs_clean(self, capsys):
        # up to the gauge's refusal the states are representable while the
        # first velocity, the state over a gauge entry near 1e-308, is not:
        # no warning, and the outcome scales with the coefficient
        outcomes = {}
        for gamma in ("1e307", "3e307", "4.4e307"):
            argv = ["--network", "highland", "--dominant", "0", "--gamma", gamma,
                    "--dt", "0.002"]
            assert main(["simulate", *argv]) == 2  # past the divergence limit at once
            assert capsys.readouterr().err == ""
            assert main(["report", *argv]) == 0
            got = capsys.readouterr()
            assert got.err == ""
            outcomes[float(gamma)] = json.loads(got.out)["outcome"]
        for gamma, outcome in outcomes.items():
            assert outcome["kind"] == "Divergence"
            assert outcome["v1_value"] / gamma == pytest.approx(
                outcomes[1e307]["v1_value"] / 1e307, rel=1e-12)

    @pytest.mark.parametrize("command, gamma", [
        ("report", "1e307"), ("report", "4.4e307"), ("simulate", "1e307"),
    ])
    def test_state_past_the_double_range_too_large(self, tmp_path, command, gamma):
        # start entries of +-1000 times a coefficient near 1e307 put the
        # first formed state past 1.8e308: one TooLarge line, no warning
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(["1000"] * 8 + ["-1000"] * 8))
        proc = subprocess.run(
            [sys.executable, "-m", "gqsbnet", command, "--network", "highland",
             "--dominant", "0", "--dt", "0.002", "--gamma", gamma, "--x0", str(x0)],
            env=_child_env(PYTHONWARNINGS="error"), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: the final state, or a mean or spread of it, "
                               "leaves the double range\n")

    def test_out_of_memory_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a header naming a million nodes: the dense Laplacians of the
        # spectra cannot be allocated, which the patch stands in for
        path = tmp_path / "wide.txt"
        path.write_text("1000000 1\n0 1 -1\n")

        def refuse(self):
            raise MemoryError(f"Unable to allocate an array of shape ({self.n}, {self.n})")

        monkeypatch.setattr(SignedGraph, "adjacency", refuse)
        out = tmp_path / "out"
        argv = ["spectrum", "--network", str(path), "--dominant", "0", "--out", str(out)]
        assert main(argv) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == ("error: Unable to allocate an array of shape "
                           "(1000000, 1000000)\n")
        assert not out.exists()

    def test_out_of_memory_in_the_grounded_solve_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the factorization of the grounded L_abs runs on this thread for
        # certify and report alike; its MemoryError reaches the command
        g, _ = random_bloc_graph(np.random.default_rng(0), 60, 2)
        path = tmp_path / "blocs.txt"
        path.write_text(dump_network(g))
        threads = []

        def refuse(*args):
            threads.append(threading.current_thread())
            raise MemoryError("Unable to allocate the grounded system")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        before = threading.active_count()
        out = tmp_path / "out"
        for command in ("certify", "report"):
            argv = [command, "--network", str(path), "--dominant", "0", "--out", str(out)]
            assert main(argv) == 1
            got = capsys.readouterr()
            assert got == ("", "error: Unable to allocate the grounded system\n")
            assert not out.exists()
        assert threading.active_count() == before
        assert threads == [threading.main_thread()] * 2

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

    @pytest.mark.parametrize("flag, field", [
        ("--tmax=0", {"t_max": 0.0}),
        ("--tmax=-5", {"t_max": -5.0}),
        ("--tmax=inf", {"t_max": float("inf")}),
        ("--tmax=nan", {"t_max": float("nan")}),
        ("--dt=-1", {"dt": -1.0}),
    ])
    def test_bad_horizon_refused_without_integration(self, unstable_file, tmp_path, capsys,
                                                     flag, field):
        # the divergent triangle's certificate skips integration
        out = tmp_path / "out"
        for argv in (["report"], ["sweep", "--gammas", "2,3"]):
            code = main([argv[0], "--network", unstable_file, "--dominant", "0,1",
                         *argv[1:], flag, "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()
        for network in (unstable_file, str(tmp_path / "ghost.txt")):
            with pytest.raises(BadStep):
                run_pipeline(ScenarioConfig(network, (0, 1), **field))

    @pytest.mark.parametrize("network", ["unstable", "disconnected"])
    def test_default_step_count_unchecked_without_integration(self, unstable_file, tmp_path,
                                                              capsys, network):
        # no --dt and a horizon no default step could cover: a verdict that
        # does not flow integrates nothing, so no step is taken or counted,
        # and the report is written with no outcome
        if network == "disconnected":
            path = tmp_path / "split.txt"
            path.write_text("4 2\n0 1 -1\n2 3 -1\n")
            network = str(path)
        else:
            network = unstable_file
        g = load_network(network)
        verdict = certify(g, bipartition_from_dominant(g, (0,)), 2.0).verdict
        assert verdict in (Verdict.DIVERGENCE, Verdict.INCONCLUSIVE)  # nothing to integrate
        out = tmp_path / "out"
        for argv in (["report"], ["sweep", "--gammas", "2"]):
            code = main([argv[0], "--network", network, "--dominant", "0", *argv[1:],
                         "--tmax", "1e300", "--out", str(out)])
            assert code == (2 if argv[0] == "report" else 0)
            assert capsys.readouterr().err == ""
            name = "report.json" if argv[0] == "report" else "report_gamma_2.json"
            assert json.loads((out / name).read_text())["outcome"] is None
        report = run_pipeline(ScenarioConfig(network, (0,), t_max=1e300))
        assert report.outcome is None and report.trajectory is None

    def test_non_flowing_report_makes_no_decomposition(self, unstable_file, monkeypatch,
                                                       capsys):
        # the divergent triangle: the core's factorization and M's spectrum,
        # and no spectrum of the partner
        calls = counting_linalg(monkeypatch)
        assert main(["report", "--network", unstable_file, "--dominant", "0,1"]) == 2
        capsys.readouterr()
        assert calls == core_calls(3, 1, 2)

    @pytest.mark.parametrize("argv, integrates", [
        (["certify"], 0),
        (["predict"], 0),
        (["spectrum"], 0),
        (["report", "--dt", "0.002"], 1),
        (["sweep", "--dt", "0.002", "--gammas", "1.5,2,3"], 1),
        (["simulate"], 1),
        (["simulate", "--dt", "0.002"], 1),
        (["certify", "--detail", "full"], 0),
        (["report", "--detail", "full"], 1),
    ])
    def test_decompositions_per_command(self, argv, integrates, monkeypatch, capsys,
                                        tmp_path):
        # no command decomposes the partner Laplacian but spectrum, which
        # prints eigenvalues: the default step and integration read only
        # Lanczos's tridiagonals, kept apart here
        g = load_highland(ScenarioConfig("highland", (0,)))
        b = bipartition_from_dominant(g, (0,))
        ties = certify(g, b, 2.0).same_side_ties
        lanczos = counting_linalg(monkeypatch)
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        assert main([argv[0], "--network", "highland", "--dominant", "0", *argv[1:],
                     "--out", str(tmp_path / "out")]) == 0
        assert (len(lanczos) > len(calls)) == integrates
        if argv[0] == "spectrum":  # three eigenvalue lists and no certificate
            assert calls == [("eigvalsh", (g.n, g.n))] * 3
        elif argv[0] == "simulate":
            assert calls == []
        else:  # the core; the full document reads the core alone
            assert calls == core_calls(g.n, ties, tie_endpoints(g, b))

    def test_report_decomposes_the_partner_never(self, monkeypatch, capsys, tmp_path):
        # the verdict picks the decompositions: the core's factorization on a
        # connected network, and nothing more; where the verdict flows,
        # integration reads Lanczos's tridiagonals (not recorded here) and
        # no eigh of the partner
        rng = np.random.default_rng(5)
        networks = []
        for intra_extra, intra_neg in ((0.3, 0.15), (0.6, 0.9)):
            g, _ = random_bloc_graph(rng, 60, 2, intra_extra, intra_neg=intra_neg)
            networks.append(tmp_path / f"blocs{intra_neg}.txt")
            networks[-1].write_text(dump_network(g))
        networks.append(tmp_path / "apart.txt")
        networks[-1].write_text("4 2\n0 1 -1\n2 3 -1\n")
        expected, verdicts, flows = [], set(), 0
        for network in networks:
            g = load_network(network)
            b = bipartition_from_dominant(g, (0,))
            cert = certify(g, b, 2.0)
            flowing = cert.verdict is Verdict.ASYMMETRIC_POLARIZATION
            verdicts.add(cert.verdict)
            want = core_calls(g.n, cert.same_side_ties, tie_endpoints(g, b)) if cert.connected else []
            expected.append(want)
            flows += flowing
        assert verdicts == {Verdict.ASYMMETRIC_POLARIZATION, Verdict.DIVERGENCE,
                            Verdict.INCONCLUSIVE}
        assert flows
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        for network, want in zip(networks, expected):
            for argv in (["report"], ["sweep", "--gammas", "1.5,2,3"]):
                calls.clear()
                main([argv[0], "--network", str(network), "--dominant", "0", *argv[1:],
                      "--dt", "0.001", "--tmax", "1", "--out", str(tmp_path / "out")])
                capsys.readouterr()
                assert calls == want, (network.name, argv[0])

    def test_integrating_commands_start_no_thread(self, unstable_file, monkeypatch, capsys,
                                                  tmp_path):
        # no command starts a thread, certify included
        g, _ = random_bloc_graph(np.random.default_rng(0), 60, 2)
        blocs = tmp_path / "blocs.txt"
        blocs.write_text(dump_network(g))
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        out = str(tmp_path / "out")
        codes = set()
        for network, dominant in (("highland", "0"), (str(blocs), "0"), (unstable_file, "0,1")):
            for argv in (["report", "--dt", "0.002"], ["simulate", "--dt", "0.002"],
                         ["sweep", "--gammas", "1.5,2,3", "--dt", "0.002"]):
                codes.add(main([argv[0], "--network", network, "--dominant", dominant,
                                *argv[1:], "--out", out]))
        for command in ("report", "simulate"):  # the default step
            codes.add(main([command, "--network", "highland", "--dominant", "0",
                            "--out", out]))
        for detail in ("summary", "full"):
            codes.add(main(["certify", "--network", str(blocs), "--dominant", "0",
                            "--detail", detail]))
        capsys.readouterr()
        assert codes == {0, 2} and started == []

    def test_provenance_stop_tol_is_the_integrators(self, allneg_file):
        report = run_pipeline(ScenarioConfig(allneg_file, (0, 1), dt=0.01))
        assert report.provenance["stop_tol"] == gqsbnet.dynamics.STOP_TOL == 1e-10
        assert inspect.signature(integrate).parameters["stop_tol"].default == 1e-10

    @pytest.mark.parametrize("module", ["gqsbnet", "gqsbnet.cli"])
    def test_python_m_runs_the_cli(self, module, allneg_file, unstable_file, tmp_path,
                                   capsys):
        env = _child_env()
        codes = []
        for argv in (["classify", "--network", allneg_file],
                     ["certify", "--network", unstable_file, "--dominant", "0,1"],
                     ["classify", "--network", str(tmp_path / "missing.txt")]):
            codes.append(main(argv))
            out = capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                                  capture_output=True)
            assert (proc.returncode, proc.stdout.decode()) == (codes[-1], out)
        assert codes == [0, 2, 1]

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
                assert doc["certificate"]["schema"] == 3
                assert ("ties" in doc["certificate"]) == bool(detail)

    def test_sweep_reads_start_state_once(self, allneg_file, tmp_path, monkeypatch):
        x0 = tmp_path / "x0.txt"
        x0.write_text("0.5 -0.25 1\n")
        read = fileio.load_state_file
        reads = []

        def counted(path, n):
            reads.append(path)
            return read(path, n)

        monkeypatch.setattr(fileio, "load_state_file", counted)
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", "1.5,2,3,4", "--x0", str(x0), "--dt", "0.01",
                     "--out", str(out)])
        assert code == 0
        assert reads == [str(x0)]
        assert len(list(out.iterdir())) == 4
        reports = list(fileio.run_sweep(ScenarioConfig(allneg_file, (0, 1), dt=0.01),
                                        [1.5, 2.0]))
        assert reports[0].x0 is reports[1].x0
        assert not reports[0].x0.flags.writeable

    @pytest.mark.parametrize("argv", [
        ["report", "--gamma=-1"],
        ["sweep", "--gammas=-1,2"],
        ["sweep", "--gammas=2,nan"],
    ])
    def test_start_state_error_before_bad_coefficient(self, allneg_file, tmp_path, capsys,
                                                      argv):
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0\n")
        out = tmp_path / "out"
        code = main([argv[0], "--network", allneg_file, "--dominant", "0,1", *argv[1:],
                     "--x0", str(x0), "--dt", "0.01", "--out", str(out)])
        assert code == 1
        assert f"{x0}: expected 3 entries, found 2" in capsys.readouterr().err
        assert not out.exists()

    def test_report_paths_with_control_characters(self, tmp_path):
        folder = tmp_path / "tab\tdir"
        folder.mkdir()
        network = folder / "tri\tangle\n.txt"
        network.write_text(ALLNEG)
        x0 = folder / "start\tstate\n.txt"
        x0.write_text("1 0 -1\n")
        out = tmp_path / "out"
        code = main(["report", "--network", str(network), "--dominant", "0,1",
                     "--x0", str(x0), "--dt", "0.01", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["network"] == str(network)
        assert doc["provenance"]["x0_path"] == str(x0)

    def test_sweep_bad_gamma_writes_nothing(self, allneg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", "1.5,-1", "--dt", "0.01", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_gammas_writes_nothing(self, allneg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--network", allneg_file, "--dominant", "0,1",
                     "--gammas", ",", "--out", str(out)])
        assert code == 1
        assert "--gammas needs at least one value" in capsys.readouterr().err
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

    def test_non_utf8_network_path(self, tmp_path, capsys):
        raw = os.fsencode(tmp_path / "tri") + b"\xff.txt"
        Path(os.fsdecode(raw)).write_text(ALLNEG)
        argv = ["report", "--network", os.fsdecode(raw), "--dominant", "0,1", "--dt", "0.01"]
        assert main(argv) == 0
        # strict UTF-8: the document holds no raw path byte
        doc = json.loads(capsys.readouterr().out.encode("utf-8"))
        assert os.fsencode(doc["provenance"]["network"]) == raw
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        saved = json.loads((out / "report.json").read_bytes())
        assert saved == doc

    def test_console_script_installed(self, allneg_file, unstable_file, tmp_path):
        target = _declared_console_script("gqsbnet")
        assert target == "gqsbnet.cli:entry"
        # Make the child import the gqsbnet under test, ahead of any other copy.
        env = _child_env()
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
        divergent = ["certify", "--network", unstable_file, "--dominant", "0,1"]
        for args, status, (key, value) in ((good, 0, ("classification", "GQSB")),
                                           (bad, 1, (None, None)),
                                           (divergent, 2, ("verdict", "Divergence"))):
            proc = subprocess.run([sys.executable, "-c", wrapper, *args], env=env,
                                  cwd=tmp_path, capture_output=True)
            origin, _, err = proc.stderr.decode().partition("\n")
            assert Path(origin).resolve() == Path(gqsbnet.__file__).resolve(), err
            assert proc.returncode == status, err
            if key is not None:
                assert json.loads(proc.stdout)[key] == value
            else:
                assert "error:" in err
            if exe is not None:
                installed = subprocess.run([exe, *args], env=env, cwd=tmp_path,
                                           capture_output=True)
                assert installed.returncode == proc.returncode
                assert installed.stdout == proc.stdout

    def test_only_hashing_commands_load_openssl(self, allneg_file):
        # hashlib brings in OpenSSL (about 3.5 MB); only report and sweep
        # hash.  The core's second thread is a plain thread: concurrent.futures
        # would bring in logging, about 7 ms at every start
        boot = (
            "import sys\n"
            "from gqsbnet import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "names = ('_hashlib', 'logging', 'concurrent.futures')\n"
            "print(*(name in sys.modules for name in names), file=sys.stderr)\n"
        )
        for argv in (["classify", "--network", "highland"],
                     ["certify", "--network", allneg_file, "--dominant", "0,1"],
                     ["spectrum", "--network", allneg_file],
                     ["bipartitions", "--network", allneg_file]):
            proc = subprocess.run([sys.executable, "-c", boot, *argv], env=_child_env(),
                                  capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b"False False False\n"), argv

    def test_commands_load_only_the_modules_they_run(self, allneg_file):
        # classify and bipartitions build no operator, spectrum certifies
        # nothing and certify integrates nothing; what a command does not
        # run it does not import
        boot = (
            "import sys\n"
            "from gqsbnet import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "names = ('operators', 'spectral', 'dynamics')\n"
            "print(*(f'gqsbnet.{name}' in sys.modules for name in names), file=sys.stderr)\n"
        )
        for argv, loaded in ((["classify", "--network", "highland"], b"False False False"),
                             (["bipartitions", "--network", allneg_file], b"False False False"),
                             (["spectrum", "--network", allneg_file, "--dominant", "0,1"],
                              b"True False False"),
                             (["certify", "--network", allneg_file, "--dominant", "0,1"],
                              b"True True False"),
                             (["predict", "--network", allneg_file, "--dominant", "0,1"],
                              b"True True True")):
            proc = subprocess.run([sys.executable, "-c", boot, *argv], env=_child_env(),
                                  capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, loaded + b"\n"), argv

    def test_public_names_resolve_to_their_modules(self):
        # the names the package exported when it imported every module at
        # once, by the module that defines each; each resolves on first use
        homes = {
            "errors": "BadGamma BadIndex BadPartition BadState BadStep DimensionMismatch "
                      "DuplicateEdge GqsbError MissingDataset NoConvergence NonFiniteWeight "
                      "NotGQSB NotPolarizing NotSymmetric ParseError SelfLoop TooLarge "
                      "ZeroWeight",
            "signed_graph": "GQSB QSB SB UNBALANCED Bipartition IncidenceMatrix NeighborSets "
                            "SignDecomposition SignedGraph bipartition_from_dominant "
                            "chromatic_number classify condense_positive_components "
                            "connected_components enumerate_gqsb_bipartitions "
                            "incidence_matrix is_qsb is_structurally_balanced neighbor_sets "
                            "positive_components spanning_forest subgraph_by_sign "
                            "validate_gqsb",
            "operators": "EigenDecomposition OperatorBundle default_zero_tol gauge_matrices "
                         "generalized_adjacency generalized_degree generalized_laplacian "
                         "opposing_laplacian partner_laplacian partner_network "
                         "repelling_laplacian sym_eigen sym_eigvals z_transform_network",
            "spectral": "PartnerCore PolarizationCertificate Verdict certify "
                        "clear_partner_cache effective_resistance partner_core pseudoinverse "
                        "psd_simple_zero",
            "dynamics": "DIVERGENCE_LIMIT OutcomeKind OutcomeReport Termination Trajectory "
                        "assess closed_form_state default_step integrate predict_final",
            "fileio": "DATA_DIR_ENV Report ScenarioConfig dump_network highland_path "
                      "load_highland load_network load_state_file loads_network "
                      "report_to_json run_pipeline trajectory_to_csv",
        }
        names = {name: home for home, text in homes.items() for name in text.split()}
        assert len(names) == 86
        assert sorted(gqsbnet.__all__) == sorted([*homes, *names])
        for name in gqsbnet.__all__:
            module = importlib.import_module(f"gqsbnet.{names.get(name, name)}")
            assert getattr(gqsbnet, name) is (module if name in homes else vars(module)[name])
        assert set(gqsbnet.__all__) <= set(dir(gqsbnet))
        with pytest.raises(AttributeError, match="no attribute 'absent'"):
            gqsbnet.absent

    def test_main_leaves_the_collector_alone(self, allneg_file, unstable_file, capsys):
        # only entry(), on its way out of the process, freezes the heap
        before = gc.isenabled(), gc.get_freeze_count()
        for argv, status in ((["classify", "--network", allneg_file], 0),
                             (["report", "--network", allneg_file, "--dominant", "0,1",
                               "--dt", "0.01"], 0),
                             (["certify", "--network", unstable_file, "--dominant", "0,1"], 2),
                             (["classify", "--network", allneg_file + ".ghost"], 1)):
            assert main(argv) == status
            assert (gc.isenabled(), gc.get_freeze_count()) == before



def _assert_close(got, want, path="report"):
    """Two parsed JSON documents alike but for numbers, which agree within
    1e-12 of the larger of 1 and the expected value (an integral float
    renders as an integer)."""
    number = (int, float)
    if isinstance(want, number) and not isinstance(want, bool):
        assert isinstance(got, number) and not isinstance(got, bool), path
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (path, got, want)
        return
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_close(a, b, f"{path}[{k}]")
    else:
        assert got == want, path


class TestReportsAgainstBlockSearch:
    """Report bytes depend on the integrator only through its stop, its
    termination and its final state: on the partner's eigendecomposition
    (Lanczos capped and its modes refused), the node-space block search,
    kept in the tests as an oracle, gives the same bytes; on the Krylov
    modes the same documents, with every number within 1e-12 of its
    scale."""

    @staticmethod
    def _assert_same_bytes(monkeypatch, run):
        real = run()
        with monkeypatch.context() as patch:
            patch.setattr(gqsbnet.dynamics, "_KRYLOV_STEPS", 1)
            patch.setattr(gqsbnet.dynamics, "_krylov_modes", lambda *args: None)
            exact = run()
            patch.setattr(gqsbnet.dynamics, "integrate", reference_block_integrate)
            ref = run()
        assert len(real) == len(exact) == len(ref)
        integrated = 0
        for got, eigh, want in zip(real, exact, ref):
            for detail in DETAILS:
                assert report_to_json(eigh, detail) == report_to_json(want, detail)
                _assert_close(json.loads(report_to_json(got, detail)),
                              json.loads(report_to_json(want, detail)))
            if want.trajectory is not None:
                integrated += 1
                last = trajectory_to_csv(want.trajectory).splitlines()[-1]
                assert trajectory_to_csv(eigh.trajectory).splitlines()[-1] == last
                row = trajectory_to_csv(got.trajectory).splitlines()[-1]
                _assert_close([float(v) for v in row.split(",")],
                              [float(v) for v in last.split(",")])
        assert integrated

    def test_highland(self, monkeypatch):
        configs = [ScenarioConfig("highland", (0,), gamma=gamma, seed=seed)
                   for gamma in (1.5, 2.0, 3.0, 4.0) for seed in (0, 7)]
        self._assert_same_bytes(monkeypatch,
                                lambda: [fileio.run_pipeline(c) for c in configs])

    def test_two_bloc_sweep(self, monkeypatch, tmp_path):
        g, _ = random_bloc_graph(np.random.default_rng(3), 200, 2)
        path = tmp_path / "bloc200.txt"
        path.write_text(dump_network(g))
        bundle = generalized_laplacian(g, bipartition_from_dominant(g, (0,)), 2.0)
        radius = float(np.max(np.abs(bundle.partner.eigenvalues)))
        for multiple in (1.0, 2.0):
            config = ScenarioConfig(str(path), (0,), dt=multiple / radius)
            self._assert_same_bytes(
                monkeypatch, lambda: list(fileio.run_sweep(config, [1.5, 2.0, 3.0])))
