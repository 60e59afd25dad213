"""End-to-end command-line behavior: envelopes, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import longmem
from longmem import (
    EmbeddingParams,
    GenSpec,
    IngestOptions,
    acf_fft,
    generate,
    lyap_fit,
    parse,
    pearson,
    perm_test,
    rs_table,
    summarize,
)
from longmem.cli import main
from longmem.ingest import ON_GAP
from longmem.permtest import TAILS
from longmem.synth import KINDS, PARAMS

SRC_DIR = str(Path(longmem.__file__).resolve().parents[1])

CPC_TEXT = """SOUTHERN OSCILLATION INDEX
(STANDARDIZED DATA)

YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC
2014 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2
2015 -0.1 -0.2 -0.3 -0.4 -0.5 -0.6 -0.7 -0.8 -999.9 -999.9 -999.9 -999.9
"""

CPC_GAP_TEXT = """YEAR JAN FEB MAR APR MAY JUN JUL AUG SEP OCT NOV DEC
2014 0.1 0.2 0.3 0.4 -999.9 0.6 0.7 0.8 0.9 1.0 1.1 1.2
"""

CSV_TEXT = "2014-01,0.5\n2014-02,0.7\n2014-03,-0.1\n2014-04,0.4\n2014-05,0.9\n"


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def run_python(*args, preexec_fn=None, **env):
    """Run ``python *args`` with ``env`` added to the environment and the
    package importable; ``preexec_fn`` runs in the child before it starts."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        preexec_fn=preexec_fn,
        timeout=120,
    )


def run_module(*args, **kwargs):
    """Run ``python -m longmem``, as ``run_python`` runs its arguments."""
    return run_python("-m", "longmem", *args, **kwargs)


# a one-CPU run is only a second configuration where the test process may
# run on more than one CPU and can confine its child to one
CAN_PIN = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1


def pin_to_one_cpu():
    """Confine the calling process to the lowest-numbered CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def csv_file(tmp_path, name, start_year, n=120, seed=0):
    """White noise as ``YYYY-MM,value`` rows from January of ``start_year``."""
    values = generate(GenSpec(kind="white", n=n, seed=seed)).values
    text = "".join(
        f"{start_year + i // 12:04d}-{i % 12 + 1:02d},{float(v)!r}\n"
        for i, v in enumerate(values)
    )
    return write(tmp_path, name, text)


def gen_file(tmp_path, name, kind="white", n=256, seed=0, **extra):
    path = tmp_path / name
    spec = generate(GenSpec(kind=kind, n=n, seed=seed, **extra))
    from longmem import serialize_column

    path.write_text(serialize_column(spec), encoding="utf-8")
    return str(path)


class TestEnvelope:
    def test_json_envelope_shape(self, tmp_path, capsys):
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        argv = ["stats", "--input", path, "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        envelope = json.loads(out)
        assert set(envelope) == {
            "schema_version", "command", "inputs", "results", "warnings",
        }
        assert envelope["schema_version"] == 1
        assert envelope["command"] == shlex.join(["longmem", *argv])
        assert envelope["warnings"] == []
        digest = envelope["inputs"][0]
        assert digest["path"] == path
        assert digest["rows"] == 20  # trailing sentinel months trimmed
        assert digest["sha256"] == hashlib.sha256(CPC_TEXT.encode()).hexdigest()

    def test_digest_is_of_the_bytes_on_disk(self, tmp_path, capsys):
        # CRLF lines: a text-mode read would hash the translated LF text
        raw = CSV_TEXT.replace("\n", "\r\n").encode()
        path = tmp_path / "crlf.csv"
        path.write_bytes(raw)
        code, out = run(capsys, "stats", "--input", str(path), "--format", "json")
        assert code == 0
        digest = json.loads(out)["inputs"][0]
        assert digest["sha256"] == hashlib.sha256(raw).hexdigest()
        assert digest["rows"] == 5

    def test_byte_order_mark_is_dropped_and_digested(self, tmp_path, capsys):
        # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(CSV_TEXT.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + CSV_TEXT.encode())
        envelopes = []
        for path in (plain, marked):
            code, out = run(capsys, "stats", "--input", str(path), "--format", "json")
            assert code == 0
            envelopes.append(json.loads(out))
        assert envelopes[1]["results"] == envelopes[0]["results"]
        digest = envelopes[1]["inputs"][0]
        assert digest["sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()
        assert digest["rows"] == 5

    def test_json_numbers_round_trip_bit_exact(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=128, seed=3)
        code, out = run(
            capsys, "acf", "--input", path, "--max-lag", "20", "--format", "json"
        )
        assert code == 0
        coeffs = json.loads(out)["results"]["coefficients"]
        expected = acf_fft(generate(GenSpec(kind="white", n=128, seed=3)), 20)
        assert coeffs == list(expected.coefficients)

    def test_json_writes_non_finite_as_null(self, tmp_path, capsys):
        # quantized AR(1) at a tiny radius: step 0 of the curve has no
        # non-tied neighbour, so its S is nan
        values = np.round(generate(GenSpec(kind="ar1", n=776, seed=1, phi=0.7)).values, 1)
        path = write(tmp_path, "ar.txt", "".join(f"{v!r}\n" for v in values.tolist()))
        argv = ["lyap", "--input", path, "--m", "1", "--eps", "0.01"]
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0

        def refuse(token):
            raise AssertionError(f"non-JSON token {token}")

        s_values = json.loads(out, parse_constant=refuse)["results"]["curves"][0]["s_values"]
        assert s_values[0] is None
        assert all(isinstance(s, float) for s in s_values[1:])
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert "curves.0.s_values.0,nan" in out.splitlines()

    def test_csv_format(self, tmp_path, capsys):
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        code, out = run(capsys, "stats", "--input", path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"n", "mean", "std_dev", "cv_percent"} <= keys

    def test_table_format_lists_fields(self, tmp_path, capsys):
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        code, out = run(capsys, "stats", "--input", path)
        assert code == 0
        assert "mean" in out and "std" in out


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path, capsys):
        x = gen_file(tmp_path, "x.txt", n=120, seed=1)
        y = gen_file(tmp_path, "y.txt", n=120, seed=2)
        argv = (
            "permtest", "--x", x, "--y", y,
            "--n-perm", "300", "--seed", "4", "--format", "json",
        )
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_table_rerun_identical(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=512, seed=6)
        argv = ("hurst", "--input", path)
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_long_series_stdout_independent_of_blas_threads(self, tmp_path):
        """``permtest`` and ``acf --method direct`` at 20 000 samples print the
        same bytes with one OpenBLAS thread, with two, and on one CPU.

        OpenBLAS splits a dot product of more than 10 000 samples over its
        threads, and the last bits follow their count; ``core._dot`` gives it
        at most 8192 samples at a time. On a machine with a single CPU
        OpenBLAS runs one thread under either setting, so there this test
        cannot fail. The chunk size rests on OpenBLAS's threading threshold,
        and each numpy ships its own OpenBLAS. The one-CPU run is skipped
        where the test process cannot be confined to one CPU of several,
        after the thread-count runs are compared.
        """
        x = gen_file(tmp_path, "x.txt", n=20_000, seed=1)
        y = gen_file(tmp_path, "y.txt", n=20_000, seed=2)
        for argv in (
            ("permtest", "--x", x, "--y", y, "--n-perm", "100", "--format", "json"),
            ("acf", "--input", x, "--method", "direct", "--max-lag", "50", "--format", "json"),
        ):
            runs = [
                run_module(*argv, OPENBLAS_NUM_THREADS="1"),
                run_module(*argv, OPENBLAS_NUM_THREADS="2"),
            ]
            if CAN_PIN:
                runs.append(run_module(*argv, preexec_fn=pin_to_one_cpu))
            for proc in runs:
                assert proc.returncode == 0, proc.stderr
                assert proc.stdout == runs[0].stdout, argv[0]
        if not CAN_PIN:
            pytest.skip("the process cannot be confined to one CPU of several")

    @pytest.mark.skipif(not CAN_PIN, reason="the process cannot be confined to one CPU of several")
    @pytest.mark.parametrize("n, n_perm", [(4096, 1001), (776, 1001), (60, 1001), (40_000, 201)])
    def test_permtest_stdout_same_on_one_cpu(self, tmp_path, n, n_perm):
        """``permtest`` runs its keyed blocks of permutations on one thread per
        usable CPU, at most four, and on one CPU all of them on the calling
        thread; the envelope is the same bytes either way.

        Blocks hold 16383 // n permutations (at least one): 3 at 4096
        samples, 21 at the paper's 776, 273 at 60 and 1 at 40 000.
        """
        x = gen_file(tmp_path, "x.txt", n=n, seed=3)
        y = gen_file(tmp_path, "y.txt", n=n, seed=4)
        argv = ("permtest", "--x", x, "--y", y, "--n-perm", str(n_perm), "--format", "json")
        threaded = run_module(*argv)
        serial = run_module(*argv, preexec_fn=pin_to_one_cpu)
        assert threaded.returncode == 0 and serial.returncode == 0, (
            threaded.stderr + serial.stderr
        )
        assert serial.stdout == threaded.stdout
        # the pinned child sees one CPU, so it starts no worker thread
        usable = run_python(
            "-c", "from longmem import permtest; print(permtest._usable_cpus())",
            preexec_fn=pin_to_one_cpu,
        )
        assert usable.stdout == b"1\n", usable.stderr


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
        assert main(["acf", "--input", "x", "--max-lag", "ten"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "error, code",
        [
            (longmem.ParseError, 2),
            (longmem.ValidationError, 3),
            (longmem.NumericError, 4),
            (longmem.EpsTooSmallError, 4),
        ],
    )
    def test_library_error_exits_with_its_class_code(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        def refuse(*args, **kwargs):
            raise error("refused")

        assert error.exit_code == code
        monkeypatch.setattr(longmem.cli, "summarize", refuse)
        assert main(["stats", "--input", gen_file(tmp_path, "w.txt", n=16)]) == code
        assert capsys.readouterr().err == "error: refused\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_help_lists_every_subcommand_and_library_choice(self, capsys, monkeypatch):
        from longmem import permtest

        # a run adds only its own subcommand's options; help must not show it
        assert main(["--help"]) == 0
        assert "{stats,acf,hurst,suite,lyap,permtest,gen}" in capsys.readouterr().out
        assert main(["gen", "--help"]) == 0
        gen_help = " ".join(capsys.readouterr().out.split())
        assert "--kind {" + ",".join(KINDS) + "}" in gen_help
        for name, text in PARAMS.items():  # "--h H fgn: target h in (0, 1)"
            assert f"--{name} {name.upper()} {text}" in gen_help
        # the --n-perm help states permtest's block and thread constants, patched here
        monkeypatch.setattr(permtest, "_BLOCK_SAMPLES", 5000)
        monkeypatch.setattr(permtest, "_MAX_THREADS", 6)
        assert main(["permtest", "--help"]) == 0
        permtest_help = " ".join(capsys.readouterr().out.split())
        assert "--tail {" + ",".join(TAILS) + "}" in permtest_help
        assert "in blocks of max(1, 5000 // length) on up to 6 threads" in permtest_help

    @pytest.mark.parametrize(
        "args, value",
        [(["acf", "--max-lag", "5", "--band", "1-2"], "1-2"), (["lyap", "--fit", "1-4"], "1-4")],
        ids=["acf band", "lyap fit"],
    )
    def test_bad_integer_pair_exits_two(self, tmp_path, capsys, args, value):
        path = gen_file(tmp_path, "w.txt", n=64)
        assert main([args[0], "--input", path, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected LO:HI integers, got {value!r}" in captured.err

    @pytest.mark.parametrize(
        "year, last",
        [("1951.0", "1.2"), ("l951", "1.2"), ("1951.0", "_5")],
        ids=["1951.0", "l951", "1951.0-non-value token"],
    )
    def test_malformed_first_year_row_exits_two(self, tmp_path, capsys, year, last):
        # twelve values after a bad year are a year row, not a caption to skip,
        # and so are twelve tokens of any kind after a year that is a number
        values = " 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1"
        good = f"1952{values} 1.2\n"
        path = write(tmp_path, "bad.txt", f"{year}{values} {last}\n{good}")
        assert main(["stats", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: expected a year row, got {year!r}\n"

    def test_malformed_table_exits_two(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.txt",
            "2014 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n"
            "2016 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n",
        )
        assert main(["stats", "--input", path]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text",
        [
            "2014 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.2\n"
            "2015 0.1 0.2 0.3 0.4 0.5 x 0.7 0.8 0.9 1.0 1.1 1.2\n",
            "2014-01,0.5\n2014-02,x\n",
            "0.5\nx\n",
        ],
        ids=["cpc_table", "csv_pair", "column"],
    )
    def test_bad_value_token_exits_two_naming_it(self, tmp_path, capsys, text):
        path = write(tmp_path, "bad.txt", text)
        assert main(["stats", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: bad value 'x'\n"

    def test_unsupported_layout_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "slash.csv", "1951/01,1.0\n1951/02,2.0\n")
        assert main(["stats", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: unsupported layout starting '1951/01,1.0'")

    @pytest.mark.parametrize("fmt", ["auto", "csv_pair"])
    def test_csv_row_with_three_fields_exits_two(self, tmp_path, capsys, fmt):
        path = write(tmp_path, "three.csv", "1951-01,1.0\n1951-02,2.0,3.0\n")
        assert main(["stats", "--input", path, "--input-format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 2: expected 'YYYY-MM,value', got '1951-02,2.0,3.0'\n"
        )

    @pytest.mark.parametrize("fmt", ["column", "csv_pair"])
    def test_comment_only_document_exits_two(self, tmp_path, capsys, fmt):
        path = write(tmp_path, "empty.txt", "# monthly index\n\n# no rows yet\n")
        assert main(["stats", "--input", path, "--input-format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no data rows found\n"

    def test_missing_file_exits_three(self, tmp_path, capsys):
        assert main(["stats", "--input", str(tmp_path / "nope.txt")]) == 3
        capsys.readouterr()

    def test_interior_gap_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "gap.txt", CPC_GAP_TEXT)
        assert main(["stats", "--input", path]) == 3
        capsys.readouterr()

    def test_constant_series_exits_four(self, tmp_path, capsys):
        path = write(tmp_path, "flat.txt", "\n".join(["1.0"] * 64) + "\n")
        assert main(["hurst", "--input", path]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [["stats"], ["acf", "--max-lag", "10"], ["hurst"], ["suite"], ["lyap"], ["permtest"]],
        ids=lambda args: args[0],
    )
    def test_constant_series_read_alike_at_any_value(self, tmp_path, capsys, args):
        # numpy's variance of 776 copies of 0.7 is about 1e-32, of 1.0 exactly 0
        outcomes = []
        for value in ("0.7", "1.0"):
            path = write(tmp_path, f"flat{value}.txt", "\n".join([value] * 776) + "\n")
            if args[0] == "permtest":
                argv = ["permtest", "--x", path, "--y", gen_file(tmp_path, "w.txt", n=776)]
            else:
                argv = [args[0], "--input", path, *args[1:]]
            code = main(argv)
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if args[0] == "stats" else 4)

    def test_undecodable_file_exits_two_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1.0\n\xff2.0\n")
        assert main(["stats", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is not UTF-8 text: byte 4 is 0xff\n"

    def test_undecodable_file_with_byte_order_mark_names_the_files_byte(self, tmp_path, capsys):
        path = tmp_path / "bom-latin1.txt"
        path.write_bytes(b"\xef\xbb\xbf1.0\n\xff2.0\n")
        assert main(["stats", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: byte 7 is 0xff\n"

    def test_eps_too_small_exits_four(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=256, seed=0)
        assert main(["lyap", "--input", path, "--eps", "1e-12"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("layout", ["cpc_table", "csv_pair", "column"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [3, 11])
    def test_non_finite_value_exits_three(self, tmp_path, capsys, layout, token, index):
        # last value included: a non-finite value is data, never a trailing absence
        tokens = ["0.5", "0.25"] * 6
        tokens[index] = token
        if layout == "cpc_table":
            text = "2014 " + " ".join(tokens) + "\n"
        elif layout == "csv_pair":
            text = "".join(f"2014-{i + 1:02d},{t}\n" for i, t in enumerate(tokens))
        else:
            text = "\n".join(tokens) + "\n"
        path = write(tmp_path, "x.txt", text)
        assert main(["stats", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: series contains non-finite values\n"

    def test_non_finite_missing_sentinel_exits_three(self, tmp_path, capsys):
        # with no usable sentinel the -999.9 pad months would be read as data
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        assert main(["stats", "--input", path, "--missing-sentinel", "nan"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: missing_sentinel must be finite, got nan\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["stats", "--resolution", "inf"], "mode_resolution must be finite, got inf"),
            (["stats", "--resolution", "1e-300"], "mode_resolution 1e-300 is too fine"),
            (["stats", "--range", "1951-13:1952-06"], "range start month 13 outside 1..12"),
            (["lyap", "--m", "1", "--eps", "1e-3", "--dt", "inf", "--fit", "0:4"],
             "dt must be finite, got inf"),
            (["lyap", "--dt", "1e-320", "--fit", "0:2"], "dt 1e-320 is too small"),
            (["lyap", "--eps", "inf"], "eps must be finite, got inf"),
            (["lyap", "--grid", "eps=0.3,inf"], "eps must be finite, got inf"),
            (["lyap", "--grid", "eps=0.3,nan"], "eps must be finite, got nan"),
            (["lyap", "--grid", "eps=0.2;eps=0.3"], "grid axis 'eps' given twice"),
            (["lyap", "--grid", ""], "bad grid axis ''"),
            (["lyap", "--grid", "eps=0.3,0.30"], "grid axis 'eps' repeats a value"),
            (["lyap", "--grid", "m=2,3;refs=50,050"], "grid axis 'refs' repeats a value"),
            (["lyap", "--grid", "m=a"], "bad grid values in 'm=a'"),
            (["lyap", "--grid", "m="], "empty grid axis 'm='"),
            (["hurst", "--min-window", "1"], "min_window must be at least 2"),
            # the curve file is written before the envelope, so nothing is printed
            (["acf", "--max-lag", "5", "--out", "missing/c.txt"], "cannot write missing/c.txt"),
        ],
        ids=["resolution inf", "resolution 1e-300", "range month 13", "dt inf", "dt 1e-320",
             "eps inf", "grid eps inf", "grid eps nan", "grid axis twice", "grid empty",
             "grid eps value twice", "grid refs value twice", "grid bad value",
             "grid axis without values", "hurst min-window 1", "out in a missing directory"],
    )
    def test_refused_parameter_exits_three(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)  # relative paths resolve in the test's directory
        path = gen_file(tmp_path, "log.txt", kind="logistic", n=2000)
        if "--range" in args:
            path = write(tmp_path, "soi.txt", CPC_TEXT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([args[0], "--input", path, *args[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["stats"],
            ["acf", "--max-lag", "10"],
            ["hurst"],
            ["suite"],
            ["lyap"],
            ["permtest"],
        ],
        ids=lambda args: args[0],
    )
    def test_huge_samples_exit_three(self, tmp_path, capsys, args):
        # a centred sum of squares of these samples overflows float64
        values = 1e200 * np.random.default_rng(0).standard_normal(776)
        path = write(tmp_path, "huge.txt", "\n".join(map(repr, values.tolist())) + "\n")
        if args[0] == "permtest":
            argv = ["permtest", "--x", path, "--y", gen_file(tmp_path, "w.txt", n=776)]
        else:
            argv = [args[0], "--input", path, *args[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: samples reach 3.9e+200 in magnitude; 776 samples may reach "
            "at most 2**500/n = 4.22e+147\n"
        )

    @pytest.mark.parametrize(
        "args",
        [["stats"], ["acf", "--max-lag", "10"], ["hurst"], ["suite"], ["lyap"], ["permtest"]],
        ids=lambda args: args[0],
    )
    def test_tiny_samples_exit_three(self, tmp_path, capsys, args):
        # the squares of these samples underflow, so their variance reads 0
        values = 1e-170 * np.random.default_rng(0).standard_normal(776)
        path = write(tmp_path, "tiny.txt", "\n".join(map(repr, values.tolist())) + "\n")
        if args[0] == "permtest":
            argv = ["permtest", "--x", path, "--y", gen_file(tmp_path, "w.txt", n=776)]
        else:
            argv = [args[0], "--input", path, *args[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: samples reach only 3.9e-170 in magnitude; nonzero samples "
            "must reach at least 2**-400 = 3.87e-121\n"
        )

    def test_stats_of_huge_samples_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "huge.txt", "1e300\n-1e300\n1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["stats", "--input", path, "--resolution", "1e300"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: samples reach 1e+300 in magnitude; 3 samples may reach "
            "at most 2**500/n = 1.09e+150\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["--dt", "inf", "--fit", "0:4"],
            ["--dt", "0", "--fit", "0:4"],
            ["--fit", "0:20"],
            ["--fit", "1:2"],
            ["--grid", "steps=12,4", "--fit", "0:4"],
            # (m-1)*d + s = 2001 reaches the length; m=1,2,3 come first
            ["--grid", "m=1,2,3,1990", "--fit", "0:4"],
        ],
        ids=[
            "dt inf", "dt 0", "fit past the steps", "fit of 2 steps", "grid steps",
            "grid too long for the series",
        ],
    )
    def test_bad_fit_exits_three_before_any_curve(self, tmp_path, capsys, monkeypatch, args):
        import longmem.cli

        path = gen_file(tmp_path, "log.txt", kind="logistic", n=2000)
        calls = []
        real = longmem.cli.lyap_k

        def counting(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(longmem.cli, "lyap_k", counting)
        code = main(["lyap", "--input", path, "--m", "1", "--eps", "1e-3", *args])
        captured = capsys.readouterr()
        assert code == 3, captured.err
        assert captured.err.count("\n") == 1
        assert calls == []

    def test_too_fine_resolution_prints_one_line(self, tmp_path):
        # a separate process, so that a numpy warning would reach stderr
        path = gen_file(tmp_path, "w.txt", n=64)
        proc = run_module("stats", "--input", path, "--resolution", "1e-300")
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "error: mode_resolution 1e-300 is too fine for this series: "
            "its grid index reaches 2**53"
        ]


PERMTEST_ARGV = ["permtest", "--x", "x.txt", "--y", "y.txt"]


class TestParserDefaults:
    """Option defaults and choices come from the library, not copies."""

    def test_lyap_defaults_are_embedding_params(self):
        from longmem.cli import _GRID_FIELDS, _build_parser

        ns = _build_parser("lyap").parse_args(["lyap", "--input", "x.txt"])
        default = EmbeddingParams()
        for name, (field, cast, _) in _GRID_FIELDS.items():
            assert getattr(ns, name) == getattr(default, field)
            assert type(getattr(ns, name)) is cast
        assert ns.seed == default.seed
        assert ns.random_refs == default.random_sample

    def test_on_gap_choices_are_the_ingest_policies(self):
        from longmem.cli import _build_parser

        [subparsers] = _build_parser("stats")._subparsers._group_actions
        [action] = [a for a in subparsers.choices["stats"]._actions if a.dest == "on_gap"]
        assert tuple(action.choices) == ON_GAP
        assert action.default == IngestOptions(format="auto").on_gap

    @pytest.mark.parametrize(
        "argv, dest, owner, name",
        [
            pytest.param(
                ["stats", "--input", "x.txt"], "missing_sentinel", IngestOptions,
                "missing_sentinel", id="missing-sentinel",
            ),
            pytest.param(
                ["stats", "--input", "x.txt"], "resolution", summarize, "mode_resolution",
                id="resolution",
            ),
            pytest.param(
                ["hurst", "--input", "x.txt"], "min_window", rs_table, "min_window",
                id="min-window",
            ),
            pytest.param(PERMTEST_ARGV, "n_perm", perm_test, "n_perm", id="n-perm"),
            pytest.param(PERMTEST_ARGV, "seed", perm_test, "seed", id="permtest-seed"),
            pytest.param(PERMTEST_ARGV, "tail", perm_test, "tail", id="tail"),
            pytest.param(["lyap", "--input", "x.txt"], "dt", lyap_fit, "dt", id="dt"),
            pytest.param(
                ["gen", "--kind", "white", "--n", "10"], "seed", GenSpec, "seed", id="gen-seed",
            ),
        ],
    )
    def test_default_is_the_librarys(self, argv, dest, owner, name):
        from longmem.cli import _build_parser

        ns = _build_parser(argv[0]).parse_args(argv)
        expected = inspect.signature(owner).parameters[name].default
        assert getattr(ns, dest) == expected
        assert type(getattr(ns, dest)) is type(expected)


# Each library name ``benchmarks/tracing.py`` wraps on ``longmem.cli``
# (its LIBRARY_CALLS) and a command that calls it; the command's inputs
# are made by ``traced_command``.
TRACED_CALLS = {
    "parse": "stats",
    "summarize": "stats",
    "acf_fft": "acf",
    "first_zero_crossing": "acf",
    "band_mean": "acf",
    "rs_table": "hurst",
    "fit_h": "hurst",
    "hurst_suite": "suite",
    "lyap_k": "lyap",
    "lyap_fit": "lyap",
    "perm_test": "permtest",
    "generate": "gen",
    "serialize_column": "gen",
}


def traced_command(tmp_path, command):
    white = gen_file(tmp_path, "w.txt", n=256, seed=0)
    if command == "permtest":
        other = gen_file(tmp_path, "w2.txt", n=256, seed=1)
        return ["permtest", "--x", white, "--y", other, "--n-perm", "100"]
    if command == "gen":
        return ["gen", "--kind", "white", "--n", "8"]
    if command == "lyap":
        logistic = gen_file(tmp_path, "log.txt", kind="logistic", n=2000)
        return ["lyap", "--input", logistic, "--m", "1", "--eps", "1e-3", "--fit", "0:4"]
    extra = {"acf": ["--max-lag", "8", "--band", "1:4"]}.get(command, [])
    return [command, "--input", white, *extra]


class TestTracerContract:
    """A tracer wraps library names on ``longmem.cli`` before ``main`` runs.

    Subcommands read every library name as an attribute of ``longmem.cli``
    through ``_lib``: a name bound there, such as this wrapper, is the one
    called, and any other resolves through the package's lazy lookup. So
    each name must resolve before ``main`` runs, and the wrapper set in its
    place must be the function the subcommand calls.
    """

    @pytest.mark.parametrize("name", sorted(TRACED_CALLS))
    def test_wrapper_set_before_main_is_called(self, name, tmp_path, capsys, monkeypatch):
        argv = traced_command(tmp_path, TRACED_CALLS[name])
        import longmem.cli

        # unbind the analysis modules' names, as in a process that has not run main
        for module in ("acf", "chaos", "hurst", "permtest", "synth"):
            for bound in longmem._EXPORTS[module]:
                monkeypatch.delitem(vars(longmem.cli), bound, raising=False)
        assert hasattr(longmem.cli, name)
        real = getattr(longmem.cli, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(longmem.cli, name, wrapper)
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert calls, f"{' '.join(argv[:1])} did not call the wrapped {name}"

    def test_unknown_name_raises_attribute_error(self):
        import longmem.cli

        assert not hasattr(longmem.cli, "no_such_call")

    @pytest.mark.parametrize(
        "command, parses",
        [("stats", 1), ("acf", 1), ("hurst", 1), ("suite", 1), ("lyap", 1),
         ("permtest", 2), ("resultant", 3), ("gen", 0)],
    )
    def test_each_named_file_is_parsed_once(self, command, parses, tmp_path, capsys, monkeypatch):
        if command == "resultant":
            argv = traced_command(tmp_path, "permtest")
            v = gen_file(tmp_path, "w3.txt", n=256, seed=2)
            at = argv.index("--y")
            argv[at : at + 2] = ["--resultant", argv[at + 1], v]
        else:
            argv = traced_command(tmp_path, command)
        import longmem.cli

        real = longmem.cli.parse
        texts = []

        def counting(text, opts):
            texts.append(text)
            return real(text, opts)

        monkeypatch.setattr(longmem.cli, "parse", counting)
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert len(texts) == parses


class TestWarnings:
    def test_truncation_warning_in_all_formats(self, tmp_path, capsys):
        path = write(tmp_path, "gap.txt", CPC_GAP_TEXT)
        base = ["stats", "--input", path, "--on-gap", "truncate_at_first_gap"]
        code, table = run(capsys, *base)
        assert code == 0
        assert "warning [TRUNCATED_AT_GAP]:" in table
        _, as_json = run(capsys, *base, "--format", "json")
        codes = [w["code"] for w in json.loads(as_json)["warnings"]]
        assert codes == ["TRUNCATED_AT_GAP"]
        _, as_csv = run(capsys, *base, "--format", "csv")
        assert "warning.TRUNCATED_AT_GAP," in as_csv

    def test_range_clipped_warning_in_all_formats(self, tmp_path, capsys):
        path = csv_file(tmp_path, "fifties.csv", 1950)
        base = ["stats", "--input", path, "--range", "1940-01:1951-12"]
        code, table = run(capsys, *base)
        assert code == 0
        assert (
            "warning [RANGE_CLIPPED]: range 1940-01:1951-12 reaches past the "
            "data; delivered 1950-01:1951-12"
        ) in table
        _, as_json = run(capsys, *base, "--format", "json")
        envelope = json.loads(as_json)
        assert [w["code"] for w in envelope["warnings"]] == ["RANGE_CLIPPED"]
        assert envelope["results"]["n"] == 24
        _, as_csv = run(capsys, *base, "--format", "csv")
        assert "warning.RANGE_CLIPPED," in as_csv


    def test_negative_exponent_has_no_fractal_quantities(self, tmp_path, capsys):
        # a fast sine fits h = -0.0186, which fractal_dimension refuses
        path = gen_file(tmp_path, "s.txt", kind="sine", n=776, period=2.5)
        code, table = run(capsys, "hurst", "--input", path)
        assert code == 0
        assert "\nfractal_dimension    -\n" in table
        assert "warning [H_OUT_OF_RANGE]:" in table
        _, as_json = run(capsys, "hurst", "--input", path, "--format", "json")
        results = json.loads(as_json)["results"]
        assert results["h"] < 0.0
        assert results["fractal_dimension"] is None
        assert results["fractal_correlation"] is None

    def test_fit_warning_comes_before_the_tables(self, tmp_path, capsys):
        # a sine of period 3 whose last block of 8 is flat fits h = -0.068
        x = generate(GenSpec(kind="sine", n=776, period=3.0)).values.copy()
        x[-8:] = x[:-8].mean()
        path = write(tmp_path, "s.txt", "".join(f"{v!r}\n" for v in x.tolist()))
        _, as_json = run(capsys, "hurst", "--input", path, "--format", "json")
        assert [(w["code"], w["message"][:16]) for w in json.loads(as_json)["warnings"]] == [
            ("H_OUT_OF_RANGE", "fitted exponent "),
            ("SKIPPED_BLOCKS", "1 zero-variance "),
        ]
        _, table = run(capsys, "hurst", "--input", path)
        assert table.index("[H_OUT_OF_RANGE]") < table.index("[SKIPPED_BLOCKS]")

    def test_parse_warnings_come_before_the_analysis_warnings(self, tmp_path, capsys):
        # a flat first block of 16 is skipped by the R/S pass, after the
        # parser has cut the series at the gap that follows the 300 values
        x = generate(GenSpec(kind="white", n=300, seed=0)).values.copy()
        x[:16] = 0.25
        text = "".join(f"{v!r}\n" for v in x.tolist()) + "-999.9\n1.0\n"
        path = write(tmp_path, "gap.txt", text)
        argv = ["hurst", "--input", path, "--on-gap", "truncate_at_first_gap"]
        code, as_json = run(capsys, *argv, "--format", "json")
        assert code == 0
        codes = [w["code"] for w in json.loads(as_json)["warnings"]]
        assert codes == ["TRUNCATED_AT_GAP", "SKIPPED_BLOCKS"]
        _, table = run(capsys, *argv)
        assert table.index("[TRUNCATED_AT_GAP]") < table.index("[SKIPPED_BLOCKS]")


class TestFormatsAndRange:
    def test_sniffing_handles_all_layouts(self, tmp_path, capsys):
        for name, text, rows in [
            ("cpc.txt", CPC_TEXT, 20),
            ("pair.csv", CSV_TEXT, 5),
            ("col.txt", "0.5\n-0.25\n1.75\n", 3),
        ]:
            path = write(tmp_path, name, text)
            _, out = run(capsys, "stats", "--input", path, "--format", "json")
            assert json.loads(out)["inputs"][0]["rows"] == rows

    def test_explicit_format_overrides_sniff(self, tmp_path, capsys):
        path = write(tmp_path, "pair.csv", CSV_TEXT)
        code, _ = run(
            capsys, "stats", "--input", path, "--input-format", "csv_pair"
        )
        assert code == 0

    def test_range_clips_series(self, tmp_path, capsys):
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        _, out = run(
            capsys, "stats", "--input", path,
            "--range", "2014-03:2014-07", "--format", "json",
        )
        envelope = json.loads(out)
        assert envelope["inputs"][0]["rows"] == 5
        assert envelope["results"]["n"] == 5

    def test_bad_range_syntax_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "soi.txt", CPC_TEXT)
        assert main(["stats", "--input", path, "--range", "2014-03"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "span, code",
        [
            ("1951-1:1951-4", 0),
            ("+1951-01:1951-04", 2),
            ("51-01:52-01", 2),
            ("1951-01:1951-4x", 2),
            ("1951-13:1952-01", 3),
        ],
    )
    def test_range_reads_months_as_csv_pair_dates(self, tmp_path, capsys, span, code):
        # a csv_pair date and a --range end are read by the same rule
        path = csv_file(tmp_path, "fifties.csv", 1951)
        assert main(["stats", "--input", path, "--range", span, "--format", "json"]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert json.loads(out)["results"]["n"] == 4


class TestCurveOutputs:
    def test_acf_curve_file(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=64, seed=1)
        out_path = tmp_path / "acf.txt"
        run(capsys, "acf", "--input", path, "--max-lag", "5", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert len(lines) == 6
        lag, r = lines[0].split()
        assert lag == "0" and float(r) == 1.0
        # repr serialization: reading the file back loses nothing
        expected = acf_fft(generate(GenSpec(kind="white", n=64, seed=1)), 5)
        assert [float(line.split()[1]) for line in lines] == list(expected.coefficients)

    def test_acf_band_reported(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=128, seed=2)
        _, out = run(
            capsys, "acf", "--input", path, "--max-lag", "20",
            "--band", "5:10", "--format", "json",
        )
        band = json.loads(out)["results"]["band"]
        assert band["lo"] == 5 and band["hi"] == 10
        assert -1.0 <= band["mean"] <= 1.0

    def test_hurst_curve_file(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=512, seed=4)
        out_path = tmp_path / "rs.txt"
        run(capsys, "hurst", "--input", path, "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        windows = [int(line.split()[0]) for line in lines]
        assert windows[0] == 8 and windows[-1] == 512
        assert all(float(line.split()[1]) > 0 for line in lines)

    def test_lyap_curve_file_and_fit(self, tmp_path, capsys):
        path = gen_file(tmp_path, "log.txt", kind="logistic", n=5000, seed=0)
        out_path = tmp_path / "s.txt"
        code, out = run(
            capsys, "lyap", "--input", path, "--m", "1", "--theiler", "10",
            "--eps", "1e-3", "--steps", "8", "--fit", "0:4",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        curve = json.loads(out)["results"]["curves"][0]
        assert curve["fit"]["chaos_consistent"] is True
        assert curve["fit"]["lambda1"] == pytest.approx(np.log(2.0), abs=0.1)
        lines = out_path.read_text().splitlines()
        assert [int(line.split()[0]) for line in lines] == list(range(8))
        assert [float(line.split()[1]) for line in lines] == curve["s_values"]

    def test_lyap_grid_blocks(self, tmp_path, capsys):
        path = gen_file(tmp_path, "log.txt", kind="logistic", n=2000, seed=0)
        out_path = tmp_path / "grid.txt"
        code, out = run(
            capsys, "lyap", "--input", path, "--m", "1", "--theiler", "10",
            "--steps", "6", "--grid", "eps=0.01,0.02",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        curves = json.loads(out)["results"]["curves"]
        assert [c["params"]["eps"] for c in curves] == [0.01, 0.02]
        text = out_path.read_text()
        assert text.count("# m=1") == 2  # one header per grid member
        assert "\n\n" in text  # blank line between blocks

    def test_lyap_grid_keeps_curves_when_one_eps_fails(self, tmp_path, capsys):
        path = gen_file(tmp_path, "white.txt", n=776, seed=3)
        base = ["lyap", "--input", path, "--grid", "eps=0.01,0.5"]
        message = (
            "no reference point had 4 neighbors within eps=0.01; "
            "largest neighborhood found held 1"
        )
        warning = f"m=2 d=1 theiler=12 eps=0.01 refs=200 steps=12: {message}"
        out_path = tmp_path / "grid.txt"
        code, as_json = run(capsys, *base, "--format", "json", "--out", str(out_path))
        assert code == 0
        envelope = json.loads(as_json)
        failed, kept = envelope["results"]["curves"]
        assert failed == {"params": failed["params"], "error": message}
        assert failed["params"]["eps"] == 0.01
        assert kept["params"]["eps"] == 0.5 and len(kept["s_values"]) == 12
        assert envelope["warnings"] == [{"code": "EPS_TOO_SMALL", "message": warning}]
        blocks = out_path.read_text().split("\n\n")
        assert blocks[0].splitlines()[1] == f"# error: {message}"
        assert len(blocks[1].splitlines()) == 13  # header and 12 steps
        code, table = run(capsys, *base)
        assert code == 0
        assert f"error: {message}" in table
        assert f"warning [EPS_TOO_SMALL]: {warning}" in table
        assert table.count(" step ") == 1
        code, as_csv = run(capsys, *base, "--format", "csv")
        assert code == 0
        assert f"curves.0.error,{message}" in as_csv
        assert "curves.0.s_values" not in as_csv and "curves.1.s_values.11," in as_csv
        assert f'warning.EPS_TOO_SMALL,"{warning}"' in as_csv

    def test_lyap_on_tied_quantized_input_writes_no_warning(self, tmp_path, capsys):
        # one decimal and eps below the quantum: every neighbour ties its
        # reference, so no reference has a live gap at step 0
        values = np.round(generate(GenSpec(kind="ar1", n=776, phi=0.7, seed=1)).values, 1)
        path = write(tmp_path, "q.txt", "".join(f"{v!r}\n" for v in values.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["lyap", "--input", path, "--m", "1", "--eps", "0.01"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines()[2].split() == ["0", "nan", "0"]

    def test_lyap_grid_exits_four_when_every_eps_fails(self, tmp_path, capsys):
        path = gen_file(tmp_path, "white.txt", n=776, seed=3)
        out_path = tmp_path / "grid.txt"
        argv = ["lyap", "--input", path, "--grid", "eps=1e-12,0.01", "--out", str(out_path)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no reference point had 4 neighbors within eps=1e-12")
        assert not out_path.exists()

    def test_bad_grid_axis_exits_three(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=256, seed=0)
        assert main(["lyap", "--input", path, "--grid", "epsilon=0.1"]) == 3
        capsys.readouterr()

    def test_theiler_window_that_excludes_every_pair_exits_three(self, tmp_path, capsys):
        # no radius helps, so this is a refused parameter (3), not a radius
        # too small (4); a grid refuses it before its first curve
        path = gen_file(tmp_path, "w.txt", n=300, seed=5)
        out_path = tmp_path / "grid.txt"
        for extra in (["--theiler", "1000000"], ["--grid", "theiler=12,1000000"]):
            assert main(["lyap", "--input", path, *extra, "--out", str(out_path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: theiler window 1000000 excludes every pair")
            assert not out_path.exists()

    def test_permtest_curve_file(self, tmp_path, capsys):
        x = gen_file(tmp_path, "x.txt", n=80, seed=1)
        y = gen_file(tmp_path, "y.txt", n=80, seed=2)
        out_path = tmp_path / "null.txt"
        run(
            capsys, "permtest", "--x", x, "--y", y,
            "--n-perm", "150", "--out", str(out_path),
        )
        lines = out_path.read_text().splitlines()
        assert len(lines) == 150
        assert [int(line.split()[0]) for line in lines] == list(range(1, 151))
        values = [float(line.split()[1]) for line in lines]
        assert values == sorted(values)


class TestSuiteCommand:
    def test_five_labelled_estimates(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=1024, seed=0)
        code, out = run(capsys, "suite", "--input", path)
        assert code == 0
        for label in (
            "Simple R/S Hurst estimation",
            "Corrected R over S Hurst exponent",
            "Empirical Hurst exponent",
            "Corrected empirical Hurst exponent",
            "Theoretical Hurst exponent",
        ):
            assert label in out

    def test_json_fields(self, tmp_path, capsys):
        path = gen_file(tmp_path, "w.txt", n=1024, seed=0)
        _, out = run(capsys, "suite", "--input", path, "--format", "json")
        results = json.loads(out)["results"]
        assert set(results) >= {
            "h_simple", "h_corrected_rs", "h_empirical",
            "h_corrected_empirical", "h_theoretical",
        }


class TestPermtestCommand:
    def test_resultant_combines_components(self, tmp_path, capsys):
        x = gen_file(tmp_path, "x.txt", n=100, seed=1)
        u = gen_file(tmp_path, "u.txt", n=100, seed=2)
        v = gen_file(tmp_path, "v.txt", n=100, seed=3)
        _, out = run(
            capsys, "permtest", "--x", x, "--resultant", u, v,
            "--n-perm", "200", "--format", "json",
        )
        envelope = json.loads(out)
        assert len(envelope["inputs"]) == 3
        x_vals = generate(GenSpec(kind="white", n=100, seed=1)).values
        u_vals = generate(GenSpec(kind="white", n=100, seed=2)).values
        v_vals = generate(GenSpec(kind="white", n=100, seed=3)).values
        expected = pearson(x_vals, np.hypot(u_vals, v_vals))
        assert envelope["results"]["r_obs"] == expected

    def test_y_and_resultant_mutually_exclusive(self, tmp_path, capsys):
        x = gen_file(tmp_path, "x.txt", n=64, seed=1)
        assert main(["permtest", "--x", x]) == 2
        capsys.readouterr()
        assert (
            main(["permtest", "--x", x, "--y", x, "--resultant", x, x]) == 2
        )
        capsys.readouterr()

    def test_different_calendars_exit_three(self, tmp_path, capsys):
        fifties = csv_file(tmp_path, "fifties.csv", 1950, seed=1)
        sixties = csv_file(tmp_path, "sixties.csv", 1960, seed=2)
        code = main(["permtest", "--x", fifties, "--y", sixties, "--n-perm", "200"])
        assert code == 3
        err = capsys.readouterr().err
        assert "starts 1950-01" in err and "starts 1960-01" in err

    def test_same_calendar_pairs(self, tmp_path, capsys):
        x = csv_file(tmp_path, "x.csv", 1950, seed=1)
        y = csv_file(tmp_path, "y.csv", 1950, seed=2)
        code, out = run(
            capsys, "permtest", "--x", x, "--y", y, "--n-perm", "200", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"]["n"] == 120

    def test_resultant_calendars_checked(self, tmp_path, capsys):
        x = csv_file(tmp_path, "x.csv", 1950, seed=1)
        u = csv_file(tmp_path, "u.csv", 1950, seed=2)
        v = csv_file(tmp_path, "v.csv", 1960, seed=3)
        late_u = csv_file(tmp_path, "late_u.csv", 1960, seed=4)
        column_u = gen_file(tmp_path, "column_u.txt", n=120, seed=5)
        # u vs v, then x vs the resultant, which keeps u's anchor or else v's
        for components in ((u, v), (late_u, v), (column_u, v)):
            argv = ["permtest", "--x", x, "--resultant", *components, "--n-perm", "200"]
            assert main(argv) == 3
            assert "different months" in capsys.readouterr().err

    def test_columns_pair_by_position(self, tmp_path, capsys):
        x = csv_file(tmp_path, "x.csv", 1950, seed=1)
        y = gen_file(tmp_path, "y.txt", n=120, seed=2)
        code, _ = run(capsys, "permtest", "--x", x, "--y", y, "--n-perm", "200")
        assert code == 0

    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "seed must be non-negative, got -1"),
         (str(2**64), f"seed must be below 2**64, got {2**64}")],
    )
    def test_out_of_range_seed_exits_three(self, tmp_path, capsys, seed, message):
        # the seed is Philox's first key word as given, never folded mod 2**64
        x = gen_file(tmp_path, "x.txt", n=100, seed=1)
        y = gen_file(tmp_path, "y.txt", n=100, seed=2)
        code = main(["permtest", "--x", x, "--y", y, "--n-perm", "100", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_worker_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        # at 2048 samples a second thread runs half the permutations; its
        # failed allocation is the caller's one error line
        from longmem import permtest

        real = permtest._keyed

        def unallocatable(seed, indices):
            if indices.start > 0:
                raise MemoryError("Unable to allocate 16.0 KiB")
            return real(seed, indices)

        monkeypatch.setattr(permtest, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(permtest, "_keyed", unallocatable)
        x = gen_file(tmp_path, "x.txt", n=2048, seed=1)
        y = gen_file(tmp_path, "y.txt", n=2048, seed=2)
        code = main(["permtest", "--x", x, "--y", y, "--n-perm", "100"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: not enough memory: Unable to allocate 16.0 KiB\n"

    @pytest.mark.parametrize("n_perm", [str(2**60), "99999999999999999999"])
    def test_n_perm_beyond_any_array_exits_three(self, tmp_path, capsys, n_perm):
        x = gen_file(tmp_path, "x.txt", n=100, seed=1)
        y = gen_file(tmp_path, "y.txt", n=100, seed=2)
        assert main(["permtest", "--x", x, "--y", y, "--n-perm", n_perm]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: n_perm {n_perm} is too large: ")
        assert captured.err.count("\n") == 1

    def test_mismatched_resultant_lengths_exit_three(self, tmp_path, capsys):
        x = gen_file(tmp_path, "x.txt", n=100, seed=1)
        u = gen_file(tmp_path, "u.txt", n=100, seed=2)
        v = gen_file(tmp_path, "v.txt", n=90, seed=3)
        assert main(
            ["permtest", "--x", x, "--resultant", u, v, "--n-perm", "200"]
        ) == 3
        capsys.readouterr()


class TestGenCommand:
    def test_stdout_column_round_trips_bit_exact(self, tmp_path, capsys):
        code, out = run(capsys, "gen", "--kind", "white", "--n", "16", "--seed", "9")
        assert code == 0
        parsed = parse(out, IngestOptions(format="column"))
        expected = generate(GenSpec(kind="white", n=16, seed=9))
        assert np.array_equal(parsed.series.values, expected.values)
        # the recipe label travels as a comment header
        assert out.startswith("# synthetic white (n=16, seed=9)\n")

    def test_out_writes_file_and_envelope(self, tmp_path, capsys):
        out_path = tmp_path / "fgn.txt"
        code, out = run(
            capsys, "gen", "--kind", "fgn", "--n", "64", "--seed", "2",
            "--h", "0.7", "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kind"] == "fgn" and results["h"] == 0.7
        parsed = parse(out_path.read_text(), IngestOptions(format="column"))
        expected = generate(GenSpec(kind="fgn", n=64, seed=2, h=0.7))
        assert np.array_equal(parsed.series.values, expected.values)

    def test_generated_file_feeds_other_commands(self, tmp_path, capsys):
        path = gen_file(tmp_path, "ar.txt", kind="ar1", n=512, seed=0, phi=0.6)
        code, out = run(
            capsys, "acf", "--input", path, "--max-lag", "1", "--format", "json"
        )
        assert code == 0
        r1 = json.loads(out)["results"]["coefficients"][1]
        assert r1 == pytest.approx(0.6, abs=0.08)

    def test_invalid_parameters_exit_three(self, capsys):
        assert main(["gen", "--kind", "fgn", "--n", "100"]) == 3  # missing h
        capsys.readouterr()
        assert main(["gen", "--kind", "fgn", "--n", "100", "--h", "1.0"]) == 3
        capsys.readouterr()
        assert main(["gen", "--kind", "fgn", "--n", "5000", "--h", "0.7"]) == 0
        capsys.readouterr()
        # numpy's seeding would raise an untyped error
        assert main(["gen", "--kind", "white", "--n", "8", "--seed", "-1"]) == 3
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_unallocatable_length_exits_three(self, capsys):
        # 8 PB exceeds any address space: the allocation fails at once
        assert main(["gen", "--kind", "white", "--n", "1000000000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", [str(2**60), "99999999999999999999"])
    @pytest.mark.parametrize(
        "kind_args", [["white"], ["sine", "--period", "12"], ["logistic"], ["fgn", "--h", "0.7"]]
    )
    def test_length_beyond_any_array_exits_three(self, capsys, kind_args, n):
        # numpy could not size the array, so nothing is allocated
        assert main(["gen", "--kind", *kind_args, "--n", n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: n {n} is too large: ")
        assert captured.err.count("\n") == 1

    def test_parameters_the_kind_ignores_exit_three(self, tmp_path, capsys):
        out_path = tmp_path / "w.txt"
        argv = ["gen", "--kind", "white", "--n", "4", "--h", "0.7", "--phi", "0.3"]
        assert main([*argv, "--out", str(out_path), "--format", "json"]) == 3
        assert capsys.readouterr().out == ""
        assert not out_path.exists()


    def test_sine_period_with_overflowing_phase_exits_three_without_warnings(self):
        proc = run_module(
            "gen", "--kind", "sine", "--period", "1e-308", "--n", "10", PYTHONWARNINGS="error"
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: sine period 1e-308 is too small for n=10: "
            b"the phase 2*pi*(n-1)/period overflows\n"
        )


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        proc = run_module("gen", "--kind", "white", "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"# synthetic white (n=4, seed=0)\n")

    def test_fgn_stdout_independent_of_blas_threads(self):
        argv = ("gen", "--kind", "fgn", "--n", "4096", "--h", "0.7", "--seed", "11")
        one = run_module(*argv, OPENBLAS_NUM_THREADS="1")
        two = run_module(*argv, OPENBLAS_NUM_THREADS="2")
        assert one.returncode == 0 and two.returncode == 0
        assert one.stdout == two.stdout
