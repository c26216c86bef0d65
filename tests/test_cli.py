import contextlib
import csv
import hashlib
import io
import math
import os
import re
import shutil
import threading
import warnings
import weakref

import numpy as np
import pytest

from adasize import RiskSpec, agd_params, bench, ckernel, data, erm, iterations_generic, solvers, \
    statistical_accuracy, verify
from adasize.cli import main
from adasize.data import Dataset, generate_synthetic, parse_sparse_text
from adasize.schedule import gd_contraction_factor


# the spec `bounds` builds from its default flags
UNIT = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=1.0)


def run_cli(args):
    return main(args)


def _precondition_warning(violated=True):
    """The SVRG contraction precondition warning, expected where an svrg run violates it."""
    if not violated:
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="precondition")


def test_no_arguments_prints_usage_and_fails(capsys):
    assert run_cli([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["bounds", "--N", "1024", "--m0", "256", "--frobnicate"]) == 1


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    assert run_cli(["run", "--out", str(tmp_path)]) == 1
    assert "dataset" in capsys.readouterr().err


@pytest.mark.parametrize("label_map", ["a:1", "0:-1,8:2"])
def test_malformed_label_map_is_usage_error(tmp_path, capsys, label_map):
    data_file = tmp_path / "raw.svm"
    data_file.write_text("0 1:1\n8 2:1\n")
    assert run_cli(["run", "--dataset", str(data_file), "--label-map", label_map,
                    "--m0", "1", "--out", str(tmp_path)]) == 1
    assert "--label-map" in capsys.readouterr().err


def test_index_above_int32_exits_2_with_its_line(tmp_path, capsys):
    data_file = tmp_path / "big_index.svm"
    data_file.write_text("+1 1:1\n-1 2:1\n+1 99999999999:1\n")
    out = tmp_path / "out"
    assert run_cli(["run", "--dataset", str(data_file), "--m0", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: feature index 99999999999") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-INF", "nan", "NaN", "1e999"])
def test_non_finite_feature_exits_2_with_its_line(tmp_path, capsys, value):
    # bad input, not divergence: refused by the parser, before any numpy warning
    data_file = tmp_path / "non_finite.svm"
    data_file.write_text(f"+1 1:1\n-1 2:1\n+1 1:0.5 2:{value}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--dataset", str(data_file), "--m0", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 3: feature value '{value}' is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--m0", "0"],
    ["run", "--eval-every", "0"],
    ["run", "--N", "-5"],
    ["run", "--gamma", "-1"],
    ["run", "--alpha", "2"],
    ["run", "--c", "0"],
    ["run", "--pass-cap", "-1"],
    ["run", "--wstar", "-1"],  # also under the threshold budget, which never reads it
    ["compare", "--m0", "0"],
    ["verify", "--m0", "0"],
    ["verify", "--N", "-5"],
    ["verify", "--draws", "0"],
    ["verify", "--trials", "0"],
    ["bounds", "--m0", "0"],
    ["bounds", "--wstar", "-1"],
], ids=" ".join)
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv):
    data = ["--N", "64", "--m0", "16"] if argv[0] == "bounds" else ["--gen", "64,4,1.0"]
    assert run_cli(argv[:1] + data + argv[1:] + ["--out", str(tmp_path)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exhausted_adaptive_stage_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solvers, "MAX_ITERATIONS", 50)
    assert run_cli(["run", "--gen", "256,4,1.0", "--m0", "128", "--gamma", "1e-30", "--adaptive",
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n=128 stopped after 50 iterations" in err and "above its threshold" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,loss,tight", [
    # the compare case diverged with numpy overflow warnings while M = 1 went unchecked
    (["compare", "--gen", "512,12,1.0", "--loss", "squared", "--m0", "64"], "squared", "27.458"),
    (["run", "--gen", "64,4,0.5", "--m0", "32"], "logistic", "2.61708"),
    (["verify", "--gen", "256,6,1.0", "--checks", "fd", "--trials", "2"], "logistic", "4.49626"),
], ids=["compare", "run", "verify"])
def test_paper_mode_below_the_raw_rows_constant_exits_2(tmp_path, capsys, argv, loss, tight):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--no-normalize", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --m-mode paper takes M = 1, below the tight smoothness constant {tight} of the "
        f"{loss} loss on these unnormalized rows; pass --m-mode tight, or drop --no-normalize\n")
    assert not out.exists()


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("rows", ["raw_within_m", "normalized"])
def test_paper_mode_runs_where_m_holds(tmp_path, loss, rows):
    # raw rows of squared norm 0.5 have constants 0.125 and 0.5; normalized rows are
    # not checked, since their squared-loss constant computes to 1 plus a few ulps
    if rows == "raw_within_m":
        data_file = tmp_path / "small.svm"
        data_file.write_text("".join(f"{'+1' if i % 3 else '-1'} 1:0.5 {2 + i % 4}:0.5\n"
                                     for i in range(32)))
        flags = ["--dataset", str(data_file), "--no-normalize"]
    else:
        normalized = data.normalize(generate_synthetic(64, 4, 1.0, seed=0)[0])
        assert erm.smoothness_constant("squared", normalized) == 1.0000000000000004
        flags = ["--gen", "64,4,1.0"]
    assert run_cli(["run", *flags, "--loss", loss, "--m0", "16", "--out", str(tmp_path)]) == 0


def test_paper_scale_gen_exits_2_before_allocating(tmp_path, capsys):
    # 24 TB of dense arrays: refused by the size check, never allocated
    assert run_cli(["run", "--gen", "1000000,1000000,0.001", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "needs about 24000000000000 bytes" in err and "physical memory" in err
    assert "--dataset" in err
    assert list(tmp_path.iterdir()) == []


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 1.00 TiB for an array")


class _FailingDraw:
    """A generator whose (n, dim) draw fails as an allocation beyond memory does."""

    default_rng = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self._rng = self.default_rng(seed)

    def standard_normal(self, size=None):
        if isinstance(size, tuple):
            _no_memory()
        return self._rng.standard_normal(size)


def test_failed_parser_reservation_exits_2(tmp_path, capsys, monkeypatch):
    if ckernel.get() is None:
        pytest.skip(ckernel.reason)
    data_file = tmp_path / "train.svm"
    data_file.write_text("+1 1:1\n-1 2:1\n" * 8)  # 112 bytes
    monkeypatch.setattr(ckernel.np, "empty", _no_memory)
    out = tmp_path / "out"
    assert run_cli(["run", "--dataset", str(data_file), "--m0", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out of memory parsing {data_file}: the C parser needs about ")
    assert err.endswith("9 times the text's 112\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gen"])
def test_failed_draw_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(np.random, "default_rng", _FailingDraw)
    out = tmp_path / "out"
    assert run_cli([command, "--gen", "64,4,1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory drawing --gen 64,4,1.0: Unable to allocate 1.00 TiB " \
                  "for an array\n"
    assert not out.exists()


def _seventeen_digit_file(tmp_path):
    """A file of `gen`'s %.17g values: about 24 bytes of text per nonzero, against 12 parsed."""
    path = tmp_path / "train.svm"
    path.write_text(generate_synthetic(1000, 40, 0.5, seed=2)[0].to_sparse_text())
    return path


def _manifest_sha256(out) -> str:
    (line,) = [ln for ln in (out / "manifest_run_seed0.txt").read_text().splitlines()
               if ln.startswith("dataset_sha256 = ")]
    return line.split(" = ")[1]


def test_file_is_parsed_and_hashed_to_its_last_byte(tmp_path, monkeypatch):
    # the last value, 17 digits on the strtod path, ends at the file's last byte
    last = "-1 3:0.12345678901234567"
    rows = "+1 1:0.25 2:-3\n-1 2:0.5\n" * (4096 // 24)
    rows = rows[:rows.rindex("\n", 0, 4096 - len(last)) + 1]
    text = rows + "\n" * (4096 - len(rows) - len(last)) + last
    path = tmp_path / "pages.svm"
    path.write_bytes(text.encode())
    assert path.stat().st_size == 4096
    loaded, normalize = [], data.normalize
    monkeypatch.setattr(data, "normalize", lambda d: loaded.append(d) or normalize(d))
    assert run_cli(["run", "--dataset", str(path), "--method", "gd", "--m0", "8",
                    "--out", str(tmp_path / "out")]) == 0
    assert _manifest_sha256(tmp_path / "out") == hashlib.sha256(text.encode()).hexdigest()
    monkeypatch.setattr(ckernel, "get", lambda: None)
    assert loaded == [parse_sparse_text(text)]


@pytest.mark.parametrize("change", ["truncate", "append"])
@pytest.mark.parametrize("comment", [False, True], ids=["c_parser", "line_parser"])
def test_file_that_changes_size_while_it_is_read_exits_2(tmp_path, capsys, monkeypatch, change,
                                                         comment):
    if ckernel.get() is None:
        pytest.skip("the file changes between two chunks of the C parser; " + ckernel.reason)
    rows = generate_synthetic(1000, 40, 0.5, seed=2)[0].to_sparse_text().splitlines(keepends=True)
    if comment:  # the C parser refuses that chunk, and the line parser reads the file again
        rows[200] = rows[200].rstrip() + " # a comment\n"
    path = tmp_path / "train.svm"
    path.write_text("".join(rows))
    size = path.stat().st_size
    read = size // 2 if change == "truncate" else size + 700
    monkeypatch.setattr(data, "PARSE_CHUNK_BYTES", 4096)
    fed, feed = [], ckernel.TextParse.feed

    def feed_then_change(self, chunk):
        fed.append(bytes(chunk))
        if len(fed) == 2:
            if change == "truncate":
                os.truncate(path, read)
            else:
                with open(path, "ab") as f:
                    f.write(b"+1 1:1\n" * 100)
        return feed(self, chunk)

    monkeypatch.setattr(ckernel.TextParse, "feed", feed_then_change)
    out = tmp_path / "out"
    assert run_cli(["run", "--dataset", str(path), "--method", "gd", "--m0", "500",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path} changed size while it was read ({size} bytes at open, {read} read)"]
    assert not out.exists()
    assert (b"# a comment" in fed[-1]) == comment


def test_empty_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.svm"
    path.write_bytes(b"")
    assert run_cli(["run", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: no samples in input\n"


@pytest.mark.parametrize("bad, error", [
    (b"\x00", "line 2: invalid feature token"), ("\u00e9".encode(), "line 2: invalid feature token"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 13"),
], ids=["nul", "non_ascii", "not_utf8"])
def test_file_with_a_byte_the_c_parser_refuses_reaches_the_line_parser(tmp_path, capsys, bad,
                                                                      error):
    path = tmp_path / "bad.svm"
    path.write_bytes(b"+1 1:1\n-1 2:2" + bad + b"\n")
    assert run_cli(["run", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


def test_dataset_from_a_fifo(tmp_path, monkeypatch):
    text = generate_synthetic(64, 5, 1.0, seed=3)[0].to_sparse_text()
    path = tmp_path / "fifo.svm"
    os.mkfifo(path)

    def write():
        with open(path, "w") as f:
            f.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert run_cli(["run", "--dataset", str(path), "--method", "gd", "--m0", "16",
                        "--out", str(tmp_path / "out")]) == 0
    finally:
        # a writer still waiting for a reader gets one, so the thread can end
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert _manifest_sha256(tmp_path / "out") == hashlib.sha256(text.encode()).hexdigest()


def test_unsplit_set_is_dropped_before_smoothness_constant(tmp_path, monkeypatch):
    path = _seventeen_digit_file(tmp_path)
    unsplit, alive = [], []
    split, smoothness = data.shuffle_and_split, erm.smoothness_constant

    def traced_split(d, *args, **kwargs):
        unsplit.append(weakref.ref(d.x.data))  # the normalized values, held by d alone
        return split(d, *args, **kwargs)

    monkeypatch.setattr(data, "shuffle_and_split", traced_split)
    monkeypatch.setattr(erm, "smoothness_constant",
                        lambda *args: alive.append(unsplit[0]() is not None) or smoothness(*args))
    assert run_cli(["run", "--dataset", str(path), "--method", "gd", "--m0", "500",
                    "--m-mode", "tight", "--out", str(tmp_path / "out")]) == 0
    assert alive == [False]


def test_pass_cap_zero_is_valid(tmp_path):
    assert run_cli(["run", "--gen", "64,4,1.0", "--method", "gd", "--pass-cap", "0",
                    "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trace_gd_fix_seed0.csv").read_text().count("\n") == 1


class TestGen:
    def test_writes_parseable_file(self, tmp_path, capsys):
        assert run_cli(["gen", "--gen", "50,6,1.0", "--seed", "3",
                        "--out", str(tmp_path)]) == 0
        path = tmp_path / "synthetic_50x6_seed3.svm"
        assert path.exists()
        ds = parse_sparse_text(path.read_text())
        assert ds.n_samples == 50 and ds.dim == 6

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(["gen", "--gen", "40,5,0.8", "--seed", "9",
                     "--out", str(tmp_path / sub)])
        a = (tmp_path / "a" / "synthetic_40x5_seed9.svm").read_bytes()
        b = (tmp_path / "b" / "synthetic_40x5_seed9.svm").read_bytes()
        assert a == b


class TestBounds:
    # with M = c = gamma = 1 every stage below n = 2500 violates the SVRG precondition

    def test_protocol_table(self, capsys):
        with pytest.warns(RuntimeWarning, match="precondition"):
            assert run_cli(["bounds", "--N", "10000", "--m0", "400",
                            "--alpha", "0.5", "--c", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # header + 6 stages + 2 totals
        assert len(lines) == 9
        assert lines[1].lstrip().startswith("400")
        assert lines[6].lstrip().startswith("10000")
        assert "not a power of two" in out
        assert "total_svrg_grad_evals = 93691.6" in out
        assert "precondition" not in out  # the warnings go to stderr only

    def test_power_of_two_totals(self, capsys):
        with pytest.warns(RuntimeWarning, match="precondition"):
            assert run_cli(["bounds", "--N", "10000", "--m0", "625"]) == 0
        out = capsys.readouterr().out
        assert "total_agd_grad_evals = 1.57193e+06" in out

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "bounds.csv"
        with pytest.warns(RuntimeWarning, match="precondition"):
            assert run_cli(["bounds", "--N", "1024", "--m0", "256",
                            "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,V_n,threshold")
        assert len(lines) == 4

    def test_csv_table_protocol(self, tmp_path):
        rows, caught = _bounds_csv(tmp_path, 10000, 400)
        assert [int(r["n"]) for r in rows] == [400, 800, 1600, 3200, 6400, 10000]
        # one warning for each stage whose svrg_rho is at least 1/2, and only for those
        warned = [int(re.search(r"at n=(\d+)", str(w.message)).group(1)) for w in caught]
        assert warned == [int(r["n"]) for r in rows if float(r["svrg_rho"]) >= 0.5]
        assert warned == [400, 800, 1600]
        last = rows[-1]
        assert last["s_agd"] == "24"
        assert last["s_svrg"] == "3"
        assert last["svrg_q"] == "10000"
        assert last["threshold"] == f"{math.sqrt(2) * 0.01:.6g}"
        eta, beta = agd_params(UNIT, 400)
        assert (rows[0]["agd_eta"], rows[0]["agd_beta"]) == (f"{eta:.6g}", f"{beta:.6g}")

    def test_csv_generic_column_uses_gd_rate(self, tmp_path):
        rows, _ = _bounds_csv(tmp_path, 1024, 256)
        for r in rows:
            rho = gd_contraction_factor(UNIT, int(r["n"]))
            assert r["s_generic"] == str(iterations_generic(rho, UNIT))


def _bounds_csv(tmp_path, N: int, m0: int):
    """The rows of `bounds --csv` at the default spec, and the warnings it raised."""
    csv_path = tmp_path / "bounds.csv"
    with pytest.warns(RuntimeWarning, match="precondition") as caught:
        assert run_cli(["bounds", "--N", str(N), "--m0", str(m0), "--csv", str(csv_path)]) == 0
    return list(csv.DictReader(io.StringIO(csv_path.read_text()))), caught


class TestRun:
    def test_adaptive_run_outputs(self, tmp_path, capsys):
        code = run_cli(["run", "--gen", "512,8,1.0", "--method", "agd", "--adaptive",
                        "--m0", "128", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        trace = tmp_path / "trace_agd_ada_seed5.csv"
        assert trace.exists()
        header = trace.read_text().splitlines()[0]
        assert header == "effective_passes,grad_evals,stage_n,suboptimality,grad_norm,test_error"
        manifest = (tmp_path / "manifest_run_seed5.txt").read_text()
        assert "dataset_sha256 = " in manifest
        assert "adasize_version = " in manifest

    def test_fixed_run_naming(self, tmp_path):
        run_cli(["run", "--gen", "256,6,1.0", "--method", "gd",
                 "--m0", "64", "--seed", "2", "--out", str(tmp_path)])
        assert (tmp_path / "trace_gd_fix_seed2.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["run", "--gen", "512,8,1.0", "--method", "svrg", "--adaptive",
                "--m0", "128", "--seed", "7"]
        for sub in ("x", "y"):
            with _precondition_warning():
                assert run_cli(args + ["--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "x" / "trace_svrg_ada_seed7.csv").read_bytes()
        b = (tmp_path / "y" / "trace_svrg_ada_seed7.csv").read_bytes()
        assert a == b

    def test_N_larger_than_data_rejected(self, tmp_path):
        assert run_cli(["run", "--gen", "64,4,1.0", "--N", "128",
                        "--out", str(tmp_path)]) == 1

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASIZE_OUT", str(tmp_path / "envout"))
        run_cli(["run", "--gen", "256,6,1.0", "--method", "gd", "--m0", "64",
                 "--seed", "1"])
        assert (tmp_path / "envout" / "trace_gd_fix_seed1.csv").exists()


class TestConfigFile:
    def test_file_sets_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = svrg\nm0 = 64\nseed = 13\n# comment\n")
        out1 = tmp_path / "o1"
        with _precondition_warning():
            assert run_cli(["run", "--gen", "256,6,1.0", "--adaptive",
                            "--config", str(cfg), "--out", str(out1)]) == 0
        assert (out1 / "trace_svrg_ada_seed13.csv").exists()
        out2 = tmp_path / "o2"
        assert run_cli(["run", "--gen", "256,6,1.0", "--adaptive", "--method", "agd",
                        "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out2 / "trace_agd_ada_seed13.csv").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method svrg\n")
        assert run_cli(["run", "--gen", "64,4,1.0", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
    def test_both_spellings_read_the_file(self, tmp_path, capsys, joined):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = svrg\nseed = 13\n")
        flag = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
        with _precondition_warning():
            assert run_cli(["run", "--gen", "256,6,1.0", "--adaptive", *flag,
                            "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace_svrg_ada_seed13.csv").exists()

    def test_config_without_path_fails(self, capsys):
        assert run_cli(["run", "--gen", "64,4,1.0", "--config"]) == 1

    def test_abbreviated_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = svrg\n")
        assert run_cli(["run", "--gen", "64,4,1.0", "--conf", str(cfg),
                        "--out", str(tmp_path)]) == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["m_mode = bogus", "budget = bogus", "method = sgd"])
    def test_value_outside_choices_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--gen", "64,4,1.0", "--config", str(cfg),
                        "--out", str(out)]) == 1
        assert line.split()[0] in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("line", ["adaptive = no", "adaptive = yes", "adaptive = 1",
                                      "seed = 1.5", "m0 = 16.0", "gamma = fast", "N = ten"])
    def test_value_not_of_the_flag_type_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--gen", "64,4,1.0", "--m0", "16", "--config", str(cfg),
                        "--out", str(out)]) == 1
        assert f"config key {line.split()[0]} = " in capsys.readouterr().err
        assert not out.exists()

    def test_values_take_the_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("adaptive = TRUE\ngamma = 2\nm0 = 16\nseed = 3\n")
        assert run_cli(["run", "--gen", "64,4,1.0", "--config", str(cfg),
                        "--out", str(tmp_path / "file")]) == 0
        assert run_cli(["run", "--gen", "64,4,1.0", "--adaptive", "--gamma", "2", "--m0", "16",
                        "--seed", "3", "--out", str(tmp_path / "flags")]) == 0
        manifest = "manifest_run_seed3.txt"
        assert (tmp_path / "file" / manifest).read_text() == \
            (tmp_path / "flags" / manifest).read_text()
        cfg.write_text("adaptive = false\n")
        assert run_cli(["run", "--gen", "64,4,1.0", "--m0", "16", "--config", str(cfg),
                        "--out", str(tmp_path / "fixed")]) == 0
        assert (tmp_path / "fixed" / "trace_agd_fix_seed0.csv").exists()

    def test_top_level_config_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = svrg\n")
        out = tmp_path / "out"
        with _precondition_warning():
            assert run_cli(["--config", str(cfg), "run", "--gen", "256,6,1.0", "--adaptive",
                            "--out", str(out)]) == 0
        assert (out / "trace_svrg_ada_seed0.csv").exists()

    @pytest.mark.parametrize("command,flags", [
        ("bounds", ["--N", "1024", "--m0", "128"]),
        ("gen", ["--gen", "40,5,0.8", "--seed", "9"]),
    ])
    def test_file_supplies_required_flags(self, tmp_path, capsys, command, flags):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
        outputs = {}
        for name, given in (("flags", flags), ("file", ["--config", str(cfg)])):
            out = tmp_path / name
            out.mkdir()
            sink = ["--csv", str(out / "table.csv")] if command == "bounds" else ["--out", str(out)]
            # every stage of the bounds table, n = 128 to 1024, violates the SVRG precondition
            with (pytest.warns(RuntimeWarning, match="precondition") if command == "bounds"
                  else contextlib.nullcontext()):
                assert run_cli([command, *given, *sink]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            outputs[name] = (capsys.readouterr().out.replace(str(out), "OUT"), files)
        assert outputs["file"] == outputs["flags"]
        assert outputs["file"][1]

    @pytest.mark.parametrize("command,missing", [("bounds", "--N, --m0"), ("gen", "--gen")])
    def test_file_without_required_flags_is_usage_error(self, tmp_path, capsys, command,
                                                       missing):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 9\n")
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err

    def test_top_level_abbreviation_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = svrg\n")
        out = tmp_path / "out"
        assert run_cli(["--conf", str(cfg), "run", "--gen", "256,6,1.0", "--adaptive",
                        "--out", str(out)]) == 1
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

class TestCompare:
    def test_six_traces_and_summary(self, tmp_path, capsys):
        code = run_cli(["compare", "--gen", "512,10,1.0", "--m0", "128",
                        "--m-mode", "tight", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        for method in ("gd", "agd", "svrg"):
            assert (tmp_path / f"trace_{method}_ada_seed4.csv").exists()
            assert (tmp_path / f"trace_{method}_fix_seed4.csv").exists()
        summary = (tmp_path / "summary_seed4.csv").read_text().splitlines()
        assert summary[0] == ("method,adaptive,passes_to_VN,passes_to_min_test_error,"
                              "min_test_error,speedup_vs_fixed")
        assert len(summary) == 7
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("method")
        assert (tmp_path / "manifest_compare_seed4.txt").exists()

    def test_exhausted_config_gets_its_own_row(self, tmp_path, capsys, monkeypatch):
        # every adaptive stage stops at the cap far above its threshold; the
        # fixed runs still finish and are written
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 200)
        with _precondition_warning():
            assert run_cli(["compare", "--gen", "256,4,1.0", "--m0", "128", "--gamma", "1e-30",
                            "--adaptive", "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary_seed0.csv").read_text().splitlines()
        for method in ("gd", "agd", "svrg"):
            assert f"{method},true,exhausted,,," in summary
            assert (tmp_path / f"trace_{method}_fix_seed0.csv").exists()
            assert not (tmp_path / f"trace_{method}_ada_seed0.csv").exists()
        manifest = (tmp_path / "manifest_compare_seed0.txt").read_text()
        assert "output = summary_seed0.csv" in manifest
        assert "exhausted" in capsys.readouterr().out


class TestVerifyCommand:
    def test_fd_only(self, tmp_path, capsys):
        code = run_cli(["verify", "--gen", "256,8,1.0", "--checks", "fd",
                        "--trials", "10", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("fd_gradient_logistic,10,0,")
        report = (tmp_path / "checks_seed3.csv").read_text().splitlines()
        assert report[0] == "name,trials,violations,worst_margin,passed"
        assert len(report) == 3  # logistic + squared

    @pytest.mark.parametrize("checks", ["lema1", "", "fd,"])
    def test_unknown_check_name_is_usage_error(self, tmp_path, capsys, checks):
        code = run_cli(["verify", "--gen", "256,8,1.0", "--checks", checks,
                        "--trials", "10", "--out", str(tmp_path)])
        assert code == 1
        assert "proposition1" in capsys.readouterr().err  # the valid names are listed
        assert not (tmp_path / "checks_seed0.csv").exists()

    @pytest.mark.parametrize("checks", ["all", "lemma1", "lemma2", "proposition1", "theorem"])
    def test_N_below_four_is_usage_error(self, tmp_path, capsys, checks):
        code = run_cli(["verify", "--gen", "64,4,1.0", "--N", "3", "--checks", checks,
                        "--out", str(tmp_path)])
        assert code == 1
        assert "--N" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_N_below_four_runs_the_other_checks(self, tmp_path, capsys):
        code = run_cli(["verify", "--gen", "64,4,1.0", "--N", "3", "--checks",
                        "fd,svrg_direction", "--trials", "5", "--out", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "checks_seed0.csv").read_text().splitlines()) == 4

    def test_report_is_pinned(self, tmp_path, capsys):
        # three draws, so a change in the order of the accuracy sums shows
        code = run_cli(["verify", "--gen", "1024,10,1.0", "--m-mode", "tight", "--draws", "3",
                        "--trials", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "checks_seed0.csv").read_text().splitlines() == [
            "name,trials,violations,worst_margin,passed",
            "fd_gradient_logistic,5,0,3.24997e-08,true",
            "fd_gradient_squared,5,0,9.64602e-10,true",
            "svrg_direction_n17,5,0,9.99889e-13,true",
            "lemma1_m256_n512,32,0,0.026626,true",
            "lemma2_n256,3,0,58.4159,true",
            "proposition1_m256,3,0,1.30929,true",
            "theorem_sn_agd,3,0,0.0312498,true",
            "theorem_sn_svrg,3,0,0.03125,true",
        ]

    @pytest.mark.parametrize("checks,solves", [("fd,svrg_direction,lemma1", 0),
                                               ("lemma2,proposition1,theorem", 1)])
    def test_proxy_solved_once_when_read(self, tmp_path, capsys, monkeypatch, checks, solves):
        calls = []
        proxy = verify.unregularized_optimum_proxy
        monkeypatch.setattr(verify, "unregularized_optimum_proxy",
                            lambda *args: calls.append(args) or proxy(*args))
        with _precondition_warning("theorem" in checks):
            code = run_cli(["verify", "--gen", "256,6,1.0", "--m-mode", "tight",
                            "--checks", checks, "--draws", "1", "--trials", "2",
                            "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == solves

    def test_notes_go_to_stderr(self, tmp_path, capsys):
        with _precondition_warning():
            code = run_cli(["verify", "--gen", "1024,10,1.0", "--checks", "theorem",
                            "--draws", "1", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        rows = (tmp_path / "checks_seed0.csv").read_text().splitlines()
        assert captured.out.splitlines() == rows[1:]
        notes = [line for line in captured.err.splitlines() if line.startswith("theorem_sn_")]
        assert [line.split(": ", 1)[0] for line in notes] == ["theorem_sn_agd", "theorem_sn_svrg"]
        for line in notes:
            assert line.split(": ", 1)[1].startswith("LOW POWER (single draw); 1 draws; ")

    def test_direction_check(self, tmp_path, capsys):
        code = run_cli(["verify", "--gen", "128,6,1.0", "--checks", "svrg_direction",
                        "--trials", "10", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("svrg_direction_n17,10,0,")


def _gen_sha256(out, *flags, seed="5"):
    assert run_cli(["run", "--gen", "64,4,0.5", "--method", "gd", "--m0", "32", "--seed", seed,
                    *flags, "--out", str(out)]) == 0
    manifest = (out / f"manifest_run_seed{seed}.txt").read_text()
    (line,) = [ln for ln in manifest.splitlines() if ln.startswith("dataset_sha256 = ")]
    return line.split(" = ")[1]


class TestGenHash:
    def test_same_flags_same_hash(self, tmp_path):
        assert _gen_sha256(tmp_path / "a") == _gen_sha256(tmp_path / "b")

    def test_other_seed_other_hash(self, tmp_path):
        assert _gen_sha256(tmp_path / "a") != _gen_sha256(tmp_path / "b", seed="6")

    def test_normalization_does_not_change_it(self, tmp_path):
        # raw rows of this set have logistic constant 2.6, above paper mode's M = 1
        assert _gen_sha256(tmp_path / "a") == _gen_sha256(tmp_path / "b", "--no-normalize",
                                                           "--m-mode", "tight")

    def test_equals_the_documented_layout(self, tmp_path):
        ds, _ = generate_synthetic(64, 4, 0.5, seed=5)
        h = hashlib.sha256()
        h.update(np.array([64, 4], dtype="<i8").tobytes())
        h.update(ds.x.indptr.astype("<i8").tobytes())
        h.update(ds.x.indices.astype("<i8").tobytes())
        h.update(ds.x.data.astype("<f8").tobytes())
        h.update(ds.y.astype("<f8").tobytes())
        assert _gen_sha256(tmp_path) == h.hexdigest()

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "svrg", "--adaptive", "--m0", "64"],
        ["compare", "--m0", "64", "--m-mode", "tight"],
        ["verify", "--checks", "fd,svrg_direction", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_gen_is_never_formatted(self, tmp_path, monkeypatch, argv):
        def formatted(self):
            raise AssertionError("a --gen set was formatted as text")

        monkeypatch.setattr(Dataset, "to_sparse_text", formatted)
        with _precondition_warning(argv[0] != "verify"):
            assert run_cli(argv[:1] + ["--gen", "256,6,1.0"] + argv[1:]
                           + ["--out", str(tmp_path)]) == 0


def _command_outcome(argv, out, capsys):
    """Exit code, stdout, stderr, warnings and every output file of one command, which
    writes to an out directory that is removed after."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv + ["--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(out)
    return code, capsys.readouterr(), [str(w.message) for w in caught], files


@pytest.mark.parametrize("argv", [
    ["run", "--dataset", "{dataset}", "--method", "svrg", "--adaptive", "--m0", "64",
     "--m-mode", "tight", "--gamma", "0.1", "--seed", "3"],
    ["compare", "--gen", "512,12,0.4", "--m0", "64", "--m-mode", "tight", "--adaptive",
     "--seed", "1"],
    ["verify", "--gen", "256,6,1.0", "--m-mode", "tight", "--m0", "32", "--draws", "2",
     "--trials", "3", "--seed", "2"],
], ids=["run_svrg_dataset", "compare", "verify"])
def test_c_kernel_and_python_paths_write_the_same_outputs(tmp_path, capsys, monkeypatch, argv):
    # the C text parser and SVRG pick loop against the line parser and the numpy
    # loop, with the kernel switched off in-process as CI's kernel-off step does
    if ckernel.get() is None:
        pytest.skip(ckernel.reason)
    dataset = tmp_path / "small.svm"
    dataset.write_text(generate_synthetic(600, 40, 0.2, seed=3)[0].to_sparse_text())
    argv = [arg.format(dataset=dataset) for arg in argv]
    calls = set()
    for owner, name in ((ckernel.TextParse, "feed"), (ckernel.Kernel, "pick_loop"),
                        (solvers, "_pick_loop")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, name=name, real=real: calls.add(name) or real(*a))
    on = _command_outcome(argv, tmp_path / "out", capsys)
    assert on[0] == 0 and on[3]
    assert calls == ({"feed", "pick_loop"} if argv[0] == "run" else {"pick_loop"})
    calls.clear()
    monkeypatch.setattr(ckernel, "kernel", None)
    monkeypatch.setattr(ckernel, "_tried", True)
    assert _command_outcome(argv, tmp_path / "out", capsys) == on
    assert calls == {"_pick_loop"}


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
def test_warm_and_cold_references_give_the_same_suboptimality(tmp_path, capsys, monkeypatch,
                                                              method):
    # the reference solve starts from the run's exit measurement; from zero, its
    # risk may differ by tolerance^2 / (2 c V_N) at most, the bound reference_optimum
    # states.  At the default tolerance, 1e-10, that bound (2e-19 here) lies below
    # the risk's rounding, so both references solve to 1e-8 (bound 2.3e-15)
    tolerance, real = 1e-8, bench.reference_optimum
    argv = ["run", "--gen", "2048,20,0.5", "--method", method, "--adaptive", "--m0", "64",
            "--m-mode", "tight", "--seed", "4"]
    columns, starts = [], []
    for cold in (False, True):
        def reference(spec, view, start=None, cold=cold):
            starts.append(start)
            return real(spec, view, tolerance, None if cold else start)

        monkeypatch.setattr(bench, "reference_optimum", reference)
        code, _, _, files = _command_outcome(argv, tmp_path / "out", capsys)
        assert code == 0
        rows = csv.DictReader(io.StringIO(files[f"trace_{method}_ada_seed4.csv"].decode()))
        columns.append([float(row["suboptimality"]) for row in rows])
    assert all(isinstance(start, erm.Measurement) for start in starts)
    warm, cold = columns
    bound = tolerance**2 / (2 * UNIT.c * statistical_accuracy(UNIT, 2048))
    assert len(warm) == len(cold) > 1
    assert max(abs(a - b) for a, b in zip(warm, cold)) <= bound
