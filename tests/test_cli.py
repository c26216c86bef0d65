import hashlib
import os

import numpy as np
import pytest

from adasize import solvers, verify
from adasize.cli import main
from adasize.data import Dataset, generate_synthetic, parse_sparse_text


def run_cli(args):
    return main(args)


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


def test_paper_scale_gen_exits_2_before_allocating(tmp_path, capsys):
    # 25 TB of dense arrays: refused by the size check, never allocated
    assert run_cli(["run", "--gen", "1000000,1000000,0.001", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "needs about 25000000000000 bytes" in err and "physical memory" in err
    assert "--dataset" in err
    assert list(tmp_path.iterdir()) == []


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
    def test_protocol_table(self, capsys):
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

    def test_power_of_two_totals(self, capsys):
        assert run_cli(["bounds", "--N", "10000", "--m0", "625"]) == 0
        out = capsys.readouterr().out
        assert "total_agd_grad_evals = 1.57193e+06" in out

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--N", "1024", "--m0", "256",
                        "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,V_n,threshold")
        assert len(lines) == 4


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
        code = run_cli(["verify", "--gen", "256,6,1.0", "--m-mode", "tight", "--checks", checks,
                        "--draws", "1", "--trials", "2", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == solves

    def test_notes_go_to_stderr(self, tmp_path, capsys):
        code = run_cli(["verify", "--gen", "1024,10,1.0", "--checks", "theorem", "--draws", "1",
                        "--out", str(tmp_path)])
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
        assert _gen_sha256(tmp_path / "a") == _gen_sha256(tmp_path / "b", "--no-normalize")

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
        assert run_cli(argv[:1] + ["--gen", "256,6,1.0"] + argv[1:] + ["--out", str(tmp_path)]) == 0
