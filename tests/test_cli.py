"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import rornet
from rornet import tensor as T
from rornet.arch import _CONFIG_KEYS, ArchConfig
from rornet.cli import _arch_config, _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildCommand:
    def test_ror3_164_summary(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--depth", "164", "--levels", "3")
        assert code == 0
        assert "27x" in out.replace(" ", "") or "27" in out
        assert "root shortcuts  1" in out
        assert "middle shortcuts 3" in out
        assert "2.6M" in out

    def test_invalid_depth_exit_code_and_message(self, capsys):
        code, _, err = run_cli(capsys, "build", "--depth", "111")
        assert code == 2
        assert "6n+2" in err

    def test_wrn58_4_parameter_total(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--wrn", "58", "--width", "4",
                               "--levels", "3", "--final-type", "A")
        assert code == 0
        # honest total for this construction; the printed value matches the
        # library's own count exactly
        assert "13,603,546" in out

    def test_dump_ir(self, capsys, tmp_path):
        ir = tmp_path / "graph.jsonl"
        code, _, _ = run_cli(capsys, "build", "--depth", "14", "--dump-ir", str(ir))
        assert code == 0
        lines = ir.read_text().strip().splitlines()
        recs = [json.loads(l) for l in lines]
        assert recs[0]["op"] == "input"
        assert recs[-1]["op"] == "linear"

    def test_mixed_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("blocks_per_group=1,1,1\nlevels_m=2\nnum_classes=4\n"
                       "batch_size=16\nmax_epochs=2\nbase_lr=0.05\nseed=9\n")
        code, out, _ = run_cli(capsys, "build", "--config", str(cfg))
        assert code == 0 and "root shortcuts  1" in out
        out_dir = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--synthetic", "--samples", "32",
                     "--out-dir", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["train"]["batch_size"] == 16
        assert manifest["train"]["base_lr"] == 0.05
        assert manifest["train"]["max_epochs"] == 2
        assert manifest["seed"] == 9

    @pytest.mark.parametrize("text, line", [
        ("batch_size=16\ndepth=abc\n", 2),          # arch value, after a training key
        ("depth=20\n# augmentation\npad_crop=yes\n", 3),  # boolean training key
    ])
    def test_bad_config_value_is_config_error(self, capsys, tmp_path, text, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "build", "--config", str(cfg))
        assert code == 2
        assert f"config line {line}" in err


class TestAnalyzeCommand:
    def test_paths_via_dfs_oracle(self, capsys):
        from rornet.arch import ArchConfig, build
        from test_analysis import dfs_paths
        code, out, _ = run_cli(capsys, "analyze", "--blocks", "2,2,2",
                               "--levels", "3", "--paths")
        assert code == 0
        count = int([l for l in out.splitlines() if l.startswith("paths.total")][0].split()[-1])
        oracle = len(dfs_paths(build(ArchConfig(blocks_per_group=(2, 2, 2), levels_m=3))))
        assert count == oracle

    def test_expected_depth(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expected-depth", "--pL", "0.5",
                               "--depth", "110", "--levels", "3")
        assert code == 0
        assert "40.25" in out
        assert "54" in out

    def test_params_matches_known_rounding(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--params", "--levels", "1",
                               "--depth", "110", "--final-type", "A")
        assert code == 0
        assert "1.7" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--params", "--depth", "14",
                               "--levels", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert all("," in l for l in lines[1:])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--synthetic", "--samples", "48", "--classes", "4",
                 "--blocks", "1,1,1", "--levels", "3", "--epochs", "2",
                 "--batch-size", "16", "--out-dir", str(out), "--seed", "5"])
    assert code == 0
    return out


class TestTrainEvalCommands:

    def test_outputs_exist(self, run_dir):
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "manifest.json").exists()

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_manifest_records_the_worker_count(self, tmp_path, threads):
        # a fresh process, so the thread setting is read before numpy loads;
        # with no setting the manifest used to record "default"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(rornet.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = (["--threads", threads] if threads else []) + [
            "train", "--synthetic", "--samples", "16", "--classes", "4", "--blocks", "1,1,1",
            "--epochs", "1", "--batch-size", "8", "--out-dir", str(tmp_path)]
        subprocess.run([sys.executable, "-m", "rornet.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        recorded = json.loads((tmp_path / "manifest.json").read_text())["threads"]
        cpus = len(os.sched_getaffinity(0)) if T._blas_threads_local() else 1
        assert recorded == (1 if threads else cpus)

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["arch"]["blocks_per_group"] == [1, 1, 1]
        assert manifest["dataset"]["kind"] == "synthetic"
        assert "digests" in manifest["dataset"]
        assert len(manifest["normalization"]["mean"]) == 3

    def test_eval_reproduces_logged_test_err(self, run_dir, capsys):
        from rornet.train import MetricsLog
        log = MetricsLog.from_csv(run_dir / "metrics.csv")
        code, out, _ = run_cli(capsys, "eval", "--run-dir", str(run_dir))
        assert code == 0
        printed = float(out.split("test_err")[1].split("%")[0])
        assert printed == pytest.approx(log.rows[-1].test_err, abs=5e-5)

    def test_eval_data_flag_replaces_manifest_path(self, capsys, tmp_path):
        from rornet.data import C10_TEST_FILES, C10_TRAIN_FILES
        from rornet.train import MetricsLog
        from test_data import write_c10_fixture
        recs = [(k, lambda c, r, col, k=k: (k * 53 + c * 7 + r * 3 + col) % 256)
                for k in range(8)]
        shards = tmp_path / "shards"
        shards.mkdir()
        for name in C10_TRAIN_FILES + C10_TEST_FILES:
            write_c10_fixture(shards / name, recs)
        run = tmp_path / "run"
        code = main(["train", "--data", str(shards), "--blocks", "1,1,1", "--levels", "2",
                     "--epochs", "1", "--batch-size", "8", "--out-dir", str(run)])
        assert code == 0
        moved = shards.rename(tmp_path / "moved")
        code, out, _ = run_cli(capsys, "eval", "--run-dir", str(run), "--data", str(moved))
        assert code == 0
        printed = float(out.split("test_err")[1].split("%")[0])
        log = MetricsLog.from_csv(run / "metrics.csv")
        assert printed == pytest.approx(log.rows[-1].test_err, abs=5e-5)

    def test_eval_reads_only_the_test_split(self, capsys, tmp_path):
        from rornet.data import C10_TEST_FILES, C10_TRAIN_FILES
        from rornet.train import MetricsLog
        from test_data import write_c10_fixture
        recs = [(k, lambda c, r, col, k=k: (k * 29 + c * 5 + r + col * 3) % 256)
                for k in range(8)]
        shards = tmp_path / "shards"
        shards.mkdir()
        for name in C10_TRAIN_FILES + C10_TEST_FILES:
            write_c10_fixture(shards / name, recs)
        run = tmp_path / "run"
        code = main(["train", "--data", str(shards), "--blocks", "1,1,1", "--levels", "2",
                     "--epochs", "1", "--batch-size", "8", "--out-dir", str(run)])
        assert code == 0
        for name in C10_TRAIN_FILES:
            (shards / name).unlink()
        code, out, _ = run_cli(capsys, "eval", "--run-dir", str(run))
        assert code == 0
        printed = float(out.split("test_err")[1].split("%")[0])
        log = MetricsLog.from_csv(run / "metrics.csv")
        assert printed == pytest.approx(log.rows[-1].test_err, abs=5e-5)

    @pytest.mark.parametrize("damage,named", [
        (lambda m: "{", "not valid JSON"),
        (lambda m: json.dumps({k: v for k, v in m.items() if k != "normalization"}),
         "'normalization'"),
    ])
    def test_malformed_manifest_is_data_error(self, capsys, tmp_path, run_dir, damage, named):
        import shutil
        run = shutil.copytree(run_dir, tmp_path / "run")
        manifest = run / "manifest.json"
        manifest.write_text(damage(json.loads(manifest.read_text())))
        code, _, err = run_cli(capsys, "eval", "--run-dir", str(run))
        assert code == 3
        assert str(manifest) in err and named in err

    def test_eval_missing_run_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--run-dir", str(tmp_path / "nope"))
        assert code == 3

    def test_missing_data_dir_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "train", "--data", str(tmp_path / "absent"),
                             "--blocks", "1,1,1", "--epochs", "1",
                             "--out-dir", str(tmp_path / "o"))
        assert code == 3

    def test_sd_run_logs_gate_seeds(self, tmp_path):
        out = tmp_path / "sd"
        code = main(["train", "--synthetic", "--samples", "32", "--classes", "4",
                     "--blocks", "1,1,1", "--levels", "3", "--epochs", "2",
                     "--batch-size", "16", "--sd-pl", "0.5", "--out-dir", str(out)])
        assert code == 0
        from rornet.train import MetricsLog
        log = MetricsLog.from_csv(out / "metrics.csv")
        assert len({r.gate_seed for r in log.rows}) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train"]["sd_p_l"] == 0.5

    def test_batch_size_one_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--synthetic", "--samples", "8",
                               "--classes", "4", "--blocks", "1,1,1", "--epochs", "1",
                               "--batch-size", "1", "--out-dir", str(tmp_path / "b"))
        assert code == 2
        assert "batch size" in err

    @pytest.mark.parametrize("flags, named", [(("--milestones", "1,x"), "--milestones"),
                                              (("--milestones", "1.5"), "--milestones"),
                                              (("--lr", "nan"), "finite"),
                                              (("--weight-decay", "inf"), "finite"),
                                              (("--blocks", "1,x"), "--blocks"),
                                              (("--blocks", "a"), "--blocks")])
    def test_bad_training_flag_is_config_error(self, capsys, tmp_path, flags, named):
        code, _, err = run_cli(capsys, "train", "--synthetic", "--samples", "8",
                               "--classes", "4", "--blocks", "1,1,1", "--epochs", "2",
                               *flags, "--out-dir", str(tmp_path / "m"))
        assert code == 2
        assert named in err

    def test_milestones_flag_parses_as_the_config_key(self, capsys, tmp_path):
        # empty parts are skipped, as in a config file's milestones line
        out = tmp_path / "m"
        code, _, _ = run_cli(capsys, "train", "--synthetic", "--samples", "8",
                             "--classes", "4", "--blocks", "1,1,1", "--epochs", "2",
                             "--batch-size", "4", "--milestones", ",1", "--out-dir", str(out))
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["train"]["milestones"] == [1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numeric_failure(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--synthetic", "--samples", "32",
                               "--classes", "4", "--blocks", "1,1,1", "--epochs", "4",
                               "--batch-size", "16", "--lr", "1e18",
                               "--out-dir", str(tmp_path / "d"))
        assert code == 4

    def test_divergence_prints_only_the_clean_message(self, tmp_path):
        # a fresh process, where no warning filter of the test run applies
        env = dict(os.environ)
        src = str(Path(rornet.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "rornet.cli", "train", "--synthetic", "--samples", "32",
             "--classes", "4", "--blocks", "1,1,1", "--epochs", "4", "--batch-size", "16",
             "--lr", "1e18", "--out-dir", str(tmp_path / "d")],
            env=env, capture_output=True, text=True)
        assert done.returncode == 4
        assert "numeric failure:" in done.stderr and "(at node '" in done.stderr
        assert "Warning" not in done.stderr

    def test_non_finite_gradient_names_its_node(self, capsys, tmp_path, monkeypatch):
        # a pooling vjp that returns inf: backward stops at the node that made it
        pool = T.global_avg_pool

        def poisoned(x):
            out = pool(x)
            out._vjp = lambda g: (np.full(x.shape, np.inf, dtype=x.dtype),)
            return out

        monkeypatch.setattr(T, "global_avg_pool", poisoned)
        code, _, err = run_cli(capsys, "train", "--synthetic", "--samples", "32",
                               "--classes", "4", "--blocks", "1,1,1", "--epochs", "1",
                               "--batch-size", "16", "--out-dir", str(tmp_path / "d"))
        assert code == 4
        assert "at node 'head.gap', in backward" in err


class TestPlotCommand:
    def _write_csv(self, path, offset):
        from rornet.train import MetricsLog, MetricsRow
        log = MetricsLog()
        for e in range(12):
            log.append(MetricsRow(e, 2.0 - e * 0.1, 50 - e, 40 - e + offset, 0.1,
                                  float(e), e))
        log.to_csv(path)

    def test_two_series_svg(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_csv(a, 0)
        self._write_csv(b, 5)
        out = tmp_path / "plot.svg"
        code, _, _ = run_cli(capsys, "plot", str(a), str(b), "-o", str(out),
                             "--window", "3")
        assert code == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "a" in labels and "b" in labels

    def test_missing_csv_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "plot", str(tmp_path / "ghost.csv"),
                             "-o", str(tmp_path / "x.svg"))
        assert code == 3

    def test_csv_without_rows_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("epoch,train_loss,train_err,test_err,lr,wall_seconds,gate_seed\n")
        code, _, err = run_cli(capsys, "plot", str(path), "-o", str(tmp_path / "x.svg"))
        assert code == 3
        assert "empty.csv" in err and "no metrics rows" in err

    def test_malformed_csv_names_file_and_line(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        self._write_csv(good, 0)
        lines = good.read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(line.replace(",train_loss", ",loss") for line in lines) + "\n")
        code, _, err = run_cli(capsys, "plot", str(cut), "-o", str(tmp_path / "x.svg"))
        assert code == 3
        assert "cut.csv, line 1" in err and "train_loss" in err
        lines[4] = lines[4].replace(",0.1,", ",fast,")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "plot", str(bad), "-o", str(tmp_path / "x.svg"))
        assert code == 3
        assert "bad.csv, line 5" in err and "fast" in err

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_window_below_one_is_config_error(self, capsys, tmp_path, window):
        path = tmp_path / "a.csv"
        self._write_csv(path, 0)
        out = tmp_path / "x.svg"
        code, _, err = run_cli(capsys, "plot", str(path), "-o", str(out), "--window", window)
        assert code == 2
        assert "--window" in err and not out.exists()


# every flag that sets an ArchConfig field: flag, value, field, parsed value
ARCH_FLAGS = [("--family", "imagenet", "family", "imagenet"),
              ("--depth", "32", "depth", 32),
              ("--blocks", "2,3,4", "blocks_per_group", (2, 3, 4)),
              ("--width", "2", "width_k", 2),
              ("--levels", "2", "levels_m", 2),
              ("--order", "pre_act", "block_order", "pre_act"),
              ("--block-size", "bottleneck", "block_size", "bottleneck"),
              ("--final-type", "A", "final_shortcut", "A"),
              ("--upper-type", "A", "upper_shortcut", "A"),
              ("--classes", "100", "num_classes", 100),
              ("--sd-pl", "0.5", "sd_p_l", 0.5)]


def arch_config(*argv, command="build"):
    return _arch_config(_build_parser().parse_args([command, *argv]))


class TestArchFlags:
    def test_every_config_key_has_a_flag(self):
        assert sorted(field for _, _, field, _ in ARCH_FLAGS) == sorted(_CONFIG_KEYS)

    @pytest.mark.parametrize("command", ["build", "analyze", "train"])
    @pytest.mark.parametrize("flag, value, field, parsed", ARCH_FLAGS)
    def test_a_flag_sets_its_field_and_nothing_else(self, command, flag, value, field, parsed):
        extra = ["--out-dir", "unused"] if command == "train" else []
        got = asdict(arch_config(flag, value, *extra, command=command))
        want = asdict(ArchConfig())
        want[field] = parsed
        assert got == want

    @pytest.mark.parametrize("argv, depth, blocks, order", [
        (["--wrn", "28", "--width", "2"], 28, None, "pre_act"),
        (["--wrn", "28", "--width", "2", "--depth", "40"], 40, None, "pre_act"),
        (["--wrn", "28", "--width", "2", "--blocks", "1,2"], None, (1, 2), "pre_act"),
        (["--wrn", "28", "--width", "2", "--order", "post_act"], 28, None, "post_act"),
        (["--depth", "20", "--blocks", "1,1,1"], None, (1, 1, 1), "post_act"),
        (["--blocks", "1,1,1", "--depth", "20"], None, (1, 1, 1), "post_act"),
        (["--blocks", "", "--depth", "20"], 20, None, "post_act"),
    ])
    def test_wrn_depth_and_blocks_precedence(self, argv, depth, blocks, order):
        cfg = arch_config(*argv)
        assert (cfg.depth, cfg.blocks_per_group, cfg.block_order) == (depth, blocks, order)

    @pytest.mark.parametrize("text, flags, depth, blocks", [
        ("depth=20\n", ["--blocks", "2,2"], None, (2, 2)),
        ("blocks_per_group=2,2\n", ["--depth", "14"], 14, None),
        ("blocks_per_group=2,2\nwidth_k=2\n", ["--wrn", "16"], 16, None),
    ])
    def test_a_size_flag_replaces_the_config_file_size(self, tmp_path, text, flags, depth, blocks):
        cfg_file = tmp_path / "a.cfg"
        cfg_file.write_text(text)
        cfg = arch_config("--config", str(cfg_file), *flags)
        assert (cfg.depth, cfg.blocks_per_group) == (depth, blocks)

    def test_wrn_without_a_width_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "build", "--wrn", "28")
        assert code == 2
        assert "--wrn needs --width" in err


class TestTrainSettings:
    def _manifest(self, capsys, out, *argv):
        code, _, err = run_cli(capsys, "train", "--synthetic", "--samples", "16", "--classes", "4",
                               "--blocks", "1,1,1", *argv, "--out-dir", str(out))
        assert code == 0, err
        return json.loads((out / "manifest.json").read_text())

    def test_defaults(self, capsys, tmp_path):
        manifest = self._manifest(capsys, tmp_path, "--epochs", "1")
        train = manifest["train"]
        assert train == {"base_lr": 0.1, "milestones": [], "lr_factor": 0.1, "momentum": 0.9,
                         "weight_decay": 1e-4, "batch_size": 128, "max_epochs": 1,
                         "pad_crop": False, "hflip": False, "sd_p_l": None, "seed": 0}
        assert manifest["seed"] == 0

    def test_flags_over_config_file_keys_over_defaults(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("base_lr=0.05\nmomentum=0.5\nhflip=false\nseed=9\nlr_factor=0.2\n"
                            "max_epochs=3\nmilestones=1\nbatch_size=4\nsd_p_l=0.8\n")
        manifest = self._manifest(capsys, tmp_path / "run", "--config", str(cfg_file),
                                  "--lr", "0.02", "--epochs", "2", "--augment", "--batch-size", "8",
                                  "--weight-decay", "0.001")
        assert manifest["train"] == {"base_lr": 0.02, "milestones": [1], "lr_factor": 0.2,
                                     "momentum": 0.5, "weight_decay": 0.001, "batch_size": 8,
                                     "max_epochs": 2, "pad_crop": True, "hflip": True,
                                     "sd_p_l": 0.8, "seed": 9}
        assert manifest["seed"] == 9

    def test_config_file_pad_crop_sets_hflip_unless_the_file_says_otherwise(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("pad_crop=true\nmax_epochs=1\n")
        train = self._manifest(capsys, tmp_path / "a", "--config", str(cfg_file))["train"]
        assert (train["pad_crop"], train["hflip"]) == (True, True)
        train = self._manifest(capsys, tmp_path / "b", "--config", str(cfg_file),
                               "--no-augment", "--seed", "4", "--momentum", "0.8")["train"]
        assert (train["pad_crop"], train["hflip"], train["seed"], train["momentum"]) == (False, False, 4, 0.8)
