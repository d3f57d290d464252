import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surfacefuse.checkpoint import load_checkpoint, save_checkpoint
from surfacefuse.cli import main


def run_config(data_dir, out_dir, mode="none", steps=12, d_model=16, extra_fusion=None,
               vocab=0):
    fusion = {"mode": mode}
    if extra_fusion:
        fusion.update(extra_fusion)
    return {
        "seed": 3,
        "out": str(out_dir),
        "data": {"dir": str(data_dir)},
        "model": {"n_enc_layers": 2, "n_dec_layers": 2, "d_model": d_model, "n_heads": 2,
                  "d_ff": 32, "max_len": 24, "vocab_src": vocab, "vocab_tgt": vocab},
        "fusion": fusion,
        "train": {"steps": steps, "max_tokens": 128, "eval_interval": 6, "warmup": 5,
                  "lr": 0.002},
    }


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def run_cli(*argv):
    """`python -m surfacefuse argv...` in a fresh process; stderr shows any traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SURFACEFUSE_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "surfacefuse", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture()
def copy_data(tmp_path):
    data_dir = tmp_path / "data"
    rc = main(["gen", "--task", "copy", "--out", str(data_dir), "--seed", "1",
               "--n-train", "60", "--n-valid", "12", "--n-test", "12",
               "--len-min", "3", "--len-max", "6", "--vocab-size", "10"])
    assert rc == 0
    return data_dir


class TestGen:
    def test_copy_files_and_counts(self, copy_data):
        for split, n in (("train", 60), ("valid", 12), ("test", 12)):
            src = (copy_data / f"{split}.src").read_text().strip().splitlines()
            tgt = (copy_data / f"{split}.tgt").read_text().strip().splitlines()
            assert len(src) == n and len(tgt) == n
        meta = json.loads((copy_data / "task.json").read_text())
        assert meta["task"] == "copy"

    def test_gen_is_byte_reproducible(self, tmp_path):
        args = ["gen", "--task", "cipher", "--out", None, "--seed", "7",
                "--n-train", "30", "--n-valid", "6", "--n-test", "6",
                "--vocab-size", "24", "--shared-fraction", "0.25"]
        blobs = []
        for name in ("d1", "d2"):
            args[4] = str(tmp_path / name)
            assert main([str(a) for a in args]) == 0
            blob = b"".join((tmp_path / name / f).read_bytes()
                            for f in sorted(os.listdir(tmp_path / name)))
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_cipher_alignment_written(self, tmp_path):
        out = tmp_path / "cipher"
        assert main(["gen", "--task", "cipher", "--out", str(out), "--seed", "2",
                     "--n-train", "20", "--n-valid", "4", "--n-test", "4",
                     "--vocab-size", "20", "--shared-fraction", "0.25"]) == 0
        pairs = json.loads((out / "alignment.json").read_text())
        assert len(pairs) == 20
        fixed = sum(1 for s, t in pairs if s == t)
        assert fixed == 5

    @pytest.mark.parametrize("flag", ["--n-train", "--n-valid", "--n-test"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_split_count_below_one_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        assert main(["gen", "--task", "copy", "--out", str(out), flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_split_sizes(self, tmp_path):
        src = tmp_path / "all.src"
        tgt = tmp_path / "all.tgt"
        src.write_text("".join(f"w{i} w{i}\n" for i in range(20)))
        tgt.write_text("".join(f"v{i} v{i}\n" for i in range(20)))
        out = tmp_path / "par"
        assert main(["gen", "--task", "parallel", "--out", str(out),
                     "--src-file", str(src), "--tgt-file", str(tgt),
                     "--n-valid", "3", "--n-test", "2"]) == 0
        assert len((out / "train.src").read_text().splitlines()) == 15
        assert len((out / "valid.src").read_text().splitlines()) == 3
        assert len((out / "test.src").read_text().splitlines()) == 2


class TestTrain:
    def test_run_dir_artifacts(self, copy_data, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", run_config(copy_data, tmp_path / "run"))
        assert main(["train", "--config", cfg_path]) == 0
        run = tmp_path / "run"
        for name in ("config.json", "metrics.csv", "best.ckpt", "last.ckpt"):
            assert (run / name).exists(), name
        resolved = json.loads((run / "config.json").read_text())
        assert resolved["model"]["vocab_src"] == 14  # 10 content + 4 reserved

    def test_reproducible_artifacts(self, copy_data, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            cfg_path = write_config(tmp_path / f"{name}.json",
                                    run_config(copy_data, tmp_path / name))
            assert main(["train", "--config", cfg_path]) == 0
            blobs.append(tuple((tmp_path / name / f).read_bytes()
                               for f in ("metrics.csv", "best.ckpt", "last.ckpt")))
        assert blobs[0] == blobs[1]

    def test_missing_field_names_path(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "bad.json", {"seed": 1, "out": "x"})
        assert main(["train", "--config", cfg_path]) == 1
        assert "data.dir" in capsys.readouterr().err

    def test_unknown_field_names_path(self, copy_data, tmp_path, capsys):
        cfg = run_config(copy_data, tmp_path / "run")
        cfg["train"]["step"] = 10  # typo for steps
        cfg_path = write_config(tmp_path / "bad2.json", cfg)
        assert main(["train", "--config", cfg_path]) == 1
        assert "train.step" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,path", [({"fusion": {"tau": "5"}}, "fusion.tau"),
                                          ({"out": 5}, "out"),
                                          ({"data": {"dir": 7}}, "data.dir")],
                             ids=["fusion.tau", "out", "data.dir"])
    def test_wrong_type_names_path(self, copy_data, tmp_path, bad, path):
        cfg = run_config(copy_data, tmp_path / "run")
        for key, value in bad.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        proc = run_cli("train", "--config", write_config(tmp_path / "bad.json", cfg))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {path}: expected ")

    def test_hard_lambda_one_matches_vanilla_curve(self, copy_data, tmp_path):
        cfg_v = run_config(copy_data, tmp_path / "v", mode="none", steps=12)
        cfg_h = run_config(copy_data, tmp_path / "h", mode="surface-hard", steps=12,
                           extra_fusion={"lambda": 1.0, "tau": 1.0})
        assert main(["train", "--config", write_config(tmp_path / "v.json", cfg_v)]) == 0
        assert main(["train", "--config", write_config(tmp_path / "h.json", cfg_h)]) == 0
        rows_v = (tmp_path / "v" / "metrics.csv").read_text().splitlines()
        rows_h = (tmp_path / "h" / "metrics.csv").read_text().splitlines()
        assert rows_v == rows_h

    def test_resume_continues(self, copy_data, tmp_path):
        cfg = run_config(copy_data, tmp_path / "run", steps=12)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["train", "--config", cfg_path]) == 0
        cfg["train"]["steps"] = 24
        write_config(tmp_path / "c.json", cfg)
        assert main(["train", "--config", cfg_path, "--resume"]) == 0
        steps = [int(line.split(",")[0])
                 for line in (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]]
        assert steps == [6, 12, 18, 24]

    def test_cli_overrides(self, copy_data, tmp_path):
        cfg_path = write_config(tmp_path / "c.json",
                                run_config(copy_data, tmp_path / "ignored"))
        out = tmp_path / "override"
        assert main(["train", "--config", cfg_path, "--out", str(out),
                     "--mode", "fine", "--dropconnect", "0.3", "--seed", "9"]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["fusion"]["mode"] == "fine"
        assert resolved["fusion"]["p"] == 0.3
        assert resolved["seed"] == 9


@pytest.fixture()
def trained_run(copy_data, tmp_path):
    run = tmp_path / "run"
    cfg_path = write_config(tmp_path / "c.json",
                            run_config(copy_data, run, mode="fine", steps=12,
                                       extra_fusion={"p": 0.3}))
    assert main(["train", "--config", cfg_path]) == 0
    return run


class TestAnalyze:
    def test_heatmap_on_fresh_fusion_weights_is_uniform(self, copy_data, tmp_path):
        run = tmp_path / "run0"
        cfg_path = write_config(tmp_path / "c0.json",
                                run_config(copy_data, run, mode="fine", steps=0,
                                           extra_fusion={"p": 0.3}))
        assert main(["train", "--config", cfg_path]) == 0
        out = tmp_path / "reports"
        assert main(["analyze", "heatmap", "--ckpt", str(run / "best.ckpt"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "heatmap.json").read_text())
        np.testing.assert_allclose(np.array(payload["matrix"]), 1.0 / 3.0, atol=1e-9)
        assert (out / "heatmap.pgm").read_text().startswith("P2")
        weights = json.loads((out / "fusion_weights.json").read_text())
        assert weights["shape"] == [2, 3, 16]

    def test_heatmap_rejects_vanilla_checkpoint(self, copy_data, tmp_path, capsys):
        run = tmp_path / "vrun"
        cfg_path = write_config(tmp_path / "cv.json", run_config(copy_data, run, steps=0))
        assert main(["train", "--config", cfg_path]) == 0
        assert main(["analyze", "heatmap", "--ckpt", str(run / "best.ckpt")]) == 1
        assert "fusion" in capsys.readouterr().err

    def test_mask_sweep_report(self, trained_run, tmp_path):
        out = tmp_path / "sweep"
        assert main(["analyze", "mask-sweep", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(out), "--decode-limit", "3"]) == 0
        payload = json.loads((out / "mask_sweep.json").read_text())
        assert [r["layer"] for r in payload["rows"]] == ["none", "emb", "1", "2"]
        assert payload["rows"][0]["d_metric"] == 0.0

    @pytest.mark.parametrize("flag,value", [("--layer", "-1"), ("--layer", "3"),
                                            ("--decode-limit", "-1")])
    def test_bad_mask_sweep_number_exits_1(self, trained_run, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep"
        assert main(["analyze", "mask-sweep", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(out), flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (out / "mask_sweep.json").exists()

    def test_mask_sweep_keeps_one_layer(self, trained_run, tmp_path):
        out = tmp_path / "sweep"
        assert main(["analyze", "mask-sweep", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(out), "--decode-limit", "0", "--layer", "2"]) == 0
        payload = json.loads((out / "mask_sweep.json").read_text())
        assert [r["layer"] for r in payload["rows"]] == ["none", "2"]

    def test_svd_on_identity_embedding(self, copy_data, tmp_path):
        run = tmp_path / "idrun"
        cfg_path = write_config(tmp_path / "ci.json",
                                run_config(copy_data, run, mode="fine", steps=0,
                                           d_model=14, extra_fusion={"p": 0.0}))
        assert main(["train", "--config", cfg_path]) == 0
        ckpt = load_checkpoint(run / "best.ckpt")
        ckpt["src_embed"] = np.eye(14)
        save_checkpoint(run / "best.ckpt", ckpt)
        out = tmp_path / "svdout"
        assert main(["analyze", "svd", "--ckpt", str(run / "best.ckpt"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "svd.json").read_text())
        logs = payload["spectra"]["full-embedding"]["log_sigma"]
        np.testing.assert_allclose(np.array(logs), 0.0, atol=1e-12)
        assert (out / "spectrum_full-embedding.csv").exists()
        assert (out / "spectrum_more-attended.csv").exists()

    def test_embed_sim_needs_alignment(self, trained_run, tmp_path, capsys):
        assert main(["analyze", "embed-sim", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(tmp_path / "es")]) == 1
        assert "alignment" in capsys.readouterr().err

    def test_embed_sim_on_cipher(self, tmp_path):
        data_dir = tmp_path / "cipher"
        assert main(["gen", "--task", "cipher", "--out", str(data_dir), "--seed", "2",
                     "--n-train", "40", "--n-valid", "8", "--n-test", "8",
                     "--vocab-size", "20", "--shared-fraction", "0.25"]) == 0
        run = tmp_path / "crun"
        cfg_path = write_config(tmp_path / "cc.json",
                                run_config(data_dir, run, mode="surface-soft", steps=6,
                                           extra_fusion={"tau": 5.0}))
        assert main(["train", "--config", cfg_path]) == 0
        out = tmp_path / "esout"
        assert main(["analyze", "embed-sim", "--ckpt", str(run / "best.ckpt"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "embed_sim.json").read_text())
        assert set(payload["mean_cosine"]) == {"all", "non-shared"}


class TestDecodeCommand:
    def test_decode_writes_hypotheses(self, trained_run, tmp_path):
        out_file = tmp_path / "hyps.txt"
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(out_file), "--beam", "2", "--alpha", "1.0"]) == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 12  # test split size

    def test_decode_custom_input(self, trained_run, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("t00 t01 t02\n")
        out_file = tmp_path / "o.txt"
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt"),
                     "--input", str(src), "--out", str(out_file)]) == 0
        assert len(out_file.read_text().splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [("--max-len", "0"), ("--max-len", "40"),
                                            ("--alpha", "-1"), ("--alpha", "nan")])
    def test_bad_decode_argument_exits_1(self, trained_run, capsys, flag, value):
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt"), flag, value]) == 1
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and "Traceback" not in err

    def test_decode_score_dump(self, copy_data, tmp_path):
        run = tmp_path / "softrun"
        cfg_path = write_config(tmp_path / "cs.json",
                                run_config(copy_data, run, mode="surface-soft", steps=6,
                                           extra_fusion={"tau": 5.0}))
        assert main(["train", "--config", cfg_path]) == 0
        dump = tmp_path / "scores.json"
        src = tmp_path / "in.txt"
        src.write_text("t00 t01\nt02 t03 t04\n")
        assert main(["decode", "--ckpt", str(run / "best.ckpt"), "--input", str(src),
                     "--out", str(tmp_path / "h.txt"), "--dump-scores", str(dump)]) == 0
        payload = json.loads(dump.read_text())
        assert len(payload) == 2
        first = payload[0]["tokens"][0]
        assert set(first) == {"position", "token_id", "token", "fused", "base", "surface"}
        assert first["surface"] is not None  # surface mode fills all three scores


class TestOldRunDirectories:
    """config.json files written before the retired fusion and Adam options went away."""

    def write_old_config(self, run, section="fusion", **retired):
        cfg = json.loads((run / "config.json").read_text())
        cfg["fusion"].update({"dropconnect_on": "raw", "renormalize_hard": False})
        cfg["train"].update({"beta1": 0.9, "beta2": 0.98, "adam_eps": 1e-09})
        cfg[section].update(retired)
        (run / "config.json").write_text(json.dumps(cfg))

    def test_retired_defaults_still_decode(self, trained_run, tmp_path):
        self.write_old_config(trained_run)
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt"),
                     "--out", str(tmp_path / "h.txt")]) == 0
        assert len((tmp_path / "h.txt").read_text().splitlines()) == 12

    @pytest.mark.parametrize("key,value", [("renormalize_hard", True),
                                           ("dropconnect_on", "normalized"),
                                           ("renormalize_hard", 0)])
    def test_retired_non_default_is_rejected(self, trained_run, capsys, key, value):
        self.write_old_config(trained_run, **{key: value})
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt")]) == 1
        assert f"fusion.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("beta2", 0.999), ("beta1", 1), ("adam_eps", 1e-8)])
    def test_retired_adam_value_is_rejected(self, trained_run, capsys, key, value):
        self.write_old_config(trained_run, section="train", **{key: value})
        assert main(["decode", "--ckpt", str(trained_run / "best.ckpt")]) == 1
        assert f"train.{key}:" in capsys.readouterr().err

    def test_new_configs_omit_retired_keys(self, trained_run):
        cfg = json.loads((trained_run / "config.json").read_text())
        assert set(cfg["fusion"]) == {"mode", "lambda", "tau", "p"}
        assert not {"beta1", "beta2", "adam_eps"} & set(cfg["train"])


class TestTruncatedCheckpoint:
    def test_decode_exits_1(self, trained_run, capsys):
        full = (trained_run / "best.ckpt").read_bytes()
        for size in (6, 14, 20, len(full) // 2, len(full) - 1):
            (trained_run / "best.ckpt").write_bytes(full[:size])
            assert main(["decode", "--ckpt", str(trained_run / "best.ckpt")]) == 1
            assert "truncated checkpoint" in capsys.readouterr().err

    def test_decode_prints_no_traceback(self, trained_run):
        ckpt = trained_run / "best.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:14])
        proc = run_cli("decode", "--ckpt", str(ckpt))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "truncated checkpoint" in proc.stderr


class TestGradcheckCommand:
    def test_primitives_pass(self, capsys):
        assert main(["gradcheck", "--scope", "primitives"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_fault_injection_fails_with_exit_2(self, capsys):
        assert main(["gradcheck", "--scope", "primitives", "--inject-fault"]) == 2
        assert "FAIL fault-injection" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--nonsense"])
        assert exc.value.code == 1

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/nonexistent/c.json"]) == 1
