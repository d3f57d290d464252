#!/usr/bin/env python3
"""Train vanilla and surface-soft models on the same cipher data with the
same budget; compare aligned-embedding cosines (all / non-shared pairs) and
the decay of the embedding singular-value spectrum.

Runs `surfacefuse gen` into <out>/data, then for each mode `surfacefuse
train` into <out>/<mode> and `surfacefuse analyze embed-sim|svd` on its
last.ckpt; the summary goes to <out>/report.json."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from surfacefuse.cli import build_parser
from surfacefuse.commands import generate_dataset, model_from_run_dir, run_analyze, run_train
from surfacefuse.data import token_batches
from surfacefuse.training import evaluate


def analyze(kind, ckpt):
    return run_analyze(build_parser().parse_args(["analyze", kind, "--ckpt", ckpt]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--steps", type=int, default=1200)
    ap.add_argument("--vocab-size", type=int, default=64)
    ap.add_argument("--tau", type=float, default=5.0)
    ap.add_argument("--out", default="runs/surface_embedding_study")
    args = ap.parse_args()

    # the data seed stays 0 so every model seed trains on the same corpus
    data_dir = os.path.join(args.out, "data")
    generate_dataset(build_parser().parse_args([
        "gen", "--task", "cipher", "--out", data_dir, "--seed", "0",
        "--n-train", "5000", "--n-valid", "200", "--n-test", "300",
        "--len-min", "5", "--len-max", "12", "--vocab-size", str(args.vocab_size),
        "--shared-fraction", "0.25"]))

    results = {}
    for mode in ("none", "surface-soft"):
        run_dir = os.path.join(args.out, mode)
        config = {
            "seed": args.seed, "out": run_dir, "data": {"dir": data_dir},
            "model": {"n_enc_layers": 2, "n_dec_layers": 2, "d_model": 32, "n_heads": 4,
                      "d_ff": 64, "max_len": 32, "dtype": "float32"},
            "fusion": {"mode": mode, "tau": args.tau},
            "train": {"steps": args.steps, "max_tokens": 512, "eval_interval": args.steps,
                      "warmup": 200, "lr": 2e-3, "seed": args.seed + 100},
        }
        os.makedirs(run_dir, exist_ok=True)
        config_path = os.path.join(run_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        run_train(config_path, {})

        ckpt = os.path.join(run_dir, "last.ckpt")
        model, _, dataset = model_from_run_dir(ckpt)
        _, acc = evaluate(model, token_batches(dataset["ids"]["valid"], 1024))
        cosine = analyze("embed-sim", ckpt)["mean_cosine"]
        spectrum = analyze("svd", ckpt)["spectra"]["full-embedding"]
        results[mode] = {
            "valid_acc": acc,
            "cosine_all": cosine["all"],
            "cosine_non_shared": cosine["non-shared"],
            "sum_log_sigma": spectrum["sum_log_sigma"],
        }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for mode, r in results.items():
        print(f"{mode:>13}: acc={r['valid_acc']:.4f} cos_all={r['cosine_all']:.3f} "
              f"cos_non_shared={r['cosine_non_shared']:.3f} "
              f"sum_log_sigma={r['sum_log_sigma']:.2f}")


if __name__ == "__main__":
    main()
