#!/usr/bin/env python3
"""Train a fine-grained layer-attention model on the cipher task, then run
the layer diagnostics: attention heatmap, per-layer masking sweep, and the
expressivity spectra of the embedding dimensions split by attention weight.

Runs `surfacefuse gen` into <out>/data, `surfacefuse train` into <out> and
`surfacefuse analyze heatmap|mask-sweep|svd` on <out>/last.ckpt."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from surfacefuse.cli import build_parser
from surfacefuse.commands import generate_dataset, run_analyze, run_train


def analyze(kind, ckpt, *flags):
    return run_analyze(build_parser().parse_args(["analyze", kind, "--ckpt", ckpt, *flags]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=1200)
    ap.add_argument("--vocab-size", type=int, default=64)
    ap.add_argument("--shared-fraction", type=float, default=0.25)
    ap.add_argument("--n-enc-layers", type=int, default=3)
    ap.add_argument("--out", default="runs/cipher_layer_study")
    args = ap.parse_args()

    data_dir = os.path.join(args.out, "data")
    generate_dataset(build_parser().parse_args([
        "gen", "--task", "cipher", "--out", data_dir, "--seed", str(args.seed),
        "--n-train", "5000", "--n-valid", "200", "--n-test", "300",
        "--len-min", "5", "--len-max", "12", "--vocab-size", str(args.vocab_size),
        "--shared-fraction", str(args.shared_fraction)]))
    config = {
        "seed": args.seed, "out": args.out, "data": {"dir": data_dir},
        "model": {"n_enc_layers": args.n_enc_layers, "n_dec_layers": 2, "d_model": 64,
                  "n_heads": 4, "d_ff": 128, "max_len": 32, "dtype": "float32"},
        "fusion": {"mode": "fine", "p": 0.3},
        "train": {"steps": args.steps, "max_tokens": 512, "eval_interval": 200, "warmup": 200,
                  "lr": 2e-3, "seed": args.seed + 100},
    }
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    run_train(config_path, {})

    ckpt = os.path.join(args.out, "last.ckpt")
    report = analyze("heatmap", ckpt)
    print("mean fusion weight per (decoder layer, encoder source):")
    print("  sources:", report["encoder_layers"])
    for label, row in zip(report["decoder_layers"], np.asarray(report["matrix"])):
        print(f"  decoder {label}:", np.round(row, 3).tolist())

    print("masking sweep (relative changes vs unmasked):")
    for r in analyze("mask-sweep", ckpt)["rows"]:
        print(f"  mask {r['layer']:>4}: d_acc={r['d_metric']:+.4f} d_len={r['d_len']:+.4f}")

    spectra = analyze("svd", ckpt, "--seed", str(args.seed))["spectra"]
    print("summed log normalized singular values of embedding column splits:")
    for label in ("more-attended", "random", "less-attended"):
        print(f"  {label:>14}: {spectra[label]['sum_log_sigma']:.2f}")


if __name__ == "__main__":
    main()
