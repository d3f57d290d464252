#!/usr/bin/env python3
"""Train a vanilla transformer on the synthetic copy task and report
held-out token accuracy and BLEU.

Runs `surfacefuse gen` into <out>/data and `surfacefuse train` into <out>,
then scores the last checkpoint on the test split."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from surfacefuse.cli import build_parser
from surfacefuse.commands import generate_dataset, model_from_run_dir, run_train
from surfacefuse.data import token_batches
from surfacefuse.training import corpus_bleu, evaluate, greedy_decode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=1500)
    ap.add_argument("--vocab-size", type=int, default=20)
    ap.add_argument("--d-model", type=int, default=64)
    ap.add_argument("--out", default="runs/copy_baseline", help="run directory")
    args = ap.parse_args()

    data_dir = os.path.join(args.out, "data")
    generate_dataset(build_parser().parse_args([
        "gen", "--task", "copy", "--out", data_dir, "--seed", str(args.seed),
        "--n-train", "3000", "--n-valid", "200", "--n-test", "200",
        "--len-min", "3", "--len-max", "10", "--vocab-size", str(args.vocab_size)]))
    config = {
        "seed": args.seed, "out": args.out, "data": {"dir": data_dir},
        "model": {"n_enc_layers": 2, "n_dec_layers": 2, "d_model": args.d_model, "n_heads": 4,
                  "d_ff": 2 * args.d_model, "max_len": 32, "dtype": "float32"},
        "train": {"steps": args.steps, "max_tokens": 512, "eval_interval": 200, "warmup": 200,
                  "lr": 2e-3, "seed": args.seed + 100},
    }
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    run_train(config_path, {})

    model, _, dataset = model_from_run_dir(os.path.join(args.out, "last.ckpt"))
    test_ids = dataset["ids"]["test"]
    loss, acc = evaluate(model, token_batches(test_ids, 1024))
    hyps = [greedy_decode(model, s) for s, _ in test_ids[:100]]
    refs = [t for _, t in test_ids[:100]]
    print(f"held-out: loss={loss:.4f} token_acc={acc:.4f} "
          f"BLEU={corpus_bleu(hyps, refs):.2f}")


if __name__ == "__main__":
    main()
