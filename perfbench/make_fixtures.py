"""Regenerate the benchmark's committed fixtures.

    python3 perfbench/make_fixtures.py

Writes, under perfbench/fixtures/:
  cipher.json          the fixed cipher64 bijection
  pool.src, pool.tgt   2000 test sentences (250 of each length 5..12) and gold
  soft/, fine/         config.json, model.ckpt (1200 training steps) and
                       hyps.txt, the decode of every pool sentence

The decode workloads only load these files, so the work they measure does
not depend on the training code under test. Regenerate them only on
purpose: every later run is checked against hyps.txt.
"""

import bootstrap  # noqa: F401  (caps BLAS threads before numpy loads)

import json
import random

import numpy as np

from surfacefuse import data as D
from surfacefuse import training
from surfacefuse.checkpoint import save_checkpoint
from surfacefuse.tensor import Rng

import workloads as W

POOL_PER_LENGTH = 250
FIXTURE_STEPS = 1200
MODEL = {"n_enc_layers": 2, "n_dec_layers": 2, "d_model": 32, "n_heads": 4, "d_ff": 64,
         "dropout": 0.1, "max_len": 32, "dtype": "float32"}
TRAIN = {"max_tokens": 512, "lr": 0.002, "warmup": 200, "label_smoothing": 0.1}
FIXTURES = {
    "soft": {"fusion": {"mode": "surface-soft", "tau": 5.0}, "decode": {"beam": 1, "alpha": 0.0}},
    "fine": {"fusion": {"mode": "fine", "dropconnect": 0.3}, "decode": {"beam": 4, "alpha": 1.0}},
}


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_lines(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(" ".join(row) + "\n")


def main() -> None:
    out = W.FIXTURES
    out.mkdir(parents=True, exist_ok=True)
    task = D.make_cipher_task(W.VOCAB_SIZE, 0.25, Rng(0).spawn("perm"))
    write_json(out / "cipher.json", {"vocab_size": task.vocab_size,
                                     "shared_fraction": task.shared_fraction,
                                     "permutation": [int(x) for x in task.permutation]})
    task = W.cipher_task()

    rng = random.Random("pool")
    pool = [pair for n in W.LENGTHS for pair in W.random_pairs(task, POOL_PER_LENGTH, rng, n)]
    write_lines(out / "pool.src", [s for s, _ in pool])
    write_lines(out / "pool.tgt", [t for _, t in pool])

    voc = W.vocab()
    train_p, valid_p = W.train_pairs(task, 0)
    train_ids, valid_ids = D.encode_pairs(train_p, voc), D.encode_pairs(valid_p, voc)
    for name, spec in FIXTURES.items():
        cfg = {"model": MODEL, "train": TRAIN, **spec,
               "fixture": {"steps": FIXTURE_STEPS, "eval_interval": 200, "data_seed": 0}}
        model = W.build_model(cfg)
        result = training.train(model, train_ids, valid_ids,
                                W.train_config(cfg, FIXTURE_STEPS, 200, 0))
        cfg["fixture"]["final_val_loss"] = result.final_val_loss
        (out / name).mkdir(exist_ok=True)
        write_json(out / name / "config.json", cfg)
        save_checkpoint(out / name / "model.ckpt", dict(model.named_parameters()))
        hyps = [training.beam_decode(model, voc.encode(src), beam_size=spec["decode"]["beam"],
                                     alpha=spec["decode"]["alpha"]) for src, _ in pool]
        write_lines(out / name / "hyps.txt", [voc.decode(h) for h in hyps])
        exact = np.mean([h == voc.encode(t) for h, (_, t) in zip(hyps, pool)])
        print(f"{name}: val loss {result.final_val_loss:.4f}, exact match {exact:.4f}")


if __name__ == "__main__":
    main()
