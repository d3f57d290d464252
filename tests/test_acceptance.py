"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Several criteria train small models (copy and cipher tasks, three
seeds for the directional replications), so this module takes nearly all of
the suite's wall time; README.md ("Install and test") gives measured times.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import surfacefuse.tensor as T
from surfacefuse.analysis import (
    embed_cosine,
    mask_sweep,
    normalized_fusion_weights,
    split_dims_by_attention,
    svd_spectrum,
)
from surfacefuse.cli import main as cli_main
from surfacefuse.data import (
    encode_pairs,
    gen_cipher,
    gen_copy,
    make_cipher_task,
    token_batches,
    vocab_for_task,
)
from surfacefuse.fusion import FusionWeights, fuse, mask_layer, normalize_weights
from surfacefuse.model import ModelConfig, Seq2Seq
from surfacefuse.surface import FusionConfig, soft_fuse
from surfacefuse.tensor import Rng, Tensor
from surfacefuse.training import TrainConfig, evaluate, greedy_decode, train


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def build_model(vocab_len, mode="none", seed=0, d_model=64, n_enc=2, n_dec=2,
                dtype="float32", max_len=32, **fusion_kw):
    cfg = ModelConfig(n_enc_layers=n_enc, n_dec_layers=n_dec, d_model=d_model,
                      n_heads=4 if d_model % 4 == 0 else 2, d_ff=2 * d_model,
                      vocab_src=vocab_len, vocab_tgt=vocab_len, max_len=max_len,
                      dtype=dtype)
    return Seq2Seq(cfg, FusionConfig(mode=mode, **fusion_kw), seed=seed)


def fit(model, train_ids, valid_ids, steps, seed, max_tokens=512, warmup=200):
    cfg = TrainConfig(steps=steps, max_tokens=max_tokens, eval_interval=steps,
                      warmup=warmup, lr=2e-3, seed=seed)
    return train(model, train_ids, valid_ids, cfg, out_dir=None)


# ---------------------------------------------------------------------------
# shared datasets and trained models


@pytest.fixture(scope="session")
def copy_task_data():
    root = Rng(0)
    vocab = vocab_for_task(20)
    return {
        "vocab": vocab,
        "train": encode_pairs(gen_copy(3000, (3, 10), 20, root.spawn("gen:train")), vocab),
        "valid": encode_pairs(gen_copy(200, (3, 10), 20, root.spawn("gen:valid")), vocab),
        "test": encode_pairs(gen_copy(200, (3, 10), 20, root.spawn("gen:test")), vocab),
    }


@pytest.fixture(scope="session")
def cipher40_data():
    root = Rng(1)
    task = make_cipher_task(40, 0.25, root.spawn("perm"))
    vocab = vocab_for_task(40)
    return {
        "task": task,
        "vocab": vocab,
        "train": encode_pairs(gen_cipher(task, 4000, (4, 10), root.spawn("gen:train")), vocab),
        "valid": encode_pairs(gen_cipher(task, 200, (4, 10), root.spawn("gen:valid")), vocab),
        "test": encode_pairs(gen_cipher(task, 300, (4, 10), root.spawn("gen:test")), vocab),
    }


@pytest.fixture(scope="session")
def cipher64_data():
    root = Rng(0)
    task = make_cipher_task(64, 0.25, root.spawn("perm"))
    vocab = vocab_for_task(64)
    alignment = [(vocab.encode([s])[0], vocab.encode([t])[0]) for s, t in task.alignment]
    return {
        "task": task,
        "vocab": vocab,
        "alignment": alignment,
        "train": encode_pairs(gen_cipher(task, 5000, (5, 12), root.spawn("gen:train")), vocab),
        "valid": encode_pairs(gen_cipher(task, 200, (5, 12), root.spawn("gen:valid")), vocab),
        "test": encode_pairs(gen_cipher(task, 500, (5, 12), root.spawn("gen:test")), vocab),
    }


@pytest.fixture(scope="session")
def cipher256_data():
    # layer-attribution study set: Zipf-skewed training frequencies leave an
    # undertrained lexical tail (held-out splits stay uniform), so accuracy
    # keeps headroom for masking damage instead of saturating at 100%
    root = Rng(0)
    task = make_cipher_task(256, 0.25, root.spawn("perm"))
    vocab = vocab_for_task(256)
    return {
        "task": task,
        "vocab": vocab,
        "train": encode_pairs(gen_cipher(task, 6000, (6, 12), root.spawn("gen:train"), skew=1.2), vocab),
        "valid": encode_pairs(gen_cipher(task, 200, (6, 12), root.spawn("gen:valid")), vocab),
        "test": encode_pairs(gen_cipher(task, 500, (6, 12), root.spawn("gen:test")), vocab),
    }


@pytest.fixture(scope="session")
def layer_attention_models(cipher256_data):
    """Three seeds of the fine-grained layer-attention model (criteria 7, 10)."""
    models = {}
    for seed in (1, 2, 3):
        model = build_model(len(cipher256_data["vocab"]), mode="fine", seed=seed,
                            d_model=64, n_enc=3, dropconnect=0.3)
        fit(model, cipher256_data["train"], cipher256_data["valid"], steps=1500,
            seed=seed + 100)
        models[seed] = model
    return models


@pytest.fixture(scope="session")
def soft_and_vanilla_models(cipher64_data):
    """Vanilla/surface-soft pairs with identical budgets (criteria 9, 11)."""
    pairs = {}
    for seed in (1, 2, 3):
        trained = {}
        for mode in ("none", "surface-soft"):
            model = build_model(len(cipher64_data["vocab"]), mode=mode, seed=seed,
                                d_model=32, tau=5.0)
            fit(model, cipher64_data["train"], cipher64_data["valid"], steps=1200,
                seed=seed + 100)
            trained[mode] = model
        pairs[seed] = trained
    return pairs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_integrity(capsys):
    start = time.monotonic()
    rc = cli_main(["gradcheck", "--scope", "all"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        report(1, rc == 0 and elapsed < 60.0 and "FAIL" not in out,
               f"gradcheck (primitives + tiny models) max rel err < 1e-4 in {elapsed:.1f}s")


def test_criterion_02_reduction_identity(capsys):
    root = Rng(20)
    vocab = vocab_for_task(12)
    train_ids = encode_pairs(gen_copy(800, (3, 8), 12, root.spawn("gen:train")), vocab)
    valid_ids = encode_pairs(gen_copy(100, (3, 8), 12, root.spawn("gen:valid")), vocab)

    results = {}
    for mode, kw in (("none", {}), ("surface-hard", {"lambda_": 1.0, "tau": 1.0})):
        model = build_model(len(vocab), mode=mode, seed=7, d_model=32, dtype="float64",
                            max_len=16, **kw)
        cfg = TrainConfig(steps=200, max_tokens=512, eval_interval=50, warmup=100,
                          lr=2e-3, seed=21)
        results[mode] = train(model, train_ids, valid_ids, cfg, out_dir=None)
    same_steps = results["none"].step_losses == results["surface-hard"].step_losses
    same_rows = results["none"].rows == results["surface-hard"].rows
    with capsys.disabled():
        report(2, same_steps and same_rows and len(results["none"].step_losses) == 200,
               "surface-hard lambda=1 reproduces vanilla training bit-for-bit over 200 steps")


def test_criterion_03_soft_fusion_invariance(capsys):
    rng = Rng(30)
    vocab_n = 37
    logits = Tensor(rng.normal(0, 3, (6, 11, vocab_n)))
    uniform = Tensor(np.full((6, 11, vocab_n), math.log(1.0 / vocab_n)))
    fused = soft_fuse(logits, uniform)
    vanilla = T.log_softmax(logits)
    worst = float(np.abs(fused.data - vanilla.data).max())
    with capsys.disabled():
        report(3, worst < 1e-12,
               f"uniform surface distribution leaves the softmax unchanged (max dev {worst:.2e})")


def test_criterion_04_normalization_suite(capsys):
    rng = Rng(40)
    checks = []

    w_hat = normalize_weights(Tensor(rng.spawn("w").normal(0, 4, (3, 5, 16))))
    checks.append(np.abs(w_hat.data.sum(axis=1) - 1.0).max() < 1e-9)

    masked = mask_layer(Tensor(np.array([0.5, 0.3, 0.2]).reshape(1, 3, 1)), 0)
    checks.append(np.abs(masked.data.reshape(3) - np.array([0.0, 0.6, 0.4])).max() < 1e-9)

    sm = T.softmax_temp(Tensor(rng.spawn("s").normal(0, 5, (20, 9))), tau=2.3)
    checks.append(np.abs(sm.data.sum(axis=-1) - 1.0).max() < 1e-9)

    fused = soft_fuse(Tensor(rng.spawn("e").normal(0, 3, (20, 9))),
                      T.log_softmax(Tensor(rng.spawn("p").normal(0, 3, (20, 9)))))
    checks.append(np.abs(np.exp(fused.data).sum(axis=-1) - 1.0).max() < 1e-9)

    with capsys.disabled():
        report(4, all(checks),
               "fusion weights, mask renormalization, softmax rows, soft-fusion rows all sum to 1 (1e-9)")


def test_criterion_05_convex_combination_bound(capsys):
    rng = Rng(50)
    worst = 0.0
    for trial in range(1000):
        r = rng.spawn(f"t{trial}")
        n_layers = int(r.integers(1, 4))
        i = int(r.integers(1, 4))
        d = int(r.integers(1, 7))
        m_slots = int(r.integers(1, 3))
        layers = [Tensor(r.normal(0, 2, (1, i, d))) for _ in range(n_layers + 1)]

        class Outputs:
            x_emb = layers[0]

        Outputs.layers = layers
        w_hat = normalize_weights(Tensor(r.normal(0, 3, (m_slots, n_layers + 1, d))))
        stack = np.stack([t.data for t in layers])
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        for m in range(m_slots):
            s = fuse(Outputs, m, w_hat).data
            worst = max(worst, float((lo - s).max()), float((s - hi).max()))
    with capsys.disabled():
        report(5, worst < 1e-12,
               f"1000 random fusion configurations stay inside the layer envelope (max excess {worst:.2e})")


def test_criterion_06_learning_at_desk_scale(copy_task_data, cipher40_data, capsys):
    start = time.monotonic()
    copy_model = build_model(len(copy_task_data["vocab"]), seed=11)
    fit(copy_model, copy_task_data["train"], copy_task_data["valid"], steps=1000, seed=111)
    copy_elapsed = time.monotonic() - start
    _, copy_acc = evaluate(copy_model, token_batches(copy_task_data["test"], 1024))

    cipher_model = build_model(len(cipher40_data["vocab"]), seed=12)
    fit(cipher_model, cipher40_data["train"], cipher40_data["valid"], steps=800, seed=112)
    _, cipher_acc = evaluate(cipher_model, token_batches(cipher40_data["test"], 1024))

    ok = copy_acc > 0.99 and copy_elapsed < 600.0 and cipher_acc > 0.95
    with capsys.disabled():
        report(6, ok,
               f"copy acc {copy_acc:.4f} (>0.99) in 1000<=2000 steps, {copy_elapsed:.0f}s<600s; "
               f"cipher acc {cipher_acc:.4f} (>0.95) in 800<=5000 steps")


def test_criterion_07_masking_embedding_hurts_most(layer_attention_models, cipher256_data, capsys):
    passes = 0
    details = []
    for seed, model in layer_attention_models.items():
        rows = {r["layer"]: r for r in mask_sweep(model, cipher256_data["test"],
                                                  metric="acc", decode_limit=0)}
        median_intermediate = str((model.config.n_enc_layers + 1) // 2)
        emb_d = rows["emb"]["d_metric"]
        mid_d = rows[median_intermediate]["d_metric"]
        ok = emb_d < mid_d
        passes += ok
        details.append(f"seed{seed}: emb {emb_d:+.4f} vs layer{median_intermediate} {mid_d:+.4f}")
    with capsys.disabled():
        report(7, passes >= 2,
               f"masking embeddings degrades accuracy most in {passes}/3 seeds ({'; '.join(details)})")


def test_criterion_08_svd_oracle_equivalence(capsys):
    rng = Rng(80)
    worst = 0.0
    for shape in ((128, 128), (96, 128), (128, 64), (50, 16)):
        x = rng.spawn(f"m{shape}").normal(0, 1, shape)
        got = svd_spectrum(x).values
        eig = np.linalg.eigh(x.T @ x).eigenvalues
        sigma = np.sqrt(np.clip(eig, 0.0, None))[::-1][: got.size]
        worst = max(worst, float(np.abs(got - sigma / sigma[0]).max()))
    identity_logs = svd_spectrum(np.eye(32)).log_values
    ok = worst < 1e-8 and np.abs(identity_logs).max() < 1e-12
    with capsys.disabled():
        report(8, ok,
               f"spectra match the Gram eigenvalue oracle (max dev {worst:.2e}); identity log-spectrum is zero")


def test_criterion_09_aligned_cosine_direction(soft_and_vanilla_models, cipher64_data, capsys):
    passes = 0
    details = []
    for seed, pair in soft_and_vanilla_models.items():
        cos = {mode: embed_cosine(m.src_embed.data, m.tgt_embed.data,
                                  cipher64_data["alignment"], "non-shared")
               for mode, m in pair.items()}
        ok = cos["surface-soft"] > cos["none"]
        passes += ok
        details.append(f"seed{seed}: soft {cos['surface-soft']:.3f} vs vanilla {cos['none']:.3f}")
    with capsys.disabled():
        report(9, passes >= 2,
               f"non-shared aligned cosine higher for surface-soft in {passes}/3 seeds ({'; '.join(details)})")


def test_criterion_10_split_spectra_ordering(layer_attention_models, capsys):
    passes = 0
    details = []
    for seed, model in layer_attention_models.items():
        w = normalized_fusion_weights(model)
        splits = split_dims_by_attention(model.src_embed.data, w[-1, 0, :],
                                         Rng(seed).spawn("dim-split"))
        sums = {k: float(svd_spectrum(splits[k], k).log_values.sum())
                for k in ("more", "random", "less")}
        ok = sums["more"] >= sums["random"] >= sums["less"]
        passes += ok
        details.append(f"seed{seed}: {sums['more']:.1f} >= {sums['random']:.1f} >= {sums['less']:.1f}")
    with capsys.disabled():
        report(10, passes >= 2,
               f"summed log spectra order more >= random >= less in {passes}/3 seeds ({'; '.join(details)})")


def test_criterion_11_latency_budget(soft_and_vanilla_models, cipher64_data, capsys):
    import gc

    model = soft_and_vanilla_models[1]["surface-soft"]
    test_ids = cipher64_data["test"]
    assert len(test_ids) == 500
    fused_cfg, vanilla_cfg = model.fusion_cfg, FusionConfig(mode="none")

    def decode_time(src, cfg):
        model.fusion_cfg = cfg
        start = time.perf_counter()
        greedy_decode(model, src)
        return time.perf_counter() - start

    # Each sentence is decoded 5 times per mode, the modes alternating, and
    # the fastest decode of each counts: a slow stretch of a shared host then
    # hits both modes alike instead of whichever full pass it fell in.
    fused_time = base_time = 0.0
    gc.collect()
    gc.disable()  # collector noise excluded like any wall-clock benchmark
    try:
        for src, _ in test_ids:
            times = [(decode_time(src, fused_cfg), decode_time(src, vanilla_cfg)) for _ in range(5)]
            fused_time += min(f for f, _ in times)
            base_time += min(b for _, b in times)
    finally:
        gc.enable()
        model.fusion_cfg = fused_cfg
    overhead = fused_time / base_time - 1.0
    with capsys.disabled():
        report(11, overhead <= 0.15,
               f"surface fusion adds {overhead * 100:.1f}% decode wall-clock over vanilla "
               f"({fused_time:.2f}s vs {base_time:.2f}s, summed per-sentence best of 5 "
               f"interleaved decodes over 500 sentences; budget 15%)")


def test_criterion_12_reproducibility(tmp_path, capsys):
    def run_all(tag):
        data_dir = tmp_path / f"data_{tag}"
        run_dir = tmp_path / f"run_{tag}"
        rc = cli_main(["gen", "--task", "cipher", "--out", str(data_dir), "--seed", "5",
                       "--n-train", "80", "--n-valid", "16", "--n-test", "16",
                       "--vocab-size", "24", "--shared-fraction", "0.25"])
        assert rc == 0
        config = {
            "seed": 4,
            "out": str(run_dir),
            "data": {"dir": str(data_dir)},
            "model": {"n_enc_layers": 2, "n_dec_layers": 2, "d_model": 16, "n_heads": 2,
                      "d_ff": 32, "max_len": 24},
            "fusion": {"mode": "fine", "p": 0.3},
            "train": {"steps": 12, "max_tokens": 128, "eval_interval": 6, "warmup": 5},
        }
        cfg_path = tmp_path / f"cfg_{tag}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["analyze", "heatmap", "--ckpt", str(run_dir / "best.ckpt"),
                         "--out", str(run_dir)]) == 0
        blobs = {}
        for name in sorted(os.listdir(data_dir)):
            blobs[f"data/{name}"] = (data_dir / name).read_bytes()
        for name in ("metrics.csv", "best.ckpt", "last.ckpt", "heatmap.json", "heatmap.pgm"):
            blobs[f"run/{name}"] = (run_dir / name).read_bytes()
        return blobs

    first = run_all("a")
    second = run_all("b")
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    with capsys.disabled():
        report(12, same,
               "gen + train + analyze with identical seeds produce byte-identical artifacts")
