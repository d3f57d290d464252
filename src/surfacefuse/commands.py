"""Implementations behind the CLI subcommands.

A run directory always contains the exact resolved config.json used, the
metrics CSV, and best/last checkpoints; analyses read a checkpoint plus its
sibling config to rebuild the model. Dataset directories are written by
`gen` and referenced by path from run configs.
"""

from __future__ import annotations

import dataclasses
import json
import os

from . import analysis as A
from . import data as D
from .errors import ConfigError, DataError, InvalidParameterError
from .model import ModelConfig, Seq2Seq
from .surface import FusionConfig
from .tensor import Rng
from .training import (
    TrainConfig,
    beam_decode,
    load_checkpoint,
    load_model_params,
    train,
)

SPLITS = ("train", "valid", "test")


# ---------------------------------------------------------------------------
# run configuration


@dataclasses.dataclass
class RunConfig:
    """Fully resolved description of one experiment."""

    seed: int
    out: str | None
    data: dict
    model: ModelConfig
    fusion: FusionConfig
    train: TrainConfig

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {"seed", "out", "data", "model", "fusion", "train"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown config section")
        seed = _expect(raw, "seed", int, default=0)
        out = raw.get("out")
        data = raw.get("data")
        if not isinstance(data, dict) or "dir" not in data:
            raise ConfigError("data.dir: missing required key (path to a dataset directory)")
        for key in data:
            if key not in ("dir", "min_freq"):
                raise ConfigError(f"data.{key}: unknown field (allowed: dir, min_freq)")
        model = _dataclass_from(ModelConfig, raw.get("model", {}), "model",
                                defaults={"vocab_src": 0, "vocab_tgt": 0})
        fusion = _fusion_from(raw.get("fusion", {}))
        train_cfg = _dataclass_from(TrainConfig, raw.get("train", {}), "train")
        if "seed" not in raw.get("train", {}):
            train_cfg.seed = seed
        return cls(seed=seed, out=out, data=data, model=model, fusion=fusion, train=train_cfg)

    def to_dict(self) -> dict:
        fusion = {
            "mode": self.fusion.mode,
            "lambda": self.fusion.lambda_,
            "tau": self.fusion.tau,
            "p": self.fusion.dropconnect,
        }
        return {
            "seed": self.seed,
            "out": self.out,
            "data": self.data,
            "model": dataclasses.asdict(self.model),
            "fusion": fusion,
            "train": dataclasses.asdict(self.train),
        }


def _expect(section: dict, key: str, kind, default=None, path: str = ""):
    loc = f"{path}.{key}" if path else key
    if key not in section:
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{loc}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_field_type(loc: str, annotation: str, value):
    """Coerce/validate a JSON value against a dataclass field annotation."""
    kind = annotation.split("|")[0].strip() if isinstance(annotation, str) else annotation.__name__
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{loc}: expected bool, got {type(value).__name__}")
    elif kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{loc}: expected int, got {type(value).__name__}")
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{loc}: expected float, got {type(value).__name__}")
        value = float(value)
    elif kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{loc}: expected str, got {type(value).__name__}")
    return value


def _dataclass_from(cls, section: dict, path: str, defaults: dict | None = None):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = dict(defaults or {})
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
        kwargs[key] = _check_field_type(f"{path}.{key}", fields[key].type, value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Retired fusion options and the one value configs ever held for them;
# run directories written before their removal still load.
_RETIRED_FUSION = {"dropconnect_on": "raw", "renormalize_hard": False}


def _fusion_from(section: dict) -> FusionConfig:
    if not isinstance(section, dict):
        raise ConfigError("fusion: expected a JSON object")
    rename = {"lambda": "lambda_", "p": "dropconnect"}
    allowed = {"mode", "lambda", "tau", "p"}
    kwargs = {}
    for key, value in section.items():
        if key in _RETIRED_FUSION:
            kept = _RETIRED_FUSION[key]
            if type(value) is not type(kept) or value != kept:
                raise ConfigError(f"fusion.{key}: retired option; only {kept!r} "
                                  f"is still accepted, got {value!r}")
            continue
        if key not in allowed:
            raise ConfigError(f"fusion.{key}: unknown field (allowed: {sorted(allowed)})")
        if isinstance(value, int) and key in ("lambda", "tau", "p"):
            value = float(value)
        kwargs[rename.get(key, key)] = value
    cfg = FusionConfig(**kwargs)
    cfg.validate()
    return cfg


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            raw["seed"] = value
            raw.setdefault("train", {}).pop("seed", None)
        elif key == "out":
            raw["out"] = value
        elif key in ("mode", "lambda", "tau", "p"):
            raw.setdefault("fusion", {})[key] = value
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# dataset directories


def _write_task_meta(out_dir: str, meta: dict) -> None:
    A.write_json(os.path.join(out_dir, "task.json"), meta)


def generate_dataset(args) -> str:
    """`gen` implementation; returns the dataset directory."""
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(args.seed)
    counts = {"train": args.n_train, "valid": args.n_valid, "test": args.n_test}
    len_range = (args.len_min, args.len_max)
    meta = {"task": args.task, "seed": args.seed, "counts": counts,
            "len_range": list(len_range)}

    if args.task == "copy":
        meta["vocab_size"] = args.vocab_size
        meta["skew"] = args.skew
        for split in SPLITS:
            skew = args.skew if split == "train" else 0.0
            pairs = D.gen_copy(counts[split], len_range, args.vocab_size,
                               rng.spawn(f"gen:{split}"), skew=skew)
            D.save_pairs(pairs, os.path.join(out_dir, f"{split}.src"),
                         os.path.join(out_dir, f"{split}.tgt"))
    elif args.task == "cipher":
        task = D.make_cipher_task(args.vocab_size, args.shared_fraction, rng.spawn("perm"),
                                  reorder=args.reorder)
        meta.update(vocab_size=args.vocab_size, shared_fraction=args.shared_fraction,
                    reorder=args.reorder, skew=args.skew)
        for split in SPLITS:
            # the frequency skew shapes the training distribution; held-out
            # splits stay uniform so tail tokens are actually evaluated
            skew = args.skew if split == "train" else 0.0
            pairs = D.gen_cipher(task, counts[split], len_range,
                                 rng.spawn(f"gen:{split}"), skew=skew)
            D.save_pairs(pairs, os.path.join(out_dir, f"{split}.src"),
                         os.path.join(out_dir, f"{split}.tgt"))
        A.write_json(os.path.join(out_dir, "alignment.json"),
                     [list(p) for p in task.alignment])
    elif args.task == "parallel":
        if not args.src_file or not args.tgt_file:
            raise ConfigError("--src-file and --tgt-file are required for task=parallel")
        pairs = D.load_pairs(args.src_file, args.tgt_file)
        n_valid, n_test = args.n_valid, args.n_test
        if n_valid + n_test >= len(pairs):
            raise ConfigError("valid+test split sizes leave no training data")
        split_pairs = {
            "train": pairs[: len(pairs) - n_valid - n_test],
            "valid": pairs[len(pairs) - n_valid - n_test: len(pairs) - n_test],
            "test": pairs[len(pairs) - n_test:],
        }
        meta["counts"] = {k: len(v) for k, v in split_pairs.items()}
        meta["min_freq"] = args.min_freq
        for split in SPLITS:
            D.save_pairs(split_pairs[split], os.path.join(out_dir, f"{split}.src"),
                         os.path.join(out_dir, f"{split}.tgt"))
    else:
        raise ConfigError(f"unknown task {args.task!r}")
    _write_task_meta(out_dir, meta)
    return out_dir


def load_dataset_dir(data_cfg: dict) -> dict:
    """Read a generated dataset directory into id pairs plus vocabulary."""
    dir_path = data_cfg["dir"]
    meta_path = os.path.join(dir_path, "task.json")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"{dir_path}: not a dataset directory (missing task.json)") from exc

    pairs = {}
    for split in SPLITS:
        pairs[split] = D.load_pairs(os.path.join(dir_path, f"{split}.src"),
                                    os.path.join(dir_path, f"{split}.tgt"))
    if meta["task"] in ("copy", "cipher"):
        vocab = D.vocab_for_task(meta["vocab_size"])
    else:
        min_freq = int(data_cfg.get("min_freq", meta.get("min_freq", 1)))
        _, vocab, _ = D.load_parallel_text(os.path.join(dir_path, "train.src"),
                                           os.path.join(dir_path, "train.tgt"),
                                           min_freq=min_freq, joint=True)
    ids = {split: D.encode_pairs(pairs[split], vocab) for split in SPLITS}
    alignment = None
    align_path = os.path.join(dir_path, "alignment.json")
    if os.path.exists(align_path):
        with open(align_path, encoding="utf-8") as fh:
            token_pairs = json.load(fh)
        alignment = [(vocab.encode([s])[0], vocab.encode([t])[0]) for s, t in token_pairs]
    return {"meta": meta, "pairs": pairs, "ids": ids, "vocab": vocab, "alignment": alignment}


# ---------------------------------------------------------------------------
# train / decode


def resolve_model_config(cfg: RunConfig, vocab_size: int) -> None:
    if cfg.model.vocab_src in (0, None):
        cfg.model.vocab_src = vocab_size
    if cfg.model.vocab_tgt in (0, None):
        cfg.model.vocab_tgt = vocab_size
    cfg.model.validate()


def run_train(config_path: str, overrides: dict, resume: bool = False) -> dict:
    cfg = load_run_config(config_path, overrides)
    if not cfg.out:
        raise ConfigError("out: missing required key (run directory)")
    dataset = load_dataset_dir(cfg.data)
    resolve_model_config(cfg, len(dataset["vocab"]))
    model = Seq2Seq(cfg.model, cfg.fusion, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    A.write_json(os.path.join(cfg.out, "config.json"), cfg.to_dict())
    result = train(model, dataset["ids"]["train"], dataset["ids"]["valid"], cfg.train,
                   out_dir=cfg.out, resume=resume)
    return {"run_dir": cfg.out, "rows": result.rows, "best_val_loss": result.best_val_loss}


def model_from_run_dir(ckpt_path: str, which: str | None = None):
    """Rebuild model + dataset from a checkpoint and its sibling config.json."""
    run_dir = os.path.dirname(os.path.abspath(ckpt_path))
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(config_path):
        raise ConfigError(f"{run_dir}: missing config.json next to the checkpoint")
    cfg = load_run_config(config_path)
    dataset = load_dataset_dir(cfg.data)
    resolve_model_config(cfg, len(dataset["vocab"]))
    model = Seq2Seq(cfg.model, cfg.fusion, seed=cfg.seed)
    load_model_params(model, load_checkpoint(ckpt_path))
    return model, cfg, dataset


def run_decode(args) -> dict:
    model, cfg, dataset = model_from_run_dir(args.ckpt)
    vocab = dataset["vocab"]
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            sources = [line.split() for line in fh if line.strip()]
    else:
        sources = [s for s, _ in dataset["pairs"]["test"]]
    hyps = []
    score_dumps = []
    for tokens in sources:
        ids = vocab.encode(tokens)
        out_ids = beam_decode(model, ids, beam_size=args.beam, alpha=args.alpha,
                              max_len=args.max_len)
        hyps.append(" ".join(vocab.decode(out_ids)))
        if args.dump_scores:
            rows = A.score_breakdown(model, ids, out_ids)
            for row in rows:
                row["token"] = vocab.tokens[row["token_id"]]
            score_dumps.append({"source": " ".join(tokens), "hypothesis": hyps[-1],
                                "tokens": rows})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in hyps:
                fh.write(line + "\n")
    if args.dump_scores:
        A.write_json(args.dump_scores, score_dumps)
    return {"n": len(hyps), "hyps": hyps}


# ---------------------------------------------------------------------------
# analyze


def run_analyze(args) -> dict:
    model, cfg, dataset = model_from_run_dir(args.ckpt)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.ckpt))
    os.makedirs(out_dir, exist_ok=True)

    if args.kind == "heatmap":
        report = A.heatmap(model)
        A.write_json(os.path.join(out_dir, "heatmap.json"), report.to_dict())
        A.write_heatmap_pgm(os.path.join(out_dir, "heatmap.pgm"), report.matrix)
        weights = A.normalized_fusion_weights(model)
        A.write_json(os.path.join(out_dir, "fusion_weights.json"),
                     {"shape": list(weights.shape), "weights": weights.tolist()})
        return report.to_dict()

    if args.kind == "mask-sweep":
        rows = A.mask_sweep(model, dataset["ids"]["test"], metric=args.metric,
                            decode_limit=args.decode_limit)
        if args.layer is not None:
            labels = {"none"} | {A.source_labels(model)[args.layer]}
            rows = [r for r in rows if r["layer"] in labels]
        payload = {"kind": "mask-sweep", "metric": args.metric, "rows": rows}
        A.write_json(os.path.join(out_dir, "mask_sweep.json"), payload)
        return payload

    if args.kind == "svd":
        emb = model.src_embed.data
        reports = {"full-embedding": A.svd_spectrum(emb, "full-embedding")}
        # dimension splits need one weight per dimension (coarse mode has one
        # scalar per layer, so only the full spectrum is reported there)
        if model.fusion_weights is not None and model.fusion_weights.shape[2] == model.config.d_model:
            w = A.normalized_fusion_weights(model)
            m_index = (args.m if args.m is not None else w.shape[0]) - 1
            if not 0 <= m_index < w.shape[0]:
                raise InvalidParameterError(f"--m {args.m} outside 1..{w.shape[0]}")
            splits = A.split_dims_by_attention(emb, w[m_index, 0, :],
                                               Rng(args.seed).spawn("dim-split"))
            for key, label in (("more", "more-attended"), ("less", "less-attended"),
                               ("random", "random")):
                reports[label] = A.svd_spectrum(splits[key], label)
        payload = {"kind": "svd", "spectra": {k: r.to_dict() for k, r in reports.items()}}
        A.write_json(os.path.join(out_dir, "svd.json"), payload)
        for key, report in reports.items():
            A.write_spectrum_csv(os.path.join(out_dir, f"spectrum_{key}.csv"), report)
        return payload

    if args.kind == "embed-sim":
        if dataset["alignment"] is None:
            raise ConfigError("embed-sim needs a dataset with alignment.json (cipher task)")
        src_emb = model.src_embed.data
        tgt_emb = model.tgt_embed.data
        splits = ["all", "non-shared"] if args.split is None else [args.split]
        payload = {"kind": "embed-sim", "mean_cosine": {}}
        for split in splits:
            payload["mean_cosine"][split] = A.embed_cosine(src_emb, tgt_emb,
                                                           dataset["alignment"], split)
        A.write_json(os.path.join(out_dir, "embed_sim.json"), payload)
        return payload

    raise ConfigError(f"unknown analysis kind {args.kind!r}")


# ---------------------------------------------------------------------------
# gradcheck


def run_gradcheck(args) -> tuple[list, bool]:
    from .verify import run_suite

    rows, ok = run_suite(scope=args.scope, seed=args.seed, inject_fault=args.inject_fault)
    return rows, ok
