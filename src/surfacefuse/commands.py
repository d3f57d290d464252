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
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
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
class DataConfig:
    """Where a run reads its dataset; min_freq overrides the one in task.json."""

    dir: str
    min_freq: int | None = None


@dataclasses.dataclass
class RunConfig:
    """Fully resolved description of one experiment."""

    seed: int
    out: str | None
    data: DataConfig
    model: ModelConfig
    fusion: FusionConfig
    train: TrainConfig

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown config section")
        seed = _check_field_type("seed", "int", raw.get("seed", 0))
        out = _check_field_type("out", "str | None", raw.get("out"))
        data = _dataclass_from(DataConfig, raw.get("data", {}), "data")
        model = _dataclass_from(ModelConfig, raw.get("model", {}), "model",
                                defaults={"vocab_src": 0, "vocab_tgt": 0})
        fusion = _dataclass_from(FusionConfig, raw.get("fusion", {}), "fusion",
                                 json_names=_FUSION_JSON_NAMES, retired=_RETIRED_FUSION)
        fusion.validate()
        train_cfg = _dataclass_from(TrainConfig, raw.get("train", {}), "train",
                                    retired=_RETIRED_TRAIN)
        if "seed" not in raw.get("train", {}):
            train_cfg.seed = seed
        return cls(seed=seed, out=out, data=data, model=model, fusion=fusion, train=train_cfg)

    def to_dict(self) -> dict:
        fusion = dataclasses.asdict(self.fusion)
        return {
            "seed": self.seed,
            "out": self.out,
            "data": {k: v for k, v in dataclasses.asdict(self.data).items() if v is not None},
            "model": dataclasses.asdict(self.model),
            "fusion": {key: fusion[name] for key, name in _FUSION_JSON_NAMES.items()},
            "train": dataclasses.asdict(self.train),
        }


# JSON key -> FusionConfig field, in config.json order
_FUSION_JSON_NAMES = {"mode": "mode", "lambda": "lambda_", "tau": "tau", "p": "dropconnect"}

# Retired options and the one value configs ever held for them; run
# directories written before their removal still load.
_RETIRED_FUSION = {"dropconnect_on": "raw", "renormalize_hard": False}
_RETIRED_TRAIN = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "adam_eps": ADAM_EPS}

_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _check_field_type(loc: str, annotation: str, value):
    """Coerce/validate a JSON value against a dataclass field annotation."""
    kinds = [k.strip() for k in annotation.split("|")]
    if value is None and "None" in kinds:
        return None
    kind = kinds[0]
    expected = _JSON_TYPES.get(kind)
    if expected is not None and (not isinstance(value, expected)
                                 or (isinstance(value, bool) and kind != "bool")):
        raise ConfigError(f"{loc}: expected {kind}, got {type(value).__name__}")
    return float(value) if kind == "float" else value


def _dataclass_from(cls, section: dict, path: str, defaults: dict | None = None,
                    json_names: dict | None = None, retired: dict | None = None):
    """Build a config dataclass from one JSON section, checking every value.

    `json_names` maps each accepted JSON key to its field (default: the
    field names themselves); `retired` maps keys that are still read, and
    dropped, to the one value they may hold.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    names = json_names or {name: name for name in fields}
    retired = retired or {}
    kwargs = dict(defaults or {})
    for key, value in section.items():
        if key in retired:
            kept = retired[key]
            if type(value) is not type(kept) or value != kept:
                raise ConfigError(f"{path}.{key}: retired option; only {kept!r} "
                                  f"is still accepted, got {value!r}")
            continue
        if key not in names:
            raise ConfigError(f"{path}.{key}: unknown field (allowed: {', '.join(names)})")
        field = fields[names[key]]
        kwargs[field.name] = _check_field_type(f"{path}.{key}", field.type, value)
    for key, name in names.items():
        if name not in kwargs and fields[name].default is dataclasses.MISSING:
            raise ConfigError(f"{path}.{key}: missing required key")
    return cls(**kwargs)


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
    counts = {"train": args.n_train, "valid": args.n_valid, "test": args.n_test}
    for split, n in counts.items():
        if n < 1:  # an empty split file never loads
            raise InvalidParameterError(f"--n-{split} must be >= 1, got {n}")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(args.seed)
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


def load_dataset_dir(data_cfg: DataConfig) -> dict:
    """Read a generated dataset directory into id pairs plus vocabulary."""
    dir_path = data_cfg.dir
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
        min_freq = data_cfg.min_freq if data_cfg.min_freq is not None else meta.get("min_freq", 1)
        _, vocab, _ = D.load_parallel_text(os.path.join(dir_path, "train.src"),
                                           os.path.join(dir_path, "train.tgt"),
                                           min_freq=min_freq)
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


def model_from_run_dir(ckpt_path: str):
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
        sources = A.source_labels(model)
        if args.layer is not None and not 0 <= args.layer < len(sources):
            raise InvalidParameterError(f"--layer {args.layer} outside 0..{len(sources) - 1}")
        if args.decode_limit < 0:
            raise InvalidParameterError(f"--decode-limit must be >= 0, got {args.decode_limit}")
        rows = A.mask_sweep(model, dataset["ids"]["test"], metric=args.metric,
                            decode_limit=args.decode_limit)
        if args.layer is not None:
            rows = [r for r in rows if r["layer"] in ("none", sources[args.layer])]
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
