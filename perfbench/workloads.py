"""The benchmark's three workloads, their inputs and their correctness checks.

Every workload uses the cipher64 task: 64 content tokens, a fixed
bijection with 25% fixed points (stored in fixtures/cipher.json), sentence
lengths 5 to 12, and the d_model 32, 2+2 layer, 4 head, float32 model of the
acceptance criteria. The workload seed picks the sentences and the batch
order; the model initialisation and the cipher stay fixed, so the committed
decode checkpoints are valid for every seed.

Inputs are made here with Python's `random`, not with the library's own
generators, so a change to the code under test cannot change the inputs.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from surfacefuse import checkpoint, training
from surfacefuse import data as D
from surfacefuse.model import ModelConfig, Seq2Seq
from surfacefuse.surface import FusionConfig
from surfacefuse.tensor import no_grad

BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR / "fixtures"

VOCAB_SIZE = 64                 # content tokens; ids 4..67 after the reserved four
LEN_MIN, LEN_MAX = 5, 12
LENGTHS = tuple(range(LEN_MIN, LEN_MAX + 1))
BLOCKS = 63                     # test split: 63 blocks of one sentence per length = 504
N_TRAIN, N_VALID = 5000, 200
MODEL_SEED = 0                  # parameter initialisation, fixed across workload seeds
SETUP_REPEATS = 11              # set-up is timed at least this many times, and for at least
SETUP_MIN_S = 1.0               # this long (a decode set-up takes 5 ms); the median is reported
TRAIN_REP_STEPS = 300           # optimizer steps per train() call in train-soft
TRAIN_EVAL_INTERVAL = 100
TRAIN_LEARN_STEPS = 1200        # steps of the train() call the train-soft quality metrics come from
TRAIN_LEARN_EVAL_INTERVAL = 200

DECODERS = {
    "decode-greedy-soft": "soft",
    "decode-beam4-fine": "fine",
}
WORKLOADS = ("train-soft",) + tuple(DECODERS)


# ---------------------------------------------------------------------------
# fixtures and inputs


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cipher_task() -> D.CipherTask:
    meta = load_json(FIXTURES / "cipher.json")
    return D.CipherTask(meta["vocab_size"], meta["permutation"], meta["shared_fraction"])


def vocab() -> D.Vocabulary:
    return D.vocab_for_task(VOCAB_SIZE)


def random_pairs(task: D.CipherTask, n: int, rng: random.Random, length: int | None = None):
    """n (source, target) token lists; the target is the cipher of the source."""
    pairs = []
    for _ in range(n):
        size = length if length is not None else rng.randint(LEN_MIN, LEN_MAX)
        src = [D.content_token(rng.randrange(VOCAB_SIZE)) for _ in range(size)]
        pairs.append((src, task.apply(src)))
    return pairs


def train_pairs(task: D.CipherTask, seed: int):
    rng = random.Random(f"train:{seed}")
    return random_pairs(task, N_TRAIN, rng), random_pairs(task, N_VALID, rng)


def build_model(cfg: dict) -> Seq2Seq:
    n_vocab = VOCAB_SIZE + len(D.RESERVED)
    model_cfg = ModelConfig(vocab_src=n_vocab, vocab_tgt=n_vocab, **cfg["model"])
    return Seq2Seq(model_cfg, FusionConfig(**cfg["fusion"]), seed=MODEL_SEED)


def train_config(cfg: dict, steps: int, eval_interval: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(steps=steps, eval_interval=eval_interval, seed=seed, **cfg["train"])


def read_lines(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh]


@dataclass
class Sentence:
    pool_index: int
    src: list[int]
    gold: list[int]
    ref: list[int]


def select_sentences(seed: int, refs: list[list[int]], pool_src, pool_tgt, voc) -> list[Sentence]:
    """The seed's test split: BLOCKS blocks, each one sentence of every length.

    Any prefix of whole blocks has the same length mix, so a run that stops
    early still does the same kind of work on every seed.
    """
    rng = random.Random(f"test:{seed}")
    by_length: dict[int, list[int]] = {n: [] for n in LENGTHS}
    for i, src in enumerate(pool_src):
        by_length[len(src)].append(i)
    picked = {n: rng.sample(idx, BLOCKS) for n, idx in by_length.items()}
    order = []
    for b in range(BLOCKS):
        block = [picked[n][b] for n in LENGTHS]
        rng.shuffle(block)
        order.extend(block)
    return [Sentence(i, voc.encode(pool_src[i]), voc.encode(pool_tgt[i]), refs[i]) for i in order]


@dataclass
class DecodeSetup:
    cfg: dict
    model: Seq2Seq
    sentences: list[Sentence]


def setup_decode(fixture: str, seed: int, fixture_dir: Path = FIXTURES) -> DecodeSetup:
    """Read the committed inputs and references, build the model, load weights."""
    voc = vocab()
    pool_src = read_lines(FIXTURES / "pool.src")
    pool_tgt = read_lines(FIXTURES / "pool.tgt")
    refs = [voc.encode(line) for line in read_lines(fixture_dir / fixture / "hyps.txt")]
    cfg = load_json(fixture_dir / fixture / "config.json")
    model = build_model(cfg)
    params = checkpoint.load_checkpoint(fixture_dir / fixture / "model.ckpt")
    training.load_model_params(model, params)
    return DecodeSetup(cfg, model, select_sentences(seed, refs, pool_src, pool_tgt, voc))


@dataclass
class TrainSetup:
    cfg: dict
    train_ids: list
    valid_ids: list
    test_ids: list                                 # the whole fixture pool, fixed across seeds


def setup_train(seed: int) -> TrainSetup:
    voc = vocab()
    cfg = load_json(FIXTURES / "soft" / "config.json")
    train_p, valid_p = train_pairs(cipher_task(), seed)
    pool = zip(read_lines(FIXTURES / "pool.src"), read_lines(FIXTURES / "pool.tgt"))
    return TrainSetup(cfg, D.encode_pairs(train_p, voc), D.encode_pairs(valid_p, voc),
                      D.encode_pairs(list(pool), voc))


def timed_setups(make):
    """Repeat set-up as SETUP_REPEATS and SETUP_MIN_S ask; return the last result and the median time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


# ---------------------------------------------------------------------------
# measurement


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What a workload reports once its measured phase is over."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # BENCHMARK.json name -> (value, unit)
    names: dict = field(default_factory=dict)     # workload's own name -> (value, unit)
    generated_tokens: int = 0


class StepClock:
    """Times each optimizer step from `zero_grad` to the end of `Adam.step`.

    Installed on the Adam class while training is measured; the cost is two
    clock reads per step.
    """

    def __init__(self):
        self.times: list[float] = []
        self._start = 0.0

    def __enter__(self):
        adam = training.Adam
        self._saved = (adam.zero_grad, adam.step)
        zero_grad, step = self._saved
        clock = self

        def timed_zero_grad(opt):
            clock._start = time.perf_counter()
            return zero_grad(opt)

        def timed_step(opt, lr):
            result = step(opt, lr)
            clock.times.append(time.perf_counter() - clock._start)
            return result

        adam.zero_grad, adam.step = timed_zero_grad, timed_step
        return self

    def __exit__(self, *exc):
        training.Adam.zero_grad, training.Adam.step = self._saved


@dataclass
class TrainRun:
    tcfg: training.TrainConfig
    reps: list = field(default_factory=list)       # (TrainResult, model, run_dir, seconds)
    op_s: list[float] = field(default_factory=list)    # seconds of each optimizer step
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0                            # time spent inside train()
    learned: tuple | None = None                   # (TrainResult, model, run_dir, TrainConfig)


def train_call(setup: TrainSetup, model: Seq2Seq, tcfg, run_dir: Path, run: TrainRun,
               clock: StepClock):
    """One train() call; counts its steps as ops. Returns the TrainResult, or None if it raised."""
    steps_before = len(clock.times)
    try:
        result = training.train(model, setup.train_ids, setup.valid_ids, tcfg,
                                out_dir=str(run_dir))
    except Exception as exc:  # a failing step: count it, keep measuring
        done = len(clock.times) - steps_before
        run.attempted += done + 1
        run.failed += 1
        run.problems.append(f"train: step {done + 1} raised {exc!r}")
        return None
    run.attempted += len(result.step_losses)
    run.failed += sum(1 for x in result.step_losses if not math.isfinite(x))
    return result


def measure_train(setup: TrainSetup, seed: int, seconds: float, work_dir: Path,
                  learn: bool = False) -> TrainRun:
    """Repeat one train() call on a fresh model until `seconds` have passed.

    With `learn`, one TRAIN_LEARN_STEPS call follows the measured time; the
    quality metrics come from the model it trains, since the timed calls stop
    soon after warmup.
    """
    run = TrainRun(train_config(setup.cfg, TRAIN_REP_STEPS, TRAIN_EVAL_INTERVAL, seed))
    deadline = time.perf_counter() + seconds
    with StepClock() as clock:
        while not run.reps or time.perf_counter() < deadline:
            model = build_model(setup.cfg)
            run_dir = work_dir / f"rep{len(run.reps)}"
            t0 = time.perf_counter()
            result = train_call(setup, model, run.tcfg, run_dir, run, clock)
            elapsed = time.perf_counter() - t0
            run.wall_s += elapsed
            if result is not None:
                run.reps.append((result, model, run_dir, elapsed))
            elif time.perf_counter() >= deadline:
                break
    run.op_s = clock.times
    if learn:
        tcfg = train_config(setup.cfg, TRAIN_LEARN_STEPS, TRAIN_LEARN_EVAL_INTERVAL, seed)
        model, run_dir = build_model(setup.cfg), work_dir / "learned"
        with StepClock() as clock:
            result = train_call(setup, model, tcfg, run_dir, run, clock)
        if result is not None:
            run.learned = (result, model, run_dir, tcfg)
    return run


def summarize_train(setup: TrainSetup, run: TrainRun) -> Outcome:
    """Check the trained models and turn the timings into metrics.

    Every repeat trains the same model on the same batches, so all repeats
    must produce the same losses, and the quality call's first steps must
    too. The quality metrics are reported only when that call was made.
    """
    out = Outcome(run.attempted, run.failed, list(run.problems))
    if not run.reps:
        return out
    result, model, run_dir, _ = run.reps[0]
    for other, *_ in run.reps[1:]:
        if other.step_losses != result.step_losses:
            out.problems.append("train: a repeat's losses differ from the first repeat's")
            break
    out.problems += check_trained(result, model, run_dir, run.tcfg)
    tokens = target_tokens(setup.train_ids, run.tcfg)
    median_rep = statistics.median(seconds for *_, seconds in run.reps)
    step_p50, step_p95 = 1e3 * statistics.median(run.op_s), 1e3 * percentile(run.op_s, 95)
    out.metrics = {
        "tokens_per_s": (tokens / median_rep, "tok/s"),
        "ops_per_s": (run.tcfg.steps / median_rep, "1/s"),
        "op_ms_p50": (step_p50, "ms"),
    }
    out.names = {
        "train_tokens_per_s": (tokens / median_rep, "tok/s"),
        "train_step_ms_p50": (step_p50, "ms"),
        "train_step_ms_p95": (step_p95, "ms"),
    }
    if run.learned is None:
        return out
    learned, model, run_dir, tcfg = run.learned
    if learned.step_losses[:len(result.step_losses)] != result.step_losses:
        out.problems.append("train: the quality call's first steps differ from the timed calls'")
    out.problems += check_trained(learned, model, run_dir, tcfg)
    pool = D.token_batches(setup.test_ids, tcfg.max_tokens)
    test_loss, test_acc = training.evaluate(model, pool)
    objective = smoothed_loss(model, pool, tcfg.label_smoothing)
    out.metrics.update({
        "objective_loss": (objective, "nats/tok"),
        "heldout_loss": (test_loss, "nats/tok"),
        "accuracy": (test_acc, "share"),
    })
    out.names.update({
        "train_final_loss": (learned.rows[-1]["loss"], "nats/tok"),
        "val_loss": (learned.final_val_loss, "nats/tok"),
        "test_smoothed_loss": (objective, "nats/tok"),
        "test_loss": (test_loss, "nats/tok"),
        "test_token_acc": (test_acc, "share"),
    })
    return out


def target_tokens(train_ids, tcfg: training.TrainConfig) -> int:
    """Target tokens (EOS included) in the batches of one train() call."""
    stream = D.BatchStream(train_ids, tcfg.max_tokens, tcfg.seed)
    total = 0
    for step, batch in stream.from_step(0):
        if step >= tcfg.steps:
            break
        total += int((batch.tgt_out != D.PAD_ID).sum())
    return total


def check_trained(result, model: Seq2Seq, run_dir: Path, tcfg) -> list[str]:
    problems = []
    rows = result.rows
    if len(rows) != tcfg.steps // tcfg.eval_interval:
        problems.append(f"train: {len(rows)} validation rows, expected "
                        f"{tcfg.steps // tcfg.eval_interval}")
    elif not rows[-1]["loss"] < rows[0]["loss"]:
        problems.append("train: training loss did not decrease")
    if not math.isfinite(result.final_val_loss):
        problems.append("train: validation loss is not finite")
    for name in ("best.ckpt", "last.ckpt", "metrics.csv"):
        if not (run_dir / name).is_file():
            problems.append(f"train: {name} was not written")
    if (run_dir / "last.ckpt").is_file():
        saved = checkpoint.load_checkpoint(run_dir / "last.ckpt")
        for name, p in model.named_parameters():
            if name not in saved or not (saved[name] == p.data).all():
                problems.append(f"train: last.ckpt does not hold the final {name}")
                break
    return problems


def hypothesis_problem(hyp: list[int], ref: list[int]) -> str | None:
    first, stop = len(D.RESERVED), VOCAB_SIZE + len(D.RESERVED)
    if any(not first <= t < stop for t in hyp):
        return "reserved or out-of-vocabulary id"
    if hyp != ref:
        return "differs from the reference"
    return None


@dataclass
class DecodeRun:
    results: list = field(default_factory=list)    # (Sentence, hypothesis or exception)
    op_s: list[float] = field(default_factory=list)    # seconds of each sentence
    wall_s: float = 0.0


def measure_decode(setup: DecodeSetup, seconds: float) -> DecodeRun:
    """Decode whole blocks of the seed's test split until `seconds` have passed.

    The split is cycled if time remains. Each sentence is timed alone;
    checking happens afterwards, in summarize_decode.
    """
    run = DecodeRun()
    beam, alpha = setup.cfg["decode"]["beam"], setup.cfg["decode"]["alpha"]
    block = len(LENGTHS)
    start = time.perf_counter()
    deadline = start + seconds
    while not run.results or time.perf_counter() < deadline:
        first = len(run.results) % len(setup.sentences)
        for s in setup.sentences[first:first + block]:
            t0 = time.perf_counter()
            try:
                hyp = training.beam_decode(setup.model, s.src, beam_size=beam, alpha=alpha)
            except Exception as exc:  # a failing sentence: count it, keep measuring
                hyp = exc
            run.op_s.append(time.perf_counter() - t0)
            run.results.append((s, hyp))
    run.wall_s = time.perf_counter() - start
    return run


def summarize_decode(setup: DecodeSetup, run: DecodeRun) -> Outcome:
    """Check every hypothesis against its reference; rates are block medians."""
    out = Outcome()
    block = len(LENGTHS)
    block_s, block_tokens = [], []
    exact = {}
    for k, (s, hyp) in enumerate(run.results):
        if k % block == 0:
            block_s.append(0.0)
            block_tokens.append(0)
        block_s[-1] += run.op_s[k]
        out.attempted += 1
        if isinstance(hyp, Exception):
            problem = f"raised {hyp!r}"
        else:
            problem = hypothesis_problem(hyp, s.ref)
            block_tokens[-1] += len(hyp) + 1           # the EOS step is generated too
            out.generated_tokens += len(hyp) + 1
            exact[s.pool_index] = hyp == s.gold
        if problem is not None:
            out.failed += 1
            if len(out.problems) < 5:
                out.problems.append(f"decode: pool sentence {s.pool_index} {problem}")

    sent_rate = statistics.median(block / t for t in block_s)
    tok_rate = statistics.median(n / t for n, t in zip(block_tokens, block_s))
    sent_p50, sent_p95 = 1e3 * statistics.median(run.op_s), 1e3 * percentile(run.op_s, 95)
    batches = D.token_batches([(s.src, s.gold) for s in setup.sentences], 512)
    heldout, _ = training.evaluate(setup.model, batches)
    objective = smoothed_loss(setup.model, batches, setup.cfg["train"]["label_smoothing"])
    match = sum(exact.values()) / max(1, len(exact))
    out.metrics = {
        "tokens_per_s": (tok_rate, "tok/s"),
        "ops_per_s": (sent_rate, "1/s"),
        "op_ms_p50": (sent_p50, "ms"),
        "objective_loss": (objective, "nats/tok"),
        "heldout_loss": (heldout, "nats/tok"),
        "accuracy": (match, "share"),
    }
    out.names = {
        "decode_sent_per_s": (sent_rate, "sent/s"),
        "decode_tokens_per_s": (tok_rate, "tok/s"),
        "decode_sent_ms_p50": (sent_p50, "ms"),
        "decode_sent_ms_p95": (sent_p95, "ms"),
        "decode_exact_match": (match, "share"),
    }
    return out


def smoothed_loss(model: Seq2Seq, batches, smoothing: float) -> float:
    """The training objective (label-smoothed loss), teacher-forced."""
    total = count = 0.0
    with no_grad():
        for batch in batches:
            loss, stats = model.loss_on_batch(batch, training=False, label_smoothing=smoothing)
            total += loss.item() * stats["ntokens"]
            count += stats["ntokens"]
    return total / count
