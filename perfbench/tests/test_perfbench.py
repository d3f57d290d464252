"""Tests of the benchmark itself, including its negative controls.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bootstrap
import workloads as W
from surfacefuse import model as M
from surfacefuse.checkpoint import load_checkpoint, save_checkpoint
from surfacefuse.tensor import Tensor
from tracer import Tracer


def decode_one_block(fixture, fixture_dir=W.FIXTURES, seed=1):
    setup = W.setup_decode(fixture, seed, fixture_dir)
    return W.summarize_decode(setup, W.measure_decode(setup, 0.0))


@pytest.fixture
def soft_copy(tmp_path):
    shutil.copytree(W.FIXTURES / "soft", tmp_path / "soft")
    return tmp_path


@pytest.mark.parametrize("fixture", ["soft", "fine"])
def test_fixtures_match_their_references(fixture):
    out = decode_one_block(fixture)
    assert out.attempted == len(W.LENGTHS)
    assert out.failed == 0 and not out.problems
    assert out.metrics["ops_per_s"][0] > 0


def test_edited_reference_fails(soft_copy):
    setup = W.setup_decode("soft", 1, soft_copy)
    hyps = (soft_copy / "soft" / "hyps.txt").read_text().splitlines()
    victim = setup.sentences[0].pool_index
    hyps[victim] = " ".join(reversed(hyps[victim].split())) + " t00"
    (soft_copy / "soft" / "hyps.txt").write_text("\n".join(hyps) + "\n")
    out = decode_one_block("soft", soft_copy)
    assert out.failed == 1
    assert str(victim) in out.problems[0]


def test_perturbed_weight_fails(soft_copy):
    path = soft_copy / "soft" / "model.ckpt"
    params = load_checkpoint(path)
    rng = np.random.default_rng(0)
    params["src_embed"] = params["src_embed"] + rng.normal(0, 0.5, params["src_embed"].shape).astype(
        params["src_embed"].dtype)
    save_checkpoint(path, params)
    out = decode_one_block("soft", soft_copy)
    assert out.failed > 0


def test_reserved_ids_are_failures():
    assert W.hypothesis_problem([1, 5], [1, 5]) == "reserved or out-of-vocabulary id"
    assert W.hypothesis_problem([4, 500], [4, 500]) == "reserved or out-of-vocabulary id"
    assert W.hypothesis_problem([4, 5], [4, 6]) == "differs from the reference"
    assert W.hypothesis_problem([4, 5], [4, 5]) is None


def test_seed_picks_length_balanced_blocks():
    a = W.setup_decode("soft", 1).sentences
    b = W.setup_decode("soft", 2).sentences
    assert len(a) == W.BLOCKS * len(W.LENGTHS)
    for k in range(0, len(a), len(W.LENGTHS)):
        assert sorted(len(s.src) for s in a[k:k + len(W.LENGTHS)]) == list(W.LENGTHS)
    assert [s.pool_index for s in a] != [s.pool_index for s in b]
    assert [s.pool_index for s in a] == [s.pool_index for s in W.setup_decode("soft", 1).sentences]


def test_nonfinite_training_step_is_a_failed_op(monkeypatch, tmp_path):
    setup = W.setup_train(1)
    original = M.Seq2Seq.loss_on_batch
    calls = []

    def poisoned(self, batch, training=False, label_smoothing=0.0):
        loss, stats = original(self, batch, training=training, label_smoothing=label_smoothing)
        calls.append(1)
        if len(calls) == 3:
            loss = Tensor(np.array(math.nan, dtype=loss.data.dtype))
        return loss, stats

    monkeypatch.setattr(M.Seq2Seq, "loss_on_batch", poisoned)
    run = W.measure_train(setup, 1, 0.0, tmp_path)
    assert (run.attempted, run.failed) == (3, 1)
    assert not run.reps
    assert "step 3" in run.problems[0]


def test_trace_spans_nest_and_cover_the_run():
    setup = W.setup_decode("fine", 1)
    tracer = Tracer()
    with tracer.installed():
        run = W.measure_decode(setup, 0.0)
    out = W.summarize_decode(setup, run)
    coverage, problems = tracer.check(run.wall_s, run.op_s)
    assert not problems and coverage >= 0.9
    # the per-op comparison fails when the spans and the op clock disagree
    assert "op spans for" in tracer.check(run.wall_s, run.op_s[1:])[1][0]
    assert "longer than the op" in tracer.check(run.wall_s, [t / 2 for t in run.op_s])[1][0]
    assert "miss" in tracer.check(run.wall_s, [t * 1.5 for t in run.op_s])[1][0]
    assert sum(tracer.self_times()) == pytest.approx(
        sum(s[4] - s[3] for s in tracer.roots()), rel=1e-9)
    metrics = tracer.layer_metrics(out.generated_tokens, [], coverage, 0.0)
    assert metrics["fusion.sources_calls_per_sentence"][0] >= 1
    assert metrics["model.positions_per_token"][0] >= 1
    assert metrics["surface.state_s"][0] == 0


def test_trace_reports_spans_left_open():
    tracer = Tracer()
    with tracer.installed():
        tracer.open("stray")
    assert tracer.left_open == ["stray"] and not tracer.stack
    assert any("still open" in p for p in tracer.check(1.0, [])[1])


def test_tracer_restores_the_library():
    from surfacefuse import checkpoint, training

    before = (training.beam_decode, training.save_checkpoint, checkpoint.save_checkpoint,
              Tensor.__init__, M.Seq2Seq.decode)
    with Tracer().installed():
        assert training.save_checkpoint is checkpoint.save_checkpoint is not before[2]
    assert (training.beam_decode, training.save_checkpoint, checkpoint.save_checkpoint,
            Tensor.__init__, M.Seq2Seq.decode) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bootstrap.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = [sys.executable, *spec["command"][1:],
           "--workload", "train-soft", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload, trace, section", [
    ("decode-greedy-soft", False, "end_to_end"),
    ("decode-greedy-soft", True, "per_layer"),
    ("train-soft", False, "end_to_end"),
])
def test_reported_metrics_match_benchmark_json(workload, trace, section, tmp_path):
    import run

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    outcome, _, metrics, _ = run.run(workload, 1, 0.0, trace, tmp_path)
    assert outcome.failed == 0 and not outcome.problems
    assert {m["name"]: m["unit"] for m in spec[section]} == {k: u for k, (_, u) in metrics.items()}
    if workload == "train-soft":
        # quality comes from the 1200-step call, which has learned the cipher
        assert metrics["heldout_loss"][0] < 0.5 and metrics["accuracy"][0] > 0.9
    if trace:
        assert metrics["checkpoint.load_s"][0] > 0
        assert metrics["surface.fused_scores_s"][0] > 0 and metrics["fusion.sources_s"][0] == 0
