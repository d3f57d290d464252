"""Smoke test: every study script runs end to end and writes the files the
README lists for it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ["task.json"] + [f"{split}.{side}" for split in ("train", "valid", "test")
                        for side in ("src", "tgt")]
RUN = ["config.json", "metrics.csv", "best.ckpt", "last.ckpt"]

ARTIFACTS = {
    "copy_baseline": ["data/" + f for f in DATA] + RUN,
    "cipher_layer_study": (
        ["data/" + f for f in DATA + ["alignment.json"]] + RUN
        + ["heatmap.json", "heatmap.pgm", "fusion_weights.json", "mask_sweep.json", "svd.json"]
        + [f"spectrum_{key}.csv"
           for key in ("full-embedding", "more-attended", "less-attended", "random")]),
    "surface_embedding_study": (
        ["data/" + f for f in DATA + ["alignment.json"]] + ["report.json"]
        + [f"{mode}/{f}" for mode in ("none", "surface-soft")
           for f in RUN + ["embed_sim.json", "svd.json", "spectrum_full-embedding.csv"]]),
}


@pytest.mark.parametrize("script", sorted(ARTIFACTS))
def test_script_writes_its_artifacts(script, tmp_path):
    out = tmp_path / script
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py"),
                           "--steps", "2", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    missing = [name for name in ARTIFACTS[script] if not (out / name).is_file()]
    assert not missing
