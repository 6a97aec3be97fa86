"""Pinned digests of three short training runs.

The simulator's rollouts and the default EPV grid have pins of their own
(test_sim.py, test_epv.py).  These pin what training builds on them: the
shaped reward, replay, the TD update, evaluation and the checkpoint.  A
refactor keeps every digest; a change that moves one changes what training
computes, so it says so and re-pins here in the same diff.

The log digest hashes the `episode`, `eval` and `eval_episode` rows in
file order, as perfbench/fingerprint.py does, so rows of other kinds can
be added without moving it.  The checkpoint digest hashes the decoded
arrays of `ckpt_final.json`, not its bytes, so it holds across encodings.

Pinned with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas,
DYNAMIC_ARCH, Haswell kernels) on x86-64.  Another BLAS build may round
the networks' products differently and move the digests.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from pitchlab import cli, trainer
from pitchlab.vdn import VDNLearner

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ("episode", "eval", "eval_episode")


def short_run(config_name: str, **reward) -> trainer.ExperimentConfig:
    doc = cli.load_config_dict(os.path.join(HERE, "..", "configs", config_name))
    doc["reward"].update(reward)
    doc["train"].update(total_steps=400, learn_start=64, buffer_capacity=1000)
    doc["seeds"] = [1]
    doc["eval_every"] = 200
    doc["eval_episodes"] = 2
    return trainer.ExperimentConfig.from_dict(doc)


def log_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for line in f:
            if json.loads(line).get("kind") in KINDS:
                h.update(line)
    return h.hexdigest()


def checkpoint_digest(path: str) -> str:
    learner = VDNLearner.load(path)
    h = hashlib.sha256(str(learner.train_step).encode())
    for net in (learner.online, learner.target):
        for a in (*net.weights, *net.biases):
            h.update(str(a.shape).encode())
            h.update(a.astype("<f8").tobytes())
    return h.hexdigest()


# name: (config file, reward overrides, log digest, checkpoint digest)
RUNS = {
    "desk_2v3-additive": (
        "desk_2v3.yaml", {"mode": "additive"},
        "741dc7e8d860d4f7f0b225546d3f69ffad63ddda4dcdb04495d249417c11d334",
        "dfdbd42a446e5d029373dbaf61c7dfe9dd0b1223f40c341fabf7f8669e3a44b4",
    ),
    "desk_2v3-potential_based": (
        "desk_2v3.yaml", {"mode": "potential_based"},
        "15d59bd5d8a37bd8a0b084d5d49c41c929b7c3d8f130e0169255248c4c342174",
        "576487fb52d5313f8ad39ca7d27dbfc02aa2e657cb2c9269a0b16f421884ba2d",
    ),
    "full_4v6-weight-0": (
        "full_4v6.yaml", {"weight": 0.0},
        "e9d0fdbac47f1229708e785cd7df41e482facbe259bcc7f82c7a5a598197e8d3",
        "a0521db3461d807236eb8c2b35ae9b73879f03adb8b509507941040c3ab16e15",
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_short_training_runs_keep_their_pinned_digests(tmp_path, name):
    config_name, reward, log_pin, ckpt_pin = RUNS[name]
    run_dir = trainer.run_training(short_run(config_name, **reward), str(tmp_path))
    metrics = os.path.join(run_dir, "seed-1", "metrics.jsonl")
    ckpt = os.path.join(run_dir, "seed-1", "ckpt_final.json")
    # the run reaches what it pins: every row kind, no error row, and
    # 85 TD updates (one per 4 steps from step 64 to 400)
    kinds = [row["kind"] for row in trainer.load_metrics(metrics)]
    assert set(kinds) == set(KINDS)
    assert VDNLearner.load(ckpt).train_step == 85
    versions = f"numpy {np.__version__} here; pinned with numpy 2.4.6, OpenBLAS 0.3.31"
    assert log_digest(metrics) == log_pin, versions
    assert checkpoint_digest(ckpt) == ckpt_pin, versions
