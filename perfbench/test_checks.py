"""The benchmark's own tests: each output check passes on a real artifact
and rejects one corrupted for the purpose, and tracing changes nothing.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
from pitchlab import cli, epv, sim, trainer  # noqa: E402
from pitchlab.vdn import VDNLearner  # noqa: E402


def tiny_config(weight: float | None = None):
    doc = cli.load_config_dict(str(HERE.parent / "configs" / "desk_2v3.yaml"))
    doc["train"].update(total_steps=400, learn_start=100)
    doc.update(eval_every=200, eval_episodes=2, seeds=[3])
    if weight is not None:
        doc["reward"]["weight"] = weight
    return trainer.ExperimentConfig.from_dict(doc)


def expected_updates(config) -> int:
    t = config.train
    return checks.expected_updates(t.total_steps, t.learn_start,
                                   t.update_every, t.buffer_capacity)


@pytest.fixture(scope="module")
def epv_cap():
    return checks.reference_epv_sum(sim.PitchSpec())


@pytest.fixture(scope="module")
def shaped_run(tmp_path_factory):
    config = tiny_config()
    run_dir = Path(trainer.run_training(config, str(tmp_path_factory.mktemp("s"))))
    seed_dir = run_dir / "seed-3"
    rows = checks.parse_log((seed_dir / "metrics.jsonl").read_bytes())
    ckpt = json.loads((seed_dir / "ckpt_final.json").read_text())
    return config, rows, ckpt, seed_dir / "ckpt_final.json"


def test_reference_epv_sum_matches_value_iteration(epv_cap):
    values = epv.solve_epv(epv.default_chain(sim.PitchSpec()))
    assert epv_cap == pytest.approx(float(values.sum()), rel=1e-6)


@pytest.mark.parametrize("total,learn_start,every,cap", [
    (400, 100, 4, 50), (400, 100, 4, 500), (20_000, 1000, 4, 50_000),
    (10_000, 5000, 4, 100_000), (99, 100, 4, 500), (103, 32, 5, 40)])
def test_expected_updates_counts_the_loop(total, learn_start, every, cap):
    count = sum(1 for g in range(total)
                if min(g + 1, cap) >= learn_start and (g + 1) % every == 0)
    assert checks.expected_updates(total, learn_start, every, cap) == count


def test_real_training_log_passes(shaped_run, epv_cap):
    config, rows, ckpt, _ = shaped_run
    problems, steps = checks.check_training_log(rows, config, epv_cap)
    assert problems == []
    evals = sum(r["steps"] for r in rows if r["kind"] == "eval_episode")
    assert steps == config.train.total_steps + evals
    assert checks.check_checkpoint(ckpt, expected_updates(config)) == []


def test_episode_steps_off_by_one_is_rejected(shaped_run, epv_cap):
    config, rows, _, _ = shaped_run
    bad = copy.deepcopy(rows)
    next(r for r in bad if r["kind"] == "episode")["steps"] += 1
    problems, _ = checks.check_training_log(bad, config, epv_cap)
    assert any("steps after the previous end" in p for p in problems)


@pytest.mark.parametrize("kind", ["episode", "eval_episode"])
def test_shaped_return_off_by_1e6_is_rejected(shaped_run, epv_cap, kind):
    config, rows, _, _ = shaped_run
    bad = copy.deepcopy(rows)
    next(r for r in bad if r["kind"] == kind)["shaped_return"] += 1e-6
    problems, _ = checks.check_training_log(bad, config, epv_cap)
    assert any("shaped_return" in p for p in problems)


def test_mean_epv_above_reference_bound_is_rejected(shaped_run, epv_cap):
    config, rows, _, _ = shaped_run
    row = dict(next(r for r in rows if r["kind"] == "episode"))
    row["mean_epv"] = epv_cap * (1 + 1e-9)
    row["shaped_return"] = row["sparse_return"] - 0.1 * row["mean_epv"] * row["steps"]
    assert checks.check_episode(row, config.reward.weight, epv_cap) != []


def test_checkpoint_train_step_off_by_one_is_rejected(shaped_run):
    config, _, ckpt, _ = shaped_run
    want = expected_updates(config)
    assert want > 0
    bad = dict(ckpt, train_step=ckpt["train_step"] + 1)
    assert checks.check_checkpoint(bad, want) != []


def test_missing_eval_block_is_rejected(shaped_run, epv_cap):
    config, rows, _, _ = shaped_run
    bad = [r for r in rows if not (r["kind"] == "eval" and r["step"] == 200)]
    problems, _ = checks.check_training_log(bad, config, epv_cap)
    assert any("eval blocks" in p for p in problems)


def test_weight_zero_log_passes_and_rejects_a_mean_epv(tmp_path, epv_cap):
    config = tiny_config(weight=0.0)
    run_dir = Path(trainer.run_training(config, str(tmp_path)))
    rows = checks.parse_log((run_dir / "seed-3" / "metrics.jsonl").read_bytes())
    assert checks.check_training_log(rows, config, epv_cap)[0] == []
    row = dict(next(r for r in rows if r["kind"] == "episode"), mean_epv=1.0)
    assert checks.check_episode(row, 0.0, epv_cap) != []


def flipped(rec):
    outcome = "turnover" if rec.outcome == "goal_conceded" else "goal_conceded"
    return dataclasses.replace(rec, outcome=outcome)


def test_eval_records_pass_replay_and_reject_a_flipped_outcome(shaped_run, epv_cap):
    config, _, _, ckpt = shaped_run
    mean_gd, recs = trainer.evaluate_checkpoint(str(ckpt), config, 0.6, 3, 11)
    assert checks.check_eval_records(mean_gd, recs, config, 11, epv_cap) == []
    for i in range(len(recs)):
        bad = list(recs)
        bad[i] = flipped(recs[i])
        assert checks.check_eval_records(mean_gd, bad, config, 11, epv_cap) != []

    learner = VDNLearner.load(str(ckpt))
    values = epv.solve_epv(epv.default_chain(config.scenario.pitch))
    replayed = checks.replay_episode(learner, config, 0.6, recs[0].seed, values)
    assert checks.check_replay(recs[0], replayed) == []
    assert checks.check_replay(flipped(recs[0]), replayed) != []
    assert checks.check_replay(dataclasses.replace(recs[0], steps=recs[0].steps + 1),
                               replayed) != []


def test_tracing_leaves_the_log_unchanged_and_counts_every_step(tmp_path, epv_cap):
    config = tiny_config()
    plain = Path(trainer.run_training(config, str(tmp_path / "plain")))
    originals = {(id(o), a): o.__dict__[a] for _, o, a in spans.TARGETS}
    tracer = spans.Tracer()
    with tracer.installed():
        traced = Path(trainer.run_training(config, str(tmp_path / "traced")))
    assert {(id(o), a): o.__dict__[a] for _, o, a in spans.TARGETS} == originals

    data = (traced / "seed-3" / "metrics.jsonl").read_bytes()
    assert data == (plain / "seed-3" / "metrics.jsonl").read_bytes()
    _, steps = checks.check_training_log(checks.parse_log(data), config, epv_cap)
    stats = tracer.stats()
    assert stats["sim.step"]["calls"] == steps
    assert stats["vdn.td_update"]["calls"] == expected_updates(config)
    assert stats["trainer.train_seed"]["calls"] == 1
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(spans.LAYER_UNITS)
    assert metrics["vdn.replay_mib"] > 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer._wrap("sim.attacker_policy", lambda: time.sleep(0.002))

    def outer_fn():
        time.sleep(0.001)
        inner()
        inner()

    tracer._wrap("sim.step", outer_fn)()
    by_name = {}
    for span_id, parent, _, name, t0, t1, self_ns in tracer.spans():
        by_name.setdefault(name, []).append((span_id, parent, t1 - t0, self_ns))
    [(outer_id, root, outer_ns, outer_self)] = by_name["sim.step"]
    children = by_name["sim.attacker_policy"]
    assert root == 0 and [c[1] for c in children] == [outer_id, outer_id]
    assert outer_self == outer_ns - sum(c[2] for c in children)
    assert all(c[2] == c[3] for c in children)
