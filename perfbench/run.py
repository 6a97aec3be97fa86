#!/usr/bin/env python3
"""pitchlab benchmark: training, evaluation and the seed pool, timed end to
end through the public API, with an optional traced run per module.

    python3 perfbench/run.py --workload train_2v3_shaped --seed 1 \
        --seconds 25 --trace 0

Run it from the repository root.  It imports pitchlab from ./src and
reads the experiment configs from ./configs.  One round is one call of the
workload's operation; rounds repeat on the same inputs while another fits
in --seconds, and at least one always runs.  With --trace 1 untraced and
traced rounds alternate and the per-layer metrics come from the traced
ones.  Outputs are checked after the timed loop; the last stdout line is
the JSON result, the line before it the full record.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

_IMPORT_CLOCK = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, from its start tick in
    /proc/self/stat; falls back to the time since this file was loaded."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, IndexError, ValueError, AttributeError):
        return time.monotonic() - _IMPORT_CLOCK


if not (SRC / "pitchlab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pitchlab sources at {SRC}; run from a checkout root")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from pitchlab import cli, epv, sim, trainer  # noqa: E402
from pitchlab.vdn import VDNLearner  # noqa: E402


def experiment(config_file: str, seeds, total_steps: int | None = None,
               eval_every: int | None = None, eval_episodes: int | None = None,
               weight: float | None = None):
    """A config from ./configs with the run lengths and seeds replaced."""
    doc = cli.load_config_dict(str(CONFIGS / config_file))
    if total_steps is not None:
        doc["train"]["total_steps"] = total_steps
    if eval_every is not None:
        doc["eval_every"] = eval_every
    if eval_episodes is not None:
        doc["eval_episodes"] = eval_episodes
    if weight is not None:
        doc.setdefault("reward", {})["weight"] = weight
    doc["seeds"] = list(seeds)
    return trainer.ExperimentConfig.from_dict(doc)


class Round:
    """What one timed call produced; `check` fills in the rest."""

    def __init__(self, seconds: float, output, tracer=None):
        self.seconds = seconds
        self.output = output
        self.tracer = tracer
        self.ops = self.failed = self.steps = self.updates = 0
        self.problems: list[str] = []
        self.digest = ""
        self.peak_rss_mib = 0.0


class TrainWorkload:
    """run_training on one experiment config; one operation per seed."""

    def __init__(self, config, jobs: int, workdir: Path):
        self.config = config
        self.jobs = jobs
        self.workdir = workdir
        t = self.config.train
        self.updates = checks.expected_updates(
            t.total_steps, t.learn_start, t.update_every, t.buffer_capacity)

    def run(self, index: int):
        out = self.workdir / f"round-{index}"
        return trainer.run_training(self.config, str(out), jobs=self.jobs)

    def logs(self, run_dir: str) -> dict[int, bytes]:
        return {s: (Path(run_dir) / f"seed-{s}" / "metrics.jsonl").read_bytes()
                for s in self.config.seeds}

    def check(self, rnd: Round, epv_cap: float) -> None:
        logs = self.logs(rnd.output)
        rnd.digest = hashlib.sha256(b"".join(logs.values())).hexdigest()
        for seed, data in logs.items():
            rnd.ops += 1
            rows = checks.parse_log(data)
            if checks.failed_seed(rows):
                rnd.failed += 1
                continue
            problems, steps = checks.check_training_log(rows, self.config, epv_cap)
            ckpt = Path(rnd.output) / f"seed-{seed}" / "ckpt_final.json"
            with open(ckpt) as f:
                problems += checks.check_checkpoint(json.load(f), self.updates)
            rnd.problems += [f"seed {seed}: {p}" for p in problems]
            rnd.steps += steps
            rnd.updates += self.updates

    def after(self, rounds: list[Round]) -> list[str]:
        return []


class PoolWorkload(TrainWorkload):
    """The seed pool: after the timed loop its last seed is trained again
    alone, and that log must match the pooled one byte for byte."""

    def after(self, rounds: list[Round]) -> list[str]:
        seed = self.config.seeds[-1]
        alone = dataclasses.replace(self.config, seeds=(seed,))
        run_dir = trainer.run_training(alone, str(self.workdir / "alone"), jobs=1)
        data = (Path(run_dir) / f"seed-{seed}" / "metrics.jsonl").read_bytes()
        if data != self.logs(rounds[0].output)[seed]:
            return [f"seed {seed} trained alone differs from its pooled log"]
        return []


class EvalWorkload:
    """evaluate_checkpoint at each of the config's difficulties on a
    checkpoint written in set-up; one operation per episode."""

    REPLAYS = 2     # episodes per difficulty re-rolled by checks.replay_episode

    def __init__(self, config, seed: int, episodes: int, workdir: Path):
        self.config = config
        self.seed = seed
        self.episodes = episodes
        self.ckpt = str(workdir / "ckpt.json")
        sc = config.scenario
        lcfg = config.train.learner_config(
            sc.n_defenders, sim.observation_length(sc), sim.N_ACTIONS)
        VDNLearner(lcfg, EVAL_NETWORK_SEED).save(self.ckpt)

    def run(self, index: int):
        return [(d, *trainer.evaluate_checkpoint(
                    self.ckpt, self.config, d, self.episodes, self.seed))
                for d in self.config.final_difficulties]

    def check(self, rnd: Round, epv_cap: float) -> None:
        h = hashlib.sha256()
        for diff, mean_gd, records in rnd.output:
            h.update(repr((diff, mean_gd, records)).encode())
            rnd.ops += len(records)
            rnd.steps += sum(r.steps for r in records)
            rnd.problems += [f"difficulty {diff}: {p}" for p in
                             checks.check_eval_records(mean_gd, records, self.config,
                                                       self.seed, epv_cap)]
        rnd.digest = h.hexdigest()

    def after(self, rounds: list[Round]) -> list[str]:
        learner = VDNLearner.load(self.ckpt)
        values = epv.solve_epv(epv.default_chain(self.config.scenario.pitch))
        out = []
        for diff, _, records in rounds[0].output:
            stride = max(1, len(records) // self.REPLAYS)
            for rec in records[::stride][:self.REPLAYS]:
                replayed = checks.replay_episode(learner, self.config, diff,
                                                 rec.seed, values)
                out += checks.check_replay(rec, replayed)
        return out


# Run lengths are set so that a 25 s run holds several rounds, except on
# full_4v6 training, which needs 11k steps for most of them to update.
# Training seeds and evaluation episode seeds derive from --seed; the
# evaluated network does not (README.md says why).
EVAL_NETWORK_SEED = 0


def make_workload(name: str, seed: int, workdir: Path):
    if name == "train_2v3_shaped":
        cfg = experiment("desk_2v3.yaml", [seed], total_steps=4000,
                         eval_every=2000, eval_episodes=4)
        return TrainWorkload(cfg, 1, workdir)
    if name == "train_4v6_baseline":
        cfg = experiment("full_4v6.yaml", [seed], total_steps=11_000,
                         eval_every=11_000, eval_episodes=4, weight=0.0)
        return TrainWorkload(cfg, 1, workdir)
    if name == "eval_4v6_shaped":
        return EvalWorkload(experiment("full_4v6.yaml", [seed]), seed, 16, workdir)
    if name == "seeds_2v3_jobs2":
        cfg = experiment("desk_2v3.yaml", [2 * seed, 2 * seed + 1],
                         total_steps=3000, eval_every=1500, eval_episodes=4)
        return PoolWorkload(cfg, 2, workdir)
    raise ValueError(name)


WORKLOADS = ("train_2v3_shaped", "train_4v6_baseline", "eval_4v6_shaped",
             "seeds_2v3_jobs2")


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
    }


def timed_rounds(wl, seconds: float, trace: bool) -> list[Round]:
    """Whole rounds while the next is expected to fit in `seconds`.  In a
    traced run, even rounds are untraced and odd rounds traced, and there
    is at least one of each."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(rounds) % 2 == 1 else None
        t0 = time.perf_counter()
        if tracer is None:
            output = wl.run(len(rounds))
        else:
            with tracer.installed():
                output = wl.run(len(rounds))
        rounds.append(Round(time.perf_counter() - t0, output, tracer))
        rounds[-1].peak_rss_mib = peak_rss_mib()
        elapsed = time.perf_counter() - start
        if trace and len(rounds) < 2:
            continue
        if elapsed + rounds[-1].seconds > seconds:
            return rounds


def traced_problems(rnd: Round, weight: float) -> list[str]:
    """Call counts that must equal totals reached from the logs."""
    stats = rnd.tracer.stats()
    out = []
    if stats["sim.step"]["calls"] != rnd.steps:
        out.append(f"traced sim.step calls {stats['sim.step']['calls']} != "
                   f"{rnd.steps} steps in the logs")
    if stats["vdn.td_update"]["calls"] != rnd.updates:
        out.append(f"traced td_update calls {stats['vdn.td_update']['calls']} "
                   f"!= {rnd.updates} expected updates")
    field_calls = stats["pitch_control.compute_control_field"]["calls"]
    if weight == 0.0 and field_calls != 0:
        out.append(f"weight 0 run computed the control field {field_calls} times")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        setup_s = process_age()
        rounds = timed_rounds(wl, args.seconds, bool(args.trace))
        env["loadavg_after"] = list(os.getloadavg())

        weight = wl.config.reward.weight
        epv_cap = checks.reference_epv_sum(wl.config.scenario.pitch)
        problems = []
        for i, rnd in enumerate(rounds):
            wl.check(rnd, epv_cap)
            problems += [f"round {i}: {q}" for q in rnd.problems]
            if rnd.digest != rounds[0].digest:
                problems.append(f"round {i} output differs from round 0"
                                + (" (traced)" if rnd.tracer else ""))
            if rnd.tracer is not None:
                problems += [f"round {i}: {q}" for q in traced_problems(rnd, weight)]
        problems += wl.after(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"env": env, "round_s": [r.seconds for r in rounds],
              "traced": [r.tracer is not None for r in rounds],
              "steps_per_round": rounds[0].steps, "problems": problems}
    plain = [r for r in rounds if r.tracer is None]
    if args.trace:
        traced = [r for r in rounds if r.tracer is not None]
        per_round = [r.tracer.layer_metrics() for r in traced]
        values = {m: statistics.median(d[m] for d in per_round)
                  for m in per_round[0]}
        values["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                      - statistics.median(r.seconds for r in plain))
        metrics = {m: {"value": v, "unit": spans.LAYER_UNITS[m]}
                   for m, v in values.items()}
        stem = OUT / f"{args.workload}-seed{args.seed}"
        traced[-1].tracer.write_spans(f"{stem}.spans.jsonl")
        with open(f"{stem}.layers.json", "w") as f:
            json.dump({"env": env, "metrics": metrics}, f, indent=1)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(r.seconds for r in plain),
                      "unit": "s"},
            "env_steps_per_s": {"value": statistics.median(
                r.steps / r.seconds for r in plain), "unit": "steps/s"},
            # after round 0: memory that later rounds leave behind in the
            # process is not an operation's peak
            "peak_rss_mib": {"value": rounds[0].peak_rss_mib, "unit": "MiB"},
        }
    for q in problems:
        print(f"perfbench: {q}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.ops for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
