#!/usr/bin/env python3
"""Recompute the behaviour fingerprint that refactors quote.

The fingerprint is the sha256 of the lines of criterion 8's metrics log
(desk_2v3, 20k steps, eval every 10k, seed 1) whose kind is episode, eval
or eval_episode, hashed in file order.  It is a record, not a gate.

    python3 perfbench/fingerprint.py                  # trains the run, ~20 s
    python3 perfbench/fingerprint.py path/metrics.jsonl   # hashes a log
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("episode", "eval", "eval_episode")


def fingerprint(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for line in f:
            if json.loads(line).get("kind") in KINDS:
                h.update(line)
    return h.hexdigest()


def criterion_8_log(out_dir: Path) -> Path:
    sys.path.insert(0, str(ROOT / "src"))
    from pitchlab import cli, trainer

    doc = cli.load_config_dict(str(ROOT / "configs" / "desk_2v3.yaml"))
    doc["train"]["total_steps"] = 20_000
    doc["eval_every"] = 10_000
    doc["seeds"] = [1]
    cfg = trainer.ExperimentConfig.from_dict(doc)
    return Path(trainer.run_training(cfg, str(out_dir))) / "seed-1" / "metrics.jsonl"


def main(argv: list[str]) -> int:
    if argv:
        print(fingerprint(Path(argv[0])))
        return 0
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="fingerprint-", dir=out))
    try:
        print(fingerprint(criterion_8_log(tmp)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
