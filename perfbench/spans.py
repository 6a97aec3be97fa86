"""Spans around the pitchlab functions the program calls through.

The tracer replaces module attributes and class attributes with wrappers
that time each call.  It works from outside the package: the program's own
code is not edited, and nothing is recorded unless `installed()` is active.
Each thread keeps its own stack, so spans from a thread pool nest
correctly; a span's self time is its duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from pitchlab import epv, pitch_control, sim, trainer, vdn

# (span name, owner, attribute).  The name is the layer metric's prefix.
TARGETS = (
    ("sim.step", sim, "step"),
    ("sim.attacker_policy", sim, "attacker_policy"),
    ("sim.observe", sim, "observe"),
    ("trainer.per_agent_observations", trainer, "per_agent_observations"),
    ("pitch_control.compute_control_field", pitch_control, "compute_control_field"),
    ("epv.game_state_epv", epv, "game_state_epv"),
    ("epv.solve_epv", epv, "solve_epv"),
    ("vdn.td_update", vdn.VDNLearner, "td_update"),
    ("vdn.greedy_actions", vdn.VDNLearner, "greedy_actions"),
    ("vdn.select_actions", vdn.VDNLearner, "select_actions"),
    ("vdn.ReplayBuffer.add", vdn.ReplayBuffer, "add"),
    ("vdn.ReplayBuffer.sample", vdn.ReplayBuffer, "sample"),
    ("vdn.save", vdn.VDNLearner, "save"),
    ("vdn.load", vdn.VDNLearner, "load"),
    ("trainer.evaluate", trainer, "evaluate"),
    ("trainer.train_seed", trainer, "train_seed"),
)

# per-layer metric -> (span name, statistic, unit).  Statistics: "calls",
# "us"/"ms" (mean wall time per call), "self_us" (mean self time per call)
# and "s" (summed wall time over the round).
LAYER_METRICS = {
    "sim.step.self_us": ("sim.step", "self_us", "us"),
    "sim.step.calls": ("sim.step", "calls", "count"),
    "sim.attacker_policy.us": ("sim.attacker_policy", "us", "us"),
    "sim.attacker_policy.calls": ("sim.attacker_policy", "calls", "count"),
    "sim.observe.us": ("sim.observe", "us", "us"),
    "trainer.per_agent_observations.us":
        ("trainer.per_agent_observations", "us", "us"),
    "pitch_control.compute_control_field.us":
        ("pitch_control.compute_control_field", "us", "us"),
    "pitch_control.compute_control_field.calls":
        ("pitch_control.compute_control_field", "calls", "count"),
    "epv.game_state_epv.us": ("epv.game_state_epv", "us", "us"),
    "epv.solve_epv.ms": ("epv.solve_epv", "ms", "ms"),
    "epv.solve_epv.calls": ("epv.solve_epv", "calls", "count"),
    "vdn.td_update.us": ("vdn.td_update", "us", "us"),
    "vdn.td_update.calls": ("vdn.td_update", "calls", "count"),
    "vdn.greedy_actions.us": ("vdn.greedy_actions", "us", "us"),
    "vdn.select_actions.self_us": ("vdn.select_actions", "self_us", "us"),
    "vdn.ReplayBuffer.add.us": ("vdn.ReplayBuffer.add", "us", "us"),
    "vdn.ReplayBuffer.sample.us": ("vdn.ReplayBuffer.sample", "us", "us"),
    "vdn.save.ms": ("vdn.save", "ms", "ms"),
    "vdn.save.calls": ("vdn.save", "calls", "count"),
    "vdn.load.ms": ("vdn.load", "ms", "ms"),
    "trainer.evaluate.s": ("trainer.evaluate", "s", "s"),
    "trainer.evaluate.calls": ("trainer.evaluate", "calls", "count"),
    "trainer.train_seed.s": ("trainer.train_seed", "s", "s"),
    "trainer.train_seed.calls": ("trainer.train_seed", "calls", "count"),
}
_SCALE = {"us": 1e6, "self_us": 1e6, "ms": 1e3, "s": 1.0}


class _Frame:
    __slots__ = ("span_id", "child_ns")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_ns = 0


class Tracer:
    """Collects spans while installed; one instance per traced round."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[tuple]] = []
        self._buffers: dict[int, vdn.ReplayBuffer] = {}

    def _thread_state(self) -> tuple[list[_Frame], list[tuple]]:
        st = getattr(self._local, "state", None)
        if st is None:
            spans: list[tuple] = []
            with self._lock:
                self._per_thread.append(spans)
            st = self._local.state = ([], spans)
        return st

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = self._thread_state()
            frame = _Frame(next(self._ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += t1 - t0
                spans.append((frame.span_id,
                              parent.span_id if parent else 0,
                              threading.get_ident(), name, t0, t1,
                              t1 - t0 - frame.child_ns))
        return wrapper

    def _wrap_buffer_add(self, fn):
        # remembers each replay buffer the round writes to, for replay_mib
        @functools.wraps(fn)
        def add(buf, *args, **kwargs):
            self._buffers.setdefault(id(buf), buf)
            return fn(buf, *args, **kwargs)
        return add

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                    if name == "vdn.ReplayBuffer.add":
                        wrapped = self._wrap_buffer_add(wrapped)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]

    def stats(self) -> dict[str, dict[str, float]]:
        """{span name: {calls, total_s, self_s}} over every recorded span."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name, _, _ in TARGETS}
        for _, _, _, name, t0, t1, self_ns in self.spans():
            st = out[name]
            st["calls"] += 1
            st["total_s"] += (t1 - t0) * 1e-9
            st["self_s"] += self_ns * 1e-9
        return out

    def replay_mib(self) -> float:
        """Bytes of every ndarray held by the replay buffers written to."""
        total = sum(v.nbytes for buf in self._buffers.values()
                    for v in vars(buf).values() if isinstance(v, np.ndarray))
        return total / 2**20

    def layer_metrics(self) -> dict[str, float]:
        stats = self.stats()
        out = {}
        for metric, (span, stat, _) in LAYER_METRICS.items():
            st = stats[span]
            if stat == "calls":
                out[metric] = st["calls"]
            elif stat == "s":
                out[metric] = st["total_s"]
            elif st["calls"] == 0:
                out[metric] = 0.0
            else:
                secs = st["self_s"] if stat == "self_us" else st["total_s"]
                out[metric] = secs / st["calls"] * _SCALE[stat]
        out["vdn.replay_mib"] = self.replay_mib()
        return out

    def write_spans(self, path: str) -> None:
        """One JSON list per line: [id, parent, thread, name, start_ns,
        end_ns, self_ns]; parent 0 marks a root span."""
        with open(path, "w") as f:
            for span in sorted(self.spans()):
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


LAYER_UNITS = {m: unit for m, (_, _, unit) in LAYER_METRICS.items()}
LAYER_UNITS["vdn.replay_mib"] = "MiB"
LAYER_UNITS["trace.overhead_s"] = "s"
