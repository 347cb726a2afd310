"""In-memory spans around calls into the program's public functions.

A span is (name, start, end, id, parent id, attributes); times come from
time.perf_counter, which is CLOCK_MONOTONIC on Linux and so comparable
across processes.  Spans stay in memory and are written out at the end.
Forked pool workers inherit the wrappers and the open span stack, so their
spans name the parent process's span; they append each span to a
per-process file, because pool workers end without running exit hooks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, spill_dir: Path | None = None):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._count = 0

    def _record(self, name, t0, t1, sid, parent, attrs) -> None:
        span = {"name": name, "start": t0, "end": t1, "id": sid,
                "parent": parent, "attrs": attrs}
        if os.getpid() == self.pid:
            self.spans.append(span)
        elif self.spill_dir is not None:
            with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        self._count += 1
        sid = f"{os.getpid()}:{self._count}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(name, t0, t1, sid, parent, {} if attrs is None else attrs)

    def wrap(self, fn, name: str, attrs_fn=None):
        """fn with a span around each call; attrs_fn(args, result) -> dict."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs.update(attrs_fn(args, result))
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap module attributes for traced wrappers for the duration.

        targets: iterable of (module, attribute, span name, attrs_fn).
        """
        saved = []
        try:
            for module, attr, name, attrs_fn in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, attrs_fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def all_spans(self) -> list[dict]:
        """This process's spans plus those spilled by forked workers."""
        spans = list(self.spans)
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                spans += [json.loads(ln) for ln in path.read_text().splitlines()]
        return spans


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration minus the part of the interval its child spans cover."""
    lo, hi = span["start"], span["end"]
    pieces = sorted((max(s["start"], lo), min(s["end"], hi))
                    for s in spans if s["parent"] == span["id"])
    covered, reach = 0.0, lo
    for a, b in pieces:
        a = max(a, reach)
        if b > a:
            covered += b - a
            reach = b
    return (hi - lo) - covered


def program_targets():
    """(module, attribute, span name, attrs_fn) for the program's public calls.

    Calls are patched where they are looked up: the cli module imports its
    collaborators by name, ensemble looks up simulate_batch at call time.
    """
    import slitsim.cli as cli
    import slitsim.ensemble as ensemble

    def batch_attrs(args, _result):
        alphas, v0, _g, _f, sp = args
        return {"lanes": int(alphas.size), "point": f"v{v0:g}-tau{sp.tau:g}"}

    def traj_attrs(_args, rec):
        return {"steps": rec.steps_taken}

    return [
        (ensemble, "simulate_batch", "ensemble.simulate_batch", batch_attrs),
        (cli, "parse_config", "config.parse_config", None),
        (cli, "cmd_sweep_tau", "cli.cmd_sweep_tau", None),
        (cli, "cmd_trace", "cli.cmd_trace", None),
        (cli, "run_ensemble", "ensemble.run_ensemble", None),
        (cli, "find_extrema", "analysis.find_extrema", None),
        (cli, "oscillation_index", "analysis.oscillation_index", None),
        (cli, "total_variation", "analysis.total_variation", None),
        (cli, "run_discrete_trajectory", "scattering.run_discrete_trajectory",
         traj_attrs),
        (cli, "render_trajectories", "svg.render_trajectories", None),
    ]
