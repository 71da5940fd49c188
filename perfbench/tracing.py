"""Layer tracing from outside the program: the public entry points of each
bproc module are replaced, for the duration of a traced repetition, by
wrappers that count calls and add up busy time and self time (busy time
minus the time of wrapped calls made from inside, on the same thread).

Everything stays in memory; the caller writes the totals out afterwards.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import bproc.feel
from bproc import bpmn, cli, compiler, dmn, inputs, runtime, verifier

# (span name, module, attribute). Callers inside bproc reach each of these
# through its module attribute, so replacing the attribute catches them.
TARGETS = (
    ("bpmn.parse", bpmn, "parse_bpmn"),
    ("dmn.parse", dmn, "parse_dmn"),
    ("compiler.compile", compiler, "compile_model"),
    ("inputs.infer", inputs, "infer_domains"),
    ("inputs.sample", inputs, "sample_domain"),
    ("feel.eval", bproc.feel, "evaluate"),
    ("feel.match", bproc.feel, "match_unary"),
    ("dmn.eval", dmn, "evaluate_table"),
    ("runtime.run", runtime, "run_once"),
    ("runtime.write", runtime, "write_artifacts"),
    ("verifier.draw", verifier, "draw_input_lists"),
    ("verifier.merge", verifier, "accumulate_coverage"),
    ("verifier.campaign", verifier, "run_campaign"),
    ("cli.main", cli, "main"),
)
# spans whose results carry counts (see Tracer._after)
COUNTED = {"bpmn.parse", "compiler.compile", "runtime.run", "runtime.write"}


class Span:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name, _, _ in TARGETS}
        self.run_durations: list[float] = []
        self.model_nodes = 0
        self.ir_steps = 0
        self.trace_records = 0
        self.written_paths: list[str] = []
        self.bytes_written = 0  # filled in by the caller while the files exist
        self.threads_started = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _after(self, name: str, result, elapsed: float):
        """Counts taken from a call's result, outside its measured time."""
        if name == "bpmn.parse":
            self.model_nodes += len(result.nodes)
        elif name == "compiler.compile":
            self.ir_steps += sum(len(r.steps) for r in result.routines.values())
        elif name == "runtime.run":
            self.trace_records += len(result[0].records)
            self.run_durations.append(elapsed)
        elif name == "runtime.write":
            self.written_paths.extend(result.values())

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        local = self._local
        lock = self._lock
        counted = name in COUNTED

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    span.calls += 1
                    span.busy += elapsed
                    span.self_time += elapsed - children
            if counted:
                with lock:
                    self._after(name, result, elapsed)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for _, module, attr in TARGETS]
        original_start = threading.Thread.start
        tracer = self

        def counting_start(thread, *args, **kwargs):
            with tracer._lock:
                tracer.threads_started += 1
            return original_start(thread, *args, **kwargs)

        for (name, _, _), (module, attr, fn) in zip(TARGETS, saved):
            setattr(module, attr, self._wrap(name, fn))
        threading.Thread.start = counting_start
        try:
            yield self
        finally:
            threading.Thread.start = original_start
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_total(self) -> float:
        return sum(span.self_time for span in self.spans.values())
