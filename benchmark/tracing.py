"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces every public function of the traced modules with
a recording wrapper, in every stabcorrect module namespace that holds it, so
a name imported with ``from .statevec import sample_weyl_indices`` is traced
as well.  Recording happens only inside ``Tracer.trial``; input generation
and checks stay untraced.  Spans (name, start, end, parent, trial) are kept
in memory and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

TRACED_MODULES = ("kernels", "statevec", "pauli", "gf2", "selfcorrect", "iterate", "harness")

# attempt-stage boundaries whose escaping exceptions count as failures
_FAILURE_STAGES = {
    "selfcorrect.collect_small_doubling",
    "selfcorrect.pfr_subgroup",
    "selfcorrect.find_stabilizer",
    "selfcorrect.self_correct",
}

SPAN_CAP = 200_000


def _is_public_function(mod, name, obj) -> bool:
    if name.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


class Tracer:
    def __init__(self):
        self.active = False
        self.trial_id = -1
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []  # (module, name, original)
        self._hooks = {
            "kernels.char_expectations": self._on_char_table,
            "kernels.xor_convolve": self._on_convolve,
            "statevec.sample_weyl_indices": self._on_sample,
            "statevec.distribution_tables": self._on_tables,
            "statevec.apply_circuit": self._on_circuit,
            "selfcorrect.collect_small_doubling": self._on_collect,
            "selfcorrect.bsg_test": self._on_bsg,
            "iterate.iterate_robust": self._on_loop,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap the public functions; returns how many names were patched."""
        import stabcorrect

        package = [
            importlib.import_module(f"stabcorrect.{info.name}")
            for info in pkgutil.iter_modules(stabcorrect.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"stabcorrect.{short}")
            for name, obj in list(vars(mod).items()):
                if _is_public_function(mod, name, obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        failure_stage = name in _FAILURE_STAGES
        stats = self.stats[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = hook(args, kwargs, None, before=True) if hook else None
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if failure_stage:
                    self.counters[f"failures.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((name, start, end, parent, self.trial_id, sid))
                else:
                    self.dropped_spans += 1
                if hook:
                    hook(args, kwargs, result, before=False, state=state)

        return traced

    # -- counters -----------------------------------------------------------

    def _on_char_table(self, args, kwargs, result, before, state=None):
        if not before:
            n = args[1] if len(args) > 1 else kwargs["n"]
            self.counters["table_bytes"] += 8 * 4**n

    def _on_convolve(self, args, kwargs, result, before, state=None):
        if not before:
            self.counters["table_bytes"] += 8 * len(args[0])

    def _on_sample(self, args, kwargs, result, before, state=None):
        if not before:
            self.counters["labels_sampled"] += args[1] if len(args) > 1 else kwargs["size"]

    def _on_tables(self, args, kwargs, result, before, state=None):
        if before:
            return "pq" in args[0]._cache
        self.counters["table_calls"] += 1
        self.counters["table_hits" if state else "table_builds"] += 1

    def _on_circuit(self, args, kwargs, result, before, state=None):
        if not before:
            circuit = args[1] if len(args) > 1 else kwargs["circuit"]
            self.counters["gates_applied"] += len(circuit)

    def _on_collect(self, args, kwargs, result, before, state=None):
        if not before and result is not None:
            self.counters["collect_successes"] += 1

    def _on_bsg(self, args, kwargs, result, before, state=None):
        if not before and result:
            self.counters["bsg_accepted"] += 1

    def _on_loop(self, args, kwargs, result, before, state=None):
        if not before and result is not None:
            self.counters["iterations"] += result.iterations

    # -- trial scope and output ----------------------------------------------

    @contextlib.contextmanager
    def trial(self, trial_id: int):
        self.trial_id = trial_id
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self._stack.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"dropped_spans": self.dropped_spans, "span_cap": SPAN_CAP}) + "\n")
            for name, start, end, parent, trial, sid in sorted(self.spans, key=lambda s: s[5]):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "trial": trial,
                }) + "\n")

