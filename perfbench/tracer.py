"""Span tracer installed from outside the program.

Tracer.install wraps every public function of the traced randaolab
modules, rebinds every module global that names one of them (so a name
imported into another module, such as ``select_proposers`` in
``adversary``, ``harness`` and ``threshold_randao``, is traced at its
call sites too), and wraps a few hot methods on their classes.  Each
call records a span (name, start, end, parent span, epoch index) in
memory; self time is the span's duration minus that of its traced
children.  A wrapper that sees an exception counts it and re-raises.
uninstall restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

TRACED_MODULES = (
    "harness",
    "randao",
    "adversary",
    "threshold_randao",
    "shamir",
    "field",
    "scenario",
)
TRACED_METHODS = (
    ("field", "PrimeField", "interpolate_at_zero"),
    ("field", "PrimeField", "eval_at"),
    ("field", "PrimeField", "batch_inv"),
    ("randao", "EpochState", "post_reveal"),
)
# Functions called as f(cfg, index); their spans and every span below
# them carry that epoch index.
TRIAL_FUNCTIONS = frozenset(
    {
        "harness.classic_trial",
        "harness.classic_trial_detail",
        "harness.sss_trial",
        "harness.sss_trial_detail",
    }
)
# Functions returning an AttackOutcome whose Strategy.width says how
# many masks (2^width) they ground.
GRINDERS = frozenset(
    {"adversary.best_strategy", "threshold_randao.best_flip_strategy"}
)

CALLS, INCLUSIVE_NS, SELF_NS, FAILED = range(4)


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent span index or -1, epoch or -1)
        self.spans: list = []
        # name -> [calls, inclusive ns, self ns, exceptions raised]
        self.stats: dict[str, list[int]] = {}
        # grinder name -> sum of 2^width over its calls
        self.masks: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._epoch = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        sets_epoch = name in TRIAL_FUNCTIONS
        grinder = name in GRINDERS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_epoch = tracer._epoch
            if sets_epoch:
                tracer._epoch = args[1]
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[FAILED] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[CALLS] += 1
                stats[INCLUSIVE_NS] += duration
                stats[SELF_NS] += duration - frame[1]
                spans[index] = (name, start, end, parent, tracer._epoch)
                tracer._epoch = outer_epoch
            if grinder:
                tracer.masks[name] = tracer.masks.get(name, 0) + (
                    1 << result.chosen.width
                )
            return result

        return traced

    def install(self, randaolab) -> None:
        modules = {
            short: importlib.import_module(f"randaolab.{short}")
            for short in TRACED_MODULES
        }
        wrapped = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for module in (randaolab, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(modules[short], cls_name, None)
            if cls is not None and attr in vars(cls):
                name = f"{short}.{cls_name}.{attr}"
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: a header object, then one
        [name, start_ns, end_ns, parent, epoch] array per span, in the
        order the spans were opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path) -> tuple[dict, list[tuple]]:
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle]
    return header, spans
