"""In-memory span tracer for the benchmark's traced runs.

`install` wraps the public functions of the `addlaws` modules from outside:
each target is replaced in every package module that holds a reference to
it, so calls between modules are traced too, and nested calls give each
span a parent.  Spans live in flat arrays (name, start, end, parent,
workload item) until `write` dumps them as TSV at the end of a run.

All timing is single-threaded: a child span lies inside its parent, so a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: (module, attribute) pairs wrapped by `install`.  Dotted attributes name
#: methods, which are replaced on their class.
TARGETS = (
    ("core", "FiniteSemigroup.validate"),
    ("core", "WindowedSemigroup.validate"),
    ("core", "stable_json"),
    ("characters", "enumerate_characters"),
    ("characters", "check_condition_I"),
    ("characters", "check_condition_II"),
    ("characters", "additive_residual"),
    ("dsl", "evaluate_residual"),
    ("families", "construct"),
    ("families", "admissible_params"),
    ("families", "ParamMenu.sample"),
    ("classify", "classify"),
    ("oracle", "grid_solutions"),
    ("oracle", "coverage_report"),
    ("examples", "example1"),
    ("examples", "example2"),
    ("cli", "main"),
)


class Tracer:
    """Span store plus named counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counters: Counter = Counter()
        self.current_item = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write(self, path: Path, header: str = "") -> None:
        """Dump every span as one TSV row, times relative to the first."""
        t0 = self.start[0] if len(self) else 0.0
        rows = [f"# {header}"] if header else []
        rows.append("name\tstart_s\tend_s\tparent\titem")
        names, nid, par, item = self.names, self.name_id, self.parent, self.item
        for i in range(len(self)):
            rows.append(f"{names[nid[i]]}\t{self.start[i] - t0:.7f}\t"
                        f"{self.end[i] - t0:.7f}\t{par[i]}\t{item[i]}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class Summary:
    """Per-name aggregates of a tracer's spans, split by phase.

    Spans with a negative item id belong to set-up; the rest belong to the
    timed loop.  `busy` counts only the outermost span of each name, so a
    recursive call is not counted twice.
    """

    def __init__(self, tracer: Tracer):
        n = len(tracer)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self.calls = {"setup": Counter(), "loop": Counter()}
        self.busy = {"setup": Counter(), "loop": Counter()}
        self.self_time = {"setup": Counter(), "loop": Counter()}
        self.by_parent: Counter = Counter()   # (direct parent, name) -> calls
        self.under: Counter = Counter()       # (any ancestor, name) -> busy
        for i in range(n):
            phase = "setup" if tracer.item[i] < 0 else "loop"
            name = tracer.span_name(i)
            self.calls[phase][name] += 1
            self.self_time[phase][name] += dur[i] - child[i]
            ancestors = []
            p = tracer.parent[i]
            while p >= 0:
                ancestors.append(tracer.span_name(p))
                p = tracer.parent[p]
            if ancestors:
                self.by_parent[(ancestors[0], name)] += 1
            if name not in ancestors:
                self.busy[phase][name] += dur[i]
                for outer in set(ancestors):
                    self.under[(outer, name)] += dur[i]


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hooks(tracer: Tracer, package) -> dict:
    """Span-name and result hooks for the targets that need more than a
    plain span: residuals split by carrier kind, grid counts, classify
    outcomes."""
    oracle = importlib.import_module(f"{package.__name__}.oracle")
    from addlaws.classify import NotASolutionError, Unclassified
    from addlaws.core import WindowedSemigroup

    def residual_name(fn, args, kwargs):
        S = args[2] if len(args) > 2 else kwargs["S"]
        kind = "windowed" if isinstance(S, WindowedSemigroup) else "finite"
        return f"dsl.evaluate_residual.{kind}"

    def grid_done(fn, args, kwargs, out, exc):
        if exc is not None:
            return
        a = _bound(fn, args, kwargs)
        grid = len(oracle.validate_alphabet(a["alphabet"])) ** a["S"].n
        tracer.counters["oracle.grid_solutions.pairs"] += grid * grid
        tracer.counters["oracle.grid_solutions.solutions"] += len(out)

    def classify_done(fn, args, kwargs, out, exc):
        if isinstance(exc, NotASolutionError):
            tracer.counters["classify.rejected"] += 1
        elif isinstance(out, Unclassified):
            tracer.counters["classify.unclassified"] += 1

    return {
        "dsl.evaluate_residual": {"namer": residual_name},
        "oracle.grid_solutions": {"after": grid_done},
        "classify.classify": {"after": classify_done},
    }


def _wrap(fn, name: str, tracer: Tracer, namer=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(namer(fn, args, kwargs) if namer else name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if after:
                after(fn, args, kwargs, None, exc)
            raise
        tracer.close(idx)
        if after:
            after(fn, args, kwargs, out, None)
        return out
    return traced


def install(tracer: Tracer, package):
    """Wrap every target; returns a function that restores the originals."""
    hooks = _hooks(tracer, package)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package.__name__ or
                                     name.startswith(package.__name__ + "."))]
    undo = []
    for mod_name, attr in TARGETS:
        module = importlib.import_module(f"{package.__name__}.{mod_name}")
        name = f"{mod_name}.{attr}"
        extra = hooks.get(name, {})
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(orig, name, tracer, **extra))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(orig, name, tracer, **extra)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return uninstall


def span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, on this machine."""
    def noop():
        return None
    wrapped = _wrap(noop, "noop", Tracer())
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
    return max(best, 0.0)
