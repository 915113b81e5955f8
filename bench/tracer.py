"""Span tracing from outside the program.

For a traced run only, `Tracer.install` swaps span-recording wrappers onto
qmop's module-level functions, and `Tracer.uninstall` puts the originals
back. This sees every layer because qmop calls its layers through module
attributes: `pipeline` reaches the branches through `_run_branch`, the gate
through `router.gate_forward` and the MLPs through `_mlp_forward`, and
`trainer` reaches its forward through `pipeline.train_forward` and the branch
backwards through `_pool_backward`, `_resample_backward` and `_mlp_backward`.

Spans stay in memory as parallel lists: name, start, end, parent span and
the benchmark op they belong to.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from qmop import bundle as bd
from qmop import pipeline as pl
from qmop import router as rt
from qmop import trainer as tr

BRANCHES = rt.BRANCHES
FORWARDS = ("pipeline.infer_forward", "pipeline.train_forward")
OP = "bench.op"

# (module, attribute, span name); "" names the span "branches.<branch>"
# from the first argument.
TARGETS = (
    (bd, "read_bundle", "bundle.read"),
    (rt, "gate_forward", "router.gate"),
    (pl, "_run_branch", ""),
    (pl, "fuse", "pipeline.fuse"),
    (pl, "_mlp_forward", "pipeline.out_mlp"),
    (pl, "infer_forward", "pipeline.infer_forward"),
    (pl, "train_forward", "pipeline.train_forward"),
    (tr, "backward", "trainer.backward"),
    (tr, "_pool_backward", "trainer.pool_backward"),
    (tr, "_resample_backward", "trainer.resample_backward"),
    (tr, "_mlp_backward", "trainer.mlp_backward"),
    (tr, "train_toy", "trainer.train_toy"),
)

_MARK = "__bench_span__"


class BenchError(RuntimeError):
    """The benchmark itself is inconsistent; no result may be reported."""


def assert_unpatched() -> None:
    """Fail unless every traced attribute holds the program's own function."""
    left = [f"{m.__name__}.{a}" for m, a, _ in TARGETS
            if hasattr(getattr(m, a), _MARK)]
    if left:
        raise BenchError(f"span wrappers still installed: {', '.join(left)}")


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []
        self._groups: tuple[int, dict] = (-1, {})

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op += 1
        self._open(OP)

    def end_op(self) -> None:
        self._close(self._stack[0])

    def _wrap(self, fn, static: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(static or "branches." + args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        assert_unpatched()
        for module, attr, static in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, static))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is f for m, a, f in self._saved)
        self._saved.clear()
        if not restored:
            raise BenchError("a traced attribute was not restored")
        assert_unpatched()

    # -- reading -------------------------------------------------------
    def n_ops(self) -> int:
        return self._op + 1

    def _indices(self) -> dict[str, list[int]]:
        if self._groups[0] != len(self.name):
            groups: dict[str, list[int]] = {}
            for i, n in enumerate(self.name):
                groups.setdefault(n, []).append(i)
            self._groups = (len(self.name), groups)
        return self._groups[1]

    def durations(self, name: str) -> list[float]:
        return [self.end[i] - self.start[i]
                for i in self._indices().get(name, ())]

    def self_times(self, name: str, only: tuple[str, ...] | None = None
                   ) -> list[float]:
        """Durations of the `name` spans minus their children's durations;
        with `only`, minus just the children whose names are listed."""
        own = self._indices().get(name, [])
        child = dict.fromkeys(own, 0.0)
        for i, p in enumerate(self.parent):
            if p in child and (only is None or self.name[i] in only):
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in own]

    def forward_sets(self) -> list[tuple[int, str]]:
        """(op, executed branch set) for every forward call; a set is named
        by its members in branch order joined with '-'."""
        ran: dict[int, set] = {i: set() for i, n in enumerate(self.name)
                               if n in FORWARDS}
        for i, n in enumerate(self.name):
            if n.startswith("branches.") and self.parent[i] in ran:
                ran[self.parent[i]].add(n[len("branches."):])
        return [(self.op[i], "-".join(b for b in BRANCHES if b in members))
                for i, members in ran.items()]

    def repeated_counts(self, ops_per_cycle: int) -> dict:
        """Branch calls, forward calls and the active-set histogram of one
        whole input cycle. For a fixed seed they repeat exactly; raises
        BenchError if any traced cycle differs from the first."""
        cycles = [{"branch_calls": Counter(), "forward_calls": 0,
                   "active_sets": Counter()}
                  for _ in range(self.n_ops() // ops_per_cycle)]
        for i, n in enumerate(self.name):
            if n.startswith("branches."):
                cycles[self.op[i] // ops_per_cycle]["branch_calls"][n] += 1
        for op, key in self.forward_sets():
            c = cycles[op // ops_per_cycle]
            c["forward_calls"] += 1
            c["active_sets"][key] += 1
        for i, c in enumerate(cycles[1:], 1):
            if c != cycles[0]:
                raise BenchError(f"counts differ between cycle 0 and cycle "
                                 f"{i}: {cycles[0]} vs {c}")
        return {k: dict(v) if isinstance(v, Counter) else v
                for k, v in cycles[0].items()}
