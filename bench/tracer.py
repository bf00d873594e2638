"""Spans around the calls into abelsweep's public functions, from outside.

The tracer wraps each listed function and installs the wrapper in every
``abelsweep`` module namespace that binds the original object, so calls made
through ``abelsweep.cli`` or ``abelsweep.solver`` are caught as well as
direct ones. Names that do not exist (a function removed by a refactor)
are skipped and report zero calls. Wrappers are removed again on exit, so
untraced runs call the library directly.

Every call is a span: an id, the id of the enclosing span, the function's
metric name, start and end times, and the exception type it raised, if any.
A span's self time is its duration minus the durations of its direct
children. Inclusive time counts only the outermost span of a function, so
recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: The public functions timed per layer. Layers are the package's modules;
#: ``errors`` holds only exception types.
LAYERS = {
    "scalars": ("parse_rational", "format_scalar", "as_fraction", "binomial",
                "check_not_root_of_unity"),
    "powerseries": ("series_mul", "series_add", "series_sub", "series_pow",
                    "series_compose", "recenter", "pad", "exp_shift_series",
                    "from_json_dict"),
    "carleman": ("bell_matrix", "abel_system"),
    "solver": ("solve_truncated", "intuitive_sweep", "classify_trajectory",
               "abel_residual"),
    "affine": ("affine_series", "beta_direct", "beta_recurrence",
               "beta_polynomial", "log_poly", "eval_log_poly", "reference_log",
               "onpow_identity", "remainder", "remainder_bound", "binom_tail",
               "s_invariance_gap"),
    "iterate": ("poly_abel_context", "exact_log_context", "fractional_iterate",
                "semigroup_check"),
    "cli": ("main",),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "raised", "outermost")

    def __init__(self, id, parent, name, start, outermost):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.raised = None
        self.outermost = outermost

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions in ``layers`` while installed.

    ``on_return`` maps a metric name such as ``"carleman.bell_matrix"`` to a
    function of the call's result returning ``{counter: amount}``; each
    amount is kept in ``counts`` with the job that was current.
    """

    def __init__(self, layers=None, package="abelsweep", clock=time.perf_counter,
                 on_return=None):
        self.layers = LAYERS if layers is None else layers
        self.package = package
        self.clock = clock
        self.on_return = on_return or {}
        self.spans: list[Span] = []
        self.counts: list = []  # (job, counter, amount) from the on_return hooks
        self.job = None
        self._stack: list[Span] = []
        self._active: dict[str, int] = {}

    def names(self) -> list[str]:
        return [f"{layer}.{fn}" for layer, fns in self.layers.items() for fn in fns]

    def _wrap(self, name, fn):
        hook = self.on_return.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self._active.get(name, 0)
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                        name, self.clock(), depth == 0)
            self.spans.append(span)
            self._stack.append(span)
            self._active[name] = depth + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                self._active[name] = depth
            if hook is not None:
                for counter, amount in hook(result).items():
                    self.counts.append((self.job, counter, amount))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        patched = []
        try:
            for layer, fns in self.layers.items():
                try:
                    mod = importlib.import_module(f"{self.package}.{layer}")
                except ImportError:
                    continue
                for fn in fns:
                    orig = getattr(mod, fn, None)
                    if not callable(orig):
                        continue
                    wrapper = self._wrap(f"{layer}.{fn}", orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    # ------------------------------------------------------------------
    # aggregation

    def summary(self) -> dict:
        """``{name: {"calls", "s", "self_s", "raised": {type: count}}}`` for every listed name."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}} for n in self.names()}
        child_time: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        for sp in self.spans:
            rec = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}})
            rec["calls"] += 1
            if sp.outermost:
                rec["s"] += sp.duration
            rec["self_s"] += sp.duration - child_time.get(sp.id, 0.0)
            if sp.raised:
                rec["raised"][sp.raised] = rec["raised"].get(sp.raised, 0) + 1
        return out

    def count_by_job(self, counter: str) -> dict:
        """``{job: [amount, ...]}`` for one hook counter, in call order."""
        out: dict = {}
        for job, c, amount in self.counts:
            if c == counter:
                out.setdefault(job, []).append(amount)
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (directly or not) inside a span of ``ancestor``."""
        count = 0
        for sp in self.spans:
            if sp.name != name:
                continue
            parent = sp.parent
            while parent is not None:
                up = self.spans[parent]
                if up.name == ancestor:
                    count += 1
                    break
                parent = up.parent
        return count
