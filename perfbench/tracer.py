"""Span tracer for the ltlab package, installed from outside the package.

``Tracer.install()`` wraps every public function of every ``ltlab``
module (the names in the module's ``__all__``, the ``cli`` entry points
``cmd_*`` and ``main``, and ``FeatureBank.from_labels``) and rebinds the
wrapper at every ``ltlab.*`` namespace that holds the original, so calls
through re-exports such as ``trainer.make_report`` or ``nc_metrics.pinv``
are seen too. Private helpers are not wrapped: their time is self time of
the public function that called them.

Spans are kept on a stack. When a span closes, its duration is added to
its parent's child time, and its self time is its duration minus that
child time. Spans are aggregated per function as they close (calls, total
and self nanoseconds), so memory stays constant however long the run.
Generator functions (``data.batch_iter``) are timed per ``next()``, not at
creation, so each span covers the work of producing one batch.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from types import ModuleType

# Extra public entry points that are not listed in an ``__all__``.
CLI_ENTRY_PREFIX = "cmd_"
CLI_ENTRY_NAMES = ("main",)
CLASSMETHODS = (("nc_metrics", "FeatureBank", "from_labels"),)


def ltlab_modules() -> dict[str, ModuleType]:
    """Every submodule of the installed ``ltlab`` package, keyed by short name."""
    import ltlab

    mods = {}
    for info in pkgutil.iter_modules(ltlab.__path__):
        mods[info.name] = importlib.import_module(f"ltlab.{info.name}")
    return mods


def public_functions(mods: dict[str, ModuleType]) -> dict[str, object]:
    """Span name ("<module>.<function>") -> function, for every public
    function defined in its own module."""
    found = {}
    for short, mod in mods.items():
        names = list(getattr(mod, "__all__", ()))
        if short == "cli":
            names += [n for n in vars(mod) if n.startswith(CLI_ENTRY_PREFIX) or n in CLI_ENTRY_NAMES]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{short}.{name}"] = fn
    return found


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.yields: dict[str, int] = {}  # generator span name -> items produced
        self._stack: list[list] = []  # frames: [name, start_ns, child_ns]
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _close(self, frame: list, end: int) -> None:
        name, start, child = frame
        total = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += total
        entry[2] += total - child
        if self._stack:
            self._stack[-1][2] += total

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call (or each ``next()`` of the
        generator it returns) is one span called ``name``."""
        stack, clock, close = self._stack, self.clock, self._close
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = [name, clock(), 0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(stack.pop(), clock())
                    self.yields[name] = self.yields.get(name, 0) + 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, clock(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(stack.pop(), clock())
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> list[str]:
        """Wrap and rebind every public ltlab function; returns the span names."""
        mods = ltlab_modules()
        funcs = public_functions(mods)
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in funcs.items()}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        names = sorted(funcs)
        for short, cls_name, meth in CLASSMETHODS:
            cls = getattr(mods[short], cls_name)
            original = inspect.getattr_static(cls, meth)
            span = f"{short}.{cls_name}.{meth}"
            self._undo.append((cls, meth, original))
            setattr(cls, meth, classmethod(self.wrap(span, original.__func__)))
            names.append(span)
        return sorted(names)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Aggregates so far: {"spans": {name: [calls, total_ns, self_ns]},
        "yields": {name: items}}. Every span must be closed."""
        if self._stack:
            raise RuntimeError(f"spans still open: {[f[0] for f in self._stack]}")
        return {"spans": {name: list(v) for name, v in self.stats.items()},
                "yields": dict(self.yields)}


def layer_of(span: str) -> str:
    """The module layer a span belongs to: the text before the first dot."""
    return span.split(".", 1)[0]
