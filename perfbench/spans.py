"""Span tracing of hankelpf, installed from outside the program.

`Tracer.install_layers()` replaces the public functions of the
program's layers with wrappers that record one span per call: name,
start, end, parent span, operation id and self time (duration minus the
time its child spans cover, accounted online with a stack). Generators
get one span per call whose time is summed over the resumes, so
iteration is timed, not only the call that creates the generator.

Every reference to a wrapped function is rebound: module globals of all
loaded `hankelpf` modules (which catches `from .engines import
hyperdet` style imports) and class dictionaries (which catches aliases
such as `__rmul__ = __mul__`). Install the layers before
`hankelpf.harness` is imported, because the checkers bind engine names
when they load; `install_harness()` then wraps `run_check`.

Spans are kept in memory in flat arrays (about 56 bytes each, the full
suite records roughly half a million) and written out by `dump`.
Forked pool workers inherit the wrappers; `take_worker_spans` hands a
worker's spans back to the parent through the task result.
"""

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# Layer -> modules whose public functions are wrapped. The scalar tower
# is wrapped only at the functions named in SCALAR_FUNCTIONS: its small
# helpers (is_zero, sdiv, scalar_arith) run ~400k times in the full
# suite and would only add overhead; their time stays with the caller.
LAYER_MODULES = {
    "blocks": ["hankelpf.blocks"],
    "tensors": ["hankelpf.tensors"],
    "engines": ["hankelpf.engines"],
    "qcalc": ["hankelpf.qcalc"],
    "sequences": ["hankelpf.sequences"],
}
SCALAR_FUNCTIONS = [
    ("hankelpf.scalars.grammar", "parse_scalar"),
    ("hankelpf.scalars.grammar", "format_scalar"),
    ("hankelpf.scalars.poly", "UniPoly.__mul__"),
    ("hankelpf.scalars.poly", "UniPoly.__add__"),
    ("hankelpf.scalars.quadext", "QuadExt.__mul__"),
]
# The harness layer is one span per check.
HARNESS_FUNCTIONS = [("hankelpf.harness.suite", "run_check")]

SPAN_COLUMNS = ("id", "parent", "op", "name", "start", "end", "self")


class Tracer:
    def __init__(self):
        self.names = []          # name index -> "<layer>.<function>"
        self.ints = array("q")   # id, parent, op, name index per span
        self.floats = array("d")  # start, end, self per span
        self.stack = []          # open frames: [span id, child seconds]
        self.op = -1             # current operation id
        self.op_index = {}       # check key -> operation id, see run_check
        self.next_id = 1
        self.worker = False
        self.tasks = []          # (op, pid, start, end) per check

    # -- recording -------------------------------------------------------

    def _close(self, sid, parent, name_ix, start, end, own):
        self.ints.extend((sid, parent, self.op, name_ix))
        self.floats.extend((start, end, own))

    def _wrap_call(self, fn, name_ix):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self._close(sid, parent, name_ix, start, end, dur - frame[1])
        return traced

    def _wrap_generator(self, fn, name_ix):
        stack = self.stack

        def resumes(it, sid, parent):
            first = last = 0.0
            own = 0.0
            try:
                while True:
                    frame = [sid, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        seg = end - start
                        if stack:
                            stack[-1][1] += seg
                        own += seg - frame[1]
                        first = first or start
                        last = end
                    yield item
            finally:
                self._close(sid, parent, name_ix, first, last, own)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            return resumes(fn(*args, **kwargs), sid, parent)
        return traced

    def _wrap_check(self, fn, name_ix):
        """run_check: also sets the operation id and records the task."""
        from hankelpf.harness.reports import canonical_params
        inner = self._wrap_call(fn, name_ix)

        @functools.wraps(fn)
        def traced(p):
            self.op = self.op_index.get(
                (p.identity, canonical_params(p.params)), -1)
            start = perf_counter()
            report = inner(p)
            self.tasks.append((self.op, os.getpid(), start, perf_counter()))
            if self.worker:
                report.__dict__["_bench_spans"] = self.take_worker_spans()
            return report
        return traced

    # -- installation ----------------------------------------------------

    def install_layers(self):
        """Wrap the layers' functions; call before importing the harness,
        so the checkers bind the wrappers when they load."""
        targets = {}  # original function -> "<layer>.<function>"
        for layer, modules in LAYER_MODULES.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == modname):
                        targets[obj] = f"{layer}.{attr}"
                    elif inspect.isclass(obj) and obj.__module__ == modname:
                        for cattr, cobj in vars(obj).items():
                            if isinstance(cobj, classmethod) and \
                                    not cattr.startswith("_"):
                                targets[cobj.__func__] = \
                                    f"{layer}.{obj.__name__}.{cattr}"
        self._add_named(targets, "scalars", SCALAR_FUNCTIONS)
        self._rebind(self._wrap_all(targets))
        os.register_at_fork(after_in_child=self._after_fork)

    def install_harness(self):
        """Wrap run_check, once `hankelpf.harness` has been imported."""
        targets = {}
        self._add_named(targets, "harness", HARNESS_FUNCTIONS)
        self._rebind(self._wrap_all(targets))

    @staticmethod
    def _add_named(targets, layer, pairs):
        for modname, dotted in pairs:
            obj = importlib.import_module(modname)
            for part in dotted.split("."):
                obj = inspect.getattr_static(obj, part)
            targets[obj] = f"{layer}.{dotted}"

    def _wrap_all(self, targets):
        wrapped = {}
        for fn, name in targets.items():
            self.names.append(name)
            ix = len(self.names) - 1
            if name == "harness.run_check":
                wrapped[fn] = self._wrap_check(fn, ix)
            elif inspect.isgeneratorfunction(fn):
                wrapped[fn] = self._wrap_generator(fn, ix)
            else:
                wrapped[fn] = self._wrap_call(fn, ix)
        return wrapped

    @staticmethod
    def _rebind(wrapped):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("hankelpf") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for cattr, cobj in list(vars(obj).items()):
                        if inspect.isfunction(cobj) and cobj in wrapped:
                            setattr(obj, cattr, wrapped[cobj])
                        elif isinstance(cobj, classmethod) and \
                                cobj.__func__ in wrapped:
                            setattr(obj, cattr,
                                    classmethod(wrapped[cobj.__func__]))

    # -- pool workers ----------------------------------------------------

    def _after_fork(self):
        self.worker = True
        self.next_id = os.getpid() << 32
        self.stack.clear()
        del self.ints[:]
        del self.floats[:]
        self.tasks.clear()

    def take_worker_spans(self):
        out = (self.ints.tobytes(), self.floats.tobytes(), list(self.tasks))
        del self.ints[:]
        del self.floats[:]
        self.tasks.clear()
        return out

    def merge_worker_spans(self, report):
        """Move spans a worker attached to `report` into this tracer."""
        payload = report.__dict__.pop("_bench_spans", None)
        if payload is None:
            return
        ints, floats, tasks = payload
        self.ints.frombytes(ints)
        self.floats.frombytes(floats)
        self.tasks.extend(tasks)

    # -- results ---------------------------------------------------------

    def aggregate(self):
        """{name: [calls, self seconds]} over every recorded span."""
        out = {name: [0, 0.0] for name in self.names}
        ints, floats = self.ints, self.floats
        for k in range(len(ints) // 4):
            acc = out[self.names[ints[4 * k + 3]]]
            acc[0] += 1
            acc[1] += floats[3 * k + 2]
        return out

    def dump(self, path):
        """Write spans as raw arrays next to a JSON header."""
        with open(path + ".ints", "wb") as fh:
            self.ints.tofile(fh)
        with open(path + ".floats", "wb") as fh:
            self.floats.tofile(fh)
        header = {"columns": list(SPAN_COLUMNS), "names": self.names,
                  "spans": len(self.ints) // 4,
                  "ints": "int64 id, parent, op, name index per span",
                  "floats": "float64 start, end, self seconds per span",
                  "tasks": [list(t) for t in self.tasks]}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
