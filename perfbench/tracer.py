"""Run one cosetlab CLI job with the package's public functions timed from
outside the package.

    python perfbench/tracer.py TRACE_JSON JOB_ID -- <cosetlab cli arguments>

Before calling ``cosetlab.cli.main(argv)`` this wraps every public
module-level function of every cosetlab module, at every binding across the
package (modules import names directly, so ``cli`` and ``suites`` each hold
their own ``gl2_char_table``), plus a few methods on their classes.  Every
wrapped call adds to per-name call counts, inclusive seconds and per-module
self seconds; calls of the per-element functions in ``HOT`` and calls past
``SPAN_CAP`` of one name add only to those totals, all other calls also
record a span (id, parent span, name, start, end).  Everything stays in
memory and is written to TRACE_JSON when the job ends.  Nothing is printed,
so the job's stdout is byte-identical to an untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

MODULES = (
    "fields", "groups", "chartab", "symrep", "gl2rep", "wreathrep",
    "realize", "goppa", "hsp", "sampling", "suites", "cli",
)
# per-element functions: totals only, never a span record
HOT = {
    "groups.mul_values", "fields.mat_mul", "fields.mat_inv",
    "realize.mat_value", "chartab.class_index_of", "symrep.YorRep.mat",
}
SPAN_CAP = 200

perf = time.perf_counter


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.calls: dict = {}
        self.incl: dict = {}
        self.depth: dict = {}
        self.self_s = {m: 0.0 for m in MODULES}
        self.counters = {"groups.elements.enumerated": 0, "realize.matfun.calls": 0,
                         "realize.eigh.calls": 0, "trace.spans_dropped": 0}
        self.spans: list = []
        # frames: [child seconds, id of the nearest recorded span]
        self.stack = [[0.0, None]]

    def wrap(self, fn, name: str):
        module = name.split(".")[0]
        calls, incl, depth, self_s = self.calls, self.incl, self.depth, self.self_s
        # every wrap under one name (mul_values on each Group subclass) adds
        # into the same totals
        calls.setdefault(name, 0)
        incl.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        stack, spans, job, counters = self.stack, self.spans, self.job, self.counters

        def leave(parent, frame, t0):
            t1 = perf()
            dt = t1 - t0
            stack.pop()
            depth[name] -= 1
            if not depth[name]:  # recursive calls count once in inclusive time
                incl[name] += dt
            parent[0] += dt
            self_s[module] += dt - frame[0]
            return t1

        def traced_hot(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(parent, frame, t0)

        def traced(*args, **kwargs):
            if calls[name] >= SPAN_CAP:
                counters["trace.spans_dropped"] += 1
                return traced_hot(*args, **kwargs)
            calls[name] += 1
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = leave(parent, frame, t0)
                spans[span_id] = (span_id, parent[1], name, t0, t1, job)

        return traced_hot if name in HOT else traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"cosetlab.{m}") for m in MODULES}
        replaced = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    replaced[obj] = self.wrap(obj, f"{m}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name == "cosetlab" or name.startswith("cosetlab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, attr, replaced[obj])

        groups, realize = mods["groups"], mods["realize"]
        methods = [
            (mods["chartab"].CharacterTable, "class_index_of", "chartab.class_index_of"),
            (mods["chartab"].CharacterTable, "element_values", "chartab.element_values"),
            (realize.RealizedIrrep, "mat_value", "realize.mat_value"),
            (mods["symrep"].YorRep, "mat", "symrep.YorRep.mat"),
        ]
        todo, group_classes = [groups.Group], []
        while todo:
            cls = todo.pop()
            group_classes.append(cls)
            todo.extend(cls.__subclasses__())
        methods += [
            (cls, "mul_values", "groups.mul_values")
            for cls in group_classes
            if "mul_values" in vars(cls)
        ]
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(vars(cls)[attr], name))
        self._count_enumeration(groups.Group)
        self._count_matfun(realize.RealizedIrrep)
        self._count_eigh(realize)

    def _count_enumeration(self, Group) -> None:
        orig = Group.elements
        counters = self.counters

        def elements(group, *args, **kwargs):
            fresh = group._elements is None
            out = orig(group, *args, **kwargs)
            if fresh:
                counters["groups.elements.enumerated"] += len(out)
            return out

        Group.elements = elements

    def _count_matfun(self, RealizedIrrep) -> None:
        orig = RealizedIrrep.__init__
        counters = self.counters

        def __init__(irrep, group, label, dim, matfun):
            def counted(value):
                counters["realize.matfun.calls"] += 1
                return matfun(value)

            orig(irrep, group, label, dim, counted)

        RealizedIrrep.__init__ = __init__

    def _count_eigh(self, realize) -> None:
        np = realize.np
        orig = np.linalg.eigh
        depth, counters = self.depth, self.counters

        def eigh(*args, **kwargs):
            if depth["realize.realize_table"]:
                counters["realize.eigh.calls"] += 1
            return orig(*args, **kwargs)

        np.linalg.eigh = eigh

    def dump(self, path: str, ready: float, end: float) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": self.job,
                    "ready": ready,
                    "end": end,
                    "calls": self.calls,
                    "incl_s": self.incl,
                    "self_s": self.self_s,
                    "counters": self.counters,
                    "spans": self.spans,
                },
                fh,
            )


def main() -> int:
    out_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON JOB_ID -- <cli arguments>")
    import cosetlab.cli  # import time is not traced

    tracer = Tracer(int(job))
    tracer.install()
    ready = perf()
    try:
        return cosetlab.cli.main(argv)
    finally:
        end = perf()
        sys.stdout.flush()
        tracer.dump(out_path, ready, end)


if __name__ == "__main__":
    raise SystemExit(main())
