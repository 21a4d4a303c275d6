"""Exact opcode counts per module and per function of ``src/moqgate``.

Runs one untraced pass of each named benchmark workload to warm it, then
counts the opcodes ``src/moqgate`` executes over two more passes, under
:func:`sys.settrace` with ``frame.f_trace_opcodes`` set.  Code counts as
the package's when its frame runs in the globals of a ``moqgate`` module,
so the methods ``dataclasses`` generates count too, under their class
(``client.LatencyRecord.__init__``), and so does the ``__new__`` that
``typing.NamedTuple`` generates, under the module of the class it builds
(``media.EncodedGroup.__new__``).  A pass is what
``perfbench/run.py`` times: ``run_scenario`` and ``Report.to_json`` for
each of the workload's scenarios at seed 0.  Prints the counts per module,
then per function with its calls and its opcodes per call (a unit cost,
such as ``feed`` per chunk), and exits 1 unless both passes' opcode counts
agree exactly.

A count is a measure of work that repeats exactly where wall time does not,
with two limits.  One opcode may be a C call of any size, so memcpy-bound
work (``big_groups``' framing of large buffers) barely shows.  Counts
depend on the interpreter's bytecode, so compare figures from one Python
version only.  Tracing makes a pass about 50 times slower.

Usage, from the repository root (workloads: bundled, live_fanout,
gated_fanout, big_groups)::

    python tools/opcodes.py live_fanout [more workloads]
"""

from __future__ import annotations

import gc
import platform
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moqgate"


def count_opcodes(run, calls: Counter | None = None) -> Counter:
    """Opcodes each code object of the ``moqgate`` package executed during
    ``run()``, keyed by ``(module name, code)``; when ``calls`` is given,
    it gets how many times each was entered, keyed alike (a call, or a
    generator's resume).  A code object belongs to the module whose
    globals its frames run in, so the methods ``dataclasses`` generates
    (``co_filename`` ``<string>``) count under the module of their class.
    A named tuple's ``__new__`` runs in globals of its own, named
    ``namedtuple_<Type>``; it counts under the module of the class in its
    ``_cls`` argument."""
    counts: Counter = Counter()
    frames: Counter = Counter()
    modules: dict = {}

    def trace_opcodes(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        module = frame.f_globals.get("__name__")
        if type(module) is str and module.startswith("namedtuple_"):
            module = getattr(frame.f_locals.get("_cls"), "__module__", None)
        if type(module) is str and module.partition(".")[0] == "moqgate":
            modules[frame.f_code] = module
            frames[frame.f_code] += 1
            frame.f_trace_opcodes = True
            return trace_opcodes
        return None

    gc.collect()
    outer = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(outer)
    if calls is not None:
        calls.update({(modules[code], code): n for code, n in frames.items()})
    return Counter({(modules[code], code): n for code, n in counts.items()})


def _generated_names(module_name: str) -> dict:
    """Code object -> qualified name of each method on a class of
    ``module_name``, for code whose own ``co_qualname`` names the function
    that built it (``dataclasses``' ``__create_fn__.<locals>.__init__``, a
    named tuple's ``<lambda>`` ``__new__``, held as a ``staticmethod``)."""
    names = {}
    for cls in vars(sys.modules[module_name]).values():
        if isinstance(cls, type) and cls.__module__ == module_name:
            for attr in vars(cls).values():
                attr = getattr(attr, "__func__", attr)
                code = getattr(attr, "__code__", None)
                if code is not None:
                    names[code] = attr.__qualname__
    return names


def by_function(counts: Counter) -> Counter:
    """``counts`` keyed by ``module.qualified name:first line``, the module
    named within the package (``client``, ``relay``)."""
    out: Counter = Counter()
    generated: dict = {}
    for (module, code), n in counts.items():
        name = getattr(code, "co_qualname", code.co_name)
        if code.co_filename == "<string>":
            if module not in generated:
                generated[module] = _generated_names(module)
            name = generated[module].get(code, name)
        out[f"{module.rpartition('.')[2]}.{name}:{code.co_firstlineno}"] += n
    return out


def by_module(functions: Counter) -> Counter:
    out: Counter = Counter()
    for name, n in functions.items():
        out[name.split(".", 1)[0]] += n
    return out


def measure(workload: str) -> tuple[Counter, Counter, Counter]:
    """Per-function opcode counts of two traced passes of ``workload``,
    after one untraced pass, and the first pass's calls per function."""
    import workloads

    from moqgate.harness import run_scenario

    scenarios = workloads.load(workload, workloads.DEFAULT_SEED)

    def one_pass() -> None:
        for scenario in scenarios:
            run_scenario(scenario).to_json()

    one_pass()
    calls: Counter = Counter()
    first = by_function(count_opcodes(one_pass, calls))
    second = by_function(count_opcodes(one_pass))
    return first, second, by_function(calls)


def report(workload: str, first: Counter, second: Counter, calls: Counter) -> bool:
    """Print the counts, each function's with its calls and its opcodes
    per call; returns whether the two passes' opcode counts agree."""
    print(f"{workload}: opcodes of src/moqgate per pass, {platform.python_implementation()} "
          f"{platform.python_version()}")
    modules = by_module(first)
    for module, n in modules.most_common():
        print(f"  {module:<12} {n:>12,}")
    print(f"  {'total':<12} {sum(modules.values()):>12,}")
    print(f"{workload}: per function: opcodes, calls, opcodes per call")
    for name, n in first.most_common():
        print(f"  {n:>12,} {calls[name]:>10,} {n / calls[name]:>10,.1f}  {name}")
    if first == second:
        print(f"{workload}: both traced passes agree")
        return True
    for name in sorted(first.keys() | second.keys()):
        if first[name] != second[name]:
            print(f"{workload}: passes differ: {name}: {first[name]:,} != {second[name]:,}")
    return False


def main(names: list[str]) -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    import workloads

    import moqgate

    imported = Path(moqgate.__file__).resolve().parent
    if imported != PACKAGE:
        print(f"opcodes: moqgate was imported from {imported}, not {PACKAGE}")
        return 1
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if not names or unknown:
        print(f"usage: opcodes.py WORKLOAD [...]; workloads: {', '.join(workloads.WORKLOADS)}")
        return 2
    agree = [report(name, *measure(name)) for name in names]
    print("limits: one opcode may be a C call of any size, and counts differ between Python versions")
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
