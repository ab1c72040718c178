"""Run one `tdual` command with every layer boundary traced.

    python3 perfbench/traced.py SPANS_OUT ARG...
    python3 perfbench/traced.py --sample SAMPLES_OUT ARG...

In this fresh process the script imports `tdual_lie.cli`, rebinds the public
functions and methods of each layer module to span-recording wrappers, and
calls `tdual_lie.cli.main(ARG...)`.  Stdout, stderr and the exit code are the
command's own.  The spans and counters are kept in memory and written to
SPANS_OUT (marshal) once the command returns, so the program under test is
measured from outside and never edited.

With `--sample` the command runs unwrapped instead, and a wall-clock timer
samples the stack: each sample goes to the layer module that defines the
innermost frame from one (code elsewhere, such as the stdlib or
`errors.py`, counts for the layer module that called it).  SAMPLES_OUT
then holds samples per layer, an independent split that
`attribution_error` holds the span split against.

A layer is a module of the package.  A span is opened only when a call
enters a layer from a different one; calls inside a layer run through a
cheap pass-through, so `<layer>.calls` counts boundary crossings and the
layer's self time is its spans' time minus that of the spans they caused.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import os
import signal
import sys
import types
from itertools import chain
from time import perf_counter

LAYERS = ("cli", "rootdata", "zlinalg", "flagcoh", "tduality", "loopext", "contcheck")
# Dunder methods that do a layer's arithmetic (`g @ w`, `a + b`) and so are
# wrapped like public methods; other dunders (__eq__, __getitem__, ...) are
# cheap and billed to the calling layer.
OPERATORS = frozenset({"__matmul__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"})
SAMPLE_INTERVAL_S = 0.0005  # wall time between samples in --sample mode

# Counted on every call, inside a layer or across a boundary.
CALL_COUNTERS = {
    "zlinalg.smith_normal_form": "zlinalg.nf_calls",
    "zlinalg.column_hermite_form": "zlinalg.nf_calls",
    "zlinalg.kernel_of_matrix": "zlinalg.nf_calls",
    "zlinalg.solve_columns": "zlinalg.nf_calls",
    "zlinalg.subquotient": "zlinalg.nf_calls",
    "zlinalg.Lattice.coords": "zlinalg.coords_calls",
    "zlinalg.Lattice.reduce_mod": "zlinalg.coords_calls",
    "rootdata.InvariantForm.value_on_coweights": "rootdata.form_evals",
    "flagcoh.LssComplex.is_cycle": "flagcoh.cycle_tests",
}
# Counted when the call returns a true value.
TRUE_COUNTERS = {"flagcoh.LssComplex.is_cycle": "flagcoh.cycle_passes"}
# Counted per element drawn from the returned iterator, not per call.
ITEM_COUNTERS = {"rootdata.weyl_elements_on_coweights": "rootdata.weyl_tried"}

COUNTERS = sorted(set(CALL_COUNTERS.values()) | set(TRUE_COUNTERS.values())
                  | set(ITEM_COUNTERS.values())
                  | {"zlinalg.cells_in", "zlinalg.max_cells", "zlinalg.max_bits"})


class Tracer:
    """Span recorder shared by the wrappers of one process."""

    def __init__(self):
        # (name, layer, start, end, parent index or -1, entered, left): start
        # and end bracket the call itself; entered and left also the
        # wrapper's own bookkeeping, which is tracer overhead, not layer time.
        self.spans: list = []
        self.layer_stack = ["startup"]
        self.open_spans = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.caches: list[tuple[str, object]] = []  # (layer, lru_cache function)
        # The last few matrices scanned for max_bits, by id, kept alive so an
        # id is not reused: a loop of `m.row(i)` calls passes the same large
        # matrix again and again, and it needs one scan, not one per call.
        self.scanned: dict[int, object] = {}

    def span(self, name, layer, fn, args, kwargs, entered):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.open_spans[-1]
        self.layer_stack.append(layer)
        self.open_spans.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.layer_stack.pop()
            self.open_spans.pop()
            self.spans[index] = (name, layer, start, end, parent, entered, perf_counter())

    def record_matrices(self, args, kwargs, matrix_type, scan_bits):
        """Shape and, with `scan_bits`, entry size of IntMatrix arguments
        entering zlinalg."""
        counts = self.counts
        scanned = self.scanned
        for arg in (*args, *kwargs.values()) if kwargs else args:
            if type(arg) is not matrix_type:
                continue
            cells = arg.rows * arg.cols
            if not cells:
                continue
            counts["zlinalg.cells_in"] += cells
            if cells > counts["zlinalg.max_cells"]:
                counts["zlinalg.max_cells"] = cells
            if not scan_bits or scanned.get(id(arg)) is arg:
                continue
            if len(scanned) >= 8:
                scanned.clear()
            scanned[id(arg)] = arg
            bits = max(map(abs, chain.from_iterable(arg))).bit_length()
            if bits > counts["zlinalg.max_bits"]:
                counts["zlinalg.max_bits"] = bits

    def wrap(self, fn, name: str, layer: str, matrix_type):
        stack = self.layer_stack
        counts = self.counts
        call_counter = CALL_COUNTERS.get(name)
        true_counter = TRUE_COUNTERS.get(name)
        item_counter = ITEM_COUNTERS.get(name)
        at_boundary = self.record_matrices if layer == "zlinalg" else None
        # Scanning every entry costs O(cells) per call, as much as a small
        # product itself, so operator operands count only for their shape.
        scan_bits = name.rpartition(".")[2] not in OPERATORS
        span = self.span
        spans = self.spans
        open_spans = self.open_spans

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                if at_boundary is not None and stack[-1] != layer:
                    at_boundary(args, kwargs, matrix_type, scan_bits)
                step = fn(*args, **kwargs).__next__
                while True:
                    try:
                        if stack[-1] == layer:
                            item = step()
                        else:
                            item = span(name, layer, step, (), {}, perf_counter())
                    except StopIteration:
                        return
                    if item_counter is not None:
                        counts[item_counter] += 1
                    yield item

            return functools.update_wrapper(traced_generator, fn)

        def traced(*args, **kwargs):
            if call_counter is not None:
                counts[call_counter] += 1
            if stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:  # self.span inlined: this path runs for every boundary call
                entered = perf_counter()
                if at_boundary is not None:
                    at_boundary(args, kwargs, matrix_type, scan_bits)
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                stack.append(layer)
                open_spans.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    open_spans.pop()
                    spans[index] = (name, layer, start, end, parent, entered, perf_counter())
            if true_counter is not None and result:
                counts[true_counter] += 1
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package_modules: dict[str, types.ModuleType]) -> None:
        """Wrap the public callables of every layer module.

        `from .zlinalg import x` copies the binding, so every name in every
        package namespace that refers to a wrapped original is rebound too.
        """
        matrix_type = package_modules["zlinalg"].IntMatrix
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = package_modules[layer]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, matrix_type)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self.caches.append((layer, obj))
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer, matrix_type)
        for module in {id(m): m for m in sys.modules.values()
                       if getattr(m, "__name__", "").startswith("tdual_lie")}.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer, matrix_type):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self.wrap(attr, qual, layer, matrix_type))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(attr.__func__, qual, layer, matrix_type)))

    def dump(self, path: str, imported_at: float) -> None:
        cache = {}
        for layer, fn in self.caches:
            info = fn.cache_info()
            hits, misses = cache.get(layer, (0, 0))
            cache[layer] = (hits + info.hits, misses + info.misses)
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans, "counts": self.counts, "cache": cache,
                          "imported_at": imported_at}, fh)


def job_profile(path, started: float, exited: float) -> dict:
    """Per-layer self time, boundary calls and counters of one traced job.

    `started` and `exited` are the parent's perf_counter readings at spawn
    and exit; on Linux perf_counter is CLOCK_MONOTONIC, so they compare with
    the child's.  A span's self time is its call's duration minus the whole
    wrapped time (call plus wrapper bookkeeping) of the spans it caused, so
    the tracer's own overhead is billed to no layer.  `startup` is measured,
    not taken as the remainder: spawn to the end of `import tdual_lie.cli` as
    the child saw it, plus the end of `cli.main` to exit (interpreter
    teardown, writing the spans).  `coverage` is (layer self times +
    startup) / wall: installing the wrappers, wrapper overhead and time
    outside every span pull it below 1, overlapping spans push it above.
    """
    with open(path, "rb") as fh:
        data = marshal.load(fh)
    spans = data["spans"]
    roots = [(start, end) for _, _, start, end, parent, *_ in spans if parent == -1]
    if not roots:
        raise ValueError("the trace holds no cli.main span")
    caused = [0.0] * len(spans)
    for *_, parent, entered, left in spans:
        if parent >= 0:
            caused[parent] += left - entered
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (_, layer, start, end, *_), child in zip(spans, caused):
        self_s[layer] += end - start - child
        calls[layer] += 1
    wall_s = exited - started
    startup = (data["imported_at"] - started) + (exited - max(end for _, end in roots))
    in_layers = sum(self_s.values())
    return {
        "self_s": self_s,
        "calls": calls,
        "wall_s": wall_s,
        "startup_s": startup,
        "in_layers_s": in_layers,
        "coverage": (in_layers + startup) / wall_s,
        "counts": data["counts"],
        "cache": data["cache"],
    }


def _layer_of_file(filename: str) -> str | None:
    directory, base = os.path.split(filename)
    stem = base[:-3] if base.endswith(".py") else None
    if os.path.basename(directory) == "tdual_lie" and stem in LAYERS:
        return stem
    return None


def attribution_error(profile: dict, samples_path) -> dict[str, float]:
    """Per layer, |span self time - sampled share x in-layer time| as a
    share of the traced job's wall time.  Code the wrappers miss (private
    helpers of another module, operators, stdlib) runs in the caller's span
    but is sampled in the frame of the module that defines it, so this
    grows when the span split is wrong."""
    with open(samples_path, "rb") as fh:
        samples = marshal.load(fh)
    total = sum(samples.values())
    if not total:
        return dict.fromkeys(LAYERS, 0.0)
    return {layer: abs(profile["self_s"][layer] - samples[layer] / total * profile["in_layers_s"])
            / profile["wall_s"] for layer in LAYERS}


def main(argv: list[str]) -> int:
    if argv[0] == "--sample":
        return sample_main(argv[1], argv[2:])
    spans_out, cli_argv = argv[0], argv[1:]
    import tdual_lie.cli
    imported_at = perf_counter()

    modules = {layer: sys.modules[f"tdual_lie.{layer}"] for layer in LAYERS}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return tdual_lie.cli.main(cli_argv)
    finally:  # also when argparse exits or the command raises
        sys.stdout.flush()
        tracer.dump(spans_out, imported_at)


def sample_main(samples_out: str, cli_argv: list[str]) -> int:
    """Run the command unwrapped and count, every SAMPLE_INTERVAL_S of wall
    time, the layer of the innermost frame defined in a layer module."""
    import tdual_lie.cli

    samples = dict.fromkeys((*LAYERS, "outside"), 0)
    layer_of_code: dict = {}

    def on_sample(signum, frame):
        while frame is not None:
            code = frame.f_code
            if code not in layer_of_code:
                layer_of_code[code] = _layer_of_file(code.co_filename)
            if layer_of_code[code] is not None:
                samples[layer_of_code[code]] += 1
                return
            frame = frame.f_back
        samples["outside"] += 1

    signal.signal(signal.SIGALRM, on_sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        return tdual_lie.cli.main(cli_argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.flush()
        with open(samples_out, "wb") as fh:
            marshal.dump(samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
