"""Per-layer tracing of one ``boundedpowers`` command, from outside the library.

The tracer wraps selected public functions of the library modules at every
module binding that holds them (``suites.regularity`` and
``homology.regularity`` are separate bindings of one function, and both need
the wrapper), runs the command in-process, and records per function:

- ``calls``: completed calls;
- ``total_s``: inclusive wall time of the outermost active call;
- ``self_s``: inclusive time minus the time spent in traced children;
- work counts derived from arguments and results (never by wrapping the
  per-monomial primitives such as ``divides``, which would swamp the timing).

A traced name the library no longer has is reported as absent, and its
metrics read zero, so a refactor never breaks the benchmark.

Run as a script it traces one command and writes the statistics as JSON:

    PYTHONPATH=src python3 benchmarks/layertrace.py STATS.json verify --suite regmain ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _count_upper_koszul(stat, args, kwargs, result):
    m = args[1] if len(args) > 1 else kwargs["m"]
    stat["subsets"] += 1 << sum(1 for a in m if a)
    stat["faces"] += sum(
        len(result.faces_of_dim(d)) for d in range(-1, result.dim() + 1)
    )


def _count_lcm_lattice(stat, args, kwargs, result):
    stat["points"] += len(result)


def _prepare_rows(args, kwargs):
    if args:
        return (list(args[0]),) + tuple(args[1:]), kwargs
    return args, dict(kwargs, rows=list(kwargs["rows"]))


def _count_rank_of_rows(stat, args, kwargs, result):
    stat["rows"] += len(args[0] if args else kwargs["rows"])


def _prepare_minimalize(args, kwargs):
    # the inputs are often a generator expression of the caller; it runs
    # inside minimalize when untraced, so it is drained inside the frame too
    if len(args) > 1:
        return (args[0], list(args[1])) + tuple(args[2:]), kwargs
    return args, dict(kwargs, monomials=list(kwargs["monomials"]))


def _count_minimalize(stat, args, kwargs, result):
    inputs = args[1] if len(args) > 1 else kwargs["monomials"]
    stat["inputs"] += len(inputs)
    stat["kept"] += len(result.gens)


def _count_search_ordering(stat, args, kwargs, result):
    stat["found"] += result is not None


def _count_refusal(stat, exc):
    if type(exc).__name__ == "SearchCapExceeded":
        stat["refused"] += 1


# (module, qualified name, argument preparation, result counter, exception counter)
TRACED = (
    ("cli", "main", None, None, None),
    ("suites", "run_suite", None, None, None),
    ("suites", "VerificationReport.to_json", None, None, None),
    ("graphs", "parse_graph6", None, None, None),
    ("graphs", "read_graph6_file", None, None, None),
    ("graphs", "enumerate_labeled_graphs", None, None, None),
    ("monomials", "minimalize", _prepare_minimalize, _count_minimalize, None),
    ("monomials", "MonomialIdeal.colon", None, None, None),
    ("powers", "bounded_power", None, None, None),
    ("powers", "bounded_power_chain", None, None, None),
    ("linquot", "all_bounded_powers_lq", None, None, None),
    ("linquot", "find_lq_ordering", None, None, _count_refusal),
    ("linquot", "search_ordering", None, _count_search_ordering, None),
    ("connections", "colon_quadrics", None, None, None),
    ("connections", "even_connected_targets", None, None, None),
    ("connections", "edge_factorization", None, None, None),
    ("homology", "has_linear_resolution", None, None, None),
    ("homology", "regularity", None, None, None),
    ("homology", "betti_table", None, None, None),
    ("homology", "lcm_lattice", None, _count_lcm_lattice, None),
    ("homology", "upper_koszul", None, _count_upper_koszul, None),
    ("homology", "reduced_homology_ranks", None, None, None),
    ("homology", "rank_of_rows", _prepare_rows, _count_rank_of_rows, None),
)

MODULES = ("graphs", "monomials", "powers", "linquot", "connections", "homology", "suites", "cli")

# (traced name, statistic, unit, better); ratios are derived from two counts
LAYER_METRICS = (
    ("homology.upper_koszul", "self_s", "s", "lower"),
    ("homology.upper_koszul", "calls", "count", "lower"),
    ("homology.upper_koszul", "subsets", "count", "lower"),
    ("homology.upper_koszul", "faces", "count", "lower"),
    ("homology.upper_koszul", "face_yield", "ratio", "higher"),
    ("homology.lcm_lattice", "self_s", "s", "lower"),
    ("homology.lcm_lattice", "points", "count", "lower"),
    ("homology.rank_of_rows", "self_s", "s", "lower"),
    ("homology.rank_of_rows", "calls", "count", "lower"),
    ("homology.rank_of_rows", "rows", "count", "lower"),
    ("homology.reduced_homology_ranks", "self_s", "s", "lower"),
    ("homology.betti_table", "self_s", "s", "lower"),
    ("homology.regularity", "calls", "count", "lower"),
    ("homology.regularity", "total_s", "s", "lower"),
    ("homology.has_linear_resolution", "calls", "count", "lower"),
    ("homology.has_linear_resolution", "total_s", "s", "lower"),
    ("powers.bounded_power", "self_s", "s", "lower"),
    ("powers.bounded_power", "calls", "count", "lower"),
    ("powers.bounded_power_chain", "self_s", "s", "lower"),
    ("powers.bounded_power_chain", "calls", "count", "lower"),
    ("monomials.minimalize", "self_s", "s", "lower"),
    ("monomials.minimalize", "calls", "count", "lower"),
    ("monomials.minimalize", "inputs", "count", "lower"),
    ("monomials.minimalize", "kept", "count", "lower"),
    ("monomials.minimalize", "kept_ratio", "ratio", "higher"),
    ("monomials.MonomialIdeal.colon", "calls", "count", "lower"),
    ("monomials.MonomialIdeal.colon", "total_s", "s", "lower"),
    ("connections.colon_quadrics", "calls", "count", "lower"),
    ("connections.colon_quadrics", "total_s", "s", "lower"),
    ("connections.even_connected_targets", "self_s", "s", "lower"),
    ("connections.even_connected_targets", "calls", "count", "lower"),
    ("connections.edge_factorization", "self_s", "s", "lower"),
    ("linquot.find_lq_ordering", "self_s", "s", "lower"),
    ("linquot.find_lq_ordering", "calls", "count", "lower"),
    ("linquot.find_lq_ordering", "refused", "count", "lower"),
    ("linquot.find_lq_ordering", "refusal_ratio", "ratio", "lower"),
    ("linquot.search_ordering", "self_s", "s", "lower"),
    ("linquot.search_ordering", "calls", "count", "lower"),
    ("linquot.search_ordering", "found", "count", "higher"),
    ("linquot.all_bounded_powers_lq", "total_s", "s", "lower"),
    ("graphs.parse_graph6", "self_s", "s", "lower"),
    ("graphs.parse_graph6", "calls", "count", "lower"),
    ("graphs.enumerate_labeled_graphs", "self_s", "s", "lower"),
    ("suites.run_suite", "self_s", "s", "lower"),
    ("suites.VerificationReport.to_json", "self_s", "s", "lower"),
    ("cli.main", "self_s", "s", "lower"),
)

RATIOS = {
    "face_yield": ("faces", "subsets"),
    "kept_ratio": ("kept", "inputs"),
    "refusal_ratio": ("refused", "calls"),
}


def _new_stat() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "active": 0,
            "subsets": 0, "faces": 0, "points": 0, "rows": 0, "inputs": 0,
            "kept": 0, "refused": 0, "found": 0}


class Tracer:
    """Wraps traced names, keeps a stack of open frames, and accumulates
    self time: a frame's duration minus the durations of its traced children.

    Time spent in the counters after a call returns is charged to nobody: the
    parent sees the whole interval as child time, the callee only its call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, prepare=None, count=None, count_exc=None):
        stat = self.stats.setdefault(name, _new_stat())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat["active"] += 1
            t0 = clock()
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_exc is not None:
                    count_exc(stat, exc)
                raise
            finally:
                t1 = clock()
                self._close(stat, frame, t0, t1)
            if count is not None:
                count(stat, args, kwargs, result)
            if stack:
                stack[-1][0] += clock() - t1
            return result

        return wrapper

    def _wrap_generator(self, stat, fn):
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                stat["active"] += 1
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stat, frame, t0, clock(), count_call=False)
                yield item

        return wrapper

    def _close(self, stat, frame, t0, t1, count_call=True):
        elapsed = t1 - t0
        self._stack.pop()
        stat["active"] -= 1
        if count_call:
            stat["calls"] += 1
        stat["self_s"] += elapsed - frame[0]
        if stat["active"] == 0:
            stat["total_s"] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def install(self, package, traced=TRACED) -> None:
        """Replace every binding of each traced name in ``package`` and its
        loaded submodules; names that cannot be resolved are recorded as absent."""
        modules = [package] + [
            m for key, m in sorted(sys.modules.items())
            if key.startswith(package.__name__ + ".") and m is not None
        ]
        for module_name, qualname, prepare, count, count_exc in traced:
            name = f"{module_name}.{qualname}"
            owner = sys.modules.get(f"{package.__name__}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                self.stats.setdefault(name, _new_stat())
                continue
            wrapper = self.wrap(name, original, prepare, count, count_exc)
            if path:
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def layer_values(stats: dict) -> dict[str, float]:
    """Every per-layer metric value, keyed ``<module>.<function>.<stat>``;
    absent names and zero denominators read 0."""
    values = {}
    for name, key, _unit, _better in LAYER_METRICS:
        stat = stats.get(name) or _new_stat()
        if key in RATIOS:
            num, den = RATIOS[key]
            values[f"{name}.{key}"] = stat[num] / stat[den] if stat[den] else 0.0
        else:
            values[f"{name}.{key}"] = stat[key]
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s["self_s"] for n, s in stats.items() if n.split(".", 1)[0] == module
        )
    return values


def main(argv: list[str]) -> int:
    stats_path, command = argv[0], argv[1:]
    package = importlib.import_module("boundedpowers")
    cli = importlib.import_module("boundedpowers.cli")
    tracer = Tracer()
    tracer.install(package)
    start = time.perf_counter()
    try:
        code = cli.main(command)
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "traced_s": elapsed, "absent": tracer.absent,
                   "module_file": package.__file__, "stats": tracer.stats}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
