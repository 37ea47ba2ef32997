"""Theorem-verification suites over graph and ideal corpora.

Each suite replays one statement as a machine-checkable property over a
deterministic corpus and returns a replayable JSON report.  Instances that do
not meet a statement's hypotheses (empty s-ranges, search-cap refusals) are
reported as skips, never silently dropped and never counted as failures.

Every graph statement is about one chain (I(G)^s)_c, s = 1..delta.  Each graph
instance builds that chain once, and one code path (``_GraphSuite``) applies
the suite's s-range and ``max_s`` to it; an s-range that ``max_s`` empties is
reported as a skip too.

Every graph statement is also unchanged when the vertices and c are relabeled
together: x_i -> x_pi(i) maps (I(G)^s)_c onto (I(pi G)^s)_{pi c}.  So a graph
suite evaluates one instance per isomorphism class of (G, colour v by c_v),
and gives each other member of the class the same (s, outcome, detail)
records under its own key and payload.  On the ``nmax`` corpus with the same c
on every vertex, a class is an orbit of labeled graphs keyed by its least mask
(``canon.labeled_classes``); on any other, its key is ``canon.canonical_form``.
Every pass and skip detail must be label-invariant.  A fail detail may name
labeled monomials, so a class whose first member fails is evaluated member by
member.

A check imports the layer it calls (``homology``, ``connections``,
``polymatroid``) when it runs, so a run loads only the layers of its suite.
"""

from __future__ import annotations

import json
import os
import random
import time
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Iterable, NamedTuple

from .graphs import Graph, labeled_graph6, parse_graph6, read_graph6_file
from .linquot import (
    DEFAULT_GENERATOR_CAP,
    SearchCapExceeded,
    find_lq_ordering,
    has_colon_splitting_order,
    is_lq_ordering,
    restrict_lq_ordering,
)
from .monomials import MonomialIdeal, _Value, check_characteristic, degree
from .powers import bounded_power_chain

# the largest nmax: the corpus holds every labeled graph on up to nmax
# vertices, and n = 8 alone has 2^28 of them
_NMAX_CAP = 7

# c policy -> the config fields it reads besides c_policy
_POLICY_READS = {"ones": (), "constant": ("c_value",), "random": ("c_value", "seed"),
                 "explicit": ("c_explicit",)}
C_POLICIES = tuple(_POLICY_READS)

# corpus -> the config fields a run on it reads; a random graph corpus also
# reads random_nmax and seed
_CORPUS_READS = {
    "graphs": ("nmax", "graph6_path", "random_count"),
    "ideals": ("random_count", "random_nmax", "seed"),
    "fixed": (),
}

# the shape of a random ideal instance (generators, exponents, bound
# samples), fixed for every run and echoed into every report's config
_IDEAL_CORPUS = {"ideal_max_generators": 6, "ideal_max_exponent": 2, "samples_per_instance": 3}


class SuiteConfig(_Value):
    """Everything a suite run depends on; echoed into the report.

    ``DEFAULTS`` holds every field but ``suite``, in order, with its default.
    A field the run does not read (see ``_Suite``) must keep its default, so
    the echoed config never claims a setting that was not applied.
    """

    DEFAULTS = {
        "nmax": None, "graph6_path": None, "random_count": None, "random_nmax": 5, "seed": 0,
        # c_policy is one of C_POLICIES; c_value a constant or a random upper
        # bound; c_explicit a tuple of ints
        "c_policy": "ones", "c_value": 1, "c_explicit": None,
        "char": 0, "max_generators": DEFAULT_GENERATOR_CAP, "max_s": None, "jobs": 1,
    }
    _fields = ("suite", *DEFAULTS)

    def __init__(self, suite: str, **options) -> None:
        unknown = options.keys() - self.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"SuiteConfig has no field {min(unknown)!r}")
        self.__dict__.update(self.DEFAULTS, suite=suite, **options)
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if self.c_policy not in C_POLICIES:
            raise ValueError(f"unknown c policy {self.c_policy!r}")
        sources = [name for name in ("nmax", "graph6_path", "random_count")
                   if getattr(self, name) is not None]
        if len(sources) > 1:
            raise ValueError(f"choose one corpus source, got {' and '.join(sources)}")
        # the fields this run reads: those of its suite, corpus and c policy
        suite = _SUITES[self.suite]
        read = {"suite", "jobs", *suite.reads.split(), *_CORPUS_READS[suite.corpus]}
        if suite.corpus == "graphs" and self.random_count is not None:
            read |= {"random_nmax", "seed"}
        if suite.c_floor is not None:
            read |= {"c_policy", *_POLICY_READS[self.c_policy]}
        for name, default in self.DEFAULTS.items():
            if name not in read and getattr(self, name) != default:
                raise ValueError(f"suite {self.suite!r} does not read {name} in this run, "
                                 f"so it cannot be set (got {getattr(self, name)!r})")
        if self.c_policy == "explicit" and not self.c_explicit:
            raise ValueError("explicit c policy needs c_explicit")
        if self.c_policy == "random" and self.c_value < 1:
            # every draw would be the all-zero vector, which is never accepted
            raise ValueError(f"random c policy needs c_value >= 1, got {self.c_value}")
        floor = suite.c_floor
        if (self.c_policy == "constant" and self.c_value < floor
                or self.c_policy == "explicit" and min(self.c_explicit) < floor):
            raise ValueError(f"suite {self.suite!r} needs every entry of c >= {floor}")
        # sizes and caps: a field the run does not read holds its default
        for name in ("nmax", "random_count", "random_nmax", "max_generators", "max_s", "jobs"):
            # a random graph has at least two vertices
            floor = 2 if name == "random_nmax" and suite.corpus == "graphs" else 1
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if self.nmax is not None and self.nmax > _NMAX_CAP:
            raise ValueError(f"nmax must be <= {_NMAX_CAP}, got {self.nmax}")
        check_characteristic(self.char)


class VerificationReport(_Value):
    """A suite run's config, records and summary, and its ``timings`` sidecar."""

    _fields = ("config", "records", "counterexamples", "summary", "timings")

    def __init__(self, config: dict, records: list[dict], counterexamples: list[dict],
                 summary: dict, timings: dict | None = None) -> None:
        self.__dict__.update(config=config, records=records, counterexamples=counterexamples,
                             summary=summary, timings={} if timings is None else timings)

    def to_dict(self, with_timings: bool = True) -> dict:
        data = {"config": self.config, "records": self.records,
                "counterexamples": self.counterexamples, "summary": self.summary}
        if with_timings:
            data["timings"] = self.timings
        return data

    def to_json(self, with_timings: bool = True) -> str:
        """``json.dumps(self.to_dict(with_timings), sort_keys=True, indent=1)``,
        byte for byte, with records and graph payloads formatted from templates
        (``indent`` would force the pure-Python encoder on all of it)."""
        data = self.to_dict(with_timings)
        parts = []
        for name in sorted(data):
            value = data[name]
            if name in ("records", "counterexamples") and value:
                text = "[\n" + ",\n".join(map(_record_json, value)) + "\n ]"
            else:
                text = _indented_json(value, 1)
            parts.append(f' "{name}": {text}')
        return "{\n" + ",\n".join(parts) + "\n}"

    @property
    def failed(self) -> int:
        return self.summary["fail"]


def _record(key: str, instance: dict, outcome: str, detail: str, s: int | None = None) -> dict:
    return {"key": key, "instance": instance, "s": s, "outcome": outcome, "detail": detail}


# a record made by _record, and a graph payload in it, as json.dumps writes
# them in a top-level list of an indent=1 document
_RECORD_FIELDS = {"detail", "instance", "key", "outcome", "s"}
_RECORD_JSON = ('  {{\n   "detail": {},\n   "instance": {},\n   "key": {},\n'
                '   "outcome": {},\n   "s": {}\n  }}')
_GRAPH_JSON = '{{\n    "c": [\n     {}\n    ],\n    "graph6": {}\n   }}'


def _indented_json(value, depth: int) -> str:
    """``value`` as ``json.dumps`` writes it at nesting ``depth`` of an
    ``indent=1`` document; a JSON string holds no raw newline."""
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + " " * depth)


def _record_json(record: dict) -> str:
    if record.keys() != _RECORD_FIELDS:  # not made by _record: no template
        return "  " + _indented_json(record, 2)
    payload, s = record["instance"], record["s"]
    if len(payload) == 2 and "graph6" in payload and payload.get("c"):
        payload = _GRAPH_JSON.format(",\n     ".join(map(str, payload["c"])),
                                     _json_string(payload["graph6"]))
    else:
        payload = _indented_json(payload, 3)
    return _RECORD_JSON.format(_json_string(record["detail"]), payload, _json_string(record["key"]),
                               _json_string(record["outcome"]), "null" if s is None else s)


def _c_string(c) -> str:
    return ",".join(map(str, c))


def _draw_c(rng: random.Random, n: int, cfg: SuiteConfig) -> tuple[int, ...]:
    """The bound c of one corpus graph on n vertices.  ``SuiteConfig`` has
    already held the policy's values to the suite's ``c_floor``."""
    if cfg.c_policy == "ones":
        return (1,) * n
    if cfg.c_policy == "constant":
        return (cfg.c_value,) * n
    if cfg.c_policy == "explicit":
        c = cfg.c_explicit
        if len(c) != n:
            raise ValueError(f"explicit c has length {len(c)}, corpus graph has n={n}")
        return tuple(c)
    # random entries in [c_floor, c_value]; all-zero vectors are resampled
    low = _SUITES[cfg.suite].c_floor
    while True:
        c = tuple(rng.randint(low, cfg.c_value) for _ in range(n))
        if any(c):
            return c


def _graph_corpus(cfg: SuiteConfig) -> tuple[list[Graph] | None, list[dict]]:
    """The corpus graphs and their payloads, each a graph6 line with its
    bound c.  The ``nmax`` corpus writes its lines straight from the masks
    and builds no graph, so its graphs are None."""
    rng = random.Random(cfg.seed)
    graphs: list[Graph] | None = None
    if cfg.graph6_path is not None:
        graphs = list(read_graph6_file(cfg.graph6_path))
    elif cfg.random_count is not None:
        graphs = []
        for _ in range(cfg.random_count):
            n = rng.randint(2, cfg.random_nmax)
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < 0.5]
            graphs.append(Graph.from_edges(n, edges))
    if graphs is None:
        lines = [(n, line) for n in range(1, (cfg.nmax or 4) + 1) for line in labeled_graph6(n)]
    else:
        lines = [(g.n, g.to_graph6()) for g in graphs]
    instances = [{"graph6": line, "c": list(_draw_c(rng, n, cfg))} for n, line in lines]
    return graphs, instances


def _class_keys(cfg: SuiteConfig, graphs: list[Graph] | None, instances: list[dict]) -> list:
    """The class key of each (G, c), or None for a class of its own: (n,
    least mask) on the ``nmax`` corpus (no ``graphs``) with the same c on
    every vertex, whose lines come in mask order for each n, else the
    canonical form."""
    from .canon import canonical_form, labeled_classes

    if graphs is None and cfg.c_policy in ("ones", "constant"):
        ns = dict.fromkeys(len(payload["c"]) for payload in instances)
        return [(n, key) for n in ns for key in labeled_classes(n)]
    if graphs is None:
        graphs = [parse_graph6(payload["graph6"]) for payload in instances]
    return [canonical_form(g, payload["c"]) for g, payload in zip(graphs, instances)]


def _random_ideal(rng: random.Random, cfg: SuiteConfig) -> MonomialIdeal:
    n = rng.randint(1, cfg.random_nmax)
    top = _IDEAL_CORPUS["ideal_max_exponent"]
    gens = []
    for _ in range(rng.randint(1, _IDEAL_CORPUS["ideal_max_generators"])):
        while True:
            g = tuple(rng.randint(0, top) for _ in range(n))
            if any(g):
                break
        gens.append(g)
    return MonomialIdeal(n, gens)


def _ideal_instances(cfg: SuiteConfig) -> list[dict]:
    rng = random.Random(cfg.seed)
    count = cfg.random_count if cfg.random_count is not None else 100
    c_top = _IDEAL_CORPUS["ideal_max_exponent"] + 1  # a bound may exceed every exponent
    instances = []
    for idx in range(count):
        ideal = _random_ideal(rng, cfg)
        cs = []
        for _ in range(_IDEAL_CORPUS["samples_per_instance"]):
            c = tuple(rng.randint(0, c_top) for _ in range(ideal.n))
            if cfg.suite == "istanbul":
                c_small = tuple(rng.randint(0, x) for x in c)
                cs.append([list(c), list(c_small)])
            else:
                cs.append(list(c))
        instances.append({"index": idx, "ideal": json.loads(ideal.to_json()), "cs": cs})
    return instances


def _graph_key(payload: dict) -> str:
    return f"{payload['graph6']}|{_c_string(payload['c'])}"


class _Instance:
    """One graph instance: its graph, bound c, record key and the chain
    (I(G)^s)_c, s = 1..delta, built at most once and only when a check asks."""

    def __init__(self, payload: dict, cfg: SuiteConfig) -> None:
        self.payload = payload
        self.cfg = cfg
        self.graph = parse_graph6(payload["graph6"])
        self.c = tuple(payload["c"])
        self.key = _graph_key(payload)
        self._regs: dict[int, int] = {}

    @cached_property
    def chain(self) -> list[MonomialIdeal]:
        return bounded_power_chain(self.graph.edge_ideal(), self.c)

    def reg(self, s: int) -> int:
        """The regularity of (I(G)^s)_c, computed once per level."""
        if s not in self._regs:
            from .homology import regularity

            self._regs[s] = regularity(self.chain[s - 1], self.cfg.char)
        return self._regs[s]

    def record(self, ok: bool, detail: str, s: int | None = None) -> dict:
        return _record(self.key, self.payload, "pass" if ok else "fail", detail, s)

    def skip(self, detail: str, s: int | None = None) -> dict:
        return _record(self.key, self.payload, "skip", detail, s)


class _GraphSuite(NamedTuple):
    """A graph statement and the s-range it is checked on.

    ``check(inst, s)`` returns one record.  With ``first`` None it runs once,
    with s None, on the whole instance; otherwise once for each s from
    ``first`` to delta - ``below_top``, capped by ``max_s``.  ``empty`` is the
    skip detail, formatted with delta, for an instance whose s-range is empty
    (for a whole-instance check: whose chain is empty).  A search-cap refusal
    becomes a skip for its s.

    Records are copied to every instance isomorphic to the evaluated one
    (see the module docstring), so a pass or skip detail, and the outcome,
    must not depend on the vertex labels; only a fail detail may.
    """

    check: Callable[[_Instance, int | None], dict]
    empty: str | None = None
    first: int | None = None
    below_top: int = 0

    def __call__(self, payload: dict, cfg: SuiteConfig) -> list[dict]:
        inst = _Instance(payload, cfg)
        s_range: Iterable[int | None] = (None,)
        if self.first is not None:
            delta = len(inst.chain)
            top = delta - self.below_top
            last = top if cfg.max_s is None else min(top, cfg.max_s)
            if self.first > top:
                return [inst.skip(self.empty.format(delta=delta))]
            if self.first > last:
                return [inst.skip(f"delta={delta} max_s={cfg.max_s}: "
                                  f"no s with {self.first} <= s <= max_s")]
            s_range = range(self.first, last + 1)
        elif self.empty is not None and not inst.chain:
            return [inst.skip(self.empty.format(delta=0))]
        records = []
        for s in s_range:
            try:
                records.append(self.check(inst, s))
            except SearchCapExceeded as exc:
                records.append(inst.skip(str(exc), s))
        return records


def _check_edge_lq(inst: _Instance, s: None) -> dict:
    rhs = inst.graph.complement().is_chordal()
    # stops at the first level without an ordering or over the search cap
    cap = inst.cfg.max_generators
    lhs = all(find_lq_ordering(power, cap) is not None for power in inst.chain)
    return inst.record(lhs == rhs, f"all_powers_lq={lhs} complement_chordal={rhs}")


def _check_essen(inst: _Instance, s: None) -> dict:
    from .polymatroid import is_matroidal, is_polymatroidal

    top = inst.chain[-1]
    ok = is_polymatroidal(top)
    detail = f"delta={len(inst.chain)} polymatroidal={ok}"
    if ok and all(x == 1 for x in inst.c):
        ok = is_matroidal(top)
        detail += f" matroidal={ok}"
    return inst.record(ok, detail)


def _check_linres_top(inst: _Instance, s: None) -> dict:
    from .homology import has_linear_resolution

    delta = len(inst.chain)
    ok = has_linear_resolution(inst.chain[-1], inst.cfg.char)
    detail = f"delta={delta} linear_resolution={ok} (generation degree {2 * delta})"
    return inst.record(ok, detail, s=delta)


def _check_regmain(inst: _Instance, s: int) -> dict:
    reg, bound = inst.reg(s), len(inst.chain) + s
    return inst.record(reg <= bound, f"reg={reg} bound={bound}", s)


def _check_regcol(inst: _Instance, s: int) -> dict:
    from .homology import regularity

    current, nxt = inst.chain[s - 1], inst.chain[s]
    lhs = inst.reg(s + 1)
    colon_regs = [regularity(nxt.colon(u), inst.cfg.char) for u in current.gens]
    rhs = max([r + 2 * s for r in colon_regs] + [inst.reg(s)])
    return inst.record(lhs <= rhs, f"reg_next={lhs} bound={rhs}", s)


def _check_deg2(inst: _Instance, s: int) -> dict:
    nxt = inst.chain[s]
    ok = all(degree(w) == 2 for u in inst.chain[s - 1].gens for w in nxt.colon(u).gens)
    detail = "all colon generators have degree 2" if ok else "colon generator of degree != 2"
    return inst.record(ok, detail, s)


def _check_banerjee_colon(inst: _Instance, s: int) -> dict:
    from .connections import colon_quadrics

    current, nxt = inst.chain[s - 1], inst.chain[s]
    for u in current.gens:
        direct = nxt.colon(u)
        quadric = colon_quadrics(inst.graph, inst.c, u)
        if direct != quadric:
            detail = f"u={list(u)} direct={direct.to_json()} quadrics={quadric.to_json()}"
            return inst.record(False, detail, s)
    return inst.record(True, f"{len(current.gens)} generators agree", s)


def _check_colon_reg(inst: _Instance, s: int) -> dict:
    from .homology import regularity

    bound = len(inst.chain) - s + 2
    for u in inst.chain[s - 2].gens:
        reg = regularity(inst.chain[s - 1].colon(u), inst.cfg.char)
        if reg > bound:
            return inst.record(False, f"u={list(u)} reg={reg} bound={bound}", s)
    return inst.record(True, f"all colon regs <= {bound}", s)


def _check_rfirst(inst: _Instance, s: int) -> dict:
    ok = has_colon_splitting_order(inst.chain[s - 1], inst.chain[s], inst.cfg.max_generators)
    return inst.record(ok, "labeling found" if ok else "no labeling exists", s)


def _open_lq_ideal(payload: dict, cfg: SuiteConfig):
    """(key, ideal, ordering, skipped): the record key and ideal of an
    ideal-corpus payload and a linear-quotients ordering of the ideal.  When
    the search refuses or finds none, ``skipped`` is the one skip record that
    stands for the whole instance; otherwise it is empty."""
    ideal = MonomialIdeal(payload["ideal"]["n"], payload["ideal"]["gens"])
    key = f"ideal{payload['index']:05d}"
    try:
        ordering = find_lq_ordering(ideal, cfg.max_generators)
    except SearchCapExceeded as exc:
        return key, ideal, None, [_record(key, payload, "skip", str(exc))]
    if ordering is None:
        detail = "ideal has no linear quotients (hypothesis unmet)"
        return key, ideal, None, [_record(key, payload, "skip", detail)]
    return key, ideal, ordering, []


def _eval_boston(payload: dict, cfg: SuiteConfig) -> list[dict]:
    key, ideal, ordering, skipped = _open_lq_ideal(payload, cfg)
    if skipped:
        return skipped
    records = []
    for t, c in enumerate(map(tuple, payload["cs"])):
        induced = restrict_lq_ordering(ideal, ordering, c)
        valid = is_lq_ordering(ideal.restrict(c), induced)
        records.append(_record(
            f"{key}|c{t}", payload, "pass" if valid else "fail",
            f"c={_c_string(c)} induced_order={list(induced)} valid={valid}", s=t))
    return records


def _eval_istanbul(payload: dict, cfg: SuiteConfig) -> list[dict]:
    key, ideal, _, skipped = _open_lq_ideal(payload, cfg)
    if skipped:
        return skipped
    records = []
    for t, (c, c_small) in enumerate(payload["cs"]):
        big = find_lq_ordering(ideal.restrict(tuple(c)), cfg.max_generators)
        if big is None:
            records.append(_record(f"{key}|c{t}", payload, "fail",
                                   f"restriction to c={_c_string(c)} lost linear quotients", s=t))
            continue
        small = find_lq_ordering(ideal.restrict(tuple(c_small)), cfg.max_generators)
        ok = small is not None
        records.append(_record(
            f"{key}|c{t}", payload, "pass" if ok else "fail",
            f"c={_c_string(c)} c'={_c_string(c_small)} persists={ok}", s=t))
    return records


def _eval_remark45(payload: dict, cfg: SuiteConfig) -> list[dict]:
    ideal = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])
    c = (1,) * 5
    top = len(bounded_power_chain(ideal, c))
    ordering = find_lq_ordering(ideal)
    ok = top == 1 and ordering is None
    detail = f"delta={top} lq_ordering={'none' if ordering is None else list(ordering)}"
    return [_record("remark45", {"ideal": json.loads(ideal.to_json()), "c": list(c)},
                    "pass" if ok else "fail", detail)]


_NO_POWER = "delta={delta}: no nonvanishing bounded power"


class _Suite(NamedTuple):
    """What a suite reads, and how it evaluates one instance.

    ``corpus`` keys ``_CORPUS_READS``.  ``c_floor`` is the smallest entry
    allowed in a c drawn from the c policy, or None for a suite that draws
    none and so reads no c field.  ``reads`` names, space-separated, which of
    char, max_generators and max_s the suite reads.  ``SuiteConfig`` refuses a
    non-default value in every field a run does not read.
    """

    corpus: str
    c_floor: int | None
    reads: str
    evaluate: Callable[[dict, SuiteConfig], list[dict]]


_BELOW = dict(empty="delta={delta}: no s with 1 <= s <= delta-1", first=1, below_top=1)
_SUITES = {
    "boston": _Suite("ideals", None, "max_generators", _eval_boston),
    "istanbul": _Suite("ideals", None, "max_generators", _eval_istanbul),
    "edge-lq": _Suite("graphs", 1, "max_generators", _GraphSuite(_check_edge_lq)),
    "squarefree-lq": _Suite("graphs", None, "max_generators", _GraphSuite(_check_edge_lq)),
    "essen": _Suite("graphs", 0, "", _GraphSuite(_check_essen, _NO_POWER)),
    "linres-top": _Suite("graphs", 0, "char", _GraphSuite(_check_linres_top, _NO_POWER)),
    "rfirst": _Suite("graphs", 0, "max_generators max_s", _GraphSuite(_check_rfirst, **_BELOW)),
    "regcol": _Suite("graphs", 0, "char max_s", _GraphSuite(_check_regcol, **_BELOW)),
    "deg2": _Suite("graphs", 0, "max_s", _GraphSuite(_check_deg2, **_BELOW)),
    "banerjee-colon": _Suite("graphs", 0, "max_s", _GraphSuite(_check_banerjee_colon, **_BELOW)),
    "colon-reg": _Suite("graphs", 0, "char max_s", _GraphSuite(
        _check_colon_reg, "delta={delta}: no s with 2 <= s <= delta", first=2)),
    "regmain": _Suite("graphs", 0, "char max_s",
                      _GraphSuite(_check_regmain, "delta={delta}: empty s-range", first=1)),
    "remark45": _Suite("fixed", None, "", _eval_remark45),
}
SUITE_NAMES = tuple(_SUITES)


def _isomorphism_classes(forms: list[tuple | None]) -> list[list[int]]:
    """Instance indices grouped by equal canonical form, in order of first
    appearance; an instance without a form is a class of its own."""
    by_form: dict[tuple, list[int]] = {}
    classes: list[list[int]] = []
    for k, form in enumerate(forms):
        if form in by_form:
            by_form[form].append(k)
        else:
            classes.append([k])
            if form is not None:
                by_form[form] = classes[-1]
    return classes


def _evaluate(cfg: SuiteConfig, payloads: list[dict]) -> list[list[dict]]:
    evaluate = _SUITES[cfg.suite].evaluate
    # the fork start method starts every worker at the first submit
    workers = min(cfg.jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool module pulls in multiprocessing, which a
        # one-process run would pay for at every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate, payloads, [cfg] * len(payloads), chunksize=8))
    return [evaluate(payload, cfg) for payload in payloads]


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Execute one suite and assemble its deterministic report.

    Instances are generated sequentially from the seed.  A graph suite
    evaluates the first member of each isomorphism class of (G, c) and copies
    its records to the other members, except in a class with a failure,
    whose members are all evaluated (see the module docstring).  Evaluation
    runs in parallel when jobs > 1; results do not depend on the schedule.
    The records are sorted by instance key.  Wall-clock timings (the whole
    run and its corpus, classes, evaluate and assemble stages) and the class
    counts live in a sidecar section that is excluded from determinism
    comparisons.
    """
    clock = [time.perf_counter()]  # the end of each stage
    corpus = _SUITES[cfg.suite].corpus
    if corpus == "graphs":
        graphs, instances = _graph_corpus(cfg)
        clock.append(time.perf_counter())
        forms = _class_keys(cfg, graphs, instances)
    else:
        instances = _ideal_instances(cfg) if corpus == "ideals" else [{}]
        clock.append(time.perf_counter())
        forms = list(range(len(instances)))  # each instance is a class of its own
    classes = _isomorphism_classes(forms)
    clock.append(time.perf_counter())
    chunks = _evaluate(cfg, [instances[members[0]] for members in classes])
    failing = [k for members, chunk in zip(classes, chunks) if len(members) > 1
               and any(r["outcome"] == "fail" for r in chunk) for k in members[1:]]
    evaluated = dict(zip(failing, _evaluate(cfg, [instances[k] for k in failing])))
    clock.append(time.perf_counter())
    records = []
    for members, chunk in zip(classes, chunks):
        records.extend(chunk)
        for k in members[1:]:
            if k in evaluated:
                records.extend(evaluated[k])
                continue
            payload = instances[k]
            key = _graph_key(payload)
            records.extend(_record(key, payload, r["outcome"], r["detail"], r["s"]) for r in chunk)
    records.sort(key=lambda r: (r["key"], -1 if r["s"] is None else r["s"]))
    counterexamples = [r for r in records if r["outcome"] == "fail"]
    summary = {outcome: sum(r["outcome"] == outcome for r in records)
               for outcome in ("pass", "fail", "skip")}
    summary["total"] = len(records)
    config = {name: getattr(cfg, name) for name in cfg._fields} | _IDEAL_CORPUS
    clock.append(time.perf_counter())
    stages = {f"{name}_s": round(end - begin, 6) for name, begin, end
              in zip(("corpus", "classes", "evaluate", "assemble"), clock, clock[1:])}
    # jobs affects only scheduling; keep it with the timing sidecar so that
    # reports are byte-identical regardless of parallelism
    timings = {"wall_seconds": round(clock[-1] - clock[0], 6), "jobs": config.pop("jobs"),
               "instances": len(instances), "classes": len(classes),
               "reevaluated": len(failing), "over_budget": forms.count(None), **stages}
    return VerificationReport(config, records, counterexamples, summary, timings)
