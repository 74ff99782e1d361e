"""Span tracing of coxcheck's layers from outside the package.

`SpanTracer` replaces public functions by timing wrappers in every coxcheck
module that imported them, so callers that look the name up at call time
go through the wrapper.  `CallCounter` wraps `BeliefStructure` methods to
count enumeration passes and lookups; it runs in a pass of its own because
a wrapper around a method called millions of times would distort every
span around it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("cli", "conditions", "core", "files", "forms", "generators", "isomorphism")

# (module, attribute, span name, result probe)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("files", "parse_structure", "files.parse", None),
    ("forms", "extract_negation", "forms.extract_negation", None),
    ("forms", "extract_combination", "forms.extract_combination",
     lambda res: {"f_table_size": len(res.table)} if hasattr(res, "table") else {}),
    ("conditions", "check_bounds", "conditions.check_bounds", None),
    ("conditions", "chain_consistency", "conditions.chain_consistency",
     lambda res: {"instances": res.instances}),
    ("conditions", "bel_level_negation", "conditions.bel_level_negation", None),
    ("conditions", "par5_gap", "conditions.par5_gap", None),
    ("conditions", "audit", "conditions.audit", None),
    ("conditions", "par5_family", "conditions.par5_family", None),
    ("conditions", "par5_triples", "conditions.par5_triples",
     lambda res: {"tried": res.candidates_tried, "hit": int(res.passed)}),
    ("generators", "build_family", "generators.build_family", None),
    ("isomorphism", "decide", "isomorphism.decide", None),
    ("isomorphism", "refutation_search", "isomorphism.refutation_search", None),
    ("isomorphism", "verify_witness", "isomorphism.verify_witness",
     lambda res: {"passed": int(res.passed)}),
    ("isomorphism", "minimize", "isomorphism.minimize",
     lambda res: {"nit": int(res.nit), "nfev": int(res.nfev)}),
]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    input_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _modules():
    return [importlib.import_module(f"coxcheck.{m}") for m in MODULES]


class _Patcher:
    def __init__(self):
        self._saved = []

    def replace(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def restore(self):
        for owner, name, old in reversed(self._saved):
            setattr(owner, name, old)
        self._saved.clear()


class SpanTracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.input_id = ""
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def _wrap(self, fn, name, probe):
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, self.input_id, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "files.parse" and args:
                span.attrs["bytes"] = len(args[0])
            if probe is not None:
                span.attrs.update(probe(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = {m.__name__.rsplit(".", 1)[1]: m for m in _modules()}
        for mod_name, attr, span_name, probe in TRACED:
            original = getattr(modules[mod_name], attr)
            wrapper = self._wrap(original, span_name, probe)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patcher.replace(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "input": s.input_id, "start": s.start,
                                     "end": s.end, **s.attrs}) + "\n")


class CallCounter:
    """Per-input counts of BeliefStructure enumeration passes and lookups."""

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.input_id = ""
        self._patcher = _Patcher()

    def _counting(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[self.input_id][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _attained(self, fn):
        def wrapper(*args, **kwargs):
            values = fn(*args, **kwargs)
            per_input = self.counts[self.input_id]
            per_input["attained_values"] = max(per_input["attained_values"], len(values))
            return values
        return wrapper

    def __enter__(self):
        from coxcheck.core import BeliefStructure

        for attr, key in (("canonical_pair_masks", "pair_passes"),
                          ("canonical_triple_masks", "triple_passes"),
                          ("bel_masks", "bel_lookups")):
            self._patcher.replace(BeliefStructure, attr,
                                  self._counting(getattr(BeliefStructure, attr), key))
        self._patcher.replace(BeliefStructure, "attained",
                              self._attained(BeliefStructure.attained))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_total[s.id] for s in spans}
