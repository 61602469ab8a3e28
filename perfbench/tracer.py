"""Outside-in tracing of permsym's layers.

``Tracer.install`` replaces every public function defined in the traced
modules, and ``SectorProjectors.build``, by a wrapper that records one
span: the function, the span open when it was called, and its start and
end.  The modules call each other through module attributes, so internal
calls are caught too; ``uninstall`` puts the originals back.  Functions
behind ``functools.lru_cache`` are not plain functions and stay
unwrapped.

Spans live in flat arrays until the run ends.  ``layer_metrics`` turns
the spans of one round into calls and self time per function, where self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("symgroup", "hilbert", "sectors", "symmetriser", "models", "casebook", "cli")
JSON_FORMS = ("matrix_obj", "matrix_to_json", "matrix_from_json", "vector_obj", "vector_to_json", "vector_from_json")
OVERHEAD = "tracer.overhead"

# functions whose calls, and whose self time, are reported per layer
CALLS = (
    "symgroup.all_permutations",
    "hilbert.perm_operator",
    "hilbert.group_average",
    "sectors.SectorProjectors.build",
    "symmetriser.symmetrise",
    "models.satisfies",
    "models.apply_perm",
    "cli.run",
)
SELF_TIMES = (
    "symgroup.all_permutations",
    "hilbert.perm_operator",
    "hilbert.group_average",
    "sectors.SectorProjectors.build",
    "sectors.sym_projector",
    "sectors.antisym_projector",
    "sectors.isotypic_projector",
    "sectors.projector_rank",
    "sectors.generalised_rays",
    "sectors.invariance_residual",
    "sectors.compressed_commutant_dimension",
    "sectors.classify_vector",
    "symmetriser.verify_identity_a",
    "symmetriser.verify_identity_b",
    "symmetriser.superselect",
    "symmetriser.satisfies_sp",
    "symmetriser.satisfies_ip",
    "models.satisfies",
    "models.permute_class",
    "models.gpc_check",
    "models.state_description",
    "models.structure_description",
    "casebook.fig3_analysis",
    "casebook.coin_statistics",
    "casebook.bloch_sweep",
    "cli.run",
)


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.labels: list[str] = []
        self.label_id: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.open: list[int] = []
        self.perm_keys: dict[int, tuple] = {}
        self.json_bytes: dict[int, int] = {}
        self.originals: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for short in MODULES:
            module = getattr(self.package, short)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                label = f"{short}.{attr}"
                after = None
                if label == "hilbert.perm_operator":
                    after = self._perm_key
                elif short == "hilbert" and attr in JSON_FORMS:
                    after = self._json_size
                self._patch(module, attr, self._wrap(label, fn, after))
        build = vars(self.package.sectors.SectorProjectors)["build"]
        wrapped = self._wrap("sectors.SectorProjectors.build", build.__func__, None)
        self._patch(self.package.sectors.SectorProjectors, "build", classmethod(wrapped))

    def uninstall(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self.originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _id(self, label: str) -> int:
        if label not in self.label_id:
            self.label_id[label] = len(self.labels)
            self.labels.append(label)
        return self.label_id[label]

    def _wrap(self, label: str, fn, after):
        nid = self._id(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        return wrapper

    def _perm_key(self, i: int, args, result) -> None:
        config, perm = args[0], args[1]
        self.perm_keys[i] = (config.n, config.d, perm.images)

    def _json_size(self, i: int, args, result) -> None:
        """Characters of matrix/vector JSON in or out, counted once at the
        outermost JSON form.  Sizing a *_obj result means serialising it;
        that time is booked to a child span of the caller, so it leaves the
        caller's self time."""
        p = self.parent[i]
        if p >= 0 and self.labels[self.name[p]].split(".")[-1] in JSON_FORMS:
            return
        label = self.labels[self.name[i]]
        if label.endswith("_from_json"):
            self.json_bytes[i] = len(args[0])
        elif label.endswith("_to_json"):
            self.json_bytes[i] = len(result)
        else:
            t0 = time.perf_counter()
            self.json_bytes[i] = len(json.dumps(result))
            self.name.append(self._id(OVERHEAD))
            self.parent.append(p)
            self.start.append(t0)
            self.end.append(time.perf_counter())

    # -- reading ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; rounds are the spans between two marks."""
        return len(self.start)

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans lo..hi-1 (one round)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i in range(lo, hi):
            label = self.labels[self.name[i]]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - child[i - lo]

        rays = self.label_id.get("sectors.generalised_rays")
        draw = self.label_id.get("hilbert.random_observable")
        attempts = sum(
            1 for i in range(lo, hi) if self.name[i] == draw and self.parent[i] >= 0 and self.name[self.parent[i]] == rays
        )
        keys = {k for i, k in self.perm_keys.items() if lo <= i < hi}
        built = calls["hilbert.perm_operator"]

        out: dict[str, float] = {}
        for label in CALLS:
            out[f"{label}.calls"] = calls[label]
        for label in SELF_TIMES:
            out[f"{label}.self_s"] = self_s[label]
        out["hilbert.perm_operator.rebuild_ratio"] = built / len(keys) if keys else 0.0
        out["hilbert.json.self_s"] = sum(self_s[f"hilbert.{f}"] for f in JSON_FORMS)
        out["hilbert.json.bytes"] = sum(b for i, b in self.json_bytes.items() if lo <= i < hi)
        out["sectors.generalised_rays.attempts"] = attempts
        return out


def per_layer_units(sample: dict[str, float]):
    """(name, unit) for each metric of ``layer_metrics``."""
    for name in sample:
        if name.endswith(".self_s"):
            yield name, "s"
        elif name.endswith(".bytes"):
            yield name, "bytes"
        elif name.endswith(".rebuild_ratio"):
            yield name, "ratio"
        else:
            yield name, "count"
