"""The benchmark's three workloads, as seeded rounds of operations.

A round is a generator of operations ``(name, call, check)``.  ``call``
is the program work the benchmark times; ``check`` compares its answer
with :mod:`reference` outside the timed region and returns a list of
problems, or ``FAILED`` for the one known fault kept in the stream.
Inputs are built between operations, so one request is in flight at a
time and only the program's work is timed.  An operation's name says
what work it does, whatever the round: operations of the same name cost
the same in every round (see ``run.median_round``).  Round ``r`` of
seed ``s`` draws everything from ``numpy.random.default_rng([s, r])``: the same
seed gives the same inputs, and no two rounds repeat an input.

``permsym`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys

import numpy as np

import reference as ref
from permsym import cli, hilbert, models, sectors, symmetriser

FAILED = "failed"


def _cli(argv: list[str], stdin: str = ""):
    def call():
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    return call


def _json_answer(check):
    """Check a (code, stdout) answer that must exit 0 with one JSON document."""

    def run(answer):
        code, out = answer
        if code != 0:
            return [f"exit code {code}"]
        return check(json.loads(out))

    return run


def _nd(n: int, d: int) -> list[str]:
    return ["--n", str(n), "--d", str(d)]


# ---------------------------------------------------------------------------
# decompose: the paper's central answer over a ladder of assemblies

LADDER = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2))


def decompose_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    for n, d in LADDER:
        ray_seed = str(int(rng.integers(2**31)))
        argv = ["decompose", *_nd(n, d), "--seed", ray_seed, "--json"]
        check = _json_answer(lambda rep, n=n, d=d: ref.check_decompose(n, d, rep))
        yield f"decompose {n}x{d}", _cli(argv), check


# ---------------------------------------------------------------------------
# queries: many small independent requests

SMALL = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2))
LARGE = ((4, 3), (6, 2), (5, 3))

# (kind, configs, requests per config per round)
QUERY_MIX = (
    ("symmetrise", SMALL, 4),
    ("symmetrise", LARGE, 1),
    ("superselect", SMALL, 3),
    ("superselect", LARGE, 1),
    ("classify-skew", SMALL + LARGE, 2),
    ("classify-boson", SMALL + LARGE, 2),
    ("identities", SMALL, 2),
    ("identities", LARGE[:2], 1),
    ("sp-mixed", ((3, 2), (3, 3), (4, 2), (5, 2)), 2),
    ("sp-boson", SMALL, 2),
    ("ip", SMALL + ((4, 3),), 2),
    ("permutes", ((3,), (4,)), 10),
    ("theory", ((3,), (4,)), 6),
    ("fig3", ((),), 3),
    ("coins", (("bose",), ("maxwell_boltzmann",), ("fermi_dirac",)), 3),
    ("bloch", ((),), 15),
    ("sweep", ((),), 3),
)

NAMES = tuple(f"{c}{k}" for c in "abcdefgh" for k in range(10))

# Requests the command line must refuse with exit code 2.
MALFORMED = (
    (["symmetrise", *_nd(2, 2), "--input", "-"], json.dumps(ref.matrix_obj(np.zeros((3, 3))))),
    (["classify", *_nd(3, 2), "--input", "-"], json.dumps(ref.vector_obj(np.ones(7) / 7**0.5))),
    (["superselect", *_nd(2, 2), "--input", "-"], "[not json"),
    (["model", "--input", "-", "--permutes"], json.dumps({"domain": ["a"], "relations": {"R": {"arity": 1, "tuples": [["z"]]}}})),
    (["decompose", *_nd(0, 2)], ""),
    (["theory", "--input", "-"], json.dumps({"space": [{"domain": ["a"], "relations": {}}], "selection": {"s": [5]}})),
)

# All-NaN inputs, which the command line should refuse with exit code 2
# but accepts today; counted as failed until the validators reject them.
NONFINITE = (
    (["classify", *_nd(2, 2), "--input", "-"], json.dumps(ref.vector_obj(np.full(4, np.nan)))),
    (["symmetrise", *_nd(2, 2), "--input", "-"], json.dumps(ref.matrix_obj(np.full((4, 4), np.nan)))),
    (["superselect", *_nd(2, 2), "--input", "-"], json.dumps(ref.matrix_obj(np.full((4, 4), np.nan)))),
)


def _refused(answer):
    code, out = answer
    return [] if code == 2 and not out else [f"exit code {code}, expected 2"]


def _nonfinite_refused(answer):
    return [] if not _refused(answer) else FAILED


def _random_matrix(dim: int, rng) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_density(dim: int, rng) -> np.ndarray:
    m = _random_matrix(dim, rng)
    w = m @ m.conj().T
    return w / np.trace(w).real


def _random_state(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_domain(size: int, rng) -> tuple[str, ...]:
    return tuple(rng.choice(NAMES, size=size, replace=False).tolist())


def _random_model(domain: tuple[str, ...], rng, avoid: set = frozenset()) -> tuple:
    """A random model that no relabelling fixes and that is not in ``avoid``,
    so that its orbit, and the cost of every request about it, has the
    same size in every round."""
    pairs = list(itertools.product(domain, repeat=2))
    while True:
        rels = {
            "R": (2, [p for p in pairs if rng.random() < 0.5]),
            "P": (1, [(a,) for a in domain if rng.random() < 0.5]),
        }
        key = ref.model_key(domain, rels)
        if key not in avoid and len(ref.orbit(key)) == math.factorial(len(domain)):
            return key


def _model_obj(key: tuple) -> dict:
    domain, rels = key
    return {
        "domain": list(domain),
        "relations": {
            name: {"arity": arity, "tuples": sorted(list(t) for t in tuples)}
            for name, arity, tuples in rels
        },
    }


def _query(kind: str, args: tuple, rng):
    """One request of the given kind: (name, call, check)."""
    name = f"{kind} {'x'.join(map(str, args))}".strip()
    if kind in ("symmetrise", "superselect"):
        n, d = args
        a = _random_matrix(d**n, rng) if kind == "symmetrise" else _random_density(d**n, rng)
        argv = [kind, *_nd(n, d), "--input", "-"]
        check_fn = ref.check_symmetrise if kind == "symmetrise" else ref.check_superselect
        check = _json_answer(lambda obj: check_fn(n, d, a, ref.matrix_from_obj(obj)))
        return name, _cli(argv, json.dumps(ref.matrix_obj(a))), check
    if kind.startswith("classify-"):
        n, d = args
        v = ref.random_symmetric_state(n, d, rng) if kind == "classify-boson" else _random_state(d**n, rng)
        argv = ["classify", *_nd(n, d), "--input", "-"]
        check = _json_answer(lambda rep: ref.check_classify(n, d, v, rep, rep["tolerance"]))
        return name, _cli(argv, json.dumps(ref.vector_obj(v))), check
    if kind == "identities":
        n, d = args
        argv = ["verify-identities", *_nd(n, d), "--samples", "2", "--seed", str(int(rng.integers(2**31)))]
        return name, _cli(argv), _json_answer(lambda rep: ref.check_identities(rep, 2))
    if kind.startswith("sp-"):
        n, d = args
        if kind == "sp-mixed":
            w, want = np.eye(d**n, dtype=complex) / d**n, False  # meets the para sector
        else:
            e_s, _ = ref.occupation_projectors(n, d)
            w, want = e_s / np.trace(e_s).real, True

        def call():
            fam = sectors.SectorProjectors.build(hilbert.AssemblyConfig(n, d))
            return symmetriser.satisfies_sp(fam, w)

        return name, call, lambda got: [] if got is want else [f"satisfies_sp {got}, expected {want}"]
    if kind == "ip":
        n, d = args
        w = _random_density(d**n, rng)
        qs = []
        for _ in range(2):
            h = _random_matrix(d**n, rng)
            qs.append(ref.orbit_average((h + h.conj().T) / 2, n, d))

        def call():
            return symmetriser.satisfies_ip(hilbert.AssemblyConfig(n, d), w, qs)

        return name, call, lambda got: [] if got is True else ["satisfies_ip rejected symmetric observables"]
    if kind == "permutes":
        key = _random_model(_random_domain(args[0], rng), rng)

        def check(obj):
            return ref.check_permutes(key, [ref.key_from_obj(m) for m in obj["models"]])

        argv = ["model", "--input", "-", "--permutes"]
        return name, _cli(argv, json.dumps(_model_obj(key))), _json_answer(check)
    if kind == "theory":
        domain = _random_domain(args[0], rng)
        first = ref.orbit(_random_model(domain, rng))
        space = sorted(first | ref.orbit(_random_model(domain, rng, first)), key=repr)
        order = rng.permutation(len(space)).tolist()
        space = [space[i] for i in order]
        closed = sorted(space.index(m) for m in ref.orbit(space[0]))
        chosen = sorted(rng.choice(len(space), size=min(3, len(space)), replace=False).tolist())
        selection = {"closed": closed, "random": chosen}
        text = json.dumps({"space": [_model_obj(m) for m in space], "selection": selection})
        check = _json_answer(lambda rep: ref.check_gpc(space, selection, rep))
        return name, _cli(["theory", "--input", "-"], text), check
    if kind == "fig3":
        argv = ["fig3", "--seed", str(int(rng.integers(2**31)))]

        def check(rep):
            ok = rep["pass"] is True and all(rep["checks"].values())
            ok = ok and rep["plane_commutant_dimension"] == 1 and rep["orbit_span_rank"] == 2
            return [] if ok else [f"fig3 report {rep}"]

        return name, _cli(argv), _json_answer(check)
    if kind == "coins":
        (measure,) = args
        want = ref.coin_fractions(measure)
        return name, _cli(["coins", "--measure", measure]), _json_answer(
            lambda got: [] if got == want else [f"coins {measure}: {got}, expected {want}"]
        )
    if kind == "bloch":
        while True:
            xi, eta = (complex(*np.round(rng.normal(size=2), 3)) for _ in range(2))
            if abs(xi + eta) > 0.1:
                break
        argv = ["bloch", f"--xi={xi.real}{xi.imag:+}i", f"--eta={eta.real}{eta.imag:+}i"]
        return name, _cli(argv), _json_answer(lambda rep: ref.check_bloch_point(xi, eta, rep))
    if kind == "sweep":
        steps = 7

        def check(answer):
            code, out = answer
            return [f"exit code {code}"] if code else ref.check_bloch_sweep(steps, out)

        return name, _cli(["bloch", "--sweep", str(steps)]), check
    raise ValueError(f"unknown query kind {kind!r}")


def queries_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    specs = [(kind, args) for kind, configs, count in QUERY_MIX for args in configs for _ in range(count)]
    specs += [("malformed", k) for k in range(len(MALFORMED))]
    specs += [("nonfinite", k) for k in range(len(NONFINITE))]
    for i in rng.permutation(len(specs)).tolist():
        kind, args = specs[i]
        if kind == "malformed":
            argv, text = MALFORMED[args]
            yield f"malformed {argv[0]}", _cli(argv, text), _refused
        elif kind == "nonfinite":
            argv, text = NONFINITE[args]
            yield f"non-finite {argv[0]}", _cli(argv, text), _nonfinite_refused
        else:
            yield _query(kind, args, rng)


# ---------------------------------------------------------------------------
# hole: acceptance criterion 10, exhaustive over one binary relation

def _program_key(model) -> tuple:
    return ref.model_key(model.domain, {n: (r.arity, r.tuples) for n, r in model.relations.items()})


def hole_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    for size in (1, 2, 3):
        domain = _random_domain(size, rng)
        pairs = list(itertools.product(domain, repeat=2))
        masks = rng.permutation(2 ** len(pairs)).tolist()
        keys = [ref.model_key(domain, {"R": (2, [p for k, p in enumerate(pairs) if mask >> k & 1])}) for mask in masks]
        space = tuple(
            models.FiniteModel(domain, {"R": models.Relation(2, frozenset(rels[0][2]))})
            for _, rels in keys
        )
        index = {key: i for i, key in enumerate(keys)}
        orbit_of = [sorted(index[m] for m in ref.orbit(key)) for key in keys]
        orbits = sorted({tuple(o) for o in orbit_of})
        fixed = [len(o) == 1 for o in orbit_of]
        seen_classes: set = set()
        fixed_verdicts: list[bool] = []

        for i, model in enumerate(space):

            def call(model=model):
                desc = models.state_description(model)
                return [j for j, x in enumerate(space) if models.satisfies(x, desc)]

            yield f"state description {size}/{masks[i]}", call, lambda got, i=i: ref.check_hits(got, [i], "state description")

        for i, model in enumerate(space):

            def check(got, i=i):
                got = [_program_key(m) for m in got]
                seen_classes.add(frozenset(got))
                problems = ref.check_permutes(keys[i], got)
                if i == len(space) - 1:
                    problems += ref.check_orbit_count(size, len(seen_classes))
                return problems

            yield f"permute class {size}/{masks[i]}", lambda model=model: models.permute_class(model), check

        for members in orbits:
            # The cost of a structure description depends on which member it
            # describes; the least mask picks the same one for every seed.
            rep = min(members, key=masks.__getitem__)

            def call(rep=space[rep]):
                desc = models.structure_description(rep)
                return [j for j, x in enumerate(space) if models.satisfies(x, desc)]

            yield f"structure description {size}/{masks[rep]}", call, lambda got, want=list(members): ref.check_hits(got, want, "structure description")

        for i in range(len(space)):

            def check(report, i=i):
                fixed_verdicts.append(report.fixed)
                problems = _gpc_problems(keys, (i,), report)
                if i == len(space) - 1:
                    problems += ref.check_fixed_count(size, sum(fixed_verdicts), sum(fixed))
                return problems

            yield f"gpc singleton {size}/{masks[i]}", _gpc_call(space, (i,)), check

        for i in range(len(space)):
            selection = tuple(orbit_of[i])
            yield f"gpc orbit {size}/{masks[i]}", _gpc_call(space, selection), lambda report, sel=selection: _gpc_problems(keys, sel, report)


def _gpc_call(space: tuple, selection: tuple[int, ...]):
    return lambda: models.gpc_check(models.Theory(space, {"sel": selection}))


def _gpc_problems(keys: list[tuple], selection: tuple[int, ...], report) -> list[str]:
    rep = {"permutable": report.permutable, "fixity": report.fixed, "gpc_consistent": report.consistent}
    return ref.check_gpc(keys, {"sel": list(selection)}, rep)


WORKLOADS = {"decompose": decompose_round, "queries": queries_round, "hole": hole_round}
