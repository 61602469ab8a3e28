"""Each reference check accepts the program's answer and rejects a
corrupted one; the tracer nests spans and restores what it patched;
every round of a workload names the same operations.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py
"""

import collections
import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import permsym  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from permsym import hilbert, models, symgroup, symmetriser  # noqa: E402
from tracer import Tracer  # noqa: E402


def cli_json(argv, stdin=""):
    code, out = workloads._cli(argv, stdin)()
    assert code == 0
    return json.loads(out)


@pytest.fixture(scope="module")
def report_4x2():
    return cli_json(["decompose", "--n", "4", "--d", "2", "--seed", "3", "--json"])


def test_closed_forms_add_up():
    for n in range(2, 7):
        for d in range(1, 4):
            total = sum(ref.irrep_dimension(s) * ref.schur_at_ones(s, d) for s in ref.partitions(n))
            assert total == d**n  # Schur-Weyl: the isotypic ranks fill the space
        assert sum(size for _, size in ref.conjugacy_classes(n)) == math.factorial(n)
    assert ref.transposition_character((2, 1)) == 0
    assert ref.transposition_character((3,)) == 1


def test_relabelling_reproduces_oeis_counts():
    for size in (1, 2, 3):
        domain = tuple("abc"[:size])
        pairs = [(a, b) for a in domain for b in domain]
        keys = [
            ref.model_key(domain, {"R": (2, [p for k, p in enumerate(pairs) if mask >> k & 1])})
            for mask in range(2 ** len(pairs))
        ]
        orbits = {frozenset(ref.orbit(k)) for k in keys}
        assert ref.check_orbit_count(size, len(orbits)) == []
        assert ref.check_orbit_count(size, len(orbits) + 1) != []
        fixed = sum(len(o) == 1 for o in orbits)
        assert ref.check_fixed_count(size, fixed) == []
        assert ref.check_fixed_count(size, fixed - 1) != []


def test_decompose_check_rejects_a_wrong_rank(report_4x2):
    assert ref.check_decompose(4, 2, report_4x2) == []
    bad = copy.deepcopy(report_4x2)
    bad["ranks"]["para"] += 1
    assert ref.check_decompose(4, 2, bad) != []
    bad = copy.deepcopy(report_4x2)
    comp = next(c for c in bad["components"] if c["partition"] == [3, 1])
    comp["rank"] += comp["irrep_dimension"]
    comp["copies"] += 1
    assert ref.check_decompose(4, 2, bad) != []


def test_decompose_check_rejects_a_ray_rotated_out_of_its_component(report_4x2):
    bad = copy.deepcopy(report_4x2)
    by_shape = {tuple(c["partition"]): c for c in bad["components"]}
    inside = by_shape[(3, 1)]["rays"][0]["vectors"]
    outside = by_shape[(4,)]["rays"][0]["vectors"][0]
    v = ref.vector_from_obj(inside[0])
    u = ref.vector_from_obj(outside)
    inside[0] = ref.vector_obj(math.cos(0.1) * v + math.sin(0.1) * u)
    assert any("leaks" in p for p in ref.check_decompose(4, 2, bad))


def test_decompose_check_rejects_a_mislabelled_ray():
    report = cli_json(["decompose", "--n", "3", "--d", "3", "--json"])
    by_shape = {tuple(c["partition"]): c for c in report["components"]}
    by_shape[(3,)]["rays"], by_shape[(1, 1, 1)]["rays"] = by_shape[(1, 1, 1)]["rays"], by_shape[(3,)]["rays"]
    by_shape[(3,)]["rays"] = by_shape[(3,)]["rays"] * 10  # keep the ray count of (3,)
    assert any("transposition character" in p for p in ref.check_decompose(3, 3, report))


@pytest.mark.parametrize("n,d", [(3, 2), (2, 3), (4, 2)])
def test_symmetrise_check_rejects_a_perturbed_sigma(n, d):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n))
    sigma = symmetriser.symmetrise(hilbert.AssemblyConfig(n, d), a)
    assert ref.check_symmetrise(n, d, a, sigma) == []
    sigma[1, 0] += 1e-8
    assert ref.check_symmetrise(n, d, a, sigma) != []


def test_superselect_and_classify_checks_reject_corruption():
    rng = np.random.default_rng(6)
    n, d = 3, 2
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w = m @ m.conj().T
    w /= np.trace(w).real
    got = ref.matrix_from_obj(cli_json(["superselect", "--n", "3", "--d", "2", "--input", "-"], json.dumps(ref.matrix_obj(w))))
    assert ref.check_superselect(n, d, w, got) == []
    assert ref.check_superselect(n, d, w, w) != []

    for v in (ref.random_symmetric_state(n, d, rng), workloads._random_state(8, rng)):
        rep = cli_json(["classify", "--n", "3", "--d", "2", "--input", "-"], json.dumps(ref.vector_obj(v)))
        assert ref.check_classify(n, d, v, rep, rep["tolerance"]) == []
        bad = copy.deepcopy(rep)
        bad["label"] = "paraparticle"
        assert ref.check_classify(n, d, v, bad, rep["tolerance"]) != []
        bad = copy.deepcopy(rep)
        bad["weights"]["para"] += 1e-8
        assert ref.check_classify(n, d, v, bad, rep["tolerance"]) != []


def test_permutes_check_rejects_a_model_moved_out_of_its_orbit():
    rng = np.random.default_rng(7)
    key = workloads._random_model(("a", "b", "c"), rng)
    got = cli_json(["model", "--input", "-", "--permutes"], json.dumps(workloads._model_obj(key)))
    keys = [ref.key_from_obj(m) for m in got["models"]]
    assert ref.check_permutes(key, keys) == []
    domain, ((name, arity, tuples), *rest) = keys[0]
    flipped = tuples ^ {("a", "a")}
    moved = (domain, ((name, arity, frozenset(flipped)), *rest))
    assert moved not in ref.orbit(key)
    assert ref.check_permutes(key, [moved] + keys[1:]) != []


def test_hole_checks_reject_wrong_verdicts():
    domain = ("a", "b")
    keys = [ref.model_key(domain, {"R": (2, t)}) for t in ([], [("a", "b")], [("b", "a")])]
    space = tuple(models.FiniteModel(domain, {"R": models.Relation(2, frozenset(k[1][0][2]))}) for k in keys)
    desc = models.structure_description(space[1])
    hits = [j for j, x in enumerate(space) if models.satisfies(x, desc)]
    assert ref.check_hits(hits, [1, 2], "structure") == []
    assert ref.check_hits([1], [1, 2], "structure") != []

    for selection in ({"s": [0]}, {"s": [1]}, {"s": [1, 2]}):
        report = models.gpc_check(models.Theory(space, {k: tuple(v) for k, v in selection.items()}))
        rep = {"permutable": report.permutable, "fixity": report.fixed, "gpc_consistent": report.consistent}
        assert ref.check_gpc(keys, selection, rep) == []
        assert ref.check_gpc(keys, selection, dict(rep, fixity=not rep["fixity"])) != []


def test_small_answer_checks_reject_corruption():
    for measure in ("bose", "maxwell_boltzmann", "fermi_dirac"):
        got = cli_json(["coins", "--measure", measure])
        assert got == ref.coin_fractions(measure)
        assert dict(got, HH="1/2") != ref.coin_fractions(measure)

    rep = cli_json(["bloch", "--xi=0.3-1.2i", "--eta=-0.5+0.25i"])
    assert ref.check_bloch_point(0.3 - 1.2j, -0.5 + 0.25j, rep) == []
    assert ref.check_bloch_point(0.3 - 1.2j, -0.5 + 0.25j, dict(rep, p=rep["p"] + 1e-9)) != []

    code, out = workloads._cli(["bloch", "--sweep", "5"])()
    assert code == 0 and ref.check_bloch_sweep(5, out) == []
    lines = out.splitlines()
    cells = lines[7].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)
    lines[7] = ",".join(cells)
    assert ref.check_bloch_sweep(5, "\n".join(lines)) != []

    rep = cli_json(["verify-identities", "--n", "3", "--d", "2", "--samples", "2"])
    assert ref.check_identities(rep, 2) == []
    assert ref.check_identities(dict(rep, max_residual_a=1.0), 2) != []


def test_malformed_and_nonfinite_requests_are_classified():
    for argv, text in workloads.MALFORMED:
        assert workloads._refused(workloads._cli(argv, text)()) == []
    # all-NaN inputs are accepted today; the benchmark counts them as failed
    for argv, text in workloads.NONFINITE:
        assert workloads._nonfinite_refused(workloads._cli(argv, text)()) in ([], workloads.FAILED)
    assert workloads._nonfinite_refused((0, "{}")) == workloads.FAILED
    assert workloads._nonfinite_refused((2, "")) == []


def test_tracer_nests_spans_and_restores_the_package():
    original_build = vars(permsym.sectors.SectorProjectors)["build"]
    original_perm_operator = hilbert.perm_operator
    tracer = Tracer(permsym)
    tracer.install()
    try:
        lo = tracer.mark()
        permsym.sectors.SectorProjectors.build(hilbert.AssemblyConfig(3, 2))
        hi = tracer.mark()
    finally:
        tracer.uninstall()
    assert hilbert.perm_operator is original_perm_operator
    assert vars(permsym.sectors.SectorProjectors)["build"] is original_build

    labels = [tracer.labels[tracer.name[i]] for i in range(lo, hi)]
    assert labels[0] == "sectors.SectorProjectors.build" and tracer.parent[lo] == -1
    # E_S and E_A each enumerate S_3 and build its six index maps
    assert labels.count("hilbert.perm_operator") == 12
    for i in range(lo + 1, hi):
        p = tracer.parent[i]
        assert lo <= p < i and tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    metrics = tracer.layer_metrics(lo, hi)
    assert metrics["hilbert.perm_operator.calls"] == 12
    assert metrics["hilbert.perm_operator.rebuild_ratio"] == 2.0
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= tracer.end[lo] - tracer.start[lo] + 1e-9
    assert symgroup.all_permutations(3)  # the original still works after uninstall


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_name_the_same_operations(workload):
    def names(seed, r):
        return collections.Counter(name for name, _, _ in workloads.WORKLOADS[workload](seed, r))

    first = names(1, 0)
    assert names(1, 1) == first and names(2, 0) == first


def test_median_round_takes_each_operation_at_its_median():
    rounds = [{"a": 1.0, "b": 5.0}, {"a": 2.0, "b": 4.0}, {"b": 9.0, "a": 1.5}]
    assert run.median_round(rounds) == 6.5
    with pytest.raises(RuntimeError):
        run.median_round([{"a": 1.0}, {"b": 1.0}])
