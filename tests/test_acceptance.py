"""Acceptance suite: one test per advertised guarantee.

Each test prints a single "acceptance NN <name>: PASS|FAIL" line (visible
under pytest -s) and asserts it.  Tolerances are pinned here, not
imported, so a drive-by change to package defaults cannot silently
weaken the gate.  Three tests also carry wall-clock budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np

from permsym import casebook as cb
from permsym import hilbert as hb
from permsym import models as md
from permsym import sectors as sec
from permsym import symgroup as sg
from permsym import symmetriser as sym

TOL_TRACE = 1e-10
TOL_RANK = 1e-8
TOL_BLOCH = 1e-12


def dense_family(fam):
    """E_S, E_A and E_P as dense D x D matrices: the family applied to I."""
    return fam.split(np.eye(fam.config.dim))


def _report(num: int, name: str, ok: bool) -> None:
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_01_sector_dimensions():
    start = time.perf_counter()
    ok = True
    for d in (2, 3, 4):
        fam = sec.SectorProjectors.build(hb.AssemblyConfig(2, d))
        want = (d * (d + 1) // 2, d * (d - 1) // 2)
        ok = ok and fam.ranks()[:2] == want
        # independent route: the dense E_S and E_A have spectra in {0, 1}
        for proj, rank in zip(dense_family(fam), want):
            eigs = np.linalg.eigvalsh(proj)
            off = float(np.min(np.abs(np.stack([eigs, eigs - 1.0])), axis=0).max())
            ok = ok and off <= TOL_RANK and int(np.sum(eigs > 0.5)) == rank
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"pair sector ranks d(d+1)/2, d(d-1)/2 ({elapsed:.2f}s)", ok)


def test_criterion_02_two_particle_completeness():
    ok = True
    for d in (2, 3, 4):
        fam = sec.SectorProjectors.build(hb.AssemblyConfig(2, d))
        ok = ok and float(np.max(np.abs(dense_family(fam)[2]))) <= TOL_RANK
    fam3 = sec.SectorProjectors.build(hb.AssemblyConfig(3, 2))
    ok = ok and fam3.ranks() == (4, 0, 4)
    # brute-force confirmation by two independent rank routes
    for proj, want in zip(dense_family(fam3), (4, 0, 4)):
        eig_count = int(np.sum(np.linalg.eigvalsh(proj) > 0.5))
        svd_rank = int(np.linalg.matrix_rank(proj, tol=TOL_RANK))
        ok = ok and eig_count == want and svd_rank == want
    _report(2, "no para sector for pairs; (4, 0, 4) for three coins", ok)


def test_criterion_03_trace_identities():
    start = time.perf_counter()
    worst = 0.0
    for n, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        config = hb.AssemblyConfig(n, d)
        rng = hb.rng_for(1000 * n + d)
        for _ in range(100):
            w = hb.random_density(config, rng)
            q = hb.random_observable(config, rng)
            worst = max(worst, *sym.trace_identity_residuals(config, w, q))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL_TRACE and elapsed < 30.0
    _report(3, f"trace identities, residual {worst:.1e} ({elapsed:.1f}s)", ok)


def test_criterion_04_superselection_no_signalling():
    config = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(config)
    rng = hb.rng_for(404)
    worst = 0.0
    for _ in range(100):
        w = hb.random_density(config, rng)
        q = sym.symmetrise(config, hb.random_observable(config, rng))
        pinched = sym.superselect(fam, w)
        worst = max(worst, abs(hb.expectation(w, q) - hb.expectation(pinched, q)))
    _report(4, f"pinching is invisible to symmetric quantities ({worst:.1e})", worst <= TOL_TRACE)


def test_criterion_05_coin_statistics_exact():
    bose = cb.coin_statistics("bose").as_dict()
    mb = cb.coin_statistics("maxwell_boltzmann").as_dict()
    ok = bose == {
        "HH": Fraction(1, 3),
        "mixed": Fraction(1, 3),
        "TT": Fraction(1, 3),
    }
    ok = ok and mb == {
        "HH": Fraction(1, 4),
        "HT": Fraction(1, 4),
        "TH": Fraction(1, 4),
        "TT": Fraction(1, 4),
    }
    _report(5, "bose 1/3 each, maxwell_boltzmann 1/4 each, exact", ok)


def test_criterion_06_bloch_geometry():
    rng = hb.rng_for(606)
    worst = 0.0
    for _ in range(1000):
        re = rng.normal(size=4)
        xi = complex(re[0], re[1])
        eta = complex(re[2], re[3])
        if abs(xi) + abs(eta) < 1e-6:
            continue
        pt = cb.bloch_point(xi, eta)
        if pt.z is not None:
            worst = max(worst, abs(pt.p - 1.0 / (1.0 + abs(pt.z) ** 2)))
        worst = max(worst, abs(abs(pt.q) ** 2 - pt.p * (1.0 - pt.p)))
    ok = worst <= TOL_BLOCH
    p = 0.37
    r = math.sqrt(p * (1.0 - p))
    for _ in range(100):
        phis = rng.uniform(0.0, 2.0 * math.pi, size=2)
        radii = r * np.sqrt(rng.uniform(0.0, 1.0, size=2))
        a = cb.bloch_density(p, radii[0] * complex(math.cos(phis[0]), math.sin(phis[0])))
        b = cb.bloch_density(p, radii[1] * complex(math.cos(phis[1]), math.sin(phis[1])))
        ok = ok and cb.bloch_slice_equivalent(a, b)
    _report(6, f"ball coordinates and slice equivalence ({worst:.1e})", ok)


def test_criterion_07_three_coin_plane():
    report = cb.fig3_analysis(seed=0, tol=TOL_TRACE)
    ok = report.ok and all(report.checks.values()) and len(report.checks) == 5
    _report(7, "three-coin plane certificate, all five checks", ok)


def test_criterion_08_schur_scalars():
    config = hb.AssemblyConfig(3, 2)
    rays = sec.assembly_rays(config)
    rng = hb.rng_for(808)
    ok = True
    for _ in range(20):
        q = sym.symmetrise(config, hb.random_observable(config, rng))
        report = sec.schur_check(q, rays, tol=TOL_TRACE)
        ok = ok and report.max_residual <= TOL_TRACE
        for scalar, ray in zip(report.scalars, rays):
            for _ in range(10):
                c = rng.normal(size=ray.dim) + 1j * rng.normal(size=ray.dim)
                u = ray.basis @ (c / np.linalg.norm(c))
                val = hb.real_expectation(complex(u.conj() @ q @ u))
                ok = ok and abs(val - scalar) <= TOL_TRACE
    _report(8, "symmetric observables are scalar on each generalised ray", ok)


def test_criterion_09_underdetermination_witnesses():
    # (a) UnderdetMix: a lopsided two-coin mixture and its swap image
    coin = hb.AssemblyConfig(2, 2)
    ht = hb.basis_state(coin, (0, 1))
    th = hb.basis_state(coin, (1, 0))
    w = hb.DensityOperator.from_mixture([(0.75, ht), (0.25, th)]).matrix
    swap = hb.perm_operator(coin, sg.from_cycles(2, [(1, 2)]))
    moved = w[np.ix_(swap, swap)]  # P w P^dagger: the swap is its own inverse
    ok = float(np.max(np.abs(w - moved))) > 0.4
    ok = ok and sym.sim_equivalent(coin, w, moved, tol=TOL_TRACE)

    # (b) UnderdetPure: a paraparticle ray moved by a swap, inside a
    # generalised ray that is one ~-class
    config = hb.AssemblyConfig(3, 2)
    e_aab = hb.basis_state(config, (0, 0, 1)).amplitudes
    e_aba = hb.basis_state(config, (0, 1, 0)).amplitudes
    e_baa = hb.basis_state(config, (1, 0, 0)).amplitudes
    u = (e_aab - e_aba) / math.sqrt(2)
    v = (e_aab + e_aba - 2 * e_baa) / math.sqrt(6)
    fam = sec.SectorProjectors.build(config)
    ok = ok and sec.classify_vector(fam, u).label == "paraparticle"
    swap12 = hb.perm_operator(config, sg.from_cycles(3, [(1, 2)]))
    overlap = abs(complex(u.conj() @ u[swap12]))
    ok = ok and overlap < 0.9  # moved off its ray, not just rephased
    plane = np.stack([u, v], axis=1)
    ok = ok and sec.invariance_residual(config, plane) <= TOL_TRACE
    # every unit vector of the plane shares one symmetrisation: the
    # normalized plane projector
    plane_proj = plane @ plane.conj().T
    rng = hb.rng_for(909)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = plane @ (c / np.linalg.norm(c))
        sigma = sym.symmetrise(config, np.outer(x, x.conj()))
        ok = ok and float(np.max(np.abs(sigma - plane_proj / 2.0))) <= TOL_TRACE
    _report(9, "underdetermination witnesses, mixed and pure", ok)


def test_criterion_10_hole_argument_for_sets():
    start = time.perf_counter()
    ok = True

    for size in (1, 2, 3):
        domain = tuple("abc"[:size])
        space = list(md.enumerate_models(domain, {"R": 2}))
        ok = ok and len(space) == 2 ** (size * size)
        perms = sg.all_permutations(size)
        order = math.factorial(size)

        # categoricity: each state description picks out exactly its model
        for m in space:
            desc = md.state_description(m)
            hits = [x for x in space if md.satisfies(x, desc)]
            ok = ok and hits == [m]

        # orbits: partition the space, sizes divide n!
        orbits: dict = {}
        for m in space:
            cls = tuple(md.permute_class(m))
            orbits.setdefault(cls, []).append(m)
        ok = ok and sum(len(cls) for cls in orbits) == len(space)
        for cls in orbits:
            ok = ok and order % len(cls) == 0

        # structure descriptions: satisfied by exactly the permute class.
        # One representative per orbit is exhaustive: permutes share their
        # description up to bound-variable renaming.
        for cls in orbits:
            desc = md.structure_description(cls[0])
            hits = {x for x in space if md.satisfies(x, desc)}
            ok = ok and hits == set(cls)

        # GPC: fixity implies permutability on generated theories
        full = tuple(space)
        for i, m in enumerate(space):
            singleton = md.gpc_check(md.Theory(full, {"sel": (i,)}))
            ok = ok and singleton.consistent
            ok = ok and singleton.fixed == md.is_fully_symmetric_model(m)
            orbit_sel = tuple(space.index(x) for x in md.permute_class(m))
            closed = md.gpc_check(md.Theory(full, {"sel": orbit_sel}))
            ok = ok and closed.permutable and closed.consistent

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(10, f"state/structure descriptions and GPC, exhaustive ({elapsed:.1f}s)", ok)


def test_criterion_11_sp_ip_predicates():
    config = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(config)
    ok = not sym.satisfies_sp(fam, np.eye(config.dim, dtype=complex) / config.dim)
    e_s = dense_family(fam)[0]
    boson = e_s / np.trace(e_s).real
    ok = ok and sym.satisfies_sp(fam, boson)
    coin = hb.AssemblyConfig(2, 2)
    coin_fam = sec.SectorProjectors.build(coin)
    psi_s, psi_a = cb.symmetry_basis()
    both = 0.5 * np.outer(psi_s, psi_s.conj()) + 0.5 * np.outer(psi_a, psi_a.conj())
    ok = ok and sym.satisfies_sp(coin_fam, both)

    rng = hb.rng_for(1111)
    symmetric_qs = [sym.symmetrise(coin, hb.random_observable(coin, rng)) for _ in range(5)]
    for _ in range(5):
        ok = ok and sym.satisfies_ip(coin, hb.random_density(coin, rng), symmetric_qs)
    ht_proj = hb.basis_state(coin, (0, 1)).projector()
    ok = ok and not sym.satisfies_ip(coin, ht_proj, [ht_proj])
    _report(11, "SP rejects I/D and accepts sector mixtures; IP as advertised", ok)
