"""The operator symmetriser, ~-equivalence, superselection, SP and IP."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym import casebook as cb
from permsym import hilbert as hb
from permsym import sectors as sec
from permsym import symgroup as sg
from permsym import symmetriser as sym

COIN = hb.AssemblyConfig(2, 2)


def dense_family(fam):
    """E_S, E_A and E_P as dense D x D matrices: the family applied to I."""
    return fam.split(np.eye(fam.config.dim))


def heads_count(config):
    diag = [sum(1 for i in config.letters(k) if i == 0) for k in range(config.dim)]
    return np.diag(np.array(diag, dtype=complex))


def underdetermined_mixture():
    """3/4 |HT><HT| + 1/4 |TH><TH| and its swap conjugate: distinct states
    with the same symmetrisation."""
    ht = hb.basis_state(COIN, (0, 1))
    th = hb.basis_state(COIN, (1, 0))
    w1 = hb.DensityOperator.from_mixture([(0.75, ht), (0.25, th)]).matrix
    w2 = hb.DensityOperator.from_mixture([(0.25, ht), (0.75, th)]).matrix
    return w1, w2


def test_symmetrise_exact_on_basis_projector():
    ht = hb.basis_state(COIN, (0, 1)).projector()
    th = hb.basis_state(COIN, (1, 0)).projector()
    assert np.array_equal(sym.symmetrise(COIN, ht), (ht + th) / 2)


def test_symmetrise_fixes_symmetric_operators():
    q = heads_count(COIN)
    assert np.max(np.abs(sym.symmetrise(COIN, q) - q)) < 1e-15
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    for e in dense_family(fam):
        assert np.max(np.abs(sym.symmetrise(cfg, e) - e)) < 1e-12


def test_symmetrise_is_linear_trace_preserving_positive():
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(17)
    a = hb.random_observable(cfg, rng)
    b = hb.random_observable(cfg, rng)
    lhs = sym.symmetrise(cfg, 2.0 * a - 1j * b)
    rhs = 2.0 * sym.symmetrise(cfg, a) - 1j * sym.symmetrise(cfg, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    w = hb.random_density(cfg, rng)
    sw = sym.symmetrise(cfg, w)
    hb.DensityOperator(cfg, sw)  # still a valid state
    assert abs(np.trace(sw) - np.trace(w)) < 1e-12


def test_symmetrise_output_is_symmetric_and_idempotent():
    cfg = hb.AssemblyConfig(3, 3)
    a = hb.random_observable(cfg, hb.rng_for(2))
    sa = sym.symmetrise(cfg, a)
    assert sym.is_symmetric_operator(cfg, sa, tol=1e-12)
    assert np.max(np.abs(sym.symmetrise(cfg, sa) - sa)) < 1e-12


@dataclass(frozen=True)
class ProjectorOnOperatorsReport:
    """Numerical evidence that Sigma is an HS-orthogonal projector."""

    samples: int
    seed: int
    tolerance: float
    max_idempotence_residual: float
    max_selfadjoint_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.max_idempotence_residual <= self.tolerance
            and self.max_selfadjoint_residual <= self.tolerance
        )


def is_projector_on_operator_space(
    config, samples: int = 20, seed: int = 0, tol: float = hb.EPS_ABS
) -> ProjectorOnOperatorsReport:
    """Check Sigma(Sigma(A)) = Sigma(A) and <Sigma(X), Y> = <X, Sigma(Y)>
    on seeded random operator pairs."""
    rng = hb.rng_for(seed)
    idem = 0.0
    adj = 0.0
    for _ in range(samples):
        x = hb.random_observable(config, rng)
        y = hb.random_observable(config, rng)
        sx = sym.symmetrise(config, x)
        idem = max(idem, float(np.max(np.abs(sym.symmetrise(config, sx) - sx))))
        adj = max(adj, abs(np.vdot(sx, y) - np.vdot(x, sym.symmetrise(config, y))))
    return ProjectorOnOperatorsReport(samples, seed, tol, idem, adj)


def test_projector_on_operator_space_report():
    report = is_projector_on_operator_space(hb.AssemblyConfig(3, 2), samples=10, seed=1)
    assert report.ok
    assert report.max_idempotence_residual <= 1e-10
    assert report.max_selfadjoint_residual <= 1e-10


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_trace_identities_on_random_pairs(seed):
    cfg = hb.AssemblyConfig(2, 3)
    rng = hb.rng_for(seed)
    w = hb.random_density(cfg, rng)
    q = hb.random_observable(cfg, rng)
    assert max(sym.trace_identity_residuals(cfg, w, q)) <= 1e-10


def test_trace_identities_three_slots():
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(40)
    for _ in range(5):
        w = hb.random_density(cfg, rng)
        q = hb.random_observable(cfg, rng)
        assert max(sym.trace_identity_residuals(cfg, w, q)) <= 1e-10


# ---------------------------------------------------------------------------
# ~-equivalence

def test_underdetermined_mixture_is_sim_equivalent_but_distinct():
    w1, w2 = underdetermined_mixture()
    assert np.max(np.abs(w1 - w2)) == pytest.approx(0.5)
    assert sym.sim_equivalent(COIN, w1, w2)
    # equal statistics on symmetric observables, detectably different on
    # a slot-resolving one
    q = heads_count(COIN)
    assert hb.expectation(w1, q) == pytest.approx(hb.expectation(w2, q), abs=1e-12)
    ht_proj = hb.basis_state(COIN, (0, 1)).projector()
    assert abs(hb.expectation(w1, ht_proj) - hb.expectation(w2, ht_proj)) == pytest.approx(0.5)


def test_sim_equivalence_reflexive_and_respects_twirl():
    cfg = hb.AssemblyConfig(3, 2)
    w = hb.random_density(cfg, hb.rng_for(3))
    assert sym.sim_equivalent(cfg, w, w)
    assert sym.sim_equivalent(cfg, w, sym.symmetrise(cfg, w))
    for pi in sg.all_permutations(cfg.n):
        t = hb.perm_operator(cfg, pi)
        assert sym.sim_equivalent(cfg, w, w[np.ix_(t, t)])


def test_two_operand_calls_build_the_pair_orbit_labels_once(monkeypatch):
    # sim_equivalent and trace_identity_residuals symmetrise both operands
    # from one set of labels, and read the same Sigma as symmetrise does
    cfg = hb.AssemblyConfig(4, 3)
    rng = hb.rng_for(5)
    w, q = hb.random_density(cfg, rng), hb.random_observable(cfg, rng)
    sw, sq = sym.symmetrise(cfg, w), sym.symmetrise(cfg, q)
    both = complex(np.sum(sw.T * sq))
    oracle = (abs(complex(np.sum(sw.T * q)) - both), abs(complex(np.sum(w.T * sq)) - both))
    labels = []
    pair_orbit_labels = sym._pair_orbit_labels
    monkeypatch.setattr(sym, "_pair_orbit_labels", lambda config: labels.append(config) or pair_orbit_labels(config))
    assert sym.trace_identity_residuals(cfg, w, q) == oracle
    assert sym.sim_equivalent(cfg, w, sw) and not sym.sim_equivalent(cfg, w, q)
    assert labels == [cfg] * 3


def test_sym_class_membership():
    w1, w2 = underdetermined_mixture()
    assert sym.sim_equivalent(COIN, w1, w2)
    assert sym.sim_equivalent(COIN, w2, w1)
    tt = hb.basis_state(COIN, (1, 1)).projector()
    assert not sym.sim_equivalent(COIN, w1, tt)
    assert not sym.sim_equivalent(COIN, w2, tt)


def test_phase_family_is_one_sim_class():
    """(psi_s + e^{i theta} psi_a)/sqrt(2) all symmetrise to the same state,
    but none of them is ~ to psi_s itself."""
    psi_s, psi_a = cb.symmetry_basis()
    thetas = [0.0, math.pi / 3, math.pi]
    projs = []
    for theta in thetas:
        v = (psi_s + np.exp(1j * theta) * psi_a) / math.sqrt(2)
        projs.append(np.outer(v, v.conj()))
    for a in projs:
        for b in projs:
            assert sym.sim_equivalent(COIN, a, b)
    s_proj = np.outer(psi_s, psi_s.conj())
    for a in projs:
        assert not sym.sim_equivalent(COIN, a, s_proj)


def test_block_truncation_is_sim_equivalent_to_original():
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    rng = hb.rng_for(12)
    for _ in range(4):
        w = hb.random_density(cfg, rng)
        cut = sym.superselect(fam, w)
        assert sym.sim_equivalent(cfg, w, cut)
        hb.DensityOperator(cfg, cut)
        assert np.max(np.abs(sym.superselect(fam, cut) - cut)) < 1e-12
    q = sym.symmetrise(cfg, hb.random_observable(cfg, rng))
    assert np.max(np.abs(sym.superselect(fam, q) - q)) < 1e-12


# ---------------------------------------------------------------------------
# superselection

def test_pinch_preserves_commuting_expectations():
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    rng = hb.rng_for(6)
    w = hb.random_density(cfg, rng)
    pinched = sym.superselect(fam, w)
    hb.DensityOperator(cfg, pinched)
    for _ in range(5):
        q = sym.symmetrise(cfg, hb.random_observable(cfg, rng))
        assert hb.expectation(w, q) == pytest.approx(hb.expectation(pinched, q), abs=1e-10)
    # a non-commuting observable can tell the difference
    probe = hb.basis_state(cfg, (0, 1, 1)).projector() @ dense_family(fam)[0]
    probe = probe + probe.conj().T
    assert abs(hb.expectation(w, probe) - hb.expectation(pinched, probe)) > 1e-4


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_sector_pinch_agrees_with_the_validated_dense_pinch(n, d):
    cfg = hb.AssemblyConfig(n, d)
    fam = sec.SectorProjectors.build(cfg)
    rng = hb.rng_for(100 * n + d)
    for _ in range(3):
        w = hb.random_density(cfg, rng)
        want = sum(e @ w @ e for e in dense_family(fam))
        assert np.max(np.abs(sym.superselect(fam, w) - want)) <= 1e-14


# ---------------------------------------------------------------------------
# SP and IP

def test_sp_accepts_sector_supported_commuting_states():
    fam = sec.SectorProjectors.build(COIN)
    psi_s, psi_a = cb.symmetry_basis()
    hh = hb.basis_state(COIN, (0, 0))
    sym_state = hb.StateVector(COIN, psi_s)
    anti_state = hb.StateVector(COIN, psi_a)
    bose = hb.DensityOperator.from_mixture(
        [(1 / 3, hh), (1 / 3, sym_state), (1 / 3, hb.basis_state(COIN, (1, 1)))]
    )
    assert sym.satisfies_sp(fam, bose.matrix)
    assert sym.satisfies_sp(fam, anti_state.projector())
    mixed = 0.5 * sym_state.projector() + 0.5 * anti_state.projector()
    assert sym.satisfies_sp(fam, mixed)


def test_sp_rejects_support_without_commutation():
    """A coherent superposition across the sectors lives inside their span
    but fails to commute with the swap."""
    fam = sec.SectorProjectors.build(COIN)
    psi_s, psi_a = cb.symmetry_basis()
    v = (psi_s + psi_a) / math.sqrt(2)  # this is |HT> again
    w = np.outer(v, v.conj())
    assert np.max(np.abs(dense_family(fam)[2] @ w)) < 1e-14  # support is fine
    assert not sym.satisfies_sp(fam, w)


def test_sp_rejects_para_support():
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    maximally_mixed = np.eye(cfg.dim, dtype=complex) / cfg.dim
    # commutes with everything, but a quarter of it sits in the para sector
    assert sym.is_symmetric_operator(cfg, maximally_mixed)
    assert not sym.satisfies_sp(fam, maximally_mixed)
    e_s = dense_family(fam)[0]
    bose = e_s / np.trace(e_s).real
    assert sym.satisfies_sp(fam, bose)


def test_ip_against_symmetric_observables_holds_for_any_state():
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(21)
    observables = [
        sym.symmetrise(cfg, hb.random_observable(cfg, rng)) for _ in range(4)
    ]
    for _ in range(4):
        w = hb.random_density(cfg, rng)
        assert sym.satisfies_ip(cfg, w, observables)


def test_ip_depends_on_the_observable_list():
    ht = hb.basis_state(COIN, (0, 1)).projector()
    assert sym.satisfies_ip(COIN, ht, [heads_count(COIN)])
    assert not sym.satisfies_ip(COIN, ht, [ht])


def test_sp_implies_ip_for_arbitrary_observables():
    fam = sec.SectorProjectors.build(COIN)
    rng = hb.rng_for(30)
    observables = [hb.random_observable(COIN, rng) for _ in range(5)]
    w1, _ = underdetermined_mixture()
    bose = sym.symmetrise(COIN, w1)
    assert sym.satisfies_sp(fam, bose)
    assert sym.satisfies_ip(COIN, bose, observables)
    # while the non-symmetric preimage fails IP on the same list
    assert not sym.satisfies_ip(COIN, w1, observables)


# ---------------------------------------------------------------------------
# non-finite input at the library entry points

NAN_MATRIX = np.full((4, 4), np.nan, dtype=complex)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: sym.satisfies_ip(COIN, np.eye(4) / 4, [NAN_MATRIX]),
        lambda: sym.superselect(sec.SectorProjectors.build(COIN), NAN_MATRIX),
        lambda: sec.classify_vector(sec.SectorProjectors.build(COIN), np.full(4, np.nan)),
        lambda: sec.schur_check(NAN_MATRIX, sec.assembly_rays(COIN)),
    ],
    ids=["satisfies_ip", "superselect", "classify_vector", "schur_check"],
)
def test_entry_points_refuse_non_finite_input(entry):
    with pytest.raises(ValueError, match="non-finite"):
        entry()


# ---------------------------------------------------------------------------
# wrong shapes at the library entry points

THREE_COINS = hb.AssemblyConfig(3, 2)


@pytest.mark.parametrize(
    "shape", [(9, 9), (8, 9), (8,)], ids=["square D+1", "D x D+1", "vector"]
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda w: sym.satisfies_sp(sec.SectorProjectors.build(THREE_COINS), w),
        lambda w: sym.superselect(sec.SectorProjectors.build(THREE_COINS), w),
        lambda w: sec.schur_check(w, sec.assembly_rays(THREE_COINS)),
    ],
    ids=["satisfies_sp", "sector_superselect", "schur_check"],
)
def test_entry_points_refuse_wrong_shapes(entry, shape):
    w = hb.rng_for(5).normal(size=shape).astype(complex)
    with pytest.raises(ValueError, match="expected shape"):
        entry(w)


def test_sp_workload_hooks_still_answer():
    # the benchmark tracer wraps SectorProjectors.build as a classmethod,
    # and its sp- workload asks satisfies_sp of a freshly built family
    assert isinstance(vars(sec.SectorProjectors)["build"], classmethod)
    cfg = hb.AssemblyConfig(3, 2)
    mixed = np.eye(cfg.dim, dtype=complex) / cfg.dim
    assert sym.satisfies_sp(sec.SectorProjectors.build(cfg), mixed) is False
