"""Worked examples: coin statistics, the symmetry Bloch ball, the
three-coin plane, and the toy selection theories."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym import casebook as cb
from permsym import hilbert as hb
from permsym import models as md
from permsym import sectors as sec
from permsym import symgroup as sg
from permsym import symmetriser as sym

finite = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def test_coin_statistics_exact_fractions():
    bose = sg.coin_statistics("bose")
    assert bose.as_dict() == {
        "HH": Fraction(1, 3),
        "mixed": Fraction(1, 3),
        "TT": Fraction(1, 3),
    }
    mb = sg.coin_statistics("maxwell_boltzmann")
    assert mb.outcomes == ("HH", "HT", "TH", "TT")
    assert set(mb.probabilities) == {Fraction(1, 4)}
    fd = sg.coin_statistics("fermi_dirac")
    assert fd.as_dict() == {
        "HH": Fraction(0),
        "mixed": Fraction(1),
        "TT": Fraction(0),
    }
    for m in sg.COIN_MEASURES:
        assert sum(sg.coin_statistics(m).probabilities, Fraction(0)) == 1
    with pytest.raises(ValueError):
        sg.coin_statistics("boltzmann_brain")


def test_bose_statistics_from_the_state_space():
    """The 1/3 for "one of each" comes out of the actual three-state
    uniform mixture, not just the resolution count."""
    psi_s, _ = cb.symmetry_basis()
    hh = hb.basis_state(cb.COIN, (0, 0))
    tt = hb.basis_state(cb.COIN, (1, 1))
    w = hb.DensityOperator.from_mixture(
        [(1 / 3, hh), (1 / 3, hb.StateVector(cb.COIN, psi_s)), (1 / 3, tt)]
    )
    outcomes = {
        "HH": hh.projector(),
        "mixed": np.outer(psi_s, psi_s.conj()),
        "TT": tt.projector(),
    }
    for name, proj in outcomes.items():
        got = hb.expectation(w, proj)
        assert got == pytest.approx(1 / 3, abs=1e-14), name


def test_fermi_statistics_from_the_antisymmetric_state():
    _, psi_a = cb.symmetry_basis()
    w = np.outer(psi_a, psi_a.conj())
    hh = hb.basis_state(cb.COIN, (0, 0)).projector()
    # the "one of each" outcome is the whole span{|HT>, |TH>}
    ht = hb.basis_state(cb.COIN, (0, 1)).projector()
    th = hb.basis_state(cb.COIN, (1, 0)).projector()
    assert hb.expectation(w, ht + th) == pytest.approx(1.0, abs=1e-14)
    assert hb.expectation(w, hh) == pytest.approx(0.0, abs=1e-14)


def test_symmetry_basis_geometry():
    psi_s, psi_a = cb.symmetry_basis()
    assert np.linalg.norm(psi_s) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(psi_a) == pytest.approx(1.0, abs=1e-15)
    assert abs(psi_s.conj() @ psi_a) < 1e-15
    swap = hb.perm_operator(cb.COIN, sg.from_cycles(2, [(1, 2)]))
    assert np.max(np.abs(psi_s[swap] - psi_s)) < 1e-15
    assert np.max(np.abs(psi_a[swap] + psi_a)) < 1e-15


# ---------------------------------------------------------------------------
# the Bloch ball in ratio coordinates

def test_bloch_point_landmarks():
    ht = cb.bloch_point(1.0, 0.0)
    assert ht.z == 1.0 and ht.p == pytest.approx(0.5) and ht.q == pytest.approx(0.5)
    assert ht.height == pytest.approx(1.0)
    north = cb.bloch_point(1.0, 1.0)
    assert north.z == 0.0 and north.p == pytest.approx(1.0) and north.q == 0.0
    assert north.height == pytest.approx(2.0)
    south = cb.bloch_point(1.0, -1.0)
    assert south.is_infinite and south.z is None
    assert south.p == 0.0 and south.height == 0.0
    with pytest.raises(ValueError):
        cb.bloch_point(0.0, 0.0)


def test_bloch_point_refuses_non_finite_amplitudes():
    for xi, eta in ((math.nan, 1.0), (1.0, complex(0, math.nan)), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            cb.bloch_point(xi, eta)


def test_bloch_point_is_scale_invariant():
    a = cb.bloch_point(2.0 + 1.0j, -0.5j)
    b = cb.bloch_point((2.0 + 1.0j) * (3.0 - 4.0j), -0.5j * (3.0 - 4.0j))
    assert a.z == pytest.approx(b.z, abs=1e-12)
    assert a.p == pytest.approx(b.p, abs=1e-12)
    assert a.q == pytest.approx(b.q, abs=1e-12)


@given(finite, finite, finite, finite)
def test_pure_points_lie_on_the_unit_sphere(xr, xi, er, ei):
    xi_c = complex(xr, xi)
    eta_c = complex(er, ei)
    if abs(xi_c) + abs(eta_c) < 1e-3:
        return
    pt = cb.bloch_point(xi_c, eta_c)
    x, y, h = 2 * pt.q.real, 2 * pt.q.imag, pt.height
    assert x * x + y * y + (h - 1.0) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_phase_family_walks_the_equator():
    psi_s, psi_a = cb.symmetry_basis()
    for theta in (0.0, math.pi / 3, math.pi):
        w = math.e ** (1j * theta)
        pt = cb.bloch_point(1 + w, 1 - w)  # psi_s + w psi_a in ratio form
        assert pt.z == pytest.approx(w, abs=1e-12)
        assert pt.p == pytest.approx(0.5, abs=1e-12)
        assert abs(pt.q) == pytest.approx(0.5, abs=1e-12)


def test_bloch_density_validation_and_flags():
    center = cb.bloch_density(0.5, 0.0)
    assert center.symmetric and not center.pure
    sphere = cb.bloch_density(0.5, 0.5j)
    assert sphere.pure and not sphere.symmetric
    pole = cb.bloch_density(1.0, 0.0)
    assert pole.pure and pole.symmetric
    with pytest.raises(ValueError):
        cb.bloch_density(1.2, 0.0)
    with pytest.raises(ValueError):
        cb.bloch_density(0.5, 0.6)  # outside the ball


def test_point_state_matches_projector():
    pt = cb.bloch_point(3.0, 1.0 - 2.0j)
    state = cb.point_state(pt)
    assert state.pure
    psi_s, psi_a = cb.symmetry_basis()
    xi, eta = 3.0, 1.0 - 2.0j
    v = xi * hb.basis_state(cb.COIN, (0, 1)).amplitudes + eta * hb.basis_state(
        cb.COIN, (1, 0)
    ).amplitudes
    v = v / np.linalg.norm(v)
    assert np.max(np.abs(cb.embed_coin_state(state) - np.outer(v, v.conj()))) < 1e-12


def test_embedded_states_are_valid_densities():
    for p, q in [(0.5, 0.5), (0.5, 0.0), (0.25, 0.25j), (1.0, 0.0), (0.0, 0.0)]:
        full = cb.embed_coin_state(cb.bloch_density(p, q))
        hb.DensityOperator(cb.COIN, full)


def test_slice_expectations_read_the_diameter():
    state = cb.bloch_density(0.7, 0.2j)
    e_s, e_a = cb.slice_expectations(state)
    assert e_s == pytest.approx(0.7) and e_a == pytest.approx(0.3)


def test_vertical_fibers_collapse_to_the_diameter():
    """States with the same height are indistinguishable by symmetric
    observables, whatever their coherence q."""
    a = cb.bloch_density(0.5, 0.5)
    b = cb.bloch_density(0.5, -0.5j)
    c = cb.bloch_density(0.5, 0.0)
    assert cb.bloch_slice_equivalent(a, b)
    assert cb.bloch_slice_equivalent(a, c)
    assert not cb.bloch_slice_equivalent(a, cb.bloch_density(0.6, 0.0))
    # the full-space symmetriser agrees
    assert sym.sim_equivalent(cb.COIN, cb.embed_coin_state(a), cb.embed_coin_state(b))
    assert sym.sim_equivalent(cb.COIN, cb.embed_coin_state(a), cb.embed_coin_state(c))
    assert not sym.sim_equivalent(
        cb.COIN, cb.embed_coin_state(a), cb.embed_coin_state(cb.bloch_density(0.6, 0.0))
    )


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=math.tau, allow_nan=False),
    st.floats(min_value=0.0, max_value=math.tau, allow_nan=False),
)
def test_slice_equivalence_is_exactly_same_height(p, phi1, phi2):
    r = math.sqrt(p * (1.0 - p))
    a = cb.bloch_density(p, r * complex(math.cos(phi1), math.sin(phi1)))
    b = cb.bloch_density(p, r * complex(math.cos(phi2), math.sin(phi2)))
    assert cb.bloch_slice_equivalent(a, b)


def test_bloch_sweep_grid():
    rows = cb.bloch_sweep(5)
    assert len(rows) == 25
    for row in rows:
        x, y, h = row["x"], row["y"], row["height"]
        assert x * x + y * y + (h - 1.0) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["height"] == pytest.approx(2.0)  # symmetric pole first
    assert rows[-1]["height"] == pytest.approx(0.0)  # antisymmetric pole last
    assert rows[-1]["z"] is None
    assert cb.bloch_sweep(5) == rows  # deterministic
    with pytest.raises(ValueError):
        cb.bloch_sweep(1)


# ---------------------------------------------------------------------------
# the three-coin plane

def test_fig3_report_certifies_the_geometry():
    report = cb.fig3_analysis(seed=0)
    assert report.ok
    assert report.checks == {
        "swaps_act_as_reflections": True,
        "symmetric_ray_fixed_pointwise": True,
        "orthogonal_plane_is_generalised_ray": True,
        "plane_spanned_by_six_permutes_of_any_ray": True,
        "one_expectation_per_symmetric_observable": True,
    }
    assert report.reflection_residual < 1e-12
    assert report.trivial_action_residual < 1e-12
    assert report.plane_commutant_dimension == 1
    assert report.orbit_span_rank == 2
    assert report.no_fermion_residual < 1e-12


def test_fig3_is_seed_deterministic_and_seed_robust():
    a = cb.fig3_analysis(seed=0)
    b = cb.fig3_analysis(seed=0)
    assert a == b
    c = cb.fig3_analysis(seed=123)
    assert c.ok


def test_fig3_plane_is_paraparticle_only():
    config, span, v_sym, plane = cb._fig3_vectors()
    fam = sec.SectorProjectors.build(config)
    for k in range(2):
        got = sec.classify_vector(fam, plane[:, k])
        assert got.label == "paraparticle"
    assert sec.classify_vector(fam, v_sym).label == "bosonic"


# ---------------------------------------------------------------------------
# toy selection theories

def test_renovators_theory_is_permutable_without_fixity():
    theory = md.renovators_theory()
    assert len(theory.space) == 6
    report = md.gpc_check(theory)
    assert report.permutable
    assert not report.fixed
    assert report.consistent
    reps = md.quotient_selection(theory)
    assert len(reps["workday"]) == 1


def test_scribes_theory_has_fixity():
    theory = md.scribes_theory()
    report = md.gpc_check(theory)
    assert report.fixed
    assert report.permutable
    assert report.consistent
    for label in ("workday", "restday"):
        for m in theory.selected(label):
            assert md.is_fully_symmetric_model(m)


def test_toy_theories_mapping():
    toys = md.toy_theories()
    assert set(toys) == {"renovators", "scribes"}
