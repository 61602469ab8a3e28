"""Worked low-dimensional cases: coin pairs, the symmetry-adapted Bloch
ball, the smallest paraparticle geometry, and two toy selection theories.

Two-sided coins are qubits (d = 2, letters H and T).  For a pair of
bosonic coins the state space of "how many heads" has three symmetric
basis states, counted equally: HH, one-of-each, TT at 1/3 each, against
the Maxwell-Boltzmann 1/4-each count for distinguishable coins; a
fermionic pair admits the single antisymmetric state only.  Probabilities
are exact fractions, no floats.

A pure two-coin state xi|HT> + eta|TH> is summarised by the ratio

    z = (xi - eta) / (xi + eta)            (infinite when xi = -eta),

the weight p = 1/(1+|z|^2) of the symmetric component, and the coherence
q = z/(1+|z|^2) between the symmetric and antisymmetric components; any
two-coin state supported on span{|HT>, |TH>} is the 2x2 matrix
[[p, q*], [q, 1-p]] in the (psi_s, psi_a) basis.  States with equal p and
different q ("same slice of the ball") are indistinguishable by symmetric
observables.

fig3_analysis certifies the geometry of the three-coin subspace
span{|aab>, |aba>, |baa>}: each pair swap acts as a specific reflection,
the uniform superposition spans the one symmetric ray, and its orthogonal
plane is a single two-dimensional generalised ray with no fermionic
admixture, every ray of which shares one expectation value for every
symmetric observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import hilbert, models, sectors, symgroup, symmetriser
from .hilbert import EPS_ABS, AssemblyConfig
from .symgroup import COIN_MEASURES

EPS_BLOCH = 1e-12

# Row budget of bloch_sweep: the K x K grid is held as a list of row dicts
# before anything is printed, about 0.46 KB per row (measured with
# tracemalloc at K = 100), so 2**20 rows (K <= 1024) stay within 0.5 GB.
SWEEP_ROW_CAP = 2**20

COIN = AssemblyConfig(2, 2)  # H = letter 0, T = letter 1


@dataclass(frozen=True)
class StatisticsReport:
    """Exact outcome statistics of a two-coin toss."""

    measure: str
    outcomes: tuple[str, ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.probabilities, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    def as_dict(self) -> dict[str, Fraction]:
        return dict(zip(self.outcomes, self.probabilities))


def coin_statistics(measure: str) -> StatisticsReport:
    """Toss statistics for a pair of coins under the named state count.

    bose: the three symmetric states HH, (HT+TH)/sqrt(2), TT weighted
    equally, so "one of each" gets 1/3, not the naive 1/2.
    maxwell_boltzmann: distinguishable coins, four outcomes at 1/4.
    fermi_dirac: a single antisymmetric state exists, so "one of each"
    is certain.
    """
    third = Fraction(1, 3)
    if measure == "bose":
        return StatisticsReport("bose", ("HH", "mixed", "TT"), (third, third, third))
    if measure == "maxwell_boltzmann":
        quarter = Fraction(1, 4)
        return StatisticsReport(
            "maxwell_boltzmann", ("HH", "HT", "TH", "TT"), (quarter,) * 4
        )
    if measure == "fermi_dirac":
        return StatisticsReport(
            "fermi_dirac", ("HH", "mixed", "TT"), (Fraction(0), Fraction(1), Fraction(0))
        )
    raise ValueError(f"unknown measure {measure!r}, expected one of {COIN_MEASURES}")


# ---------------------------------------------------------------------------
# the symmetry-adapted Bloch ball for span{|HT>, |TH>}

def symmetry_basis() -> tuple[np.ndarray, np.ndarray]:
    """(psi_s, psi_a) for the two-coin space: (|HT> +/- |TH>)/sqrt(2)."""
    ht = np.zeros(4, dtype=complex)
    th = np.zeros(4, dtype=complex)
    ht[COIN.flat_index((0, 1))] = 1.0
    th[COIN.flat_index((1, 0))] = 1.0
    return (ht + th) / math.sqrt(2), (ht - th) / math.sqrt(2)


@dataclass(frozen=True)
class BlochPoint:
    """A pure state of span{|HT>, |TH>} in ratio coordinates.

    ``z`` is None at the point at infinity (the antisymmetric ray).
    """

    z: complex | None
    p: float
    q: complex

    @property
    def is_infinite(self) -> bool:
        return self.z is None

    @property
    def height(self) -> float:
        """Height above the antisymmetric pole on the diameter: 2p."""
        return 2.0 * self.p

    @property
    def planar(self) -> complex:
        """Horizontal displacement of the sphere point: 2q."""
        return 2.0 * self.q


def bloch_point(xi: complex, eta: complex) -> BlochPoint:
    """Ratio coordinates of the ray of xi|HT> + eta|TH>."""
    xi, eta = complex(xi), complex(eta)
    if not (np.isfinite(xi) and np.isfinite(eta)):
        raise ValueError(f"amplitudes must be finite, got xi = {xi}, eta = {eta}")
    if max(abs(xi.real), abs(xi.imag), abs(eta.real), abs(eta.imag)) > 2.0**1000:
        # a ray does not change under scaling: bring amplitudes whose moduli
        # could overflow down by an exact power of two
        xi, eta = xi * 2.0**-600, eta * 2.0**-600
    scale = math.hypot(abs(xi), abs(eta))
    if scale == 0.0:
        raise ValueError("xi and eta cannot both vanish")
    xi, eta = xi / scale, eta / scale
    s = xi + eta
    if s == 0:
        return BlochPoint(None, 0.0, 0j)
    z = (xi - eta) / s
    p = 1.0 / (1.0 + abs(z) ** 2)
    return BlochPoint(z, p, z * p)


@dataclass(frozen=True, eq=False)
class BlochState:
    """A (possibly mixed) state on span{|HT>, |TH>} in the symmetry basis."""

    p: float
    q: complex
    matrix: np.ndarray = field(repr=False)
    symmetric: bool  # no coherence between sectors: q = 0
    pure: bool  # on the sphere: |q|^2 = p(1-p)


def bloch_density(p: float, q: complex) -> BlochState:
    """The 2x2 state [[p, q*], [q, 1-p]] in the (psi_s, psi_a) basis.

    Rejects parameters off the ball: needs 0 <= p <= 1 and
    |q|^2 <= p(1-p) (equality exactly on the sphere of pure states).
    """
    p = float(p)
    q = complex(q)
    if not -EPS_BLOCH <= p <= 1.0 + EPS_BLOCH:
        raise ValueError(f"p = {p} outside [0, 1]")
    slack = p * (1.0 - p) - abs(q) ** 2
    if slack < -EPS_BLOCH:
        raise ValueError(f"|q|^2 = {abs(q)**2} exceeds p(1-p) = {p * (1.0 - p)}")
    m = np.array([[p, q.conjugate()], [q, 1.0 - p]], dtype=complex)
    return BlochState(p, q, m, symmetric=abs(q) <= EPS_BLOCH, pure=abs(slack) <= EPS_BLOCH)


def point_state(point: BlochPoint) -> BlochState:
    return bloch_density(point.p, point.q)


def embed_coin_state(state: BlochState) -> np.ndarray:
    """The same state as a 4x4 density matrix on the full two-coin space."""
    psi_s, psi_a = symmetry_basis()
    basis = np.stack([psi_s, psi_a], axis=1)
    return basis @ state.matrix @ basis.conj().T


def slice_expectations(state: BlochState) -> tuple[float, float]:
    """Expectations of the symmetric-sector and antisymmetric-sector
    indicators; every symmetric 2x2 observable is diagonal in the
    symmetry basis, hence a combination of these two."""
    e_s = float(state.matrix[0, 0].real)
    e_a = float(state.matrix[1, 1].real)
    return e_s, e_a


def bloch_slice_equivalent(a: BlochState, b: BlochState) -> bool:
    """Whether two ball states are indistinguishable by symmetric
    observables: same expectations on the diagonal observable basis."""
    ea = slice_expectations(a)
    eb = slice_expectations(b)
    return all(abs(x - y) <= EPS_BLOCH for x, y in zip(ea, eb))


def bloch_sweep(steps: int) -> list[dict]:
    """Grid of pure states over the sphere: ``steps`` polar rings from the
    symmetric pole (z = 0) down to the antisymmetric pole (z infinite),
    each with ``steps`` azimuthal samples."""
    if steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if steps * steps > SWEEP_ROW_CAP:
        raise ValueError(f"a sweep of {steps} steps has {steps}**2 rows, past the cap {SWEEP_ROW_CAP}")
    rows = []
    for i in range(steps):
        theta = math.pi * i / (steps - 1)
        for j in range(steps):
            phi = 2.0 * math.pi * j / steps
            # stereographic: ray with z = tan(theta/2) e^{i phi}
            if abs(theta - math.pi) < 1e-15:
                point = bloch_point(1.0, -1.0)  # z infinite
            else:
                z = math.tan(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
                point = bloch_point(1.0 + z, 1.0 - z)  # (xi-eta)/(xi+eta) = z
            rows.append(
                {
                    "theta": theta,
                    "phi": phi,
                    "z": point.z,
                    "p": point.p,
                    "q": point.q,
                    "x": 2.0 * point.q.real,
                    "y": 2.0 * point.q.imag,
                    "height": point.height,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# the three-coin paraparticle plane

@dataclass(frozen=True)
class Fig3Report:
    """Residuals certifying the geometry of span{|aab>, |aba>, |baa>}."""

    seed: int
    tolerance: float
    reflection_residual: float
    trivial_action_residual: float
    plane_invariance_residual: float
    plane_commutant_dimension: int
    orbit_span_rank: int
    orbit_span_residual: float
    schur_scalar: float
    schur_residual: float
    expectation_spread: float
    no_fermion_residual: float

    @property
    def checks(self) -> dict[str, bool]:
        tol = self.tolerance
        return {
            "swaps_act_as_reflections": self.reflection_residual <= tol,
            "symmetric_ray_fixed_pointwise": self.trivial_action_residual <= tol,
            "orthogonal_plane_is_generalised_ray": (
                self.plane_invariance_residual <= tol
                and self.plane_commutant_dimension == 1
            ),
            "plane_spanned_by_six_permutes_of_any_ray": (
                self.orbit_span_rank == 2 and self.orbit_span_residual <= tol
            ),
            "one_expectation_per_symmetric_observable": (
                self.schur_residual <= tol and self.expectation_spread <= tol
            ),
        }

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and self.no_fermion_residual <= self.tolerance


def _fig3_vectors() -> tuple[AssemblyConfig, np.ndarray, np.ndarray, np.ndarray]:
    config = AssemblyConfig(3, 2)
    cols = [config.flat_index(t) for t in ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
    span = np.zeros((config.dim, 3), dtype=complex)
    for k, c in enumerate(cols):
        span[c, k] = 1.0
    v_sym = span.sum(axis=1) / math.sqrt(3)
    plane = np.stack(
        [
            (span[:, 0] - span[:, 1]) / math.sqrt(2),
            (span[:, 0] + span[:, 1] - 2 * span[:, 2]) / math.sqrt(6),
        ],
        axis=1,
    )
    return config, span, v_sym, plane


def fig3_analysis(seed: int = 0, tol: float = EPS_ABS) -> Fig3Report:
    """Certify the reflection geometry of the three-coin subspace spanned
    by the permutes of |aab>, and that its plane orthogonal to the
    symmetric ray is one two-dimensional generalised ray."""
    config, span, v_sym, plane = _fig3_vectors()
    # v[t] is P(pi) v when t is the index map of pi^-1
    maps = {
        p.images: hilbert.perm_operator(config, symgroup.inverse(p))
        for p in symgroup.all_permutations(3)
    }

    # (i) each pair swap reflects the subspace through its fixed plane
    sqrt2 = math.sqrt(2)
    swaps = {
        (1, 2): (span[:, 0], (span[:, 1] + span[:, 2]) / sqrt2, (span[:, 1] - span[:, 2]) / sqrt2),
        (2, 3): (span[:, 2], (span[:, 0] + span[:, 1]) / sqrt2, (span[:, 0] - span[:, 1]) / sqrt2),
        (1, 3): (span[:, 1], (span[:, 0] + span[:, 2]) / sqrt2, (span[:, 0] - span[:, 2]) / sqrt2),
    }
    reflection = 0.0
    for pair, (fixed_a, fixed_b, flipped) in swaps.items():
        t = maps[symgroup.from_cycles(3, [pair]).images]
        for f in (fixed_a, fixed_b):
            reflection = max(reflection, float(np.max(np.abs(f[t] - f))))
        reflection = max(reflection, float(np.max(np.abs(flipped[t] + flipped))))

    # (ii) the uniform superposition is fixed by every permutation
    trivial = max(float(np.max(np.abs(v_sym[t] - v_sym))) for t in maps.values())

    # (iii) the orthogonal plane is invariant and carries an irreducible action
    plane_res = sectors.invariance_residual(config, plane)
    commutant_dim = sectors.compressed_commutant_dimension(config, plane)

    # (iv) the plane is the span of the six permutes of any single ray in it
    rng = hilbert.rng_for(seed)
    coeff = rng.normal(size=2) + 1j * rng.normal(size=2)
    ray = plane @ (coeff / np.linalg.norm(coeff))
    orbit = np.stack([ray[t] for t in maps.values()], axis=1)
    left, singular, _ = np.linalg.svd(orbit, full_matrices=False)
    orbit_basis = left[:, singular > 1e-10]
    plane_proj = plane @ plane.conj().T
    orbit_proj = orbit_basis @ orbit_basis.conj().T
    orbit_rank = orbit_basis.shape[1]
    orbit_res = float(np.max(np.abs(orbit_proj - plane_proj)))

    # (v) a symmetric observable sees one number on the whole plane
    q_sym = symmetriser.symmetrise(config, hilbert.random_observable(config, rng))
    aab = np.flatnonzero(span.any(axis=1))  # the weight block of |aab>
    gray = sectors.GeneralisedRay(config, (2, 1), aab, plane[aab].real)
    schur = sectors.schur_check(q_sym, [gray])
    spread = 0.0
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = plane @ (c / np.linalg.norm(c))
        val = hilbert.real_expectation(complex(u.conj() @ q_sym @ u))
        spread = max(spread, abs(val - schur.scalars[0]))

    # the subspace has no fermionic admixture (Pauli: two letters, three slots)
    fam = sectors.SectorProjectors.build(config)
    no_fermion = float(np.max(np.abs(fam.antisymmetric(span))))

    return Fig3Report(
        seed=seed,
        tolerance=tol,
        reflection_residual=reflection,
        trivial_action_residual=trivial,
        plane_invariance_residual=plane_res,
        plane_commutant_dimension=commutant_dim,
        orbit_span_rank=orbit_rank,
        orbit_span_residual=orbit_res,
        schur_scalar=schur.scalars[0],
        schur_residual=schur.max_residual,
        expectation_spread=spread,
        no_fermion_residual=no_fermion,
    )


# ---------------------------------------------------------------------------
# toy selection theories

def renovators_theory() -> models.Theory:
    """Three interchangeable renovators, one job each; the theory selects
    every way of handing out the jobs, so it is permutable but keeps
    selecting asymmetric worlds (no fixity)."""
    domain = ("r1", "r2", "r3")
    jobs = ("wires", "plumbs", "paints")
    base = models.FiniteModel(
        domain,
        {job: models.Relation(1, frozenset({(worker,)})) for job, worker in zip(jobs, domain)},
    )
    space = models.permute_class(base)
    return models.Theory(tuple(space), {"workday": tuple(range(len(space)))})


def scribes_theory() -> models.Theory:
    """Three scribes who always act in unison (all copy, or all rest):
    every selected world is fully symmetric, so the theory has fixity."""
    domain = ("s1", "s2", "s3")
    everyone = frozenset((s,) for s in domain)
    copying = models.FiniteModel(domain, {"copies": models.Relation(1, everyone)})
    resting = models.FiniteModel(domain, {"copies": models.Relation(1, frozenset())})
    return models.Theory((copying, resting), {"workday": (0,), "restday": (1,)})


def toy_theories() -> dict[str, models.Theory]:
    return {"renovators": renovators_theory(), "scribes": scribes_theory()}
