"""The symmetriser on operators and what expectation values can see.

Sigma(A) = (1/n!) sum_pi P(pi) A P(pi)^dagger averages an operator over
the permutation representation; :func:`symmetrise` computes entry (i, j)
as the mean of A over the S_n-orbit of the index pair (i, j), with no
pass over the group.  Sigma is an orthogonal projector on the operator
space End(H) with the Hilbert-Schmidt inner product onto the commutant of
the P(pi), fixes exactly the symmetric (permutation-commuting) operators,
which :func:`is_symmetric_operator` recognises on the adjacent
transpositions, and preserves trace, self-adjointness and positivity.
Two trace identities follow and are exposed as residual checks:

    (a)  Tr(Sigma(W) Q) = Tr(Sigma(W) Sigma(Q))
    (b)  Tr(W Sigma(Q)) = Tr(Sigma(W) Sigma(Q))

so states with equal Sigma-images ("~-equivalent") are indistinguishable
by symmetric observables, and symmetric states cannot distinguish
observables with equal Sigma-images.  :func:`trace_identity_residuals`
measures both from one Sigma(W) and one Sigma(Q).  Superselection,
pinching by the sector family of :mod:`permsym.sectors`, preserves the
expectation of every observable that commutes with the family.

satisfies_sp / satisfies_ip decide the two permutation-invariance notions
for states: restriction to the bosonic+fermionic subspace with full
permutation commutation, versus invariance of every Born pairing against
a fixed list of observables.
"""

from __future__ import annotations

import numpy as np

from . import hilbert, symgroup
from .hilbert import EPS_ABS, AssemblyConfig
from .sectors import SectorProjectors


# ---------------------------------------------------------------------------
# Sigma, the commutant and the trace identities

def is_symmetric_operator(
    config: AssemblyConfig, a: np.ndarray, tol: float = EPS_ABS
) -> bool:
    """True when a commutes with every P(pi), checked as P a P^dagger == a
    on the n-1 adjacent transpositions.

    They generate S_n, so commuting with them is commuting with the group.
    The residual max|P a P^dagger - a| = max|[P, a]| is subadditive along
    words, because multiplying by a permutation matrix only moves entries:
    a residual r on the generators bounds the residual of every pi by
    l(pi) r, where l(pi) <= C(n, 2) is its length as a word in them.
    """
    a = hilbert._as_square(config, a)
    maps = (hilbert.perm_operator(config, s) for s in symgroup.adjacent_transpositions(config.n))
    return all(float(np.max(np.abs(a[np.ix_(t, t)] - a))) <= tol for t in maps)


def _pair_orbit_labels(config: AssemblyConfig) -> np.ndarray:
    """Label of the S_n-orbit of every index pair (i, j), flat in row-major
    (i, j) order.

    A permutation moves the pair letters i_k * d + j_k between slots, so
    the orbit of (i, j) is fixed by their sorted list, read here as a
    base-d**2 number.  Labels are below D**2 <= DIM_CAP**2 = 2**26.
    """
    n, d, dim = config.n, config.d, config.dim
    letters = hilbert._letters(config)
    pairs = np.empty((dim, dim, n), dtype=letters.dtype)
    for k in range(n):
        np.add.outer(letters[k] * d, letters[k], out=pairs[:, :, k])
    pairs.sort(axis=-1)
    label = np.zeros((dim, dim), dtype=np.int64)
    for k in range(n):
        label *= d * d
        label += pairs[:, :, k]
    return label.reshape(-1)


def symmetrise(config: AssemblyConfig, a: np.ndarray) -> np.ndarray:
    """Sigma(A) = (1/n!) sum_pi P(pi) A P(pi)^dagger, the twirl over the
    permutation representation; it projects End(H) onto the commutant.

    Entry (i, j) of the average is the mean of A over the S_n-orbit of the
    index pair (i, j), read here from orbit labels with no pass over S_n.
    """
    a = hilbert._as_square(config, a)
    label = _pair_orbit_labels(config)
    orbit_size = np.bincount(label)[label]
    out = np.empty(a.size, dtype=complex)
    out.real = np.bincount(label, weights=a.real.reshape(-1))[label] / orbit_size
    out.imag = np.bincount(label, weights=a.imag.reshape(-1))[label] / orbit_size
    return out.reshape(a.shape)


def sim_equivalent(
    config: AssemblyConfig, a: np.ndarray, b: np.ndarray, tol: float = EPS_ABS
) -> bool:
    """Whether two operators have the same symmetrisation (written A ~ B).

    ~-equivalent states give identical expectations on every symmetric
    observable, and conversely.
    """
    return float(np.max(np.abs(symmetrise(config, a) - symmetrise(config, b)))) <= tol


def trace_identity_residuals(
    config: AssemblyConfig, w: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """Residuals of identities (a) and (b), from one Sigma(W) and one Sigma(Q)."""
    sw = symmetrise(config, w)
    sq = symmetrise(config, q)
    both = complex(np.sum(sw.T * sq))
    return (
        abs(complex(np.sum(sw.T * q)) - both),
        abs(complex(np.sum(w.T * sq)) - both),
    )


# ---------------------------------------------------------------------------
# superselection

def superselect(sectors: SectorProjectors, w: np.ndarray) -> np.ndarray:
    """Pinch a state by the sector family: W -> sum_E E W E over E_S, E_A, E_P.

    For any observable commuting with every family member the Born pairing
    is unchanged, so statistics cannot reveal whether the pinch happened
    (no signalling through superselection).  The family is a partition of
    identity by construction and each E is real symmetric, so E W E is
    computed as (E (E W)^T)^T, each pass computing only the part it keeps,
    with no D x D projector.  The terms are summed from 0 in the order
    S, A, P, and each is dropped once added.
    """
    w = hilbert._as_square(sectors.config, w)
    s_w, a_w = sectors.symmetric(w), sectors.antisymmetric(w)
    p_w = w - s_w
    p_w -= a_w
    out = sectors.symmetric(s_w.T)
    out += 0  # the sum starts from 0, so no -0.0 is written
    del s_w
    out += sectors.antisymmetric(a_w.T)
    del a_w
    y = p_w.T  # E_P y = y - E_S y - E_A y, built in the array of E_S y
    e_a = sectors.antisymmetric(y)
    p_y = sectors.symmetric(y)
    np.subtract(y, p_y, out=p_y)
    p_y -= e_a
    out += p_y
    return out.T


# ---------------------------------------------------------------------------
# the two invariance notions for states

def satisfies_sp(sectors: SectorProjectors, w: np.ndarray) -> bool:
    """State permutation invariance: some convex decomposition of W into
    permutation-fixed ray projectors exists.

    Spectrally equivalent formulation (used here): the support of W lies
    inside ran(E_S) + ran(E_A), and W commutes with every P(pi).  The
    maximally mixed state fails this for n >= 3: its support meets the
    paraparticle sector.
    """
    w = hilbert._as_square(sectors.config, w)
    if float(np.max(np.abs(sectors.split(w)[2]))) > EPS_ABS:
        return False
    return is_symmetric_operator(sectors.config, w)


def satisfies_ip(config: AssemblyConfig, w: np.ndarray, observables: list[np.ndarray]) -> bool:
    """Invariance of the pairing: Tr(P(pi) W P(pi)^dagger Q) = Tr(W Q) for
    every pi and every supplied observable Q.

    This is the one pass over all n! permutations that stays: the set of
    pi that leave every pairing unchanged is not closed under composition
    (pi and rho may each keep Tr(. Q) while pi rho does not), so checking
    the generators of S_n would not suffice.
    """
    w = hilbert._as_square(config, w)
    qs = [hilbert._as_square(config, q) for q in observables]
    pairings = [complex(np.sum(w.T * q)) for q in qs]
    for pi in symgroup.all_permutations(config.n):
        t = hilbert.perm_operator(config, pi)
        moved = w[np.ix_(t, t)]  # P(pi)^-1 W P(pi); pi^-1 runs over S_n as pi does
        for q, pairing in zip(qs, pairings):
            if abs(complex(np.sum(moved.T * q)) - pairing) > EPS_ABS:
                return False
    return True
