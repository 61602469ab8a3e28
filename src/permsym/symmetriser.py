"""The symmetriser on operators and what expectation values can see.

Sigma(A) = (1/n!) sum_pi P(pi) A P(pi)^dagger averages an operator over
the permutation representation; :func:`permsym.hilbert.symmetrise`
computes entry (i, j) as the mean of A over the S_n-orbit of the index
pair (i, j), with no pass over the group.  Sigma is an orthogonal
projector on the operator space End(H) with the Hilbert-Schmidt inner
product, fixes exactly the symmetric (permutation-commuting) operators,
and preserves trace, self-adjointness and positivity.  Two trace
identities follow and are exposed as residual checks:

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
from .hilbert import EPS_ABS, AssemblyConfig, symmetrise
from .sectors import SectorProjectors


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
    computed as (E (E W)^T)^T through ``split``, with no D x D projector.
    """
    w = hilbert._as_square(sectors.config, w)
    return sum(sectors.split(ew.T)[k] for k, ew in enumerate(sectors.split(w))).T


# ---------------------------------------------------------------------------
# the two invariance notions for states

def satisfies_sp(
    sectors: SectorProjectors, w: np.ndarray, tol: float = EPS_ABS
) -> bool:
    """State permutation invariance: some convex decomposition of W into
    permutation-fixed ray projectors exists.

    Spectrally equivalent formulation (used here): the support of W lies
    inside ran(E_S) + ran(E_A), and W commutes with every P(pi).  The
    maximally mixed state fails this for n >= 3: its support meets the
    paraparticle sector.
    """
    w = hilbert._as_square(sectors.config, w)
    if float(np.max(np.abs(sectors.split(w)[2]))) > tol:
        return False
    return hilbert.is_symmetric_operator(sectors.config, w, tol=tol)


def satisfies_ip(
    config: AssemblyConfig,
    w: np.ndarray,
    observables: list[np.ndarray],
    tol: float = EPS_ABS,
) -> bool:
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
            if abs(complex(np.sum(moved.T * q)) - pairing) > tol:
                return False
    return True
