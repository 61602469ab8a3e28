"""Sector and isotypic decomposition of the assembly space under S_n.

Each partition lambda of n labels an isotypic component with the
character projector

    P_lambda = (dim lambda / n!) sum_C chi_lambda(C) sum_{pi in C} P(pi),

read from the class sums sum_{pi in C} P(pi), which one pass over the
group collects for all p(n) conjugacy classes C at once.  The bosonic and
fermionic sectors are the components of the trivial and the sign
character, E_S = P_(n) and E_A = P_(1^n); everything else is the
paraparticle sector E_P = I - E_S - E_A.  Each component splits further
into ``copies = rank / dim lambda`` irreducible invariant subspaces
("generalised rays").  That finer split is not canonical when
copies >= 2; here it is made reproducible by a seeded construction:
compress a twirled random Hermitian operator onto the component and take
its eigenspaces, which (generically) are exactly one irreducible copy
each.  The twirl is the symmetriser :func:`permsym.hilbert.symmetrise`,
a mean over pair orbits that never enumerates S_n, so the class sums
are the only pass over the group.

Every returned ray is certified invariant, and irreducible via the
commutant of the compressed representation.  Both certificates ask only
the n-1 adjacent transpositions (k k+1), and that is the same guarantee
as asking every pi: they generate S_n, so a subspace invariant under
them is invariant under the group, and the commutant of a group is the
commutant of a generating set.  A residual r on the generators bounds
the residual of any pi by l(pi) r, where l(pi) <= C(n, 2) is its length
as a word in them.

Ranks are read off eigenvalues (count above 1/2, tolerance EPS_RANK).
The three-sector family requires n >= 2: for a single particle the sign
character coincides with the trivial one, so E_S = E_A and the family
would not partition the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hilbert, symgroup
from .hilbert import EPS_ABS, AssemblyConfig

EPS_RANK = 1e-8


class DecompositionError(RuntimeError):
    """Seeded ray extraction failed to certify an irreducible split."""


def _class_sums(config: AssemblyConfig) -> dict[tuple[int, ...], np.ndarray]:
    """sum_{pi in C} P(pi) for every conjugacy class C, keyed by cycle type,
    from one pass over S_n.  Entries are counts, kept as real float64."""
    dim = config.dim
    cols = np.arange(dim)
    sums = {c.cycle_type: np.zeros((dim, dim)) for c in symgroup.conjugacy_classes(config.n)}
    for p in symgroup.all_permutations(config.n):
        sums[p.cycle_type()][hilbert.perm_operator(config, p).target, cols] += 1.0
    return sums


def _character_projector(
    config: AssemblyConfig, shape: tuple[int, ...], sums: dict[tuple[int, ...], np.ndarray]
) -> np.ndarray:
    if sum(shape) != config.n:
        raise ValueError(f"partition {shape} does not partition n = {config.n}")
    acc = np.zeros((config.dim, config.dim))
    for cycle_type, class_sum in sums.items():
        acc += symgroup.character(shape, cycle_type) * class_sum
    scale = symgroup.irrep_dimension(shape) / math.factorial(config.n)
    return (acc * scale).astype(complex)


def projector_rank(p: np.ndarray, tol: float = EPS_RANK) -> int:
    """Rank of an (approximate) orthogonal projector: eigenvalues above 1/2.

    Raises when any eigenvalue sits further than tol from {0, 1}.
    """
    eigs = np.linalg.eigvalsh(p)
    bad = float(np.min(np.abs(np.stack([eigs, eigs - 1.0])), axis=0).max())
    if bad > tol:
        raise ValueError(f"not a projector: eigenvalue residual {bad} > {tol}")
    return int(np.sum(eigs > 0.5))


@dataclass(frozen=True, eq=False)
class SectorProjectors:
    """The (symmetric, antisymmetric, para) partition of identity."""

    config: AssemblyConfig
    symmetric: np.ndarray = field(repr=False)
    antisymmetric: np.ndarray = field(repr=False)
    para: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, config: AssemblyConfig) -> "SectorProjectors":
        if config.n < 2:
            raise ValueError(
                "sector family needs n >= 2 (for n = 1 the symmetric and "
                "antisymmetric projectors coincide)"
            )
        sums = _class_sums(config)
        e_s = _character_projector(config, (config.n,), sums)
        e_a = _character_projector(config, (1,) * config.n, sums)
        e_p = np.eye(config.dim, dtype=complex) - e_s - e_a
        return cls(config, e_s, e_a, e_p)

    def ranks(self) -> tuple[int, int, int]:
        return (
            projector_rank(self.symmetric),
            projector_rank(self.antisymmetric),
            projector_rank(self.para),
        )

    def family(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.symmetric, self.antisymmetric, self.para)


# ---------------------------------------------------------------------------
# isotypic components and generalised rays

@dataclass(frozen=True, eq=False)
class IsotypicComponent:
    """Image of the character projector for one partition of n."""

    config: AssemblyConfig
    shape: tuple[int, ...]
    projector: np.ndarray = field(repr=False)
    rank: int
    dim_irrep: int

    @property
    def copies(self) -> int:
        return self.rank // self.dim_irrep


def isotypic_projector(config: AssemblyConfig, shape: tuple[int, ...]) -> np.ndarray:
    """P_lambda = (dim lambda / n!) sum_C chi_lambda(C) sum_{pi in C} P(pi)."""
    return _character_projector(config, tuple(shape), _class_sums(config))


def _component(
    config: AssemblyConfig, shape: tuple[int, ...], proj: np.ndarray
) -> IsotypicComponent:
    rank = projector_rank(proj)
    dim = symgroup.irrep_dimension(shape)
    if rank % dim != 0:
        raise DecompositionError(
            f"isotypic rank {rank} not a multiple of irrep dimension {dim}"
        )
    return IsotypicComponent(config, shape, proj, rank, dim)


def isotypic_component(config: AssemblyConfig, shape: tuple[int, ...]) -> IsotypicComponent:
    shape = tuple(shape)
    return _component(config, shape, isotypic_projector(config, shape))


def all_isotypic(config: AssemblyConfig) -> list[IsotypicComponent]:
    """Every isotypic component, from one pass over S_n."""
    sums = _class_sums(config)
    return [
        _component(config, lam, _character_projector(config, lam, sums))
        for lam in symgroup.partitions(config.n)
    ]


@dataclass(frozen=True, eq=False)
class GeneralisedRay:
    """An irreducible invariant subspace, spanned by orthonormal columns."""

    config: AssemblyConfig
    shape: tuple[int, ...]
    basis: np.ndarray = field(repr=False)  # D x dim_irrep, orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def compress(self, a: np.ndarray) -> np.ndarray:
        """Compression B^dagger a B of an operator onto the ray."""
        return self.basis.conj().T @ a @ self.basis


def orthonormal_columns(vectors: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass; columns
    that deflate below tol are dropped."""
    vs = np.asarray(vectors, dtype=complex)
    out: list[np.ndarray] = []
    for j in range(vs.shape[1]):
        v = vs[:, j].copy()
        for _ in range(2):
            for u in out:
                v -= u * (u.conj() @ v)
        norm = float(np.linalg.norm(v))
        if norm > tol:
            out.append(v / norm)
    if not out:
        return np.zeros((vs.shape[0], 0), dtype=complex)
    return np.stack(out, axis=1)


def _component_basis(component: IsotypicComponent) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(component.projector)
    keep = eigvals > 0.5
    return eigvecs[:, keep]


def _cluster(eigs: np.ndarray, gap: float) -> list[list[int]]:
    groups: list[list[int]] = [[0]]
    for i in range(1, len(eigs)):
        if eigs[i] - eigs[i - 1] > gap:
            groups.append([i])
        else:
            groups[-1].append(i)
    return groups


def invariance_residual(config: AssemblyConfig, basis: np.ndarray) -> float:
    """Largest spectral norm, over the adjacent transpositions s = (k k+1),
    of the part of P(s) basis leaking out of span(basis).

    span(basis) is S_n-invariant exactly when it is invariant under these
    generators.  The leak (I - Q) P(pi) Q, Q the projector onto the span,
    is subadditive along words because P is unitary and Q a contraction,
    so a residual r here bounds the leak of every pi by l(pi) r, where
    l(pi) <= C(n, 2) is its length as a word in adjacent transpositions.
    """
    worst = 0.0
    for op in hilbert.generator_operators(config):
        moved = np.empty_like(basis)
        moved[op.target, :] = basis
        leak = moved - basis @ (basis.conj().T @ moved)
        worst = max(worst, float(np.linalg.norm(leak, 2)))
    return worst


def compressed_commutant_dimension(config: AssemblyConfig, basis: np.ndarray) -> int:
    """Dimension of {X : [X, B^dagger P(s) B] = 0 for every adjacent
    transposition s = (k k+1)}.

    The commutant of a group is the commutant of a generating set, so on
    an invariant span(B) this is the commutant of the compressed
    representation of S_n, of dimension 1 exactly when it is irreducible
    (Schur).  Uses row-major vec: vec(XM - MX) = (I kron M^T - M kron I) vec(X).
    """
    k = basis.shape[1]
    eye = np.eye(k)
    rows = [np.zeros((0, k * k))]  # S_1 has no generators
    for op in hilbert.generator_operators(config):
        moved = np.empty_like(basis)
        moved[op.target, :] = basis
        m = basis.conj().T @ moved
        rows.append(np.kron(eye, m.T) - np.kron(m, eye))
    svals = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
    return k * k - int(np.sum(svals >= 1e-10 * max(1.0, svals.max(initial=0.0))))


def generalised_rays(
    component: IsotypicComponent, seed: int = 0, max_attempts: int = 8
) -> list[GeneralisedRay]:
    """Split an isotypic component into irreducible invariant subspaces.

    Reproducible but not canonical for copies >= 2 (any unitary mix of
    copies is an equally valid split): a twirled random Hermitian operator
    lies in the commutant of the representation, so on the component it
    acts as a Hermitian m x m matrix per copy; generically its eigenvalues
    are distinct and each eigenspace is exactly one copy.  Retries with
    fresh draws if the eigenvalue clusters come out wrong; every ray is
    certified invariant and irreducible before being returned.
    """
    config = component.config
    if component.rank == 0:
        return []
    basis = _component_basis(component)

    def finish(ray_bases: list[np.ndarray]) -> list[GeneralisedRay]:
        rays = []
        for rb in ray_bases:
            res = invariance_residual(config, rb)
            if res > EPS_ABS:
                raise DecompositionError(
                    f"candidate ray not invariant: residual {res}"
                )
            if compressed_commutant_dimension(config, rb) != 1:
                raise DecompositionError("candidate ray is reducible")
            rays.append(GeneralisedRay(config, component.shape, rb))
        return rays

    if component.copies == 1:
        return finish([basis])

    rng = hilbert.rng_for(seed)
    last_error: DecompositionError | None = None
    for _ in range(max_attempts):
        twirled = hilbert.symmetrise(config, hilbert.random_observable(config, rng))
        compressed = basis.conj().T @ twirled @ basis
        eigvals, eigvecs = np.linalg.eigh(compressed)
        scale = max(1.0, float(eigvals[-1] - eigvals[0]))
        groups = _cluster(eigvals, gap=1e-6 * scale)
        if len(groups) != component.copies or any(
            len(g) != component.dim_irrep for g in groups
        ):
            last_error = DecompositionError(
                f"eigenvalue clusters {[len(g) for g in groups]} do not match "
                f"{component.copies} copies of dimension {component.dim_irrep}"
            )
            continue
        try:
            return finish([basis @ eigvecs[:, g] for g in groups])
        except DecompositionError as exc:
            last_error = exc
    raise last_error if last_error is not None else DecompositionError("no attempts ran")


def assembly_rays(config: AssemblyConfig, seed: int = 0) -> list[GeneralisedRay]:
    """All generalised rays of the assembly, grouped by partition."""
    out: list[GeneralisedRay] = []
    for component in all_isotypic(config):
        out.extend(generalised_rays(component, seed=seed))
    return out


# ---------------------------------------------------------------------------
# vector classification and the Schur scalar check

@dataclass(frozen=True)
class VectorClassification:
    symmetric_weight: float
    antisymmetric_weight: float
    para_weight: float
    label: str  # bosonic | fermionic | paraparticle | skew


def classify_vector(
    sectors: SectorProjectors, v: np.ndarray, tol: float = EPS_ABS
) -> VectorClassification:
    """Sector weights |E v|^2 of a normalized vector and a coarse label.

    A vector is labelled by a sector only when it lies in it entirely
    (weight 1 within tol); anything split across sectors is "skew".
    """
    v = hilbert._as_vector(sectors.config, v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > hilbert.EPS_NORM:
        raise ValueError(f"classify_vector needs a normalized vector, norm {norm}")
    ws = float(np.linalg.norm(sectors.symmetric @ v) ** 2)
    wa = float(np.linalg.norm(sectors.antisymmetric @ v) ** 2)
    wp = float(np.linalg.norm(sectors.para @ v) ** 2)
    if ws >= 1.0 - tol:
        label = "bosonic"
    elif wa >= 1.0 - tol:
        label = "fermionic"
    elif wp >= 1.0 - tol:
        label = "paraparticle"
    else:
        label = "skew"
    return VectorClassification(ws, wa, wp, label)


@dataclass(frozen=True)
class SchurReport:
    """Per-ray compression scalars of a symmetric operator."""

    scalars: tuple[float, ...]
    max_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def schur_check(
    q: np.ndarray, rays: list[GeneralisedRay], tol: float = EPS_ABS
) -> SchurReport:
    """Check that a symmetric operator compresses to c * identity on each
    irreducible ray (Schur's lemma), returning the scalars and the worst
    off-scalar residual."""
    q = np.asarray(q, dtype=complex)
    hilbert._check_finite(q)
    scalars = []
    worst = 0.0
    for ray in rays:
        m = ray.compress(q)
        c = complex(np.trace(m)) / ray.dim
        worst = max(worst, float(np.max(np.abs(m - c * np.eye(ray.dim)))))
        scalars.append(hilbert.real_expectation(c, tol=max(tol, 1e-9)))
    return SchurReport(tuple(scalars), worst, tol)
