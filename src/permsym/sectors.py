"""Sector and isotypic decomposition of the assembly space under S_n.

A permutation only moves letters between slots, so every operator in the
image of C[S_n] is block-diagonal over the weight blocks of
:func:`permsym.hilbert.weight_blocks` (words of one letter content mu).
By Schur-Weyl duality a block holds one copy of S^lambda per
Gelfand-Tsetlin pattern of shape lambda and weight mu.  Those copies,
the generalised rays, are split off block by block with no pass over S_n
and no random draw: each of a short list of commuting operators with
integer spectra is compressed onto the eigenspaces of the one before,
diagonalised, and its eigenvectors grouped by rint of the eigenvalue.
The list is the masked transposition sums

    T_m = sum_{k<l} P((k l)) [slots k and l both hold letters < m],  m = 2..d,

the content sums of the level-m rows of the patterns, then the central
sum_k X_k^2 of the squared Jucys-Murphy elements X_k = sum_{j<k} P((j k)),
which parts shapes of equal content sum such as (4,1,1) and (3,3).  Each
final eigenspace is labelled and certified in one step: its traces on
one representative per conjugacy class must equal a row of the character
table, which on an invariant span gives <chi, chi> = 1, and its
invariance residual must stay below EPS_ABS; a failure raises
:class:`DecompositionError`.  Invariance is asked of the n-1 adjacent
transpositions only: they generate S_n, and a residual r on them bounds
that of any pi by l(pi) r, l(pi) <= C(n, 2) its length as a word in them.
Both run on the ray's real vectors in its weight block, with index maps
built once per block; :func:`invariance_residual` and
:func:`compressed_commutant_dimension` run them on the whole space.

An isotypic component is the sum of its rays, counted against the
hook-content formula s_lambda(1^d).  The sector family acts on the same
blocks: E_S x is the block mean of x, E_A x = s mean(s x) with s the sign
of each word on blocks of n distinct letters and 0 elsewhere, and E_P x
the remainder.  Rays and family hold no D x k or D x D array; ``basis``
and ``family()`` build one on request.  The family needs n >= 2: for one
particle the sign character is trivial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hilbert, symgroup
from .hilbert import EPS_ABS, AssemblyConfig


class DecompositionError(RuntimeError):
    """A block eigenspace failed its certificate as an irreducible ray."""


@dataclass(frozen=True, eq=False)
class SectorProjectors:
    """The (symmetric, antisymmetric, para) partition of identity, on the weight blocks."""

    config: AssemblyConfig
    block: np.ndarray = field(repr=False)  # weight block of each flat index
    sign: np.ndarray = field(repr=False)  # of each word; 0 unless its n letters are distinct

    @classmethod
    def build(cls, config: AssemblyConfig) -> "SectorProjectors":
        n = config.n
        if n < 2:
            raise ValueError(
                "sector family needs n >= 2 (for n = 1 the symmetric and "
                "antisymmetric projectors coincide)"
            )
        letters = hilbert._letters(config)
        inversions = sum(letters[k] > letters[l] for k, l in itertools.combinations(range(n), 2))
        sign = 1.0 - 2.0 * (inversions % 2)
        block = np.empty(config.dim, dtype=np.intp)
        for b, index in enumerate(hilbert.weight_blocks(config)):
            block[index] = b
            if len(index) != math.factorial(n):  # multinomial(n; mu) = n! only for distinct letters
                sign[index] = 0.0
        return cls(config, block, sign)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E_S x, E_A x, E_P x) of a vector, or of each column of a matrix:
        the block mean, the sign-weighted block mean, and the remainder."""
        x = np.asarray(x, dtype=complex)
        column = (-1,) + (1,) * (x.ndim - 1)  # a per-word array broadcast over columns
        counts, sign = np.bincount(self.block), self.sign.reshape(column)
        order, starts = np.argsort(self.block, kind="stable"), np.cumsum(counts) - counts

        def block_mean(y: np.ndarray) -> np.ndarray:
            return (np.add.reduceat(y[order], starts) / counts.reshape(column))[self.block]

        e_s = block_mean(x)
        e_a = sign * block_mean(sign * x)
        return e_s, e_a, x - e_s - e_a

    def ranks(self) -> tuple[int, int, int]:
        """One symmetric state per block, one antisymmetric per block of n distinct letters."""
        r_s = int(self.block.max()) + 1
        r_a = int(np.count_nonzero(self.sign)) // math.factorial(self.config.n)
        return r_s, r_a, self.config.dim - r_s - r_a

    def family(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E_S, E_A and E_P as dense D x D matrices."""
        return self.split(np.eye(self.config.dim, dtype=complex))


# ---------------------------------------------------------------------------
# generalised rays and isotypic components

@dataclass(frozen=True, eq=False)
class GeneralisedRay:
    """An irreducible invariant subspace, spanned by orthonormal real columns on one weight block."""

    config: AssemblyConfig
    shape: tuple[int, ...]
    index: np.ndarray = field(repr=False)  # flat indices of the weight block
    vectors: np.ndarray = field(repr=False)  # len(index) x dim_irrep, orthonormal columns

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """The D x dim_irrep orthonormal columns on the whole space."""
        basis = np.zeros((self.config.dim, self.dim), dtype=complex)
        basis[self.index] = self.vectors
        return basis

    def projector(self) -> np.ndarray:
        p = np.zeros((self.config.dim,) * 2, dtype=complex)
        p[np.ix_(self.index, self.index)] = self.vectors @ self.vectors.T
        return p

    def compress(self, a: np.ndarray) -> np.ndarray:
        """Compression B^dagger a B of an operator onto the ray."""
        return self.vectors.T @ a[np.ix_(self.index, self.index)] @ self.vectors


@dataclass(frozen=True, eq=False)
class IsotypicComponent:
    """The lambda-isotypic component, as the direct sum of its rays."""

    config: AssemblyConfig
    shape: tuple[int, ...]
    rays: tuple[GeneralisedRay, ...] = field(repr=False)

    @property
    def dim_irrep(self) -> int:
        return symgroup.irrep_dimension(self.shape)

    @property
    def copies(self) -> int:
        return len(self.rays)

    @property
    def rank(self) -> int:
        return self.copies * self.dim_irrep

    @property
    def projector(self) -> np.ndarray:
        """P_lambda, the sum of the ray projectors."""
        return sum((ray.projector() for ray in self.rays), np.zeros((self.config.dim,) * 2, complex))


def _index_maps(config: AssemblyConfig, perms: list, index: np.ndarray) -> list[np.ndarray]:
    """Map t of each P(pi) on the weight blocks ``index``: P(pi) e_index[i] = e_index[t[i]]."""
    local = np.full(config.dim, -1)
    local[index] = np.arange(len(index))
    return [local[hilbert.perm_operator(config, p)[index]] for p in perms]


def _leak(vectors: np.ndarray, maps: list[np.ndarray]) -> float:
    """Largest spectral norm of P v - v v^dagger P v over the index maps."""
    worst = 0.0
    for t in maps:
        moved = np.empty_like(vectors)
        moved[t] = vectors
        leak = moved - vectors @ (vectors.conj().T @ moved)
        worst = max(worst, float(np.linalg.norm(leak, 2)))
    return worst


def _traces(vectors: np.ndarray, maps: list[np.ndarray]) -> np.ndarray:
    """Tr v^dagger P v for each index map."""
    return np.array([np.vdot(vectors[t], vectors) for t in maps])


def invariance_residual(config: AssemblyConfig, basis: np.ndarray) -> float:
    """Largest spectral norm, over the adjacent transpositions s = (k k+1),
    of the part of P(s) basis leaking out of span(basis).

    span(basis) is S_n-invariant exactly when it is invariant under these
    generators.  The leak (I - Q) P(pi) Q, Q the projector onto the span,
    is subadditive along words because P is unitary and Q a contraction,
    so a residual r here bounds the leak of every pi by l(pi) r, where
    l(pi) <= C(n, 2) is its length as a word in adjacent transpositions.
    """
    generators = symgroup.adjacent_transpositions(config.n)
    return _leak(basis, _index_maps(config, generators, np.arange(config.dim)))


def compressed_commutant_dimension(config: AssemblyConfig, basis: np.ndarray) -> int:
    """Dimension of the commutant of the representation of S_n compressed
    onto an invariant span(B), read from the character norm

        <chi, chi> = (1/n!) sum_C |C| |chi(C)|^2 = sum_lambda m_lambda^2,

    which is 1 exactly when the span is irreducible (Schur).  The value is
    only meaningful once :func:`invariance_residual` has certified the span.
    """
    classes = symgroup.conjugacy_classes(config.n)
    traces = _traces(basis, _index_maps(config, [c.representative for c in classes], np.arange(config.dim)))
    return round(float(np.array([c.size for c in classes]) @ np.abs(traces) ** 2) / math.factorial(config.n))


def _block_operators(config: AssemblyConfig, index: np.ndarray) -> list[np.ndarray]:
    """The refining operators of one weight block, as dense real matrices
    on its words: T_2, ..., T_d, then sum_k X_k^2."""
    n, b = config.n, len(index)
    letters = hilbert._letters(config)[:, index]
    slot_pairs = list(itertools.combinations(range(n), 2))
    transpositions = [symgroup.from_cycles(n, [(k + 1, l + 1)]) for k, l in slot_pairs]
    swaps = dict(zip(slot_pairs, _index_maps(config, transpositions, index)))

    def swap_sum(pairs, below: int) -> np.ndarray:
        op = np.zeros((b, b))
        for k, l in pairs:
            keep = np.flatnonzero((letters[k] < below) & (letters[l] < below))
            op[swaps[k, l][keep], keep] += 1.0
        return op

    ops = [swap_sum(swaps, m) for m in range(2, config.d + 1)]
    jucys_murphy = [swap_sum([(j, k) for j in range(k)], config.d) for k in range(1, n)]
    ops.append(sum((x @ x for x in jucys_murphy), np.zeros((b, b))))
    return ops


def assembly_rays(config: AssemblyConfig) -> list[GeneralisedRay]:
    """All generalised rays of the assembly, grouped by partition in the
    order of :func:`permsym.symgroup.partitions`, each certified in its block.

    Raises :class:`DecompositionError` when a joint eigenspace of a weight
    block is not invariant or its character is not irreducible.
    """
    table = symgroup.character_table(config.n)
    characters = np.array(table.values)
    representatives = [c.representative for c in symgroup.conjugacy_classes(config.n)]
    generators = symgroup.adjacent_transpositions(config.n)
    rays: list[GeneralisedRay] = []
    for index in hilbert.weight_blocks(config):
        class_maps = _index_maps(config, representatives, index)
        generator_maps = _index_maps(config, generators, index)
        spaces = [np.eye(len(index))]
        for op in _block_operators(config, index):
            finer = []
            for v in spaces:
                eigvals, eigvecs = np.linalg.eigh(v.T @ op @ v)
                labels = np.rint(eigvals)
                finer += [v @ eigvecs[:, labels == label] for label in np.unique(labels)]
            spaces = finer
        for v in spaces:
            error = np.abs(characters - _traces(v, class_maps)).max(axis=1)
            row = int(np.argmin(error))
            residual = _leak(v, generator_maps)
            if error[row] > EPS_ABS or residual > EPS_ABS:
                raise DecompositionError(
                    f"a {v.shape[1]}-dimensional eigenspace is no certified ray: character error "
                    f"{error[row]:.3g} against {table.irrep_labels[row]}, invariance residual {residual:.3g}"
                )
            rays.append(GeneralisedRay(config, table.irrep_labels[row], index, v))
    order = {shape: k for k, shape in enumerate(table.irrep_labels)}
    return sorted(rays, key=lambda ray: order[ray.shape])


def all_isotypic(config: AssemblyConfig) -> list[IsotypicComponent]:
    """Every isotypic component, in the order of
    :func:`permsym.symgroup.partitions`, as the rays of
    :func:`assembly_rays` grouped by shape.  The ray count of each shape
    is checked against the hook-content formula s_lambda(1^d)."""
    rays = assembly_rays(config)
    out = []
    for shape in symgroup.partitions(config.n):
        component = IsotypicComponent(config, shape, tuple(r for r in rays if r.shape == shape))
        want = symgroup.schur_at_ones(shape, config.d)
        if component.copies != want:
            raise DecompositionError(
                f"{component.copies} rays of shape {shape}, but s_lambda(1^d) = {want}"
            )
        out.append(component)
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
    ws, wa, wp = (float(np.linalg.norm(part) ** 2) for part in sectors.split(v))
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
    if rays:
        q = hilbert._as_square(rays[0].config, q)
    scalars = []
    worst = 0.0
    for ray in rays:
        m = ray.compress(q)
        c = complex(np.trace(m)) / ray.dim
        worst = max(worst, float(np.max(np.abs(m - c * np.eye(ray.dim)))))
        scalars.append(hilbert.real_expectation(c, tol=max(tol, 1e-9)))
    return SchurReport(tuple(scalars), worst, tol)
