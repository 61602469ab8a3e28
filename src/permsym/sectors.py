"""Sector and isotypic decomposition of the assembly space under S_n.

A permutation only moves letters between slots, so every operator in the
image of C[S_n] is block-diagonal over the weight blocks of
:func:`permsym.hilbert.weight_blocks` (words of one letter content mu).
By Schur-Weyl duality a block holds one copy of S^lambda per
Gelfand-Tsetlin pattern of shape lambda and weight mu.  Those copies,
the generalised rays, are split off with no pass over S_n and no random
draw.  Relabelling letters commutes with permuting slots, so blocks
whose contents differ by a relabelling sigma, mu and sigma.mu, hold the
same rays up to a reindexing of their words: the blocks are grouped by
sorted letter content, only the first block of each class is split, and
its rays are carried to the others by sigma as an exact row gather.
The split compresses each of a short list of commuting operators with
integer spectra onto the eigenspaces of the one before, diagonalises
it, and groups its eigenvectors by rint of the eigenvalue.  The list is
the masked transposition sums

    T_m = sum_{k<l} P((k l)) [slots k and l both hold letters < m],  m = 2..d,

the content sums of the level-m rows of the patterns, then the central
sum_k X_k^2 of the squared Jucys-Murphy elements X_k = sum_{j<k} P((j k)),
which parts shapes of equal content sum such as (4,1,1) and (3,3).  The
last two, T_d (every transposition) and sum_k X_k^2, are central, and
their eigenvalues label each final eigenspace with its shape;
:func:`assembly_rays` gives the three checks that certify it as a ray,
in its own block, carried or split.
Invariance is asked of the n-1 adjacent transpositions only: they
generate S_n, and a residual r on them bounds that of any pi by
l(pi) r, l(pi) <= C(n, 2) its length as a word in them.  The split
builds the C(n, 2) transposition index maps once, on the whole space;
each block reads its own from them, the first of each class builds each
refiner by one bincount of their entries, and every block runs the leak
on its rays' real vectors as one gather over the n-1 adjacent swaps.
:func:`invariance_residual` runs the same leak on the whole space, and
:func:`compressed_commutant_dimension` reads the character norm there
from class traces.

An isotypic component is the sum of its rays, counted against the
hook-content formula s_lambda(1^d).  The sector family acts on the same
blocks: E_S x is the block mean of x, E_A x = s mean(s x) with s the sign
of each word on blocks of n distinct letters and 0 elsewhere, and E_P x
the remainder.  Rays and family hold no D x k or D x D array; ``basis``
builds a ray's D x k columns on request.  The family needs n >= 2: for
one particle the sign character is trivial.
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
        # the weight block of each word, numbered by first index as weight_blocks orders them
        block = np.unique(hilbert._content_keys(config), return_inverse=True)[1]
        # multinomial(n; mu) = n! only for blocks of distinct letters
        distinct = np.flatnonzero(np.bincount(block)[block] == math.factorial(n))
        letters = np.unravel_index(distinct, (config.d,) * n)
        inversions = sum(letters[k] > letters[l] for k, l in itertools.combinations(range(n), 2))
        sign = np.zeros(config.dim)
        sign[distinct] = 1.0 - 2.0 * (inversions % 2)
        return cls(config, block, sign)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(E_S x, E_A x, E_P x) of a vector, or of each column of a matrix:
        the block mean, the sign-weighted block mean, and the remainder."""
        x = np.asarray(x, dtype=complex)
        e_s, e_a = self.symmetric(x), self.antisymmetric(x)
        return e_s, e_a, x - e_s - e_a

    def symmetric(self, x: np.ndarray) -> np.ndarray:
        """E_S x: the block mean of a vector, or of each column of a matrix."""
        return self._block_mean(np.asarray(x, dtype=complex))

    def antisymmetric(self, x: np.ndarray) -> np.ndarray:
        """E_A x = s mean(s x), s the sign of each word."""
        x = np.asarray(x, dtype=complex)
        sign = self.sign.reshape((-1,) + (1,) * (x.ndim - 1))
        return sign * self._block_mean(sign * x)

    def _block_mean(self, y: np.ndarray) -> np.ndarray:
        """Mean of y over each weight block, per column, at every index of the block."""
        column = (-1,) + (1,) * (y.ndim - 1)  # a per-word array broadcast over columns
        counts = np.bincount(self.block)
        order, starts = np.argsort(self.block, kind="stable"), np.cumsum(counts) - counts
        return (np.add.reduceat(y[order], starts) / counts.reshape(column))[self.block]

    def ranks(self) -> tuple[int, int, int]:
        """One symmetric state per block, one antisymmetric per block of n distinct letters."""
        r_s = int(self.block.max()) + 1
        r_a = int(np.count_nonzero(self.sign)) // math.factorial(self.config.n)
        return r_s, r_a, self.config.dim - r_s - r_a


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

    def compress(self, a: np.ndarray) -> np.ndarray:
        """Compression B^dagger a B of an operator onto the ray."""
        return self.vectors.T @ a[np.ix_(self.index, self.index)] @ self.vectors


@dataclass(frozen=True, eq=False)
class IsotypicComponent:
    """The lambda-isotypic component, as the direct sum of its rays."""

    config: AssemblyConfig
    shape: tuple[int, ...]
    rays: tuple[GeneralisedRay, ...] = field(repr=False)
    dim_irrep: int  # f^lambda

    @property
    def copies(self) -> int:
        return len(self.rays)

    @property
    def rank(self) -> int:
        return self.copies * self.dim_irrep


def _index_maps(config: AssemblyConfig, perms: list) -> np.ndarray:
    """Row r is the index map t of P(perms[r]) on the whole space, P(pi) e_i = e_t[i]."""
    maps = [hilbert.perm_operator(config, perm) for perm in perms]
    return np.array(maps, dtype=np.int64).reshape(len(perms), config.dim)


def _leak(vectors: np.ndarray, maps: np.ndarray) -> float:
    """Largest Frobenius norm of P v - v v^dagger P v over the rows of maps.

    P v is read as one gather v[t], which is P^-1 v: exact only for
    involutions such as the transpositions, P^-1 = P.
    """
    moved = vectors[maps]
    leak = moved - vectors @ (vectors.conj().T @ moved)
    return math.sqrt(np.max(np.einsum("sij,sij->s", leak.conj(), leak).real, initial=0.0))


def _traces(vectors: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Tr v^dagger P v for each row of maps."""
    return np.array([np.vdot(vectors[t], vectors) for t in maps])


def invariance_residual(config: AssemblyConfig, basis: np.ndarray) -> float:
    """Largest Frobenius norm, over the adjacent transpositions s = (k k+1),
    of the part of P(s) basis leaking out of span(basis).  It is at least
    the spectral norm, the largest leak of a single unit vector.

    span(basis) is S_n-invariant exactly when it is invariant under these
    generators.  The leak (I - Q) P(pi) Q, Q the projector onto the span,
    is subadditive along words because P is unitary and Q a contraction,
    so a residual r here bounds the leak of every pi by l(pi) r, where
    l(pi) <= C(n, 2) is its length as a word in adjacent transpositions.
    """
    generators = symgroup.adjacent_transpositions(config.n)
    return _leak(basis, _index_maps(config, generators))


def compressed_commutant_dimension(config: AssemblyConfig, basis: np.ndarray) -> int:
    """Dimension of the commutant of the representation of S_n compressed
    onto an invariant span(B), read from the character norm

        <chi, chi> = (1/n!) sum_C |C| |chi(C)|^2 = sum_lambda m_lambda^2,

    which is 1 exactly when the span is irreducible (Schur).  The value is
    only meaningful once :func:`invariance_residual` has certified the span.
    """
    classes = symgroup.conjugacy_classes(config.n)
    traces = _traces(basis, _index_maps(config, [c.representative for c in classes]))
    return round(float(np.array([c.size for c in classes]) @ np.abs(traces) ** 2) / math.factorial(config.n))


def _block_operators(
    config: AssemblyConfig, index: np.ndarray, swaps: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> list[np.ndarray]:
    """The refining operators of one weight block as dense real matrices
    on its words: T_2, ..., T_{d-1}, then the two central elements T_d
    (every transposition) and sum_k X_k^2.  ``pairs`` holds the 0-based
    slot pairs k < l of the transpositions (k l) in
    :func:`itertools.combinations` order, and row r of ``swaps`` is the
    block's index map of the r-th of them.  The block's letters are read
    from its own flat indices, and each T_m and X_k is one bincount of
    the entries (t[j], j) of the transpositions it keeps."""
    n, b = config.n, len(index)
    letters = np.array(np.unravel_index(index, (config.d,) * n))
    k, l = pairs
    cells = swaps * b + np.arange(b)  # flat (row, column) of P((k l)) e_j = e_t[j]
    top = np.maximum(letters[k], letters[l])  # the larger letter the swap moves

    def count(kept: np.ndarray) -> np.ndarray:
        return np.bincount(kept.reshape(-1), minlength=b * b).reshape(b, b).astype(float)

    ops = [count(cells[top < m]) for m in range(2, config.d)] + [count(cells)]
    jucys_murphy = [count(cells[l == slot]) for slot in range(1, n)]
    ops.append(sum((x @ x for x in jucys_murphy), np.zeros((b, b))))
    return ops


def _eigenspaces(ops: list[np.ndarray]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The joint eigenspaces of commuting operators with integer spectra,
    each with its labels, one rounded eigenvalue per operator: each
    operator is compressed onto the eigenspaces of the one before,
    diagonalised, and its eigenvectors grouped by rint of the eigenvalue.
    A one-column space keeps its column and takes the compression's one
    entry as its eigenvalue, as eigh of a 1 x 1 matrix returns them."""
    spaces = [((), np.eye(len(ops[0])))]
    for op in ops:
        finer = []
        for labels, v in spaces:
            m = v.T @ op @ v
            if len(m) == 1:
                finer.append((labels + (int(np.rint(m[0, 0])),), v))
                continue
            eigvals, eigvecs = np.linalg.eigh(m)
            rounded = np.rint(eigvals)  # ascending, as eigh returns them
            for r in dict.fromkeys(rounded.tolist()):  # the distinct values, ascending
                finer.append((labels + (int(r),), v @ eigvecs[:, rounded == r]))
        spaces = finer
    return spaces


def assembly_rays(config: AssemblyConfig) -> list[GeneralisedRay]:
    """All generalised rays of the assembly, grouped by partition in the
    order of :func:`permsym.symgroup.partitions`, each certified in its block.

    The weight blocks fall into classes of equal sorted letter content.
    Only the first block of each class, in :func:`permsym.hilbert.weight_blocks`
    order, is split into the joint eigenspaces of its refiners.  Relabelling
    letters commutes with permuting slots, so a relabelling sigma that maps
    each letter to a letter of equal count in the first block carries its
    rays onto every other block of the class: a word w of that block reads
    row sigma(w) of the first block's vectors, an exact reindex.

    Each final eigenspace v carries the labels of the two central refiners,
    T_d and sum_k X_k^2, which act on S^lambda as the scalars sum of
    contents and sum of contents squared; a carried ray keeps its source's.
    Its certificate, in its own block, is three checks: the pair names a
    partition lambda in :func:`permsym.symgroup.young_table` (one-to-one
    for n <= 14, so within ``N_MAX``), dim v is f^lambda by the hook-length
    formula, and the leak of span(v) on the block's n-1 adjacent swaps is
    at most EPS_ABS.  An invariant span inside one joint eigenspace of
    central elements lies in the lambda-isotypic component; with dimension
    f^lambda it is one copy of S^lambda.  A failure raises
    :class:`DecompositionError`.

    The C(n, 2) transposition maps are built once, on the whole space,
    and each block reads its own from them through the position of each
    word in its block.
    """
    return _assembly_rays(config, symgroup.young_table(config.n, config.d))


def _assembly_rays(config: AssemblyConfig, table: dict) -> list[GeneralisedRay]:
    """:func:`assembly_rays` on a Young table that :func:`all_isotypic` reads too."""
    n, grid = config.n, (config.d,) * config.n  # flat index <-> letters
    shapes = {labels: shape for shape, (labels, _, _) in table.items()}
    pairs = np.triu_indices(n, 1)  # the slot pairs k < l, in combinations order
    transpositions = [symgroup.from_cycles(n, [(k + 1, l + 1)]) for k, l in zip(*(p.tolist() for p in pairs))]
    maps = _index_maps(config, transpositions)
    adjacent = maps[pairs[1] == pairs[0] + 1]
    blocks = hilbert.weight_blocks(config)
    position = np.empty(config.dim, dtype=np.intp)  # of each word in its weight block
    for index in blocks:
        position[index] = np.arange(len(index))
    sources: dict = {}  # sorted content -> (letter counts, eigenspaces) of the class's first block
    rays: list[GeneralisedRay] = []
    for index in blocks:
        counts = np.bincount(np.unravel_index(index[0], grid), minlength=config.d)
        key = tuple(np.sort(counts))
        if key in sources:
            source_counts, source_spaces = sources[key]
            sigma = np.empty(config.d, dtype=np.intp)  # each letter to one of equal count
            sigma[np.argsort(counts, kind="stable")] = np.argsort(source_counts, kind="stable")
            rows = position[np.ravel_multi_index(sigma[np.array(np.unravel_index(index, grid))], grid)]
            spaces = [(labels, v[rows]) for labels, v in source_spaces]
        else:
            spaces = _eigenspaces(_block_operators(config, index, position[maps[:, index]], pairs))
            sources[key] = counts, spaces
        block_adjacent = position[adjacent[:, index]]
        for labels, v in spaces:
            shape = shapes.get(labels[-2:])
            want = table[shape][1] if shape else None
            residual = _leak(v, block_adjacent)
            if v.shape[1] != want or residual > EPS_ABS:
                raise DecompositionError(
                    f"a {v.shape[1]}-dimensional eigenspace is no certified ray: its central labels "
                    f"{labels[-2:]} name {shape} of dimension {want}, invariance residual {residual:.3g}"
                )
            rays.append(GeneralisedRay(config, shape, index, v))
    order = {shape: k for k, shape in enumerate(table)}
    return sorted(rays, key=lambda ray: order[ray.shape])


def all_isotypic(config: AssemblyConfig) -> list[IsotypicComponent]:
    """Every isotypic component, in the order of
    :func:`permsym.symgroup.partitions`, as the rays of
    :func:`assembly_rays` grouped by shape.  The ray count of each shape
    is checked against the hook-content formula s_lambda(1^d)."""
    table = symgroup.young_table(config.n, config.d)  # refuses n > N_MAX before any p(n) work
    rays = _assembly_rays(config, table)
    out = []
    for shape, (_, dim_irrep, want) in table.items():
        component = IsotypicComponent(config, shape, tuple(r for r in rays if r.shape == shape), dim_irrep)
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
