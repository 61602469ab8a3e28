"""n-particle Hilbert space with permutation operators.

The assembly space is the n-fold tensor power of a d-dimensional local
space, dimension D = d**n.  Product basis indexing is row-major with slot 1
most significant: the basis vector labelled by letters (i_1, ..., i_n) sits
at flat index sum_k i_k * d**(n-k).

A permutation pi acts by moving the state of slot k to slot pi(k):

    P(pi) (v_1 x ... x v_n) = w_1 x ... x w_n,   w_{pi(k)} = v_k,

so output slot m carries input slot pi^{-1}(m).  With the composition
convention of :mod:`permsym.symgroup` this makes pi -> P(pi) a group
homomorphism, P(p compose q) = P(p) P(q).

All operators here are dense complex numpy arrays, except P(pi), which is
kept as its basis index map: applying or conjugating by it is an O(D) /
O(D^2) relabelling instead of a matrix product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import symgroup
from .symgroup import Permutation

# Dense-operator budget: a complex D x D matrix takes 16 D**2 bytes, 1 GiB
# at D = 2**13; Sigma, the sector pinch and family() each hold a few (Sigma's
# pair-orbit labels add D**2 (n + 8) bytes), the rays and the sector family
# none.  Larger assemblies are refused before anything is allocated.
DIM_CAP = 2**13
EPS_NORM = 1e-10
EPS_ABS = 1e-10


class NumericalIntegrityError(RuntimeError):
    """A quantity that must be real (up to tolerance) came out complex."""


@dataclass(frozen=True)
class AssemblyConfig:
    """n identical subsystems of local dimension d."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1 subsystems, got {self.n}")
        if self.d < 1:
            raise ValueError(f"need local dimension d >= 1, got {self.d}")
        if self.d**self.n > DIM_CAP:
            raise ValueError(
                f"assembly dimension {self.d}**{self.n} exceeds cap {DIM_CAP}"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    def flat_index(self, letters: Sequence[int]) -> int:
        if len(letters) != self.n:
            raise ValueError(f"expected {self.n} letters, got {len(letters)}")
        idx = 0
        for i in letters:
            if not 0 <= i < self.d:
                raise ValueError(f"letter {i} outside 0..{self.d - 1}")
            idx = idx * self.d + i
        return idx

    def letters(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        out = []
        for _ in range(self.n):
            index, rem = divmod(index, self.d)
            out.append(rem)
        return tuple(reversed(out))


def _check_finite(x: np.ndarray) -> None:
    # NaN passes every tolerance comparison, so it is refused here
    if not np.isfinite(x).all():
        raise ValueError("input has non-finite entries (NaN or infinity)")


def _as_square(config: AssemblyConfig, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (config.dim, config.dim):
        raise ValueError(f"expected shape {(config.dim, config.dim)}, got {m.shape}")
    _check_finite(m)
    return m


def _as_vector(config: AssemblyConfig, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (config.dim,):
        raise ValueError(f"expected shape {(config.dim,)}, got {v.shape}")
    _check_finite(v)
    return v


def selfadjoint_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized vector on the assembly space."""

    config: AssemblyConfig
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = _as_vector(self.config, self.amplitudes)
        object.__setattr__(self, "amplitudes", v)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > EPS_NORM:
            raise ValueError(f"state vector norm {norm} is not 1 within {EPS_NORM}")

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class Observable:
    """Self-adjoint operator on the assembly space."""

    config: AssemblyConfig
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = _as_square(self.config, self.matrix)
        object.__setattr__(self, "matrix", m)
        res = selfadjoint_residual(m)
        if res > EPS_ABS:
            raise ValueError(f"observable self-adjointness residual {res} > {EPS_ABS}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Self-adjoint, positive semidefinite, unit-trace operator."""

    config: AssemblyConfig
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = _as_square(self.config, self.matrix)
        object.__setattr__(self, "matrix", m)
        res = selfadjoint_residual(m)
        if res > EPS_ABS:
            raise ValueError(f"density self-adjointness residual {res} > {EPS_ABS}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > EPS_ABS:
            raise ValueError(f"density trace {tr} is not 1 within {EPS_ABS}")
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < -EPS_ABS:
            raise ValueError(f"density has negative eigenvalue {lo}")

    @classmethod
    def from_mixture(
        cls, weighted: Iterable[tuple[float, StateVector]]
    ) -> "DensityOperator":
        """Density operator sum_i w_i |psi_i><psi_i| from weights and states."""
        weighted = list(weighted)
        if not weighted:
            raise ValueError("empty mixture")
        config = weighted[0][1].config
        m = np.zeros((config.dim, config.dim), dtype=complex)
        for w, psi in weighted:
            if psi.config != config:
                raise ValueError("mixture mixes different assembly configs")
            if w < -EPS_ABS:
                raise ValueError(f"negative mixture weight {w}")
            m += w * psi.projector()
        return cls(config, m)


def product_state(config: AssemblyConfig, factors: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of per-slot local vectors, slot 1 first (leftmost factor
    is most significant in the flat index)."""
    if len(factors) != config.n:
        raise ValueError(f"expected {config.n} factors, got {len(factors)}")
    out = np.ones(1, dtype=complex)
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.shape != (config.d,):
            raise ValueError(f"factor shape {f.shape} is not ({config.d},)")
        norm = float(np.linalg.norm(f))
        if norm <= EPS_NORM:
            raise ValueError("zero local factor gives no state")
        out = np.kron(out, f / norm)
    return StateVector(config, out)


def basis_state(config: AssemblyConfig, letters: Sequence[int]) -> StateVector:
    v = np.zeros(config.dim, dtype=complex)
    v[config.flat_index(letters)] = 1.0
    return StateVector(config, v)


def _letters(config: AssemblyConfig) -> np.ndarray:
    """letters[k, i] = the letter in slot k+1 of the word at flat index i,
    held in the smallest unsigned type that also holds d**2."""
    n, d = config.n, config.d
    return np.indices((d,) * n, dtype=np.min_scalar_type(d * d)).reshape(n, config.dim)


def weight_blocks(config: AssemblyConfig) -> list[np.ndarray]:
    """Flat indices grouped by letter content mu, ascending, blocks ordered
    by first index.  Permutations keep mu, so every operator in the image
    of C[S_n] is block-diagonal over these multinomial(n; mu)-word blocks."""
    counts = (_letters(config)[:, :, None] == np.arange(config.d)).sum(axis=0)
    _, first, block = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    block = block.reshape(-1)
    return [np.flatnonzero(block == b) for b in np.argsort(first)]


# ---------------------------------------------------------------------------
# permutation operators

def perm_operator(config: AssemblyConfig, perm: Permutation) -> np.ndarray:
    """P(pi) as its basis index map t, P(pi) e_i = e_t[i].

    Index axis k of the tensor of flat indices by the output slot pi(k):
    entry (i_1, ..., i_n) of the transpose is then the index of the word w
    with w_{pi(k)} = i_k.  Reading a vector or matrix through t undoes
    P(pi): (P^-1 v)[i] = v[t[i]] and (P^-1 A P)[i, j] = A[t[i], t[j]].
    """
    if perm.n != config.n:
        raise ValueError(f"permutation of 1..{perm.n} on an n={config.n} assembly")
    flat = np.arange(config.dim, dtype=np.int64).reshape((config.d,) * config.n)
    return flat.transpose([image - 1 for image in perm.images]).reshape(-1)


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
    a = _as_square(config, a)
    maps = (perm_operator(config, s) for s in symgroup.adjacent_transpositions(config.n))
    return all(float(np.max(np.abs(a[np.ix_(t, t)] - a))) <= tol for t in maps)


def _pair_orbit_labels(config: AssemblyConfig) -> np.ndarray:
    """Label of the S_n-orbit of every index pair (i, j), flat in row-major
    (i, j) order.

    A permutation moves the pair letters i_k * d + j_k between slots, so
    the orbit of (i, j) is fixed by their sorted list, read here as a
    base-d**2 number.  Labels are below D**2 <= DIM_CAP**2 = 2**26.
    """
    n, d, dim = config.n, config.d, config.dim
    letters = _letters(config)
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
    a = _as_square(config, a)
    label = _pair_orbit_labels(config)
    orbit_size = np.bincount(label)[label]
    out = np.empty(a.size, dtype=complex)
    out.real = np.bincount(label, weights=a.real.reshape(-1))[label] / orbit_size
    out.imag = np.bincount(label, weights=a.imag.reshape(-1))[label] / orbit_size
    return out.reshape(a.shape)


# ---------------------------------------------------------------------------
# Born-rule pairing

def real_expectation(value: complex, tol: float = EPS_ABS) -> float:
    """Collapse a should-be-real complex scalar, guarding the residue."""
    if abs(value.imag) > tol:
        raise NumericalIntegrityError(
            f"imaginary residue {value.imag} exceeds tolerance {tol}"
        )
    return float(value.real)


def expectation(state: DensityOperator | np.ndarray, obs: Observable | np.ndarray) -> float:
    """Born-rule pairing Tr(W Q)."""
    w = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
    q = obs.matrix if isinstance(obs, Observable) else np.asarray(obs)
    if w.shape != q.shape:
        raise ValueError(f"shape mismatch {w.shape} vs {q.shape}")
    return real_expectation(complex(np.sum(w.T * q)))


# ---------------------------------------------------------------------------
# seeded sampling (fixed seed => identical draws across runs)

def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_observable(config: AssemblyConfig, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(config.dim, config.dim)) + 1j * rng.normal(
        size=(config.dim, config.dim)
    )
    return (m + m.conj().T) / 2.0


def random_density(config: AssemblyConfig, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(config.dim, config.dim)) + 1j * rng.normal(
        size=(config.dim, config.dim)
    )
    w = m @ m.conj().T
    return w / np.trace(w).real


def random_state(config: AssemblyConfig, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON forms: complex matrices and vectors with exact float round-trip.
# Floats serialise via repr (shortest round-trip decimal), so
# serialise -> parse -> serialise is byte-identical.

def _pairs(x: np.ndarray) -> list[list[float]]:
    """[[re, im], ...] of a flat complex array, as Python floats."""
    return np.stack([x.real, x.imag], -1).tolist()


def matrix_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": _pairs(m.reshape(-1))}


def matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(matrix_obj(m), allow_nan=False)


def _number(x) -> float:
    if type(x) not in (int, float):  # JSON true and false are not numbers
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _integer(x) -> int:
    if type(x) is not int:  # type(), not isinstance(): JSON true and false are not integers
        raise TypeError(f"{x!r} is not an integer")
    return x


def _entries_from_json(data) -> np.ndarray:
    """[[re, im], ...] as a complex array of finite entries."""
    try:
        flat = np.array([complex(_number(re), _number(im)) for re, im in data], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entries must be [re, im] pairs of numbers: {exc}") from exc
    _check_finite(flat)
    return flat


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        rows, cols, data = _integer(obj["rows"]), _integer(obj["cols"]), obj["data"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad matrix JSON: {exc}") from exc
    flat = _entries_from_json(data)
    if rows < 0 or cols < 0 or flat.size != rows * cols:
        raise ValueError(f"matrix JSON claims {rows}x{cols} but has {flat.size} entries")
    return flat.reshape(rows, cols)


def vector_obj(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim {v.ndim}")
    return {"length": v.shape[0], "data": _pairs(v)}


def vector_to_json(v: np.ndarray) -> str:
    return json.dumps(vector_obj(v), allow_nan=False)


def vector_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        length, data = _integer(obj["length"]), obj["data"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad vector JSON: {exc}") from exc
    flat = _entries_from_json(data)
    if flat.size != length:
        raise ValueError(f"vector JSON claims length {length} but has {flat.size} entries")
    return flat
