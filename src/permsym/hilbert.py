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
O(D^2) relabelling instead of a matrix product.  The symmetriser and the
test for commuting with every P(pi) live in :mod:`permsym.symmetriser`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .symgroup import Permutation

# Dense-operator budget: a complex D x D matrix takes 16 D**2 bytes, 1 GiB
# at D = 2**13; Sigma and the sector pinch each hold a few (Sigma's pair-orbit
# labels add D**2 (n + 8) bytes), the rays and the sector family none.
# Larger assemblies are refused before anything is allocated.
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


def _content_keys(config: AssemblyConfig) -> np.ndarray:
    """Each word's letters, sorted and read in base d, as int64: the flat
    index of the first word of its weight block, so below D."""
    n, d = config.n, config.d
    return d ** np.arange(n - 1, -1, -1, dtype=np.int64) @ np.sort(_letters(config), axis=0)


def weight_blocks(config: AssemblyConfig) -> list[np.ndarray]:
    """Flat indices grouped by letter content mu, ascending, blocks ordered
    by first index.  Permutations keep mu, so every operator in the image
    of C[S_n] is block-diagonal over these multinomial(n; mu)-word blocks."""
    keys = _content_keys(config)
    counts = np.unique(keys, return_counts=True)[1]
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(counts[:-1]))


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


# ---------------------------------------------------------------------------
# Born-rule pairing

def real_expectation(value: complex, tol: float = EPS_ABS) -> float:
    """Collapse a should-be-real complex scalar, guarding the residue."""
    if not (np.isfinite(value) and abs(value.imag) <= tol):
        raise NumericalIntegrityError(
            f"{value} is not finite and real within tolerance {tol}"
        )
    return float(value.real)


def expectation(state: DensityOperator | np.ndarray, obs: Observable | np.ndarray) -> float:
    """Born-rule pairing Tr(W Q)."""
    w = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
    q = obs.matrix if isinstance(obs, Observable) else np.asarray(obs)
    if w.shape != q.shape:
        raise ValueError(f"shape mismatch {w.shape} vs {q.shape}")
    _check_finite(w)
    _check_finite(q)
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

# Entries formatted together by _json_pairs; bounds the words alive at once.
JSON_CHUNK = 2**14


def _json_words(flat: np.ndarray) -> np.ndarray:
    """The word json.dumps(..., allow_nan=False) writes for each entry of a
    flat complex array, "[re, im]", as an object array of str.

    Each distinct entry, found by its bit pattern so that -0.0 and 0.0
    stay apart, is written once, with repr as json.dumps writes floats;
    NaN and inf are refused with json's own message.
    """
    distinct, inverse = np.unique(flat.view("V16"), return_inverse=True)
    values = distinct.view(np.float64).reshape(-1, 2)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return np.array([f"[{re!r}, {im!r}]" for re, im in values.tolist()], dtype=object)[inverse]


def _json_pairs(x: np.ndarray) -> list[str]:
    """The text json.dumps(..., allow_nan=False) writes for the row-major
    [[re, im], ...] list of a complex array, in pieces for one join, from
    the words of at most JSON_CHUNK entries at a time."""
    flat = np.ascontiguousarray(x, dtype=complex).reshape(-1)
    pieces = ["["]
    for start in range(0, flat.size, JSON_CHUNK):
        if start:
            pieces.append(", ")
        pieces.append(", ".join(_json_words(flat[start : start + JSON_CHUNK]).tolist()))
    pieces.append("]")
    return pieces


def matrix_to_json(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {m.ndim}")
    rows, cols = m.shape
    return "".join([f'{{"rows": {rows}, "cols": {cols}, "data": ', *_json_pairs(m), "}"])


def _integer(x) -> int:
    if type(x) is not int:  # type(), not isinstance(): JSON true and false are not integers
        raise TypeError(f"{x!r} is not an integer")
    return x


def _entries_from_json(data) -> np.ndarray:
    """[[re, im], ...] as a complex array of finite entries.

    The checks run over whole lists in C: a list of 2-item lists of JSON
    numbers (int or float by type(), so true and false are refused).
    """
    numbers = itertools.chain.from_iterable
    if (
        type(data) is not list
        or set(map(type, data)) - {list}
        or set(map(len, data)) - {2}
        or set(map(type, numbers(data))) - {int, float}
    ):
        raise ValueError("entries must be [re, im] pairs of numbers")
    try:
        parts = np.fromiter(numbers(data), dtype=float, count=2 * len(data))
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(f"entries must be [re, im] pairs of numbers: {exc}") from exc
    flat = parts.view(complex)
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


def vector_to_json(v: np.ndarray) -> str:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim {v.ndim}")
    return "".join([f'{{"length": {v.shape[0]}, "data": ', *_json_pairs(v), "}"])


def _real_json_words(flat: np.ndarray) -> np.ndarray:
    """The word json.dumps(..., allow_nan=False) writes for each entry of a
    flat float64 array read as complex, "[x, 0.0]", as an object array of
    str: each distinct real, found by its bit pattern, written once, NaN
    and inf refused as :func:`_json_words` refuses them."""
    distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    values = distinct.view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return np.array([f"[{x!r}, 0.0]" for x in values.tolist()], dtype=object)[inverse]


def rays_to_json(length: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[list[str]]:
    """For each (index, columns) pair of ``blocks``, :func:`vector_to_json`
    of each column of the length x k array that holds ``columns`` (b x k,
    real; complex columns are refused with TypeError) at the rows ``index``
    and 0 elsewhere, without building that array.

    The entries of every block and the zero go through one call of
    :func:`_real_json_words`, so an entry met in several blocks is
    formatted once; each column's text is then one join over a D-length
    line of words, the zero word off its block.
    """
    words = _real_json_words(np.concatenate([np.zeros(1), *(c.T.reshape(-1) for _, c in blocks)], dtype=float))
    line = np.full(length, words[0], dtype=object)
    texts, start = [], 1
    for index, c in blocks:
        b, k = c.shape
        block_texts = []
        for _ in range(k):
            line[index] = words[start : start + b]
            start += b
            block_texts.append(f'{{"length": {length}, "data": [{", ".join(line.tolist())}]}}')
        line[index] = words[0]
        texts.append(block_texts)
    return texts


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
