"""Symmetric group S_n: permutations, conjugacy classes, exact characters.

Permutations are stored in one-line image form, 1-indexed: ``images[k-1]``
is the image of ``k``.  Composition applies the *right* operand first,
so ``compose(p, q)(k) == p(q(k))``; every consumer of this module relies
on that convention.  Character values are exact integers computed by the
Murnaghan-Nakayama recursion, so no floating point enters until operators
are built on a Hilbert space.

Group enumeration and character tables are capped at ``N_MAX`` particles;
beyond that the factorial blow-up is outside this library's scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

N_MAX = 8


class CapabilityError(ValueError):
    """Raised when n exceeds the supported enumeration range."""


def _check_images(images: tuple[int, ...]) -> None:
    n = len(images)
    if n < 1:
        raise ValueError("permutation needs at least one point")
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {images!r}")


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line image form."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_images(self.images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"point {k} outside 1..{self.n}")
        return self.images[k - 1]

    def is_identity(self) -> bool:
        return all(self.images[k] == k + 1 for k in range(self.n))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, each starting at its smallest
        point, sorted by that point.  Fixed points are omitted."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            k = self.images[start - 1]
            while k != start:
                cyc.append(k)
                seen[k - 1] = True
                k = self.images[k - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending.

        This is a partition of n and labels the conjugacy class.
        """
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def parity(self) -> int:
        """Sign of the permutation: (-1)^(n - number of cycles)."""
        n_cycles = len(self.cycles()) + (self.n - sum(len(c) for c in self.cycles()))
        return -1 if (self.n - n_cycles) % 2 else 1

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition p after q: the result sends k to p(q(k))."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[q.images[k] - 1] for k in range(p.n)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for k, img in enumerate(p.images, start=1):
        inv[img - 1] = k
    return Permutation(tuple(inv))


def from_cycles(n: int, cycles: tuple[tuple[int, ...], ...] | list) -> Permutation:
    """Build a permutation of {1..n} from disjoint cycles."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        mine: set[int] = set()
        for k in cyc:
            if not 1 <= k <= n:
                raise ValueError(f"cycle point {k} outside 1..{n}")
            if k in mine:
                raise ValueError(f"point {k} repeats inside one cycle")
            if k in seen:
                raise ValueError(f"point {k} appears in two cycles")
            mine.add(k)
        seen |= mine
        for i, k in enumerate(cyc):
            images[k - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def _points(body: str, text: str) -> tuple[int, ...]:
    """The integers of ``body``, a comma- or space-separated list taken
    from the permutation ``text`` that an error quotes."""
    points = []
    for tok in body.replace(",", " ").split():
        try:
            points.append(int(tok))
        except ValueError:
            raise ValueError(f"{tok!r} is not a point in {text!r}") from None
    return tuple(points)


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse ``[2,3,1]`` (one-line images) or ``(1 2 3)(4 5)`` (cycles).

    Cycle form needs ``n`` when trailing points are fixed; image form
    carries its own length.
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unbalanced image list: {text!r}")
        body = text[1:-1].strip()
        if not body:
            raise ValueError("empty image list")
        p = Permutation(_points(body, text))
        if n is not None and p.n != n:
            raise ValueError(f"expected a permutation of 1..{n}, got 1..{p.n}")
        return p
    if text.startswith("("):
        cycles = []
        rest = text
        while rest:
            rest = rest.strip()
            if not rest:
                break
            if not rest.startswith("("):
                raise ValueError(f"bad cycle form: {text!r}")
            close = rest.find(")")
            if close < 0:
                raise ValueError(f"unbalanced cycle form: {text!r}")
            body = rest[1:close]
            if "(" in body:
                raise ValueError(f"nested cycle form: {text!r}")
            pts = _points(body, text)
            if pts:
                cycles.append(pts)
            rest = rest[close + 1 :]
        size = n if n is not None else max((max(c) for c in cycles), default=1)
        return from_cycles(size, cycles)
    raise ValueError(f"unrecognised permutation form: {text!r}")


def format_images(p: Permutation) -> str:
    return "[" + ",".join(str(k) for k in p.images) + "]"


def format_cycles(p: Permutation) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(k) for k in c) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# group enumeration and conjugacy classes

def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > N_MAX:
        raise CapabilityError(f"n = {n} exceeds supported maximum {N_MAX}")


def all_permutations(n: int) -> list[Permutation]:
    _check_n(n)
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


def adjacent_transpositions(n: int) -> list[Permutation]:
    """(k k+1) for k = 1..n-1.  They generate S_n, so whatever each of them
    fixes, every permutation fixes; no enumeration and no cap on n."""
    return [from_cycles(n, [(k, k + 1)]) for k in range(1, n)]


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples, in descending lex order
    ([n] first, [1,...,1] last)."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def class_size(cycle_type: tuple[int, ...]) -> int:
    """Number of permutations with the given cycle type:
    n! / prod_k (k^(m_k) * m_k!) with m_k the multiplicity of part k."""
    n = sum(cycle_type)
    denom = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        denom *= length**m * math.factorial(m)
    return math.factorial(n) // denom


@dataclass(frozen=True)
class ConjugacyClass:
    cycle_type: tuple[int, ...]
    size: int
    representative: Permutation


def conjugacy_classes(n: int) -> list[ConjugacyClass]:
    """Conjugacy classes of S_n keyed by cycle type, identity class first
    (ascending lex order on the cycle type read as a tuple)."""
    _check_n(n)
    out = []
    for ct in sorted(partitions(n)):
        # canonical representative: consecutive cycles of the given lengths
        cycles = []
        start = 1
        for length in ct:
            if length > 1:
                cycles.append(tuple(range(start, start + length)))
            start += length
        out.append(ConjugacyClass(ct, class_size(ct), from_cycles(n, cycles)))
    return out


# ---------------------------------------------------------------------------
# characters via the Murnaghan-Nakayama recursion
#
# Partitions are handled through their beta-numbers (first-column hook
# lengths): removing a border strip of length t from the shape is the move
# b -> b - t on one beta-number, legal when the target is free; the strip
# height is the number of beta-numbers jumped over.

def _beta_numbers(shape: tuple[int, ...]) -> list[int]:
    m = len(shape)
    return [shape[i] + (m - 1 - i) for i in range(m)]


def _shape_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    m = len(beta)
    shape = tuple(beta[i] - (m - 1 - i) for i in range(m))
    return tuple(part for part in shape if part > 0)


def _strip_removals(shape: tuple[int, ...], length: int):
    beta = _beta_numbers(shape)
    occupied = set(beta)
    for b in beta:
        target = b - length
        if target < 0 or target in occupied:
            continue
        crossed = sum(1 for x in beta if target < x < b)
        sign = -1 if crossed % 2 else 1
        yield sign, _shape_from_beta([target if x == b else x for x in beta])


@lru_cache(maxsize=None)
def character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Irreducible character of S_n: chi_shape evaluated on the class with
    the given cycle type.  Exact integer."""
    if sum(shape) != sum(cycle_type):
        raise ValueError(f"shape {shape} and cycle type {cycle_type} partition different n")
    if list(shape) != sorted(shape, reverse=True) or (shape and shape[-1] < 1):
        raise ValueError(f"not a partition: {shape}")
    if not shape:
        return 1
    head, rest = cycle_type[0], cycle_type[1:]
    return sum(sign * character(sub, rest) for sign, sub in _strip_removals(shape, head))


def irrep_dimension(shape: tuple[int, ...]) -> int:
    """Dimension of the irrep labelled by the partition: chi on the identity."""
    n = sum(shape)
    return character(shape, (1,) * n)


def schur_at_ones(shape: tuple[int, ...], d: int) -> int:
    """s_shape(1^d): the number of semistandard tableaux of the shape with
    entries in 1..d, which is the multiplicity of the irrep in (C^d)^{x n},
    by the hook-content formula prod over boxes (d + content) / hook."""
    num = den = 1
    for i, part in enumerate(shape):
        for j in range(part):
            below = sum(1 for other in shape[i + 1 :] if other > j)
            num *= d + j - i
            den *= part - j + below
    return num // den


@dataclass(frozen=True)
class CharacterTable:
    """Exact character table of S_n.

    Rows are irreps labelled by partitions of n (descending lex order,
    trivial [n] first); columns are conjugacy classes (identity first).
    """

    n: int
    irrep_labels: tuple[tuple[int, ...], ...]
    class_types: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]  # values[i][j] = chi_{label i}(class j)


def character_table(n: int) -> CharacterTable:
    _check_n(n)
    labels = tuple(partitions(n))
    classes = conjugacy_classes(n)
    types = tuple(c.cycle_type for c in classes)
    sizes = tuple(c.size for c in classes)
    values = tuple(tuple(character(lam, ct) for ct in types) for lam in labels)
    return CharacterTable(n, labels, types, sizes, values)
