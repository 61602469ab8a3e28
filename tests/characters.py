"""Test oracle: exact irreducible characters of S_n by the
Murnaghan-Nakayama recursion.

The package names a ray's shape from its central labels and its
dimension by the hook-length formula; the class-sum projectors, the
tensor-power multiplicities and the character-table tests read the
characters from here, an independent route to the same integers.

Partitions are handled through their beta-numbers (first-column hook
lengths): removing a border strip of length t from the shape is the move
b -> b - t on one beta-number, legal when the target is free; the strip
height is the number of beta-numbers jumped over.
"""

from functools import lru_cache


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
