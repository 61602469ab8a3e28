"""Test oracle: the JSON forms of complex arrays, one Python float pair per
entry.

The package writes each distinct entry once and joins the words; these
helpers build the same objects entry by entry, for ``json.dumps`` to
write.  They also craft inputs the package writers refuse, such as NaN
entries, which ``json.dumps`` writes as a bare literal.
"""

import numpy as np

from permsym import hilbert, sectors


def pairs(x: np.ndarray) -> list[list[float]]:
    """[[re, im], ...] of a complex array, row-major, one float() per part."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(x, dtype=complex).reshape(-1)]


def matrix_obj(m: np.ndarray) -> dict:
    rows, cols = np.shape(m)
    return {"rows": rows, "cols": cols, "data": pairs(m)}


def vector_obj(v: np.ndarray) -> dict:
    return {"length": len(v), "data": pairs(v)}


def decompose_report(n: int, d: int) -> dict:
    """The ``decompose --json`` report, with every ray vector written densely."""
    config = hilbert.AssemblyConfig(n, d)
    isotypic = sectors.all_isotypic(config)
    ranks = {comp.shape: comp.rank for comp in isotypic}
    r_s, r_a = ranks[(n,)], ranks[(1,) * n]
    return {
        "command": "decompose",
        "n": n,
        "d": d,
        "seed": None,
        "tolerance": hilbert.EPS_ABS,
        "ranks": {"symmetric": r_s, "antisymmetric": r_a, "para": config.dim - r_s - r_a},
        "components": [
            {
                "partition": list(comp.shape),
                "rank": comp.rank,
                "irrep_dimension": comp.dim_irrep,
                "copies": comp.copies,
                "rays": [
                    {"dim": ray.dim, "vectors": [vector_obj(column) for column in ray.basis.T]}
                    for ray in comp.rays
                ],
            }
            for comp in isotypic
        ],
    }
