"""Reference computations and answer checks for the benchmark.

Nothing here imports permsym.  Every expected value is computed from the
mathematics by a route the program does not take:

* sector and isotypic ranks from closed forms: binomials for the
  symmetric and antisymmetric sectors, and f^lambda * s_lambda(1^d) from
  the hook-length and hook-content formulas for each partition;
* permutation operators as transpositions of tensor axes, never as index
  maps;
* Sigma(A) as the orbit average over those transpositions;
* E_S and E_A from the symmetrised and antisymmetrised occupation-number
  bases;
* irreducibility from the character norm over conjugacy classes, and the
  partition label from the content formula for a transposition;
* model permutes by relabelling, and orbit counts from OEIS A000595.

Each ``check_*`` function returns a list of problems; an empty list means
the answer is correct.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# binary relations on n unlabelled points, n = 0..4 (OEIS A000595)
A000595 = (1, 2, 10, 104, 3044)

TOL_MATRIX = 1e-10  # entrywise, for O(1) operators built in two orders
TOL_BASIS = 1e-9  # orthonormality and invariance of certified rays
TOL_CHAR = 1e-6  # character sums, relative to n!


# ---------------------------------------------------------------------------
# partitions, hooks and contents

def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as descending tuples."""
    out = []

    def gen(remaining: int, cap: int, head: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(head)
            return
        for part in range(min(cap, remaining), 0, -1):
            gen(remaining - part, part, head + (part,))

    gen(n, n, ())
    return out


def _cells(shape: tuple[int, ...]):
    for i, row in enumerate(shape):
        for j in range(row):
            yield i, j


def hook_lengths(shape: tuple[int, ...]) -> list[int]:
    conj = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    return [(shape[i] - j) + (conj[j] - i) - 1 for i, j in _cells(shape)]


def irrep_dimension(shape: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula."""
    return math.factorial(sum(shape)) // math.prod(hook_lengths(shape))


def schur_at_ones(shape: tuple[int, ...], d: int) -> int:
    """s_lambda(1^d) by the hook-content formula: prod (d + c(u)) / h(u)."""
    num = math.prod(d + (j - i) for i, j in _cells(shape))
    value = Fraction(num, math.prod(hook_lengths(shape)))
    if value.denominator != 1:
        raise ArithmeticError(f"hook-content quotient {value} for {shape} is not whole")
    return int(value)


def transposition_character(shape: tuple[int, ...]) -> Fraction:
    """chi_lambda of a transposition: f^lambda * (sum of contents) / C(n, 2)."""
    n = sum(shape)
    contents = sum(j - i for i, j in _cells(shape))
    return Fraction(irrep_dimension(shape) * contents, math.comb(n, 2))


def sector_ranks(n: int, d: int) -> tuple[int, int, int]:
    sym = math.comb(n + d - 1, n)
    anti = math.comb(d, n)
    return sym, anti, d**n - sym - anti


def conjugacy_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(representative images, class size) for each cycle type of S_n."""
    out = []
    for cycle_type in partitions(n):
        images = list(range(1, n + 1))
        start = 1
        for length in cycle_type:
            for k in range(length):
                images[start + k - 1] = start + (k + 1) % length
            start += length
        size = math.factorial(n)
        for length in set(cycle_type):
            m = cycle_type.count(length)
            size //= length**m * math.factorial(m)
        out.append((tuple(images), size))
    return out


# ---------------------------------------------------------------------------
# permutations as tensor transpositions

def _axes(images: tuple[int, ...]) -> list[int]:
    """Output slot m carries input slot pi^{-1}(m)."""
    inv = [0] * len(images)
    for k, img in enumerate(images):
        inv[img - 1] = k
    return inv


def permute_rows(x: np.ndarray, n: int, d: int, images: tuple[int, ...]) -> np.ndarray:
    """P(pi) x for a vector or a D x k block of columns."""
    tail = x.shape[1:]
    t = x.reshape((d,) * n + tail)
    axes = _axes(images) + list(range(n, n + len(tail)))
    return np.ascontiguousarray(t.transpose(axes)).reshape(x.shape)


def adjacent_swap(n: int, k: int) -> tuple[int, ...]:
    """The Coxeter generator (k k+1), 1-indexed."""
    images = list(range(1, n + 1))
    images[k - 1], images[k] = k + 1, k
    return tuple(images)


def orbit_average(a: np.ndarray, n: int, d: int) -> np.ndarray:
    """Sigma(A) = (1/n!) sum_pi P(pi) A P(pi)^dagger by axis transposition."""
    dim = d**n
    t = np.asarray(a, dtype=complex).reshape((d,) * (2 * n))
    acc = np.zeros_like(t)
    for images in itertools.permutations(range(1, n + 1)):
        axes = _axes(images)
        acc += t.transpose(axes + [n + a for a in axes])
    return acc.reshape(dim, dim) / math.factorial(n)


def _flat(word: tuple[int, ...], d: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * d + letter
    return idx


def _sign(word: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def occupation_projectors(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_S, E_A) as sums of projectors onto the symmetrised and
    antisymmetrised occupation-number basis vectors.  Cached: callers must
    not write to the arrays."""
    dim = d**n
    sym_cols = []
    for content in itertools.combinations_with_replacement(range(d), n):
        words = set(itertools.permutations(content))
        v = np.zeros(dim, dtype=complex)
        for w in words:
            v[_flat(w, d)] = 1.0
        sym_cols.append(v / math.sqrt(len(words)))
    anti_cols = []
    for content in itertools.combinations(range(d), n):
        v = np.zeros(dim, dtype=complex)
        for w in itertools.permutations(content):
            v[_flat(w, d)] = _sign(w)
        anti_cols.append(v / math.sqrt(math.factorial(n)))

    def proj(cols: list[np.ndarray]) -> np.ndarray:
        if not cols:
            return np.zeros((dim, dim), dtype=complex)
        b = np.stack(cols, axis=1)
        return b @ b.conj().T

    return proj(sym_cols), proj(anti_cols)


def random_symmetric_state(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """A random normalised vector of the symmetric sector."""
    e_s, _ = occupation_projectors(n, d)
    v = e_s @ (rng.normal(size=d**n) + 1j * rng.normal(size=d**n))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON forms read back from the command line

def matrix_from_obj(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def vector_from_obj(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=float).reshape(-1, 2)
    return data[:, 0] + 1j * data[:, 1]


def matrix_obj(m: np.ndarray) -> dict:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def vector_obj(v: np.ndarray) -> dict:
    return {"length": v.shape[0], "data": [[float(z.real), float(z.imag)] for z in v]}


def _close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{what}: off by {err:.3g} > {tol:g}"]


# ---------------------------------------------------------------------------
# decompose

def check_decompose(n: int, d: int, report: dict) -> list[str]:
    """Ranks, ray counts and dimensions from the closed forms; ray bases
    orthonormal, spanning, invariant under every adjacent swap,
    irreducible by the character norm, and labelled by the right
    partition through the transposition character."""
    problems = []
    dim = d**n
    want = dict(zip(("symmetric", "antisymmetric", "para"), sector_ranks(n, d)))
    if report.get("ranks") != want:
        problems.append(f"{n}x{d} sector ranks {report.get('ranks')}, expected {want}")
    comps = {tuple(c["partition"]): c for c in report.get("components", [])}
    if sorted(comps) != sorted(partitions(n)) or len(comps) != len(report["components"]):
        return problems + [f"{n}x{d} partitions {sorted(comps)} are not those of {n}"]

    classes = conjugacy_classes(n)
    swap = adjacent_swap(n, 1)
    columns = []
    for shape, comp in comps.items():
        f, s = irrep_dimension(shape), schur_at_ones(shape, d)
        label = f"{n}x{d} {list(shape)}"
        got = (comp["rank"], comp["irrep_dimension"], comp["copies"], len(comp["rays"]))
        if got != (f * s, f, s, s):
            problems.append(f"{label}: rank/dim/copies/rays {got}, expected {(f * s, f, s, s)}")
            continue
        for r, ray in enumerate(comp["rays"]):
            where = f"{label} ray {r}"
            if ray["dim"] != f or len(ray["vectors"]) != f:
                problems.append(f"{where}: dimension {ray['dim']}, expected {f}")
                continue
            b = np.stack([vector_from_obj(v) for v in ray["vectors"]], axis=1)
            if b.shape[0] != dim:
                problems.append(f"{where}: vectors of length {b.shape[0]}, expected {dim}")
                continue
            columns.append(b)
            proj = b @ b.conj().T
            for k in range(1, n):
                moved = permute_rows(b, n, d, adjacent_swap(n, k))
                leak = float(np.max(np.abs(moved - proj @ moved)))
                if leak > TOL_BASIS:
                    problems.append(f"{where}: leaks {leak:.3g} under swap ({k} {k + 1})")
                    break
            else:
                norm = sum(
                    size * abs(np.trace(b.conj().T @ permute_rows(b, n, d, rep))) ** 2
                    for rep, size in classes
                )
                order = math.factorial(n)
                if abs(norm - order) > TOL_CHAR * order:
                    problems.append(f"{where}: character norm {norm:.6g}, expected {order}")
                chi = np.trace(b.conj().T @ permute_rows(b, n, d, swap)).real
                if abs(chi - float(transposition_character(shape))) > TOL_BASIS:
                    problems.append(f"{where}: transposition character {chi:.6g} is not that of {shape}")
    if columns and not problems:
        v = np.concatenate(columns, axis=1)
        if v.shape[1] != dim:
            problems.append(f"{n}x{d}: rays span {v.shape[1]} dimensions, expected {dim}")
        else:
            problems += _close(v.conj().T @ v, np.eye(dim), TOL_BASIS, f"{n}x{d} ray bases Gram matrix")
    return problems


# ---------------------------------------------------------------------------
# queries

def check_symmetrise(n: int, d: int, a: np.ndarray, got: np.ndarray) -> list[str]:
    return _close(got, orbit_average(a, n, d), TOL_MATRIX, f"Sigma at {n}x{d}")


def check_superselect(n: int, d: int, w: np.ndarray, got: np.ndarray) -> list[str]:
    e_s, e_a = occupation_projectors(n, d)
    e_p = np.eye(d**n) - e_s - e_a
    want = sum(e @ w @ e for e in (e_s, e_a, e_p))
    return _close(got, want, TOL_MATRIX, f"superselect at {n}x{d}")


def check_classify(n: int, d: int, v: np.ndarray, report: dict, tol: float) -> list[str]:
    e_s, e_a = occupation_projectors(n, d)
    ws = float(np.linalg.norm(e_s @ v) ** 2)
    wa = float(np.linalg.norm(e_a @ v) ** 2)
    wp = float(np.linalg.norm(v - e_s @ v - e_a @ v) ** 2)
    weights = report["weights"]
    got = np.array([weights["symmetric"], weights["antisymmetric"], weights["para"]])
    problems = _close(got, np.array([ws, wa, wp]), TOL_MATRIX, f"classify weights at {n}x{d}")
    label = "skew"
    for name, weight in (("bosonic", ws), ("fermionic", wa), ("paraparticle", wp)):
        if weight >= 1.0 - tol:
            label = name
            break
    if report["label"] != label:
        problems.append(f"classify label {report['label']!r} at {n}x{d}, expected {label!r}")
    return problems


def check_identities(report: dict, samples: int) -> list[str]:
    tol = report["tolerance"]
    ok = (
        report["pass"] is True
        and report["samples"] == samples
        and 0.0 <= report["max_residual_a"] <= tol
        and 0.0 <= report["max_residual_b"] <= tol
    )
    return [] if ok else [f"verify-identities report {report}"]


def coin_fractions(measure: str) -> dict[str, str]:
    """Exact toss statistics from counting two-coin basis states."""
    letters = "HT"
    if measure == "maxwell_boltzmann":
        words = ["".join(w) for w in itertools.product(letters, repeat=2)]
        return {w: str(Fraction(1, len(words))) for w in words}
    if measure == "bose":
        states = list(itertools.combinations_with_replacement(letters, 2))
    else:
        states = list(itertools.combinations(letters, 2))
    share = Fraction(1, len(states))
    out = {"HH": Fraction(0), "mixed": Fraction(0), "TT": Fraction(0)}
    for a, b in states:
        out["mixed" if a != b else a + b] += share
    return {k: str(v) for k, v in out.items()}


def check_bloch_point(xi: complex, eta: complex, report: dict) -> list[str]:
    """Ratio coordinates z = (xi - eta)/(xi + eta), p = 1/(1 + |z|^2)."""
    z = (xi - eta) / (xi + eta)
    p = 1.0 / (1.0 + abs(z) ** 2)
    q = z * p
    want = {
        "z": [z.real, z.imag],
        "p": p,
        "q": [q.real, q.imag],
        "height": 2 * p,
        "planar": [2 * q.real, 2 * q.imag],
    }
    problems = []
    for key, value in want.items():
        problems += _close(np.array(report[key], dtype=float), np.array(value), 1e-12, f"bloch {key}")
    if report["pure"] is not True or report["symmetric"] != (abs(q) <= report["tolerance"]):
        problems.append(f"bloch pure/symmetric flags {report['pure']}, {report['symmetric']}")
    return problems


def check_bloch_sweep(steps: int, text: str) -> list[str]:
    """Each grid row lies on the sphere: p = cos^2(theta/2), |q|^2 = p(1-p)."""
    lines = text.splitlines()
    if len(lines) != steps * steps + 1:
        return [f"bloch sweep has {len(lines) - 1} rows, expected {steps * steps}"]
    problems = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        theta, phi = float(cells[0]), float(cells[1])
        want_theta = math.pi * (i // steps) / (steps - 1)
        want_phi = 2.0 * math.pi * (i % steps) / steps
        p, re_q, im_q, height = (float(cells[k]) for k in (4, 5, 6, 9))
        err = max(
            abs(theta - want_theta),
            abs(phi - want_phi),
            abs(p - math.cos(theta / 2) ** 2),
            abs(re_q**2 + im_q**2 - p * (1 - p)),
            abs(height - 2 * p),
        )
        if err > 1e-12:
            problems.append(f"bloch sweep row {i}: off the sphere by {err:.3g}")
            break
    return problems


# ---------------------------------------------------------------------------
# finite models, as (domain tuple, {name: (arity, frozenset of tuples)})

def model_key(domain, relations) -> tuple:
    return (
        tuple(domain),
        tuple(sorted((name, arity, frozenset(map(tuple, tuples))) for name, (arity, tuples) in relations.items())),
    )


def key_from_obj(obj: dict) -> tuple:
    return model_key(
        obj["domain"],
        {name: (spec["arity"], spec["tuples"]) for name, spec in obj["relations"].items()},
    )


def relabel(key: tuple, images: tuple[int, ...]) -> tuple:
    """The permute: name k of the domain goes to name images[k]."""
    domain, rels = key
    rename = {domain[k]: domain[images[k] - 1] for k in range(len(domain))}
    return (
        domain,
        tuple((name, arity, frozenset(tuple(rename[x] for x in t) for t in tuples)) for name, arity, tuples in rels),
    )


def orbit(key: tuple) -> set:
    size = len(key[0])
    return {relabel(key, images) for images in itertools.permutations(range(1, size + 1))}


def check_permutes(model: tuple, got: list[tuple]) -> list[str]:
    want = orbit(model)
    if len(got) != len(set(got)) or set(got) != want:
        return [f"permutes: {len(set(got))} models, expected the orbit of {len(want)}"]
    return []


def check_gpc(space: list[tuple], selection: dict[str, list[int]], report: dict) -> list[str]:
    """Permutable iff every selected set is closed under relabelling;
    fixity iff every selected model is fixed by every relabelling."""
    chosen = [{space[i] for i in idxs} for idxs in selection.values()]
    permutable = all(orbit(m) <= sel for sel in chosen for m in sel)
    fixed = all(len(orbit(m)) == 1 for sel in chosen for m in sel)
    want = {"permutable": permutable, "fixity": fixed, "gpc_consistent": permutable or not fixed}
    got = {k: report[k] for k in want}
    return [] if got == want else [f"gpc {got}, expected {want}"]


def check_hits(got: list[int], want: list[int], what: str) -> list[str]:
    """The models satisfying a description, by index, against the expected set."""
    return [] if sorted(got) == sorted(want) else [f"{what} satisfied by {sorted(got)}, expected {sorted(want)}"]


def fully_symmetric_binary(size: int) -> int:
    """Models of one binary relation fixed by every relabelling: loops all
    or none, and for two or more points, other pairs all or none."""
    return 2 if size == 1 else 4


def check_orbit_count(size: int, count: int) -> list[str]:
    want = A000595[size]
    return [] if count == want else [f"{count} permute classes on {size} points, expected {want}"]


def check_fixed_count(size: int, *counts: int) -> list[str]:
    want = fully_symmetric_binary(size)
    return [] if all(c == want for c in counts) else [f"fully symmetric counts {counts} on {size} points, expected {want}"]
