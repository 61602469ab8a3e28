"""Sector projectors, isotypic components, irreducible rays from weight blocks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from characters import character
from permsym import hilbert as hb
from permsym import sectors as sec
from permsym import symgroup as sg
from permsym import symmetriser as sym

# closed forms: bosonic rank C(d+n-1, n), fermionic rank C(d, n)
SECTOR_RANK_CASES = [
    # (n, d, sym, anti)
    (2, 2, 3, 1),
    (2, 3, 6, 3),
    (3, 2, 4, 0),
    (3, 3, 10, 1),
    (4, 2, 5, 0),
    (4, 3, 15, 0),
]


def dense_family(cfg):
    """E_S, E_A and E_P as dense D x D matrices: the family applied to I."""
    return sec.SectorProjectors.build(cfg).split(np.eye(cfg.dim))


@pytest.mark.parametrize("n,d,r_sym,r_anti", SECTOR_RANK_CASES)
def test_sector_ranks_match_closed_forms(n, d, r_sym, r_anti):
    cfg = hb.AssemblyConfig(n, d)
    fam = sec.SectorProjectors.build(cfg)
    assert math.comb(d + n - 1, n) == r_sym
    assert math.comb(d, n) == r_anti
    assert fam.ranks() == (r_sym, r_anti, cfg.dim - r_sym - r_anti)
    # independent rank route
    e_s, e_a, _ = dense_family(cfg)
    assert np.linalg.matrix_rank(e_s, tol=1e-8) == r_sym
    assert np.linalg.matrix_rank(e_a, tol=1e-8) == r_anti


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_sector_family_partitions_identity(n, d):
    cfg = hb.AssemblyConfig(n, d)
    family = dense_family(cfg)
    total = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for p in family:
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12
        total += p
    assert np.max(np.abs(total - np.eye(cfg.dim))) < 1e-12
    for a in family:
        for b in family:
            if a is not b:
                assert np.max(np.abs(a @ b)) < 1e-12


def test_sector_projectors_commute_with_representation():
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    for pi in sg.all_permutations(cfg.n):
        t = hb.perm_operator(cfg, pi)
        for p in dense_family(cfg):
            assert np.max(np.abs(p[np.ix_(t, t)] - p)) < 1e-12


def test_single_slot_family_is_rejected():
    with pytest.raises(ValueError):
        sec.SectorProjectors.build(hb.AssemblyConfig(1, 4))


def test_two_coin_sector_projectors_exact():
    cfg = hb.AssemblyConfig(2, 2)
    symmetric, antisymmetric, para = dense_family(cfg)
    e_s = np.array(
        [
            [1, 0, 0, 0],
            [0, 0.5, 0.5, 0],
            [0, 0.5, 0.5, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.allclose(symmetric, e_s, atol=1e-15)
    assert np.allclose(antisymmetric, np.eye(4) - e_s, atol=1e-15)
    assert np.max(np.abs(para)) < 1e-15


# ---------------------------------------------------------------------------
# oracles: the class-sum character projectors over every pi

def class_sum_projector(cfg, shape):
    """P_lambda = (dim lambda / n!) sum_pi chi_lambda(pi) P(pi), one pass over S_n."""
    acc = np.zeros((cfg.dim, cfg.dim))
    cols = np.arange(cfg.dim)
    for pi in sg.all_permutations(cfg.n):
        acc[hb.perm_operator(cfg, pi), cols] += character(shape, pi.cycle_type())
    return acc * sg.irrep_dimension(shape) / math.factorial(cfg.n)


def tensor_power_multiplicity(shape, d):
    """Multiplicity of chi_lambda in the character pi -> d**cycles(pi) of (C^d)^{x n}."""
    n = sum(shape)
    total = sum(c.size * character(shape, c.cycle_type) * d ** len(c.cycle_type) for c in sg.conjugacy_classes(n))
    assert total % math.factorial(n) == 0
    return total // math.factorial(n)


def components_by_shape(cfg):
    return {c.shape: c for c in sec.all_isotypic(cfg)}


def ray_projector(ray):
    return ray.basis @ ray.basis.conj().T


def isotypic_projector(comp):
    """P_lambda, the sum of the ray projectors."""
    return sum((ray_projector(ray) for ray in comp.rays), np.zeros((comp.config.dim,) * 2))


# ---------------------------------------------------------------------------
# isotypic components

def test_isotypic_projectors_resolve_identity():
    cfg = hb.AssemblyConfig(3, 2)
    comps = sec.all_isotypic(cfg)
    total = sum(isotypic_projector(c) for c in comps)
    assert np.max(np.abs(total - np.eye(cfg.dim))) < 1e-12
    for i, a in enumerate(comps):
        for j, b in enumerate(comps):
            prod = isotypic_projector(a) @ isotypic_projector(b)
            ref = isotypic_projector(a) if i == j else 0.0
            assert np.max(np.abs(prod - ref)) < 1e-12


def test_isotypic_ranks_three_coins():
    cfg = hb.AssemblyConfig(3, 2)
    by_shape = components_by_shape(cfg)
    assert by_shape[(3,)].rank == 4
    assert by_shape[(2, 1)].rank == 4
    assert by_shape[(1, 1, 1)].rank == 0
    assert by_shape[(2, 1)].dim_irrep == 2
    assert by_shape[(2, 1)].copies == 2


def test_isotypic_ranks_four_slots_dim_two():
    # multiplicity of lambda in (C^2)^{x4} is the number of semistandard
    # tableaux of shape lambda with entries in {1, 2}; rank = that times dim.
    cfg = hb.AssemblyConfig(4, 2)
    by_shape = {c.shape: c.rank for c in sec.all_isotypic(cfg)}
    assert by_shape == {
        (4,): 5,
        (3, 1): 9,
        (2, 2): 2,
        (2, 1, 1): 0,
        (1, 1, 1, 1): 0,
    }
    assert sum(by_shape.values()) == cfg.dim


def test_isotypic_matches_sector_projectors():
    cfg = hb.AssemblyConfig(3, 3)
    symmetric, antisymmetric, para = dense_family(cfg)
    by_shape = components_by_shape(cfg)
    assert np.max(np.abs(isotypic_projector(by_shape[(3,)]) - symmetric)) < 1e-12
    assert np.max(np.abs(isotypic_projector(by_shape[(1, 1, 1)]) - antisymmetric)) < 1e-12
    assert np.max(np.abs(isotypic_projector(by_shape[(2, 1)]) - para)) < 1e-12


def test_isotypic_projector_commutes_with_representation():
    cfg = hb.AssemblyConfig(3, 2)
    p = isotypic_projector(components_by_shape(cfg)[(2, 1)])
    for pi in sg.all_permutations(cfg.n):
        t = hb.perm_operator(cfg, pi)
        assert np.max(np.abs(p[np.ix_(t, t)] - p)) < 1e-12


ORACLE_CONFIGS = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (4, 4)]


@pytest.mark.parametrize("n,d", ORACLE_CONFIGS)
def test_weight_block_split_agrees_with_the_class_sum_oracle(n, d):
    cfg = hb.AssemblyConfig(n, d)
    symmetric, antisymmetric, _ = dense_family(cfg)
    assert np.max(np.abs(symmetric - class_sum_projector(cfg, (n,)))) <= 1e-15
    assert np.max(np.abs(antisymmetric - class_sum_projector(cfg, (1,) * n))) <= 1e-15
    for comp in sec.all_isotypic(cfg):
        shape = comp.shape
        assert np.max(np.abs(isotypic_projector(comp) - class_sum_projector(cfg, shape))) <= 1e-12
        assert comp.copies == tensor_power_multiplicity(shape, d)
        for ray in comp.rays:
            assert ray.shape == shape and ray.dim == sg.irrep_dimension(shape)
            assert full_group_invariance_residual(cfg, ray.basis) <= hb.EPS_ABS
            assert full_group_commutant_dimension(cfg, ray.basis) == 1


# ---------------------------------------------------------------------------
# generalised rays

def test_single_copy_component_is_its_own_ray():
    cfg = hb.AssemblyConfig(3, 3)
    comp = components_by_shape(cfg)[(1, 1, 1)]
    assert comp.copies == 1
    assert len(comp.rays) == 1
    assert comp.rays[0].dim == 1
    assert np.max(np.abs(ray_projector(comp.rays[0]) - class_sum_projector(cfg, (1, 1, 1)))) < 1e-10


def test_bosonic_component_splits_into_ordinary_rays():
    # the trivial irrep is one-dimensional, so the symmetric component of
    # three coins is four ordinary rays
    cfg = hb.AssemblyConfig(3, 2)
    rays = components_by_shape(cfg)[(3,)].rays
    assert [r.dim for r in rays] == [1, 1, 1, 1]
    total = sum(ray_projector(r) for r in rays)
    assert np.max(np.abs(total - class_sum_projector(cfg, (3,)))) < 1e-10


def test_multi_copy_split_three_coins():
    cfg = hb.AssemblyConfig(3, 2)
    rays = components_by_shape(cfg)[(2, 1)].rays
    assert [r.dim for r in rays] == [2, 2]
    total = sum(ray_projector(r) for r in rays)
    assert np.max(np.abs(total - class_sum_projector(cfg, (2, 1)))) < 1e-10
    # pairwise orthogonal
    assert np.max(np.abs(rays[0].basis.conj().T @ rays[1].basis)) < 1e-10
    for r in rays:
        assert sec.invariance_residual(cfg, r.basis) < 1e-10
        assert sec.compressed_commutant_dimension(cfg, r.basis) == 1


def test_ray_split_is_deterministic():
    cfg = hb.AssemblyConfig(4, 3)
    a = sec.assembly_rays(cfg)
    b = sec.assembly_rays(cfg)
    assert [r.shape for r in a] == [r.shape for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.basis, rb.basis)


@pytest.mark.parametrize("n,d,count", [(6, 3, 119), (8, 2, 25)])
def test_ray_counts_of_the_larger_assemblies(n, d, count):
    cfg = hb.AssemblyConfig(n, d)
    rays = sec.assembly_rays(cfg)
    assert len(rays) == count
    assert sum(r.dim for r in rays) == cfg.dim


def test_an_unsplit_eigenspace_fails_its_certificate(monkeypatch):
    # in the block mu = (2, 2, 2) of 6x3, (4,1,1) and (3,3) share the
    # content sum 3, and their content square sums are 19 and 7; adding
    # 12 E_(3,3) to sum_k X_k^2 gives both the labels (3, 19), which name
    # (4,1,1), on one invariant 15-dimensional eigenspace, 10 + 5 wide
    cfg = hb.AssemblyConfig(6, 3)
    (index,) = [b for b in hb.weight_blocks(cfg) if len(b) == math.factorial(6) // 8]
    lift = 12 * class_sum_projector(cfg, (3, 3))[np.ix_(index, index)]
    operators = sec._block_operators

    def with_the_lift(*args):
        ops = operators(*args)
        return ops[:-1] + [ops[-1] + lift]

    monkeypatch.setattr(hb, "weight_blocks", lambda config: [index])
    monkeypatch.setattr(sec, "_block_operators", with_the_lift)
    with pytest.raises(sec.DecompositionError, match=r"15-dimensional .* \(3, 19\) name \(4, 1, 1\) of dimension 10"):
        sec.assembly_rays(cfg)


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3)])
def test_transposition_maps_are_built_once_per_split(n, d, monkeypatch):
    # per split: C(n, 2) transpositions on the whole space, which every
    # weight block reads and whose n-1 adjacent swaps the leak reuses; the
    # shapes come from the central labels, with no class representative;
    # the refiners are built for one block per content class; the split
    # and the sector family each build the letters once, for the weight
    # blocks
    cfg = hb.AssemblyConfig(n, d)
    blocks, classes = {(4, 3): (15, 4), (5, 3): (21, 5)}[n, d]
    maps, representatives, refined, letter_tables = [], [], [], []
    perm_operator, conjugacy_classes, letters = hb.perm_operator, sg.conjugacy_classes, hb._letters
    block_operators = sec._block_operators
    monkeypatch.setattr(hb, "perm_operator", lambda config, perm: maps.append(perm) or perm_operator(config, perm))
    monkeypatch.setattr(sg, "conjugacy_classes", lambda k: representatives.append(k) or conjugacy_classes(k))
    monkeypatch.setattr(hb, "_letters", lambda config: letter_tables.append(config) or letters(config))
    monkeypatch.setattr(sec, "_block_operators", lambda *args: refined.append(args[1]) or block_operators(*args))
    rays = sec.assembly_rays(cfg)
    assert letter_tables == [cfg]
    sec.SectorProjectors.build(cfg)
    monkeypatch.undo()
    assert len(hb.weight_blocks(cfg)) == blocks
    assert len(rays) > blocks
    assert len(maps) == math.comb(n, 2)
    assert len(refined) == classes
    assert len({content_class(cfg, index) for index in refined}) == classes
    assert representatives == []
    assert letter_tables == [cfg, cfg]


def content_class(cfg, index):
    """The sorted letter counts of a weight block: equal for two blocks
    exactly when a relabelling of the letters maps one onto the other."""
    word = cfg.letters(int(index[0]))
    return tuple(sorted(word.count(a) for a in range(cfg.d)))


def relabelled_rows(cfg, index, source_index):
    """Row of each word of block ``index`` in block ``source_index`` after
    the relabelling that pairs the letters of both blocks in order of
    (count, letter), so that each letter meets one of equal count."""
    counts, source_counts = (
        [cfg.letters(int(block[0])).count(a) for a in range(cfg.d)] for block in (index, source_index)
    )
    by_count = sorted(range(cfg.d), key=lambda a: (counts[a], a))
    sigma = dict(zip(by_count, sorted(range(cfg.d), key=lambda a: (source_counts[a], a))))
    row = {int(word): r for r, word in enumerate(source_index)}
    return [row[cfg.flat_index([sigma[a] for a in cfg.letters(int(word))])] for word in index]


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3)])
def test_carried_rays_are_the_relabelled_rows_of_their_source(n, d):
    # the first block of each content class is split; every other block
    # of the class holds its rays, in the same order, at the rows of its
    # relabelled words, bit for bit; every ray is certified on the whole
    # space too
    cfg = hb.AssemblyConfig(n, d)
    rays = sec.assembly_rays(cfg)
    by_block: dict = {}
    for ray in rays:
        by_block.setdefault(int(ray.index[0]), []).append(ray)
    sources: dict = {}
    carried = 0
    for index in hb.weight_blocks(cfg):
        source_index = sources.setdefault(content_class(cfg, index), index)
        mine, theirs = by_block[int(index[0])], by_block[int(source_index[0])]
        assert [r.shape for r in mine] == [r.shape for r in theirs]
        rows = relabelled_rows(cfg, index, source_index)
        for ray, source in zip(mine, theirs):
            assert np.array_equal(ray.index, index)
            assert np.array_equal(ray.vectors, source.vectors[rows])
            carried += source_index is not index
    assert carried > 0
    for ray in rays:
        assert sec.invariance_residual(cfg, ray.basis) <= hb.EPS_ABS
        assert sec.compressed_commutant_dimension(cfg, ray.basis) == 1


def jucys_murphy_square_sum(cfg, index):
    """The product form of the last refiner on a weight block: each
    X_k = sum_{j<k} P((j k)) as a dense 0/1 matrix on the block's words,
    read from the transpositions' index maps, then sum_k X_k @ X_k."""
    b = len(index)
    row = {int(word): r for r, word in enumerate(index)}
    total = np.zeros((b, b))
    for k in range(2, cfg.n + 1):
        x = np.zeros((b, b))
        for j in range(1, k):
            t = hb.perm_operator(cfg, sg.from_cycles(cfg.n, [(j, k)]))
            x[[row[int(t[word])] for word in index], np.arange(b)] += 1  # P e_w = e_t[w]
        total += x @ x
    return total


@pytest.mark.parametrize("n,d,content", [(4, 3, None), (5, 3, None), (6, 2, None), (6, 3, None), (8, 3, (3, 3, 2))])
def test_counted_jucys_murphy_squares_equal_their_matrix_products(n, d, content, monkeypatch):
    # the split counts sum_k X_k^2 from composed transposition maps; it is
    # the same integer matrix as the sum of the squared X_k, on the first
    # block of every content class (or on the one block of content
    # (3, 3, 2) at 8x3, b = 560), so eigh receives the same array
    cfg = hb.AssemblyConfig(n, d)
    blocks = hb.weight_blocks(cfg)
    if content:
        blocks = [index for index in blocks if tuple(np.bincount(cfg.letters(int(index[0])), minlength=d)) == content]
        monkeypatch.setattr(hb, "weight_blocks", lambda config: blocks)
    split = []
    operators = sec._block_operators
    monkeypatch.setattr(sec, "_block_operators", lambda *args: split.append((args[1], operators(*args))) or split[-1][1])
    sec.assembly_rays(cfg)
    monkeypatch.undo()
    assert len(split) == len({content_class(cfg, index) for index in blocks})
    for index, ops in split:
        assert ops[-1].dtype == np.float64
        assert np.array_equal(ops[-1], jucys_murphy_square_sum(cfg, index))
    if content:
        assert [len(index) for index, _ in split] == [560]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_assembly_rays_exhaust_the_space(n, d):
    cfg = hb.AssemblyConfig(n, d)
    rays = sec.assembly_rays(cfg)
    assert sum(r.dim for r in rays) == cfg.dim
    stacked = np.hstack([r.basis for r in rays]) if rays else np.zeros((cfg.dim, 0))
    gram = stacked.conj().T @ stacked
    assert np.max(np.abs(gram - np.eye(cfg.dim))) < 1e-9


def test_ray_count_matches_multiplicities():
    cfg = hb.AssemblyConfig(3, 3)
    rays = sec.assembly_rays(cfg)
    counts: dict[tuple[int, ...], int] = {}
    for r in rays:
        counts[r.shape] = counts.get(r.shape, 0) + 1
    assert counts == {(3,): 10, (2, 1): 8, (1, 1, 1): 1}
    dims = {r.shape: r.dim for r in rays}
    assert dims == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


# ---------------------------------------------------------------------------
# certificates on the adjacent transpositions, against the whole group

def full_group_invariance_residual(cfg, basis):
    """max over every pi of the part of P(pi) basis leaking out of span(basis)."""
    worst = 0.0
    for pi in sg.all_permutations(cfg.n):
        moved = np.empty_like(basis)
        moved[hb.perm_operator(cfg, pi), :] = basis
        leak = moved - basis @ (basis.conj().T @ moved)
        worst = max(worst, float(np.max(np.abs(leak))))
    return worst


def full_group_commutant_dimension(cfg, basis):
    """Dimension of {X : [X, B^dagger P(pi) B] = 0 for every pi}."""
    k = basis.shape[1]
    eye = np.eye(k)
    rows = []
    for pi in sg.all_permutations(cfg.n):
        moved = np.empty_like(basis)
        moved[hb.perm_operator(cfg, pi), :] = basis
        m = basis.conj().T @ moved
        rows.append(np.kron(eye, m.T) - np.kron(m, eye))
    svals = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
    return int(np.sum(svals < 1e-10 * max(1.0, svals[0])))


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_generator_certificates_agree_with_the_whole_group(n, d):
    cfg = hb.AssemblyConfig(n, d)
    for ray in sec.assembly_rays(cfg):
        assert sec.invariance_residual(cfg, ray.basis) <= hb.EPS_ABS
        assert full_group_invariance_residual(cfg, ray.basis) <= hb.EPS_ABS
        assert sec.compressed_commutant_dimension(cfg, ray.basis) == 1
        assert full_group_commutant_dimension(cfg, ray.basis) == 1


def test_two_copies_have_a_four_dimensional_commutant_on_both_routes():
    cfg = hb.AssemblyConfig(3, 2)
    rays = components_by_shape(cfg)[(2, 1)].rays
    joined = np.hstack([r.basis for r in rays])
    assert sec.compressed_commutant_dimension(cfg, joined) == 4
    assert full_group_commutant_dimension(cfg, joined) == 4


def test_rotated_subspace_fails_invariance_on_both_routes():
    cfg = hb.AssemblyConfig(3, 2)
    by_shape = components_by_shape(cfg)
    ray = by_shape[(2, 1)].rays[0]
    outside = by_shape[(3,)].rays[0].basis[:, 0]
    rotated = ray.basis.copy()
    rotated[:, 0] = math.cos(0.3) * rotated[:, 0] + math.sin(0.3) * outside
    # tilting the second column too gives leaks of rank 2, whose Frobenius
    # and spectral norms differ
    rotated[:, 1] = math.cos(0.5) * rotated[:, 1] + math.sin(0.5) * by_shape[(2, 1)].rays[1].basis[:, 1]
    assert np.max(np.abs(rotated.conj().T @ rotated - np.eye(2))) < 1e-12
    assert sec.invariance_residual(cfg, rotated) > hb.EPS_ABS
    assert full_group_invariance_residual(cfg, rotated) > hb.EPS_ABS
    # the residual is the largest Frobenius norm of (I - B B^dagger) P B
    # over the adjacent swaps, with P the dense 0/1 matrix, and so at
    # least the largest spectral norm (0.940 against 0.792 here)
    outside_span = np.eye(cfg.dim) - rotated @ rotated.conj().T
    leaks = []
    for s in sg.adjacent_transpositions(cfg.n):
        p = np.zeros((cfg.dim, cfg.dim))
        p[hb.perm_operator(cfg, s), np.arange(cfg.dim)] = 1.0
        leaks.append(outside_span @ p @ rotated)
    residual = sec.invariance_residual(cfg, rotated)
    assert residual == pytest.approx(max(np.linalg.norm(leak, "fro") for leak in leaks), rel=1e-12)
    assert residual >= max(np.linalg.norm(leak, 2) for leak in leaks)


def test_invariance_residual_of_a_complex_basis_is_the_largest_leak_norm():
    # the Frobenius norm sums |z|^2 of each leak entry; z^2 would let the
    # imaginary parts cancel the real ones
    cfg = hb.AssemblyConfig(3, 2)
    by_shape = components_by_shape(cfg)
    ray, other = by_shape[(2, 1)].rays
    outside = by_shape[(3,)].rays[0].basis[:, 0]
    basis = ray.basis * np.exp([0.4j, -1.1j])
    basis[:, 0] = math.cos(0.3) * basis[:, 0] + 1j * math.sin(0.3) * outside
    basis[:, 1] = math.cos(0.5) * basis[:, 1] + np.exp(0.7j) * math.sin(0.5) * other.basis[:, 1]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-12
    outside_span = np.eye(cfg.dim) - basis @ basis.conj().T
    leaks = []
    for s in sg.adjacent_transpositions(cfg.n):
        p = np.zeros((cfg.dim, cfg.dim))
        p[hb.perm_operator(cfg, s), np.arange(cfg.dim)] = 1.0
        leaks.append(np.linalg.norm(outside_span @ p @ basis))
    assert sec.invariance_residual(cfg, basis) == pytest.approx(max(leaks), rel=1e-12)


def test_projectors_never_cross_the_group(monkeypatch):
    cfg = hb.AssemblyConfig(4, 2)
    crossings, draws = [], []
    enumerate_group, rng_for = sg.all_permutations, hb.rng_for
    monkeypatch.setattr(sg, "all_permutations", lambda n: crossings.append(n) or enumerate_group(n))
    monkeypatch.setattr(hb, "rng_for", lambda seed: draws.append(seed) or rng_for(seed))
    sec.all_isotypic(cfg)
    sec.SectorProjectors.build(cfg)
    assert crossings == [] and draws == []


def peak_traced_mb(fn):
    """Peak of the memory traced while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sector_family_and_classification_stay_on_the_blocks():
    # a dense family at 7x3 is three 2187 x 2187 complex matrices, 230 MB
    cfg = hb.AssemblyConfig(7, 3)
    v = hb.random_state(cfg, hb.rng_for(73))
    assert peak_traced_mb(lambda: sec.classify_vector(sec.SectorProjectors.build(cfg), v)) < 10


def test_ray_split_stays_on_the_blocks():
    # the 189 rays of 7x3, zero-padded to 2187 complex rows, took 78 MB
    assert peak_traced_mb(lambda: sec.assembly_rays(hb.AssemblyConfig(7, 3))) < 20


# ---------------------------------------------------------------------------
# classification and Schur scalars

def test_classify_vector_labels():
    cfg = hb.AssemblyConfig(2, 2)
    fam = sec.SectorProjectors.build(cfg)
    hh = hb.basis_state(cfg, (0, 0)).amplitudes
    assert sec.classify_vector(fam, hh).label == "bosonic"
    singlet = (hb.basis_state(cfg, (0, 1)).amplitudes - hb.basis_state(cfg, (1, 0)).amplitudes) / math.sqrt(2)
    got = sec.classify_vector(fam, singlet)
    assert got.label == "fermionic"
    assert got.antisymmetric_weight == pytest.approx(1.0, abs=1e-12)
    ht = hb.basis_state(cfg, (0, 1)).amplitudes
    skew = sec.classify_vector(fam, ht)
    assert skew.label == "skew"
    assert skew.symmetric_weight == pytest.approx(0.5, abs=1e-12)
    assert skew.antisymmetric_weight == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        sec.classify_vector(fam, 2 * hh)


def test_classify_vector_paraparticle():
    cfg = hb.AssemblyConfig(3, 2)
    fam = sec.SectorProjectors.build(cfg)
    v = np.zeros(8, dtype=complex)
    v[cfg.flat_index((0, 0, 1))] = 1 / math.sqrt(2)
    v[cfg.flat_index((0, 1, 0))] = -1 / math.sqrt(2)
    got = sec.classify_vector(fam, v)
    assert got.label == "paraparticle"
    assert got.para_weight == pytest.approx(1.0, abs=1e-12)


def test_schur_scalars_on_symmetric_operator():
    cfg = hb.AssemblyConfig(3, 2)
    rays = sec.assembly_rays(cfg)
    q = sym.symmetrise(cfg, hb.random_observable(cfg, hb.rng_for(3)))
    report = sec.schur_check(q, rays)
    assert report.ok
    assert report.max_residual < 1e-10
    assert len(report.scalars) == len(rays)
    # trace decomposes through the scalars
    recon = sum(c * r.dim for c, r in zip(report.scalars, rays))
    assert recon == pytest.approx(float(np.trace(q).real), abs=1e-9)


def test_schur_check_flags_non_symmetric_operator():
    cfg = hb.AssemblyConfig(3, 2)
    rays = sec.assembly_rays(cfg)
    q = hb.random_observable(cfg, hb.rng_for(3))  # not twirled
    report = sec.schur_check(q, rays, tol=1e-10)
    assert not report.ok
    assert report.max_residual > 1e-3


@given(st.integers(min_value=0, max_value=500))
def test_twirled_operators_are_schur_scalar(seed):
    cfg = hb.AssemblyConfig(2, 2)
    rays = sec.assembly_rays(cfg)
    q = sym.symmetrise(cfg, hb.random_observable(cfg, hb.rng_for(seed)))
    assert sec.schur_check(q, rays).ok


def test_each_young_diagram_is_built_once_per_decomposition(monkeypatch):
    # one pass over partitions(n) gives every shape's labels, f and s
    built = []
    boxes = sg.boxes
    monkeypatch.setattr(sg, "boxes", lambda shape: built.append(shape) or boxes(shape))
    comps = sec.all_isotypic(hb.AssemblyConfig(4, 3))
    assert built == sg.partitions(4)
    assert [c.dim_irrep for c in comps] == [sg.irrep_dimension(c.shape) for c in comps]
