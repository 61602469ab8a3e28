"""Assembly space: indexing, permutation action, pairing, JSON forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsym import hilbert as hb
from permsym import symgroup as sg

H = np.array([1.0, 0.0])
T = np.array([0.0, 1.0])


def perm_matrix(t):
    """The 0/1 matrix of P(pi) from its index map t: P e_i = e_t[i]."""
    m = np.zeros((t.size, t.size), dtype=complex)
    m[t, np.arange(t.size)] = 1.0
    return m


def perm_maps(cfg):
    """The index map of every P(pi), in the order of sg.all_permutations."""
    return [hb.perm_operator(cfg, p) for p in sg.all_permutations(cfg.n)]


def heads_count(config):
    """Observable counting letter-0 slots; symmetric by construction."""
    diag = [sum(1 for i in config.letters(k) if i == 0) for k in range(config.dim)]
    return np.diag(np.array(diag, dtype=complex))


def test_config_validation_and_dim_cap():
    cfg = hb.AssemblyConfig(3, 2)
    assert cfg.dim == 8
    hb.AssemblyConfig(13, 2)  # exactly at the cap
    for n, d in [(14, 2), (7, 4), (8, 5)]:
        with pytest.raises(ValueError):
            hb.AssemblyConfig(n, d)
    with pytest.raises(ValueError):
        hb.AssemblyConfig(0, 2)
    with pytest.raises(ValueError):
        hb.AssemblyConfig(2, 0)


def test_indexing_slot_one_most_significant():
    cfg = hb.AssemblyConfig(2, 2)
    assert cfg.flat_index((0, 1)) == 1  # |HT>
    assert cfg.flat_index((1, 0)) == 2  # |TH>
    cfg3 = hb.AssemblyConfig(3, 3)
    assert cfg3.flat_index((2, 0, 1)) == 2 * 9 + 1
    for k in range(cfg3.dim):
        assert cfg3.flat_index(cfg3.letters(k)) == k
    with pytest.raises(ValueError):
        cfg.flat_index((0, 2))
    with pytest.raises(ValueError):
        cfg.flat_index((0,))
    with pytest.raises(ValueError):
        cfg.letters(4)


def test_product_state_and_basis_state():
    cfg = hb.AssemblyConfig(2, 2)
    ht = hb.product_state(cfg, [H, T])
    assert np.array_equal(ht.amplitudes, np.array([0, 1, 0, 0], dtype=complex))
    assert np.array_equal(ht.amplitudes, hb.basis_state(cfg, (0, 1)).amplitudes)
    # unnormalized factors are normalized per slot
    scaled = hb.product_state(cfg, [3 * H, -2j * T])
    assert abs(np.linalg.norm(scaled.amplitudes) - 1) < 1e-14
    with pytest.raises(ValueError):
        hb.product_state(cfg, [H, np.zeros(2)])
    with pytest.raises(ValueError):
        hb.product_state(cfg, [H])
    with pytest.raises(ValueError):
        hb.product_state(cfg, [H, np.array([1.0, 0.0, 0.0])])


def test_state_vector_norm_guard():
    cfg = hb.AssemblyConfig(2, 2)
    with pytest.raises(ValueError):
        hb.StateVector(cfg, np.array([1.0, 1.0, 0, 0]))
    hb.StateVector(cfg, np.array([1.0, 1.0, 0, 0]) / math.sqrt(2))


def test_density_operator_validation():
    cfg = hb.AssemblyConfig(2, 2)
    ht = hb.basis_state(cfg, (0, 1))
    th = hb.basis_state(cfg, (1, 0))
    w = hb.DensityOperator.from_mixture([(0.5, ht), (0.5, th)])
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    assert np.allclose(w.matrix, expected, atol=1e-15)
    with pytest.raises(ValueError):  # trace 2
        hb.DensityOperator(cfg, np.eye(4, dtype=complex) / 2)
    with pytest.raises(ValueError):  # negative eigenvalue
        hb.DensityOperator(cfg, np.diag([1.5, -0.5, 0, 0]).astype(complex))
    with pytest.raises(ValueError):  # not self-adjoint
        m = np.diag([1.0, 0, 0, 0]).astype(complex)
        m[0, 1] = 1e-3
        hb.DensityOperator(cfg, m)
    with pytest.raises(ValueError):
        hb.DensityOperator.from_mixture([])
    with pytest.raises(ValueError):
        hb.DensityOperator.from_mixture([(-0.2, ht), (1.2, th)])


def test_observable_validation():
    cfg = hb.AssemblyConfig(2, 2)
    hb.Observable(cfg, heads_count(cfg))
    with pytest.raises(ValueError):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        hb.Observable(cfg, m)
    with pytest.raises(ValueError):
        hb.Observable(cfg, np.eye(3, dtype=complex))


def test_perm_operator_slot_rule():
    cfg = hb.AssemblyConfig(2, 2)
    swap = hb.perm_operator(cfg, sg.from_cycles(2, [(1, 2)]))
    ht = hb.basis_state(cfg, (0, 1)).amplitudes
    assert np.array_equal(perm_matrix(swap) @ ht, hb.basis_state(cfg, (1, 0)).amplitudes)

    # three slots: pi = (1 2 3) sends slot content k to slot pi(k)
    cfg3 = hb.AssemblyConfig(3, 2)
    cycle = hb.perm_operator(cfg3, sg.from_cycles(3, [(1, 2, 3)]))
    aba = hb.basis_state(cfg3, (0, 1, 0)).amplitudes
    aab = hb.basis_state(cfg3, (0, 0, 1)).amplitudes
    assert np.array_equal(perm_matrix(cycle) @ aba, aab)

    ident = hb.perm_operator(cfg3, sg.identity(3))
    assert ident.dtype == np.int64
    assert np.array_equal(ident, np.arange(8))
    with pytest.raises(ValueError):
        hb.perm_operator(cfg, sg.identity(3))


def test_target_map_matches_digit_route():
    def by_digits(cfg, perm):
        # the letters of e_i, with slot k's letter moved to slot pi(k)
        strides = cfg.d ** np.arange(cfg.n - 1, -1, -1)
        digits = (np.arange(cfg.dim)[:, None] // strides) % cfg.d
        moved = np.empty_like(digits)
        for k in range(1, cfg.n + 1):
            moved[:, perm(k) - 1] = digits[:, k - 1]
        return moved @ strides

    for n, d in [(1, 3), (2, 2), (3, 3), (4, 2)]:
        cfg = hb.AssemblyConfig(n, d)
        for p in sg.all_permutations(n):
            assert np.array_equal(hb.perm_operator(cfg, p), by_digits(cfg, p))


def test_perm_operator_matrix_is_permutation_matrix():
    cfg = hb.AssemblyConfig(3, 3)
    for p in sg.all_permutations(3):
        m = perm_matrix(hb.perm_operator(cfg, p))
        assert np.array_equal(m @ m.conj().T, np.eye(cfg.dim, dtype=complex))
        assert np.array_equal(np.sort(np.abs(m).sum(axis=0)), np.ones(cfg.dim))


def test_representation_homomorphism_exhaustive_s3():
    cfg = hb.AssemblyConfig(3, 2)
    mats = {p.images: perm_matrix(hb.perm_operator(cfg, p)) for p in sg.all_permutations(3)}
    for p in sg.all_permutations(3):
        for q in sg.all_permutations(3):
            lhs = mats[sg.compose(p, q).images]
            rhs = mats[p.images] @ mats[q.images]
            assert np.array_equal(lhs, rhs)


def test_representation_homomorphism_via_index_maps_s4():
    cfg = hb.AssemblyConfig(4, 2)
    maps = {p.images: hb.perm_operator(cfg, p) for p in sg.all_permutations(4)}
    for p in sg.all_permutations(4)[::3]:
        for q in sg.all_permutations(4)[::5]:
            # P(p q) e_i = P(p) P(q) e_i on index maps
            assert np.array_equal(maps[sg.compose(p, q).images], maps[p.images][maps[q.images]])


def test_conjugate_matches_matrix_product():
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(11)
    a = hb.random_observable(cfg, rng)
    for p in sg.all_permutations(3):
        t = hb.perm_operator(cfg, p)
        m = perm_matrix(t)
        # reading a through t is P^-1 a P
        assert np.allclose(a[np.ix_(t, t)], m.conj().T @ a @ m, atol=1e-14)


def test_conjugation_preserves_density_validity():
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(5)
    w = hb.random_density(cfg, rng)
    t = hb.perm_operator(cfg, sg.from_cycles(3, [(1, 3)]))
    moved = w[np.ix_(t, t)]
    hb.DensityOperator(cfg, moved)  # validates
    assert abs(np.trace(moved) - np.trace(w)) == 0.0


def test_expectation_examples():
    cfg = hb.AssemblyConfig(2, 2)
    ht = hb.basis_state(cfg, (0, 1))
    q = hb.Observable(cfg, heads_count(cfg))
    w = hb.DensityOperator(cfg, ht.projector())
    assert hb.expectation(w, q) == pytest.approx(1.0, abs=1e-14)

    # uniform mixture of the three symmetric states: one head on average
    hh = hb.basis_state(cfg, (0, 0))
    tt = hb.basis_state(cfg, (1, 1))
    sym = hb.StateVector(cfg, (ht.amplitudes + hb.basis_state(cfg, (1, 0)).amplitudes) / math.sqrt(2))
    bose = hb.DensityOperator.from_mixture([(1 / 3, hh), (1 / 3, sym), (1 / 3, tt)])
    assert hb.expectation(bose, q) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        hb.expectation(w.matrix, np.eye(3))


def test_real_expectation_guard():
    assert hb.real_expectation(1.0 + 1e-14j) == pytest.approx(1.0)
    with pytest.raises(hb.NumericalIntegrityError):
        hb.real_expectation(1.0 + 1e-5j)


def test_trace_cyclicity_of_pairing():
    cfg = hb.AssemblyConfig(2, 3)
    rng = hb.rng_for(23)
    w = hb.random_density(cfg, rng)
    q = hb.random_observable(cfg, rng)
    assert hb.expectation(w, q) == pytest.approx(hb.expectation(q, w).real, abs=1e-12)


def test_is_symmetric_operator():
    cfg = hb.AssemblyConfig(2, 2)
    assert hb.is_symmetric_operator(cfg, np.eye(4, dtype=complex))
    assert hb.is_symmetric_operator(cfg, heads_count(cfg))
    ht_proj = hb.basis_state(cfg, (0, 1)).projector()
    assert not hb.is_symmetric_operator(cfg, ht_proj)


def test_is_symmetric_operator_agrees_with_the_whole_group():
    def commutes_with_every_pi(cfg, a, tol=hb.EPS_ABS):
        return all(
            float(np.max(np.abs(a[np.ix_(t, t)] - a))) <= tol for t in perm_maps(cfg)
        )

    cfg = hb.AssemblyConfig(4, 2)
    rng = hb.rng_for(17)
    a = hb.random_observable(cfg, rng)
    twirled = hb.symmetrise(cfg, a)
    # counts letter-1 slots among slots 1-3: commutes with (1 2) and (2 3), not (3 4)
    partial = np.diag([float(sum(cfg.letters(i)[:3])) for i in range(cfg.dim)]).astype(complex)
    for op, want in [(a, False), (twirled, True), (partial, False)]:
        assert hb.is_symmetric_operator(cfg, op) is want
        assert commutes_with_every_pi(cfg, op) is want


def test_group_average_lands_in_commutant():
    """Sigma, the average over S_n, is symmetric, trace-preserving and fixes I exactly."""
    cfg = hb.AssemblyConfig(3, 2)
    rng = hb.rng_for(4)
    a = hb.random_observable(cfg, rng)
    twirled = hb.symmetrise(cfg, a)
    assert hb.is_symmetric_operator(cfg, twirled, tol=1e-12)
    assert abs(np.trace(twirled) - np.trace(a)) < 1e-12
    assert np.array_equal(hb.symmetrise(cfg, np.eye(8, dtype=complex)), np.eye(8))


def twirl_over_every_pi(cfg, a):
    """Sigma by its definition, (1/n!) sum_pi P(pi) a P(pi)^dagger; pi^-1 runs
    over S_n as pi does, so it sums a[t, t] = P(pi)^-1 a P(pi) instead."""
    maps = perm_maps(cfg)
    return sum(a[np.ix_(t, t)] for t in maps) / len(maps)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_symmetrise_agrees_with_the_twirl_over_every_pi(n, d):
    cfg = hb.AssemblyConfig(n, d)
    rng = hb.rng_for(10 * n + d)
    # complex and not Hermitian, so no entry is tied to its transpose
    a = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    assert np.max(np.abs(hb.symmetrise(cfg, a) - twirl_over_every_pi(cfg, a))) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_states_are_valid(seed):
    cfg = hb.AssemblyConfig(2, 2)
    rng = hb.rng_for(seed)
    hb.DensityOperator(cfg, hb.random_density(cfg, rng))
    hb.Observable(cfg, hb.random_observable(cfg, rng))
    hb.StateVector(cfg, hb.random_state(cfg, rng))


def test_matrix_json_roundtrip_bit_exact():
    rng = hb.rng_for(99)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[0, 0] = -0.0
    m[1, 2] = 1e-308  # subnormal survives
    text = hb.matrix_to_json(m)
    again = hb.matrix_from_json(text)
    assert hb.matrix_to_json(again) == text
    assert np.array_equal(again, m.astype(complex))
    obj = json.loads(text)
    assert obj["rows"] == 3 and obj["cols"] == 3 and len(obj["data"]) == 9


def test_vector_json_roundtrip_bit_exact():
    v = np.array([1 + 2j, -0.5, 1e-17j])
    text = hb.vector_to_json(v)
    again = hb.vector_from_json(text)
    assert hb.vector_to_json(again) == text
    assert np.array_equal(again, v.astype(complex))


def test_json_writers_match_the_per_entry_form():
    # one np.stack(...).tolist() writes the same bytes as the per-entry
    # float() comprehension it replaced, extreme and signed-zero values too
    rng = hb.rng_for(2024)
    values = np.concatenate(
        [
            [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 1 / 3],
            rng.normal(size=100_000) * 10.0 ** rng.integers(-300, 300, size=100_000),
        ]
    )
    z = values + 1j * values[::-1]
    m = z.reshape(-1, 4)
    assert json.dumps(hb.vector_obj(z)["data"]) == json.dumps([[float(x.real), float(x.imag)] for x in z])
    assert json.dumps(hb.matrix_obj(m)["data"]) == json.dumps(
        [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    )


@pytest.mark.parametrize("n,d", [(1, 3), (3, 2), (3, 3), (4, 3), (5, 2)])
def test_weight_blocks_group_indices_by_letter_content(n, d):
    cfg = hb.AssemblyConfig(n, d)
    blocks = hb.weight_blocks(cfg)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(cfg.dim))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    assert len(blocks) == math.comb(n + d - 1, n)
    for block in blocks:
        contents = {tuple(sorted(cfg.letters(int(i)))) for i in block}
        assert len(contents) == 1
        (word,) = contents
        size = math.factorial(n)
        for letter in set(word):
            size //= math.factorial(word.count(letter))
        assert len(block) == size
        for s in sg.adjacent_transpositions(n):
            assert np.array_equal(np.sort(hb.perm_operator(cfg, s)[block]), block)


def test_json_error_paths():
    with pytest.raises(ValueError):
        hb.matrix_from_json("not json")
    with pytest.raises(ValueError):
        hb.matrix_from_json('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(ValueError):
        hb.vector_from_json('{"length": 3, "data": [[1, 0]]}')
    with pytest.raises(ValueError):
        hb.matrix_to_json(np.zeros(3))
    with pytest.raises(ValueError):
        hb.vector_to_json(np.zeros((2, 2)))
    with pytest.raises(ValueError):  # ragged entries
        hb.vector_from_json('{"length": 2, "data": [1, [0, 1]]}')
    with pytest.raises(ValueError):  # entries that are not numbers
        hb.matrix_from_json('{"rows": 1, "cols": 1, "data": [["1", 0]]}')


def test_non_finite_input_is_rejected():
    cfg = hb.AssemblyConfig(2, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            hb.StateVector(cfg, np.full(4, bad))
        with pytest.raises(ValueError):
            hb.Observable(cfg, np.full((4, 4), bad))
        with pytest.raises(ValueError):
            hb.matrix_to_json(np.full((1, 1), bad))
        with pytest.raises(ValueError):
            hb.vector_to_json(np.array([bad]))
    with pytest.raises(ValueError):
        hb.matrix_from_json('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}')
    with pytest.raises(ValueError):
        hb.vector_from_json('{"length": 1, "data": [[0, -Infinity]]}')
