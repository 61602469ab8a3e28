"""Exact group algebra: composition order, cycle data, characters."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from characters import character
from permsym import symgroup as sg


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(
        lambda images: sg.Permutation(tuple(images))
    )


any_perm = st.integers(min_value=1, max_value=sg.N_MAX).flatmap(perm_strategy)


def test_composition_convention_is_right_operand_first():
    # the convention everything else relies on: compose(p, q)(k) = p(q(k))
    p = sg.from_cycles(3, [(1, 2)])
    q = sg.from_cycles(3, [(2, 3)])
    r = sg.compose(p, q)
    assert r.images == (2, 3, 1)  # the 3-cycle 1 -> 2 -> 3 -> 1
    assert all(r(k) == p(q(k)) for k in (1, 2, 3))
    # the opposite order gives the other 3-cycle
    assert sg.compose(q, p).images == (3, 1, 2)


def test_permutation_validation():
    with pytest.raises(ValueError):
        sg.Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        sg.Permutation((0, 1))
    with pytest.raises(ValueError):
        sg.Permutation(())
    with pytest.raises(ValueError):
        sg.Permutation((2, 3, 1))(4)


def test_cycles_and_cycle_type():
    p = sg.Permutation((2, 3, 1))
    assert p.cycles() == ((1, 2, 3),)
    assert p.cycle_type() == (3,)
    assert sg.identity(4).cycle_type() == (1, 1, 1, 1)
    assert sg.from_cycles(4, [(1, 2)]).cycle_type() == (2, 1, 1)
    assert sg.from_cycles(4, [(1, 2), (3, 4)]).cycle_type() == (2, 2)
    assert sg.identity(3).cycles() == ()


def test_parity_examples():
    assert sg.identity(5).parity() == 1
    assert sg.from_cycles(2, [(1, 2)]).parity() == -1
    assert sg.from_cycles(3, [(1, 2, 3)]).parity() == 1
    assert sg.from_cycles(4, [(1, 2), (3, 4)]).parity() == 1
    assert sg.from_cycles(4, [(1, 2, 3, 4)]).parity() == -1


def test_group_axioms_exhaustive_s4():
    elements = sg.all_permutations(4)
    assert len(elements) == 24
    e = sg.identity(4)
    for p in elements:
        assert sg.compose(p, e) == p == sg.compose(e, p)
        assert sg.compose(p, sg.inverse(p)) == e
    # associativity on a full cross-section
    for p in elements:
        for q in elements[::5]:
            for r in elements[::7]:
                assert sg.compose(sg.compose(p, q), r) == sg.compose(
                    p, sg.compose(q, r)
                )


def test_parity_is_a_homomorphism_exhaustive_s4():
    elements = sg.all_permutations(4)
    for p in elements:
        for q in elements:
            assert sg.compose(p, q).parity() == p.parity() * q.parity()


@given(any_perm)
def test_inverse_roundtrip(p):
    assert sg.inverse(sg.inverse(p)) == p
    assert sg.compose(p, sg.inverse(p)).is_identity()
    assert sg.inverse(p).parity() == p.parity()


@given(st.integers(min_value=2, max_value=sg.N_MAX).flatmap(
    lambda n: st.tuples(perm_strategy(n), perm_strategy(n))
))
def test_cycle_type_is_conjugation_invariant(pair):
    p, r = pair
    conj = sg.compose(sg.compose(r, p), sg.inverse(r))
    assert conj.cycle_type() == p.cycle_type()
    assert sum(p.cycle_type()) == p.n


def test_text_forms():
    p = sg.parse_permutation("[2,3,1]")
    assert p.images == (2, 3, 1)
    assert sg.parse_permutation("(1 2 3)") == p
    assert sg.parse_permutation("(1 2)(3 4)").images == (2, 1, 4, 3)
    assert sg.parse_permutation("(1 2)", n=4).images == (2, 1, 3, 4)
    assert sg.parse_permutation("()", n=3) == sg.identity(3)
    assert sg.format_images(p) == "[2,3,1]"
    assert sg.format_cycles(p) == "(1 2 3)"
    assert sg.format_cycles(sg.identity(3)) == "()"
    round_trip = sg.parse_permutation(sg.format_cycles(p), n=3)
    assert round_trip == p
    for bad, match in (
        ("", None),
        ("[1,1]", None),
        ("(1 2", "unbalanced cycle form"),
        ("[1,x]", "'x' is not a point"),
        ("(1 x)", "'x' is not a point"),
        ("((1 2)", "nested cycle form"),
        ("(1 1)", "point 1 repeats inside one cycle"),
        ("(1 2)(2 3)", "point 2 appears in two cycles"),
        ("[2,3,1] junk", None),
        ("nonsense", None),
    ):
        with pytest.raises(ValueError, match=match):
            sg.parse_permutation(bad)
    with pytest.raises(ValueError):
        sg.parse_permutation("[2,1]", n=3)


def test_enumeration_capability_guard():
    with pytest.raises(sg.CapabilityError):
        sg.all_permutations(sg.N_MAX + 1)
    with pytest.raises(sg.CapabilityError):
        sg.conjugacy_classes(sg.N_MAX + 1)
    with pytest.raises(sg.CapabilityError):
        sg.young_table(sg.N_MAX + 1, 2)
    with pytest.raises(ValueError):
        sg.all_permutations(0)


def test_adjacent_transpositions_generate_the_group():
    for n in range(1, 5):
        gens = sg.adjacent_transpositions(n)
        assert [g.cycles() for g in gens] == [((k, k + 1),) for k in range(1, n)]
        closure = {sg.identity(n)}
        frontier = set(closure)
        while frontier:
            frontier = {sg.compose(g, p) for g in gens for p in frontier} - closure
            closure |= frontier
        assert closure == set(sg.all_permutations(n))
    # nothing is enumerated, so the generators have no cap on n
    assert len(sg.adjacent_transpositions(sg.N_MAX + 4)) == sg.N_MAX + 3


def test_partition_counts():
    # p(n) for n = 1..8
    for n, count in enumerate((1, 2, 3, 5, 7, 11, 15, 22), start=1):
        parts = sg.partitions(n)
        assert len(parts) == count
        assert all(sum(lam) == n for lam in parts)
        assert parts[0] == (n,) and parts[-1] == (1,) * n


def test_class_sizes_match_enumeration():
    for n in range(2, 6):
        by_type = {}
        for p in sg.all_permutations(n):
            by_type[p.cycle_type()] = by_type.get(p.cycle_type(), 0) + 1
        for cls in sg.conjugacy_classes(n):
            assert cls.size == by_type[cls.cycle_type]
            assert cls.representative.cycle_type() == cls.cycle_type
        assert sum(c.size for c in sg.conjugacy_classes(n)) == math.factorial(n)


def character_table(n):
    """(irrep labels, class types, class sizes, values) of S_n: rows in
    partitions order, columns in conjugacy_classes order, read from the
    Murnaghan-Nakayama oracle."""
    classes = sg.conjugacy_classes(n)
    labels = tuple(sg.partitions(n))
    types = tuple(c.cycle_type for c in classes)
    values = tuple(tuple(character(lam, ct) for ct in types) for lam in labels)
    return labels, types, tuple(c.size for c in classes), values


def test_character_table_n2_and_n3_frozen():
    labels, types, _, values = character_table(2)
    assert labels == ((2,), (1, 1))
    assert types == ((1, 1), (2,))
    assert values == ((1, 1), (1, -1))

    labels, types, _, values = character_table(3)
    assert labels == ((3,), (2, 1), (1, 1, 1))
    assert types == ((1, 1, 1), (2, 1), (3,))
    assert values == ((1, 1, 1), (2, 0, -1), (1, -1, 1))
    assert character((2, 1), (2, 1)) == 0
    assert sg.irrep_dimension((2, 1)) == 2


def test_character_against_fixed_point_count():
    # independent combinatorial route: the defining permutation action on
    # n points has trace = number of fixed points = chi_[n] + chi_[n-1,1]
    for n in range(2, sg.N_MAX + 1):
        for cls in sg.conjugacy_classes(n):
            fixed = cls.cycle_type.count(1)
            assert character((n - 1, 1), cls.cycle_type) == fixed - 1


def _conjugate_partition(shape):
    return tuple(
        sum(1 for part in shape if part > i) for i in range(max(shape))
    )


def test_character_conjugate_partition_sign_twist():
    for n in range(2, 7):
        for lam in sg.partitions(n):
            for cls in sg.conjugacy_classes(n):
                sign = cls.representative.parity()
                assert character(_conjugate_partition(lam), cls.cycle_type) == (
                    sign * character(lam, cls.cycle_type)
                )


def test_trivial_and_sign_characters():
    for n in range(2, sg.N_MAX + 1):
        for cls in sg.conjugacy_classes(n):
            assert character((n,), cls.cycle_type) == 1
            assert character((1,) * n, cls.cycle_type) == cls.representative.parity()


def test_character_orthogonality_and_dimension_sum():
    for n in range(2, sg.N_MAX + 1):
        labels, _, sizes, values = character_table(n)
        order = math.factorial(n)
        rows = len(labels)
        # first orthogonality relation, exact integers throughout
        for i in range(rows):
            for j in range(i, rows):
                inner = sum(size * values[i][k] * values[j][k] for k, size in enumerate(sizes))
                assert inner == (order if i == j else 0)
        # second orthogonality relation on columns
        for k in range(rows):
            for m in range(k, rows):
                inner = sum(values[i][k] * values[i][m] for i in range(rows))
                want = order // sizes[k] if k == m else 0
                assert inner == want
        assert sum(sg.irrep_dimension(lam) ** 2 for lam in labels) == order


def test_hook_length_dimension_is_the_character_at_the_identity():
    for n in range(1, sg.N_MAX + 1):
        for shape in sg.partitions(n):
            assert sg.irrep_dimension(shape) == character(shape, (1,) * n)


def content_pair(shape):
    contents = [content for content, _ in sg.boxes(shape)]
    return sum(contents), sum(c * c for c in contents)


def test_central_labels_name_every_shape_up_to_fourteen_points():
    # (sum of contents, sum of squares) is one-to-one on the partitions of
    # n <= 14; at n = 15 three pairs of shapes collide, the first of them
    # in partitions order (7,4,2,2) and (6,6,1,1,1)
    for n in range(1, 15):
        pairs = [content_pair(shape) for shape in sg.partitions(n)]
        assert len(set(pairs)) == len(pairs)
        if n <= sg.N_MAX:
            assert [labels for labels, _, _ in sg.young_table(n, 2).values()] == pairs
    by_pair = {}
    for shape in sg.partitions(15):
        by_pair.setdefault(content_pair(shape), []).append(shape)
    collisions = [shapes for shapes in by_pair.values() if len(shapes) > 1]
    assert len(collisions) == 3 and collisions[0] == [(7, 4, 2, 2), (6, 6, 1, 1, 1)]
    assert content_pair((3, 3)) == (3, 7) and content_pair((4, 1, 1)) == (3, 19)


def test_schur_at_ones_is_the_tensor_power_multiplicity():
    # hook-content formula against <chi_lambda, d**cycles>, the multiplicity
    # of lambda in (C^d)^{x n}
    for n in range(1, sg.N_MAX + 1):
        classes = sg.conjugacy_classes(n)
        for shape in sg.partitions(n):
            for d in range(1, 5):
                total = sum(c.size * character(shape, c.cycle_type) * d ** len(c.cycle_type) for c in classes)
                assert sg.schur_at_ones(shape, d) * math.factorial(n) == total
    assert sg.schur_at_ones((2, 1), 2) == 2
    assert sg.schur_at_ones((1, 1, 1), 2) == 0


def test_character_input_validation():
    with pytest.raises(ValueError):
        character((2, 1), (2,))  # different n
    with pytest.raises(ValueError):
        character((1, 2), (2, 1))  # not sorted descending
