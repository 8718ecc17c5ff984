import pytest
from fractions import Fraction as F

from horokit import rootdata as rd
from horokit.errors import TrivialRootHasNoCoroot
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL, Sp, Spin,
                              TORUS_FACTOR, TRIVIAL_FACTOR)

A5 = GroupProduct((GroupFactor("A", 5),))
B3 = GroupProduct((GroupFactor("B", 3),))
B4 = GroupProduct((GroupFactor("B", 4),))


def test_cartan_transposition_convention():
    # Anchor: <alpha_i^vee, w_j> = delta_ij, so the stored table holds
    # <alpha_i^vee, alpha_j>.  The classic pitfall: printed tables are often
    # the transpose; for the rank-three orthogonal type the -2 sits at
    # (short coroot, long root).
    cm = rd.cartan_matrix("B", 3)
    assert cm[2][1] == -2 and cm[1][2] == -1
    chi = A5.fundamental_weight(Root(0, 1))
    assert rd.coroot_pairing(A5, Root(0, 1), chi) == 1
    A3 = GroupProduct((GroupFactor("A", 2),))
    assert rd.coroot_pairing(A3, Root(0, 1), A3.fundamental_weight(Root(0, 2))) == 0
    # alpha_3 of B3 as a weight is -w2 + 2 w3; pairing with alpha_2^vee is -1,
    # the Bourbaki-printed -2 lives at the transposed slot.
    alpha3 = B3.root_as_weight(Root(0, 3))
    assert alpha3 == (F(0), F(-1), F(2))
    assert rd.coroot_pairing(B3, Root(0, 2), alpha3) == -1
    alpha2 = B3.root_as_weight(Root(0, 2))
    assert rd.coroot_pairing(B3, Root(0, 3), alpha2) == -2


def test_coroot_pairing_bilinear_and_cross_factor():
    G = GroupProduct((GroupFactor("A", 2), GroupFactor("C", 3)))
    w1 = G.fundamental_weight(Root(0, 1))
    w2 = G.fundamental_weight(Root(1, 2))
    both = tuple(3 * a + 2 * b for a, b in zip(w1, w2))
    assert rd.coroot_pairing(G, Root(0, 1), both) == 3
    assert rd.coroot_pairing(G, Root(1, 2), both) == 2
    assert rd.coroot_pairing(G, Root(1, 1), w1) == 0
    with pytest.raises(TrivialRootHasNoCoroot):
        rd.coroot_pairing(GroupProduct((TORUS_FACTOR,)), Root(0, 0), (F(1),))


def test_positive_root_counts_match_formulas():
    assert rd.positive_root_count("A", 3) == 6
    for m in range(1, 9):
        assert rd.positive_root_count("A", m) == m * (m + 1) // 2
    for m in range(3, 9):
        assert rd.positive_root_count("B", m) == m * m
    for m in range(2, 9):
        assert rd.positive_root_count("C", m) == m * m
    for m in range(4, 9):
        assert rd.positive_root_count("D", m) == m * (m - 1)
    assert rd.positive_root_count("E", 6) == 36
    assert rd.positive_root_count("E", 7) == 63
    assert rd.positive_root_count("E", 8) == 120
    assert rd.positive_root_count("F", 4) == 24
    assert rd.positive_root_count("G", 2) == 6


def test_flag_dimension():
    A2 = GroupProduct((GroupFactor("A", 2),))
    assert rd.flag_dimension(A2, {Root(0, 2)}) == 2  # projective plane
    A3 = GroupProduct((GroupFactor("A", 3),))
    assert rd.flag_dimension(A3, set()) == 6
    mixed = GroupProduct((GroupFactor("A", 1), TORUS_FACTOR))
    assert rd.flag_dimension(mixed, set()) == 1
    # monotone under inclusion of Levi roots
    for levi in ({Root(0, 1)}, {Root(0, 2)}, {Root(0, 1), Root(0, 2)}):
        assert rd.flag_dimension(A3, levi) <= rd.flag_dimension(A3, set())


def test_subdiagram_components():
    A4 = GroupProduct((GroupFactor("A", 4),))
    comps = rd.subdiagram_components(A4, {Root(0, 1), Root(0, 2), Root(0, 4)})
    assert sorted((c.family, c.rank) for c in comps) == [("A", 1), ("A", 2)]
    comps = rd.subdiagram_components(B3, {Root(0, 2), Root(0, 3)})
    assert [(c.family, c.rank) for c in comps] == [("C", 2)]
    c2 = comps[0]
    assert c2.members[0] == Root(0, 3)  # short root first in canonical C2
    assert c2.is_short_extremal(Root(0, 3)) and not c2.is_short_extremal(Root(0, 2))
    D4 = GroupProduct((GroupFactor("D", 4),))
    comps = rd.subdiagram_components(D4, {Root(0, 1), Root(0, 3), Root(0, 4)})
    assert len(comps) == 3 and all(c.family == "A" and c.rank == 1 for c in comps)
    F4 = GroupProduct((GroupFactor("F", 4),))
    comps = rd.subdiagram_components(F4, {Root(0, 2), Root(0, 3), Root(0, 4)})
    assert [(c.family, c.rank) for c in comps] == [("C", 3)]
    assert comps[0].members == (Root(0, 4), Root(0, 3), Root(0, 2))


def test_is_smooth_pair():
    A3 = GroupProduct((GroupFactor("A", 3),))
    assert rd.is_smooth_pair(A3, {Root(0, 2)}, {Root(0, 1)})
    with pytest.raises(ValueError):
        rd.is_smooth_pair(B3, {Root(0, 2)}, {Root(0, 2)})
    assert not rd.is_smooth_pair(B4, {Root(0, 2), Root(0, 3)}, {Root(0, 4)})
    # vacuous second set
    assert rd.is_smooth_pair(B4, {Root(0, 1), Root(0, 2), Root(0, 4)}, set())
    # two marked vertices in one block
    assert not rd.is_smooth_pair(A3, {Root(0, 2)}, {Root(0, 1), Root(0, 3)})
    # clause (2) of the quadruple test is the pair test on the Levi of beta:
    # every simple type up to rank 8 and every (beta, R), 8,849 cases
    from itertools import combinations
    bounds = {"A": 1, "B": 3, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
    cases = 0
    for fam, lo in bounds.items():
        for m in range(lo, {"F": 4, "G": 2}.get(fam, 8) + 1):
            K = GroupFactor(fam, m)
            G = GroupProduct((K,))
            for beta in range(1, m + 1):
                rest = [i for i in range(1, m + 1) if i != beta]
                for size in range(len(rest) + 1):
                    for R in combinations(rest, size):
                        levi = {Root(0, i) for i in rest if i not in R}
                        assert rd.is_smooth_quadruple(K, beta, set(R), 2) == \
                            rd.is_smooth_pair(G, levi, {Root(0, i) for i in R}), \
                            (K, beta, R)
                        cases += 1
    assert cases == 8849


def test_smooth_triple_class_table():
    assert rd.smooth_triple_class(GroupFactor("A", 5), 1, 5) == rd.SMOOTH_HOMOGENEOUS
    assert rd.smooth_triple_class(GroupFactor("B", 3), 1, 3) == rd.SMOOTH_TWO_ORBIT
    assert rd.smooth_triple_class(GroupFactor("A", 5), 1, 3) == rd.NOT_SMOOTH
    assert rd.smooth_triple_class(GroupFactor("B", 4), 3, 4) == rd.SMOOTH_TWO_ORBIT
    assert rd.smooth_triple_class(GroupFactor("C", 2), 1, 2) == rd.SMOOTH_TWO_ORBIT
    assert rd.smooth_triple_class(GroupFactor("D", 5), 4, 5) == rd.SMOOTH_HOMOGENEOUS
    assert rd.smooth_triple_class(GroupFactor("F", 4), 2, 3) == rd.SMOOTH_TWO_ORBIT
    assert rd.smooth_triple_class(GroupFactor("G", 2), 1, 2) == rd.SMOOTH_TWO_ORBIT
    # symmetric in the two roots; leaf pairs of the rank-four binary type
    for K, pairs in ((GroupFactor("D", 4), [(1, 3), (1, 4), (3, 4)]),
                     (GroupFactor("A", 4), [(2, 3), (1, 4)])):
        for g, d in pairs:
            assert rd.smooth_triple_class(K, g, d) == rd.smooth_triple_class(K, d, g)
    assert rd.smooth_triple_class(GroupFactor("D", 4), 1, 3) == rd.SMOOTH_HOMOGENEOUS


def test_is_smooth_quadruple():
    assert rd.is_smooth_quadruple(GroupFactor("A", 5), 3, {1, 2}, 1)
    assert not rd.is_smooth_quadruple(GroupFactor("B", 4), 1, {4}, 2)
    for n in (0, 1, 2, 7):
        assert rd.is_smooth_quadruple(GroupFactor("G", 2), 1, set(), n)
    # clause (1) is rank-one only
    assert not rd.is_smooth_quadruple(GroupFactor("A", 5), 3, {1, 2}, 2)
    # pair valid through separate blocks at any rank
    assert rd.is_smooth_quadruple(GroupFactor("B", 4), 3, {2, 4}, 2)


def test_enumeration_fixed_point_and_bounds():
    for fam, m in (("A", 4), ("B", 4), ("C", 3), ("D", 5), ("F", 4), ("G", 2)):
        K = GroupFactor(fam, m)
        for n_flag in (1, 2):
            listed = rd.enumerate_smooth_quadruples(fam, m, n_flag)
            assert len(set(listed)) == len(listed)
            for beta, R in listed:
                assert rd.is_smooth_quadruple(K, beta, set(R), n_flag)
                assert len(R) <= 3
                assert rd.canonical_beta_R(fam, m, beta, R) == (beta, tuple(sorted(R)))
            # completeness up to symmetry
            seen = {(b, frozenset(R)) for b, R in listed}
            for beta in range(1, m + 1):
                rest = [i for i in range(1, m + 1) if i != beta]
                from itertools import combinations
                for size in range(0, min(4, len(rest)) + 1):
                    for R in combinations(rest, size):
                        if rd.is_smooth_quadruple(K, beta, set(R), n_flag):
                            b2, r2 = rd.canonical_beta_R(fam, m, beta, R)
                            assert (b2, frozenset(r2)) in seen


def test_enumeration_examples():
    got = rd.enumerate_smooth_quadruples("G", 2, 2)
    assert (1, frozenset({2})) in got and (2, frozenset({1})) in got
    assert (1, frozenset()) in got and (2, frozenset()) in got
    assert len(got) == 4
    # no valid two-element set inside the rank-one Levi block
    assert [e for e in rd.enumerate_smooth_quadruples("A", 2, 1) if len(e[1]) == 2] == []
    assert rd.enumerate_smooth_quadruples("A", 1, 2) == [(1, frozenset())]


def test_group_grammar():
    G, relabels = rd.parse_group("A5 x C* x 1")
    assert repr(G) == "A5 x C* x 1"
    assert rd.parse_root("(0,a3)") == Root(0, 3)
    assert rd.parse_root("(1,triv)") == Root(1, 0)
    # canonical relabeling of the rank-two orthogonal type
    G2, relabels = rd.parse_group("B2")
    assert G2.factors[0] == GroupFactor("C", 2)
    assert rd.parse_root("(0,a2)", relabels) == Root(0, 1)
    assert SL(4) == GroupFactor("A", 3)
    assert Sp(8) == GroupFactor("C", 4)
    assert Spin(7) == GroupFactor("B", 3)
    assert Spin(8) == GroupFactor("D", 4)
    assert Spin(6) == GroupFactor("A", 3)


def test_dominance_and_torus_coordinates():
    G = GroupProduct((GroupFactor("A", 1), TORUS_FACTOR))
    w = G.fundamental_weight(Root(0, 1))
    t = G.fundamental_weight(Root(1, 0))
    assert rd.is_dominant(G, w)
    assert rd.is_dominant(G, tuple(-v for v in t))  # torus coords are free
    assert not rd.is_dominant(G, tuple(-v for v in w))
    triv = GroupProduct((TRIVIAL_FACTOR,))
    assert triv.fundamental_weight(Root(0, 0)) == ()
