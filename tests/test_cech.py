import random
from itertools import combinations

import numpy as np
import pytest

from spingeo.cech import (
    Cochain,
    Nerve,
    circle_nerve,
    coboundary,
    coboundary_matrix,
    cohomology_dim,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    make_nerve,
    nerve_from_dict,
    sphere_nerve,
    torus_nerve,
    w1,
    w2_and_spin_structures,
    w2_cocycle,
)


def random_nerve(rng: random.Random) -> Nerve:
    patches = rng.randint(3, 6)
    pool = list(combinations(range(patches), 2)) + list(combinations(range(patches), 3))
    chosen = rng.sample(pool, rng.randint(2, min(6, len(pool))))
    return make_nerve(patches, chosen)


class TestNerve:
    def test_rejects_unsorted_simplex(self):
        with pytest.raises(ValueError):
            Nerve(3, ((1, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Nerve(2, ((0, 2),))

    def test_rejects_missing_face(self):
        with pytest.raises(ValueError):
            Nerve(3, ((0, 1, 2),))

    def test_rejects_empty_simplex(self):
        with pytest.raises(ValueError, match=r"empty simplex \(\)"):
            make_nerve(2, [()])

    def test_make_nerve_closes_downward(self):
        nerve = make_nerve(3, [(0, 1, 2)])
        assert set(nerve.simplices_of_dim(1)) == {(0, 1), (0, 2), (1, 2)}

    def test_simplices_of_dim_zero(self):
        assert circle_nerve().simplices_of_dim(0) == [(0,), (1,), (2,)]


class TestCochain:
    def test_sign_validation(self):
        nerve = circle_nerve()
        with pytest.raises(ValueError):
            Cochain(nerve, 1, {(0, 1): 0})
        with pytest.raises(ValueError):
            Cochain(nerve, 1, {(0, 3): -1})

    def test_vector_round_trip(self):
        nerve = torus_nerve()
        rng = random.Random(3)
        values = {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)}
        sigma = Cochain(nerve, 1, values)
        assert Cochain.from_vector(nerve, 1, sigma.to_vector()) == sigma

    def test_multiplication(self):
        nerve = circle_nerve()
        a = Cochain(nerve, 1, {(0, 1): -1})
        b = Cochain(nerve, 1, {(0, 1): -1, (1, 2): -1})
        assert (a * b).values == {(0, 1): 1, (0, 2): 1, (1, 2): -1}


class TestCoboundary:
    def test_no_triple_overlaps_means_trivial_target(self):
        # the circle nerve has no 2-simplices, so δ of any 1-cochain is empty
        nerve = circle_nerve()
        sigma = Cochain(nerve, 1, {(0, 1): -1})
        assert coboundary(sigma).values == {}

    def test_vertex_coboundary_example(self):
        nerve = circle_nerve()
        s = Cochain(nerve, 0, {(1,): -1})
        d = coboundary(s)
        assert d[(0, 1)] == -1
        assert d[(1, 2)] == -1
        assert d[(0, 2)] == 1

    def test_delta_squared_is_trivial(self):
        rng = random.Random(19)
        for _ in range(50):
            nerve = random_nerve(rng)
            values = {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(0)}
            sigma = Cochain(nerve, 0, values)
            assert coboundary(coboundary(sigma)).is_trivial()

    def test_matrix_matches_operator(self):
        nerve = torus_nerve()
        rng = random.Random(8)
        sigma = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
        mat = coboundary_matrix(nerve, 1)
        assert np.array_equal((mat @ sigma.to_vector()) % 2, coboundary(sigma).to_vector())


class TestGF2:
    def test_rank(self):
        mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert gf2_rank(mat) == 2

    def test_solve_and_nullspace(self):
        mat = np.array([[1, 1, 0], [0, 1, 1]])
        rhs = np.array([1, 0])
        x = gf2_solve(mat, rhs)
        assert x is not None
        assert np.array_equal((mat @ x) % 2, rhs)
        basis = gf2_nullspace(mat)
        assert len(basis) == 1
        assert np.array_equal((mat @ basis[0]) % 2, np.zeros(2))

    def test_unsolvable(self):
        mat = np.array([[1, 1], [1, 1]])
        assert gf2_solve(mat, np.array([1, 0])) is None


class TestCohomologyDims:
    def test_circle(self):
        nerve = circle_nerve()
        assert [cohomology_dim(nerve, k) for k in range(3)] == [1, 1, 0]

    def test_sphere(self):
        nerve = sphere_nerve()
        assert [cohomology_dim(nerve, k) for k in range(3)] == [1, 0, 1]

    def test_torus(self):
        nerve = torus_nerve()
        assert [cohomology_dim(nerve, k) for k in range(3)] == [1, 2, 1]


class TestW1:
    def test_all_plus_is_orientable(self):
        nerve = circle_nerve()
        cls = w1(Cochain(nerve, 1))
        assert cls.trivial
        assert coboundary(cls.witness) == cls.representative

    def test_mobius_style_signs_are_nonorientable(self):
        # one sign flip around the circle cannot be absorbed by patch signs
        nerve = circle_nerve()
        cls = w1(Cochain(nerve, 1, {(0, 1): -1}))
        assert not cls.trivial
        assert cls.witness is None

    def test_coboundary_input_is_trivial_with_witness(self):
        rng = random.Random(5)
        for _ in range(20):
            nerve = random_nerve(rng)
            s = Cochain(nerve, 0, {t: rng.choice((1, -1)) for t in nerve.simplices_of_dim(0)})
            cls = w1(coboundary(s))
            assert cls.trivial
            assert coboundary(cls.witness) == cls.representative

    def test_non_cocycle_rejected(self):
        nerve = sphere_nerve()
        bad = Cochain(nerve, 1, {(0, 1): -1})
        with pytest.raises(ValueError):
            w1(bad)

    def test_wrong_degree_rejected(self):
        nerve = circle_nerve()
        with pytest.raises(ValueError):
            w1(Cochain(nerve, 0))


class TestW2:
    def test_lift_change_shifts_by_coboundary(self):
        rng = random.Random(23)
        for _ in range(20):
            nerve = random_nerve(rng)
            lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
            kappa = Cochain(nerve, 0, {t: rng.choice((1, -1)) for t in nerve.simplices_of_dim(0)})
            shifted = lifts * coboundary(kappa)
            assert w2_cocycle(shifted) == w2_cocycle(lifts)

    def test_epsilon_is_coboundary_of_lifts(self):
        nerve = torus_nerve()
        rng = random.Random(2)
        lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
        assert w2_cocycle(lifts) == coboundary(lifts)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            w2_cocycle(Cochain(circle_nerve(), 0))


class TestSpinStructures:
    def test_circle_has_two(self):
        report = w2_and_spin_structures(Cochain(circle_nerve(), 1))
        assert report.w2_trivial
        assert report.count == 2
        assert report.torsor_verified

    def test_sphere_has_one(self):
        report = w2_and_spin_structures(Cochain(sphere_nerve(), 1))
        assert report.w2_trivial
        assert report.count == 1
        assert report.torsor_verified

    def test_torus_has_four(self):
        report = w2_and_spin_structures(Cochain(torus_nerve(), 1))
        assert report.w2_trivial
        assert report.count == 4
        assert report.torsor_verified

    def test_count_matches_h1_order(self):
        rng = random.Random(31)
        for _ in range(10):
            nerve = random_nerve(rng)
            lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
            report = w2_and_spin_structures(lifts)
            assert report.w2_trivial  # ε = δ(lifts) is always a coboundary here
            assert report.count == 2 ** cohomology_dim(nerve, 1)
            assert report.torsor_verified

    def test_structures_solve_the_lifting_equation(self):
        nerve = torus_nerve()
        rng = random.Random(6)
        lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
        report = w2_and_spin_structures(lifts)
        for c in report.structures:
            assert coboundary(c) == report.epsilon


class TestSerialization:
    def test_nerve_from_dict(self):
        data = {"patches": 3, "simplices": [[0, 1], [1, 2], [0, 2]]}
        assert nerve_from_dict(data) == circle_nerve()

    def test_nerve_from_dict_closes_downward(self):
        data = {"patches": 4, "simplices": [[0, 1, 2, 3]]}
        nerve = nerve_from_dict(data)
        assert len(nerve.simplices_of_dim(1)) == 6
        assert len(nerve.simplices_of_dim(2)) == 4
