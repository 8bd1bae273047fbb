import json
import random
import time
from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from spingeo import cech, cli
from spingeo.cech import (
    Cochain,
    Nerve,
    circle_nerve,
    coboundary,
    coboundary_matrix,
    cohomology_dim,
    cohomology_dims,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    make_nerve,
    nerve_from_dict,
    sphere_nerve,
    torus_nerve,
    w1,
    w2_and_spin_structures,
)


def apply(rows: list[int], x: int) -> int:
    """A·x over GF(2) by popcount parity: bit r is the parity of row r & x."""
    return sum(((row & x).bit_count() & 1) << r for r, row in enumerate(rows))


def span(vectors: list[int]) -> set[int]:
    """Every XOR of a subset of vectors, by enumerating the subsets."""
    return {
        reduce(xor, (v for i, v in enumerate(vectors) if bits >> i & 1), 0)
        for bits in range(1 << len(vectors))
    }


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

    def test_simplices_of_dim_is_sorted_and_a_fresh_copy(self):
        nerve = Nerve(3, ((1, 2), (0, 1, 2), (0, 2), (0,), (0, 1)))
        assert nerve.simplices_of_dim(0) == [(0,), (1,), (2,)]
        assert nerve.simplices_of_dim(1) == [(0, 1), (0, 2), (1, 2)]
        assert nerve.simplices_of_dim(3) == []
        nerve.simplices_of_dim(1).clear()
        assert nerve.simplices_of_dim(1) == [(0, 1), (0, 2), (1, 2)]
        # the grouping is cached on the nerve but not part of its value
        twin = Nerve(3, nerve.simplices)
        assert nerve == twin and hash(nerve) == hash(twin)

    def test_repr_equality_and_immutability(self):
        nerve = circle_nerve()
        assert repr(nerve) == "Nerve(patches=3, simplices=((0, 1), (0, 2), (1, 2)))"
        assert nerve == Nerve(3, ((0, 1), (0, 2), (1, 2)))
        assert nerve != Nerve(4, nerve.simplices) and nerve != Nerve(3, ((0, 1), (1, 2)))
        assert nerve != (3, nerve.simplices)
        for name, value in [("patches", 4), ("simplices", ()), ("_by_dim", {})]:
            with pytest.raises(AttributeError):
                setattr(nerve, name, value)
        assert nerve.simplices_of_dim(1) == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_empty_simplex(self):
        with pytest.raises(ValueError, match=r"empty simplex \(\)"):
            make_nerve(2, [()])

    @pytest.mark.parametrize(
        "patches, simplices",
        [
            (3, ((0, 1.5),)),
            (3, ((0, 1.0), (1, 2))),
            (3, ((0, True), (1, 2))),
            (3.0, ()),
            (True, ()),
            (-1, ()),
        ],
    )
    def test_rejects_non_integers_and_negative_patches(self, patches, simplices):
        # 1.0 and True compare equal to 1, so a range check alone accepts them
        with pytest.raises(ValueError, match="integer"):
            Nerve(patches, simplices)

    @pytest.mark.parametrize(
        "simplex, message",
        [
            ((0, "a"), r"simplex \(0, 'a'\) must have integer vertices"),
            ((0, None), r"simplex \(0, None\) must have integer vertices"),
            (0, r"simplex 0 must be a list of vertices"),
            ((0, 0, 1), r"simplex \(0, 0, 1\) repeats a vertex"),
            ((0, 3), r"simplex \(0, 3\) outside patch range"),
        ],
    )
    def test_make_nerve_and_nerve_reject_a_bad_simplex_alike(self, simplex, message):
        for build in (make_nerve, Nerve):
            with pytest.raises(ValueError, match=message):
                build(3, (simplex,))

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

    @pytest.mark.parametrize("value", [True, False, 1.0, -1.0, "1"])
    def test_sign_must_be_the_int_plus_or_minus_one(self, value):
        # True == 1 and 1.0 == 1, so a membership test alone accepts them
        with pytest.raises(ValueError, match="as ints"):
            Cochain(circle_nerve(), 1, {(0, 1): value})

    def test_vector_is_a_bitmask_of_minus_signs(self):
        nerve = circle_nerve()  # 1-simplices sorted: (0, 1), (0, 2), (1, 2)
        assert Cochain(nerve, 1, {(0, 2): -1, (1, 2): -1}).to_vector() == 0b110
        assert Cochain.from_vector(nerve, 1, 0b001).values == {(0, 1): -1, (0, 2): 1, (1, 2): 1}

    def test_from_vector_rejects_bits_past_the_basis(self):
        with pytest.raises(ValueError, match="outside the 3 1-simplices"):
            Cochain.from_vector(circle_nerve(), 1, 0b1000)

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

    def test_one_cochain_on_the_sphere_by_hand(self):
        # each triangle multiplies the signs of its three edges:
        # (0, 1, 2) sees both -1 edges, (0, 1, 3) and (1, 2, 3) one each, (0, 2, 3) none
        sigma = Cochain(sphere_nerve(), 1, {(0, 1): -1, (1, 2): -1})
        want = {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): -1}
        assert coboundary(sigma).values == want

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
        assert apply(mat, sigma.to_vector()) == coboundary(sigma).to_vector()


class TestGF2:
    # rows are bitmasks: bit j is column j, so [1, 1, 0] is 0b011
    def test_rank(self):
        assert gf2_rank([0b011, 0b110, 0b101]) == 2

    def test_solve_and_nullspace(self):
        mat = [0b011, 0b110]
        rhs = 0b01
        x = gf2_solve(mat, rhs, 3)
        assert x is not None
        assert apply(mat, x) == rhs
        basis = gf2_nullspace(mat, 3)
        assert len(basis) == 1
        assert apply(mat, basis[0]) == 0

    def test_unsolvable(self):
        assert gf2_solve([0b11, 0b11], 0b01, 2) is None

    def test_solve_rejects_rows_wider_than_ncols(self):
        with pytest.raises(ValueError, match="outside the 2 columns"):
            gf2_solve([0b100], 0b1, 2)


@st.composite
def gf2_matrices(draw):
    """(rows, ncols): up to 7 rows of bitmasks over 1..7 columns."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=7))
    return rows, ncols


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


class TestGF2AgainstBruteForce:
    @PROPERTY_SETTINGS
    @given(gf2_matrices())
    def test_rank_counts_the_row_span(self, matrix):
        rows, _ = matrix
        assert 2 ** gf2_rank(rows) == len(span(rows))

    @PROPERTY_SETTINGS
    @given(gf2_matrices(), st.integers(0, (1 << 7) - 1))
    def test_solve_finds_a_solution_exactly_when_one_exists(self, matrix, rhs):
        rows, ncols = matrix
        rhs &= (1 << len(rows)) - 1
        solvable = any(apply(rows, x) == rhs for x in range(1 << ncols))
        x = gf2_solve(rows, rhs, ncols)
        if solvable:
            assert x is not None and 0 <= x < 1 << ncols
            assert apply(rows, x) == rhs
        else:
            assert x is None

    @PROPERTY_SETTINGS
    @given(gf2_matrices())
    def test_nullspace_is_an_independent_kernel_basis(self, matrix):
        rows, ncols = matrix
        rank = len(span(rows)).bit_length() - 1
        kernel = gf2_nullspace(rows, ncols)
        assert len(kernel) == ncols - rank
        assert all(apply(rows, z) == 0 for z in kernel)
        assert len(span(kernel)) == 2 ** len(kernel)  # independent


def transpose(rows: list[int], ncols: int) -> list[int]:
    """The columns of a row-bitmask matrix as rows: bit r of column c is bit c of row r."""
    return [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(ncols)]


@st.composite
def wide_gf2_matrices(draw):
    """(rows, ncols) over 8..64 columns, each row a sum of a few drawn rows, so many are dependent."""
    ncols = draw(st.integers(8, 64))
    gens = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(1, (1 << len(gens)) - 1), max_size=16))
    return [reduce(xor, (g for i, g in enumerate(gens) if p >> i & 1), 0) for p in picks], ncols


@st.composite
def criterion_9_nerves(draw):
    """Nerves drawn as in criterion 9: pairs, triples and quadruples of 3 to 7 patches, closed downward."""
    patches = draw(st.integers(3, 7))
    pool = [s for size in (2, 3, 4) for s in combinations(range(patches), size)]
    return make_nerve(patches, draw(st.lists(st.sampled_from(pool), max_size=20)))


def components(nerve: Nerve) -> int:
    """Connected components of the 1-skeleton, by union-find."""
    parent = list(range(nerve.patches))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in nerve.simplices_of_dim(1):
        parent[root(a)] = root(b)
    return sum(root(v) == v for v in range(nerve.patches))


class TestInvariantsOfAnyPivotRule:
    """What every correct elimination gives, whichever row it pivots on."""

    @PROPERTY_SETTINGS
    @given(wide_gf2_matrices())
    def test_rank_ignores_row_order_transposition_and_repeats(self, matrix):
        rows, ncols = matrix
        rank = gf2_rank(rows)
        assert rank == gf2_rank(rows[::-1]) == gf2_rank(transpose(rows, ncols)) == gf2_rank(rows + rows)

    @PROPERTY_SETTINGS
    @given(criterion_9_nerves())
    def test_cohomology_of_random_nerves(self, nerve):
        f = [len(nerve.simplices_of_dim(k)) for k in range(4)]
        dims = [cohomology_dim(nerve, k) for k in range(4)]
        assert cohomology_dims(nerve, 3) == dims
        # Σ(-1)^k dim H^k = Σ(-1)^k f_k telescopes for any rank function, so it only
        # checks cohomology_dim's bookkeeping; the next two oracles see wrong ranks
        assert sum((-1) ** k * d for k, d in enumerate(dims)) == sum((-1) ** k * n for k, n in enumerate(f))
        assert dims[0] == components(nerve)
        # over a field H^k ≅ H_k, whose boundary matrices are the transposed δ's
        boundary = [transpose(coboundary_matrix(nerve, k), f[k]) for k in range(4)]
        homology = [f[k] - gf2_rank(boundary[k]) - (gf2_rank(boundary[k - 1]) if k else 0) for k in range(4)]
        assert dims == homology

    @PROPERTY_SETTINGS
    @given(criterion_9_nerves())
    def test_make_nerve_builds_what_nerve_accepts(self, nerve):
        checked = Nerve(nerve.patches, nerve.simplices)
        assert checked == nerve and checked._by_dim == nerve._by_dim


class TestEchelonNormalForm:
    @PROPERTY_SETTINGS
    @given(gf2_matrices(), st.integers(0, (1 << 7) - 1))
    def test_reduce_is_a_normal_form_modulo_the_span(self, matrix, v):
        rows, ncols = matrix
        v &= (1 << ncols) - 1
        basis = cech._echelon(rows)
        spanned = span(rows)
        normal = cech._reduce(v, basis)
        assert all(cech._reduce(v ^ w, basis) == normal for w in spanned)
        assert not any(normal >> pivot & 1 for pivot in basis)  # keys are pivot columns
        assert (normal == 0) == (v in spanned)


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

    def test_all_dims_at_once_match_the_calls_per_k(self):
        nerves = [circle_nerve(), sphere_nerve(), torus_nerve(), make_nerve(16, torus_grid(4)),
                  make_nerve(16, klein_grid(4)), make_nerve(7, TORUS7), make_nerve(6, RP2),
                  make_nerve(*genus_surface(2)), make_nerve(4, [(0, 1, 2, 3)]), make_nerve(5, [(0, 1), (3,)])]
        for nerve in nerves:
            for top in range(4):
                assert cohomology_dims(nerve, top) == [cohomology_dim(nerve, k) for k in range(top + 1)], nerve

    def test_all_dims_at_once_rank_each_coboundary_once(self, monkeypatch):
        nerve = make_nerve(16, torus_grid(4))
        ranked = []
        true_rank = cech.gf2_rank
        monkeypatch.setattr(cech, "gf2_rank", lambda rows: ranked.append(rows) or true_rank(rows))
        assert cohomology_dims(nerve, 2) == [1, 2, 1]
        assert ranked == [coboundary_matrix(nerve, k) for k in range(3)]

    def test_all_dims_at_once_need_a_nonnegative_top(self):
        with pytest.raises(ValueError, match="top must be nonnegative"):
            cohomology_dims(torus_nerve(), -1)


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
            shifted = w2_and_spin_structures(lifts * coboundary(kappa))
            assert shifted == w2_and_spin_structures(lifts)  # field by field: ε, w₂, count, structures, torsor

    def test_epsilon_is_coboundary_of_lifts(self):
        nerve = torus_nerve()
        rng = random.Random(2)
        lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
        assert w2_and_spin_structures(lifts).epsilon == coboundary(lifts)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            w2_and_spin_structures(Cochain(circle_nerve(), 0))


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


def all_pairs_torsor(nerve: Nerve, eps: int, vectors: list[int]) -> bool:
    """The O(|H¹|²) torsor check the certificate replaced, kept as the reference.

    Classes modulo im δ₀ are keyed by brute force over all 2^patches vertex
    cochains and H¹ is every cocycle class; the structures must solve δc = ε,
    be distinct classes, and H¹ must act on them freely and transitively.
    """
    delta1 = coboundary_matrix(nerve, 1)
    image = {coboundary(Cochain.from_vector(nerve, 0, s)).to_vector() for s in range(1 << nerve.patches)}

    def key(v):
        return min(v ^ b for b in image)

    h1 = {key(z) for z in span(gf2_nullspace(delta1, len(nerve.simplices_of_dim(1))))}
    keys = {key(v) for v in vectors}
    if any(apply(delta1, v) != eps for v in vectors) or not len(keys) == len(h1) == len(vectors):
        return False
    return all({key(v ^ h) for h in h1} == keys for v in vectors)


class TestTorsorCertificate:
    def test_agrees_with_the_all_pairs_reference(self):
        rng = random.Random(41)
        nerves = [circle_nerve(), sphere_nerve(), torus_nerve()] + [random_nerve(rng) for _ in range(30)]
        outcomes = set()
        for nerve in nerves:
            lifts = Cochain(nerve, 1, {s: rng.choice((1, -1)) for s in nerve.simplices_of_dim(1)})
            report = w2_and_spin_structures(lifts)
            vertices = [Cochain.from_vector(nerve, 0, 1 << i) for i in range(nerve.patches)]
            stars = [coboundary(v).to_vector() for v in vertices]
            image = cech._echelon(stars)
            vectors = [c.to_vector() for c in report.structures]
            first = vectors[0]
            candidates = [
                vectors,
                vectors[:-1],  # one class missing
                vectors + [first],  # one class twice
                [first ^ stars[0]] + vectors[1:],  # another representative of the same class
                [first ^ 1] + vectors[1:],  # first edge flipped
            ]
            for i, candidate in enumerate(candidates):
                want = all_pairs_torsor(nerve, report.epsilon.to_vector(), candidate)
                assert cech._verify_torsor(report.epsilon, candidate, image) == want, (nerve, i)
                outcomes.add(want)
            assert report.torsor_verified
        assert outcomes == {True, False}

    def test_a_wrong_b1_fails_the_certificate_and_the_cli(self, monkeypatch, capsys):
        # the certificate counts b₁ from the rank of the δ₁ it builds: one rank too few, one b₁ too many
        true_rank = cech.gf2_rank
        monkeypatch.setattr(cech, "gf2_rank", lambda rows: true_rank(rows) - 1)
        report = w2_and_spin_structures(Cochain(torus_nerve(), 1))
        assert report.count == 4 and not report.torsor_verified
        assert cli.main(["cech", "--nerve", "torus", "--w2", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["torsor_verified"] is False


class TestSerialization:
    def test_nerve_from_dict(self):
        data = {"patches": 3, "simplices": [[0, 1], [1, 2], [0, 2]]}
        assert nerve_from_dict(data) == circle_nerve()

    def test_nerve_from_dict_closes_downward(self):
        data = {"patches": 4, "simplices": [[0, 1, 2, 3]]}
        nerve = nerve_from_dict(data)
        assert len(nerve.simplices_of_dim(1)) == 6
        assert len(nerve.simplices_of_dim(2)) == 4

    @pytest.mark.parametrize("patches", [3.7, 3.0, "3", True, None])
    def test_nerve_from_dict_rejects_a_non_integer_patch_count(self, patches):
        with pytest.raises(ValueError, match="patches must be an integer"):
            nerve_from_dict({"patches": patches, "simplices": [[0, 1], [1, 2], [0, 2]]})


def refuse(*args, **kwargs):
    raise AssertionError("an oversized nerve file reached the build")


class TestNerveFileLimits:
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"patches": 10**8, "simplices": []}, "patches must be at most 1,000,000, not 100,000,000"),
            ({"patches": 17, "simplices": [list(range(17)), [0, 1]]}, "close down to more than 131,072 faces"),
            ({"patches": 30, "simplices": [list(range(30))]}, "close down to more than 131,072 faces"),
            (
                {"patches": 2**14 + 1, "simplices": [list(range(17))]},
                "16,385 patches times 131,072 faces is over 2,147,483,648",
            ),
        ],
    )
    def test_one_past_a_limit_is_rejected_before_the_build(self, monkeypatch, data, message):
        monkeypatch.setattr(cech, "make_nerve", refuse)
        with pytest.raises(ValueError, match=message):
            nerve_from_dict(data)

    def test_the_limits_themselves_load(self, monkeypatch):
        monkeypatch.setattr(cech, "NERVE_MAX_PATCHES", 4)
        monkeypatch.setattr(cech, "NERVE_MAX_CLOSURE", 12)
        monkeypatch.setattr(cech, "NERVE_MAX_PATCHES_TIMES_CLOSURE", 48)
        nerve = nerve_from_dict({"patches": 4, "simplices": [[0, 1, 2], [2, 3]]})  # 2^3 + 2^2 = 12 faces
        assert len(nerve.simplices_of_dim(1)) == 4
        with pytest.raises(ValueError, match="patches must be at most 4, not 5"):
            nerve_from_dict({"patches": 5, "simplices": []})
        with pytest.raises(ValueError, match="more than 12 faces"):
            nerve_from_dict({"patches": 4, "simplices": [[0, 1, 2], [2, 3], [3]]})
        monkeypatch.setattr(cech, "NERVE_MAX_PATCHES_TIMES_CLOSURE", 47)
        with pytest.raises(ValueError, match="4 patches times 12 faces is over 47"):
            nerve_from_dict({"patches": 4, "simplices": [[0, 1, 2], [2, 3]]})

    def test_make_nerve_stays_unbounded(self, monkeypatch):
        for limit in ("NERVE_MAX_PATCHES", "NERVE_MAX_CLOSURE", "NERVE_MAX_PATCHES_TIMES_CLOSURE"):
            monkeypatch.setattr(cech, limit, 1)
        assert len(make_nerve(5, [[0, 1, 2, 3, 4]]).simplices_of_dim(4)) == 1


# -- surfaces of known topology (Hatcher, Algebraic Topology, 2002) -------------

def grid_triangles(k: int, v) -> list[tuple[int, ...]]:
    """Triangles of the k x k grid, with v(i, j) the vertex at i, j in 0..k."""
    tris = []
    for i in range(k):
        for j in range(k):
            tris.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
            tris.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return tris


def torus_grid(k: int) -> list[tuple[int, ...]]:
    """Triangles of the k x k grid triangulation of the torus."""
    return grid_triangles(k, lambda i, j: (i % k) * k + j % k)


def klein_grid(k: int) -> list[tuple[int, ...]]:
    """The k x k grid glued as a Klein bottle: (i + k, j) ≡ (i, -j)."""
    return grid_triangles(k, lambda i, j: (i % k) * k + (j if i < k else -j) % k)


# the 7-vertex (Möbius-Császár) torus
TORUS7 = [tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)]

# the 6-vertex real projective plane (hemi-icosahedron)
RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def genus_surface(g: int) -> tuple[int, list[tuple[int, ...]]]:
    """Connected sum of g 7-vertex tori, each glued along a fresh triangle.

    The last triangle of the surface so far and the torus triangle (0, 1, 3)
    are removed and their boundaries identified; the torus's other four
    vertices are new.
    """
    vertices, tris = 7, list(TORUS7)
    for _ in range(g - 1):
        cut = tris.pop()
        fresh = iter(range(vertices, vertices + 4))
        label = {v: (cut[(0, 1, 3).index(v)] if v in (0, 1, 3) else next(fresh)) for v in range(7)}
        tris += [tuple(sorted(label[v] for v in t)) for t in TORUS7 if t != (0, 1, 3)]
        vertices += 4
    return vertices, tris


def assert_closed_surface(vertices, tris, euler):
    edges = [e for t in tris for e in combinations(t, 2)]
    assert len(set(tris)) == len(tris)
    assert all(edges.count(e) == 2 for e in set(edges))  # every edge on two triangles
    assert vertices - len(set(edges)) + len(tris) == euler


def orientable(tris) -> bool:
    """Whether signs o_t exist with Σ o_t ∂t = 0, i.e. the triangles orient coherently."""
    def boundary(t):
        a, b, c = t
        return (((b, c), 1), ((a, c), -1), ((a, b), 1))

    incident = {}
    for t in tris:
        for edge, sign in boundary(t):
            incident.setdefault(edge, []).append((t, sign))
    orientation, stack = {tris[0]: 1}, [tris[0]]
    while stack:
        t = stack.pop()
        for edge, sign in boundary(t):
            for u, other in incident[edge]:
                want = -orientation[t] * sign * other  # the edge cancels: o_u·other = -o_t·sign
                if u not in orientation:
                    orientation[u] = want
                    stack.append(u)
                elif u != t and orientation[u] != want:
                    return False
    return True


class TestSurfaces:
    @pytest.mark.parametrize("k", [4, 10, 30])
    def test_torus_grid(self, k):
        tris = torus_grid(k)
        assert_closed_surface(k * k, tris, 0)
        nerve = make_nerve(k * k, tris)
        assert [cohomology_dim(nerve, d) for d in range(3)] == [1, 2, 1]
        start = time.perf_counter()
        report = w2_and_spin_structures(Cochain(nerve, 1))
        elapsed = time.perf_counter() - start
        assert report.w2_trivial and report.count == 4 and report.torsor_verified
        budget = {4: 1.0, 30: 0.5}.get(k)
        if budget:
            assert elapsed < budget, f"{k}x{k} torus spin structures took {elapsed:.2f} s"

    def test_torus_grid_60_with_shuffled_labels_within_budget(self):
        k = 60
        perm = list(range(k * k))
        random.Random(60).shuffle(perm)
        nerve = make_nerve(k * k, [tuple(sorted(perm[v] for v in t)) for t in torus_grid(k)])
        start = time.perf_counter()
        dims = [cohomology_dim(nerve, d) for d in range(3)]
        report = w2_and_spin_structures(Cochain(nerve, 1))
        elapsed = time.perf_counter() - start
        assert dims == [1, 2, 1]
        assert report.w2_trivial and report.count == 4 and report.torsor_verified
        assert elapsed < 5.0, f"60x60 torus cohomology and spin structures took {elapsed:.2f} s"

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_genus_g_surface(self, g):
        vertices, tris = genus_surface(g)
        assert_closed_surface(vertices, tris, 2 - 2 * g)
        nerve = make_nerve(vertices, tris)
        assert [cohomology_dim(nerve, d) for d in range(3)] == [1, 2 * g, 1]
        rng = random.Random(g)
        lifts = Cochain(nerve, 1, {e: rng.choice((1, -1)) for e in nerve.simplices_of_dim(1)})
        start = time.perf_counter()
        report = w2_and_spin_structures(lifts)
        elapsed = time.perf_counter() - start
        assert report.w2_trivial
        assert report.count == 2 ** (2 * g)
        assert report.torsor_verified
        assert all(coboundary(c) == report.epsilon for c in report.structures)
        assert elapsed < 1.0, f"genus-{g} spin structures took {elapsed:.2f} s"

    def test_klein_bottle(self):
        tris = klein_grid(4)
        assert_closed_surface(16, tris, 0)
        assert orientable(torus_grid(4)) and orientable(TORUS7)
        assert not orientable(tris)
        nerve = make_nerve(16, tris)
        assert [cohomology_dim(nerve, d) for d in range(3)] == [1, 2, 1]
        report = w2_and_spin_structures(Cochain(nerve, 1))
        assert report.w2_trivial and report.count == 4 and report.torsor_verified

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    def test_rp2_w2_is_not_trivial(self):
        # On a closed surface ⟨w₂, [M]⟩ = χ(M) mod 2 (Wu's formula); χ(RP²) = 6 - 15 + 10 = 1 from the f-vector.
        chi = 6 - len({e for t in RP2 for e in combinations(t, 2)}) + len(RP2)
        assert chi % 2 == 1  # checked outside this xfail too, by assert_closed_surface(6, RP2, 1) below
        assert not w2_and_spin_structures(Cochain(make_nerve(6, RP2), 1)).w2_trivial

    def test_rp2_dims_and_nontrivial_w1(self):
        assert_closed_surface(6, RP2, 1)
        assert not orientable(RP2)
        nerve = make_nerve(6, RP2)
        assert [cohomology_dim(nerve, d) for d in range(3)] == [1, 1, 1]
        # im δ₀ by brute force over all 2^6 vertex sign patterns
        coboundaries = {
            coboundary(Cochain.from_vector(nerve, 0, s)).to_vector() for s in range(1 << 6)
        }
        kernel = gf2_nullspace(coboundary_matrix(nerve, 1), len(nerve.simplices_of_dim(1)))
        outside = [z for z in kernel if z not in coboundaries]
        assert outside
        c = Cochain.from_vector(nerve, 1, outside[0])
        assert coboundary(c).is_trivial()
        cls = w1(c)
        assert not cls.trivial and cls.witness is None
