import math
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spingeo import index_lab
from spingeo.index_lab import (
    SUPERTRACE_TOL,
    SpectralModel,
    delta_limit_error,
    dlambda_model,
    line_heat_kernel,
    mckean_singer_check,
    mehler_kernel,
    oscillator_eigen_expansion,
    semigroup_residual,
    sphere2_hodge_model,
    sphere2_tail_bound,
    torus2_hodge_model,
    torus_dirac_model,
)
from spingeo.spinrep import SpinorSpace, relations_residual


class TestSpectralModel:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SpectralModel("bad", [(-1.0, 1, 1)])
        with pytest.raises(ValueError):
            SpectralModel("bad", [(1.0, 0, 1)])
        with pytest.raises(ValueError):
            SpectralModel("bad", [(1.0, 1, 2)])
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="invalid spectral entry"):
                SpectralModel("bad", [(0.0, 1, 1), (lam, 1, -1)])

    def test_rows_are_sorted_and_compared_by_value(self):
        model = SpectralModel("m", [(3.0, 1, -1), (0.0, 2, 1)])
        assert model.entries == [(0.0, 2, 1), (3.0, 1, -1)]
        assert repr(model) == "SpectralModel(name='m', entries=[(0.0, 2, 1), (3.0, 1, -1)])"
        assert model == SpectralModel("m", [(0.0, 2, 1), (3.0, 1, -1)])
        assert model != SpectralModel("n", model.entries) and model != SpectralModel("m", [(0.0, 2, 1)])
        assert dlambda_model(0.5, 3) == dlambda_model(0.5, 3) != dlambda_model(0.25, 3)

    def test_supertrace_needs_positive_time(self):
        model = SpectralModel("m", [(0.0, 1, 1)])
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be positive"):
                model.supertrace(t)

    def test_kernel_and_symmetry(self):
        model = SpectralModel("m", [(0.0, 2, 1), (3.0, 1, 1), (3.0, 1, -1)])
        assert model.kernel_dim() == 2
        assert (model.zero_modes(+1), model.zero_modes(-1)) == (2, 0)
        assert model.spectral_symmetry_holds()
        assert model.supertrace(1.0) == pytest.approx(2.0)


def full_ascending_sum(rows, t):
    """str e^{-tD²} over every row, smallest eigenvalue first: the sum before the underflow cut."""
    total = 0.0
    for lam, mult, chi in sorted(rows):
        total += chi * mult * math.exp(-t * lam)
    return total


@st.composite
def rows_and_times(draw):
    """Rows whose e^{-tλ} is 1, normal, subnormal or 0.0, some repeated, with t in [1e-3, 1e3]."""
    t = draw(st.floats(1e-3, 1e3))
    lams = st.one_of(
        st.sampled_from([0.0, math.ulp(0.0), 1e300, sys.float_info.max]),
        st.floats(0.0, 800 / t),  # e^{-800} underflows
        st.floats(math.ulp(0.0), sys.float_info.min).map(lambda y: -math.log(y) / t),  # subnormal e^{-tλ}
    )
    rows = draw(st.lists(st.tuples(lams, st.integers(1, 10**6), st.sampled_from([1, -1])), min_size=1, max_size=12))
    return rows + draw(st.lists(st.sampled_from(rows), max_size=4)), t


class TestSpectralSums:
    """The supertrace stops at the first row whose e^{-tλ} is 0.0, zero_modes at the first λ > 0."""

    @settings(max_examples=300, deadline=None)
    @given(rows_and_times())
    @example(([(744.0, 1, 1)], 1.0))  # e^{-744} = 1e-323, subnormal
    @example(([(702.0, 3, -1), (800.0, 1, 1)], 1.0))  # e^{-702} = 1.3e-305, below 1e-300 yet normal
    @example(([(0.0, 2, 1), (0.0, 1, -1), (0.0, 1, -1), (5e-324, 4, 1)], 1e3))
    def test_values_equal_the_full_sums(self, case):
        rows, t = case
        model = SpectralModel("m", rows)
        assert model.supertrace(t).hex() == full_ascending_sum(rows, t).hex()
        for chirality in (1, -1):
            assert model.zero_modes(chirality) == sum(mult for lam, mult, chi in rows if lam == 0 and chi == chirality)

    @pytest.mark.parametrize(
        "build",
        [*(partial(torus_dirac_model, delta) for delta in ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5))),
         torus2_hodge_model, sphere2_hodge_model],
        ids=["dirac-00", "dirac-0h", "dirac-h0", "dirac-hh", "torus2", "sphere2"],
    )
    @pytest.mark.parametrize("cutoff", [1, 7, 25, 60])
    def test_builders_emit_sorted_rows(self, build, cutoff):
        model = build(cutoff)
        assert model == SpectralModel(model.name, model.entries)

    def test_supertrace_evaluates_up_to_the_first_underflow(self, monkeypatch):
        # e^{-0.1 l(l+1)} > 0 for l ≤ 85: 171 of the 6,001 rows, then one exp that underflows
        model = sphere2_hodge_model(3000)
        live = sum(1 for lam, _, _ in model.entries if math.exp(-0.1 * lam) > 0)
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                calls.append(x)
                return math.exp(x)

        monkeypatch.setattr(index_lab, "math", CountingMath())
        assert model.supertrace(0.1) == pytest.approx(2.0, abs=1e-12)
        assert (len(calls), live) == (172, 171)

    @pytest.mark.parametrize(
        "build, limit, message",
        [
            (lambda n: dlambda_model(0.5, n), "DLAMBDA_MAX_CUTOFF", "cutoff"),
            (lambda n: torus_dirac_model((0.5, 0), n), "TORUS_MAX_CUTOFF", "cutoff"),
            (torus2_hodge_model, "TORUS_MAX_CUTOFF", "cutoff"),
            (sphere2_hodge_model, "SPHERE2_MAX_L", "l_max"),
        ],
    )
    def test_sizes_are_bounded(self, monkeypatch, build, limit, message):
        top = getattr(index_lab, limit)
        for n in (top + 1, 10**12):
            with pytest.raises(ValueError, match=f"{message} must be at most {top}, not {n}$"):
                build(n)
        monkeypatch.setattr(index_lab, limit, 3)
        assert build(3).entries  # the limit itself is allowed
        with pytest.raises(ValueError, match=f"{message} must be at most 3, not 4$"):
            build(4)


def dlambda_kernels(lam, cutoff):
    """(ker, coker, index) of D_λ read off the model's zero modes."""
    model = dlambda_model(lam, cutoff)
    kernel, cokernel = model.zero_modes(+1), model.zero_modes(-1)
    return kernel, cokernel, kernel - cokernel


class TestDLambda:
    def test_integer_lambda(self):
        assert dlambda_kernels(3, cutoff=10) == (1, 1, 0)

    def test_noninteger_lambda(self):
        assert dlambda_kernels(0.5, cutoff=10) == (0, 0, 0)

    def test_tiny_lambda_is_no_zero_mode(self):
        # (2πλ)² underflows to 0.0 for |λ| < 1e-162, yet n = 0 ≠ λ
        for lam in (1e-170, -1e-300, 5e-324):
            assert dlambda_kernels(lam, cutoff=3) == (0, 0, 0)
        assert dlambda_kernels(0.0, cutoff=3) == (1, 1, 0)

    def test_index_vanishes_on_sweep(self):
        for lam in np.linspace(-3, 3, 25):
            assert dlambda_kernels(float(lam), cutoff=8)[2] == 0

    def test_cutoff_precondition(self):
        with pytest.raises(ValueError, match="cutoff must exceed"):
            dlambda_model(5, cutoff=5)

    def test_nonfinite_lambda_rejected(self):
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="λ must be finite"):
                dlambda_model(lam, cutoff=10)

    def test_model_supertrace_is_zero(self):
        # n -> -n matches the two sides, so the spectra agree for any λ
        for lam in (0.25, 1.0):
            model = dlambda_model(lam, cutoff=30)
            assert abs(model.supertrace(0.2)) <= 1e-12
            assert model.spectral_symmetry_holds()


class TestTorusDirac:
    def test_kernel_only_for_trivial_structure(self):
        assert torus_dirac_model((0, 0), cutoff=3).kernel_dim() == 2
        for delta in ((0, 0.5), (0.5, 0), (0.5, 0.5)):
            assert torus_dirac_model(delta, cutoff=3).kernel_dim() == 0

    def test_supertrace_vanishes_identically(self):
        for delta in ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)):
            model = torus_dirac_model(delta, cutoff=6)
            for t in (0.05, 0.2, 1.0):
                assert abs(model.supertrace(t)) <= 1e-12

    def test_spectral_symmetry(self):
        model = torus_dirac_model((0.5, 0.5), cutoff=4)
        assert model.spectral_symmetry_holds()

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            torus_dirac_model((0.3, 0), cutoff=3)
        with pytest.raises(ValueError):
            torus_dirac_model((0, 0), cutoff=0)
        for delta in ((), (0.5,), (0, 0, 0.5)):
            with pytest.raises(ValueError, match="must be 2 values"):
                torus_dirac_model(delta, cutoff=3)


def per_mode_rows(delta, cutoff, states):
    """{(λ, χ): multiplicity} from one (λ, states, ±1) pair per Fourier mode, the models' rows before grouping."""
    rows = Counter()
    for n in range(-cutoff, cutoff + 1):
        for m in range(-cutoff, cutoff + 1):
            lam = 4 * math.pi**2 * ((n + delta[0]) ** 2 + (m + delta[1]) ** 2)
            rows[lam, +1] += states
            rows[lam, -1] += states
    return rows


class TestGroupedTorusSpectra:
    """The torus models emit one row per distinct (λ, χ); the per-mode enumeration is the reference."""

    @pytest.mark.parametrize(
        "build, delta, states, kernel",
        [
            (torus_dirac_model, (0, 0), 1, 2),
            (torus_dirac_model, (0, 0.5), 1, 0),
            (torus_dirac_model, (0.5, 0), 1, 0),
            (torus_dirac_model, (0.5, 0.5), 1, 0),
            (lambda delta, cutoff: torus2_hodge_model(cutoff), (0, 0), 2, 4),
        ],
    )
    @pytest.mark.parametrize("cutoff", [1, 7, 25])
    def test_rows_match_the_per_mode_enumeration(self, build, delta, states, kernel, cutoff):
        model = build(delta, cutoff)
        keys = [(lam, chi) for lam, _, chi in model.entries]
        assert len(set(keys)) == len(keys)  # each (λ, χ) once
        assert Counter({(lam, chi): mult for lam, mult, chi in model.entries}) == per_mode_rows(delta, cutoff, states)
        assert model.kernel_dim() == kernel
        for t in (0.01, 0.1, 0.5, 2.0):
            assert model.supertrace(t) == 0.0


class TestHodgeSupertraces:
    def test_sphere_value_is_euler_characteristic(self):
        for t in (0.1, 0.5, 2.0):
            assert sphere2_hodge_model(40).supertrace(t) == pytest.approx(2.0, abs=1e-12)

    def test_torus_value_is_zero(self):
        for t in (0.1, 0.5, 2.0):
            assert torus2_hodge_model(20).supertrace(t) == pytest.approx(0.0, abs=1e-12)

    def test_tail_bound_controls_truncation(self):
        t = 0.1
        coarse = sphere2_hodge_model(12).supertrace(t)
        fine = sphere2_hodge_model(60).supertrace(t)
        assert abs(coarse - fine) <= sphere2_tail_bound(t, 12)

    def test_tail_bound_holds_from_t_one_tenth(self):
        assert sphere2_tail_bound(0.1, 40) < 1e-60
        for t in (0.099, 0.01, 1e-9):
            with pytest.raises(ValueError, match="t ≥ 0.1"):
                sphere2_tail_bound(t, 40)

    def test_lmax_precondition(self):
        with pytest.raises(ValueError):
            sphere2_hodge_model(0)
        with pytest.raises(ValueError):
            torus2_hodge_model(-1)
        assert sorted(torus2_hodge_model(0).entries) == [(0.0, 2, -1), (0.0, 2, +1)]  # zero mode


class TestMcKeanSinger:
    def test_indices_across_models(self):
        grid = [0.1, 0.3, 1.0, 2.5]
        cases = [
            (sphere2_hodge_model(40), 2),
            (torus2_hodge_model(15), 0),
            (torus_dirac_model((0, 0), 6), 0),
            (dlambda_model(0.5, 40), 0),
        ]
        for model, index in cases:
            got = mckean_singer_check(model, grid)
            assert got["inferred_index"] == index
            assert got["max_deviation_from_integer"] <= 1e-10
            assert got["passed"] and mckean_singer_check(model, grid, index)["passed"]
            assert not mckean_singer_check(model, grid, index + 1)["passed"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mckean_singer_check(sphere2_hodge_model(5), [])

    # str = 1 + e^{-t}: index 1 with a tail of e^{-t}, bounded with 1 % room for rounding
    DECAYING = SpectralModel("decaying", [(0.0, 1, +1), (1.0, 1, +1)])

    def tail(self, t):
        return 1.01 * math.exp(-t)

    def test_verdict_uses_the_tail_bound(self):
        grid = [0.1, 5.0]
        assert mckean_singer_check(self.DECAYING, grid, 1, self.tail)["passed"]
        assert not mckean_singer_check(self.DECAYING, grid, 1)["passed"]

    def test_verdict_compares_with_the_expected_index(self):
        # the values round to 2 at t = 0.1 and to 1 at t = 5
        got = mckean_singer_check(self.DECAYING, [0.1, 5.0], 1, self.tail)
        assert got["inferred_index"] == 2 and got["passed"]
        got = mckean_singer_check(self.DECAYING, [5.0, 0.1], 2, self.tail)
        assert got["inferred_index"] == 1 and not got["passed"]

    def test_floor_is_the_named_tolerance(self):
        near = SpectralModel("near", [(0.0, 1, +1), (40.0, 1, +1)])
        t = -math.log(SUPERTRACE_TOL / 2) / 40  # str = 1 + SUPERTRACE_TOL / 2
        assert mckean_singer_check(near, [t], 1)["passed"]
        assert not mckean_singer_check(near, [t / 2], 1)["passed"]


class TestHeatKernels:
    def test_line_kernel_normalization(self):
        # peak value and symmetry
        assert line_heat_kernel(0.25, 0, 0) == pytest.approx(1 / math.sqrt(math.pi))
        assert line_heat_kernel(0.3, 1.0, -0.5) == line_heat_kernel(0.3, -0.5, 1.0)

    def test_positive_time_required(self):
        calls = [
            lambda t: line_heat_kernel(t, 0, 0),
            lambda t: mehler_kernel(t, 0, 0, 1.0),
            lambda t: oscillator_eigen_expansion(t, 0, 0, 1.0),
            lambda t: semigroup_residual(line_heat_kernel, t, 0.5, (0.0,)),
            lambda t: semigroup_residual(line_heat_kernel, 0.5, t, (0.0,)),
        ]
        for call in calls:
            for t in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="must be positive and finite"):
                    call(t)
        with pytest.raises(ValueError, match="a must be positive"):
            oscillator_eigen_expansion(0.5, 0, 0, 0.0)

    def test_mehler_symmetry(self):
        assert mehler_kernel(0.2, 0.7, -0.3, 1.5) == pytest.approx(
            mehler_kernel(0.2, -0.3, 0.7, 1.5)
        )

    def test_mehler_matches_eigenfunction_oracle(self):
        for x in (-1.0, -0.25, 0.0, 0.5, 1.5):
            for y in (-0.5, 0.0, 1.0):
                closed = mehler_kernel(0.3, x, y, 1.0)
                series = oscillator_eigen_expansion(0.3, x, y, 1.0)
                assert abs(closed - series) <= 1e-8

    def test_eigen_expansion_terms_are_hermite_functions(self):
        # term k is e^{-ta(2k+1)} ψ_k(x) ψ_k(y), with H_k from numpy's Hermite series as the reference
        t, a, x, y = 0.3, 2.0, 0.7, -0.4

        def psi(k, z):
            h = np.polynomial.hermite.hermval(math.sqrt(a) * z, [0] * k + [1])
            return (a / math.pi) ** 0.25 * h * math.exp(-a * z * z / 2) / math.sqrt(2.0**k * math.factorial(k))

        for k in range(12):
            term = oscillator_eigen_expansion(t, x, y, a, terms=k + 1) - oscillator_eigen_expansion(t, x, y, a, terms=k)
            assert term == pytest.approx(math.exp(-t * a * (2 * k + 1)) * psi(k, x) * psi(k, y), rel=1e-9, abs=1e-15)

    def test_mehler_degenerates_to_line_kernel(self):
        for x, y in [(0.0, 0.0), (0.5, -0.4), (1.2, 0.9)]:
            assert abs(mehler_kernel(0.4, x, y, 1e-6) - line_heat_kernel(0.4, x, y)) <= 1e-8
        assert mehler_kernel(0.4, 0.3, -0.1, 0) == line_heat_kernel(0.4, 0.3, -0.1)

    def test_line_semigroup_property(self):
        xs = (-1.0, 0.0, 0.7)
        assert semigroup_residual(line_heat_kernel, 0.5, 0.5, xs) <= 1e-6

    def test_mehler_semigroup_property(self):
        def kernel(t, x, y):
            return mehler_kernel(t, x, y, 1.0)

        xs = (-0.8, 0.0, 0.6)
        assert semigroup_residual(kernel, 0.2, 0.3, xs) <= 1e-6

    def test_semigroup_builds_each_row_once(self):
        # one left row per x, one right row per y (16 panels × 24 nodes each), one k(t1+t2, x, y) per pair
        calls = []

        def kernel(t, x, y):
            calls.append((t, x, y))
            return line_heat_kernel(t, x, y)

        xs = (-1.0, 0.0, 0.7)
        assert semigroup_residual(kernel, 0.5, 0.5, xs) <= 1e-6
        assert len(calls) == 2 * len(xs) * 384 + len(xs) ** 2

    def test_delta_limit(self):
        def f(y):
            return math.cos(y) + 0.2 * y

        err = delta_limit_error(line_heat_kernel, f, t=1e-4, x=0.3)
        assert err <= 1e-3


class TestDiracAlgebra:
    def test_flat_square_identity(self):
        # D = Σ c(e_i) ∂_i squares to -Σ ∂_i² ⊗ I exactly when the Clifford relations hold
        assert relations_residual(SpinorSpace(2)) == 0.0
        assert relations_residual(SpinorSpace(4)) == 0.0
