"""Acceptance gate: one pass/fail line per criterion, with runtime budgets.

Run with ``pytest -s`` to see the [PASS]/[FAIL] lines inline; each test also
enforces the criterion's wall-clock limit.
"""

import inspect
import re
import time

import pytest

from spingeo import acceptance, cech, clifford, index_lab, spinrep


def _run(fn, limit, **kwargs):
    start = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail} ({elapsed:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    assert elapsed < limit, f"{result.name} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_01_classification_table():
    _run(acceptance.criterion_classification_table, 1)


def test_criterion_02_periodicity():
    _run(acceptance.criterion_periodicity, 1)


def test_criterion_03_clifford_relations():
    _run(acceptance.criterion_clifford_relations, 2, seed=0)


@pytest.mark.parametrize("seed", [0, 3])
def test_criterion_03_checks_every_relation_case_and_blade_triple(seed):
    # (p, q, i, j) with p + q = n takes (n + 1) n² values; blade triples (n + 1) 8ⁿ
    relations = sum((n + 1) * n * n for n in range(1, 6))
    triples = sum((n + 1) * 8**n for n in range(1, 5))
    assert (relations, triples) == (280, 22_736)
    result = acceptance.criterion_clifford_relations(seed=seed)
    assert result.passed and result.detail == (
        f"{relations} relation cases (all with p+q ≤ 5), {triples:,} blade triples (all with n ≤ 4), "
        "100 random triples at n = 5, 6, exact"
    )


@pytest.mark.parametrize(
    "planted, detail",
    [
        # η complemented within the n bits: the wrong square on either side of p
        (lambda mask, b, neg, n: mask(b, ~neg & ((1 << n) - 1), n), "relation fails at (0, 1, 1, 1)"),
        # η ignored: every generator squares to +1
        (lambda mask, b, neg, n: mask(b, 0, n), "relation fails at (1, 0, 1, 1)"),
        # bit 0 flipped for grade-3 right factors: no relation sees it, e1 (e1 e2e3) does
        (
            lambda mask, b, neg, n: mask(b, neg, n) ^ (b.bit_count() == 3),
            "associativity fails on blades (1, 1, 6) in Cl(0,3)",
        ),
    ],
    ids=["eta-complemented", "eta-ignored", "grade-3-sign"],
)
def test_criterion_03_sees_a_planted_sign_mask_error(monkeypatch, planted, detail):
    true_mask = clifford._sign_mask
    monkeypatch.setattr(clifford, "_sign_mask", lambda b, neg, n: planted(true_mask, b, neg, n))
    result = acceptance.criterion_clifford_relations(seed=0)
    assert not result.passed and result.detail == detail


def test_criterion_04_spinor_representation():
    _run(acceptance.criterion_spinor_representation, 30)


def test_criterion_05_twisted_adjoint():
    _run(acceptance.criterion_twisted_adjoint, 10, seed=0)


@pytest.mark.parametrize("seed", [0, 3])
def test_criterion_05_reports_what_it_checked(seed):
    result = acceptance.criterion_twisted_adjoint(seed=seed)
    assert result.passed
    assert re.fullmatch(
        r"500 products each in Cl\(4,0\) and Cl\(0,3\): N = Π g\(v, v\), M·Mᵀ = N²·I, "
        r"det M = \(−1\)\^length·Nⁿ exactly \(largest \|N\| [1-9][\d,]*\); \d+ reflections exact",
        result.detail,
    )


def _drop_epsilon(monkeypatch):
    true_words = spinrep._left_words

    def planted(blades, neg, n):  # the grade-involution parity |a| taken out of every left sign word
        return [w ^ ((1 << n) - 1) * (a.bit_count() & 1) for a, w in zip(blades, true_words(blades, neg, n))]

    monkeypatch.setattr(spinrep, "_left_words", planted)


def _conjugate_without_transpose(monkeypatch):
    monkeypatch.setattr(clifford.Multivector, "clifford_conjugate", clifford.Multivector.grade_involution)


def _q_squares_flipped(monkeypatch):
    # e_i e_i = -1 for the generators with i > p too: Cl(0,3) multiplies as Cl(3,0) does
    true_mask = clifford._sign_mask
    monkeypatch.setattr(clifford, "_sign_mask", lambda b, neg, n: true_mask(b, neg, n) ^ (b & ~neg & ((1 << n) - 1)))


@pytest.mark.parametrize(
    "plant, detail",
    [
        (_drop_epsilon, "det M ≠ (−1)^3·N^3: a product of 3 vectors in Cl(0,3)"),
        (_conjugate_without_transpose, "element has no scalar norm; cannot invert: a product of 4 vectors in Cl(4,0)"),
        (_q_squares_flipped, "N = 3388, not Π g(v, v) = -3388: a product of 3 vectors in Cl(0,3)"),
    ],
    ids=["dropped-epsilon", "conjugate-without-transpose", "q-square-sign"],
)
def test_criterion_05_sees_a_planted_error(monkeypatch, plant, detail):
    plant(monkeypatch)
    result = acceptance.criterion_twisted_adjoint(seed=0)
    assert not result.passed and result.detail == detail


def test_criterion_05_uses_no_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"criterion 5 touched numpy.{name}")

    monkeypatch.setattr(acceptance, "np", NoNumpy())
    result = acceptance.criterion_twisted_adjoint(seed=0)
    assert result.passed, result.detail


def test_criterion_06_berezin_pfaffian():
    _run(acceptance.criterion_berezin, 60, seed=0)


@pytest.mark.parametrize("seed", [42, 51, 53])
def test_criterion_06_berezin_pfaffian_large_spectral_radius(seed):
    # these seeds draw a -2A with spectral radius 4.8-5.2, close to the 2π
    # where a power series for det^1/2 Â stops converging
    _run(acceptance.criterion_berezin, 60, seed=seed)


def test_criterion_07_genus_expansions():
    _run(acceptance.criterion_genus_expansions, 5)


def test_criterion_08_chern_gauss_bonnet():
    _run(acceptance.criterion_chern_gauss_bonnet, 1)


def test_criterion_09_cech_suite():
    _run(acceptance.criterion_cech, 2, seed=0)


@pytest.mark.parametrize("seed", [0, 3])
def test_criterion_09_reports_its_nerve_count(seed):
    result = acceptance.criterion_cech(seed=seed)
    assert result.passed and result.detail == "δ² = 0 as a matrix product on 1000 nerves; spin counts 2/1/4 with torsor"


def test_criterion_09_sees_a_wrong_face_of_a_3_simplex(monkeypatch):
    true_matrix = cech.coboundary_matrix

    def planted(nerve, k):  # δ_2 with the lowest face of each 3-simplex dropped
        rows = true_matrix(nerve, k)
        return [row ^ (row & -row) for row in rows] if k == 2 else rows

    monkeypatch.setattr(cech, "coboundary_matrix", planted)
    result = acceptance.criterion_cech(seed=0)
    assert not result.passed and result.detail == "δ² ≠ 0 on nerve 1 (k = 1)"


def test_criterion_10_index_lab():
    _run(acceptance.criterion_index_lab, 60)


def test_criterion_10_sees_a_lost_cokernel(monkeypatch):
    true_model = index_lab.dlambda_model

    def planted(lam, cutoff):  # D_λ without the zero mode of its adjoint
        entries = [e for e in true_model(lam, cutoff).entries if e[0] > 0 or e[2] == +1]
        return index_lab.SpectralModel("dlambda", entries)

    monkeypatch.setattr(index_lab, "dlambda_model", planted)
    result = acceptance.criterion_index_lab()
    assert not result.passed and result.detail == "dlambda sweep fails at λ=0.0"


def test_criterion_11_substitution_suites():
    _run(acceptance.criterion_substitution_suites, 60)


def test_run_all_runs_the_eleven_criteria_in_order_with_the_seed(monkeypatch):
    names = [
        "classification_table", "periodicity", "clifford_relations", "spinor_representation",
        "twisted_adjoint", "berezin", "genus_expansions", "chern_gauss_bonnet", "cech",
        "index_lab", "substitution_suites",
    ]
    seeded = {n for n in names if "seed" in inspect.signature(getattr(acceptance, f"criterion_{n}")).parameters}
    calls = []
    for name in names:
        def record(name=name, **kwargs):
            calls.append((name, kwargs))
            return acceptance.CheckResult(name, True, "")

        monkeypatch.setattr(acceptance, f"criterion_{name}", record)
    assert [r.name for r in acceptance.run_all(seed=7)] == names
    assert calls == [(n, {"seed": 7} if n in seeded else {}) for n in names]
