"""Acceptance gate: one pass/fail line per criterion, with runtime budgets.

Run with ``pytest -s`` to see the [PASS]/[FAIL] lines inline; each test also
enforces the criterion's wall-clock limit.
"""

import inspect
import time

import pytest

from spingeo import acceptance, index_lab


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
    _run(acceptance.criterion_clifford_relations, 10, seed=0)


def test_criterion_04_spinor_representation():
    _run(acceptance.criterion_spinor_representation, 30)


def test_criterion_05_twisted_adjoint():
    _run(acceptance.criterion_twisted_adjoint, 10, seed=0)


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
    _run(acceptance.criterion_cech, 10, seed=0)


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
    _run(acceptance.criterion_substitution_suites, 60, seed=0)


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
