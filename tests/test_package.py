"""The ``spingeo`` namespace: each public name resolves lazily to its home module's object."""

import importlib
import importlib.util

import pytest

import spingeo

HOMES = {
    "spingeo.clifford": [
        "Multivector",
        "QI",
        "Signature",
        "blade_mul",
        "format_mv",
        "parse_mv",
        "supercommutator",
        "volume_element",
    ],
    "spingeo.classification": [
        "AlgebraType",
        "classify_complex",
        "classify_real",
        "even_subalgebra_complex",
        "even_subalgebra_type",
        "table1",
    ],
}


def test_all_lists_exactly_the_public_names():
    assert sorted(spingeo.__all__) == sorted([*HOMES["spingeo.clifford"], *HOMES["spingeo.classification"], "__version__"])
    assert spingeo.__version__ == "0.1.0"


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items() for name in names])
def test_name_is_its_home_modules_object(home, name):
    assert getattr(spingeo, name) is getattr(importlib.import_module(home), name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from spingeo import *", namespace)
    for name in spingeo.__all__:
        assert namespace[name] is getattr(spingeo, name)


def test_dir_lists_every_name_before_it_is_loaded():
    spec = importlib.util.find_spec("spingeo")
    fresh = importlib.util.module_from_spec(spec)  # a second copy of the namespace, nothing resolved yet
    spec.loader.exec_module(fresh)
    assert not (set(spingeo.__all__) - {"__version__"}) & set(vars(fresh))
    assert set(spingeo.__all__) <= set(dir(fresh))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nerve'"):
        getattr(spingeo, "Nerve")
    assert not hasattr(spingeo, "multivector")
    with pytest.raises(ImportError):
        exec("from spingeo import not_a_name", {})
