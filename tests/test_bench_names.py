"""The benchmark under bench/ looks up and patches these module attributes
by name; renaming or removing one breaks it without failing any other test."""

import importlib

import pytest

BENCH_NAMES = {
    "qfselect.evolution": ("simulate", "sample", "mutate", "select", "fitness"),
    "qfselect.simulator": ("index_to_mask",),
    "qfselect.cli": (
        "make_evaluator",
        "load_csv",
        "stratified_split",
        "index_to_mask",
        "write_oracle_record",
    ),
}


@pytest.mark.parametrize("module_name", sorted(BENCH_NAMES))
def test_bench_lookup_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = BENCH_NAMES[module_name]
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert missing == [], f"{module_name} lacks {missing}"
