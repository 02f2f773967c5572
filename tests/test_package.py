"""Tests for the package surface: exported names and the names the benchmark wraps."""

import ast
import importlib
from pathlib import Path

import twpacorr

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the WRAPPED table in perfbench/spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return [(module, attribute) for module, attribute, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_exported_names_resolve():
    missing = [name for name in twpacorr.__all__ if not hasattr(twpacorr, name)]
    assert not missing


def test_benchmark_wrapped_names_are_bound():
    # The traced benchmark run wraps these names where the table says they
    # are looked up; an unbound one breaks that run.
    unbound = [
        f"twpacorr.{module}.{attribute}"
        for module, attribute in wrapped_names()
        if not callable(getattr(importlib.import_module(f"twpacorr.{module}"), attribute, None))
    ]
    assert not unbound
