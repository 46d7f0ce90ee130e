"""Run the usage examples embedded in docstrings and in the README."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import asdim.certio
import asdim.cli
import asdim.presentations
import asdim.rewriting
import asdim.sampling
import asdim.tower
import asdim.verify
import asdim.words

MODULES = (
    asdim.words,
    asdim.presentations,
    asdim.rewriting,
    asdim.tower,
    asdim.verify,
    asdim.certio,
    asdim.sampling,
    asdim.cli,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert tried > 0 and failures == 0
