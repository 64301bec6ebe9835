"""Run the library's docstring examples as tests.

A handful of modules carry ``>>>`` examples in their docstrings; keeping
them executable means the inline documentation can't silently rot. The
package's own quickstart (``repro.__doc__``) is one of them.
"""

import doctest

import pytest

import repro
import repro.network.builder
import repro.utils.reporting
import repro.utils.timing

MODULES = [
    repro,
    repro.network.builder,
    repro.utils.reporting,
    repro.utils.timing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
