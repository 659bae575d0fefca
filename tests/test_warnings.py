"""The suite's warning filters let a failing property test report itself.

``pyproject.toml`` turns every warning into an error. A failing ``@given``
test makes hypothesis's failure report import libcst, and that import warns
inside pytest's report hook; as an error there it stopped the whole run with
``INTERNALERROR``, before the falsifying example was shown.
"""

from __future__ import annotations

from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_stop_the_run(pytester):
    with open(PYPROJECT, "rb") as handle:
        filters = tomllib.load(handle)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [\n"
        + "".join(f"    {filter_!r},\n" for filter_ in filters) + "]\n")
    pytester.makepyfile(test_two='''
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    ''')
    # A fresh process, so that nothing the warning comes from is imported yet.
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)
