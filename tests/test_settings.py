from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_failing_given_test_reports_its_example(pytester):
    # the repository's pytest settings turn warnings into errors; a failing
    # @given test must still fail as a test (exit 1) with its falsifying
    # example, not abort the run with an internal error (exit 3)
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    test_file = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
