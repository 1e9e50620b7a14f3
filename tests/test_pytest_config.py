import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the repo's warning filters, a failing hypothesis test (whose
    report imports third-party modules that warn on import) fails alone:
    pytest prints it and still runs the tests after it."""
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert re.search(r"^FAILED \S*::test_fails\b", out, re.MULTILINE), out
    assert re.search(r"^PASSED \S*::test_passes$", out, re.MULTILINE), out
    assert "1 failed, 1 passed" in out, out
