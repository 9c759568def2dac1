"""A hung test fails the suite instead of stalling it.

The per-test ceiling is the ``timeout`` ini option.  pytest-timeout
enforces it when installed; otherwise ``conftest.py`` arms a stdlib
``faulthandler`` watchdog around each test.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from tests import conftest

ROOT = Path(__file__).resolve().parents[1]


def test_timeout_option_is_registered(pytestconfig):
    assert float(pytestconfig.getini("timeout")) > 0


def test_hung_test_fails_the_run(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n")
    (tmp_path / "test_hang.py").write_text(textwrap.dedent("""
        import time

        def test_hang():
            time.sleep(60)
    """))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "tests.conftest",
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_hang.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=50,
    )
    assert run.returncode != 0
    if conftest.TIMEOUT_FALLBACK:
        assert "Timeout (0:00:01)!" in run.stderr
        assert "in test_hang" in run.stderr
