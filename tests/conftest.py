"""Shared fixtures: the compiled sweep, built from source once per test run."""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _build_blocker():
    """Why the extension cannot be built here, or None when it can."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        return f"no C compiler ({cc}) on PATH"
    header = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    if not os.path.exists(header):
        return f"no Python.h at {header}"
    return None


@pytest.fixture(scope="session")
def speedups_lib(tmp_path_factory):
    """A directory holding the extension where ``setup.py`` names it.

    It is built with ``setup.py build_ext`` into a temporary directory, so
    the checkout is left as it was, and with ``-Wall -Wextra -Werror``, so
    a compiler warning, such as an unused parameter or static helper,
    fails the build.  Skips only when there is no compiler or no
    ``Python.h``; any other build failure fails the test.
    """
    blocker = _build_blocker()
    if blocker:
        pytest.skip(f"compiled sweep not built: {blocker}")
    out = tmp_path_factory.mktemp("speedups")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "CFLAGS": f"{os.environ.get('CFLAGS', '')} -Wall -Wextra -Werror"},
    )
    if proc.returncode:
        pytest.fail(f"building the extension failed:\n{proc.stdout}\n{proc.stderr}")
    return out / "lib"


@pytest.fixture(scope="session")
def speedups(speedups_lib):
    """``qdistmat._speedups`` compiled from the checked-in C source.

    It is loaded from the one module the build left, whatever ``setup.py``
    named it; ``test_built_checkout_reports_compiled`` checks that the
    package imports it under that name.
    """
    built = list(speedups_lib.rglob(f"*{sysconfig.get_config_var('EXT_SUFFIX')}"))
    if len(built) != 1:
        pytest.fail(f"expected one built extension, found {built}")
    spec = importlib.util.spec_from_file_location("qdistmat._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
