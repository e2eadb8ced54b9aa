import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture
def fresh_python():
    """A function that runs `python *args` in a fresh interpreter that
    imports the package from this checkout's src/, with the variables of
    env added to the environment; it returns the finished process, its
    output as text."""

    def run(*args, env=None):
        path = os.pathsep.join(filter(None, (SRC,
                                             os.environ.get("PYTHONPATH"))))
        environ = dict(os.environ, PYTHONPATH=path, **(env or {}))
        return subprocess.run([sys.executable, *args], env=environ,
                              capture_output=True, text=True)

    return run


@pytest.fixture
def stub_lemma_checks(monkeypatch):
    """A function that replaces the check of every row of the lemma table
    by one that appends the row's section to the list it returns; a
    stub's record is counted in the suite's meta."""
    import paraflux.audit

    def install():
        ran = []

        def stub(row):
            return lambda *a, **k: ran.append(row.section) or \
                paraflux.audit.AuditRecord(row.section, {}, 0.0, 1.0, 0.0)

        monkeypatch.setattr(paraflux.audit, "LEMMAS", tuple(
            row._replace(check=stub(row)) for row in paraflux.audit.LEMMAS))
        return ran

    return install
