import pytest


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
