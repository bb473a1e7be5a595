import pytest

from hermite_obs import arith


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = []
    for key in ("passed", "failed"):
        reports.extend(terminalreporter.stats.get(key, []))
    acceptance = [
        r for r in reports
        if getattr(r, "when", "call") == "call" and "test_acceptance.py::" in r.nodeid
    ]
    if not acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for r in sorted(acceptance, key=lambda rep: rep.nodeid):
        name = r.nodeid.split("::")[-1]
        verdict = "PASS" if r.passed else "FAIL"
        terminalreporter.write_line("%-64s %s" % (name, verdict))


@pytest.fixture
def tables(monkeypatch):
    """The Taylor tables a test starts: the precision (``ar.bits``) of each
    ``arith.taylor`` call, in call order; the calls run as before."""
    tables = []
    taylor = arith.taylor
    monkeypatch.setattr(arith, "taylor", lambda ar, *a, **kw: tables.append(ar.bits)
                        or taylor(ar, *a, **kw))
    return tables
