"""Shared fixtures: a seeded authority state, databases, and a small
medical-records scenario modelled on the paper's Figure 2."""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, Label, SeededIdGenerator
from repro.db import Database, metrics


@pytest.fixture(autouse=True)
def _reset_metrics():
    """Process-wide counters are shared by every Database in the process;
    start each test from zero so exact-count pins cannot bleed across
    tests (and leave a clean slate behind for the next one)."""
    metrics.REGISTRY.reset()
    yield
    metrics.REGISTRY.reset()


@pytest.fixture
def gang_log(monkeypatch):
    """Record every forked worker gang as ``[task count, exception
    type or None]``.  Spilled joins and aggregates reach the gang
    through ``parallel.run_gang``, so wrapping the module attribute
    sees every fork."""
    from repro.db import parallel
    real = parallel.run_gang
    gangs: list = []

    def logged(tasks):
        entry = [len(tasks), None]
        gangs.append(entry)
        try:
            yield from real(tasks)
        except Exception as exc:
            entry[1] = type(exc)
            raise

    monkeypatch.setattr(parallel, "run_gang", logged)
    return gangs


@pytest.fixture
def metrics_scope():
    """Factory for per-block counter deltas:

        with metrics_scope() as scope:
            session.execute(...)
        assert scope["labels"]["covers_calls"] == 2
    """
    return metrics.REGISTRY.scope


@pytest.fixture
def authority():
    return AuthorityState(idgen=SeededIdGenerator(12345))


@pytest.fixture
def db(authority):
    return Database(authority, seed=12345)


@pytest.fixture
def baseline_db(authority):
    return Database(authority, ifc_enabled=False, seed=12345)


class MedicalScenario:
    """Principals/tags/table from the paper's running medical example."""

    def __init__(self, authority, db):
        self.authority = authority
        self.db = db
        self.alice = authority.create_principal("alice")
        self.bob = authority.create_principal("bob")
        self.cathy = authority.create_principal("cathy")
        self.clinic = authority.create_principal("clinic")
        self.all_medical = authority.create_compound_tag(
            "all_medical", owner=self.clinic.id)
        self.alice_medical = authority.create_tag(
            "alice_medical", owner=self.alice.id,
            compounds=(self.all_medical.id,), creator=self.clinic.id)
        self.bob_medical = authority.create_tag(
            "bob_medical", owner=self.bob.id,
            compounds=(self.all_medical.id,), creator=self.clinic.id)
        self.cathy_medical = authority.create_tag(
            "cathy_medical", owner=self.cathy.id,
            compounds=(self.all_medical.id,), creator=self.clinic.id)
        admin = db.connect(IFCProcess(authority, self.clinic.id))
        admin.execute(
            "CREATE TABLE HIVPatients ("
            " patient_name TEXT, patient_dob TEXT, condition TEXT,"
            " PRIMARY KEY (patient_name, patient_dob))")

    def process_for(self, principal, *tags) -> IFCProcess:
        process = IFCProcess(self.authority, principal.id)
        for tag in tags:
            process.add_secrecy(tag.id)
        return process

    def populate_figure2(self):
        """The three rows of Figure 2, each under its patient's tag."""
        rows = [
            (self.alice, self.alice_medical, ("Alice", "2/1/60")),
            (self.bob, self.bob_medical, ("Bob", "6/26/78")),
            (self.cathy, self.cathy_medical, ("Cathy", "4/22/71")),
        ]
        for principal, tag, (name, dob) in rows:
            process = self.process_for(principal, tag)
            session = self.db.connect(process)
            session.execute(
                "INSERT INTO HIVPatients VALUES (?, ?, 'hiv')", (name, dob))


@pytest.fixture
def medical(authority, db):
    scenario = MedicalScenario(authority, db)
    scenario.populate_figure2()
    return scenario
