"""Remaining SQL surface: INSERT…SELECT, CALL, VACUUM, scripts, and
the protocol-level conveniences."""

import pytest

from repro.core import IFCProcess
from repro.db import engine as engine_mod
from repro.errors import CatalogError, DatabaseError
from repro.sql.parser import parse_statement


class TestInsertSelect:
    def test_insert_from_select(self, db):
        session = db.connect()
        session.execute("CREATE TABLE src (a INT PRIMARY KEY, b INT)")
        session.execute("CREATE TABLE dst (a INT PRIMARY KEY, b INT)")
        for i in range(5):
            session.execute("INSERT INTO src VALUES (?, ?)", (i, i * i))
        count = session.execute(
            "INSERT INTO dst SELECT a, b FROM src WHERE a >= 2").rowcount
        assert count == 3
        assert session.execute("SELECT SUM(b) FROM dst").scalar() == 29

    def test_insert_select_respects_labels(self, medical):
        """Copied tuples carry the *copier's* label, not the source's —
        writes always carry exactly LP (section 4.2)."""
        from repro.core import Label
        db = medical.db
        admin = db.connect(IFCProcess(medical.authority, medical.clinic.id))
        admin.execute("CREATE TABLE Copy (patient_name TEXT PRIMARY KEY)")
        process = medical.process_for(medical.alice, medical.alice_medical)
        session = db.connect(process)
        session.execute(
            "INSERT INTO Copy SELECT patient_name FROM HIVPatients")
        table = db.catalog.get_table("Copy")
        versions = list(table.all_versions())
        assert len(versions) == 1         # only Alice's row was visible
        assert versions[0].label == Label([medical.alice_medical.id])


class TestCallStatement:
    def test_call_procedure_via_sql(self, db):
        def double(session, x):
            return x * 2

        db.create_procedure("double_it", double)
        session = db.connect()
        result = session.execute("CALL double_it(21)")
        assert result.rows[0]["result"] == 42

    def test_call_missing_procedure(self, db):
        with pytest.raises(CatalogError):
            db.connect().execute("CALL nope()")


class TestVacuumStatement:
    def test_vacuum_via_sql(self, db):
        session = db.connect()
        session.execute("CREATE TABLE v (x INT PRIMARY KEY)")
        session.execute("INSERT INTO v VALUES (1)")
        session.execute("UPDATE v SET x = 2 WHERE x = 1")
        session.execute("VACUUM v")
        assert db.catalog.get_table("v").version_count == 1

    def test_vacuum_all(self, db):
        session = db.connect()
        session.execute("CREATE TABLE v1 (x INT PRIMARY KEY)")
        session.execute("CREATE TABLE v2 (x INT PRIMARY KEY)")
        session.execute("INSERT INTO v1 VALUES (1)")
        session.execute("DELETE FROM v1")
        session.execute("VACUUM")
        assert db.catalog.get_table("v1").version_count == 0


class TestScripts:
    def test_execute_script(self, db):
        session = db.connect()
        session.execute_script("""
            CREATE TABLE a (x INT PRIMARY KEY);
            CREATE TABLE b (y INT PRIMARY KEY);
            INSERT INTO a VALUES (1);
            INSERT INTO b VALUES (2);
        """)
        assert session.execute("SELECT x FROM a").scalar() == 1
        assert session.execute("SELECT y FROM b").scalar() == 2


class TestResultConveniences:
    def test_row_access_patterns(self, db):
        session = db.connect()
        session.execute("CREATE TABLE r (a INT PRIMARY KEY, b TEXT)")
        session.execute("INSERT INTO r VALUES (1, 'x')")
        row = session.execute("SELECT a, b FROM r").first()
        assert row[0] == 1 and row["b"] == "x"
        assert row.get("missing", "dflt") == "dflt"
        assert row.as_dict() == {"a": 1, "b": "x"}
        assert list(row.keys()) == ["a", "b"]
        assert len(row) == 2

    def test_scalar_of_empty_result(self, db):
        session = db.connect()
        session.execute("CREATE TABLE r (a INT PRIMARY KEY)")
        assert session.execute("SELECT a FROM r").scalar() is None

    def test_parse_cache_reuses_statements(self, db):
        session = db.connect()
        session.execute("CREATE TABLE pc (a INT PRIMARY KEY)")
        sql = "SELECT a FROM pc WHERE a = ?"
        first = db.parse(sql)
        session.execute(sql, (1,))
        assert db.parse(sql) is first      # cached AST object


class TestStatementCacheBounds:
    """The parse and plan caches are keyed on raw SQL text: fresh
    literals must not grow them past ``STATEMENT_CACHE_LIMIT``."""

    def test_fresh_literals_stay_within_the_cap(self, db):
        limit = engine_mod.STATEMENT_CACHE_LIMIT
        session = db.connect()
        session.execute("CREATE TABLE lit (a INT PRIMARY KEY, b INT)")
        session.execute("INSERT INTO lit VALUES (1, 1)")
        for i in range(3 * limit):
            session.execute("SELECT b FROM lit WHERE a = %d" % i)
            session.execute("UPDATE lit SET b = %d WHERE a = 1" % i)
            session.execute("INSERT INTO lit VALUES (%d, 0)" % (i + 2))
        caches = db.stats()["statement_caches"]
        assert set(caches) == {"parse", "select", "dml", "insert"}
        for name, report in caches.items():
            assert report["limit"] == limit, name
            assert report["entries"] <= limit, (name, report)
            assert report["evictions"] >= 2 * limit, (name, report)
        # A statement repeated after the flood still hits both caches.
        sql = "SELECT b FROM lit WHERE a = 1"
        statement = db.parse(sql)
        prepared = db.prepare_select(statement, sql)
        assert db.parse(sql) is statement
        assert db.prepare_select(statement, sql) is prepared
        assert session.execute(sql).rows[0][0] == 3 * limit - 1

    def test_reparsed_statement_misses_instead_of_aliasing(self, db):
        session = db.connect()
        session.execute("CREATE TABLE lit (a INT PRIMARY KEY, b INT)")
        sql = "SELECT b FROM lit WHERE a = 1"
        prepared = db.prepare_select(db.parse(sql), sql)
        # Same SQL text, but a different statement object (as after a
        # parse-cache eviction): the plan cache must re-plan it.
        reparsed = parse_statement(sql)
        assert db.prepare_select(reparsed, sql) is not prepared


class TestFunctionsRegisteredByApps:
    def test_scalar_udf_in_where_and_select(self, db):
        db.create_function("ADD3", lambda x: x + 3)
        session = db.connect()
        session.execute("CREATE TABLE u (x INT PRIMARY KEY)")
        for i in range(4):
            session.execute("INSERT INTO u VALUES (?)", (i,))
        rows = session.query(
            "SELECT ADD3(x) FROM u WHERE ADD3(x) > 4 ORDER BY x")
        assert [r[0] for r in rows] == [5, 6]

    def test_context_udf_gets_ctx(self, db):
        db.create_function("CLOCKED", lambda ctx: ctx.now(),
                           needs_context=True)
        db.clock = lambda: 42.0
        session = db.connect()
        assert session.execute("SELECT CLOCKED()").scalar() == 42.0

    def test_duplicate_function_rejected(self, db):
        db.create_function("F", lambda: 1)
        with pytest.raises(CatalogError):
            db.create_function("f", lambda: 2)    # case-insensitive
