"""Schema DDL and flexible-schema tests on both backends."""

import pytest

from repro.core.schema import (
    DEFAULT_METADATA, REQUIRED_COLUMNS, TABLE_NAMES, SchemaError,
    SchemaManager, ddl_statements, render_ddl,
)


@pytest.fixture
def manager(conn):
    m = SchemaManager(conn)
    m.install()
    return m


class TestInstall:
    def test_all_tables_created(self, manager, conn):
        existing = {t.lower() for t in conn.table_names()}
        for table in TABLE_NAMES:
            assert table in existing

    def test_idempotent(self, manager):
        manager.install()  # second call is a no-op
        assert manager.is_installed()

    def test_verify_clean(self, manager):
        assert manager.verify() == []

    def test_verify_detects_missing_table(self, manager, conn):
        conn.execute("DROP TABLE metric")
        problems = manager.verify()
        assert any("metric" in p for p in problems)

    def test_not_installed_initially(self, conn):
        assert not SchemaManager(conn).is_installed()


class TestFlexibleSchema:
    """Paper §3.2: columns can be added/removed without code changes."""

    def test_add_column_visible_in_metadata(self, manager):
        manager.add_metadata_column("experiment", "os_version", "STRING")
        assert "os_version" in manager.metadata_columns("experiment")

    def test_added_column_usable_by_entities(self, manager, conn):
        from repro.core.api.entities import Application

        manager.add_metadata_column("application", "funding_source", "STRING")
        app = Application(conn, name="x", funding_source="DOE")
        app.save()
        assert conn.scalar(
            "SELECT funding_source FROM application WHERE id = ?", (app.id,)
        ) == "DOE"

    def test_only_flexible_tables(self, manager):
        with pytest.raises(SchemaError, match="metadata columns"):
            manager.add_metadata_column("metric", "notes")

    def test_type_validation(self, manager):
        with pytest.raises(SchemaError, match="abstract type"):
            manager.add_metadata_column("trial", "x", "BLOB")

    def test_identifier_validation(self, manager):
        with pytest.raises(SchemaError, match="invalid column name"):
            manager.add_metadata_column("trial", "x; DROP TABLE trial")

    def test_default_metadata_present(self, manager):
        columns = manager.metadata_columns("trial")
        for name, _type in DEFAULT_METADATA["trial"]:
            assert name in columns

    def test_required_columns_by_table(self):
        assert REQUIRED_COLUMNS["experiment"] == ("id", "name", "application")


class TestDDLGeneration:
    @pytest.mark.parametrize(
        "dialect", ["sqlite", "minisql", "postgresql", "mysql", "oracle", "db2"]
    )
    def test_renders_for_all_dialects(self, dialect):
        text = render_ddl(dialect)
        for table in TABLE_NAMES:
            assert f"CREATE TABLE {table}" in text

    def test_postgres_uses_serial(self):
        assert "SERIAL PRIMARY KEY" in render_ddl("postgresql")

    def test_oracle_types(self):
        text = render_ddl("oracle")
        assert "VARCHAR2(4000)" in text
        assert "BINARY_DOUBLE" in text

    def test_statement_splitting(self):
        statements = ddl_statements("sqlite")
        assert len(statements) == len(TABLE_NAMES) + 10  # tables + indexes
        assert all(not s.endswith(";") for s in statements)

    def test_minisql_gets_ordered_indexes(self):
        text = render_ddl("minisql")
        assert "ON trial (experiment) USING BTREE" in text
        assert (
            "ON interval_location_profile (interval_event, metric) USING BTREE"
            in text
        )
        # sqlite (every index is already a b-tree) must not see the clause
        assert "USING" not in render_ddl("sqlite")
