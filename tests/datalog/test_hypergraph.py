"""The GYO helpers are re-exported from ``repro.analysis.catalog``."""

from repro.datalog.hypergraph import is_acyclic


class TestDeprecatedReExport:
    def test_catalog_package_export(self):
        from repro.analysis import catalog

        assert catalog.is_acyclic is is_acyclic
