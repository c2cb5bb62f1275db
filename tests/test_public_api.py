"""The public API surface: everything in __all__ imports and is documented."""

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_docstrings_on_public_callables(self):
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_module_docstring_quickstart_is_true(self):
        # The usage example in the package docstring must actually work.
        g = repro.Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
        engine = repro.open(g)
        assert engine.query(0, 2) == (2, 2)
        engine.insert_edge(0, 2)
        engine.delete_edge(0, 1)
        assert engine.query(0, 2) == (1, 1)
        assert engine.check()

    def test_subpackages_importable(self):
        import repro.bench
        import repro.datasets
        import repro.sd
        import repro.workloads

        assert repro.bench.PAPER_SET
