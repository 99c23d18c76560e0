import lenkrull


def test_every_exported_name_resolves():
    assert [name for name in lenkrull.__all__ if not hasattr(lenkrull, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from lenkrull import *", namespace)
    assert set(lenkrull.__all__) <= namespace.keys()
