import pytest

import lenkrull


def test_every_exported_name_resolves():
    assert [name for name in lenkrull.__all__ if not hasattr(lenkrull, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from lenkrull import *", namespace)
    assert set(lenkrull.__all__) <= namespace.keys()


def test_dir_lists_the_names_served_on_first_use():
    listed = dir(lenkrull)
    assert {"StandardPair", "local_multiplicity_oracle", "standard_pairs"} <= set(listed)
    assert set(lenkrull.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lenkrull.no_such_name
