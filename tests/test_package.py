"""The package's public names."""

import coxdepth


def test_all_names_exist_once_in_sorted_order():
    names = coxdepth.__all__
    assert [name for name in names if not hasattr(coxdepth, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
