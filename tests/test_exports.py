import abelsweep


def test_all_names_resolve_once():
    names = abelsweep.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(abelsweep, name)]
    assert missing == []
