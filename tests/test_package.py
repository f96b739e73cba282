"""The package namespace re-exports the submodules' public names."""

import stochtaylor


def test_every_exported_name_resolves():
    assert len(stochtaylor.__all__) == len(set(stochtaylor.__all__))
    missing = [name for name in stochtaylor.__all__ if not hasattr(stochtaylor, name)]
    assert missing == []
