"""The package's public name list, ``latticepick.__all__``."""

from __future__ import annotations

import types

import latticepick


def test_every_listed_name_resolves():
    assert len(set(latticepick.__all__)) == len(latticepick.__all__)
    for name in latticepick.__all__:
        assert hasattr(latticepick, name), name


def test_every_imported_public_name_is_listed():
    imported = {name for name, value in vars(latticepick).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert imported - set(latticepick.__all__) == set()
