"""The package's public names."""

from __future__ import annotations

import gpqm


def test_every_exported_name_resolves_once():
    names = gpqm.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(gpqm, name)  # raises AttributeError for a name the package lacks
