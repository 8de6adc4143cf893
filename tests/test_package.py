"""The package namespace: what `from tightspan import *` exports."""

import types

import tightspan


def test_all_lists_every_public_name_and_no_module():
    assert len(tightspan.__all__) == len(set(tightspan.__all__))
    for name in tightspan.__all__:
        assert not isinstance(getattr(tightspan, name), types.ModuleType), name
    imported = {
        name
        for name, value in vars(tightspan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == set(tightspan.__all__)
