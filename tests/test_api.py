from __future__ import annotations

import weylenum as we


def test_public_names_resolve_once():
    # a name left in __all__ after its deletion breaks `from weylenum import *`
    assert len(set(we.__all__)) == len(we.__all__)
    assert [name for name in we.__all__ if not hasattr(we, name)] == []
