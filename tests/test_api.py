import types

import aoiflow


def test_all_names_resolve_to_non_modules():
    assert len(aoiflow.__all__) == len(set(aoiflow.__all__))
    for name in aoiflow.__all__:
        assert not isinstance(getattr(aoiflow, name), types.ModuleType), name
