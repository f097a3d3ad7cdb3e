import nkerr


def test_every_exported_name_resolves():
    missing = [name for name in nkerr.__all__ if not hasattr(nkerr, name)]
    assert not missing
