import blamekit


def test_every_export_resolves():
    assert [name for name in blamekit.__all__ if not hasattr(blamekit, name)] == []
