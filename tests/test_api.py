import zenochain


def test_every_exported_name_resolves():
    missing = [name for name in zenochain.__all__ if not hasattr(zenochain, name)]
    assert missing == []
    assert len(set(zenochain.__all__)) == len(zenochain.__all__)
