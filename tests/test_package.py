import grf


def test_every_export_resolves():
    assert len(grf.__all__) == len(set(grf.__all__))
    for name in grf.__all__:
        assert getattr(grf, name) is not None, name
