import dutycycle


def test_every_exported_name_resolves_once():
    # a deleted type left in __all__ would break `from dutycycle import *`
    assert len(dutycycle.__all__) == len(set(dutycycle.__all__))
    missing = [name for name in dutycycle.__all__ if not hasattr(dutycycle, name)]
    assert missing == []
