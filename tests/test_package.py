import gausscalc


def test_every_public_name_resolves():
    assert len(set(gausscalc.__all__)) == len(gausscalc.__all__)
    for name in gausscalc.__all__:
        assert getattr(gausscalc, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from gausscalc import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gausscalc.__all__)
