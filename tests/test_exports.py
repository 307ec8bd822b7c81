"""The package exports exactly the names it binds."""

import spectral_knots


def test_every_exported_name_is_bound():
    unbound = [name for name in spectral_knots.__all__ if not hasattr(spectral_knots, name)]
    assert unbound == []
    assert len(set(spectral_knots.__all__)) == len(spectral_knots.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spectral_knots import *", namespace)
    assert set(spectral_knots.__all__) <= set(namespace)
