import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["cthwave.chaos", "cthwave.cipher", "cthwave.imageio",
     "cthwave.keyfile", "cthwave.metrics", "cthwave.wavelet"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
