"""Every satsync submodule imports on its own, as the first one loaded.

The package's `__init__` imports all submodules in one fixed order, so an
import cycle that only another order would hit stays hidden behind it.  A
fresh interpreter therefore stands a bare package module in for the real
one and imports each submodule first, clearing satsync from sys.modules
between imports, and reports which submodules each one pulled in.
"""

import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import satsync

SCRIPT = """
import importlib, json, sys, types

package_dir, names = sys.argv[1], sys.argv[2:]
loaded = {}
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "satsync"]:
        del sys.modules[key]
    package = types.ModuleType("satsync")
    package.__path__ = [package_dir]
    sys.modules["satsync"] = package
    importlib.import_module("satsync." + name)
    loaded[name] = sorted(k[8:] for k in sys.modules
                          if k.startswith("satsync."))
print(json.dumps(loaded))
"""


def test_each_submodule_imports_first():
    """Each submodule imports with no other loaded before it; `sim` needs
    no other submodule, `scheduling` loads `model`, `riccati` and `sim` but
    not `protocols` before a call needs it, and `protocols` loads `sim`
    only through `scheduling`."""
    package_dir = str(Path(satsync.__file__).parent)
    names = [m.name for m in pkgutil.iter_modules([package_dir])
             if m.name != "__main__"]  # __main__ runs the CLI
    out = subprocess.run([sys.executable, "-c", SCRIPT, package_dir, *names],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert loaded["sim"] == ["sim"]
    assert loaded["scheduling"] == ["model", "riccati", "scheduling", "sim"]
    assert loaded["protocols"] == ["graph", "model", "protocols", "riccati",
                                   "scheduling", "sim"]
