"""Importing ``repro`` and every module in it loads only the standard
library: no third-party package is on the runtime import path."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

TOP_LEVEL = """
import json, sys
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules
                         if not name.startswith("__")}
                        - set(sys.stdlib_module_names))))
"""

IMPORT_ALL = """
import pkgutil, importlib, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
"""


def _third_party(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code + TOP_LEVEL], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_repro_imports_no_third_party_module():
    # What the interpreter's site already loads (e.g. certifi from a .pth
    # file) is not the package's doing.
    baseline = _third_party("")
    assert _third_party(IMPORT_ALL) - baseline == {"repro"}
