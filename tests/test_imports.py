"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library."""

import os
import pathlib
import re
import subprocess
import sys

from ast_uses import SRC, src_uses

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cliquestats"}


def test_src_imports_only_stdlib_and_numpy():
    assert not ["%s: %s" % (module, u.name) for module, u in src_uses() if u.kind == "import"
                and not u.name.startswith(".") and u.name.split(".")[0] not in ALLOWED]


def test_import_loads_no_process_pool():
    # a serial caller pays nothing for the pool: parallel_map imports it only
    # for more than one part, which the threads=2 tests cover
    probe = ("import sys\n"
             "from cliquestats import (bounds, graphs, moments, montecarlo, morse, oracle,\n"
             "                         verify, cli)\n"
             "print(' '.join(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
             "               if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""


def test_declared_numpy_floor_has_bitwise_count():
    # oracle.exact_distribution calls np.bitwise_count, new in numpy 2.0
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floors = re.findall(r'"numpy\s*>=\s*(\d+)\.(\d+)', text)
    assert len(floors) == 1, floors
    assert tuple(map(int, floors[0])) >= (2, 0)
