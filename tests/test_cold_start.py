"""What a fresh ``lenkrull`` process imports.

Each command line is a new process, so every module the request path imports
is paid by every request.  Each case runs ``cli.main`` in a subprocess and
compares ``sys.modules`` with the set recorded before ``lenkrull`` was
imported, because the interpreter's start-up may already hold some of the
modules named here (``site`` can load ``random`` or ``typing``).  Nothing is
timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import lenkrull

SRC = Path(lenkrull.__file__).resolve().parents[1]

# prints the modules that importing lenkrull and running main(argv) added
PROBE = """
import io, sys
before = set(sys.modules)
if sys.argv[1:] == ["--import-only"]:
    import lenkrull
else:
    from lenkrull.cli import main
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = main(sys.argv[1:])
    sys.stdout = stdout
    assert code == 0, code
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# never needed by a ring, module, zmodule, localpid or batch request
HEAVY = {"dataclasses", "inspect", "lenkrull.oracles", "random", "numpy"}


def added_modules(*argv: str) -> set[str]:
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return set(result.stdout.split())


def test_zmodule_request_loads_no_heavy_module():
    added = added_modules("zmodule", "--matrix", "[[2]]")
    assert "lenkrull.cli" in added
    assert added & HEAVY == set()


def test_ring_request_counting_faces_loads_no_heavy_module():
    added = added_modules("ring", "Z[x,y]", "--ideal", "x^2, y^3")
    assert "lenkrull.monomial" in added
    assert added & HEAVY == set()


def test_two_piece_module_request_loads_no_heavy_module():
    added = added_modules("module", "GF(2)[x,y]", "--pieces", "(x^2, y) (+) (x*y)")
    assert "lenkrull.monomial" in added
    assert added & HEAVY == set()


def test_batch_run_loads_no_heavy_module(tmp_path):
    batch = tmp_path / "requests.txt"
    batch.write_text("localpid --free 1\n", encoding="utf-8")
    added = added_modules("--batch", str(batch))
    assert "lenkrull.cli" in added
    assert added & HEAVY == set()


def test_verify_loads_the_oracles_without_dataclasses():
    added = added_modules("verify", "--suite", "sigmaprime", "--trials", "1")
    assert "lenkrull.oracles" in added
    assert "dataclasses" not in added


def test_package_import_leaves_the_oracles_unloaded():
    added = added_modules("--import-only")
    assert "lenkrull" in added
    assert "lenkrull.oracles" not in added


def test_package_import_leaves_the_scanner_unloaded():
    # only the command line reads text, so only it loads the scanner
    assert "lenkrull.scan" not in added_modules("--import-only")
