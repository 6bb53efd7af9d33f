"""What a CLI process imports before and while it runs a command.

Every CLI command runs in a fresh interpreter, so each module it imports is
paid for on every call (compiled, too, when no bytecode cache is written).
These tests pin the module sets in a fresh `python -S` process, so that
nothing the site module loads hides an import; they assert no timings.
"""

import os
import subprocess
import sys

import pytest

from strandjoin.arc_diagram import Z2, serialize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY_STDLIB = {"dataclasses", "inspect", "typing", "random", "argparse", "gettext"}
LIBRARY_ONLY = {"ainf", "standard_models", "tensor", "join", "sfh", "nice_diagram"}


def _fresh(code: str) -> str:
    """The stdout of code run in a fresh `python -S` that imports from src."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set:
    """The names in sys.modules after running code in a fresh `python -S`."""
    return set(_fresh(f"{code}\nprint(' '.join(sys.modules))").split())


def _package(modules: set) -> set:
    return {m.partition(".")[2] or m for m in modules if m.split(".")[0] == "strandjoin"}


def test_cli_import_loads_only_what_every_command_needs():
    loaded = _loaded("import strandjoin.cli")
    assert _package(loaded) == {"strandjoin", "cli", "arc_diagram", "gf2", "strands"}
    assert not loaded & HEAVY_STDLIB


@pytest.mark.parametrize(
    "argv", [["algebra"], ["blocks"], ["check", "dga"], ["check", "variants"]]
)
def test_table_commands_load_no_module_theory(tmp_path, argv):
    path = tmp_path / "Z2.arcd"
    path.write_text(serialize(Z2))
    argv = argv[:1] + [str(path)] + argv[1:]
    code = (
        "import io\nfrom strandjoin.cli import run\n"
        f"assert run({argv!r}, io.StringIO()) == 0"
    )
    loaded = _loaded(code)
    assert _package(loaded) >= {"cli", "strands"}
    assert not _package(loaded) & LIBRARY_ONLY
    assert not loaded & HEAVY_STDLIB - {"random"}  # check imports random when it runs


def test_run_freezes_the_start_up_heap_once(tmp_path):
    # Objects frozen by gc.freeze() are never collected, so a command's own
    # objects must not join them: a second run in the process freezes nothing.
    path = tmp_path / "Z2.arcd"
    path.write_text(serialize(Z2))
    code = (
        "import gc, io\nfrom strandjoin.cli import run\ncounts = [gc.get_freeze_count()]\n"
        f"for _ in range(2):\n    assert run(['blocks', {str(path)!r}], io.StringIO()) == 0\n"
        "    counts.append(gc.get_freeze_count())\nprint(*counts)"
    )
    before, first, second = map(int, _fresh(code).split())
    assert before == 0 and first > 0 and second == first


def test_library_import_loads_no_dataclasses():
    assert "dataclasses" not in _loaded("import strandjoin.join")
