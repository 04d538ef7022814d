import ast
import os
import subprocess
import sys
from pathlib import Path

import zchain

SRC = Path(zchain.__file__).parent

# The modules whose functions the benchmark's tracer wraps right after
# ``import zchain.cli`` (perfbench/tracing.py, LAYERS); each must be loaded by then.
TRACED = ("intlinalg", "abelian", "complexes", "modelcls", "groupring", "factor",
          "lifting", "monoidal_proper", "documents", "cli")


def _unused_imports(tree):
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _modules_after(statement):
    """The modules a fresh interpreter has loaded after running statement."""
    code = f"{statement}\nimport sys\nprint(repr(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_zchain_loads_no_submodule():
    assert {m for m in _modules_after("import zchain") if m.startswith("zchain.")} == set()


def test_cli_loads_the_traced_layers_and_not_verify():
    loaded = _modules_after("import zchain.cli")
    assert {f"zchain.{name}" for name in TRACED} <= loaded
    assert {"zchain.verify", "zchain.randgen", "dataclasses"} & loaded == set()


def test_verify_loads_no_dataclasses():
    assert "dataclasses" not in _modules_after("import zchain.cli, zchain.verify")
