"""The runtime is standard-library only: `src/uhat` imports nothing else."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uhat"


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one within uhat
            for module in modules:
                top = module.partition(".")[0]
                if top != "uhat" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {module}")
    assert outside == []
