"""Every module-level function in `src/uhat` is used by the program itself.

A function that only tests call belongs in `tests/oracles.py`, not in the
package.  The program is `src/`, `scripts/` and `perfbench/`; a name that
appears there only in its own `def` line is flagged.  Functions that
`tests/test_acceptance.py` imports from the package are exempt.  Every
span that `perfbench/tracing.py` wraps resolves in the package.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts", "perfbench")


def acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("uhat")
        for alias in node.names
    }


def test_every_package_function_is_used_by_the_program():
    sources = [p for d in PROGRAM for p in sorted((ROOT / d).rglob("*.py"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    uses = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"^def (\w+)\(", text, re.MULTILINE))
    exempt = acceptance_imports()
    unused = []
    for path in sorted((ROOT / "src" / "uhat").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name in exempt:
                continue
            if uses[node.name] == defs[node.name]:
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
    assert unused == []


def test_every_traced_span_resolves():
    # the benchmark wraps each `module.function` or `module.Class.method` in
    # SPANS; a span that no longer resolves would read zero there
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    spans = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]
    )
    missing = []
    for mod, names in spans.items():
        for name in names:
            owner = importlib.import_module(f"uhat.{mod}")
            for attr in name.split("."):
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(f"{mod}.{name}")
    assert spans and missing == []
