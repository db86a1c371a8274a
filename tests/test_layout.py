"""Repository layout: every module under ``src/repro`` is imported by
another module under ``src/`` or ``jobs/``, so no module is left that
nothing uses. ``repro.oracle`` is exempt: it is the tests' DuckDB
helper."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"repro.oracle"}


def _module(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _imports(path: Path) -> set:
    """Every module name ``path`` imports; ``from a import b`` counts
    both ``a`` and ``a.b``, since ``b`` may be a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_every_module_is_imported():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "jobs").rglob("*.py")]
    imported = {}
    for path in sources:
        for name in _imports(path):
            imported.setdefault(name, set()).add(path)
    modules = {
        _module(p): p for p in (ROOT / "src" / "repro").rglob("*.py") if p.name != "__init__.py"
    }
    unused = sorted(
        m for m, p in modules.items() if m not in EXEMPT and not imported.get(m, set()) - {p}
    )
    assert modules and not unused, f"modules nothing under src/ or jobs/ imports: {unused}"
