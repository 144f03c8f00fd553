"""The concrete enumeration and the orbit oracle re-derive the DP's numbers, so
neither may reuse the DP: each imports from the rest of the package only the
small shared core named here, and nothing it reaches imports the DP."""

import ast
from pathlib import Path

import glstab

ROOT = Path(glstab.__file__).resolve().parent
ANY = None  # every name of the module may be imported
CONCRETE_ALLOWED = {
    "glstab.partitions": ANY,
    "glstab.degrees": {"cuspidal_count", "prime_power"},
    "glstab.errors": ANY,
    "glstab.labels": {"IOTA", "Label", "key_degree"},
}
ORACLE_ALLOWED = {
    "glstab.degrees": {"gl_order", "vic_hom_count", "prime_power"},
    "glstab.errors": ANY,
}
DP_MODULES = {"glstab.branching", "glstab.stability", "glstab.verification"}


def module_path(name):
    rel = ROOT.joinpath(*name.split(".")[1:])
    return rel / "__init__.py" if rel.is_dir() else rel.with_suffix(".py")


def glstab_imports(path):
    """(module, name) pairs imported from glstab; name is None for a whole module."""
    package = path.relative_to(ROOT.parent).parent.parts
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "glstab"]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1])
                base += f".{node.module}" if node.module else ""
            elif (node.module or "").split(".")[0] == "glstab":
                base = node.module
            else:
                continue
            for a in node.names:
                sub = f"{base}.{a.name}"
                found.append((sub, None) if module_path(sub).exists() else (base, a.name))
    return found


def violations(path, allowed, inside=None):
    bad = []
    for mod, name in glstab_imports(path):
        if inside and (mod == inside or mod.startswith(inside + ".")):
            continue
        names = allowed.get(mod, set())
        if mod not in allowed or (names is not ANY and name not in names):
            bad.append(f"{path.relative_to(ROOT)}: {mod}" + (f".{name}" if name else ""))
    return bad


def reachable(start):
    """Modules of glstab that importing `start` imports, directly or not."""
    seen, todo = set(), [start]
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        todo += [m for m, _name in glstab_imports(module_path(mod))]
    return seen


def test_concrete_imports_only_the_shared_core():
    assert violations(ROOT / "concrete.py", CONCRETE_ALLOWED) == []


def test_oracle_imports_only_the_shared_core():
    modules = sorted((ROOT / "oracle").glob("*.py"))
    assert len(modules) >= 4
    bad = [v for path in modules for v in violations(path, ORACLE_ALLOWED, "glstab.oracle")]
    assert bad == []


def test_independent_paths_never_reach_the_dp():
    for start in ("glstab.concrete", "glstab.oracle"):
        assert reachable(start) & DP_MODULES == set(), start
    assert "glstab.labels" not in reachable("glstab.oracle")


def test_lint_resolves_relative_imports():
    concrete = set(glstab_imports(ROOT / "concrete.py"))
    assert ("glstab.partitions", None) in concrete
    assert ("glstab.labels", "IOTA") in concrete
    assert ("glstab.degrees", "gl_order") in set(glstab_imports(ROOT / "oracle" / "counts.py"))
    assert "glstab.branching" in reachable("glstab.verification")
