"""Package import boundaries.

The packages form layers: ``ir`` at the bottom, ``analysis`` on it,
``opt`` and ``tv`` side by side above that (the optimizer and its oracle
must not share code the oracle could inherit a bug from), ``mutate``
beside them, and ``fuzz`` / ``cli`` on top.  Every module of a lower
package is parsed, and every import it makes — absolute or relative,
at module level or inside a function — must stay out of the packages
above or beside it.
"""

import ast
import os
import subprocess
import sys

import pytest

import repro

PACKAGE_ROOT = os.path.dirname(repro.__file__)

FORBIDDEN = {
    "ir": {"analysis", "opt", "tv", "mutate", "fuzz", "cli"},
    "analysis": {"opt", "tv", "mutate", "fuzz", "cli"},
    "opt": {"tv", "mutate", "fuzz", "cli"},
    "tv": {"opt", "mutate", "fuzz", "cli"},
    "mutate": {"opt", "tv", "fuzz", "cli"},
}


def module_name(path, root=PACKAGE_ROOT):
    relative = os.path.relpath(path, os.path.dirname(root))
    parts = relative[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return parts


def imported_modules(path, root=PACKAGE_ROOT):
    """Absolute dotted names of everything ``path`` imports."""
    parts = module_name(path, root)
    is_package = path.endswith("__init__.py")
    with open(path) as stream:
        tree = ast.parse(stream.read(), path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # A module's own package is parts[:-1]; a package's own
                # package is itself.
                base = parts if is_package else parts[:-1]
                base = base[:len(base) - (node.level - 1)]
                stem = ".".join(base + ([node.module] if node.module else []))
            else:
                stem = node.module
            names.append(stem)
            # ``from repro import opt`` imports a package by name.
            names.extend(f"{stem}.{alias.name}" for alias in node.names)
    return names


def package_modules(package):
    for directory, _, files in os.walk(os.path.join(PACKAGE_ROOT, package)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def violations(package):
    found = []
    for path in package_modules(package):
        for name in imported_modules(path):
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and parts[1] in FORBIDDEN[package]:
                found.append(f"{'.'.join(module_name(path))} imports {name}")
    return sorted(set(found))


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_no_import_crosses_a_layer(package):
    assert violations(package) == []


def test_relative_and_local_imports_are_seen(tmp_path):
    # The walker resolves relative imports and finds function-local ones.
    fake = tmp_path / "repro" / "opt" / "passes"
    fake.mkdir(parents=True)
    source = fake / "probe.py"
    source.write_text(
        "from ...tv.compile import LRUCache\n"
        "def late():\n"
        "    from repro import fuzz\n"
        "    import repro.mutate.engine\n")
    names = imported_modules(str(source), str(tmp_path / "repro"))
    assert set(names) >= {
        "repro.tv.compile", "repro.fuzz", "repro.mutate.engine"}


def test_importing_a_lower_layer_leaves_the_top_unloaded():
    # The package root resolves its public names lazily (PEP 562), so a
    # tool that needs only the IR does not pay for importing the fuzzer.
    probe = ("import sys, repro.ir; "
             "print(sorted(name for name in sys.modules "
             "if name.startswith(('repro.fuzz', 'repro.cli'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_lazy_root_lists_its_names_and_refuses_others():
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.no_such_name


def _imports_of(paths, prefixes):
    """``module imports name`` for every import of ``paths`` that is one
    of ``prefixes`` or lies under one."""
    return sorted({
        f"{'.'.join(module_name(path))} imports {name}"
        for path in paths for name in imported_modules(path)
        if any(name == p or name.startswith(p + ".") for p in prefixes)})


def test_semantics_sits_below_both_engines():
    # The per-opcode rules both TV engines call import neither engine,
    # nor the optimizer or the fuzzer.
    path = os.path.join(PACKAGE_ROOT, "tv", "semantics.py")
    assert _imports_of([path], ("repro.tv.interp", "repro.tv.batch",
                                "repro.opt", "repro.fuzz")) == []


def test_folder_stays_an_independent_oracle():
    # repro.opt.fold is what tests/test_semantics_pins.py checks
    # repro.tv.semantics against; shared code would hide a shared bug.
    assert _imports_of(package_modules("opt"), ("repro.tv",)) == []
