"""The package's public surface: every name a module exports exists, the
package and its CLI import in a fresh interpreter without loading
``typing``, the package root imports no module and binds only its
version, the README's library example runs and prints what its
comments say, and every test that the README and the ROADMAP name exists."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import raagcrypt

TESTS = Path(__file__).resolve().parent
README, ROADMAP = TESTS.parent / "README.md", TESTS.parent / "ROADMAP.md"


@pytest.mark.parametrize("module", ["graphs", "raag", "words", "auth", "sharing", "bench"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"raagcrypt.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_in_a_fresh_interpreter():
    # annotation names come from collections.abc, so the CLI loads neither of these
    root = str(Path(raagcrypt.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); import raagcrypt.cli; "
            "print(sorted({'typing', 'dataclasses'} & sys.modules.keys()))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_root_imports_no_module_and_binds_only_the_version():
    # each public name has one import path, its own module, so the root re-exports nothing
    root = str(Path(raagcrypt.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); import raagcrypt; "
            "print(sorted(m for m in sys.modules if m.startswith('raagcrypt.'))); "
            "print(sorted(n for n in vars(raagcrypt) if not n.startswith('__')), "
            "raagcrypt.__version__)")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[] 0.1.0\n"


def test_readme_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\nFalse\n"


def test_docs_name_only_tests_that_exist():
    # each tests/<file>.py::<name> path and each backticked Test... class (or Class::method)
    # must name a test defined in tests/, so that a renamed pin cannot leave a claim in the
    # README or the ROADMAP pointing nowhere
    def defined(path):  # each top-level class or function: the functions in its body
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}

    def resolves(names, ref):
        outer, _, inner = ref.partition("::")
        return outer in names and (not inner or inner in names[outer])

    files = {path.name: defined(path) for path in TESTS.glob("*.py")}
    refs, missing = 0, []
    for doc in (README, ROADMAP):
        text = doc.read_text(encoding="utf-8")
        for file, ref in re.findall(r"tests/(\w+\.py)::([\w:]+)", text):
            refs += 1
            if not resolves(files.get(file, {}), ref):
                missing.append(f"{doc.name}: tests/{file}::{ref}")
        for ref in re.findall(r"`(Test[\w:]*)`", text):
            refs += 1
            if not any(resolves(names, ref) for names in files.values()):
                missing.append(f"{doc.name}: {ref}")
    assert refs and missing == []
