"""Print the size of a qchan source tree as three Markdown bullets.

    python .github/size-summary.py [TREE] >> "$GITHUB_STEP_SUMMARY"

TREE (default: the current directory) is a checkout with the package under
src/.  The counts are the non-blank lines of src/qchan/*.py, the public
non-module names of qchan (counted as tests/test_public_api.py counts them)
and the qchan names that a submodule resolves only through its module
__getattr__.  Run it once per tree: each run imports that tree's qchan.
"""

import importlib
import pathlib
import pkgutil
import sys
import types

tree = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
sys.path.insert(0, str(tree / "src"))
import qchan  # noqa: E402

package = tree / "src" / "qchan"
if pathlib.Path(qchan.__file__).parent.resolve() != package.resolve():
    sys.exit(f"imported qchan from {qchan.__file__}, not from {package}")

lines = sum(
    1
    for path in package.glob("*.py")
    for line in path.read_text().splitlines()
    if line.strip()
)
names = [
    name
    for name in dir(qchan)
    if not name.startswith("_") and not isinstance(getattr(qchan, name), types.ModuleType)
]
modules = [importlib.import_module(f"qchan.{info.name}") for info in pkgutil.iter_modules(qchan.__path__)]
known = set().union(*(vars(module) for module in modules))
forwarded = [
    name
    for module in modules
    if "__getattr__" in vars(module)
    for name in known - set(vars(module))
    if not name.startswith("__") and hasattr(module, name)  # a module makes __annotations__ on first read
]
print(f"- non-blank lines in src/qchan/*.py: {lines}")
print(f"- public non-module names in qchan: {len(names)}")
print(f"- names a submodule __getattr__ forwards: {len(forwarded)}")
