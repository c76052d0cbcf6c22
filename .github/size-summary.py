"""Print the size of a qchan source tree as six Markdown bullets.

    python .github/size-summary.py [TREE] >> "$GITHUB_STEP_SUMMARY"

TREE (default: the current directory) is a checkout with the package under
src/.  The counts are the non-blank lines of src/qchan/*.py, the public
non-module names of qchan (counted as tests/test_public_api.py counts them),
the qchan names that a submodule resolves only through its module
__getattr__, the src/qchan/*.py files, the options: the parameters with
a default of the functions in qchan.__all__ and of the __init__ and public
methods that its classes define, and the caches: the functools.lru_cache
functions of qchan's modules and the cached_property attributes of its
classes.  Run it once per tree: each run imports that tree's qchan.
"""

import functools
import importlib
import inspect
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


def defaulted(fn):
    return sum(p.default is not inspect.Parameter.empty for p in inspect.signature(fn).parameters.values())


options = 0
for name in qchan.__all__:
    obj = getattr(qchan, name)
    if inspect.isfunction(obj):
        options += defaulted(obj)
    elif inspect.isclass(obj):
        for attr, member in vars(obj).items():
            member = getattr(member, "__func__", member)  # a classmethod or staticmethod's function
            if (attr == "__init__" or not attr.startswith("_")) and inspect.isfunction(member):
                options += defaulted(member)
# Each cache counted once, in the module that defines it, though others import it.
caches = 0
for module in modules:
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if hasattr(obj, "cache_info"):
            caches += 1
        elif inspect.isclass(obj):
            caches += sum(isinstance(attr, functools.cached_property) for attr in vars(obj).values())
print(f"- non-blank lines in src/qchan/*.py: {lines}")
print(f"- public non-module names in qchan: {len(names)}")
print(f"- names a submodule __getattr__ forwards: {len(forwarded)}")
print(f"- modules src/qchan/*.py: {len(list(package.glob('*.py')))}")
print(f"- parameters with a default in the public functions and methods: {options}")
print(f"- caches (lru_cache functions and cached_property attributes): {caches}")
