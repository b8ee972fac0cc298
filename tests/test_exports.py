"""Tooling: every exported name resolves, so a deleted name cannot linger."""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import fracperim


def _modules():
    for info in pkgutil.iter_modules(fracperim.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            yield importlib.import_module(f"fracperim.{info.name}")


def _init_imports():
    """(module, name) for every name the package's __init__ imports."""
    tree = ast.parse(Path(fracperim.__file__).read_text(encoding="ascii"))
    return [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_name_in_a_module_all_exists():
    for module in _modules():
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), f"{module.__name__}: repeated names"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing {missing}"


# exported for users alone: it reads back the FRACEXT file of `extend --out`
_CALLED_BY_USERS_ONLY = {"load_extension"}


def test_every_exported_name_has_a_caller():
    # a name in a module's __all__ must be read somewhere in the package,
    # the benchmark or the demos; the package's __init__ does not count
    root = Path(fracperim.__file__).parents[2]
    exported, used = set(), set()
    for path in sorted(root.glob("src/fracperim/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
    for pattern in ("src/fracperim/*.py", "bench/*.py", "demos/*.py"):
        for path in root.glob(pattern):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert exported
    assert exported - used == _CALLED_BY_USERS_ONLY, sorted(exported - used)


def test_package_exposes_every_name_its_init_lists():
    listed = _init_imports()
    assert listed
    missing = [name for _, name in listed if not hasattr(fracperim, name)]
    assert not missing, f"fracperim lacks {missing}"
    # a module with an __all__ exports every name the package takes from it
    for module_name, name in listed:
        module = importlib.import_module(f"fracperim.{module_name}")
        exported = getattr(module, "__all__", None)
        assert exported is None or name in exported, (
            f"fracperim takes {name} from {module_name}, whose __all__ lacks it"
        )


def test_threads_means_workers_over_independent_units_only():
    # record pools and lift levels take `threads`; s_deficit keeps an
    # ignored keyword until the benchmark stops passing it
    public = {
        name: obj
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if callable(obj := getattr(module, name)) and not inspect.isclass(obj)
    }
    with_threads = {name for name, fn in public.items()
                    if "threads" in inspect.signature(fn).parameters}
    assert with_threads == {"poisson_extend", "lift_energy", "calibrate_gamma",
                            "s_deficit"}
    assert "threads" in {f.name for f in dataclasses.fields(fracperim.ExperimentConfig)}
    # no FFT-worker knob in the perimeter engine or its quadrature,
    # private helpers and methods included
    for module in (fracperim.quadrature, fracperim.perimeter):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                fns = [m for m in vars(obj).values() if inspect.isfunction(m)]
            else:
                fns = [obj] if callable(obj) else []
            for fn in fns:
                taken = inspect.signature(fn).parameters.keys() & {"workers", "threads"}
                assert not taken, f"{module.__name__}.{fn.__qualname__} takes {taken}"


def _child_stdout(probe: str) -> str:
    # a child process, since this one has imported scipy for tests
    src = str(Path(fracperim.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    return out.stdout


def test_import_loads_no_scipy():
    # nor any other module outside the package, numpy and the standard library
    probe = (
        "import json, sys; before = set(sys.modules); import fracperim; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    added = json.loads(_child_stdout(probe))
    assert "fracperim" in added and "numpy" in added
    allowed = {"fracperim", "numpy", *sys.stdlib_module_names}
    foreign = [m for m in added if m.split(".")[0] not in allowed]
    assert not foreign, f"import fracperim loads {foreign}"


_OPS_PROBE = """
import json, sys
import fracperim as fp
loaded = set(sys.modules)
found = {}
def op(name, fn):
    fn()
    found[name] = sorted(set(sys.modules) - loaded)
    loaded.update(sys.modules)
ball = fp.Ball((0.0, 0.0), 1.0)
h = 0.25
e = fp.rasterize(ball, fp.auto_spec(ball, h))
params = fp.KernelParams(2, 0.5)
op("build_table", lambda: fp.build_table(params, h))
table = fp.build_table(params, h)
op("fractional_perimeter", lambda: fp.fractional_perimeter(e, table))
op("s_deficit", lambda: fp.s_deficit(e, table))
g = fp.GridFunction(e.spec, e.occupancy.astype(float))
op("gagliardo_seminorm", lambda: fp.gagliardo_seminorm(g, table))
grid, embedded = fp.extension_domain(e)
for threads in (1, 2):
    op(f"lift_energy threads={threads}",
       lambda: fp.lift_energy(embedded, grid, params, threads=threads))
print(json.dumps(found))
"""


def test_ops_load_no_module_after_the_import():
    # a module loaded on first use would be timed inside the first op (and
    # inside a level worker for the lift), so the import must carry them all
    found = json.loads(_child_stdout(_OPS_PROBE))
    assert len(found) == 6
    assert found == {name: [] for name in found}
