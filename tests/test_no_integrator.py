"""No function in ``src/sunspin`` steps a segment with a numerical integrator.

Every compiled segment is stepped exactly (``dynamics.Segment.kind``).
``dynamics.solve_ivp`` stays as a lazy importer of SciPy's, read only by
the benchmark's tracer, so the scan is static: no function of the
package may call a ``solve_ivp``, and only that one function may name
``scipy.integrate``.  The tests keep SciPy's integrators as their
independent reference.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sunspin"
MODULES = sorted(SRC.glob("*.py"))
STUB = "dynamics.solve_ivp"


def _functions(tree: ast.Module, module: str):
    """(qualified name, node) of every function definition, outermost first."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                yield name, child
                yield from walk(child, name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, module)


def _names_scipy_integrate(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("scipy.integrate")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.integrate") for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "integrate"
            and isinstance(node.value, ast.Name) and node.value.id == "scipy")


def _calls_solve_ivp(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "solve_ivp")
            or (isinstance(func, ast.Attribute) and func.attr == "solve_ivp"))


def scan(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(functions that call a ``solve_ivp``, places that name
    ``scipy.integrate``) over ``sources``, module name to source.  A place
    is the innermost function around it, or the module itself."""
    callers, namers = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        inner = {}
        for name, fn in _functions(tree, module):
            for node in ast.walk(fn):
                inner[id(node)] = name
        for node in ast.walk(tree):
            place = inner.get(id(node), module)
            if _calls_solve_ivp(node):
                callers.append(place)
            if _names_scipy_integrate(node):
                namers.append(place)
    return callers, namers


def test_no_function_calls_an_integrator():
    callers, namers = scan({path.stem: path.read_text() for path in MODULES})
    assert callers == []
    assert namers == [STUB]


def test_scan_finds_integrator_calls_and_imports():
    source = ("import scipy.integrate\n"
              "def solve_ivp(*a):\n"
              "    from scipy.integrate import solve_ivp as f\n"
              "    return f(*a)\n"
              "class Stepper:\n"
              "    def step(self):\n"
              "        return solve_ivp(None)\n"
              "def other():\n"
              "    import scipy\n"
              "    def inner():\n"
              "        return scipy.integrate.solve_ivp(None)\n")
    callers, namers = scan({"m": source})
    assert callers == ["m.Stepper.step", "m.other.inner"]
    assert namers == ["m", "m.solve_ivp", "m.other.inner"]
