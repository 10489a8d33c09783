"""Every name a package module imports is used in it or re-exported, every
module is imported by the package, no exported name shadows a module, and
every function, class and method is used by the package (test-only code
lives in tests/)."""

import ast
import pkgutil
from pathlib import Path

import pytest

import twemac_jcf

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twemac_jcf"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import List, Sequence\n"
        "__all__ = ['os']\n"
        "def f(x: List[int]):\n"
        "    return np.asarray(x)\n"
    )
    assert unused_imports(src) == ["Sequence (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def package_imports(source: str) -> set:
    """Package modules named by the relative imports of a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_imported_by_another():
    # __init__ only re-exports, and cli is the entry point
    importers = {m: set() for m in MODULES}
    for module in MODULES:
        if module != "__init__":
            for dep in package_imports((PACKAGE / f"{module}.py").read_text()) & set(MODULES):
                if dep != module:
                    importers[dep].add(module)
    dead = [m for m in MODULES if m not in ("__init__", "cli") and not importers[m]]
    assert dead == []


def test_no_export_shadows_a_module():
    # `import twemac_jcf.x as m` binds the package's attribute x, so an
    # exported name equal to a module's would hide that module
    modules = {m.name for m in pkgutil.iter_modules(twemac_jcf.__path__)}
    assert sorted(modules & set(twemac_jcf.__all__)) == []


def definitions(source: str) -> list:
    """Top-level functions and classes, and methods as Class.method;
    dunder methods, which Python calls itself, are left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return found


def used_names(source: str) -> set:
    """Names the module reads, and attributes it reads off any object."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_usage_scanner():
    src = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def used(self):\n"
        "        return self.x\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def f():\n"
        "    return A().used()\n"
    )
    assert definitions(src) == ["A", "A.used", "A.unused", "f"]
    names = used_names(src)
    assert [d for d in definitions(src) if d.split(".")[-1] not in names] == ["A.unused", "f"]


def test_every_definition_is_used_by_the_package():
    # a function only the tests call belongs in tests/ (oracles.py); the
    # use must come from a module other than __init__, which only re-exports
    used = set().union(*(used_names((PACKAGE / f"{m}.py").read_text())
                         for m in MODULES if m != "__init__"))
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in definitions((PACKAGE / f"{module}.py").read_text())
        if name.split(".")[-1] not in used
    ]
    assert [u for u in unused if u != "cli.main"] == []


def pass_through_wrappers(source: str) -> list:
    """Functions whose body, apart from a docstring, is only
    `return f(<their own parameters, in order>)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call) or call.keywords:
            continue
        a = node.args
        if a.vararg or a.kwonlyargs or a.kwarg:
            continue
        names = [n.id if isinstance(n, ast.Name) else None for n in call.args]
        if names == [p.arg for p in a.posonlyargs + a.args]:
            found.append(node.name)
    return found


def test_pass_through_scanner():
    src = (
        "def wrapper(a, b):\n"
        "    '''Only calls f.'''\n"
        "    return f(a, b)\n"
        "def method_call(a):\n"
        "    return mod.g(a)\n"
        "def swapped(a, b):\n"
        "    return f(b, a)\n"
        "def fewer(a, b):\n"
        "    return f(a)\n"
        "def constant(a):\n"
        "    return f(a, 1)\n"
        "def keyword(a):\n"
        "    return f(a, w=2)\n"
        "def two_lines(a):\n"
        "    b = a\n"
        "    return f(b)\n"
    )
    assert pass_through_wrappers(src) == ["wrapper", "method_call"]


@pytest.mark.parametrize("module", MODULES)
def test_no_pass_through_wrappers(module):
    # a function that only renames another is a second name for one path
    assert pass_through_wrappers((PACKAGE / f"{module}.py").read_text()) == []


def slow_powers(source: str) -> list:
    """Uses of numpy's `power` (or `float_power`), of the builtin `pow`, and
    of `**` or `**=` on anything but two number literals, in line order."""
    names = ("pow", "power", "float_power")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            found.append((node.lineno, "**="))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not (
            isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
        ):
            found.append((node.lineno, "**"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_slow_power_scanner():
    src = (
        "import numpy as np\n"
        "from numpy import power\n"
        "def f(x, n, out):\n"
        "    np.power(x, n, out=out)\n"
        "    out **= n\n"
        "    y = x ** 2\n"
        "    z = pow(x, n)\n"
        "    w = np.float_power(x, n)\n"
        "    scale = 2.0 ** 40\n"
        "    return np.multiply.reduce(x, axis=0)\n"
    )
    assert slow_powers(src) == [
        "power (line 2)", "power (line 4)", "**= (line 5)", "** (line 6)", "pow (line 7)",
        "float_power (line 8)",
    ]


def test_kernels_make_no_power_call():
    # numpy's pow takes a slow scalar path on every negative or zero base,
    # which the kernels' roundoff remainders supply by the million; their
    # powers are products over stride-0 copies instead (de_core.copies)
    assert slow_powers((PACKAGE / "de_core.py").read_text()) == []


def parameters_named(source: str, name: str) -> list:
    """Functions, methods, nested functions and lambdas that declare a
    parameter called name, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == name for p in params):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return [f"{fn} (line {line})" for line, fn in sorted(found)]


def test_parameter_scanner():
    src = (
        "def f(e, p_pi=0.0):\n"
        "    return e\n"
        "class A:\n"
        "    def m(self, *, p_pi):\n"
        "        return lambda p_pi: p_pi\n"
        "def g(pch, **p_pi):\n"
        "    return pch\n"
        "def h(p_pi_grid, family):\n"
        "    p_pi = family.p_pi\n"
        "    return p_pi, p_pi_grid\n"
    )
    assert parameters_named(src, "p_pi") == [
        "f (line 1)", "m (line 4)", "<lambda> (line 5)", "g (line 6)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "channel"])
def test_puncturing_stays_in_the_channel_module(module):
    # a punctured channel is a ChannelFamily with its p_pi field set, so the
    # threshold, simulate and CLI layers take a family, never a p_pi
    assert parameters_named((PACKAGE / f"{module}.py").read_text(), "p_pi") == []


@pytest.mark.parametrize("module", ["de_core", "de_coupled"])
@pytest.mark.parametrize("name", ["bases", "powers", "cs"])
def test_binders_take_no_scratch(module, name):
    # each binder makes the scratch its kernel reads, in the layout the
    # kernel needs, so no caller builds it and no caller can get it wrong
    assert parameters_named((PACKAGE / f"{module}.py").read_text(), name) == []


def loop_slices(source: str) -> tuple:
    """The functions an evolution calls on every iteration, by name in line
    order: each function named `step` and each one nested in a top-level
    binder (`bind_*` or `_bind_*`); and the slices written in them, as
    `name (line n)`."""
    tree = ast.parse(source)
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "step"]
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name.lstrip("_").startswith("bind_"):
            loops += [node for node in ast.walk(top) if node is not top
                      and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    loops.sort(key=lambda node: node.lineno)
    names = [getattr(loop, "name", "<lambda>") for loop in loops]
    slices = [f"{name} (line {node.lineno})" for name, loop in zip(names, loops)
              for node in ast.walk(loop) if isinstance(node, ast.Slice)]
    return names, slices


def test_loop_slice_scanner():
    src = (
        "def bind_f(x, out):\n"
        "    head = x[1:]\n"
        "    def f():\n"
        "        out[...] = head\n"
        "        out[0] = x[:-1].sum()\n"
        "    return f\n"
        "def _bind_g(x):\n"
        "    return lambda: x[::2]\n"
        "def h(x):\n"
        "    def step():\n"
        "        return x[..., 1:]\n"
        "    def other():\n"
        "        return x[1:]\n"
        "    return step, other\n"
    )
    assert loop_slices(src) == (
        ["f", "<lambda>", "step"], ["f (line 5)", "<lambda> (line 8)", "step (line 11)"])


@pytest.mark.parametrize("module, loops", [
    ("de_core", ["chk_update", "var_update", "remainder", "remainder"]),
    ("de_coupled", ["<lambda>", "window_mean", "step"]),
])
def test_evolution_loop_cuts_no_view(module, loops):
    # a slice costs a few hundred ns on every call; the binders cut their
    # views once per set of running blocks, and the loop only calls ufuncs
    assert loop_slices((PACKAGE / f"{module}.py").read_text()) == (loops, [])


def _is_mask(node, masks: set) -> bool:
    """Whether an index expression is a comparison result: a comparison, a
    name bound to one, or ~, &, | or ^ over one."""
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.Name):
        return node.id in masks
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.Invert, ast.Not)) and _is_mask(node.operand, masks)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
        return _is_mask(node.left, masks) or _is_mask(node.right, masks)
    return isinstance(node, ast.Tuple) and any(_is_mask(elt, masks) for elt in node.elts)


def mask_subscripts(source: str, function: str) -> tuple:
    """The subscripts inside the loops of the named top-level function, and
    in the whole of each top-level function those loops call, and those
    among them indexed by a bool mask (`_is_mask`, with the names each
    function binds to masks, in tuple assignments too), as `text (line n)`."""
    tops = {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}
    loops = [node for node in ast.walk(tops[function])
             if isinstance(node, (ast.For, ast.While))]
    called = {node.func.id for loop in loops for node in ast.walk(loop)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    subscripts, masked = set(), []
    helpers = [(tops[name], [tops[name]]) for name in sorted(called & set(tops))]
    for fn, scopes in [(tops[function], loops)] + helpers:
        pairs = [(target, value) for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 for target in node.targets for target, value in (
                     zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(node.value, ast.Tuple) else [(target, node.value)])]
        masks: set = set()
        while True:  # a mask made from a mask is one too
            more = {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_mask(v, masks)}
            if more <= masks:
                break
            masks |= more
        found = {node for scope in scopes for node in ast.walk(scope)
                 if isinstance(node, ast.Subscript)}
        subscripts |= found
        masked += [(node.lineno, ast.unparse(node)) for node in found
                   if _is_mask(node.slice, masks)]
    return len(subscripts), [f"{text} (line {line})" for line, text in sorted(masked)]


def test_mask_subscript_scanner():
    src = (
        "def peel(a, e, g):\n"
        "    keep = g != 0\n"
        "    a[keep] = 1\n"
        "    while e.size:\n"
        "        e, gain = e[keep], g[e]\n"
        "        e = e[g > 0]\n"
        "        e = e[np.flatnonzero(g)]\n"
        "        both, k = keep & (e < 3), 0\n"
        "        a[e] = a[both]\n"
        "        for j in range(3):\n"
        "            a[~keep, j] = g[k]\n"
        "        e = send(a, e) + np.sum(e)\n"
        "    return a[g == 1]\n"
        "def send(a, e):\n"
        "    kept = a[e] > 0\n"
        "    return e[kept], a[0]\n"
        "def other(a, e):\n"
        "    while True:\n"
        "        a = a[e > 0]\n"
    )
    assert mask_subscripts(src, "peel") == (11, [
        "e[keep] (line 5)", "e[g > 0] (line 6)", "a[both] (line 9)", "a[~keep, j] (line 11)",
        "e[kept] (line 16)"])


def test_peeler_loop_compacts_by_index_lists():
    # a ~50% bool-mask compaction, e[keep], costs ~8 ns per element, and
    # np.flatnonzero plus a gather ~1.5 ns: the peeler's rounds, and the
    # helpers they call, keep the edges whose message gained by index lists
    count, masked = mask_subscripts((PACKAGE / "simulate.py").read_text(), "peel_decode")
    assert count > 10 and masked == []
