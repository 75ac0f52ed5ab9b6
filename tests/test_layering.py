"""Module layering: private names stay in their module, array sums in the
engine, kernel arithmetic in ``kernels``.

Each source file of the package is parsed with ``ast``; a relative import
of an underscore name (``from .locallinear import _helper``) couples the
importer to an implementation detail and fails the test.  The package's
own ``_version`` module is a module, not a name, and is allowed.  Array
sums go through ``jdsmooth.summation``, never ``math.fsum(arr.tolist())``.
Kernel densities are evaluated by ``jdsmooth.kernels`` alone, so no other
module calls ``lgamma`` or ``np.exp``.  The triples' weight and design
points are read by ``proxy``, which builds them, and by ``locallinear``,
whose ``LinearFitter`` owns them for every fit.  Only the engine may read
a float's bits, bin terms with ``np.bincount``, or take a float apart or
step between floats (``np.frexp``, ``np.ldexp``, ``np.spacing``,
``np.nextafter``).  The package's export list ``__all__`` is exactly the
public names its ``__init__`` imports.  Worker processes are started by
``jdsmooth.pool`` alone, which imports ``multiprocessing`` only inside the
call that starts them.  The rule-of-thumb rates T^(-2/5) and T^(-1/5) are
taken by ``bandwidth.rule_of_thumb`` alone, so no ``**`` has the constant
exponent 0.4 or 0.2, of either sign.  Whether a value is a number is
decided by ``jdsmooth.errors`` alone, so no other module holds an
``isinstance`` check against both ``int`` and ``float``.  The error for a
point below the Gamma support is written once, in ``kernels``, and the
error for a target without band limit theory once, in ``inference``.  No
module lends ``jdsmooth.summation`` a scratch buffer.  What a proxy
series fixes is derived from it in one place: ``band_companions`` builds
its own triples, and ``rule_of_thumb`` alone turns a series into its
observation span delta * n.  The command line
leaves every option value to its option table: argparse gets no
``type=`` or ``choices=``, and no library ``ValueError`` is re-wrapped
outside the option check and the one ``McConfig`` boundary.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jdsmooth
from jdsmooth import inference, locallinear, mc, summation

SOURCES = sorted((Path(__file__).parent.parent / "src" / "jdsmooth").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from .{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def _fsum_of_tolist(node) -> bool:
    """A call fsum(<expr>.tolist()), as math.fsum or a bare fsum."""
    if not (isinstance(node, ast.Call) and node.args):
        return False
    func, arg = node.func, node.args[0]
    named_fsum = (isinstance(func, ast.Attribute) and func.attr == "fsum") or (
        isinstance(func, ast.Name) and func.id == "fsum"
    )
    return (
        named_fsum
        and isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "tolist"
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "summation.py"], ids=lambda p: p.name
)
def test_array_sums_go_through_the_summation_module(path):
    """fsum over an array's tolist() belongs to the exact engine alone.

    ``jdsmooth.summation`` returns the same doubles from numpy; a Python
    list of scalars built term by term may still go to ``math.fsum``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [f"line {node.lineno}" for node in ast.walk(tree) if _fsum_of_tolist(node)]
    assert not calls, calls


def _kernel_arithmetic(node) -> bool:
    """A call of lgamma (math.lgamma or bare) or of np.exp / numpy.exp."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "lgamma"
    if isinstance(func, ast.Attribute):
        if func.attr == "lgamma":
            return True
        return (
            func.attr == "exp"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )
    return False


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "kernels.py"], ids=lambda p: p.name
)
def test_kernel_arithmetic_stays_in_kernels(path):
    """Kernel weights come from ``jdsmooth.kernels`` (``KernelPlan``,
    ``weight_values``), never from a private copy of the density formula."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [f"line {node.lineno}" for node in ast.walk(tree) if _kernel_arithmetic(node)]
    assert not calls, calls


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("proxy.py", "locallinear.py")],
    ids=lambda p: p.name,
)
def test_triples_points_stay_in_the_fitter(path):
    """Fits take the triples whole (``LinearFitter(family, triples)``), so
    no other module unpacks ``.weight_points`` or ``.design_points``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("weight_points", "design_points")
    ]
    assert not reads, reads


_INTEGER_DTYPES = ("int64", "uint64", "int32", "uint32", "intp", "uintp")


# the calls that bin terms, take a float's exponent apart or step between
# neighbouring floats
_FLOAT_BIT_CALLS = ("bincount", "frexp", "ldexp", "spacing", "nextafter")


def _binning_call(node) -> bool:
    """A call of bincount, frexp, ldexp, spacing or nextafter, or of an
    array's view as an integer dtype."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in _FLOAT_BIT_CALLS:
        return True
    if name != "view":
        return False
    dtypes = list(node.args) + [kw.value for kw in node.keywords if kw.arg == "dtype"]
    return any(
        (isinstance(d, ast.Attribute) and d.attr in _INTEGER_DTYPES)
        or (isinstance(d, ast.Name) and d.id in _INTEGER_DTYPES)
        or (
            isinstance(d, ast.Constant)
            and isinstance(d.value, str)
            and d.value.lstrip("<>=|")[:1] in ("i", "u")
        )
        for d in dtypes
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_bit_level_binning_stays_in_the_summation_module(path):
    """The exponents and gaps of the certified stage (``np.frexp``,
    ``np.ldexp``, ``np.spacing``, ``np.nextafter``) are how
    ``jdsmooth.summation`` proves its sums exact, and reading a double's
    bits (``.view(np.int64)``) or binning terms (``np.bincount``) would be
    a second engine; either elsewhere would sit outside the bound that
    proves the sums."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [f"line {node.lineno}" for node in ast.walk(tree) if _binning_call(node)]
    if path.name == "summation.py":
        assert calls, "summation.py takes no float apart"
    else:
        assert not calls, calls


def _rule_of_thumb_power(node) -> bool:
    """x ** c or x **= c with c the constant 0.4 or 0.2, of either sign."""
    if isinstance(node, ast.BinOp):
        exponent = node.right
    elif isinstance(node, ast.AugAssign):
        exponent = node.value
    else:
        return False
    if not isinstance(node.op, ast.Pow):
        return False
    signed = isinstance(exponent, ast.UnaryOp)
    if signed and isinstance(exponent.op, (ast.USub, ast.UAdd)):
        exponent = exponent.operand
    return isinstance(exponent, ast.Constant) and exponent.value in (0.4, 0.2)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rule_of_thumb_rates_stay_in_rule_of_thumb(path):
    """c * S * T^(-2/5) is computed by ``bandwidth.rule_of_thumb``, whose
    ``_rot_exponent`` names the rates; a hand-written ``T ** (-0.4)``
    elsewhere is a second copy of the rule."""
    tree = ast.parse(path.read_text(), filename=str(path))
    powers = [
        f"line {node.lineno}" for node in ast.walk(tree) if _rule_of_thumb_power(node)
    ]
    assert not powers, powers


def _int_and_float_isinstance(node) -> bool:
    """isinstance(v, C) where C names both int and float, also inside a
    conditional expression such as ``int if integer else (int, float)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    return {"int", "float"} <= names


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_number_checks_go_through_errors(path):
    """A scalar argument is checked by ``errors.checked`` (or
    ``errors.is_number``); a hand-written ``isinstance(v, (int, float))``
    is a second copy of the rule, which differs on bools, numpy scalars
    or strings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    checks = [
        f"line {node.lineno}" for node in ast.walk(tree)
        if _int_and_float_isinstance(node)
    ]
    assert not checks, checks


_OUTSIDE_SUPPORT = "Gamma kernel evaluation point must be nonnegative"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_gamma_support_error_is_written_once(path):
    """``kernels.outside_support`` builds the message that the fits, their
    failure records and the kernel plan all raise; a copy elsewhere could
    drift from it, and a point's flag text would then depend on which
    path found it."""
    count = path.read_text().count(_OUTSIDE_SUPPORT)
    assert count == (1 if path.name == "kernels.py" else 0), count


_NO_LIMIT_THEORY = "no limit theory wired for target"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_limit_theory_target_error_is_written_once(path):
    """``inference._numerator_target`` raises the error for a target
    without band limit theory; ``asymptotic_moments``, ``band_companions``
    and ``confidence_band`` all look their target up through it."""
    count = path.read_text().count(_NO_LIMIT_THEORY)
    assert count == (1 if path.name == "inference.py" else 0), count


def _summation_calls(tree):
    """(line, function name, argument count) of each call of a function
    imported from ``.summation``."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        and node.module == "summation"
        for alias in node.names
    }
    return [
        (node.lineno, node.func.id, len(node.args) + len(node.keywords))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id in names
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "summation.py"], ids=lambda p: p.name
)
def test_no_module_lends_the_summation_engine_a_buffer(path):
    """A call into ``jdsmooth.summation`` passes the function's required
    arguments and nothing else: the engine allocates its own scratch, so
    no caller sizes a buffer for it."""
    calls = _summation_calls(ast.parse(path.read_text(), filename=str(path)))
    lent = [
        f"line {line}: {name}"
        for line, name, count in calls
        if count > sum(
            p.default is inspect.Parameter.empty
            for p in inspect.signature(getattr(summation, name)).parameters.values()
        )
    ]
    assert not lent, lent


def test_fit_path_functions_take_no_work_array():
    """Each scratch buffer of the fit path belongs to the one function that
    uses it: the power sums allocate their products, the engine its
    certified-stage scratch."""
    for fn in (summation.exact_block_sums, locallinear._power_sums):
        assert "work" not in inspect.signature(fn).parameters, fn.__name__


def test_band_companions_take_the_series_not_its_triples():
    """The density and the fits of a band describe one sample only when
    the triples are built from the series the density is summed over, so
    ``band_companions`` builds them and no Monte Carlo replicate hands its
    fits a copy."""
    assert list(inspect.signature(inference.band_companions).parameters) == [
        "p", "kernel", "grid", "target"
    ]
    tree = ast.parse(inspect.getsource(mc._replicate))
    called = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "build_regression_triples" not in called


def _observation_span(node) -> bool:
    """s.delta * len(s), in either order, for any one series s."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for a, b in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(a, ast.Attribute) and a.attr == "delta"
            and isinstance(b, ast.Call) and isinstance(b.func, ast.Name)
            and b.func.id == "len" and len(b.args) == 1
            and ast.dump(b.args[0]) == ast.dump(a.value)
        ):
            return True
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_observation_span_is_derived_in_rule_of_thumb(path):
    """``rule_of_thumb``'s default horizon is the span delta * n of its
    series; a caller that writes the product out again keeps a second copy
    of that default."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == (
            "bandwidth.py", "rule_of_thumb"
        ):
            inside |= {id(node) for node in ast.walk(fn)}
    spans = [
        f"line {node.lineno}" for node in ast.walk(tree)
        if _observation_span(node) and id(node) not in inside
    ]
    assert not spans, spans
    if path.name == "bandwidth.py":
        assert any(_observation_span(node) for node in ast.walk(tree))


def test_exports_are_the_public_names_init_imports():
    """Every name in ``jdsmooth.__all__`` resolves, and every public name
    ``__init__`` imports is listed, so deleting a class from a module
    breaks here rather than in a user's ``from jdsmooth import *``."""
    init = next(p for p in SOURCES if p.name == "__init__.py")
    tree = ast.parse(init.read_text(), filename=str(init))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unresolved = [name for name in jdsmooth.__all__ if not hasattr(jdsmooth, name)]
    assert not unresolved, unresolved
    unlisted = sorted(
        name for name in imported
        if not name.startswith("_") and name not in jdsmooth.__all__
    )
    assert not unlisted, unlisted


_PROCESS_POOL_NAMES = ("multiprocessing", "ProcessPoolExecutor")


def _process_pool_references(node, in_function=False):
    """(line, name, in_function) of each import or name of a process pool."""
    found = []
    names = []
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [alias.name for alias in node.names]
    elif isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    for name in names:
        if any(part in _PROCESS_POOL_NAMES for part in name.split(".")):
            found.append((node.lineno, name, in_function))
    inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for child in ast.iter_child_nodes(node):
        found += _process_pool_references(child, inside)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_process_pools_start_only_inside_pool_calls(path):
    """Only ``pool.py`` names ``multiprocessing`` or ``ProcessPoolExecutor``,
    and only inside a function."""
    refs = _process_pool_references(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "pool.py":
        assert refs, "pool.py starts no process pool"
        refs = [r for r in refs if not r[2]]
    assert not refs, refs


def test_import_loads_no_multiprocessing():
    """``import jdsmooth`` and the CLI's start-up do not pay for
    ``multiprocessing``; a block-CV call imports it when it forks."""
    src = Path(jdsmooth.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, jdsmooth, jdsmooth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


CLI = next(p for p in SOURCES if p.name == "cli.py")


def test_argparse_collects_only_text():
    """Every option value is read and checked by ``_Opt.value``, so a
    flag typo fails with the line a config file's typo prints."""
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    typed = [
        f"line {node.lineno}: {kw.arg}="
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for kw in node.keywords
        if kw.arg in ("type", "choices")
    ]
    assert not typed, typed


def _value_error_handlers(node, function=None):
    """(innermost function, whether it raises) of each ``except`` clause
    that catches ValueError."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    found = []
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        caught = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        if "ValueError" in caught:
            body = [n for s in node.body for n in ast.walk(s)]
            found.append((function, any(isinstance(n, ast.Raise) for n in body)))
    for child in ast.iter_child_nodes(node):
        found += _value_error_handlers(child, function)
    return found


def test_cli_rewraps_no_library_error():
    """A ValueError becomes a package error in two places only:
    ``_Opt.value``, where an option's check fails (exit 2), and
    ``_cmd_mc_table``, where McConfig's checks across fields fail (exit 2).
    ``main`` reports any other as a numerical failure (exit 4); a library
    failure that depends on the data raises ``DataError`` itself, and the
    remaining clauses (text that is not a number) raise nothing."""
    handlers = _value_error_handlers(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert sorted(f for f, raises in handlers if raises) == ["_cmd_mc_table", "value"]
    assert ("main", False) in handlers
