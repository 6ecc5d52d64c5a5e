"""Package-level contracts: what ``import comaxlab`` loads, a clean entry point, no dead code.

The first three run in a fresh interpreter, so modules other tests have
imported cannot hide a submodule the package fails to load.  The
dead-code lint reads the source with ``ast`` alone.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "comaxlab"

# Run with bench/ on the path: every traced name must resolve after the
# package import alone, except the entry point, which the traced runner
# imports itself before installing the tracer.
RESOLVE_TRACED_NAMES = """
import sys
import comaxlab
import layers
from tracing import Tracer

names = layers.TIMED + layers.SPANNED + layers.CALLS_ONLY + layers.SHARDS
missing = []
for name in names:
    module, attr = name.split(".")
    if module != "cli" and not hasattr(sys.modules.get(f"comaxlab.{module}"), attr):
        missing.append(name)
assert not missing, missing
from comaxlab import cli
layers.install(Tracer())
print(len(names))
"""


def run_python(*args):
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_every_traced_name_resolves_after_import_comaxlab():
    result = run_python("-c", RESOLVE_TRACED_NAMES)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


# Two usable CPUs on any host, so --jobs 2 forks one worker.
FORKED_RUN = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from comaxlab import cli
code = cli.main(["verify-counterexample", "--samples", "50", "--jobs", "2", "--output", os.devnull])
pool = sorted(m for m in sys.modules if m.partition(".")[0] in ("multiprocessing", "concurrent"))
print(code, "pickle" in sys.modules, pool)
"""


def test_import_cli_loads_no_dataclasses_or_process_pool():
    # Every CLI process pays for what the import loads.  The value classes
    # are plain classes, so dataclasses (with inspect and ast) stays out;
    # pickle is imported where run_shards forks its workers, so runs that
    # fork none, --help among them, skip loading it.  Forked workers need
    # no process pool, so even a --jobs 2 run loads none.
    heavy = ("dataclasses", "multiprocessing", "concurrent", "pickle")
    loaded = f"sorted(m for m in sys.modules if m.partition('.')[0] in {heavy})"
    result = run_python("-c", f"import sys, comaxlab.cli; print({loaded})")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    result = run_python("-c", FORKED_RUN)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 True []\n"


def test_forked_workers_run_without_warnings():
    # From Python 3.12 a fork in a process with threads warns, so on a
    # host with two usable CPUs a thread started before run_shards forks
    # fails this.
    args = ("verify-counterexample", "--samples", "200", "--jobs", "2")
    result = run_python("-W", "error", "-m", "comaxlab.cli", *args)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["status"] == "pass"


# The flags each subcommand's --help lists besides --output: its row of the flag table.
HELP_FLAGS = {
    "verify-counterexample": {"--seed", "--samples", "--prefix-max", "--grid", "--budget", "--jobs"},
    "finite-census": {"--seed", "--grid", "--n", "--budget"},
    "integral-properties": {"--seed", "--grid", "--n", "--budget", "--norm"},
    "tnorm-axioms": {"--seed", "--grid", "--budget"},
    "comonotone-check": {"--seed"},
    "explore-problem1": {"--seed", "--samples", "--prefix-max", "--grid", "--budget"},
}


def test_cli_help_runs_without_warnings():
    result = run_python("-W", "error", "-m", "comaxlab.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "verify-counterexample" in result.stdout
    for subcommand, flags in HELP_FLAGS.items():
        result = run_python("-W", "error", "-m", "comaxlab.cli", subcommand, "--help")
        assert result.returncode == 0, result.stderr
        listed = set(re.findall(r"^ +(--[a-z-]+)", result.stdout, re.MULTILINE))
        assert listed == flags | {"--output"}, subcommand


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_used(tree: ast.AST) -> Counter:
    """Every identifier read in ``tree``: names, attributes and imported names."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_package_has_no_unused_import_or_unreferenced_definition():
    """A lint for dead code, on the syntax tree alone.

    Every module of the package but ``__init__.py`` reads each name it
    imports.  Every top-level function and class is referenced from
    ``src/`` or ``bench/`` outside its own definition.  References are
    matched by name, and tests do not count.
    """
    modules = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    unused_imports = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported = {alias.asname or alias.name.partition(".")[0] for alias in node.names}
                unused_imports += [f"{name}: {i}" for i in sorted(imported - read)]
    assert not unused_imports

    used: Counter = Counter()
    for tree in modules.values():
        used += _names_used(tree)
    for path in (ROOT / "bench").glob("*.py"):
        if not path.name.startswith("test_"):
            used += _names_used(_parse(path))
    definitions = [
        (name, node)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    unreferenced = [
        f"{name}: {node.name}"
        for name, node in definitions
        if used[node.name] <= _names_used(node)[node.name]
    ]
    assert not unreferenced
    assert len(definitions) > 100


def _callee(node: ast.expr) -> str | None:
    """The name a decorator or call refers to: ``lru_cache`` for ``@functools.lru_cache(4096)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _applied(node: ast.AST) -> list[ast.expr]:
    """What a node applies to a function: a definition's decorators, or a call's callee."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.decorator_list
    return [node.func] if isinstance(node, ast.Call) else []


def test_no_module_level_function_is_cached():
    """No memo anywhere: a suite builds its tables and hands them over.

    Nothing in the package, at any depth, is decorated with
    ``functools.cache`` or ``lru_cache`` or wraps a function by calling
    either (``functools.cache(step_value)``).
    """
    cached = sorted({
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if any(_callee(f) in {"cache", "lru_cache"} for f in _applied(node))
    })
    assert not cached


def test_no_module_imports_dataclasses():
    """The value classes are plain classes: ``dataclasses`` costs every CLI process its import."""
    imports = sorted({
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    })
    assert not imports


def _attributes_read(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_method_is_referenced_by_attribute():
    """The dead-code lint for methods and properties.

    Every method or property of a class in the package, dunders aside,
    is read as an attribute (``x.name``) from ``src/`` or ``bench/``
    outside its own body.  Tests do not count.
    """
    package = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    bench = [_parse(p) for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    read = sum((_attributes_read(tree) for tree in package + bench), Counter())
    methods = [
        (cls.name, node)
        for tree in package
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    unreferenced = [
        f"{cls}.{node.name}"
        for cls, node in methods
        if read[node.name] <= _attributes_read(node)[node.name]
    ]
    assert not unreferenced
    assert len(methods) > 20


def test_every_module_level_name_is_read():
    """The dead-code lint for module-level assignments.

    Every name a top-level assignment in the package binds (constants
    and type aliases; ``__version__`` aside) is read from ``src/`` or
    ``bench/`` outside its own statement.  Tests do not count.
    """
    package = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    bench = [_parse(p) for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    used = sum((_names_used(tree) for tree in package + bench), Counter())
    assigned = [
        (target.id, node)
        for tree in package
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
        and target.id != "__version__"
    ]
    unread = [name for name, node in assigned if used[name] <= _names_used(node)[name]]
    assert not unread
    assert len(assigned) > 30


def _attributes_loaded(trees) -> Counter:
    """Every attribute name read (loaded, not only assigned) as ``x.name`` in ``trees``."""
    return Counter(
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_class_field_is_read_by_attribute():
    """The dead-code lint for class-level annotated fields (value-class fields).

    Every such field of a class in the package is read (loaded, not
    only assigned) as an attribute (``x.field``) from ``src/`` or
    ``bench/``.  References are matched by name, and tests do not count.
    """
    package = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    bench = [_parse(p) for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    read = _attributes_loaded(package + bench)
    fields = [
        f"{cls.name}.{node.target.id}"
        for tree in package
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    unread = [field for field in fields if not read[field.partition(".")[2]]]
    assert not unread
    assert len(fields) >= 29


def _instance_attributes(tree: ast.AST):
    """``(line, name)`` for each ``self.name = ...`` and ``object.__setattr__(self, "name", ...)``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.lineno, node.args[1].value


def test_every_instance_attribute_is_read_by_attribute():
    """The dead-code lint for instance attributes.

    Every attribute a method of the package sets on ``self`` (by
    assignment or ``object.__setattr__``) is read (loaded) as an
    attribute (``x.name``) from ``src/`` or ``bench/``.  References are
    matched by name, and tests do not count.
    """
    package = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [_parse(p) for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    read = _attributes_loaded([*package.values(), *bench])
    assigned = [
        (f"{name}:{line}", attr)
        for name, tree in package.items()
        for line, attr in _instance_attributes(tree)
    ]
    unread = [f"{where} {attr}" for where, attr in assigned if not read[attr]]
    assert not unread
    assert len(assigned) >= 10


def _scopes(node: ast.AST, scope: str, hit):
    """The qualified name of the scope of each node under ``node`` that ``hit`` accepts."""
    for child in ast.iter_child_nodes(node):
        if hit(child):
            yield scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield from _scopes(child, inner, hit)


def _package_scopes(hit) -> set[str]:
    """The scopes across the package in which ``hit`` accepts a node."""
    return {
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes(_parse(path), path.stem, hit)
    }


def _mentions_stderr(node: ast.AST) -> bool:
    named = getattr(node, "attr", None) or getattr(node, "id", None)
    if isinstance(node, ast.alias):
        named = node.name
    return named in {"stderr", "__stderr__"}


def test_only_the_error_writers_touch_stderr():
    """One writer of error lines.

    ``sys.stderr`` appears in the package only inside ``cli._error``
    and ``cli._Parser.error`` (which prints the usage, then calls
    ``_error``), so every line on stderr is an ``error:`` line that
    ``_error`` cuts to 200 characters.
    """
    assert _package_scopes(_mentions_stderr) == {"cli._error", "cli._Parser.error"}


def _or_assigns(node: ast.AST) -> bool:
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)


def test_only_grid_signs_builds_bitmasks():
    """One mask builder.

    The package's only bitmask OR-assignment (``x |= ...``) is in
    ``grid.signs``: the grid relations and ``seq_comonotone.PairRelations``
    both decide comonotonicity of finite rows on its masks.
    """
    assert _package_scopes(_or_assigns) == {"grid.signs"}


def _draws_an_integer(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"randint", "randrange", "getrandbits"}
    )


def test_only_draw_int_draws_integers():
    """One seeded integer draw.

    No ``.randint(``, ``.randrange(`` or ``.getrandbits(`` call appears
    in the package outside ``rational.draw_int``, which draws what
    ``randint`` draws from ``getrandbits``; the generator's stream is
    that one helper's.
    """
    assert _package_scopes(_draws_an_integer) == {"rational.draw_int"}


def _calls_generate_pair(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee(node.func) == "generate_pair"


def test_only_the_pair_walk_generates_pairs():
    """One walk of comonotone pairs.

    ``generate_pair`` is called in the package only inside
    ``suites.comonotone_pairs``, which hands both sequence suites their
    family and generated pairs; neither suite draws a pair of its own.
    """
    assert _package_scopes(_calls_generate_pair) == {"suites.comonotone_pairs"}


def _calls_step_value(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee(node.func) == "step_value"


def test_only_the_zoo_calls_step_value():
    """One step evaluation per function.

    ``step_value`` is called in the package only inside
    ``suites._candidate_zoo``; ``verify-counterexample`` reads every step,
    of members, joins and the exact facts, from a ``membership`` it holds.
    """
    assert _package_scopes(_calls_step_value) == {"suites._candidate_zoo"}


def _calls_apply(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee(node.func) == "apply"


def test_only_the_homogeneity_cases_call_apply():
    """The finite model's norms run on integer numerators.

    ``tnorms.apply``, the norm on Fractions, is called in the package
    only inside ``properties._homogeneity_cases``, which needs Fraction
    values to build the scaled ``GridFn`` inputs.  The axiom checker,
    the closure test and the integral call ``apply_scaled`` or write its
    formulas out, and build a Fraction only for a witness.
    """
    assert _package_scopes(_calls_apply) == {"properties._homogeneity_cases"}


def _raises_budget_error(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise) and _callee(node.exc) == "BudgetExceededError"


def test_only_check_budget_refuses_and_the_cli_decides_no_budget():
    """One budget decision.

    ``BudgetExceededError`` is raised in the package only inside
    ``report.check_budget``; each enumerating suite counts its own work
    and calls it.  The CLI imports no count, no budget check, no axiom
    checker and no ``INCONCLUSIVE``: it catches the error and writes the
    refusal report the error builds.
    """
    assert _package_scopes(_raises_budget_error) == {"report.check_budget"}
    imported = {
        alias.name
        for node in ast.walk(_parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    deciders = {"check_budget", "capped_power", "axiom_check_count", "check_axioms", "INCONCLUSIVE"}
    assert not imported & deciders


def _compares_subcommand(node: ast.AST) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Attribute) and side.attr == "subcommand"
        for side in (node.left, *node.comparators)
    )


def test_the_cli_never_branches_on_a_subcommand_name():
    """What a subcommand takes is its ``SUBCOMMANDS`` row.

    No comparison in ``cli.py`` reads ``.subcommand``: the parser and
    the config echo ask the row which flags a subcommand takes.
    """
    tree = _parse(PACKAGE / "cli.py")
    assert not [node.lineno for node in ast.walk(tree) if _compares_subcommand(node)]


def _skips_teardown(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee(node.func) == "_exit"


def test_only_the_cli_entry_and_forked_workers_skip_teardown():
    """Two ``os._exit`` calls.

    ``os._exit`` is called in the package only inside ``parallel._child``,
    a forked worker that must not run its parent's exit, and ``cli.run``,
    which ends the command line's process once its report is flushed.
    ``main`` returns its code, so an in-process caller exits normally.
    """
    assert _package_scopes(_skips_teardown) == {"parallel._child", "cli.run"}
