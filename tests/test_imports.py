"""Import footprint: `import ldshift`, the `bounds`, `renyi-curve`, `rates`
and `verify` commands and `cdf` never load scipy, and all of them run where
scipy cannot be imported (scipy is a test dependency only); `import
ldshift`, `bounds` and `renyi-curve` never load numpy.random; no module
imports a name it never reads, no private helper goes unread, no module
starts threads or processes, regime strings are compared only where they
are derived from kappa, and each rule listed in ``_RULE_HOMES`` is written
in its one home."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# numpy.random adds 5 to 6 MB to the resident set on its first import, half
# of the 10% peak-memory bound on a 40 MB bounds run, so the commands that
# draw nothing never load it
SCRIPT = r"""
import contextlib, glob, io, sys

import ldshift
import ldshift.cli

assert "scipy" not in sys.modules, "import ldshift loaded scipy"
assert "numpy.random" not in sys.modules, "import ldshift loaded numpy.random"

configs = sorted(glob.glob("perfbench/configs/cli/bounds-*.json"))
assert configs, "no bounds configs found"
runs = [["bounds", "--config", c] for c in configs]
runs.append(["renyi-curve", "--config", "perfbench/configs/cli/renyi-curve-gamma-2.json"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ldshift.cli.main(argv)
    assert code == 0, (argv, code)
    assert "scipy" not in sys.modules, f"{argv} loaded scipy"
    assert "numpy.random" not in sys.modules, f"{argv} loaded numpy.random"
ldshift.cdf(ldshift.make_family("beta", (2, 3)), 0.5)
assert "scipy" not in sys.modules, "cdf on a beta family loaded scipy"
print("ok", len(runs))
"""

# the analytic order-statistic and MLE rates integrate on the family's own
# quadrature, so neither a `rates` run nor the lemma suite needs scipy
RATES_VERIFY_SCRIPT = r"""
import contextlib, io, sys

import ldshift.cli

runs = [["rates", "--config", sys.argv[1]], ["verify", "--level", "quick"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ldshift.cli.main(argv)
    assert code == 0, (argv, code)
    assert "scipy.special" not in sys.modules, f"{argv} loaded scipy.special"
print("ok", len(runs))
"""

# every import of scipy raises: the commands and `cdf` on every built-in
# kind and on a custom family must run all the same
BLOCKED_SCRIPT = r"""
import sys
sys.modules["scipy"] = None

import contextlib, glob, io

import numpy as np

import ldshift
import ldshift.cli

runs = [["bounds", "--config", c]
        for c in sorted(glob.glob("perfbench/configs/cli/bounds-*.json"))]
runs += [["renyi-curve", "--config", "perfbench/configs/cli/renyi-curve-gamma-2.json"],
         ["rates", "--config", sys.argv[1]], ["verify", "--level", "quick"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ldshift.cli.main(argv)
    assert code == 0, (argv, code)
fams = [ldshift.make_family(k, p) for k, p in [
    ("uniform", ()), ("beta", (2, 3)), ("gamma", (3,)), ("weibull", (2,)),
    ("gaussian", ()), ("triangular", (0.3,))]]
fams.append(ldshift.make_family("custom", logpdf=lambda u: np.log(2.0 * u), support=(0, 1),
                                edge=(2, 2, 1, 2), log_concave=True))
for fam in fams:
    F = ldshift.cdf(fam, np.linspace(-20.0, 80.0, 41))
    assert F[0] == 0.0 and F[-1] == 1.0 and np.all(np.diff(F) >= 0), (fam.kind, F)
print("ok", len(runs), len(fams))
"""

# at eps 0.2 the mle rungs at n >= 16 and the lr rungs at n >= 8 draw
# strip-free samples per side, whose strip masses come from the mass table
RATES_CFG = {
    "version": 1, "seed": 0, "family": {"kind": "beta", "params": [2, 3]},
    "estimators": [{"kind": "min_shift"}, {"kind": "convex_combo", "lambda": 0.3},
                   {"kind": "mle"}, {"kind": "lr"}],
    "trials": 200, "n_grid": [2, 4, 8, 16, 32], "eps_ladder": [0.2, 0.1, 0.05, 0.025],
}


def _run_fresh(script, *args):
    """Run a script in a fresh interpreter; returns its stdout words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bounds_and_renyi_curve_do_not_load_scipy():
    assert _run_fresh(SCRIPT) == ["ok", "13"]


def test_rates_and_verify_do_not_load_scipy(tmp_path):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(RATES_CFG))
    assert _run_fresh(RATES_VERIFY_SCRIPT, str(path)) == ["ok", "2"]


def test_commands_and_cdf_run_with_scipy_blocked(tmp_path):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(RATES_CFG))
    assert _run_fresh(BLOCKED_SCRIPT, str(path)) == ["ok", "15", "7"]


def _unused_imports(path):
    """Names a module imports at module level and never reads; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read)


def test_src_modules_have_no_unused_imports():
    unused = [u for path in sorted((ROOT / "src" / "ldshift").glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree):
    """Names of the private functions, classes and constants a module
    defines at module level: one leading underscore, not a dunder."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_src_private_names_are_all_read():
    # a private helper that no code in src reads (as a name or an
    # attribute; a docstring mention does not count) is dead
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "ldshift").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    defined = [(module, name) for module, tree in trees.items()
               for name in sorted(_private_definitions(tree))]
    assert len(defined) > 100
    assert [f"{module}:{name}" for module, name in defined if name not in read] == []


# perfbench's tracer keeps one span stack and one set of depth counters per
# process (the CHANGES.md FOUND on `Tracer`), so work on a second thread
# could make its two traced passes disagree; this rule goes when the tracer
# keeps them per thread
_CONCURRENCY = ("threading", "concurrent", "multiprocessing")


def test_src_starts_no_threads():
    found = []
    for path in sorted((ROOT / "src" / "ldshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in _CONCURRENCY]
    assert found == [], ("src imports threading, concurrent.futures or multiprocessing; "
                         "perfbench's tracer keeps one span stack per process (CHANGES.md "
                         "FOUND on `Tracer`): " + ", ".join(found))


# the closed forms are keyed on kappa; a regime string is only its label,
# made by ``renyi._regime`` and checked by ``renyi._check_regime``
_REGIME_LABEL_FUNCTIONS = {("renyi.py", "_regime"), ("renyi.py", "_check_regime")}


def _is_named(node, *names):
    return (isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names)


def _is_strings(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_strings(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_src_compares_regime_strings_only_in_the_labeling():
    found = []
    for path in sorted((ROOT / "src" / "ldshift").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in _REGIME_LABEL_FUNCTIONS:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if (any(_is_named(op, "regime") for op in operands)
                            and any(map(_is_strings, operands))):
                        found.append(f"{path.name}:{node.lineno}")
    assert found == [], ("regime compared with a string outside renyi._regime and "
                         "renyi._check_regime (ROADMAP item 10: the closed forms are keyed "
                         "on kappa, a regime is only its label): " + ", ".join(found))


def test_src_scaling_tags_are_numbers():
    # a scaling tag is the edge exponent kappa_e, a number: no tag is
    # compared with a string name or tested for being a callable
    found = []
    for path in sorted((ROOT / "src" / "ldshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                bad = (any(_is_named(op, "g_tag") for op in operands)
                       and any(map(_is_strings, operands)))
            else:
                bad = (isinstance(node, ast.Call) and _is_named(node.func, "callable")
                       and any(_is_named(arg, "g_tag", "tag") for arg in node.args))
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], ("scaling tag compared with a string or tested with callable() "
                         "(ROADMAP items 8 and 10: a tag is the edge exponent whose g it "
                         "names, and the callable and named tags are gone): " + ", ".join(found))


# rules written once (ROADMAP aim 2), each with the definitions that may
# write it (a module name alone: the whole module): the window kernel
# ``families._log_ratio`` is summed over rows by ``families._log_ratio_rows``
# and swept by ``renyi._pair_nodes``, which saves a custom family's second
# log-density pass; 1 minus a mass from the far end is the nearer-end mass
# ``families._near_mass``; the gaussian MLE is the row mean where
# ``estimators._is_row_mean`` says so; and ``special._elementwise`` is the
# one elementwise float loop, so no module builds a ufunc of its own
_RULE_HOMES = {
    "np.frompyfunc": set(),
    "_log_ratio call": {("families.py", None), ("renyi.py", "_pair_nodes")},
    "1 - _mass_within": {("families.py", "_near_mass")},
    "kind == 'gaussian'": {("estimators.py", "_is_row_mean")},
}


def _is_call_of(node, name):
    return isinstance(node, ast.Call) and _is_named(node.func, name)


def _rule_of(node):
    """The ``_RULE_HOMES`` rule a node writes, else None."""
    if _is_named(node, "frompyfunc"):
        return "np.frompyfunc"
    if _is_call_of(node, "_log_ratio"):
        return "_log_ratio call"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and _is_call_of(node.right, "_mass_within")):
        return "1 - _mass_within"
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if (any(_is_named(op, "kind") for op in operands)
                and any(isinstance(op, ast.Constant) and op.value == "gaussian"
                        for op in operands)):
            return "kind == 'gaussian'"
    return None


def _rule_copies(sources):
    """'rule module:line' of each rule of ``_RULE_HOMES`` written outside its
    homes, in a {module file name: source text} mapping."""
    found = []
    for name, text in sorted(sources.items()):
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                rule = _rule_of(node)
                where = {(name, None), (name, getattr(top, "name", None))}
                if rule and not where & _RULE_HOMES[rule]:
                    found.append(f"{rule} {name}:{node.lineno}")
    return found


def test_src_writes_each_rule_once():
    # the rule sees each copy it names
    copies = """
import numpy as np
loop = np.frompyfunc(float, 1, 1)
def rows(fam, U, dl, dr, s):
    return _log_ratio(fam, U, dl, dr, s).sum(axis=1)
def far(fam, t):
    return 1.0 - fam_mod._mass_within(fam, t, True)
def mean(spec, family):
    return family.kind == "gaussian"
"""
    assert [c.split(" other.py:")[0] for c in _rule_copies({"other.py": copies})] == list(
        _RULE_HOMES)
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / "src" / "ldshift").glob("*.py"))}
    found = _rule_copies(sources)
    assert found == [], ("a rule written outside its home (ROADMAP aim 2, one home per "
                         "rule; see _RULE_HOMES): " + ", ".join(found))
