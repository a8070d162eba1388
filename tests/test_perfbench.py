"""perfbench still fits the package: its workloads build, its tracer finds
every hook but the three known to be missing, tracing changes no bound, and
``restore`` undoes every patch.  perfbench's files are only read."""

import importlib
import importlib.util
import sys
from pathlib import Path

import ldshift
from ldshift import bounds, renyi
from ldshift.families import make_family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("quadrature", "families", "renyi", "bounds", "estimators", "rates", "verify", "cli")
# hooks whose targets the package no longer has
KNOWN_MISSING = ["rates._pair_nodes_2fam", "rates._renyi_pair", "renyi.scaled_limit"]


def _perfbench(name):
    """perfbench/<name>.py as a module, loaded from its file once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _holders():
    return [importlib.import_module(f"ldshift.{m}") for m in MODULES] + [ldshift]


def test_workloads_build_their_task_lists():
    workloads = _perfbench("workloads")
    for name in workloads.NAMES:
        tasks = workloads.load(PERFBENCH.parent, name, 7)
        ids = [t.id for t in tasks]
        assert tasks and len(set(ids)) == len(ids), name
        assert all(callable(t.run) and callable(t.check) for t in tasks), name


def test_tracer_hooks_trace_bounds_and_restore():
    tracing = _perfbench("tracing")
    fam = make_family("beta", (1.5, 1.5))

    def pairs():
        closed = renyi.profile_from_closed_form("power_mid", 1.0, 0.5, 1.5)
        ladder = renyi.profile_from_family(fam)
        return [repr(bounds.bound_pair(p)) for p in (closed, ladder)]

    plain = pairs()
    before = [dict(vars(h)) for h in _holders()]
    original = renyi.profile_from_family
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        assert sorted(missing) == KNOWN_MISSING
        assert renyi.profile_from_family is not original
        traced = pairs()
    finally:
        restore()
    # the same bounds bit for bit (repr round-trips a float), with the
    # ladder's refine seen by the tracer
    assert traced == plain
    assert tracer.counts["bounds.objective_evals"] > 0 and tracer.counts["renyi.sweeps"] > 0
    assert renyi.profile_from_family is original
    for holder, attrs in zip(_holders(), before):
        now = vars(holder)
        assert now.keys() == attrs.keys(), holder.__name__
        assert all(now[k] is v for k, v in attrs.items()), holder.__name__
