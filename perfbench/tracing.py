"""Traced runs: spans and counters at ldshift's module boundaries.

The hooks replace module attributes that one layer calls in another (the
public functions plus a few private kernels named in HOOKS) with wrappers
that record a span (name, start, end, parent) and count work.  A wrapper is
installed wherever a module holds the original object, including the tuples
of lemma checks in ``verify``, so calls by name from another module are seen.
A hook whose target no longer exists is reported as missing, not raised.

Counts made inside a call of the same group are skipped (``_logpdf_plain``
calls ``_logpdf3``; ``estimate`` calls ``estimate_many``), so each value is
counted once.  A layer's self time is the duration of its spans minus the
part their child spans cover.
"""

import dataclasses
import importlib
import itertools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MIN_EVENTS = 10  # ldshift's rate fit drops grid points with fewer events
VERIFY_CHECKS = ("sandwich", "l8", "l11", "l12", "l13", "concave_infsup", "ap1",
                 "bound_order", "curve_concavity")


def _size(x):
    return int(np.size(x))


def _mc_counts(r):
    """Work and events of one tail-rate simulation, from its returned counts."""
    n_grid = np.asarray(r.n_grid)
    plus = np.rint(np.asarray(r.p_plus) * r.trials)
    minus = np.rint(np.asarray(r.p_minus) * r.trials)
    return {"rates.mc.values": int(r.trials * n_grid.sum()),
            "rates.events": int(plus.sum() + minus.sum()),
            "rates.fit_points_dropped": int(np.sum(plus < MIN_EVENTS) + np.sum(minus < MIN_EVENTS))}


def _ht_counts(r):
    sums = np.asarray(r.error_sums)
    return {"rates.mc.values": int(2 * r.trials * np.sum(r.n_grid)),
            "rates.events": int(sums.sum()),
            "rates.fit_points_dropped": int(np.sum(sums < MIN_EVENTS))}


def _sweep_counts(tracer, s, nodes):
    k = _size(s)
    out = {"renyi.sweeps": k, "renyi.sweep_nodes": k * nodes}
    if tracer.active["bounds.bound_pair"]:
        out["renyi.sweeps.in_bound_pair"] = k
    if tracer.active["renyi.profile_from_family"]:
        out["renyi.sweeps.in_profile"] = k
    return out


def _values(kind, pos):
    """Values passed to a density kernel, also tallied under the estimator
    call they serve."""
    def count(tracer, args, kwargs, result):
        n = _size(args[pos])
        out = {f"families.{kind}.values": n}
        if tracer.layer_depth["estimators"]:
            out[f"estimators.{kind}.values"] = n
        return out
    return count


# (module, attribute, group, counter(tracer, args, kwargs, result) -> {name: int})
HOOKS = [
    ("quadrature", "panel_nodes", "quadrature",
     lambda tr, a, kw, r: {"quadrature.calls": 1, "quadrature.nodes": _size(r.x)}),
    ("families", "_logpdf3", "families.logpdf", _values("logpdf", 1)),
    ("families", "_logpdf_plain", "families.logpdf", _values("logpdf", 1)),
    ("families", "log_density", "families.logpdf", _values("logpdf", 2)),
    ("families", "_score3", "families.score", _values("score", 1)),
    ("families", "score", "families.score", _values("score", 2)),
    ("families", "_draw", "families.draw", lambda tr, a, kw, r: {"families.draw.values": _size(r)}),
    ("families", "sample", "families.draw",
     lambda tr, a, kw, r: {"families.draw.values": _size(r.values)}),
    ("families", "_trimmed_support", "families.trimmed_support",
     lambda tr, a, kw, r: {"families.trimmed_support.calls": 1}),
    ("families", "make_family", "families.other", None),
    ("families", "cdf", "families.other", None),
    ("families", "fisher_information", "families.other", None),
    ("renyi", "_pair_nodes", "renyi.pair",
     lambda tr, a, kw, r: {"renyi.pair_builds": 1}),
    ("rates", "_pair_nodes_2fam", "renyi.pair",
     lambda tr, a, kw, r: {"renyi.pair_builds": 1}),
    ("renyi", "_renyi_from_nodes", "renyi.sweep",
     lambda tr, a, kw, r: _sweep_counts(tr, a[1], _size(a[0][0]))),
    ("rates", "_renyi_pair", "renyi.sweep",
     lambda tr, a, kw, r: _sweep_counts(tr, a[1], _size(a[0][0]))),
    ("renyi", "profile_from_family", "renyi.profile", None),
    ("renyi", "profile_from_closed_form", "renyi.other", None),
    ("renyi", "renyi_curve", "renyi.other", None),
    ("renyi", "renyi_divergence", "renyi.other", None),
    ("renyi", "scaled_limit", "renyi.other", None),
    ("renyi", "classify_regime", "renyi.other", None),
    ("renyi", "kappa_of_g", "renyi.other", None),
    ("bounds", "bound_pair", "bounds.bound_pair", None),
    ("bounds", "alpha1_bar", "bounds.other", None),
    ("bounds", "alpha2_bar", "bounds.other", None),
    ("bounds", "coincidence", "bounds.other", None),
    ("bounds", "closed_form_bounds", "bounds.other", None),
    ("estimators", "estimate_many", "estimators",
     lambda tr, a, kw, r: {"estimators.rows": int(np.shape(a[2])[0]),
                           "estimators.values": _size(a[2])}),
    ("estimators", "estimate", "estimators",
     lambda tr, a, kw, r: {"estimators.rows": 1, "estimators.values": _size(a[2])}),
    ("rates", "mc_tail_rate", "rates.mc.run", lambda tr, a, kw, r: _mc_counts(r)),
    ("rates", "ht_simulate", "rates.mc.run", lambda tr, a, kw, r: _ht_counts(r)),
    ("rates", "alpha2_estimate", "rates.mc.outer", None),
    ("rates", "lr_rate_identity", "rates.mc.outer", None),
    ("rates", "mle_chernoff_rate", "rates.analytic", None),
    ("rates", "chernoff_test_rate", "rates.analytic", None),
    ("rates", "hoeffding_rate", "rates.analytic", None),
    ("rates", "order_stat_rates", "rates.analytic", None),
    ("verify", "run_checks", "verify.run_checks", None),
] + [("verify", f"check_{name}", f"verify.{name}", None) for name in VERIFY_CHECKS] + [
    ("cli", "main", "cli", None),
    ("cli", "cmd_bounds", "cli", None),
    ("cli", "cmd_renyi_curve", "cli", None),
    ("cli", "cmd_rates", "cli", None),
    ("cli", "cmd_verify", "cli", None),
]

# profiles whose isg_fn/rung_fn the bound optimizers evaluate
_PROFILE_MAKERS = {"renyi.profile_from_family", "renyi.profile_from_closed_form"}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []              # span name table
        self.name_groups = []        # group of each name
        self.name_index = {}
        self.spans = []              # [name_idx, start, end, parent, outermost in group]
        self.stack = []
        self.group_depth = Counter()
        self.active = Counter()      # open spans per name
        self.layer_depth = Counter()
        self.counts = Counter()
        self.task = None
        self.task_counts = defaultdict(Counter)
        self.task_group_time = defaultdict(Counter)
        self.seen_evals = set()
        self.profile_ids = itertools.count()

    def _add(self, counts):
        for k, v in counts.items():
            self.counts[k] += v
            self.task_counts[self.task][k] += v

    def call(self, name, group, fn, counter, args, kwargs):
        idx = self.name_index.get(name)
        if idx is None:
            idx = self.name_index[name] = len(self.names)
            self.names.append(name)
            self.name_groups.append(group)
        layer = name.split(".", 1)[0]
        outer = self.group_depth[group] == 0
        span = [idx, 0.0, 0.0, self.stack[-1] if self.stack else -1, outer]
        pos = len(self.spans)
        self.spans.append(span)
        self.stack.append(pos)
        self.group_depth[group] += 1
        self.active[name] += 1
        self.layer_depth[layer] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.layer_depth[layer] -= 1
            self.active[name] -= 1
            self.group_depth[group] -= 1
            self.stack.pop()
            span[1], span[2] = start, end
            if outer:
                self.task_group_time[self.task][group] += end - start
        if outer and counter is not None:
            self._add(counter(self, args, kwargs, result))
        if name in _PROFILE_MAKERS:
            result = self._wrap_profile(result)
        return result

    def _wrap_profile(self, prof):
        """Count the optimizers' evaluations of a profile and how many of them
        repeat an (s, rung) already evaluated on the same profile."""
        pid = next(self.profile_ids)
        isg, rung = prof.isg_fn, prof.rung_fn

        def evaluate(name, key, fn, args, s):
            if self.layer_depth["bounds"]:
                points = np.atleast_1d(np.asarray(s, dtype=float)).tolist()
                repeats = 0
                for p in points:
                    k = (pid, key, p)
                    repeats += k in self.seen_evals
                    self.seen_evals.add(k)
                self._add({"bounds.objective_evals": 1, "bounds.eval_points": len(points),
                           "bounds.repeat_evals": repeats})
            return self.call(name, "renyi.objective", fn, None, args, {})

        fields = {"isg_fn": lambda s: evaluate("renyi.isg_fn", -1, isg, (s,), s)}
        if rung is not None:
            fields["rung_fn"] = lambda i, s: evaluate("renyi.rung_fn", i, rung, (i, s), s)
        return dataclasses.replace(prof, **fields)


def install(tracer):
    """Wrap every hook target; returns (undo, missing hook names)."""
    mods = {name: importlib.import_module(f"ldshift.{name}")
            for name in ("quadrature", "families", "renyi", "bounds", "estimators",
                         "rates", "verify", "cli")}
    holders = list(mods.values()) + [importlib.import_module("ldshift")]
    undo, missing = [], []
    for mod_name, attr, group, counter in HOOKS:
        orig = getattr(mods[mod_name], attr, None)
        if not callable(orig):
            missing.append(f"{mod_name}.{attr}")
            continue
        name = f"{mod_name}.{attr}"

        def wrapper(*args, _n=name, _g=group, _f=orig, _c=counter, **kwargs):
            return tracer.call(_n, _g, _f, _c, args, kwargs)

        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    new = wrapper
                elif isinstance(val, tuple) and any(v is orig for v in val):
                    new = tuple(wrapper if v is orig else v for v in val)
                else:
                    continue
                undo.append((holder, key, val))
                setattr(holder, key, new)

    def restore():
        for holder, key, val in reversed(undo):
            setattr(holder, key, val)

    return restore, missing


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

def layer_metrics(tracer):
    """Per-layer metrics of a traced pass (counts, times and ratios)."""
    dur = np.array([s[2] - s[1] for s in tracer.spans])
    child = np.zeros(len(tracer.spans))
    for s, d in zip(tracer.spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_time = dur - child
    group_time, layer_self = Counter(), Counter()
    for s, d, st in zip(tracer.spans, dur, self_time):
        group = tracer.name_groups[s[0]]
        if s[4]:
            group_time[group] += d
        layer_self[tracer.names[s[0]].split(".", 1)[0]] += st
        if group.startswith("rates.mc"):
            layer_self["rates.mc"] += st

    c = tracer.counts
    est_values = c["estimators.values"]
    m = {
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.time_s": group_time["quadrature"],
        "families.logpdf.values": c["families.logpdf.values"],
        "families.logpdf.time_s": group_time["families.logpdf"],
        "families.score.values": c["families.score.values"],
        "families.score.time_s": group_time["families.score"],
        "families.draw.values": c["families.draw.values"],
        "families.draw.time_s": group_time["families.draw"],
        "families.trimmed_support.calls": c["families.trimmed_support.calls"],
        "renyi.pair_builds": c["renyi.pair_builds"],
        "renyi.sweeps": c["renyi.sweeps"],
        "renyi.sweep_nodes": c["renyi.sweep_nodes"],
        "renyi.sweep.time_s": group_time["renyi.sweep"],
        "renyi.profile.time_s": group_time["renyi.profile"],
        "bounds.objective_evals": c["bounds.objective_evals"],
        "bounds.self_time_s": layer_self["bounds"],
        "bounds.repeat_eval_frac": _ratio(c["bounds.repeat_evals"], c["bounds.eval_points"]),
        "estimators.rows": c["estimators.rows"],
        "estimators.values": est_values,
        "estimators.time_s": group_time["estimators"],
        "estimators.logpdf_per_value": _ratio(c["estimators.logpdf.values"], est_values),
        "estimators.score_per_value": _ratio(c["estimators.score.values"], est_values),
        "rates.mc.self_time_s": layer_self["rates.mc"],
        "rates.events": c["rates.events"],
        "rates.fit_points_dropped": c["rates.fit_points_dropped"],
        "rates.analytic.time_s": group_time["rates.analytic"],
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name}.time_s"] = group_time[f"verify.{name}"]
    m["cli.self_time_s"] = layer_self["cli"]
    m["mc_values_per_s"] = _ratio(c["rates.mc.values"], group_time["rates.mc.run"])
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def baseline_checks(tracer, workload):
    """Counts that ROADMAP.md states for the initial code, as measured here."""
    out = []
    tc = tracer.task_counts
    if workload == "ladder-bounds" and "bounds/beta-1.5-1.5" in tc:
        c = tc["bounds/beta-1.5-1.5"]
        nodes = _ratio(c["renyi.sweep_nodes"], c["renyi.sweeps"])
        out.append(("nodes per pair (beta(1.5,1.5))", nodes, 19248))
        out.append(("sweeps inside bound_pair (beta(1.5,1.5))", c["renyi.sweeps.in_bound_pair"], 2863))
        out.append(("sweeps inside its profile", c["renyi.sweeps.in_profile"], 329))
        out.append(("repeated objective evaluations (share)",
                    round(_ratio(c["bounds.repeat_evals"], c["bounds.eval_points"]), 3), 0.5))
    if workload == "mc-rates":
        for task in sorted(t for t in tc if t and t.startswith("mc/lr-")):
            g = tracer.task_group_time[task]
            out.append((f"families.logpdf share of LR Monte Carlo time ({task})",
                        round(_ratio(g["families.logpdf"], g["rates.mc.run"]), 3), 0.96))
    return out
