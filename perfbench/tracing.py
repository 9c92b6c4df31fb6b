"""Layer spans for the uhat benchmark, recorded from outside the package.

`Tracer.install` replaces each listed public function with a timing wrapper
in every `uhat` module namespace that holds it, including names bound by
`from uhat.rings import ...` (for example `blowup.ring_eliminate` or
`quotient.solve_linear`), so calls are seen whichever module makes them.
Spans are kept in memory with their parent span; `layer_metrics` turns one
batch of spans into per-layer calls, busy time, self time and work counts.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

# module -> public functions wrapped as spans ("Class.method" for methods)
SPANS = {
    "rings": [
        "groebner_basis",
        "buchberger",
        "reduce_groebner",
        "unit_certificate",
        "eliminate",
        "syzygy_kernel",
        "module_groebner",
        "normal_form_list",
        "determinant",
        "solve_linear",
    ],
    "lie": [
        "DerivationAction.validate",
        "verify_weighted_bracket_identity",
        "verify_commutator_identity",
        "comult_coefficients",
    ],
    "infinitesimal": [
        "relative_map",
        "fitting_chain_from_matrix",
        "check_ss_eq_s",
        "check_cdrs",
    ],
    "quotient": [
        "find_slices",
        "dixmier_project",
        "invariant_presentation",
        "staged_quotient",
        "verify_quotient",
    ],
    "blowup": [
        "check_wuu",
        "centre",
        "construct_b",
        "build_chart",
        "verify_chart_cdrs",
        "beta_check",
    ],
    "scenario": ["load_scenario"],
    "cli": ["emit"],
}

# span -> the workload it is expected to dominate; the self-test checks that
# every span fires there.  Spans not named here belong to `scenarios`.
HOME = {
    "rings.syzygy_kernel": "sweep",
    "rings.module_groebner": "sweep",
    "blowup.centre": "sweep",
    "blowup.construct_b": "sweep",
    "blowup.build_chart": "sweep",
    "blowup.verify_chart_cdrs": "sweep",
    "blowup.beta_check": "sweep",
    "lie.verify_weighted_bracket_identity": "identities",
    "lie.verify_commutator_identity": "identities",
    "lie.comult_coefficients": "identities",
    "cli.emit": "identities",
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]


def home_workload(span):
    return HOME.get(span, "scenarios")


# Work counts and ratios: (metric, unit, better); their values come from the
# probes below, which read each call's inputs and outputs.
WORK_METRICS = [
    ("rings.buchberger.basis_out", "count", "lower"),
    ("rings.groebner.kept_ratio", "ratio", "higher"),
    ("rings.module_groebner.basis_out", "count", "lower"),
    ("rings.syzygy.kept_ratio", "ratio", "higher"),
    ("infinitesimal.relative_map.repeat_ratio", "ratio", "lower"),
    ("rings.syzygy_kernel.repeat_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in output order."""
    spec = []
    for name in SPAN_NAMES:
        spec += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    for mod in SPANS:
        spec += [(f"{mod}.self_s", "s", "lower"), (f"{mod}.share", "ratio", "lower")]
    spec.append(("untraced.self_s", "s", "lower"))
    return spec + WORK_METRICS


def _syzygy_key(args, kwargs):
    fmap = args[0]
    relations = args[1] if len(args) > 1 else kwargs.get("relations")
    ring = next((p.ring for row in fmap.matrix for p in row), None)
    return (ring, fmap, tuple(relations or ()))


class Tracer:
    """Collects spans of the functions in SPANS for the job that is running."""

    def __init__(self, clock):
        self.clock = clock  # seconds; a span's time is the difference of two readings
        self.spans = []  # [name, parent index, job, start, end, outermost]
        self.stack = []
        self.active = Counter()  # open spans per name, to spot recursion
        self.counts = Counter()
        self.job = None
        self.seen = {}
        self.keep = []
        self.patched = []  # "module.attribute" bindings that were replaced
        self.originals = []  # (owner, attribute, original) to undo the wrapping
        self.absent = []  # spans whose function the package no longer has

    def start_job(self, name):
        """Repeat ratios count inputs already seen within the same job."""
        self.job = name
        self.seen = {"relative_map": set(), "syzygy_kernel": set()}
        self.keep = []

    def take_batch(self):
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _probe(self, name, args, kwargs, out):
        c = self.counts
        if name == "rings.buchberger":
            c["buchberger_out"] += len(out)
        elif name == "rings.reduce_groebner":
            c["reduce_in"] += len(args[0])
            c["reduce_out"] += len(out)
        elif name == "rings.module_groebner":
            c["module_out"] += len(out)
        elif name == "rings.syzygy_kernel":
            c["kernel_out"] += len(out)
            self._repeat("syzygy_kernel", _syzygy_key(args, kwargs))
        elif name == "infinitesimal.relative_map":
            action, level = args[0], args[1]
            self.keep.append(action)  # its id stays unique until the job ends
            self._repeat("relative_map", (id(action), level))

    def _repeat(self, kind, key):
        seen = self.seen[kind]
        self.counts[f"{kind}_calls"] += 1
        if key in seen:
            self.counts[f"{kind}_repeats"] += 1
        else:
            seen.add(key)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [
                name,
                tracer.stack[-1] if tracer.stack else -1,
                tracer.job,
                0.0,
                0.0,
                tracer.active[name] == 0,
            ]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.active[name] += 1
            rec[3] = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = tracer.clock()
                tracer.active[name] -= 1
                tracer.stack.pop()
            tracer._probe(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every span in every loaded `uhat` module that binds it.

        A span whose function is gone is listed in `absent` and reads zero.
        """
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "uhat" or key.startswith("uhat.")
        }
        for mod, fns in SPANS.items():
            home = modules[f"uhat.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name, None)
                    if getattr(cls, meth, None) is None:
                        self.absent.append(name)
                        continue
                    self._patch(cls, meth, self.wrap(name, getattr(cls, meth)))
                    self.patched.append(name)
                    continue
                original = getattr(home, fn, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for key, module in sorted(modules.items()):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
                            self.patched.append(f"{key.removeprefix('uhat.')}.{attr}")


    def _patch(self, owner, attr, wrapper):
        self.originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals = []


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, wall_s):
    """Per-layer metrics of one traced batch that took `wall_s` seconds.

    busy_s counts only the outermost call of a recursive span; self_s is a
    span's duration minus the part its direct child spans cover.
    """
    child = [0.0] * len(spans)
    root = 0.0
    for name, parent, _job, start, end, _outer in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            root += end - start
    calls, busy, self_s = Counter(), Counter(), Counter()
    for i, (name, _parent, _job, start, end, outer) in enumerate(spans):
        calls[name] += 1
        if outer:
            busy[name] += end - start
        self_s[name] += end - start - child[i]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
    for mod, fns in SPANS.items():
        mod_self = sum(self_s[f"{mod}.{fn}"] for fn in fns)
        out[f"{mod}.self_s"] = mod_self
        out[f"{mod}.share"] = _ratio(mod_self, wall_s)
    out["untraced.self_s"] = wall_s - root
    out["rings.buchberger.basis_out"] = counts["buchberger_out"]
    out["rings.groebner.kept_ratio"] = _ratio(counts["reduce_out"], counts["reduce_in"])
    out["rings.module_groebner.basis_out"] = counts["module_out"]
    out["rings.syzygy.kept_ratio"] = _ratio(counts["kernel_out"], counts["module_out"])
    out["infinitesimal.relative_map.repeat_ratio"] = _ratio(
        counts["relative_map_repeats"], counts["relative_map_calls"]
    )
    out["rings.syzygy_kernel.repeat_ratio"] = _ratio(
        counts["syzygy_kernel_repeats"], counts["syzygy_kernel_calls"]
    )
    return out
