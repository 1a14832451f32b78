"""Spans around the public functions of each ``gammaw`` module.

``Tracer.instrument()`` replaces each traced function wherever the package
binds it (module attributes, the ``acceptance.CRITERIA`` table, methods of
``ScalarField`` and ``GaussianNoise``) with a wrapper that records a span:
name, start, end, parent, and up to two work numbers taken from the call
(rows evaluated, samples reported and requested, ...).  Nothing under
``src/`` is edited, and nothing is wrapped unless a traced run asks for it.

Spans live in flat arrays in memory and are written out once, when the run
ends.  ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(args, kwargs, result):
    return (np.atleast_2d(np.asarray(args[1])).shape[0],)


def _requested(cfg) -> int:
    """Samples a full ensemble yields; an antithetic pair is one sample."""
    m = cfg.n_paths + (cfg.n_paths % 2 if cfg.antithetic else 0)
    return m // 2 if cfg.antithetic else m


def _samples(cfg_index):
    def hook(args, kwargs, result):
        cfg = _arg(args, kwargs, cfg_index, "cfg")
        return result.n_paths, _requested(cfg)

    return hook


def _grad_samples(args, kwargs, result):
    if result.h == 0.0:  # closed-form route: nothing sampled
        return 0, 0
    cfg = _arg(args, kwargs, 4, "cfg")
    return result.n_paths, _requested(cfg)


def _pointwise(args, kwargs, result):
    return result.n_checked, result.n_domain_errors


def _cases(args, kwargs, result):
    return (len(result.cases),)


# (module, attribute, span name, work hook).  A hook maps (args, kwargs,
# result) to one or two numbers stored with the span.
TARGETS = [
    ("gammaw.field_expr", "ScalarField.value", "field_expr.value", None),
    ("gammaw.field_expr", "ScalarField.jet", "field_expr.jet", None),
    ("gammaw.field_expr", "ScalarField.diff", "field_expr.build", None),
    ("gammaw.gamma_calculus", "apply_L_symbolic", "field_expr.build", None),
    ("gammaw.gamma_calculus", "gamma_field", "field_expr.build", None),
    ("gammaw.gamma_calculus", "gamma_w_field", "field_expr.build", None),
    ("gammaw.gamma_calculus", "gamma2_w", "gamma_calculus.gamma2_w", None),
    ("gammaw.gamma_calculus", "gamma2_w_definitional", "gamma_calculus.definitional", None),
    ("gammaw._tape", "eval_values", "tape.values", _rows),
    ("gammaw._tape", "eval_values_grads", "tape.grads", _rows),
    ("gammaw.curvature_bounds", "estimate_rho", "curvature_bounds.search", None),
    ("gammaw.curvature_bounds", "estimate_gamma", "curvature_bounds.search", None),
    ("gammaw.curvature_bounds", "estimate_c", "curvature_bounds.search", None),
    ("gammaw.curvature_bounds", "check_pointwise_cd", "curvature_bounds.pointwise", _pointwise),
    ("gammaw.semigroup_mc", "GaussianNoise.normals", "semigroup_mc.noise", None),
    ("gammaw.semigroup_mc", "estimate_Qt", "semigroup_mc.estimate_Qt", _samples(4)),
    ("gammaw.semigroup_mc", "estimate_Qt_sq", "semigroup_mc.estimate_Qt_sq", _samples(4)),
    ("gammaw.semigroup_mc", "estimate_fk_term", "semigroup_mc.estimate_fk_term", _samples(5)),
    ("gammaw.semigroup_mc", "estimate_grad_Qt", "semigroup_mc.estimate_grad_Qt", _grad_samples),
    ("gammaw.semigroup_mc", "mehler_Qt", "semigroup_mc.mehler", None),
    ("gammaw.semigroup_mc", "mehler_grad_Qt", "semigroup_mc.mehler", None),
    ("gammaw.verifier", "verify_commutation", "verifier.commutation", _cases),
    ("gammaw.verifier", "verify_variance", "verifier.variance", _cases),
    ("gammaw.verifier", "verify_sqrt_commutation", "verifier.sqrt", _cases),
]
CRITERIA = (2, 3, 4, 5, 10)
ESTIMATORS = (
    "semigroup_mc.estimate_Qt",
    "semigroup_mc.estimate_Qt_sq",
    "semigroup_mc.estimate_fk_term",
    "semigroup_mc.estimate_grad_Qt",
)


class Tracer:
    """Span store: one slot per span in each flat array, in opening order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work1 = array("d")
        self.work2 = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work1.append(0.0)
        self.work2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                work = hook(args, kwargs, result)
                self.work1[idx] = float(work[0])
                if len(work) > 1:
                    self.work2[idx] = float(work[1])
            return result

        return traced

    def wrap_compile(self, fn):
        """compile_tape: a span only when the field has no cached tape."""
        nid = self._name_id("tape.compile")

        def traced(f):
            if f._tape is not None:
                return fn(f)
            idx = self._open(nid)
            try:
                tape = fn(f)
            finally:
                self._close(idx)
            self.work1[idx] = float(tape.n_registers)
            return tape

        return traced

    def instrument(self) -> None:
        """Wrap every target wherever a loaded gammaw module binds it."""
        import gammaw  # noqa: F401  (loads every module)
        from gammaw import _tape, acceptance

        modules = [m for k, m in sys.modules.items() if k == "gammaw" or k.startswith("gammaw.")]
        for mod_name, attr, span, hook in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self.wrap(span, orig, hook)
                for k, v in list(cls.__dict__.items()):
                    if v is orig:  # aliases such as ScalarField.__call__
                        setattr(cls, k, wrapped)
                continue
            orig = getattr(owner, attr)
            _rebind(modules, orig, self.wrap(span, orig, hook))
        orig = _tape.compile_tape
        _rebind(modules, orig, self.wrap_compile(orig))
        for cid in CRITERIA:
            label, fn = acceptance.CRITERIA[cid]
            wrapped = self.wrap(f"acceptance.ac{cid}", fn)
            acceptance.CRITERIA[cid] = (label, wrapped)
            _rebind(modules, fn, wrapped)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work1=np.frombuffer(self.work1),
            work2=np.frombuffer(self.work2),
        )

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        w1 = np.frombuffer(self.work1)
        w2 = np.frombuffer(self.work2)
        n = name.shape[0]

        # bit mask of the span names on each span's ancestor chain (parents
        # always precede their children)
        above = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                above[i] = above[p] | (1 << int(name[p]))

        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        def ids(names):
            return [self._ids[s] for s in names if s in self._ids]

        def select(names):
            return np.isin(name, ids(names))

        def mask(names):
            out = 0
            for i in ids(names):
                out |= 1 << i
            return out

        def under(names):
            m = mask(names)
            return np.array([(a & m) != 0 for a in above], dtype=bool)

        def outer_time(*names):
            """Time covered by the named spans, nested ones counted once."""
            sel = select(names)
            return float(dur[sel & ~under(names)].sum())

        def count(*names):
            return int(select(names).sum())

        def rate(work, seconds):
            return work / seconds if seconds > 0.0 else 0.0

        def median_per_case(span):
            sel = select([span]) & (w1 > 0)
            vals = dur[sel] / w1[sel]
            return float(statistics.median(vals)) if vals.size else 0.0

        values_sel = select(["tape.values"])
        grads_sel = select(["tape.grads"])
        in_estimator = under(ESTIMATORS)
        est_sel = select(ESTIMATORS)
        estimator_s = outer_time(*ESTIMATORS)
        path_steps = int(w1[grads_sel & in_estimator].sum())
        reported = float(w1[est_sel].sum())
        requested = float(w2[est_sel].sum())
        pw_sel = select(["curvature_bounds.pointwise"])
        compile_sel = select(["tape.compile"])
        cases_sel = select(["verifier.commutation", "verifier.variance", "verifier.sqrt"])

        out: dict[str, tuple[float, str]] = {}
        for cid in CRITERIA:
            out[f"acceptance.ac{cid}_s"] = (outer_time(f"acceptance.ac{cid}"), "s")
        out.update({
            "field_expr.build_s": (outer_time("field_expr.build"), "s"),
            "field_expr.value_calls": (count("field_expr.value"), "count"),
            "field_expr.value_s": (outer_time("field_expr.value"), "s"),
            "field_expr.jet_calls": (count("field_expr.jet"), "count"),
            "field_expr.jet_s": (outer_time("field_expr.jet"), "s"),
            "tape.compile_calls": (int(compile_sel.sum()), "count"),
            "tape.compile_s": (float(dur[compile_sel].sum()), "s"),
            "tape.registers_max": (int(w1[compile_sel].max()) if compile_sel.any() else 0, "count"),
            "tape.values_pts": (int(w1[values_sel].sum()), "count"),
            "tape.values_pts_per_s": (rate(w1[values_sel].sum(), self_time[values_sel].sum()), "1/s"),
            "tape.grads_pts": (int(w1[grads_sel].sum()), "count"),
            "tape.grads_pts_per_s": (rate(w1[grads_sel].sum(), self_time[grads_sel].sum()), "1/s"),
            "gamma_calculus.gamma2_w_calls": (count("gamma_calculus.gamma2_w"), "count"),
            "gamma_calculus.gamma2_w_s": (outer_time("gamma_calculus.gamma2_w"), "s"),
            "gamma_calculus.definitional_s": (outer_time("gamma_calculus.definitional"), "s"),
            "curvature_bounds.searches": (count("curvature_bounds.search"), "count"),
            "curvature_bounds.search_s": (outer_time("curvature_bounds.search"), "s"),
            "curvature_bounds.pointwise_pts_per_s": (rate(w1[pw_sel].sum(), dur[pw_sel].sum()), "1/s"),
            "curvature_bounds.pointwise_domain_errors": (int(w2[pw_sel].sum()), "count"),
            "semigroup_mc.path_steps": (path_steps, "count"),
            "semigroup_mc.path_steps_per_s": (rate(path_steps, estimator_s), "1/s"),
            "semigroup_mc.noise_s": (float(dur[select(["semigroup_mc.noise"]) & in_estimator].sum()), "s"),
            "semigroup_mc.drift_s": (float(dur[grads_sel & in_estimator].sum()), "s"),
            "semigroup_mc.step_rest_s": (float(self_time[est_sel].sum()), "s"),
        })
        for est in ESTIMATORS:
            out[f"{est}_s"] = (float(dur[select([est])].sum()), "s")
        out.update({
            "semigroup_mc.mehler_s": (outer_time("semigroup_mc.mehler"), "s"),
            "semigroup_mc.sample_yield": (reported / requested if requested else 0.0, "ratio"),
            "verifier.cases": (int(w1[cases_sel].sum()), "count"),
            "verifier.commutation_case_s": (median_per_case("verifier.commutation"), "s"),
            "verifier.variance_case_s": (median_per_case("verifier.variance"), "s"),
            "verifier.sqrt_case_s": (median_per_case("verifier.sqrt"), "s"),
        })
        return out


def _rebind(modules, orig, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
