"""Span tracing around the library's layer boundaries.

``Tracer.install`` replaces selected functions and methods of the
``orlicz`` layer modules with wrappers that record a span (name, start,
end, parent) and a call count per call; ``Tracer.uninstall`` puts the
originals back.  Where a module imported a wrapped function by name
(``from orlicz.spaces import luxemburg_norm``), the importing module's
binding is replaced too.  No library source changes.

Each hook maps one or more functions to a span name.  A layer's time is
the summed duration of its outermost spans (spans with no ancestor of
the same name); its self time is that duration minus the time of its
child spans.
"""

import sys
import time
import weakref
from collections import Counter

import numpy as np

_clock = time.perf_counter


def _library_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "orlicz" or n.startswith("orlicz."))]


def _eval_pre(tracer, args, kwargs):
    if tracer.open_spans["spaces.luxemburg_norm"]:
        tracer.counts["young.eval_in_norm"] += 1


def _bogovskii_field_pre(tracer, args, kwargs):
    f = args[0]
    active = int(np.count_nonzero((f.measures > 0) & (f.values != 0)))
    tracer.counts["bogovskii.targets"] += f.n_cells
    tracer.counts["bogovskii.kernel_pairs"] += f.n_cells * active


def _mollify_pre(tracer, args, kwargs):
    tracer.counts["negnorm.mollified_cells"] += args[0].n_cells


def _gram_pre(tracer, args, kwargs):
    V = args[0]
    if V in tracer.spaces:
        return
    tracer.spaces.add(V)
    nv, ns, T = V.n_velocity, V.n_scalar, V.tri.n_simplices
    tracer.counts["fem.velocity_dofs"] += nv
    # dense gradient Gram (both blocks), scalar stiffness, raw pairing
    # and pressure Gram, as float64
    tracer.counts["fem.dense_matrix_bytes"] += 8 * (
        nv * nv + ns * ns + nv * T + (T - 1) ** 2)


def _infsup_post(tracer, span, args, kwargs, result):
    if result.get("method") == "ascent":
        span[0] = "fem.ascent"
        tracer.counts["fem.ascent_ratio_evals"] += result.get("ratio_evals", 0)
    else:
        span[0] = "fem.infsup_eigen"


# (module, attribute, span name, pre-hook, post-hook, required)
# A dotted attribute names a method or property of a class.  Hooks on
# private names are optional: if a later version drops the name, the
# metric built on it reads 0 and the run names the missing hook.
HOOKS = [
    ("orlicz.young", "YoungFunction.eval", "young.eval", _eval_pre, None,
     True),
    ("orlicz.young", "YoungFunction.conjugate", "young.conjugate",
     None, None, True),
    ("orlicz.young", "_build_conj_table", "young.conjugate",
     None, None, False),
    ("orlicz.spaces", "luxemburg_norm", "spaces.luxemburg_norm",
     None, None, True),
    ("orlicz.spaces", "modular", "spaces.modular", None, None, True),
    ("orlicz.spaces", "rearrange", "spaces.rearrange", None, None, True),
    ("orlicz.bogovskii", "bogovskii_field", "bogovskii.field",
     _bogovskii_field_pre, None, True),
    ("orlicz.bogovskii", "check_rearrangement_estimate",
     "bogovskii.checks", None, None, True),
    ("orlicz.bogovskii", "check_modular_bound", "bogovskii.checks",
     None, None, True),
    ("orlicz.bogovskii", "StarDomain.mollifier_mass", "bogovskii.checks",
     None, None, True),
    ("orlicz.negnorm", "member_ratios", "negnorm.member_ratios",
     None, None, True),
    ("orlicz.negnorm", "TestFamily.pairing", "negnorm.pairing",
     None, None, True),
    ("orlicz.negnorm", "sup_approx_convergence", "negnorm.sup_approx",
     None, None, True),
    ("orlicz.negnorm", "_mollify", "negnorm.mollify", _mollify_pre, None,
     False),
    ("orlicz.fem", "FESpacePair.tables", "fem.assemble", None, None, True),
    ("orlicz.fem", "FESpacePair.A_matrix", "fem.assemble", None, None, True),
    ("orlicz.fem", "FESpacePair.araw", "fem.assemble", None, None, True),
    ("orlicz.fem", "FESpacePair.velocity_gradient_gram", "fem.assemble",
     _gram_pre, None, True),
    ("orlicz.fem", "FESpacePair.pressure_gram", "fem.assemble",
     None, None, True),
    ("orlicz.fem", "compute_infsup", "fem.infsup", None, _infsup_post, True),
    ("orlicz.fem", "assemble_pressure_system", "fem.pressure",
     None, None, True),
    ("orlicz.fem", "reconstruct_pressure", "fem.pressure", None, None, True),
    ("orlicz.fem", "pressure_error_study", "fem.pressure", None, None, True),
    ("orlicz.fem", "projection_apply", "fem.projection", None, None, True),
]


class Tracer:
    """Spans and counts for one traced round."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, child_time, outer]
        self.calls = Counter()
        self.counts = Counter()
        self.spaces = weakref.WeakSet()
        self.missing = []
        self.open_spans = Counter()   # name -> spans of it now open
        self._stack = []
        self._patches = []     # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, pre, post):
        stack = self._stack
        spans = self.spans
        opened = self.open_spans
        calls = self.calls

        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                    opened[name] == 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            opened[name] += 1
            calls[name] += 1
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                span[2] = end
                stack.pop()
                opened[name] -= 1
                if span[3] >= 0:
                    spans[span[3]][4] += end - span[1]
            if post is not None:
                post(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, pre, post, required in HOOKS:
            mod = sys.modules[modname]
            if "." in attr:
                clsname, meth = attr.split(".")
                owner = getattr(mod, clsname)
            else:
                owner, meth = mod, attr
            if meth not in owner.__dict__:
                if required:
                    self.uninstall()
                    raise AttributeError("%s has no %s" % (modname, attr))
                self.missing.append("%s.%s" % (modname, attr))
                continue
            orig = owner.__dict__[meth]
            if isinstance(orig, property):
                self._patch(owner, meth, property(
                    self._wrap(orig.fget, name, pre, post)))
                continue
            wrapped = self._wrap(orig, name, pre, post)
            # aliases in the same namespace (YoungFunction.__call__ = eval)
            for key, val in list(owner.__dict__.items()):
                if val is orig:
                    self._patch(owner, key, wrapped)
            if owner is mod:
                # names bound by "from orlicz.x import f" elsewhere
                for other in _library_modules():
                    if other is mod:
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def installed():
        """True if any orlicz module still holds a traced wrapper."""
        for mod in _library_modules():
            for val in list(vars(mod).values()):
                found = list(vars(val).values()) if isinstance(val, type) \
                    else [val]
                for v in found:
                    if isinstance(v, property):
                        v = v.fget
                    if hasattr(v, "span_name"):
                        return True
        return False

    # -- summaries -----------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of the traced round, as (value, unit)."""
        total = Counter()     # outermost duration per span name
        own = Counter()       # self time per span name
        for name, start, end, _, child, outer in self.spans:
            dur = end - start
            own[name] += dur - child
            if outer:
                total[name] += dur
        calls, counts = self.calls, self.counts

        def rate(num, den):
            return num / den if den > 0 else 0.0

        field_s = total["bogovskii.field"]
        return {
            "young.eval_calls": (calls["young.eval"], "count"),
            "young.eval_s": (own["young.eval"], "s"),
            "young.conjugate_build_s": (total["young.conjugate"], "s"),
            "spaces.luxemburg_calls": (calls["spaces.luxemburg_norm"],
                                       "count"),
            "spaces.luxemburg_self_s": (own["spaces.luxemburg_norm"], "s"),
            "spaces.evals_per_norm": (
                rate(counts["young.eval_in_norm"],
                     calls["spaces.luxemburg_norm"]), "count"),
            "bogovskii.field_s": (field_s, "s"),
            "bogovskii.targets_per_s": (
                rate(counts["bogovskii.targets"], field_s), "1/s"),
            "bogovskii.kernel_pairs": (counts["bogovskii.kernel_pairs"],
                                       "count"),
            "bogovskii.kernel_pairs_per_s": (
                rate(counts["bogovskii.kernel_pairs"], field_s), "1/s"),
            "bogovskii.checks_s": (total["bogovskii.checks"], "s"),
            "negnorm.member_ratios_s": (total["negnorm.member_ratios"], "s"),
            "negnorm.pairings": (calls["negnorm.pairing"], "count"),
            "negnorm.supapprox_s": (total["negnorm.sup_approx"], "s"),
            "negnorm.mollified_cells_per_s": (
                rate(counts["negnorm.mollified_cells"],
                     total["negnorm.mollify"]), "1/s"),
            "fem.assemble_s": (total["fem.assemble"], "s"),
            "fem.infsup_eigen_s": (total["fem.infsup_eigen"], "s"),
            "fem.pressure_s": (total["fem.pressure"], "s"),
            "fem.projection_s": (total["fem.projection"], "s"),
            "fem.ascent_s": (total["fem.ascent"], "s"),
            "fem.ascent_ratio_evals": (counts["fem.ascent_ratio_evals"],
                                       "count"),
            "fem.velocity_dofs": (counts["fem.velocity_dofs"], "count"),
            "fem.dense_matrix_bytes": (counts["fem.dense_matrix_bytes"], "B"),
        }

    def span_table(self):
        """Spans as [name, start, end, parent] rows, for the run file."""
        return [[s[0], s[1], s[2], s[3]] for s in self.spans]
