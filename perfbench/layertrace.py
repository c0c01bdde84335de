"""Outside-in layer trace of the propalg package.

The tracer wraps every public function of every propalg module from the
outside: it rebinds the function's name in each propalg namespace that
holds it (``from .coefficients import ...`` makes several), so calls made
through any module go through one wrapper.  Each wrapped call is a span
(name, start, end, parent span, op); spans are kept in memory and written
out when the traced process ends.  ``GroupRingElt.__mul__`` and
``__add__`` run millions of times in the group-ring layer, so they are
counted but get no span.  The solver closure that ``snf_solver`` returns
is wrapped too, so per-vector solves show up as their own span.

Nothing under ``src/propalg`` is edited: ``uninstall`` puts every original
attribute back, and ``leftover_wrappers`` is the check that it did.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "propalg"
MODULES = ("coefficients", "chains", "torsion", "simplicial_products",
           "duality_verifier", "endtowers", "tree_modules", "corpus")
# (module, class, method, metric name): counted, never timed
COUNTED_METHODS = (("coefficients", "GroupRingElt", "__mul__", "coefficients.GroupRingElt.mul.calls"),
                   ("coefficients", "GroupRingElt", "__add__", "coefficients.GroupRingElt.add.calls"))
SOLVE_SPAN = "coefficients.snf_solver.solve"
CONTRACTION_SPAN = "chains.find_contraction"
# counters computed from call arguments and return values, all start at 0
COUNTERS = ("coefficients.smith_normal_form.entries", "coefficients.smith_normal_form.max_side",
            "coefficients.ring_det.max_n", "coefficients.ring_det.bird_steps",
            "coefficients.ring_solve.none", "coefficients.ring_solve.laurent_calls",
            "coefficients.ring_solve_multi.none", "chains.find_contraction.solves",
            "chains.find_contraction.solve_hits", "simplicial_products.boundary_complex.cells")
MARK = "_perfbench_wrapped"


def package_modules():
    """The imported propalg modules, package namespace included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions():
    """{original function: span name} for every public module-level function."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{short}.{name}"
    return out


def leftover_wrappers():
    """Names in propalg namespaces that still hold a tracer wrapper."""
    bad = []
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                bad.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                bad += [f"{mod.__name__}.{name}.{a}" for a, v in vars(obj).items()
                        if getattr(v, MARK, False)]
    return bad


class Tracer:
    """Span recorder for one traced process; a context manager."""

    def __init__(self, workload: str):
        self.workload = workload
        self.op = "setup"
        self.spans = []          # (id, name, start, end, parent id or None, op)
        self.stats = {}          # span name -> [calls, self_s, inclusive_s]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []         # [span id, name, child time] per open span
        self._patched = []       # (namespace owner, attribute, original)
        self._hooks = {
            "coefficients.smith_normal_form": self._after_snf,
            "coefficients.snf_solver": self._after_snf_solver,
            "coefficients.ring_det": self._after_ring_det,
            "coefficients.ring_solve": self._after_ring_solve,
            "coefficients.ring_solve_multi": self._after_ring_solve_multi,
            "simplicial_products.boundary_complex": self._after_boundary_complex,
        }

    # -- installation --------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        originals = public_functions()
        wrappers = {fn: self._span_wrapper(name, fn) for fn, name in originals.items()}
        self.stats.setdefault(SOLVE_SPAN, [0, 0.0, 0.0])
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, meth, metric in COUNTED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            orig = vars(cls)[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(metric, orig))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans
        stack = self._stack
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                stats[0] += 1
                stats[1] += dur - frame[2]
                stats[2] += dur
                spans.append((sid, name, start, end, parent, tracer.op))
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(bound.arguments, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, metric, fn):
        counts = self.counts
        counts[metric] = 0

        def wrapper(*args):
            counts[metric] += 1
            return fn(*args)

        setattr(wrapper, MARK, True)
        return wrapper

    def _add(self, metric, value):
        self.counts[metric] += value

    def _max(self, metric, value):
        self.counts[metric] = max(self.counts[metric], value)

    # -- counters computed from arguments and results ----------------

    def _after_snf(self, a, result):
        mat, r, c = a["mat"], a["nrows"], a["ncols"]
        r = len(mat) if r is None else r
        c = (len(mat[0]) if mat else 0) if c is None else c
        self._add("coefficients.smith_normal_form.entries", r * c)
        self._max("coefficients.smith_normal_form.max_side", max(r, c))
        return result

    def _after_snf_solver(self, a, result):
        return self._span_wrapper(SOLVE_SPAN, result)

    def _after_ring_det(self, a, result):
        ring, n = a["ring"], a["n"]
        n = len(a["A"]) if n is None else n
        self._max("coefficients.ring_det.max_n", n)
        if ring.kind != "trivial" and n > 0:
            self._add("coefficients.ring_det.bird_steps", n - 1)
        return result

    def _after_ring_solve(self, a, result):
        self._add("coefficients.ring_solve.none", result is None)
        if a["ring"].kind == "infinite-cyclic":
            self._add("coefficients.ring_solve.laurent_calls", 1)
        return self._after_solve(result)

    def _after_ring_solve_multi(self, a, result):
        self._add("coefficients.ring_solve_multi.none", result is None)
        return self._after_solve(result)

    def _after_solve(self, result):
        # only solves that find_contraction asks for itself; the span just
        # closed, so the top of the stack is its caller
        if self._stack and self._stack[-1][1] == CONTRACTION_SPAN:
            self._add("chains.find_contraction.solves", 1)
            self._add("chains.find_contraction.solve_hits", result is not None)
        return result

    def _after_boundary_complex(self, a, result):
        self._add("simplicial_products.boundary_complex.cells", result.total_rank())
        return result

    # -- output --------------------------------------------------------

    def write_spans(self, path, meta):
        """JSON lines: one meta record, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, workload=self.workload)) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload,
                                     "op": op}) + "\n")
