"""Per-layer tracing of charp, done entirely from outside the package.

The tracer replaces selected functions and methods of the charp modules with
timing wrappers.  The modules import each other's functions by name (for
example ``recurrence`` binds ``multinomial_residue`` and ``degree_solutions``,
``criterion`` and ``cli`` bind ``b_coeffs`` and ``run_certified``), so a
module-level function is replaced in every charp module that binds it, not
only in the one that defines it.

Each wrapper counts calls and self time: its duration minus the time spent
in wrapped functions it calls.  Coarse calls also leave a span (job, id,
parent id, name, start, end); leaf operations that run millions of times
(residues, coefficient products and sums) only keep aggregates in memory.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter

# (module, function) pairs traced in every module that binds them, and
# (module, class, method) triples traced on the class.  Layers whose metric
# is their total self time (criterion, lemma_lab) trace every public
# module-level function they define.
FUNCTIONS = [
    ("cli", "main"),
    ("recurrence", "b_coeffs"),
    ("recurrence", "run_certified"),
    ("combinat", "multinomial_residue"),
    ("combinat", "degree_solutions"),
]
METHODS = [
    ("recurrence", "LevelTable", "phi"),
    ("recurrence", "LevelTable", "psi"),
    ("recurrence", "LevelTable", "numerator"),
    ("recurrence", "LevelTable", "escalate"),
    ("recurrence", "LevelTable", "__init__"),
    ("field", "LaurentElement", "__add__"),
    ("field", "LaurentElement", "__mul__"),
    ("field", "LaurentElement", "inverse"),
    ("field", "Multiplier", "pow"),
]
WHOLE_LAYERS = ("criterion", "lemma_lab")
MODULES = ("field", "combinat", "recurrence", "criterion", "lemma_lab", "cli")

# aggregated only, never a span
LEAVES = {
    "recurrence.LevelTable.numerator",
    "combinat.multinomial_residue",
    "combinat.degree_solutions",
    "field.LaurentElement.__add__",
    "field.LaurentElement.__mul__",
    "field.LaurentElement.inverse",
    "field.Multiplier.pow",
}


class Tracer:
    """Wrappers, aggregates and spans of one traced process."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts = {
            "numerator_zero": 0,
            "residue_nonzero": 0,
            "solutions": 0,
            "coeff_ops": 0,
            "escalations": 0,
            "max_window": 0,
            "cases": 0,
            "mk_point_distinct": 0,
        }
        self.spans: list[tuple] = []
        self._child = []  # per open call: seconds spent in wrapped callees
        self._open = []  # ids of open spans
        self._mk_keys: set = set()
        self._restore: list[tuple] = []

    # -- jobs -----------------------------------------------------------------

    def start_job(self, job: int):
        self.job = job
        self.on = True

    def end_job(self):
        self.on = False
        self.counts["mk_point_distinct"] += len(self._mk_keys)
        self._mk_keys.clear()  # drops the tables the keys hold

    # -- patching -------------------------------------------------------------

    def install(self, charp):
        """Wrap the traced functions of an imported charp package."""
        mods = {name: getattr(charp, name) for name in MODULES}
        homes = [charp] + list(mods.values())
        targets = [(mods[m], fn) for m, fn in FUNCTIONS]
        for layer in WHOLE_LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    targets.append((mod, name))
        for mod, fn_name in targets:
            original = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod.__name__.split('.')[-1]}.{fn_name}", original)
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is original:
                        self._restore.append((home, attr, original))
                        setattr(home, attr, wrapper)
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{m}.{cls_name}.{meth}", original))

    def uninstall(self):
        for home, attr, original in reversed(self._restore):
            setattr(home, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0])
        child = self._child
        opened = self._open
        spans = self.spans
        post = self._post_hooks().get(name)
        span = name not in LEAVES
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = opened[-1] if opened else -1
                opened.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt - child.pop()
                if child:
                    child[-1] += dt
                if span:
                    opened.pop()
                    spans[sid] = (tracer.job, sid, parent, name, t0, t1)
            if post is not None:
                post(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _post_hooks(self):
        c = self.counts

        def numerator(args, kwargs, out):
            if out.is_exact_zero():
                c["numerator_zero"] += 1

        def residue(args, kwargs, out):
            if out:
                c["residue_nonzero"] += 1

        def solutions(args, kwargs, out):
            c["solutions"] += len(out)

        def mul(args, kwargs, out):
            c["coeff_ops"] += len(args[0].coeffs) * len(getattr(args[1], "coeffs", ()))

        def table_window(args, kwargs, out):
            c["max_window"] = max(c["max_window"], args[0].window)

        def escalate(args, kwargs, out):
            c["escalations"] += 1
            table_window(args, kwargs, out)

        def suite(args, kwargs, out):
            c["cases"] += len(out.cases)

        def mk_point(args, kwargs, out):
            f, k, r, s = args[:4]
            table = args[4] if len(args) > 4 else kwargs.get("table")
            self._mk_keys.add((table if table is not None else f.table(), k, r, s))

        return {
            "recurrence.LevelTable.numerator": numerator,
            "combinat.multinomial_residue": residue,
            "combinat.degree_solutions": solutions,
            "field.LaurentElement.__mul__": mul,
            "recurrence.LevelTable.__init__": table_window,
            "recurrence.LevelTable.escalate": escalate,
            "lemma_lab.run_suite": suite,
            "criterion.Mk_point": mk_point,
        }

    # -- results --------------------------------------------------------------

    def _calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def _self(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def _layer_self(self, layer):
        return sum(v[1] for k, v in self.stats.items() if k.startswith(layer + "."))

    def metrics(self) -> dict:
        """The per-layer metrics, as name -> (value, unit)."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        mk = self._calls("criterion.Mk_point")
        num = self._calls("recurrence.LevelTable.numerator")
        res = self._calls("combinat.multinomial_residue")
        return {
            "cli.main.calls": (self._calls("cli.main"), "count"),
            "cli.main.self_s": (self._self("cli.main"), "s"),
            "criterion.verdict.calls": (self._calls("criterion.verdict"), "count"),
            "criterion.self_s": (self._layer_self("criterion"), "s"),
            "criterion.mk_point.calls": (mk, "count"),
            "criterion.mk_point.repeat_ratio": (ratio(mk, c["mk_point_distinct"]), "ratio"),
            "recurrence.phi.calls": (self._calls("recurrence.LevelTable.phi"), "count"),
            "recurrence.phi.self_s": (self._self("recurrence.LevelTable.phi"), "s"),
            "recurrence.numerator.calls": (num, "count"),
            "recurrence.numerator.self_s": (self._self("recurrence.LevelTable.numerator"), "s"),
            "recurrence.numerator.zero_ratio": (ratio(c["numerator_zero"], num), "ratio"),
            "recurrence.psi.calls": (self._calls("recurrence.LevelTable.psi"), "count"),
            "recurrence.b_coeffs.self_s": (self._self("recurrence.b_coeffs"), "s"),
            "recurrence.escalations": (c["escalations"], "count"),
            "recurrence.max_window": (c["max_window"], "coeffs"),
            "combinat.residue.calls": (res, "count"),
            "combinat.residue.self_s": (self._self("combinat.multinomial_residue"), "s"),
            "combinat.residue.nonzero_ratio": (ratio(c["residue_nonzero"], res), "ratio"),
            "combinat.degree_solutions.calls": (self._calls("combinat.degree_solutions"), "count"),
            "combinat.degree_solutions.solutions": (c["solutions"], "count"),
            "combinat.degree_solutions.self_s": (self._self("combinat.degree_solutions"), "s"),
            "field.mul.calls": (self._calls("field.LaurentElement.__mul__"), "count"),
            "field.mul.self_s": (self._self("field.LaurentElement.__mul__"), "s"),
            "field.mul.coeff_ops": (c["coeff_ops"], "count"),
            "field.add.calls": (self._calls("field.LaurentElement.__add__"), "count"),
            "field.add.self_s": (self._self("field.LaurentElement.__add__"), "s"),
            "field.inverse.calls": (self._calls("field.LaurentElement.inverse"), "count"),
            "field.inverse.self_s": (self._self("field.LaurentElement.inverse"), "s"),
            "field.lambda_pow.calls": (self._calls("field.Multiplier.pow"), "count"),
            "field.lambda_pow.self_s": (self._self("field.Multiplier.pow"), "s"),
            "lemma_lab.cases": (c["cases"], "count"),
            "lemma_lab.self_s": (self._layer_self("lemma_lab"), "s"),
        }

    def dump(self, path):
        """Write the spans and aggregates out (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["job", "id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "aggregates": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.stats.items()},
                    "counts": self.counts,
                },
                fh,
            )
