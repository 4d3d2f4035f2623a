"""Spans and counters around the package's public functions.

The tracer replaces a public function under every name that points at
it: module globals in each package module (``kontsevich.canonical_form``
and ``verify.wlg`` are the same function as ``diagrams.canonical_form``
and ``weightsys.wlg``), function tables such as ``verify.SUITES``, and
class attributes for methods.  ``restore`` puts every original back.

A span is ``[name, start, end, parent, item]``: parent is the index of
the enclosing span (-1 at top level) and item is the input being
evaluated (-1 during set-up), so spans of one input share an id.  Spans
stay in memory until the run writes them out.
"""

import functools
from time import perf_counter

# layer -> public functions traced under "<layer>.<function>"
TRACED = {
    "words": ("parse_word",),
    "associator": ("build_associator", "associator_checks"),
    "diagrams": ("canonical_form", "four_term_relators", "slit_component",
                 "enumerate_diagrams", "random_diagram", "cable_diagram"),
    "liesuper": ("rep_combine", "build_gl", "standard_rep",
                 "casimir_tensor"),
    "weightsys": ("ws_link", "ws_tangle11", "wlg", "lg_data",
                  "scalar_of_endo"),
    "kontsevich": ("z_eval", "wz_eval", "hump_factor", "paired_invariant",
                   "lg_invariant", "vassiliev_defect"),
    "ribbon": ("rt_invariant", "ribbon_checks"),
    "jsonio": ("series_to_json", "scalar_to_json", "zvalue_to_json"),
}
TRACED_METHODS = {"kontsevich": (("ZValue", "pair"),)}
# weight calls; the first two arguments after the diagram name the system
WEIGHT_CALLS = ("weightsys.ws_link", "weightsys.ws_tangle11",
                "weightsys.wlg")
# (layer, class, method, counter) for the counted pass
COUNTED = (("scalars", "AlphaScalar", "__init__", "alpha_new"),
           ("scalars", "Poly", "gcd", "poly_gcd"))


class Patches:
    """Replacements that remember what they replaced."""

    def __init__(self):
        self._undo = []

    @staticmethod
    def _get(container, key):
        if isinstance(container, dict):
            return container[key]
        return vars(container)[key]

    @staticmethod
    def _set(container, key, value):
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def replace(self, container, key, value):
        self._undo.append((container, key, self._get(container, key)))
        self._set(container, key, value)

    def replace_everywhere(self, modules, original, value):
        """Swap every module global and table entry bound to original."""
        for mod in modules:
            for key, v in list(vars(mod).items()):
                if v is original:
                    self.replace(mod, key, value)
                elif isinstance(v, dict) and not key.startswith("__"):
                    for k, entry in list(v.items()):
                        if entry is original:
                            self.replace(v, k, value)

    def restore(self):
        """Put every original back; return entries still not original."""
        undo = list(self._undo)
        while self._undo:
            container, key, old = self._undo.pop()
            self._set(container, key, old)
        return [(c, k) for c, k, old in undo if self._get(c, k) is not old]


class Tracer:
    """Span recorder over a freshly imported package namespace."""

    def __init__(self, api, modules):
        self.api = api
        self.modules = modules
        self.spans = []
        self.stack = []
        self.item = -1
        self.weight_args = {}   # span index -> (diagram, system key)
        self.z_terms = 0
        self.patches = Patches()

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        weight = name in WEIGHT_CALLS
        z_eval = name == "kontsevich.z_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.item])
            if weight:
                self.weight_args[idx] = (args[0], tuple(
                    id(a) for a in args[1:]))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if z_eval:
                self.z_terms += len(out.terms)
            return out

        return traced

    def install(self):
        modules = self.modules
        for layer, names in TRACED.items():
            mod = getattr(self.api, layer)
            for fname in names:
                fn = getattr(mod, fname)
                self.patches.replace_everywhere(
                    modules, fn, self.wrap("%s.%s" % (layer, fname), fn))
        for layer, methods in TRACED_METHODS.items():
            mod = getattr(self.api, layer)
            for cname, mname in methods:
                cls = getattr(mod, cname)
                self.patches.replace(cls, mname, self.wrap(
                    "%s.%s" % (layer, mname), vars(cls)[mname]))
        suites = self.api.verify.SUITES
        for sname, fn in list(suites.items()):
            self.patches.replace_everywhere(
                modules, fn, self.wrap("verify.%s" % sname, fn))

    def restore(self):
        return self.patches.restore()


class Counter:
    """Call counts of scalar constructors, without spans."""

    def __init__(self, api):
        self.api = api
        self.counts = {"%s.%s" % (layer, c): 0
                       for layer, _cls, _m, c in COUNTED}
        self.patches = Patches()

    def install(self):
        counts = self.counts
        for layer, cname, mname, cnt in COUNTED:
            cls = getattr(getattr(self.api, layer), cname)
            fn = vars(cls)[mname]
            key = "%s.%s" % (layer, cnt)

            def counted(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            self.patches.replace(cls, mname, counted)

    def reset(self):
        for key in self.counts:
            self.counts[key] = 0

    def restore(self):
        return self.patches.restore()


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def summarize(spans):
    """Inclusive time per name and per layer, counting only outermost
    spans of that name or layer; self time per layer; calls per name."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _item in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, layer_inclusive, self_time, calls = {}, {}, {}, {}
    for idx, (name, start, end, _parent, _item) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur - child[idx]
        calls[name] = calls.get(name, 0) + 1
        above = [spans[a][0] for a in _ancestors(spans, idx)]
        if name not in above:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        if not any(n.split(".", 1)[0] == layer for n in above):
            layer_inclusive[layer] = layer_inclusive.get(layer, 0.0) + dur
    return inclusive, layer_inclusive, self_time, calls


def weight_classes(tracer, canonical_form):
    """(outermost weight calls, distinct (function, system, class) keys)."""
    spans = tracer.spans
    keys = set()
    calls = 0
    for idx, (diagram, system) in tracer.weight_args.items():
        if any(spans[a][0].startswith("weightsys.")
               for a in _ancestors(spans, idx)):
            continue
        calls += 1
        keys.add((spans[idx][0], system, canonical_form(diagram)))
    return calls, len(keys)
