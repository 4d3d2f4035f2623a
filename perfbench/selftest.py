"""Self-test of the benchmark itself, in a few seconds.

    python3 perfbench/selftest.py

Checks that input generation is deterministic per seed, that perturbed
outputs and a raising input are counted as failures, and that
the traced and counted passes put back every name they wrapped.  Exits
nonzero if any check fails.
"""

import sys

import run
import tracing
from workloads import WORKLOADS

SECONDS = 6  # seconds of one pass


def generation_is_deterministic():
    for w in WORKLOADS.values():
        if w.generate(1, SECONDS) != w.generate(1, SECONDS):
            return False
        if w.generate(1, SECONDS) == w.generate(2, SECONDS):
            return False
    return True


def _small_link(links):
    """The first two-strand link input: a tenth of a second to evaluate."""
    return [i for i in links.generate(0, SECONDS)
            if i.get("text", "").startswith("braid[2]")][:1]


def perturbed_outputs_fail():
    """A perturbed output and a raising input each count as a failure."""
    links = WORKLOADS["rational-links"]
    items = _small_link(links)
    _s, api, systems = run.import_and_setup(links)
    _w, results = run.run_pass(links, api, systems, items)
    attempted, failures = run.check_outputs(links, api, systems, items,
                                            results)
    ok = attempted == 2 and not failures
    raw, enc = results[0]
    raw = dict(raw, pair_gl11=raw["pair_gl11"] + raw["pair_gl11"].ring.one)
    _a, failures = run.check_outputs(links, api, systems, items, [(raw, enc)])
    ok = ok and failures == ["item 0 two_path_gl11"]
    attempted, failures = run.check_outputs(links, api, systems, items,
                                            [None])
    return ok and attempted == 1 and failures == ["item 0 raised"]


def perturbed_lg_fails():
    """A Links-Gould series with h^2 moved off the Conway line fails."""
    knots = WORKLOADS["lg-knots"]
    items = knots.generate(0, SECONDS)[:1]  # a trefoil: two seconds
    _s, api, systems = run.import_and_setup(knots)
    _w, results = run.run_pass(knots, api, systems, items)
    _a, failures = run.check_outputs(knots, api, systems, items, results)
    ok = not failures
    raw, enc = results[0]
    c = list(raw.c)
    c[2] = c[2] + api.scalars.alpha()
    raw = api.scalars.HSeries(raw.ring, c)
    _a, failures = run.check_outputs(knots, api, systems, items, [(raw, enc)])
    return ok and failures == ["item 0 h2_is_conway"]


def _bindings(api):
    """Every module global, table entry and traced class attribute."""
    out = []
    for mod in run.package_modules(api):
        for key, value in vars(mod).items():
            out.append((mod, key, value))
            if isinstance(value, dict) and not key.startswith("__"):
                out.extend((value, k, v) for k, v in value.items())
    for layer, methods in tracing.TRACED_METHODS.items():
        for cname, mname in methods:
            cls = getattr(getattr(api, layer), cname)
            out.append((cls, mname, vars(cls)[mname]))
    for layer, cname, mname, _c in tracing.COUNTED:
        cls = getattr(getattr(api, layer), cname)
        out.append((cls, mname, vars(cls)[mname]))
    return out


def _current(container, key):
    return container[key] if isinstance(container, dict) \
        else vars(container)[key]


def wrapped_names_restored():
    links = WORKLOADS["rational-links"]
    items = _small_link(links)
    api = run.fresh_import()
    before = _bindings(api)
    tracer = tracing.Tracer(api, run.package_modules(api))
    tracer.install()
    counter = tracing.Counter(api)
    counter.install()
    try:
        wrapped = [(c, k) for c, k, v in before if _current(c, k) is not v]
        # the same function is wrapped under every importing name
        seen = {(getattr(c, "__name__", ""), k) for c, k in wrapped}
        ok = {("superchord.kontsevich", "canonical_form"),
              ("superchord.verify", "wlg"),
              ("superchord.verify", "verify_fourterm")} <= seen
        ok = ok and any(isinstance(c, dict) for c, _k in wrapped)
        ok = ok and any(k == "__init__" for _c, k in wrapped)
        systems = links.setup(api)
        run.run_pass(links, api, systems, items, tracer)
        ok = ok and len(tracer.spans) > 0
    finally:
        leftover = counter.restore() + tracer.restore()
    return ok and not leftover and all(
        _current(c, k) is v for c, k, v in before)


def main():
    if not (run.SRC / run.PACKAGE / "__init__.py").is_file():
        print("no %s package under %s" % (run.PACKAGE, run.SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for check in (generation_is_deterministic, perturbed_outputs_fail,
                  perturbed_lg_fails, wrapped_names_restored):
        ok = bool(check())
        failed += not ok
        print("%s %s" % ("ok  " if ok else "FAIL", check.__name__))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
