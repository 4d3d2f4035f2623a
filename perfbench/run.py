"""Benchmark of superchord: one workload, one seed, one JSON result line.

python3 perfbench/run.py --workload lg-knots --seed 0 --seconds 21 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  Everything runs in this one single-threaded process.

``--trace 0`` imports the package and builds the set-up (associator,
gl(m|n) systems, Links-Gould data, hump factor) ``SETUP_REPEATS`` times,
each time from a fresh import, and reports the median as ``setup_s``.
After each of the last ``passes`` set-ups (a workload attribute) it
evaluates every generated input once, untraced, timing each input.
``wall_s`` is the seconds of one pass: the sum over inputs of each
input's median over the passes, which keeps a burst of load from
another process out of the figure.
Both are seconds at a reference machine speed (``reference.py``): each
timed interval is scaled by the time of a fixed kernel sampled during
it, which takes out the drift in speed of a shared host.
Inputs are sized so that the passes together take about ``--seconds``.
``peak_rss_mb`` is the peak resident memory of the whole run.

``--trace 1`` makes three passes over the same inputs, each after a fresh
import so that no cache carries results from one pass to the next: an
untraced pass, a pass with spans around the public functions of every
layer (set-up included), and a pass counting scalar constructions and
gcd calls, which would double the cost of the span pass.  It reports
the per-layer metrics, in plain unscaled seconds, and writes the spans
to ``perfbench/results/``.

Outputs are checked outside the timed region by exact equality; the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``failed / attempted`` is the fail ratio: failed checks plus inputs
whose evaluation raised, over checks attempted.  For a seed recorded in
``digests.json`` the canonical JSON of all outputs must also match.
"""

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

import reference
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "superchord"
MODULES = ("scalars", "supergraded", "associator", "words", "diagrams",
           "liesuper", "weightsys", "kontsevich", "ribbon", "jsonio",
           "verify", "conway", "cli")
SETUP_REPEATS = 5
# per-layer metric -> span whose outermost calls it times, or counts
INCLUSIVE_S = {
    "associator.build_s": "associator.build_associator",
    "words.parse_s": "words.parse_word",
    "diagrams.canonical_form_s": "diagrams.canonical_form",
    "diagrams.relators_s": "diagrams.four_term_relators",
    "liesuper.rep_combine_s": "liesuper.rep_combine",
    "kontsevich.z_eval_s": "kontsevich.z_eval",
    "kontsevich.pair_s": "kontsevich.pair",
    "kontsevich.hump_s": "kontsevich.hump_factor",
    "kontsevich.wz_eval_s": "kontsevich.wz_eval",
    "kontsevich.defect_s": "kontsevich.vassiliev_defect",
    "ribbon.rt_s": "ribbon.rt_invariant",
}
CALLS = {
    "diagrams.canonical_form_calls": "diagrams.canonical_form",
    "diagrams.slit_calls": "diagrams.slit_component",
    "liesuper.rep_combine_calls": "liesuper.rep_combine",
}
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"


def fresh_import():
    """Drop every loaded package module and import them all again."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES})


def package_modules(api):
    return [sys.modules[PACKAGE]] + list(vars(api).values())


class RawClock:
    """Plain seconds, with the interface of ``reference.Sampler``."""

    def start(self):
        return perf_counter()

    def stop(self, mark):
        return perf_counter() - mark


def import_and_setup(workload, clock=RawClock()):
    mark = clock.start()
    api = fresh_import()
    systems = workload.setup(api)
    return clock.stop(mark), api, systems


def run_pass(workload, api, systems, items, tracer=None, clock=RawClock()):
    """Evaluate every input once: ([seconds], [(raw, json) or None])."""
    times, results = [], []
    for i, item in enumerate(items):
        mark = clock.start()
        try:
            if tracer is None:
                results.append(workload.evaluate(api, systems, item))
            else:
                tracer.item = i
                evaluate = tracer.wrap(workload.span_name(item),
                                       workload.evaluate)
                results.append(evaluate(api, systems, item))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(None)
        times.append(clock.stop(mark))
    return times, results


def digest(results):
    enc = [None if r is None else r[1] for r in results]
    text = json.dumps(enc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(workload, api, systems, items, results):
    """(attempted, [failure descriptions]); a raised input is one failure."""
    attempted = 0
    failures = []
    for i, (item, res) in enumerate(zip(items, results)):
        if res is None:
            attempted += 1
            failures.append("item %d raised" % i)
            continue
        try:
            checks = workload.check(api, systems, item, res[0])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks = [("check raised", False)]
        for name, ok in checks:
            attempted += 1
            if not ok:
                failures.append("item %d %s" % (i, name))
    return attempted, failures


def recorded_digest(workload, seed, seconds):
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get(workload.name, {}).get("%d@%d" % (seed, seconds))


def declared(kind):
    """name -> unit of the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced(workload, items):
    setups, passes, digests = [], [], set()
    with reference.Sampler() as clock:
        for k in range(SETUP_REPEATS):
            seconds, api, systems = import_and_setup(workload, clock)
            setups.append(seconds)
            if k < SETUP_REPEATS - workload.passes:
                continue
            times, results = run_pass(workload, api, systems, items,
                                      clock=clock)
            passes.append(times)
            digests.add(digest(results))
            if len(passes) == 1:
                attempted, failures = check_outputs(workload, api, systems,
                                                    items, results)
    attempted += 1
    if len(digests) != 1:
        failures.append("passes disagree")
    wall = sum(statistics.median(t) for t in zip(*passes))
    values = {"wall_s": wall, "setup_s": statistics.median(setups)}
    return values, results, attempted, failures


def traced(workload, items, seed):
    _s, api, systems = import_and_setup(workload)
    times, results = run_pass(workload, api, systems, items)
    wall = sum(times)
    attempted, failures = check_outputs(workload, api, systems, items,
                                        results)
    widths = [workload.width(api, item) for item in items]

    api = fresh_import()
    tracer = tracing.Tracer(api, package_modules(api))
    tracer.install()
    try:
        systems = workload.setup(api)
        times, results_traced = run_pass(workload, api, systems, items,
                                         tracer)
        wall_traced = sum(times)
    finally:
        leftover = tracer.restore()
    weight_calls, weight_classes = tracing.weight_classes(
        tracer, api.diagrams.canonical_form)

    api = fresh_import()
    counter = tracing.Counter(api)
    counter.install()
    try:
        systems = workload.setup(api)
        counter.reset()
        _w, results_counted = run_pass(workload, api, systems, items)
    finally:
        leftover += counter.restore()

    plain = digest(results)
    for name, ok in (("traced outputs differ",
                      digest(results_traced) == plain),
                     ("counted outputs differ",
                      digest(results_counted) == plain),
                     ("wrapped names not restored", not leftover)):
        attempted += 1
        if not ok:
            failures.append(name)

    spans = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("trace-%s-seed%d.json" % (workload.name, seed))
    t0 = spans[0][1] if spans else 0.0
    out.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "fields": ["name", "start", "end", "parent", "item"],
        "spans": [[n, s - t0, e - t0, p, i] for n, s, e, p, i in spans]}))

    inclusive, layer_inclusive, self_time, calls = tracing.summarize(spans)
    values = dict(counter.counts)
    values.update({m: inclusive.get(n, 0.0) for m, n in INCLUSIVE_S.items()})
    values.update({m: calls.get(n, 0) for m, n in CALLS.items()})
    values.update({
        "words.max_width": max(widths),
        "weightsys.calls": weight_calls,
        "weightsys.distinct_classes": weight_classes,
        "weightsys.repeat_ratio": (1 - weight_classes / weight_calls
                                   if weight_calls else 0.0),
        "kontsevich.z_terms": tracer.z_terms,
        "jsonio.encode_s": layer_inclusive.get("jsonio", 0.0),
        "trace.untraced_wall_s": wall,
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall,
        "trace.spans": len(spans),
    })
    for suite in api.verify.SUITES:
        values["verify.%s_s" % suite] = inclusive.get("verify." + suite, 0.0)
    for layer in list(tracing.TRACED) + ["verify"]:
        values["%s.self_s" % layer] = self_time.get(layer, 0.0)
    return values, results, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=21)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    items = workload.generate(args.seed, args.seconds / workload.passes)
    if args.trace:
        values, results, attempted, failures = traced(workload, items,
                                                      args.seed)
        units = declared("per_layer")
    else:
        values, results, attempted, failures = untraced(workload, items)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        units = declared("end_to_end")

    found = digest(results)
    expect = recorded_digest(workload, args.seed, args.seconds)
    if expect is not None:
        attempted += 1
        if found != expect:
            failures.append("digest differs from the recorded one")
    for line in failures:
        print("FAIL %s" % line)
    print("workload %s seed %d items %d digest %s (%s)"
          % (workload.name, args.seed, len(items), found,
             "unrecorded" if expect is None else
             "matches record" if found == expect else "differs from record"))
    print("fail_ratio %d/%d = %.6f"
          % (len(failures), attempted, len(failures) / attempted))
    missing = sorted(set(units) - set(values))
    if missing:
        print("metrics not computed: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
