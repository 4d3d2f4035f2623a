"""Seeded workloads of the superchord benchmark.

Each workload turns a seed into inputs (word text and small parameters,
never library objects), builds what the timed calls would otherwise
build lazily, evaluates one input through the public API, and checks
the outputs by exact equality.  Every call into the library goes
through the module namespace handed in as ``api``, so a freshly
imported package, or one whose names the tracer has wrapped, is the one
that runs.

Inputs follow a fixed schedule of shapes repeated to the item count, and
the seed picks the letters within each shape.  Input cost depends
mostly on the shape, so a pass costs about the same on every seed while
its words differ.
"""

import random

# A shape fixes what the cost depends on: strands, letters, letters on
# the top generator s_{n-1} (each needs associator moves), and the number
# of components.
# Knots: (strands, generator of each letter, |writhe|).  The closure is
# one component and the t1 twist that cancels the writhe adds |writhe|
# slices; the seed picks only the signs.  No 6-letter 3-strand shape:
# one input of that shape took from 1.0 s to 2.5 s depending on its signs.
KNOT_SHAPES = ((2, "111", 3), (3, "1212", 2), (2, "11111", 3),
               (3, "1112", 0), (2, "1111111", 1))
# Rational links: (strands, letters, top letters, components).
LINK_SHAPES = ((3, 4, 2, 1), (2, 2, 2, 2), (3, 5, 2, 2), (2, 4, 4, 2),
               (3, 3, 1, 2), (2, 6, 6, 2), (3, 6, 3, 1), (2, 3, 3, 1),
               (3, 4, 1, 1), (2, 5, 5, 1))
VALPHA_SLICES = 3
RIBBON_COLOURS = 2
RIBBON_ENTRIES = (-3, -2, -1, 1, 2, 3, 5)
SINGULAR_COUNT = 3  # len(verify.SINGULAR_WORDS)
# Suites run as `verify` runs them; four-term is sampled (see VerifyAll).
VERIFY_SUITES = ("oneterm", "associator", "zleading", "corollary",
                 "vassiliev", "cabling", "slitting")


def _rng(name, seed):
    return random.Random("%s:%d" % (name, seed))


def _cycles(n, letters):
    """Number of components of the closure of a braid on n strands."""
    perm = list(range(n))
    for k, _sign in letters:
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
    seen = set()
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return count


def braid_letters(rng, n, length, top, components):
    """Letters (generator, sign) on n <= 3 strands, top of them on
    s_{n-1}, every generator used, closing to the given number of
    components.  Draws until the constraints hold."""
    while True:
        high = set(rng.sample(range(length), top))
        letters = [(n - 1 if i in high else 1, rng.choice((1, -1)))
                   for i in range(length)]
        if {k for k, _s in letters} != set(range(1, n)):
            continue
        if _cycles(n, letters) == components:
            return letters


def knot_letters(rng, gens, writhe):
    """Signs on the given generators, drawn until |writhe| is as given."""
    while True:
        letters = [(int(k), rng.choice((1, -1))) for k in gens]
        if abs(sum(s for _k, s in letters)) == writhe:
            return letters


def braid_text(n, letters):
    """Closed braid text."""
    toks = ["s%d" % k if s > 0 else "s%d^-1" % k for k, s in letters]
    return "braid[%d]: %s ; close" % (n, " ".join(toks))


def knot_text(n, letters):
    """Closed braid text with a t1 twist that cancels the writhe."""
    writhe = sum(s for _k, s in letters)
    text = braid_text(n, letters)
    if writhe:
        text = text.replace(" ; close", " t1^%d ; close" % -writhe)
    return text


def valpha_text(signs):
    """(1,1)-tangle: a strand passing a cupped loop, one crossing a slice."""
    lines = ["obj: +", "slice: id(+) cup(+-)"]
    lines += ["slice: X%s id(-)" % s for s in signs]
    lines.append("slice: id(+) cap(+-)")
    return "\n".join(lines)


def state_width(word):
    """Most strands any slice of a parsed word has at its top or bottom."""
    width = n = len(word.source)
    for sl in word.slices:
        top = sum(2 if t[0] in ("x", "cup") else 1 if t[0] == "id" else 0
                  for t in sl)
        width = max(width, n, top)
        n = top
    return width


class Workload:
    """Shared shape: generate, setup, evaluate, check."""

    name = ""
    order = 3
    item_s = 1.0    # rough seconds per input on a shared 2-core x86 machine
    fixed_s = 0.0   # rough seconds of inputs the seed does not scale
    passes = 3      # timed passes over the inputs in one run

    def count(self, seconds):
        """Inputs for about `seconds` of work, at least one."""
        return max(1, int((seconds - self.fixed_s) / self.item_s + 0.5))

    def generate(self, seed, seconds):
        raise NotImplementedError

    def setup(self, api):
        """Everything the timed calls would otherwise build lazily."""
        api.associator.build_associator(self.order)
        ls = api.liesuper
        g21, g11 = ls.build_gl(2, 1), ls.build_gl(1, 1)
        systems = {
            "gl21": (ls.standard_rep(g21, "defining"),
                     ls.casimir_tensor(g21, "gl")),
            "gl11": (ls.standard_rep(g11, "defining"),
                     ls.casimir_tensor(g11, "gl")),
            "valpha": (ls.standard_rep(g21, "v_alpha"),
                       ls.casimir_tensor(g21, "sl")),
        }
        api.weightsys.lg_data()
        api.kontsevich.hump_factor(self.order)
        return systems

    def evaluate(self, api, systems, item):
        """(raw output, its JSON form) for one input."""
        raise NotImplementedError

    def check(self, api, systems, item, raw):
        """List of (check name, ok) on one raw output."""
        raise NotImplementedError

    def text(self, api, item):
        return item["text"]

    def span_name(self, item):
        """Name of the traced span around one input."""
        return "bench.item"

    def width(self, api, item):
        return state_width(api.words.parse_word(self.text(api, item)))


class LgKnots(Workload):
    name = "lg-knots"
    order = 3
    item_s = 1.5

    def generate(self, seed, seconds):
        rng = _rng(self.name, seed)
        items = []
        for i in range(self.count(seconds)):
            n, gens, writhe = KNOT_SHAPES[i % len(KNOT_SHAPES)]
            letters = knot_letters(rng, gens, writhe)
            items.append({"text": knot_text(n, letters)})
        return items

    def evaluate(self, api, systems, item):
        word = api.words.parse_word(item["text"])
        series = api.kontsevich.lg_invariant(word, self.order)
        return series, api.jsonio.series_to_json(series)

    def check(self, api, systems, item, raw):
        sc = api.scalars
        a = sc.alpha()
        nabla = api.conway.conway_polynomial(item["text"])
        z2 = nabla[2] if len(nabla) > 2 else 0
        out = [("polynomial_h%d" % m, raw.coeff(m).is_polynomial())
               for m in range(self.order + 1)]
        return out + [("h0_is_1", raw.coeff(0) == sc.QALPHA.one),
                      ("h1_is_0", raw.coeff(1) == sc.QALPHA.zero),
                      ("h2_is_conway", raw.coeff(2) == (a + a * a) * 2 * z2)]


class ValphaTangles(Workload):
    name = "valpha-tangles"
    order = 4
    item_s = 9.5
    passes = 2  # one input of about 10 s: three passes make a run too long

    def generate(self, seed, seconds):
        rng = _rng(self.name, seed)
        return [{"text": valpha_text([rng.choice("+-")
                                      for _ in range(VALPHA_SLICES)])}
                for _ in range(self.count(seconds))]

    def evaluate(self, api, systems, item):
        rep, tensor = systems["valpha"]
        word = api.words.parse_word(item["text"])
        endos = api.kontsevich.wz_eval(word, rep, tensor, self.order)
        enc = api.jsonio.scalar_to_json
        return endos, [[[i, j, enc(v)] for (i, j), v in sorted(e.m.items())]
                       for e in endos]

    def check(self, api, systems, item, raw):
        out = []
        for m, endo in enumerate(raw):
            try:
                c = api.weightsys.scalar_of_endo(endo)
            except ValueError:
                out.append(("scalar_deg%d" % m, False))
                continue
            out.append(("scalar_deg%d" % m, c.is_polynomial()
                        and c.as_poly().degree() <= 2 * m))
        return out


class RationalLinks(Workload):
    name = "rational-links"
    order = 4
    item_s = 0.7
    fixed_s = 1.5

    def generate(self, seed, seconds):
        rng = _rng(self.name, seed)
        items = []
        for i in range(self.count(seconds)):
            n, length, top, components = LINK_SHAPES[i % len(LINK_SHAPES)]
            letters = braid_letters(rng, n, length, top, components)
            q = [[rng.choice(RIBBON_ENTRIES) for _ in range(RIBBON_COLOURS)]
                 for _ in range(RIBBON_COLOURS)]
            items.append({"text": braid_text(n, letters), "q": q})
        # then verify.SINGULAR_WORDS, by index
        return items + [{"singular": i} for i in range(SINGULAR_COUNT)]

    def text(self, api, item):
        if "singular" in item:
            return api.verify.SINGULAR_WORDS[item["singular"]][2]
        return item["text"]

    def evaluate(self, api, systems, item):
        k, js = api.kontsevich, api.jsonio
        word = api.words.parse_word(self.text(api, item))
        rep, tensor = systems["gl21"]
        if "singular" in item:
            defect = k.vassiliev_defect(word, rep, tensor, self.order)
            return {"defect": defect}, js.series_to_json(defect)
        raw = {}
        z = k.z_eval(word, self.order)
        for name in ("gl21", "gl11"):
            rep, tensor = systems[name]
            raw["wz_" + name] = k.wz_eval(word, rep, tensor, self.order)
            raw["pair_" + name] = z.pair(
                lambda d, r=rep, t=tensor: api.weightsys.ws_link(d, r, t),
                rep.ring)
        data = api.ribbon.ribbon_diagonal(item["q"])
        raw["rt"] = api.ribbon.rt_invariant(word, data)
        enc = {key: js.series_to_json(v) for key, v in raw.items()
               if key != "rt"}
        enc["rt"] = js.scalar_to_json(raw["rt"])
        enc["z"] = js.zvalue_to_json(z)
        return raw, enc

    def check(self, api, systems, item, raw):
        if "singular" in item:
            m = api.verify.SINGULAR_WORDS[item["singular"]][0]
            rep, tensor = systems["gl21"]
            word = api.words.parse_word(self.text(api, item))
            target = api.weightsys.ws_link(
                api.words.diagram_of_singular(word), rep, tensor)
            v = raw["defect"]
            return [("vanish_below_m", all(v.coeff(j) == 0
                                           for j in range(m))),
                    ("leading_is_weight", v.coeff(m) == target)]
        return [("two_path_" + name, raw["pair_" + name] == raw["wz_" + name])
                for name in ("gl21", "gl11")]


class VerifyAll(Workload):
    """Every verify suite, with the four-term suite's interval degree-3
    Links-Gould part sampled: in full it takes about 45 s alone, which no
    single run of the benchmark can afford."""

    name = "verify-all"
    order = 3
    item_s = 2.3
    fixed_s = 7.5

    def generate(self, seed, seconds):
        rng = _rng(self.name, seed)
        # the degree-3 interval relators: 30 of them, four diagrams each
        picks = sorted(rng.sample(range(30), min(30, self.count(seconds))))
        items = [{"suite": "fourterm", "relators": picks, "seed": seed}]
        items += [{"suite": s, "seed": seed} for s in VERIFY_SUITES]
        return items

    def evaluate(self, api, systems, item):
        if item["suite"] == "fourterm":
            report = self.fourterm(api, systems, item["relators"])
        else:
            report = api.verify.run_suite(item["suite"], order=self.order,
                                          seed=item["seed"])
        return report, report.lines()

    def fourterm(self, api, systems, picks):
        """verify.verify_fourterm with the lg degree-3 relators sampled."""
        d = api.diagrams
        report = api.verify.VerifyReport("fourterm")
        for skeleton, degree in (((d.CIRCLE,), 2), ((d.CIRCLE,), 3),
                                 ((d.CIRCLE, d.CIRCLE), 2),
                                 ((d.CIRCLE, d.CIRCLE), 3)):
            rels = d.four_term_relators(skeleton, degree)
            for name in ("gl21", "gl11"):
                rep, tv = systems[name]
                ok = all(sum((api.weightsys.ws_link(dg, rep, tv) * s
                              for s, dg in r), 0) == 0 for r in rels)
                report.add("%s_%dcircle_deg%d"
                           % (name, len(skeleton), degree), ok,
                           "%d relators" % len(rels))
        wlg = api.weightsys.wlg
        for degree, chosen in ((2, None), (3, picks)):
            rels = d.four_term_relators((d.INTERVAL,), degree)
            if chosen is not None:
                rels = [rels[i] for i in chosen]
            ok = all(sum((wlg(dg) * s for s, dg in r), 0) == 0 for r in rels)
            report.add("lg_interval_deg%d" % degree, ok,
                       "%d relators" % len(rels))
        return report

    def check(self, api, systems, item, raw):
        return [(name, ok) for name, ok, _detail in raw.checks]

    def span_name(self, item):
        # the sampled four-term suite is benchmark code, not verify's
        if item["suite"] == "fourterm":
            return "verify.fourterm"
        return "bench.item"

    def width(self, api, item):
        return 0


WORKLOADS = {w.name: w
             for w in (LgKnots(), ValphaTangles(), RationalLinks(),
                       VerifyAll())}
