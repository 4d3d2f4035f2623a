"""Sliced tangle words: grammar, validation, tracing, framings.

A word is a list of horizontal slices read bottom to top.  Each slice is
a tensor product of generators written left to right:

    id(+)  id(-)       identity strands
    X+  X-             crossings of two adjacent strands
    cup(+-)  cup(-+)   local minima, creating the sign pair in parens
    cap(+-)  cap(-+)   local maxima, consuming the sign pair
    sing               marks the preceding crossing as a double point

Lines may also be separated by ';'.  An optional leading "obj: + -" line
declares the bottom boundary (otherwise it is inferred).  The braid
shorthand

    braid[n]: s1 s2^-1 t1 ... ; close

expands to the nested-cup trace closure of the braid: s<k> crosses
strands k, k+1 positively, t<k>^e adds |e| curls on strand k (changing
its framing by e), and "close" joins the braid top around to the bottom.
Without "close" the word is the open braid on n upward strands.

Signs: "+" strands point up, "-" strands point down.  The framing of a
component is the sum of the oriented signs of its self-crossings (curls
included), matching the blackboard framing of the diagram.
"""

import re

from .diagrams import CIRCLE, INTERVAL, ChordDiagram

_SLICE_TOKEN = re.compile(
    r"id\(([+-])\)|X([+-])|cup\(([+-])([+-])\)|cap\(([+-])([+-])\)|sing")
_BRAID_HEAD = re.compile(r"braid\[(\d+)\]:(.*)", re.S)
_BRAID_TOKEN = re.compile(r"([st])(\d+)(?:\^(-?\d+))?|sing")

_SIGN = {"+": 1, "-": -1}


class TangleWord:
    """A validated sliced word with its traced skeleton and framings."""

    def __init__(self, source, slices, braid, text):
        self.source = tuple(source)
        self.slices = [tuple(s) for s in slices]
        self.braid = braid
        self.text = text
        self._trace()

    @property
    def is_closed(self):
        return not self.source and not self.target

    @property
    def writhe(self):
        return sum(s for _, _, s in self._crossings)

    @property
    def sing_count(self):
        return sum(1 for s in self.slices for t in s
                   if t[0] == "x" and t[2])

    def _trace(self):
        signs = list(self.source)
        tracer = PathTracer(self.source)
        self._crossings = []
        marked = []
        for si, sl in enumerate(self.slices):
            p = 0
            for tok in sl:
                kind = tok[0]
                if kind == "id":
                    if p >= len(signs) or signs[p] != tok[1]:
                        raise ValueError(
                            "sign mismatch at slice %d position %d" % (si, p))
                    p += 1
                elif kind == "x":
                    if p + 1 >= len(signs):
                        raise ValueError(
                            "crossing off the end at slice %d" % si)
                    s_or = tok[1] * signs[p] * signs[p + 1]
                    self._crossings.append((tracer.end_serial(p),
                                            tracer.end_serial(p + 1), s_or))
                    if tok[2]:
                        i = len(marked)
                        a, b = ("dp", i, 0), ("dp", i, 1)
                        tracer.stamp(p, a)
                        tracer.stamp(p + 1, b)
                        marked.append((a, b))
                    tracer.cross(p)
                    signs[p], signs[p + 1] = signs[p + 1], signs[p]
                    p += 2
                elif kind == "cup":
                    tracer.cup(p, tok[1])
                    signs[p:p] = [tok[1], -tok[1]]
                    p += 2
                elif kind == "cap":
                    if signs[p:p + 2] != [tok[1], -tok[1]]:
                        raise ValueError(
                            "cap signs do not match at slice %d position %d"
                            % (si, p))
                    tracer.cap(p)
                    del signs[p:p + 2]
                else:
                    raise ValueError("unknown generator %r" % (tok,))
            if p != len(signs):
                raise ValueError("slice %d does not cover the word" % si)
        self.target = tuple(signs)
        out = tracer.finish()
        self.components = out.kinds
        self.framings = tuple(
            sum(s for a, b, s in self._crossings
                if out.comp_of(a) == out.comp_of(b) == c)
            for c in range(len(out.kinds)))
        self._marked = marked
        self._token_pos = out.token_pos


class _TraceOut:
    def __init__(self, kinds, token_pos, serial_comp, find):
        self.kinds = kinds
        self.token_pos = token_pos
        self._serial_comp = serial_comp
        self._find = find

    def comp_of(self, serial):
        return self._serial_comp[self._find(serial)]


class PathTracer:
    """Follows strands through slices, building oriented components.

    Every open "+" end is the head of its path and every "-" end the
    tail, so tokens stamped while walking upward land in orientation
    order: appended at heads, prepended at tails.
    """

    def __init__(self, source):
        self._paths = {}
        self._ends = []
        self._parent = {}
        self._closed = []
        self._serial = 0
        for sign in source:
            s = self._new_path()
            self._ends.append((s, "head" if sign > 0 else "tail"))

    def _new_path(self):
        s = self._serial
        self._serial += 1
        self._paths[s] = []
        self._parent[s] = s
        return s

    def _find(self, s):
        while self._parent[s] != s:
            self._parent[s] = self._parent[self._parent[s]]
            s = self._parent[s]
        return s

    def end_serial(self, p):
        return self._ends[p][0]

    def stamp(self, p, token):
        s, which = self._ends[p]
        if which == "head":
            self._paths[self._find(s)].append(token)
        else:
            self._paths[self._find(s)].insert(0, token)

    def cup(self, p, sign):
        s = self._new_path()
        if sign > 0:
            pair = [(s, "head"), (s, "tail")]
        else:
            pair = [(s, "tail"), (s, "head")]
        self._ends[p:p] = pair

    def cross(self, p):
        self._ends[p], self._ends[p + 1] = self._ends[p + 1], self._ends[p]

    def cap(self, p):
        (s1, w1), (s2, w2) = self._ends[p], self._ends[p + 1]
        if w1 == w2:
            raise ValueError("cap joins two ends of the same kind")
        head, tail = (s1, s2) if w1 == "head" else (s2, s1)
        rh, rt = self._find(head), self._find(tail)
        del self._ends[p:p + 2]
        if rh == rt:
            self._closed.append(rh)
            return
        self._paths[rh].extend(self._paths.pop(rt))
        self._parent[rt] = rh

    def finish(self):
        kinds = []
        token_pos = {}
        serial_comp = {}
        for root in self._closed:
            serial_comp[root] = len(kinds)
            kinds.append(CIRCLE)
        open_roots = sorted(set(self._find(s) for s, _ in self._ends))
        for root in open_roots:
            serial_comp[root] = len(kinds)
            kinds.append(INTERVAL)
        for root, comp in serial_comp.items():
            for i, tok in enumerate(self._paths[root]):
                token_pos[tok] = (comp, i)
        return _TraceOut(tuple(kinds), token_pos, serial_comp, self._find)


def _parse_slice(body, si):
    toks = []
    pos = 0
    body = body.strip()
    while pos < len(body):
        m = _SLICE_TOKEN.match(body, pos)
        if not m:
            raise ValueError("unknown token at slice %d: %r"
                             % (si, body[pos:].split()[0]))
        if m.group(0) == "sing":
            if not toks or toks[-1][0] != "x":
                raise ValueError("sing must follow a crossing")
            toks[-1] = ("x", toks[-1][1], True)
        elif m.group(1):
            toks.append(("id", _SIGN[m.group(1)]))
        elif m.group(2):
            toks.append(("x", _SIGN[m.group(2)], False))
        elif m.group(3):
            if m.group(3) == m.group(4):
                raise ValueError("cup needs opposite signs")
            toks.append(("cup", _SIGN[m.group(3)]))
        else:
            if m.group(5) == m.group(6):
                raise ValueError("cap needs opposite signs")
            toks.append(("cap", _SIGN[m.group(5)]))
        pos = m.end()
        while pos < len(body) and body[pos] == " ":
            pos += 1
    return toks


def _parse_braid_letters(body):
    letters = []
    for raw in body.split():
        m = _BRAID_TOKEN.fullmatch(raw)
        if not m:
            raise ValueError("unknown braid token %r" % raw)
        if raw == "sing":
            if not letters or letters[-1][0] != "s":
                raise ValueError("sing must follow a crossing")
            k, s, _ = letters[-1][1:]
            letters[-1] = ("s", k, s, True)
            continue
        kind, k, e = m.group(1), int(m.group(2)), m.group(3)
        e = 1 if e is None else int(e)
        if e == 0:
            raise ValueError("zero exponent on %r" % raw)
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            letters.append((kind, k, step, False))
    return letters


def _expand_braid(n, letters, closed):
    """Expanded slice list for a braid word and its optional closure."""
    slices = []
    if closed:
        for j in range(n):
            slices.append([("id", 1)] * j + [("cup", 1)] + [("id", -1)] * j)
        pad = lambda: [("id", 1)] * n + [("id", -1)] * n
    else:
        pad = lambda: [("id", 1)] * n
    width = 2 * n if closed else n
    for kind, k, s, marked in letters:
        if kind == "s":
            if not 1 <= k < n:
                raise ValueError("crossing s%d needs strands %d, %d"
                                 % (k, k, k + 1))
            row = pad()
            row[k - 1:k + 1] = [("x", s, marked)]
            slices.append(row)
        else:
            if not 1 <= k <= n:
                raise ValueError("twist t%d is off the braid" % k)
            # One curl: a cup to the right of strand k, the strand
            # crossing its own loop, and a cap closing the loop.
            for row in (
                    [("id", 1)] * k + [("cup", 1)]
                    + [("id", 1)] * (n - k) + [("id", -1)] * (width - n),
                    [("id", 1)] * (k - 1) + [("x", s, False)] + [("id", -1)]
                    + [("id", 1)] * (n - k) + [("id", -1)] * (width - n),
                    [("id", 1)] * k + [("cap", 1)]
                    + [("id", 1)] * (n - k) + [("id", -1)] * (width - n)):
                slices.append(row)
    if closed:
        for j in range(n - 1, -1, -1):
            slices.append([("id", 1)] * j + [("cap", 1)] + [("id", -1)] * j)
    return slices


def parse_word(text):
    """Parse a tangle word in slice or braid form; see the module doc."""
    segs = [s.strip() for chunk in text.splitlines() for s in chunk.split(";")]
    segs = [s for s in segs if s]
    if not segs:
        raise ValueError("empty word")
    m = _BRAID_HEAD.fullmatch(segs[0])
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("a braid needs at least one strand")
        letters = _parse_braid_letters(m.group(2))
        closed = False
        for seg in segs[1:]:
            if seg == "close":
                if closed:
                    raise ValueError("word is already closed")
                closed = True
            elif closed:
                raise ValueError("tokens after close")
            else:
                letters.extend(_parse_braid_letters(seg))
        slices = _expand_braid(n, letters, closed)
        source = () if closed else (1,) * n
        return TangleWord(source, slices, (n, letters, closed), text)
    source = None
    slices = []
    for si, seg in enumerate(segs):
        if seg.startswith("obj:"):
            if si != 0:
                raise ValueError("obj line must come first")
            signs = seg[4:].split()
            for c in signs:
                if c not in _SIGN:
                    raise ValueError("obj line takes + and - only, got %r"
                                     % (c,))
            source = tuple(_SIGN[c] for c in signs)
            continue
        if seg.startswith("slice:"):
            seg = seg[6:]
        if seg == "close" or _BRAID_HEAD.fullmatch(seg):
            raise ValueError("braid directives inside a slice word")
        slices.append(_parse_slice(seg, si))
    if not slices:
        raise ValueError("word has no slices")
    inferred = []
    for tok in slices[0]:
        if tok[0] == "id":
            inferred.append(tok[1])
        elif tok[0] == "x":
            raise ValueError("cannot infer the boundary under a crossing; "
                             "declare it with an obj line")
        elif tok[0] == "cap":
            inferred.extend((tok[1], -tok[1]))
    if source is None:
        source = tuple(inferred)
    return TangleWord(source, slices, None, text)


def resolve_singular(word):
    """All 2^m resolutions of the marked double points, with signs."""
    sites = [(i, j) for i, sl in enumerate(word.slices)
             for j, tok in enumerate(sl) if tok[0] == "x" and tok[2]]
    out = []
    for mask in range(2 ** len(sites)):
        slices = [list(sl) for sl in word.slices]
        sign = 1
        for b, (i, j) in enumerate(sites):
            s = 1 if (mask >> b) & 1 == 0 else -1
            sign *= s
            slices[i][j] = ("x", s, False)
        braid = None
        if word.braid is not None:
            n, letters, closed = word.braid
            letters = list(letters)
            pos = 0
            for b, (kind, k, s0, marked) in enumerate(letters):
                if marked:
                    i, j = sites[pos]
                    letters[b] = (kind, k, slices[i][j][1], False)
                    pos += 1
            braid = (n, letters, closed)
        out.append((sign, TangleWord(word.source, slices, braid, word.text)))
    return out


def diagram_of_singular(word):
    """The chord diagram pairing the preimages of marked double points."""
    chords = [(word._token_pos[a], word._token_pos[b])
              for a, b in word._marked]
    return ChordDiagram(word.components, chords)
