"""Sliced tangle words: grammar, validation, tracing, framings.

A word is a list of horizontal slices read bottom to top.  Each slice is
a tensor product of generators written left to right:

    id(+)  id(-)       identity strands
    X+  X-             crossings of two adjacent strands
    cup(+-)  cup(-+)   local minima, creating the sign pair in parens
    cap(+-)  cap(-+)   local maxima, consuming the sign pair
    sing               marks the preceding crossing as a double point

Lines end at \\n, \\r\\n or \\r, as text-mode open() reads them, and may
also be separated by ';'.  Any other separator (\\f, \\v, \\x85, \\u2028,
...) is whitespace inside a line.  An optional leading "obj: + -" line
declares the bottom boundary (otherwise it is inferred).  The braid
shorthand

    braid[n]: s1 s2^-1 t1 ... ; close

expands to the nested-cup trace closure of the braid: s<k> crosses
strands k, k+1 positively, t<k>^e adds |e| curls on strand k (changing
its framing by e), and "close" joins the braid top around to the bottom.
Without "close" the word is the open braid on n upward strands.
A braid word whose expansion would hold more than MAX_TOKENS = 2^16
generator tokens (the closure alone has 2n^2), or whose braid has more
strands, raises ValueError before anything is expanded.  "sing" marks
the crossing just before it, an unmarked X+ or s<k>: a double point is
read as X+ - X-, and the framings count it as X+.

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
_LINE_END = re.compile(r"\r\n?|\n")

_SIGN = {"+": 1, "-": -1}

MAX_TOKENS = 1 << 16


class TangleWord:
    """A validated sliced word with its traced skeleton and framings."""

    def __init__(self, source, slices, braid):
        self.source = tuple(source)
        self.slices = [tuple(s) for s in slices]
        self.braid = braid
        self._trace()

    @property
    def is_closed(self):
        return not self.source and not self.target

    @property
    def writhe(self):
        return sum(s for _, _, s in self._crossings)

    @property
    def sing_count(self):
        return sum(t[0] == "x" and t[2] for s in self.slices for t in s)

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
        """Closed paths as circles, then every other path as an interval,
        by serial, whether its ends lie on the top or the bottom."""
        roots = self._closed + sorted(set(self._paths) - set(self._closed))
        serial_comp = {root: c for c, root in enumerate(roots)}
        kinds = (CIRCLE,) * len(self._closed) + (INTERVAL,) * (
            len(roots) - len(self._closed))
        token_pos = {tok: (c, i) for root, c in serial_comp.items()
                     for i, tok in enumerate(self._paths[root])}
        return _TraceOut(kinds, token_pos, serial_comp, self._find)


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
            if toks[-1:] != [("x", 1, False)]:
                raise ValueError("sing must follow an unmarked crossing X+")
            toks[-1] = ("x", 1, True)
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
        while pos < len(body) and body[pos].isspace():
            pos += 1
    return toks


def _parse_braid_letters(body, letters):
    """Append the letters of body to letters, each power expanded."""
    for raw in body.split():
        m = _BRAID_TOKEN.fullmatch(raw)
        if not m:
            raise ValueError("unknown braid token %r" % raw)
        if raw == "sing":
            if not letters or letters[-1] != ("s", letters[-1][1], 1, False):
                raise ValueError("sing must follow an unmarked crossing s<k>")
            letters[-1] = ("s", letters[-1][1], 1, True)
            continue
        kind, k, e = m.group(1), int(m.group(2)), m.group(3)
        e = 1 if e is None else int(e)
        if e == 0:
            raise ValueError("zero exponent on %r" % raw)
        if len(letters) + abs(e) > MAX_TOKENS:
            raise ValueError("braid word longer than %d letters"
                             % MAX_TOKENS)
        letters.extend([(kind, k, 1 if e > 0 else -1, False)] * abs(e))


def _expand_braid(n, letters, closed):
    """Expanded slice list for a braid word and its optional closure."""
    width = 2 * n if closed else n
    size = 2 * n * n if closed else 0
    for kind, *_ in letters:
        size += 3 * width + 3 if kind == "t" else width - 1
    if size > MAX_TOKENS:
        raise ValueError("braid word expands to %d tokens, more than %d"
                         % (size, MAX_TOKENS))
    slices = []
    if closed:
        for j in range(n):
            slices.append([("id", 1)] * j + [("cup", 1)] + [("id", -1)] * j)
        pad = lambda: [("id", 1)] * n + [("id", -1)] * n
    else:
        pad = lambda: [("id", 1)] * n
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
    """Parse a tangle word in slice or braid form; see the module doc.

    A TangleWord is returned as it is, so every function that takes a
    word takes either form.
    """
    if isinstance(text, TangleWord):
        return text
    segs = [s.strip() for chunk in _LINE_END.split(text)
            for s in chunk.split(";")]
    segs = [s for s in segs if s]
    if not segs:
        raise ValueError("empty word")
    m = _BRAID_HEAD.fullmatch(segs[0])
    if m:
        n = int(m.group(1))
        if not 1 <= n <= MAX_TOKENS:
            raise ValueError("a braid needs 1 to %d strands" % MAX_TOKENS)
        letters = []
        _parse_braid_letters(m.group(2), letters)
        closed = False
        for seg in segs[1:]:
            if seg == "close":
                if closed:
                    raise ValueError("word is already closed")
                closed = True
            elif closed:
                raise ValueError("tokens after close")
            else:
                _parse_braid_letters(seg, letters)
        slices = _expand_braid(n, letters, closed)
        source = () if closed else (1,) * n
        return TangleWord(source, slices, (n, letters, closed))
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
    if source is None:
        inferred = []
        for tok in slices[0]:
            if tok[0] == "id":
                inferred.append(tok[1])
            elif tok[0] == "x":
                raise ValueError("cannot infer the boundary under a "
                                 "crossing; declare it with an obj line")
            elif tok[0] == "cap":
                inferred.extend((tok[1], -tok[1]))
        source = tuple(inferred)
    return TangleWord(source, slices, None)


def diagram_of_singular(word):
    """The chord diagram pairing the preimages of marked double points."""
    chords = [(word._token_pos[a], word._token_pos[b])
              for a, b in word._marked]
    return ChordDiagram(word.components, chords)
