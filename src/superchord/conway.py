"""Conway polynomial of braid closures by descending-diagram skein recursion.

Walks the closure strand by strand; the first crossing reached on its
under-strand gets switched and smoothed, nabla(L+) = nabla(L-) + z
nabla(L0).  Switching never disturbs the part of the walk already
checked and smoothing drops a letter, so the recursion terminates on
descending diagrams, which close up to unlinks.  Kinks are dropped
before recursing since the polynomial is an unframed invariant.

The convention that the strand entering on the left passes over in a
positive crossing makes the positive Hopf link come out as z.
"""

from .words import parse_word


def _visits(n, letters):
    """Traversal of the closure: (letter, arrived-left) visits in order."""
    out = []
    seen_starts = set()
    for start in range(n):
        if start in seen_starts:
            continue
        p = start
        while True:
            seen_starts.add(p)
            for j, (k, _s) in enumerate(letters):
                if p == k - 1:
                    out.append((j, True))
                    p = k
                elif p == k:
                    out.append((j, False))
                    p = k - 1
            if p == start:
                break
    return out


def _components(n, letters):
    perm = list(range(n))
    for k, _s in letters:
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
    count = 0
    left = set(range(n))
    while left:
        count += 1
        p = left.pop()
        q = perm[p]
        while q != p:
            left.remove(q)
            q = perm[q]
    return count


def _nabla(n, letters, memo):
    key = (n, letters)
    if key in memo:
        return memo[key]
    first = set()
    bad = None
    for j, left in _visits(n, letters):
        if j in first:
            continue
        first.add(j)
        if left != (letters[j][1] > 0):
            bad = j
            break
    if bad is None:
        value = (1,) if _components(n, letters) == 1 else (0,)
    else:
        k, s = letters[bad]
        switched = letters[:bad] + ((k, -s),) + letters[bad + 1:]
        smoothed = letters[:bad] + letters[bad + 1:]
        a = _nabla(n, switched, memo)
        b = _nabla(n, smoothed, memo)
        shifted = (0,) + tuple(s * c for c in b)
        width = max(len(a), len(shifted))
        value = tuple((a[i] if i < len(a) else 0)
                      + (shifted[i] if i < len(shifted) else 0)
                      for i in range(width))
    while len(value) > 1 and value[-1] == 0:
        value = value[:-1]
    memo[key] = value
    return value


def conway_polynomial(word):
    """Coefficient list of nabla(z) for a closed braid word, constant first."""
    word = parse_word(word)
    if word.braid is None or not word.braid[2]:
        raise ValueError("the Conway oracle works on closed braid words")
    n, letters, _closed = word.braid
    if any(marked for _k, _p, _s, marked in letters):
        raise ValueError("resolve marked crossings before taking nabla")
    plain = tuple((p, s) for kind, p, s, _m in letters if kind == "s")
    return list(_nabla(n, plain, {}))
