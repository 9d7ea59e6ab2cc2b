"""Ordered-subgraph containment and the monotone-path classification.

An ordered copy of a pattern F in a host G is a strictly increasing injection
of vertex labels that maps every pattern edge to a host edge; it is held as
its tuple of images, pattern vertex i -> images[i].  One backtracking kernel
enumerates them, behind ``ordered_copies``: it places pattern vertices left
to right, each among the host vertices above the previous image and in the
forward neighbourhoods of its placed backward neighbours, all as bitmask
operations.  It reads the host as forward bitmasks, one per
vertex: an OrderedGraph's ``forward_masks``, or the plain lists the local
search edits in place.  After each copy it may resume at a shallower
depth, skipping the later copies that repeat the images up to there.
``through_edge_search`` works out, once per pattern, the masks that pin a
pattern edge onto host edges, behind two searches: the least copy through
a host edge, and which of a row of candidate edges (u, v) would each close
a copy, one walk per pattern edge that refuses a candidate per copy, or a
mask of them per placement when the pinned vertex is the pattern's last or
has one vertex after it.  Both are generated from those templates as
Python source, once per pattern, and compiled: straight-line loops over
int locals that make the kernel's walks with the pinned masks folded in.
The source holds only names and the integer literals of the pattern's
vertices.  A pattern whose source would pass a size bound, or nest more
loops than CPython compiles, feeds the templates to the kernel instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .core import OrderedGraph


def validate_witness(pattern: OrderedGraph, host: OrderedGraph, images: Sequence[int]) -> bool:
    """Pure checker: ``images`` is strictly increasing, in range, and edge-preserving.

    A cube graph is an OrderedGraph, so it is checked as it is, unconverted.
    """
    return (
        len(images) == pattern.n
        and all(0 <= img < host.n for img in images)
        and all(a < b for a, b in zip(images, images[1:]))
        and all(host.has_edge(images[u], images[v]) for u, v in pattern.sorted_edges())
    )


def ordered_copies(pattern: OrderedGraph, fwd: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every ordered copy of ``pattern`` in the host ``fwd``, in lexicographic order.

    Pattern vertices are placed in increasing order; the image of vertex i
    must exceed the image of i-1, leave room for the vertices after it, and
    lie in the forward neighbourhood of every placed backward neighbour of i.
    The host is given by its forward bitmasks: it has len(fwd) vertices, and
    fwd[u] holds u's neighbours v > u.
    """
    k, full = pattern.n, (1 << len(fwd)) - 1
    limit = [full >> (k - i - 1) for i in range(k)]  # leave room for the vertices after i
    return _walk(_predecessors(pattern), fwd, limit)


def _walk(
    preds: Sequence[Sequence[int]],
    fwd: Sequence[int],
    limit: Sequence[int],
    resume: Optional[int] = None,
) -> Iterator[tuple[int, ...]]:
    """The kernel of ``ordered_copies``; limit[i] bounds vertex i's image before preds[i].

    After each copy the walk goes on at depth ``resume`` (default k - 1): it
    tries the next image of vertex ``resume`` under the same images of the
    vertices before it, so every later copy that repeats images[:resume + 1]
    is skipped.  limit[i] is read each time the walk enters depth i, so a
    caller may shrink ``limit`` (a list) between copies.
    """
    k = len(limit)
    if k == 0:
        yield ()
        return
    if resume is None:
        resume = k - 1
    images = [0] * k
    pending = [0] * k  # untried candidates at each depth
    pending[0] = limit[0]
    i = 0
    while i >= 0:
        mask = pending[i]
        if not mask:
            i -= 1
            continue
        low = mask & -mask
        pending[i] = mask ^ low
        images[i] = low.bit_length() - 1
        if i == k - 1:
            yield tuple(images)
            i = resume
            continue
        i += 1
        mask = limit[i] & ~((low << 1) - 1)
        for j in preds[i]:
            mask &= fwd[images[j]]
        pending[i] = mask


@lru_cache(maxsize=64)
def _predecessors(pattern: OrderedGraph) -> tuple[tuple[int, ...], ...]:
    """For each pattern vertex, its backward neighbours in ascending order."""
    return tuple(
        tuple(a for a in range(i) if pattern.backward(i) >> a & 1) for i in range(pattern.n)
    )


def through_edge_search(
    pattern: OrderedGraph, n: int
) -> tuple[Callable[..., Optional[tuple[int, ...]]], Callable[..., int]]:
    """Two searches for copies through host edges, on n-vertex hosts: ``(least, refused)``.

    The host is given by its forward and backward bitmasks ``fwd`` and
    ``bwd``.  ``least(fwd, bwd, u, v)`` is the lexicographically least
    ordered copy with (u, v) as an image edge, or None: for each pattern
    edge (a, b) the kernel runs with a pinned to u and b to v, vertices
    before a below u, vertices between a and b below v, and every pattern
    edge into a pinned vertex confining its source to the host's backward
    neighbourhood of that vertex's image; the least of these first copies
    is the answer.  When the host less the edge (u, v) is pattern-free,
    every copy passes through (u, v), so it equals ``contains_ordered`` at
    a fraction of its cost.  ValueError unless 0 <= u < v < n.

    ``refused(fwd, bwd, u, cands)`` answers whether edges would close a
    copy, a whole row at once.  The host must be pattern-free, and
    ``cands`` is a mask of vertices v > u with (u, v) not a host edge; the
    answer is the mask of those v for which the host plus (u, v) holds a
    copy, which then passes through (u, v).  For each pattern edge (a, b)
    one walk pins a to u and lets b range over the candidates not yet
    refused, with a dropped from b's predecessors: b's image is a
    candidate, so it is a forward neighbour of u once its edge is added.
    Every other forward neighbour of a reads fwd[u], which holds no
    candidate, so a copy uses exactly one candidate edge.  The bounds that
    ``least`` takes from v are taken from the candidates: below the highest
    one, and in the union of their backward neighbourhoods, which is built
    only when some template reads it (none of P3's does).  When b is the
    pattern's last vertex, or is followed by one vertex t alone, the walk
    places only vertices 0..b-1, and each placement refuses at once every
    candidate c above the image of b - 1 in the forward neighbourhoods of
    b's other predecessors for which t, if there is one, has an image
    above c in the forward neighbourhoods of its placed predecessors: in
    fwd[c] too when t is joined to b, one test per candidate, and else
    below the highest such image, one mask operation.  Otherwise the walk
    resumes at depth b after each copy (``_walk``'s ``resume``), and the
    copy's image of b leaves limit[b], so each refused v costs one copy.

    The local search's greedy pass asks ``refused`` about the rest of a
    row at once: a refusal leaves the host unchanged, so the answers hold
    until the pass next adds an edge, and it adds the lowest candidate not
    refused without asking again.  A row opens with that question unless
    the row before it added an edge; after an addition the pass asks one
    candidate at a time until one is refused.  So a row whose candidates
    are all refused, as all are on P3's maximal quarter start on
    ``generate_host(16, 3, 0)``, costs one question, while rows that add
    edges, as most of P4's and H_2's do, ask edge by edge: asking about
    the whole row before every addition made those solves at budget 10
    there 3.7-7.5 times slower.  Its rounds take ``least``, whose edges
    choose the victim.

    Which mask bounds each vertex's image depends only on the pattern
    (``_templates``), so both searches are generated from it as Python
    source, compiled once per pattern and cached (``_search_source``,
    ``_generated_searches``); a call on another n only binds the room
    masks.  The source is straight-line code over int locals, one block
    per template: its limit masks, the placements of its unpinned
    vertices in the kernel's order, and its refusal test.  So a call
    builds no mask list and runs no generator.  A pattern whose source would pass
    ``_MAX_SOURCE`` characters or ``_MAX_LOOPS`` nested loops keeps
    ``_interpreted_searches``, the same templates fed to ``_walk``, which
    the tests take as the reference.  Neither path checks ``fwd`` or ``bwd``.
    """
    searches = _generated_searches(pattern)
    return _interpreted_searches(pattern, n) if searches is None else searches(n)


def _templates(pattern: OrderedGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Each pattern edge (a, b) with the codes of the masks that bound vertices 0..b.

    The codes, for b's image v: below u (0), and in bwd[u] (+1) for a's
    predecessors, in bwd[v] (+2) for b's; u (4); below v (5), in bwd[v]
    (+1) for b's predecessors; v (7).  A vertex after b is bounded by its
    room alone.  The edges with the fewest vertices after b come first:
    there a walk has the fewest unpinned vertices to place after the
    pinned ones, and ``refused`` skips the candidates already refused, so
    that order saves walks.
    """
    preds = _predecessors(pattern)
    templates = []
    for a, b in sorted(pattern.sorted_edges(), key=lambda e: -e[1]):
        codes = [(i in preds[a]) + 2 * (i in preds[b]) for i in range(a)]
        codes += [4] + [5 + (i in preds[b]) for i in range(a + 1, b)] + [7]
        templates.append((a, b, tuple(codes)))
    return templates


def _interpreted_searches(
    pattern: OrderedGraph, n: int
) -> tuple[Callable[..., Optional[tuple[int, ...]]], Callable[..., int]]:
    """``through_edge_search``'s two searches as its templates fed to ``_walk``.

    A call builds the masks the codes name, then each template picks its
    vertices' masks from them (8 + i for vertex i's room).  ``refused``
    reads bwd[v] as the union over its candidates, v as the highest one for
    "below v" and all of them for "v", and u unchecked; it also drops a
    from b's predecessors, since a candidate's edge from u is not in fwd[u].
    """
    k, preds = pattern.n, _predecessors(pattern)
    room = [((1 << n) - 1) >> (k - i - 1) for i in range(k)]
    templates = []
    reads_back = False  # whether a template reads bwd[v] (codes 2, 3 and 6)
    for a, b, codes in _templates(pattern):
        reads_back = reads_back or not {2, 3, 6}.isdisjoint(codes)
        row_preds = [*preds[:b], tuple(i for i in preds[b] if i != a), *preds[b + 1:]]
        templates.append((b, itemgetter(*codes, *range(8 + b + 1, 8 + k)), row_preds))

    def masks(bwd: Sequence[int], u: int, below: int, back: int, at_u: int, at_b: int) -> list[int]:
        below_u, back_u = (1 << u) - 1, bwd[u]
        return [below_u, below_u & back_u, below_u & back, below_u & back_u & back,
                at_u, below, below & back, at_b, *room]

    def least(fwd: Sequence[int], bwd: Sequence[int], u: int, v: int) -> Optional[tuple[int, ...]]:
        if not 0 <= u < v < n:
            raise ValueError(f"need 0 <= u < v < {n}, got u={u}, v={v}")
        edge = masks(bwd, u, (1 << v) - 1, bwd[v], 1 << u & bwd[v], 1 << v)
        best = None
        for _, template, _ in templates:
            limit = template(edge)
            if not all(limit):
                continue
            images = next(_walk(preds, fwd, limit), None)
            if images is not None and (best is None or images < best):
                best = images
        return best

    def refused(fwd: Sequence[int], bwd: Sequence[int], u: int, cands: int) -> int:
        back, rest = 0, cands if reads_back else 0
        while rest:
            low = rest & -rest
            back |= bwd[low.bit_length() - 1]
            rest ^= low
        # below the highest candidate
        below = ((1 << cands.bit_length()) - 1) >> 1
        row = masks(bwd, u, below, back, 1 << u, cands)
        found = 0
        for b, template, row_preds in templates:
            limit = list(template(row))
            limit[b] &= ~found
            if not all(limit):
                continue
            if b >= k - 2:  # one placement of 0..b-1 refuses a mask of candidates
                last, into = limit[b], row_preds[b]
                # the tail vertex t = k - 1 after b, when there is one: its
                # predecessors placed before b, and whether b is one of them
                tail, joined = b < k - 1, b in preds[-1]
                t_into = [j for j in preds[-1] if j < b]
                for images in _walk(row_preds[:b], fwd, limit[:b]):
                    hit = last & ~((2 << images[b - 1]) - 1)
                    for j in into:
                        hit &= fwd[images[j]]
                    if hit and tail:  # keep the c with an image of t above c
                        reach = limit[-1]
                        for j in t_into:
                            reach &= fwd[images[j]]
                        if joined:  # in fwd[c], which lies above c
                            rest, hit = hit, 0
                            while rest:
                                low = rest & -rest
                                rest ^= low
                                if reach & fwd[low.bit_length() - 1]:
                                    hit |= low
                        else:  # below the highest image t may take
                            hit &= ((1 << reach.bit_length()) - 1) >> 1
                    if hit:
                        found |= hit
                        last ^= hit
                        if not last:
                            break
                continue
            for images in _walk(row_preds, fwd, limit, resume=b):
                found |= 1 << images[b]
                limit[b] ^= 1 << images[b]
                if not limit[b]:
                    break
        return found

    return least, refused


# a pattern whose generated searches would pass this many characters keeps
# the interpreted ones. Generating and compiling takes about 0.25 ms per KB
# on a 2-vCPU VM, once per pattern: 1.0 ms for H_2's 3.5 KB, 6 ms for H_4's
# 27 KB; K_6's 35 KB is past the bound
_MAX_SOURCE = 1 << 15
# CPython compiles at most 20 statically nested blocks, here loops
_MAX_LOOPS = 20
# the int locals that a template code's mask is the AND of, in both
# searches: ``bu`` the vertices below u, ``back_u`` bwd[u], and ``below``
# and ``back`` those below b's image and its backward neighbours
_CODE_PARTS = {0: ("bu",), 1: ("bu", "back_u"), 2: ("bu", "back"), 3: ("bu", "back_u", "back"),
               5: ("below",), 6: ("below", "back")}


@lru_cache(maxsize=64)
def _generated_searches(pattern: OrderedGraph) -> Optional[Callable[[int], tuple]]:
    """``searches(n) -> (least, refused)`` compiled from ``_search_source``, or None
    past its bounds."""
    source = _search_source(pattern)
    if source is None:
        return None
    namespace: dict = {}
    exec(compile(source, "<through-edge searches>", "exec", dont_inherit=True), namespace)
    return namespace["searches"]


def _search_source(pattern: OrderedGraph) -> Optional[str]:
    """The source of ``through_edge_search``'s searches for ``pattern``, or None.

    It holds names and the integer literals of the pattern's vertices, no
    other text.  ``searches(n)`` binds the room masks r<i> and defines
    ``least`` and ``refused``.  In each, a template is a guard on its
    limit masks, computed once per call as int locals l<i>, then the
    placements of its unpinned vertices i in the kernel's order (m<i> the
    untried candidates, y<i> = 1 << x<i> the one placed), then a leaf:
    ``least``'s keeps the copy if it is the least so far, and
    ``refused``'s is the template's refusal test.  The pinned images u
    and v are not placed: their forward masks fu, fv and the bounds au, av
    above them fold into the limits, and the masks that bound their
    predecessors, within bwd[u] and bwd[v], already imply the edges into
    them, which the kernel tests again.  A vertex whose image no later mask
    reads is placed once, at its least candidate (``walk``).  A leaf ends
    loops by zeroing their masks: ``least``'s all of them at the
    template's first copy, ``refused``'s those after b to resume at b, or
    all once no candidate is left.  None when the source would pass
    ``_MAX_SOURCE`` characters or ``_MAX_LOOPS`` nested loops.
    """
    k, preds = pattern.n, _predecessors(pattern)
    templates = _templates(pattern)
    lines: list[str] = []
    used: set[str] = set()  # the per-call masks the search being emitted reads
    rooms: set[int] = set()  # the vertices whose room masks either search reads
    deepest = 0

    def emit(depth: int, *texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def zero(depth: int, loops: Sequence[int]) -> None:
        if loops:
            emit(depth, " = ".join(f"m{i}" for i in loops) + " = 0")

    def guard(depth, b, codes, pinned, walk_preds, free, checked):
        """Emit the template's guard over ``checked`` and the limits of
        ``free``; the depth inside it and each free vertex's limit name.
        A limit that is one name another limit ANDs in goes unchecked."""
        parts = {}
        for i in free:
            parts[i] = [*_CODE_PARTS[codes[i]]] if i < b else [f"r{i}"]
            if i > b:
                rooms.add(i)
            if i - 1 in pinned:  # above the pinned image
                parts[i].append("a" + pinned[i - 1])
            parts[i] += ["f" + pinned[j] for j in walk_preds[i] if j in pinned]
            used.update(parts[i])
        limit = {i: p[0] if len(p) == 1 else f"l{i}" for i, p in parts.items()}
        implied = {name for p in parts.values() if len(p) > 1 for name in p}
        conds = list(checked)
        for i, p in parts.items():
            cond = f"(l{i} := {' & '.join(p)})" if len(p) > 1 else p[0]
            if cond not in conds and cond not in implied:
                conds.append(cond)
        if conds:
            emit(depth, f"if {' and '.join(conds)}:")
            depth += 1
        return depth, limit

    def walk(depth, order, pinned, limit, walk_preds, enum, named, leaf):
        """Emit the placements of ``order`` less ``pinned``, then ``leaf``.

        A vertex loops over its candidates when a later vertex's mask reads
        its image, or ``enum`` holds it; any other takes only its least
        one, since a larger one would only raise the next vertex's lower
        bound, so it can place no copy and refuse no candidate that the
        least one cannot.  That test is an ``if``, or none when the guard
        has checked the vertex's limit and nothing placed bounds it.  The
        image x<i> is named when read or ``named`` holds it, and y<i> also
        when the next vertex, placed or the leaf's b, is not pinned."""
        nonlocal deepest
        free = [i for i in order if i not in pinned]
        read = {j for i in free for j in walk_preds[i] if j not in pinned}
        loops = [i for i in free if i in read or i in enum]
        for i in free:
            terms = [limit[i], *([f"-(y{i - 1} << 1)"] if i - 1 in free else []),
                     *(f"fwd[x{j}]" for j in walk_preds[i] if j not in pinned)]
            named_i = i in read or i in named
            if i in loops:
                emit(depth, f"m{i} = {' & '.join(terms)}", f"while m{i}:")
                depth += 1
                emit(depth, f"y{i} = m{i} & -m{i}", f"m{i} ^= y{i}")
            else:
                mask = limit[i]
                if len(terms) > 1:
                    mask = f"m{i}"
                    emit(depth, f"if m{i} := {' & '.join(terms)}:")
                    depth += 1
                if named_i or i + 1 < k and i + 1 not in pinned:
                    emit(depth, f"y{i} = {mask} & -{mask}")
            if named_i:
                emit(depth, f"x{i} = y{i}.bit_length() - 1")
        deepest = max(deepest, len(loops))
        leaf(depth, loops)

    def search(head: list[str], prologue: dict[str, list[str]], tail: str, body) -> None:
        """Emit one search: ``head``, the ``prologue`` lines whose names the
        templates read, the templates (``body()``), then ``tail``."""
        at = len(lines)
        used.clear()
        body()
        templates_text = lines[at:]
        del lines[at:]
        emit(1, *head)
        for name, assign in prologue.items():
            if name in used:
                emit(2, *assign)
        lines.extend(templates_text)
        emit(2, tail)

    def least_templates() -> None:
        for t, (a, b, codes) in enumerate(templates):
            pinned = {a: "u", b: "v"}
            free = [i for i in range(k) if i not in pinned]
            depth, limit = guard(2, b, codes, pinned, preds, free, ())

            def leaf(depth: int, loops: list[int]) -> None:
                images = ", ".join(pinned.get(i, f"x{i}") for i in range(k))
                if t == 0:  # no copy before it
                    emit(depth, f"best = ({images})")
                else:
                    emit(depth, f"if (c := ({images})) < best:", "    best = c")
                zero(depth, loops)

            walk(depth, range(k), pinned, limit, preds, (), free, leaf)

    def refused_templates() -> None:
        for t, (a, b, codes) in enumerate(templates):
            pinned = {a: "u"}
            left = "cands & ~found" if t else "cands"  # the candidates not yet refused
            row_preds = [*preds[:b], tuple(i for i in preds[b] if i != a), *preds[b + 1:]]
            into = row_preds[b]
            if b < k - 2:  # resume at b after each copy
                emit(2, f"lb = {left}")
                free = [i for i in range(k) if i not in (a, b)]
                depth, limit = guard(2, b, codes, pinned, row_preds, free, ["lb"])
                limit[b] = "lb & au" if b - 1 == a else "lb"
                if b - 1 == a:
                    used.add("au")

                def leaf(depth: int, loops: list[int]) -> None:
                    emit(depth, f"found |= y{b}", f"lb ^= y{b}")
                    zero(depth, [i for i in loops if i > b])
                    emit(depth, "if not lb:")
                    zero(depth + 1, [i for i in loops if i <= b])

                walk(depth, range(k), pinned, limit, row_preds, [b], (), leaf)
                continue
            # one placement of 0..b-1 refuses a mask of candidates: those
            # for which the tail vertex t = k - 1, if any, has an image above
            emit(2, f"last = {left}")
            free = [i for i in range(b) if i != a]
            depth, limit = guard(2, b, codes, pinned, row_preds, free, ["last"])
            tail = b < k - 1
            t_into = [j for j in preds[-1] if j < b] if tail else []
            if b - 1 == a:
                used.add("au")
            if a in t_into:
                used.add("fu")
            if tail:
                rooms.add(k - 1)

            def leaf(depth: int, loops: list[int]) -> None:
                nonlocal deepest
                above = "au" if b - 1 == a else f"-(y{b - 1} << 1)"
                emit(depth, "hit = " + " & ".join(["last", above, *(f"fwd[x{j}]" for j in into)]))
                if tail:
                    reach = [f"r{k - 1}", *("fu" if j == a else f"fwd[x{j}]" for j in t_into)]
                    emit(depth, "if hit:", f"    reach = {' & '.join(reach)}")
                    if b in preds[-1]:  # t in fwd[c], which lies above c
                        emit(depth + 1, "rest = hit", "hit = 0", "while rest:",
                             "    low = rest & -rest", "    rest ^= low",
                             "    if reach & fwd[low.bit_length() - 1]:", "        hit |= low")
                        deepest = max(deepest, len(loops) + 1)
                    else:  # below the highest image t may take
                        emit(depth + 1, "hit &= ((1 << reach.bit_length()) - 1) >> 1")
                emit(depth, "if hit:", "    found |= hit", "    last ^= hit")
                if loops:
                    emit(depth + 1, "if not last:")
                    zero(depth + 2, loops)

            read = [j for j in (*into, *t_into) if j != a]
            walk(depth, range(b), pinned, limit, row_preds, read, read, leaf)

    emit(0, "def searches(n):")
    search(
        ["def least(fwd, bwd, u, v):",
         "    if not 0 <= u < v < n:",
         '        raise ValueError(f"need 0 <= u < v < {n}, got u={u}, v={v}")',
         "    back = bwd[v]",
         "    if not back >> u & 1:",
         "        return None",
         "    best = (n,)  # above every copy"],
        {"bu": ["bu = (1 << u) - 1"], "back_u": ["back_u = bwd[u]"],
         "below": ["below = (1 << v) - 1"], "fu": ["fu = fwd[u]"], "fv": ["fv = fwd[v]"],
         "au": ["au = -(2 << u)"], "av": ["av = -(2 << v)"]},
        "return best if best[0] < n else None", least_templates)
    search(
        ["def refused(fwd, bwd, u, cands):", "    found = 0"],
        {"bu": ["bu = (1 << u) - 1"], "back_u": ["back_u = bwd[u]"],
         "below": ["below = ((1 << cands.bit_length()) - 1) >> 1"],
         "back": ["back = 0", "rest = cands", "while rest:", "    low = rest & -rest",
                  "    back |= bwd[low.bit_length() - 1]", "    rest ^= low"],
         "fu": ["fu = fwd[u]"], "au": ["au = -(2 << u)"]},
        "return found", refused_templates)
    emit(1, "return least, refused")
    lines[1:1] = ["    full = (1 << n) - 1"] * bool(rooms) + [
        f"    r{i} = full >> {k - i - 1}" for i in sorted(rooms)]
    source = "\n".join(lines) + "\n"
    return None if len(source) > _MAX_SOURCE or deepest > _MAX_LOOPS else source


def contains_ordered(pattern: OrderedGraph, host: OrderedGraph) -> Optional[tuple[int, ...]]:
    """The lexicographically first ordered copy of ``pattern`` in ``host``, or None."""
    return next(ordered_copies(pattern, host.forward_masks), None)


def monotone_p3(k: int = 3) -> OrderedGraph:
    """The increasing path on k vertices (k=3: the monotone path of length two)."""
    return OrderedGraph(k, [(i, i + 1) for i in range(k - 1)])


def has_monotone_p3(g: OrderedGraph) -> bool:
    """True iff some vertex has both a backward and a forward neighbour."""
    return find_monotone_p3(g) is not None


def find_monotone_p3(g: OrderedGraph) -> Optional[tuple[int, int, int]]:
    """A witness u < v < w with edges uv and vw, or None."""
    for v in range(g.n):
        back, fwd = g.backward(v), g.forward(v)
        if back and fwd:
            u = (back & -back).bit_length() - 1
            w = (fwd & -fwd).bit_length() - 1
            return (u, v, w)
    return None


def interval_chromatic(g: OrderedGraph) -> int:
    """Minimum number of order-intervals partitioning V with no internal edge.

    Leftmost-greedy extension: start a new interval exactly when the next
    vertex has a neighbour inside the current one.  Greedy is optimal for
    interval partitions (cross-checked exhaustively in tests).
    """
    parts, start = 1, 0
    for v in range(1, g.n):
        if g.backward(v) >> start:  # v has a neighbour in the current interval
            parts, start = parts + 1, v
    return parts


def pi_ordered(g: OrderedGraph) -> Fraction:
    """Complete-host density limit 1 - 1/(chi_interval - 1)."""
    chi = interval_chromatic(g)
    if chi < 2:
        raise ValueError("density limit is undefined for an edgeless pattern")
    return 1 - Fraction(1, chi - 1)


def build_hk(k: int) -> OrderedGraph:
    """The staircase H_k on [k] x {0,1}: edges (x,0)(y,1) for x <= y.

    Vertex (i, b) (1-based i) gets label 2(i-1) + b, so the labels carry the
    lexicographic order on pairs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = [(2 * a, 2 * b + 1) for a in range(k) for b in range(a, k)]
    return OrderedGraph(2 * k, edges)


class MonotonePathError(ValueError):
    """Raised when a pattern unexpectedly contains an increasing 2-edge path."""

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"pattern contains the increasing path {witness}")
        self.witness = witness


def embed_into_hk(g: OrderedGraph) -> tuple[int, ...]:
    """The explicit embedding v_i -> (i, len_i) of a path-free graph into H_k.

    len_i, the number of edges on the longest increasing path ending at v_i,
    is 1 when v_i has a backward neighbour and 0 otherwise, since g has no
    increasing 2-edge path; k = |V(g)|.
    """
    witness = find_monotone_p3(g)
    if witness is not None:
        raise MonotonePathError(witness)
    return tuple(2 * i + (g.backward(i) != 0) for i in range(g.n))
