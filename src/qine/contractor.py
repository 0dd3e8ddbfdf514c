"""Hull-consistency contraction for a single inequality constraint.

HC4-revise: the forward sweep evaluates every node of the expression
with the natural interval extension; the root is then intersected with
the feasible half-line of the relation, and one backward sweep projects
each node interval onto its operands.  There is no internal fixpoint
iteration: callers that want more contraction call again.

One generator, ``_compile_run``, compiles each expression into the
functions that the solver's node loop calls, each a loop over one
constraint's parameter copies, the domains of its entry in a solver
store: "prune" revises f <= 0 at each copy's parameter midpoint,
threading the variable bounds from copy to copy, "revise" revises f
against a half-line given as an argument over each copy's whole domain
and hulls the regions, "identify" is "revise" that keeps whole a copy on
which f may be undefined, and "pin" collapses each parameter coordinate
on which f is proven monotone over the box to its worst endpoint.  They
share the loads, the loop and the return, and their leaves read the
same per-copy locals.  "revise", "identify" and "pin" start each copy
from x's bounds, so a forward step whose subtree reads no parameter has
one value for all copies: its line runs once per call, before the loop.
"prune" threads x from copy to copy, so only its constant steps run
before the loop.  The body of the sweeps is the rest of the forward
code of ``expr.forward_sweep``, then one block per visit of the
backward sweep, in the order of a depth-first walk (left operand first,
a node reached along several paths visited once per path); that of
"pin" is one block of tangent code per parameter.  The body has no loop and no dispatch on
ops, and, like the tape, no depth limit.  A sweep's size is the number
of visits, which is the tape's length when only leaves are shared, as
in every parsed expression.  The kernels work on float bounds end to
end: a box and a copy are each a flat tuple (lo0, hi0, lo1, hi1, ...),
the arithmetic and the midpoints call interval.py's functions, and
intersections, hulls and empty checks are float comparisons; a box or
copy that was not cut is returned as it came.  ``hc4_revise`` is the
"revise" function on a list of one copy, between Boxes.

A visit skips its projection when the narrowing left the node's forward
value as it was and the projection could not cut it (see ``hc4_revise``).

The same machinery contracts with respect to f <= 0 or f >= 0, which
lets the solver run the negation of a constraint to identify regions
where the original is satisfied everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .interval import _E, EMPTY, Box, Interval, _exponent, _midpoint, _rebox, _unchecked
from .expr import _BINARY, _LEAVES, _OPS, _PARTIAL, _TAPES, Expression, _compile, _forward_code, _Step, _tape
from .expr import _tangent_code

__all__ = ["QuantifiedConstraint", "hc4_revise", "backward_project"]


@dataclass(frozen=True, slots=True)
class QuantifiedConstraint:
    """One constraint f <= 0 with its private copy of the parameter domain."""

    f: Expression
    param_domain: Box


_qc = _unchecked(QuantifiedConstraint)

# Projection rules on float bounds, written once for both the compiled
# sweeps and ``backward_project``.  For each operand a rule gives the
# (lo, hi) of the inverse image of the node's narrowed value c under the
# op, given the other operand, as one Python expression: {c}l and {c}h
# are c's bounds, {l}l, {l}h and {r}l, {r}h the operands' current values
# and {n} a pow's exponent.  The operand is then intersected with it.
# sin and cos have unbounded inverse images, so they leave the operand
# unchanged; a 0th power is constantly 1, so its inverse image is every
# real when c holds 1 and none otherwise.  An even power's inverse image
# is the root and its negation: the operand is intersected with each and
# the two parts are hulled.
_PROJECT = {
    "add": ("_add({c}l, {c}h, -{r}h, -{r}l)", "_add({c}l, {c}h, -{l}h, -{l}l)"),
    "sub": ("_add({c}l, {c}h, {r}l, {r}h)", "_add({l}l, {l}h, -{c}h, -{c}l)"),
    "mul": ("_div({c}l, {c}h, {r}l, {r}h)", "_div({c}l, {c}h, {l}l, {l}h)"),
    "div": ("_mul({c}l, {c}h, {r}l, {r}h)", "_div({l}l, {l}h, {c}l, {c}h)"),
    "neg": ("-{c}h, -{c}l",),
    "sqrt": ("_sqr(0.0 if 0.0 > {c}l else {c}l, {c}h)",),  # c cut to [0, inf), squared
    "exp": ("_log({c}l, {c}h)",),
    "log": ("_exp({c}l, {c}h)",),
    "sin": ("-_INF, _INF",),
    "cos": ("-_INF, _INF",),
    "pow0": ("(-_INF, _INF) if {c}l <= 1.0 <= {c}h else _E",),
    "pow1": ("{c}l, {c}h",),
    "pow_odd": ("_root({c}l, {c}h, {n})",),
    "pow_even": ("_root({c}l, {c}h, {n})",),
}
_NAMESPACE = {**_OPS, "_E": _E, "_INF": math.inf, "EMPTY": EMPTY, "_midpoint": _midpoint}


def _rule(op: str, n: object) -> str:
    if op != "pow":
        return op
    return "pow0" if n == 0 else "pow1" if n == 1 else "pow_odd" if n % 2 else "pow_even"


def _meet(dst: str, s: str, o: str) -> str:
    """The line ``dst = s ∩ o``, each operand a pair of locals such as sl, sh.

    It picks the bounds as ``Interval.intersect`` does, signed zeros
    included: o's where it lies strictly inside s, else s's.  The result
    is empty when lo > hi, though not always the pair (inf, -inf).
    """
    return f"{dst}l, {dst}h = {o}l if {o}l > {s}l else {s}l, {o}h if {o}h < {s}h else {s}h"


def _projection(rule: str, c: str, operands: Sequence[str], n: object, targets: Sequence[str]) -> list[str]:
    """Lines that set each target to its operand's projection under the rule."""
    lines: list[str] = []
    for template, s, t in zip(_PROJECT[rule], operands, targets):
        lines.append(f"{t}l, {t}h = " + template.format(c=c, l=operands[0], r=operands[-1], n=n))
        if rule == "pow_even":
            lines += [_meet("a", s, t), f"bl, bh = -{t}h, -{t}l", _meet("b", s, "b")]
            lines.append(f"{t}l, {t}h = (bl, bh) if al > ah else (al, ah) if bl > bh else "
                         f"(bl if bl < al else al, bh if bh > ah else ah)")
        else:
            lines.append(_meet(t, s, t))
    return lines


_PROJECTORS: dict[str, Callable] = {}  # backward_project's rules, built on first use


def backward_project(
    op: str,
    node_interval: Interval,
    child_intervals: Sequence[Interval],
    exponent: int | None = None,
) -> tuple[Interval, ...]:
    """Project a node interval onto its children.

    Each returned interval is the corresponding child intersected with
    the inverse image of ``node_interval`` under the operation, given
    the other children (the rules of ``_PROJECT``).  An empty result
    means the constraint is infeasible over the current domains.  A pow
    takes an integer exponent from 0 to ``interval.MAX_EXPONENT``.
    """
    if op == "pow":
        _exponent(exponent, 0)
    elif op not in _PROJECT or op.startswith("pow"):  # a pow's rule names are no ops
        raise ValueError(f"unknown operation {op!r}")
    key = _rule(op, exponent)
    project = _PROJECTORS.get(key)
    if project is None:
        k = len(_PROJECT[key])
        operands, targets = ("l", "r")[:k], ("o0", "o1")[:k]
        lines = [f"{v}l, {v}h = {v}.lo, {v}.hi" for v in ("c", *operands)]
        lines += _projection(key, "c", operands, "n", targets)
        lines.append("return " + "".join(f"EMPTY if {t}l > {t}h else _iv({t}l, {t}h), " for t in targets))
        project = _PROJECTORS[key] = _compile(f"project_{key}", "c, l, r=None, n=None", lines, dict(_NAMESPACE))
    return project(node_interval, *child_intervals, n=exponent)


def _rebuilt(whole: str, flat: str, read: Sequence[int], new: str, old: str | None) -> str:
    """Source of ``whole``, or of it rebuilt when a read coordinate moved.

    ``whole`` has the flat bounds ``flat``, (lo0, hi0, lo1, hi1, ...).
    Each read coordinate j now has the bounds {new}{j}l, {new}{j}h and
    came in with {old}{j}l, {old}{j}h, or with its bounds in ``flat`` when
    old is None.  A cut moves a bound strictly inward and a meet keeps its
    own bound on a tie, so equal bounds mean the same bits.  A rebuilt
    tuple takes every other bound from ``flat``.
    """
    if not read:
        return whole
    bounds = {j: (f"{flat}[{2 * j}]", f"{flat}[{2 * j + 1}]") for j in range(max(read) + 1)}
    same = " and ".join(
        f"{new}{j}l == {lo} and {new}{j}h == {hi}"
        for j, (lo, hi) in ((j, bounds[j] if old is None else (f"{old}{j}l", f"{old}{j}h")) for j in read)
    )
    items = ", ".join(f"{new}{j}l, {new}{j}h" if j in read else ", ".join(pair) for j, pair in bounds.items())
    return f"({whole} if {same} else ({items}) + {flat}[{2 * len(bounds)}:])"


def _undefined(steps: Sequence[_Step]) -> str | None:
    """The test that f may be undefined on the box, from its forward values; None for a total tape.

    A quotient is undefined where its divisor holds 0, a square root where
    its operand is negative and a logarithm where its operand is not
    positive.  Like IEEE 1788's ``dac`` decoration, a copy whose test is
    false is defined and continuous on the whole box.
    """
    tests = {"div": "v{b}l <= 0.0 <= v{b}h", "sqrt": "v{a}l < 0.0", "log": "v{a}l <= 0.0"}
    found = [tests[op].format(a=a, b=b) for op, a, b in steps if op in tests]
    return " or ".join(found) or None


# the ops whose projection of their own forward value changes nothing (see hc4_revise)
_SETTLED_OPS = frozenset(_LEAVES + ("add", "sub", "mul", "neg", "pow", "sin", "cos"))


def _sweep(
    steps: Sequence[_Step], forward: Sequence[str], fail: str, keep: Sequence[str], undefined: str | None = None
) -> list[str]:
    """One copy's forward code, root check and HC4 backward sweep.

    ``fail`` is the statement that ends a copy whose value came out
    empty, and ``keep`` the lines that end one that came through, which
    the whole-tape settled shortcut runs before its ``continue``.  A copy
    for which the test ``undefined`` holds runs ``keep`` uncut, before
    the root check: an empty root value there means undefined, not
    violated.  v{i}
    is step i's forward value, c{i} the current value of a step reached
    along several paths (a single-path step's operands are read before
    its only visit, so they still hold their forward values), and n{w}
    the narrowed value handed to visit w (visits numbered as the walk
    meets them).

    Every op maps an empty operand to an empty result, so once the root
    passes its empty check every forward value is non-empty, and a visit
    that stops needs no empty check.  A stop hands the operands their
    current values, and their visits run as they would after the
    projection, so the code needs no jumps or nesting at any depth.
    """
    paths = [0] * len(steps)
    paths[-1] = 1
    for i in reversed(range(len(steps))):
        op, a, b = steps[i]
        if op not in _LEAVES:
            paths[a] += paths[i]
            if op in _BINARY:
                paths[b] += paths[i]
    cur = [f"c{i}" if n > 1 else f"v{i}" for i, n in enumerate(paths)]
    # when every step is a leaf or an op that stops, a stop at the root is
    # followed by stops alone, shared steps included, so the copy is done
    settled = all(op in _SETTLED_OPS for op, _, _ in steps)
    root = len(steps) - 1
    body = [*forward, *([f"if {undefined}: " + "; ".join([*keep, "continue"])] if undefined else [])]
    body += [_meet("n0", f"v{root}", "f"), f"if n0l > n0h: {fail}"]
    # the current value c{i} of a shared step starts at its forward value
    body += [f"c{i}l, c{i}h = v{i}l, v{i}h" for i, n in enumerate(paths) if n > 1]
    stack, visits = [(root, 0)], 1
    while stack:
        i, w = stack.pop()
        op, a, b = steps[i]
        n = f"n{w}"
        if paths[i] > 1:
            body.append(f"c{i}l, c{i}h = {n}l, {n}h")
        if op == "var" or op == "param":
            # no check of n itself: d only shrinks, so it is empty when n is
            d = f"{'x' if op == 'var' else 'y'}{a}"
            body += [_meet(d, d, n), f"if {d}l > {d}h: {fail}"]
        elif op == "const":
            if w:
                body.append(f"if {n}l > {n}h: {fail}")
        else:
            children = [(a, visits), (b, visits + 1)] if op in _BINARY else [(a, visits)]
            visits += len(children)
            targets = [f"n{v}" for _, v in children]
            operands = [cur[j] for j, _ in children]
            project = _projection(_rule(op, b), n, operands, b, targets)
            check = [f"if {n}l > {n}h: {fail}"] if w else []  # the root was checked above
            if op in _SETTLED_OPS:
                stop = "; ".join([*keep, "continue"]) if settled and not w else "; ".join(
                    f"{t}l, {t}h = {o}l, {o}h" for t, o in zip(targets, operands)
                )
                body += [f"if {n}l == v{i}l and {n}h == v{i}h: {stop}", *("el" + line for line in check)]
                body += ["else:", *(" " + line for line in project)]
            else:
                body += [*check, *project]
            stack.extend(reversed(children))
    return body


def _above(steps: Sequence[_Step], seed: Callable[[str, object], bool]) -> set[int]:
    """The steps whose subtree holds a step (op, a, _) for which seed(op, a) holds."""
    found: set[int] = set()
    for i, (op, a, b) in enumerate(steps):
        if seed(op, a) or op not in _LEAVES and (a in found or op in _BINARY and b in found):
            found.add(i)
    return found


def _pins(
    steps: Sequence[_Step], forward: Sequence[str], yr: Sequence[int], undefined: str | None, varying: set[int]
) -> tuple[list[str], list[str]]:
    """The forward lines the 2B+ pin blocks read that run once per call, and one copy's blocks.

    There is one block per parameter coordinate j in yr.  Coordinate j's
    block runs, when y{j} is not a point, the tangent code of
    ``expr._tangent_code`` seeded on y_j over the steps active for it,
    those whose subtree reads y_j or holds a div, sqrt or log, behind the
    forward lines that code reads, and collapses y{j} to its worst
    endpoint when the root's tangent has a sign and the test ``undefined``
    does not hold.  Partial steps are always active, so the block already
    computes the forward values that test reads.  Of those forward lines
    a block holds only the ``varying`` ones, the steps whose subtree
    reads a parameter; the others are the same for every copy and every
    block, and are returned to run once before the loop.
    """
    d, once, body = f"d{len(steps) - 1}", set(), []  # the root's tangent
    for j in yr:
        active = _above(steps, lambda op, a: (op, a) == ("param", j) or op in _PARTIAL)
        tangent, reads = _tangent_code(steps, {"param": "1.0, 1.0"}, active)
        for i in reversed(range(len(steps))):  # and the forward lines those lines read
            op, a, b = steps[i]
            if i in reads and op not in _LEAVES:
                reads.update((a, b) if op in _BINARY else (a,))
        once |= reads - varying
        defined = f" and not ({undefined})" if undefined else ""
        block = [*(forward[i] for i in sorted(reads & varying)), *tangent]
        block.append(f"if -_INF < {d}l <= {d}h < _INF{defined}:")
        block.append(f" if {d}l >= 0.0 and -_INF < y{j}h < _INF: y{j}l = y{j}h")
        block.append(f" elif {d}h <= 0.0 and -_INF < y{j}l < _INF: y{j}h = y{j}l")
        body += [f"if y{j}l != y{j}h:", *(" " + line for line in block)]
    return [forward[i] for i in sorted(once)], body


def _compile_run(steps: Sequence[_Step], purpose: str) -> Callable:
    """One tape's kernel over a list of its copies, for purpose "prune", "revise", "identify" or "pin".

    Boxes are flat tuples of float bounds (lo0, hi0, lo1, hi1, ...), and
    ``domains`` is a list of copies of the tape's expression f, each
    copy its parameter domain as such a tuple: the domains of f's entry
    in a solver store.

    ``prune(x, domains)`` revises f <= 0 for each copy in turn at its
    parameter midpoint (``interval._midpoint``), each on the variable
    bounds the previous copy left, and returns x', or None as soon as
    one copy empties the box.

    ``revise(x, domains, fl, fh, r)`` revises f against the half-line
    (fl, fh), (-inf, 0.0) for f <= 0 or (0.0, inf) for f >= 0, for each
    copy over its whole parameter domain, each from the bounds of x.  It
    returns (r', kept): r' is the hull of the hull r (None for no region
    yet) and each non-empty region in list order, r itself when every
    copy came out empty, and kept the copies with a non-empty region,
    each contracted.  "identify" is "revise" except that a copy on which
    f may be undefined (``_undefined``) keeps its whole domain and the
    whole box as its region; a tape with no div, sqrt or log compiles no
    such kernel of its own (``_kernel``).

    ``pin(x, domains)`` returns the copies, each with every parameter
    coordinate j that the tape reads and that is not a point collapsed to
    its upper endpoint when the partial derivative of f in y_j over x and
    the copy is non-negative, to its lower one when it is non-positive,
    and left whole when the enclosure is empty or unbounded, the endpoint
    is infinite or f may be undefined (``_pins``).  The coordinates go in
    index order, each seeing the pins before it.

    The kernels share the input loads, the loop over the copies and the
    return; the body after the copy's inputs is ``_sweep``'s or
    ``_pins``'s.  The loads run once per call, and so do the forward
    lines of the steps whose value cannot change from copy to copy: in
    "revise", "identify" and "pin", which start each copy from x's own
    bounds, every step whose subtree reads no parameter (in "pin" only
    those its blocks read); in "prune", which threads x{j} from copy to
    copy, only the steps that read no input at all, the constants.  The
    rest of the forward code runs in the loop, once per copy.  Every
    value is a pair of float locals, named by a prefix and l or h.  Each
    leaf reads the copy's x{j} or y{j}: x{j} holds the bounds threaded
    from copy to copy when pruning and x's own otherwise, y{j} the
    midpoint when pruning, the domain when revising and the domain as
    pinned so far when pinning.  p{j} holds x's bounds, h{j} the hull.  A box or copy none of whose read bounds moved is returned
    as it came, and a rebuilt one takes x's own bounds, or the copy's,
    wherever the tape does not read them (``_rebuilt``).
    """
    forward, namespace = _forward_code(steps, {"var": "x{a}l, x{a}h", "param": "y{a}l, y{a}h"})
    namespace.update(_NAMESPACE)
    xr, yr = (sorted({a for op, a, _ in steps if op == leaf}) for leaf in ("var", "param"))
    names = "".join(f", y{j}l, y{j}h" for j in yr)
    undefined = _undefined(steps)
    # the forward steps whose value may differ from copy to copy: those
    # that read a parameter, and when pruning, which threads x, a variable
    moving = ("var", "param") if purpose == "prune" else ("param",)
    varying = _above(steps, lambda op, a: op in moving)
    each = [line for i, line in enumerate(forward) if i in varying]
    once = [line for i, line in enumerate(forward) if i not in varying]
    x_in = [f"x{j}l, x{j}h = p{j}l, p{j}h" for j in xr]
    head = [f"p{j}l, p{j}h = x[{2 * j}], x[{2 * j + 1}]" for j in xr] + x_in
    params, start = "x, domains", [f"y{j}l, y{j}h = ys[{2 * j}], ys[{2 * j + 1}]" for j in yr]
    keep = [f"kept.append((ys{names}))" if yr else "kept.append(ys)"]
    copies = f"[{_rebuilt('ys', 'ys', yr, 'y', None)} for ys{names} in kept]" if yr else "kept"
    if purpose == "prune":  # x{j} threads the bounds from copy to copy, and no copy is kept
        head.append("fl, fh = -_INF, 0.0")
        start, keep = [f"y{j}l = y{j}h = _midpoint(ys[{2 * j}], ys[{2 * j + 1}])" for j in yr], []
        body = _sweep(steps, each, "return None", keep)
        result = _rebuilt("x", "x", xr, "x", "p")
    elif purpose in ("revise", "identify"):
        if xr:
            hull = ", ".join(f"h{j}l, h{j}h" for j in xr)
            head.append(f"{hull} = " + ", ".join(["_INF, -_INF"] * len(xr)))
            head.append(f"if r is not None: {hull} = " + ", ".join(f"r[{2 * j}], r[{2 * j + 1}]" for j in xr))
        # each copy's sweep narrows x{j}, so each starts again from x's bounds
        params, start = params + ", fl, fh, r", [*x_in, *start]
        # hull the region as Interval.hull does, min and max picking the
        # accumulated bound on ties, and keep the copy
        hulls = [f"h{j}l, h{j}h = x{j}l if x{j}l < h{j}l else h{j}l, x{j}h if x{j}h > h{j}h else h{j}h" for j in xr]
        keep = [*hulls, *keep]
        head.append("kept = []")
        # no point of the box violates a copy that is dropped
        body = _sweep(steps, each, "continue", keep, undefined if purpose == "identify" else None)
        result = _rebuilt("x", "x", xr, "h", "p") + f" if kept else r, {copies}"
    else:
        head.append("kept = []")
        once, body = _pins(steps, forward, yr, undefined, varying)  # only the lines the blocks read
        result = copies
    loop = ["for ys in domains:", *(" " + line for line in [*start, *body, *keep])]
    return _compile(purpose, params, [*head, *once, *loop, f"return {result}"], namespace)


def _kernel(f: Expression, purpose: str) -> Callable:
    """f's kernel for purpose "prune", "revise", "identify" or "pin", compiled on first use.

    A tape on which f is defined wherever its operands are identifies with
    its "revise" kernel.
    """
    steps, kernels = _TAPES.get(id(f)) or _tape(f)  # the memo read inline: a call saved per lookup
    kernel = kernels.get(purpose)
    if kernel is None:
        if purpose == "identify" and _undefined(steps) is None:
            kernel = _kernel(f, "revise")
        else:
            kernel = _compile_run(steps, purpose)
        kernels[purpose] = kernel
    return kernel


def hc4_revise(qc: QuantifiedConstraint, x: Box, *, geq: bool = False) -> tuple[Box, Box]:
    """Contract x and qc's parameter domain against qc.f <= 0, or qc.f >= 0 when geq.

    Returns boxes that contain every point of (x, qc.param_domain)
    satisfying the inequality; both are empty when no point does.  The
    result never grows: each output coordinate is a subset of its input,
    and a box none of whose coordinates was cut is returned as it came.
    Emptiness always shows in the variable part, which matters when the
    parameter domain has no coordinates at all.

    A visit of an add, sub, mul, neg, pow, sin or cos node stops when its
    narrowed value has the bounds of its forward value, and hands each
    operand its current value in place of the projection.  That changes
    nothing: a meet keeps an operand's own bounds unless it moves one
    strictly inward, so equal bounds mean the narrowing never cut the
    node, and for these ops the projection of the forward value onto
    operands inside their forward values returns the operands as they
    are.  The operands' own visits then run as in the full sweep, so the
    rule needs nothing of the nodes below or of other users of the node.
    sqrt and log are left out because their forward value drops the part
    of the operand outside their domain, so projecting it back cuts the
    operand; div because its projection multiplies back, and ENTIRE *
    [0, 0] = [0, 0] cuts a numerator divided by [0, 0]; exp because its
    round trip through log would rest on libm accuracy.  The comparison
    is with the forward value, never a shared node's current value, and
    the node's slot is assigned before it, as a full sweep would.

    This is the "revise" kernel of the expression's tape (see
    ``_compile_run``) on the one copy of qc in flat bounds, with the
    half-line (-inf, 0.0) or, when geq, (0.0, inf); the result is boxed
    keeping every interval whose bounds were not cut.  It takes no part
    of identification's rule for partial functions: it contracts to the
    points that satisfy the inequality.
    """
    fl, fh = (0.0, math.inf) if geq else (-math.inf, 0.0)
    region, kept = _kernel(qc.f, "revise")(x.bounds, (qc.param_domain.bounds,), fl, fh, None)
    if region is None:
        return Box.empty(len(x)), Box.empty(len(qc.param_domain))
    return _rebox(x, region), _rebox(qc.param_domain, kept[0])
