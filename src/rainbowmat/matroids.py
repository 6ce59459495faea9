"""Independence oracles for five matroid species and the derived machinery.

This module owns the schema of every species.  A species declares its
fields once, as ``fields``: the ``describe()`` keys in constructor order.
``describe()`` is the one description of an oracle, and ``build_matroid``
is its exact inverse; the file layer only maps it to element names.

The base class computes every derived operation (rank, span, circuits,
augmentation) from the independence predicate alone, so a new species plugs
in without touching the rest of the library.  Each built-in species overrides
three hooks with a closed form: ``_circuit``, ``_extender`` (below) and
``_rank``.  The predicate-only base versions are the tests' references.
``fundamental_circuit`` checks that I is independent and I + x dependent;
package code that has proved both calls ``_circuit``.  ``rank`` checks its
input and asks ``_rank``, which reads the rank off the species' structure
with no predicate call: the capped size (uniform), the capped block counts
(partition), the size of a spanning forest (graphic), the size of a GF(p)
basis (linear), or the base rank of the value set (lift).

Each species' predicate ``_independent`` is a kernel below the call counter:
``is_independent`` checks the subset and counts the call, so a faster kernel
changes no count and no answer.  The graphic kernel is a union-find over the
endpoints a set touches, allocating nothing per vertex of the graph; the
linear kernel inserts columns into a GF(p) basis and stops at the first zero
residue.

An extension tester answers the question the searches ask most: for one
fixed base B, is B + x independent, for many x?  ``extender(base)``
returns a one-argument tester built by the species hook ``_extender``,
which reads B's structure once: its size (uniform), its block counts
(partition), the roots of its forest (graphic), its reduced GF(p) basis
(linear), or its value set and the base oracle's tester (lift).  Each
answer is exactly ``is_independent(base | {x})`` and counts as that call:
one on the oracle, and for a lift one more on the base oracle when the
values are distinct.  The hook is total: a dependent B refuses every x,
and x in B answers whether B is independent.  The predicate-only base
version is the reference.  When ``is_independent`` has been replaced, on
the class or on the oracle (a tracing or counting wrapper), ``extender``
returns the reference, so the replacement still sees every question.
Testers serve where one base meets many questions: the exact search's
used sets, the cat search's trail states and R, and the exchange-graph
search's current set.

Augmentation and circuit elimination each make one pass: an element
dependent on a set stays dependent on every larger one, and an element
needed for a circuit in a pool is needed in every smaller pool.

An oracle's fields never change after construction, and every answer is a
function of its inputs alone.  Its ``independence_calls`` counter does
change with every predicate call, so an oracle shared between callers
counts the calls of all of them.
"""

from __future__ import annotations


class MatroidSpecError(ValueError):
    """Raised when a matroid description is malformed."""


class PreconditionError(ValueError):
    """Raised when an operation's precondition is violated."""


#: The most lifts one oracle may nest.  Building, reading and asking a lift
#: recurse through every level, and a solve exhausts the interpreter's stack
#: at about 500 levels; the constructor and the file reader refuse more.
MAX_LIFT_DEPTH = 100

#: The largest field size ``LinearMatroid`` accepts: ``is_prime`` tests by
#: trial division, which takes milliseconds up to here and grows unbounded.
MAX_PRIME = 2**31 - 1


def _integer(value, where):
    """value, if it is an ``int`` that is not a ``bool``; otherwise a
    MatroidSpecError naming the field it came from."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MatroidSpecError(f"{where}: expected an integer, got {value!r}")
    return value


def require_integer(name, value):
    """value, if it is an ``int`` that is not a ``bool``; otherwise a
    PreconditionError naming it.  Checks a size or target a caller passes."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{name} {value!r} is not an integer")
    return value


def _entries(values, where):
    """The entries of values as a tuple; a MatroidSpecError naming the field
    if values is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise MatroidSpecError(
            f"{where}: expected a list, got {values!r}") from None


def _integers(values, where):
    """The entries of values as a tuple, each checked by ``_integer`` and
    named by its index.  When every entry's type is exactly ``int`` one
    pass over the types settles it, which keeps long fields cheap."""
    values = _entries(values, where)
    if not set(map(type, values)) <= {int}:
        for index, value in enumerate(values):
            _integer(value, f"{where}[{index}]")
    return values


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def gfp_reduce(rows, p):
    """Bring a list of equal-length rows over GF(p) to reduced row echelon
    form in place, by exact Gauss-Jordan elimination; returns the rank."""
    if not rows:
        return 0
    width = len(rows[0])
    r = 0
    for c in range(width):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(val * inv) % p for val in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] % p:
                f = rows[k][c]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


class MatroidOracle:
    """Base class: an independence predicate plus derived operations."""

    species = "abstract"
    #: The ``describe()`` keys, in constructor order, and the one of them
    #: that holds an entry per ground element (None if there is none).
    fields = ()
    element_field = None

    def __init__(self, ground_size):
        if _integer(ground_size, "ground_size") < 0:
            raise MatroidSpecError("ground_size must be nonnegative")
        self.ground_size = ground_size
        self.independence_calls = 0

    # --- species interface -------------------------------------------------

    def _independent(self, s):
        raise NotImplementedError

    def describe(self):
        """A JSON-friendly description of the oracle, for digests and docs."""
        raise NotImplementedError

    # --- independence ------------------------------------------------------

    def _check_subset(self, s):
        for x in s:
            if not 0 <= x < self.ground_size:
                raise PreconditionError(
                    f"element {x} outside ground set of size {self.ground_size}"
                )

    def is_independent(self, s):
        s = frozenset(s)
        self._check_subset(s)
        self.independence_calls += 1
        return self._independent(s)

    # --- derived operations ------------------------------------------------

    def max_independent_subset(self, s):
        """Greedy maximum independent subset of s, lowest ids first."""
        base = set()
        for x in sorted(s):
            base.add(x)
            if not self.is_independent(base):
                base.discard(x)
        return frozenset(base)

    def rank(self, s):
        """The size of a maximum independent subset of s."""
        s = frozenset(s)
        self._check_subset(s)
        return self._rank(s)

    def _rank(self, s):
        """Species hook of ``rank``, unchecked, for a frozenset s of the
        ground set.  This version is the greedy ``max_independent_subset``,
        one predicate call per element of s, and is the reference every
        species override is tested against."""
        return len(self.max_independent_subset(s))

    def span(self, s):
        """All elements spanned by s: s itself plus every x whose addition to
        a maximum independent subset of s creates a dependence."""
        s = frozenset(s)
        self._check_subset(s)
        base = self.max_independent_subset(s)
        out = set(s)
        for x in range(self.ground_size):
            if x in out:
                continue
            if not self.is_independent(base | {x}):
                out.add(x)
        return frozenset(out)

    def fundamental_circuit(self, i, x):
        """The unique minimal subset of independent i spanning x, for x with
        i + x dependent.  Returned without x itself."""
        i = frozenset(i)
        self._check_subset(i)
        if x in i:
            raise PreconditionError("x must lie outside I")
        if not self.is_independent(i):
            raise PreconditionError("I is dependent")
        if self.is_independent(i | {x}):
            raise PreconditionError("I + x is independent; no circuit to extract")
        return self._circuit(i, x)

    def _circuit(self, i, x):
        """Species hook of ``fundamental_circuit``, unchecked, for callers
        that proved frozenset i independent and i + x dependent: C(i, x) - x.

        This version asks the predicate once per element of i and is the
        reference every species override is tested against."""
        plus = i | {x}
        return frozenset(a for a in i if self.is_independent(plus - {a}))

    def extender(self, base):
        """A tester x -> ``is_independent(base | {x})`` for frozenset base
        and x in the ground set, counted as that call: the species hook's,
        unless ``is_independent`` has been replaced on the class or on
        this oracle, in which case the reference asks the replacement."""
        if getattr(self.is_independent, "__func__", None) is _PREDICATE:
            return self._extender(base)
        return MatroidOracle._extender(self, base)

    def _extender(self, base):
        """Species hook of ``extender``: total, with no precondition on
        base.  This version asks the predicate once per answer and is the
        reference every species override is tested against."""
        return lambda x: self.is_independent(base | {x})

    def _refuser(self):
        """The tester of a dependent base: every superset is dependent."""
        def refuses(x):
            self.independence_calls += 1
            return False
        return refuses

    def augment_from(self, i, j):
        """Elements of j \\ i that extend i to an independent set of size |j|,
        chosen by repeated single-element augmentation, lowest id first.

        One pass in id order suffices: an element dependent on the current
        set stays dependent on every larger one."""
        i = frozenset(i)
        j = frozenset(j)
        if not self.is_independent(i):
            raise PreconditionError("I is dependent")
        if not self.is_independent(j):
            raise PreconditionError("J is dependent")
        if len(i) >= len(j):
            raise PreconditionError("|I| must be smaller than |J|")
        current = set(i)
        for x in sorted(j - i):
            if len(current) == len(j):
                break
            if self.is_independent(current | {x}):
                current.add(x)
        if len(current) < len(j):
            raise AssertionError("augmentation property violated")
        return frozenset(current - i)

    def is_circuit(self, s):
        s = frozenset(s)
        self._check_subset(s)
        if self.is_independent(s):
            return False
        return all(self.is_independent(s - {y}) for y in s)

    def _lies_on_circuit(self, s, f):
        # f belongs to a circuit inside s  iff  f is spanned by s - f.
        if f not in s:
            return False
        rest = self.max_independent_subset(s - {f})
        return not self.is_independent(rest | {f})

    def eliminate_circuit(self, c1, c2, e, f):
        """A circuit containing f inside (c1 | c2) - e, for circuits c1, c2
        sharing e, with f in c1 only."""
        c1 = frozenset(c1)
        c2 = frozenset(c2)
        if not self.is_circuit(c1):
            raise PreconditionError("C1 is not a circuit")
        if not self.is_circuit(c2):
            raise PreconditionError("C2 is not a circuit")
        if e not in c1 or e not in c2:
            raise PreconditionError("e must lie in both circuits")
        if f not in c1 or f in c2:
            raise PreconditionError("f must lie in C1 but not in C2")
        pool = set((c1 | c2) - {e})
        # Drop every element not needed for a circuit through f; then the
        # pool itself is that circuit.  One pass suffices: an element needed
        # in the pool is needed in every smaller pool.
        for g in sorted(pool - {f}):
            if self._lies_on_circuit(pool - {g}, f):
                pool.discard(g)
        return frozenset(pool)


#: The library's own predicate, which the species testers stand in for.
_PREDICATE = MatroidOracle.is_independent


class UniformMatroid(MatroidOracle):
    """Independent iff at most rank_cap elements."""

    species = "uniform"
    fields = ("rank", "ground_size")

    def __init__(self, rank_cap, ground_size):
        super().__init__(ground_size)
        if _integer(rank_cap, "rank") < 0:
            raise MatroidSpecError("rank must be nonnegative")
        self.rank_cap = rank_cap

    def _independent(self, s):
        return len(s) <= self.rank_cap

    def _rank(self, s):
        return min(len(s), self.rank_cap)

    def _circuit(self, i, x):
        # i + x is dependent only when i is already full.
        return i

    def _extender(self, base):
        # base + x holds one element more than base unless x is in it.
        size, cap = len(base), self.rank_cap

        def extends(x):
            self.independence_calls += 1
            return size + (x not in base) <= cap
        return extends

    def describe(self):
        return {"type": "uniform", "rank": self.rank_cap,
                "ground_size": self.ground_size}


class PartitionMatroid(MatroidOracle):
    """Independent iff each block's count stays within its capacity."""

    species = "partition"
    fields = ("block_of", "capacity")
    element_field = "block_of"

    def __init__(self, block_of, capacity):
        block_of = _integers(block_of, "block_of")
        capacity = _integers(capacity, "capacity")
        super().__init__(len(block_of))
        for b, c in enumerate(capacity):
            if c < 0:
                raise MatroidSpecError(f"capacity of block {b} is negative")
        # One set comparison settles the common in-range case; it keeps the
        # constructor, type check included, as cheap as an element loop.
        if not set(block_of).issubset(range(len(capacity))):
            idx, b = next((idx, b) for idx, b in enumerate(block_of)
                          if not 0 <= b < len(capacity))
            raise MatroidSpecError(
                f"block label {b} of element {idx} out of range"
            )
        self.block_of = block_of
        self.capacity = capacity

    def _independent(self, s):
        counts = {}
        for x in s:
            b = self.block_of[x]
            counts[b] = counts.get(b, 0) + 1
            if counts[b] > self.capacity[b]:
                return False
        return True

    def _rank(self, s):
        # Each block holds at most its capacity of s.
        counts = {}
        for x in s:
            b = self.block_of[x]
            counts[b] = counts.get(b, 0) + 1
        return sum(min(c, self.capacity[b]) for b, c in counts.items())

    def _circuit(self, i, x):
        # Only x's block overflows, so only its members in i can make room.
        b = self.block_of[x]
        return frozenset(a for a in i if self.block_of[a] == b)

    def _extender(self, base):
        # Each block's count in base; x fits when its block has room.
        block_of, capacity = self.block_of, self.capacity
        counts = {}
        for a in base:
            b = block_of[a]
            counts[b] = counts.get(b, 0) + 1
            if counts[b] > capacity[b]:
                return self._refuser()

        def extends(x):
            self.independence_calls += 1
            if x in base:
                return True
            b = block_of[x]
            return counts.get(b, 0) < capacity[b]
        return extends

    def describe(self):
        return {"type": "partition", "block_of": list(self.block_of),
                "capacity": list(self.capacity)}


class GraphicMatroid(MatroidOracle):
    """Elements are edges of a multigraph; independent iff acyclic."""

    species = "graphic"
    fields = ("vertices", "edges")
    element_field = "edges"

    def __init__(self, num_vertices, edges):
        edges = tuple(_integers(edge, f"edges[{idx}]")
                      for idx, edge in enumerate(_entries(edges, "edges")))
        super().__init__(len(edges))
        if _integer(num_vertices, "vertices") < 0:
            raise MatroidSpecError("vertex count must be nonnegative")
        for idx, edge in enumerate(edges):
            if len(edge) != 2:
                raise MatroidSpecError(
                    f"edges[{idx}]: expected two endpoints, got {list(edge)}")
            u, v = edge
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise MatroidSpecError(
                    f"edge {idx} has an endpoint outside 0..{num_vertices - 1}"
                )
        self.num_vertices = num_vertices
        self.edges = edges

    def _independent(self, s):
        return self._forest(s) is not None

    def _rank(self, s):
        # Each edge joining two trees adds one key to the parent map.
        return len(self._forest(s, skip_cycles=True))

    def _forest(self, s, skip_cycles=False):
        """Union-find over the endpoints s touches, as a parent map; None
        as soon as an edge closes a cycle, or with ``skip_cycles`` the
        forest of the edges that close none.  A vertex is a root when it is
        not a key, so a call allocates nothing per vertex of the graph.
        Each find halves its path; a loop edge has u == v at once."""
        parent = {}
        edges = self.edges
        for x in s:
            u, v = edges[x]
            while u in parent:
                w = parent[u]
                if w in parent:
                    w = parent[u] = parent[w]
                u = w
            while v in parent:
                w = parent[v]
                if w in parent:
                    w = parent[v] = parent[w]
                v = w
            if u == v:
                if skip_cycles:
                    continue
                return None
            parent[u] = v
        return parent

    def _extender(self, base):
        # The root of every vertex base's forest touches; a vertex it does
        # not touch is a tree of its own.  x extends the forest when its
        # endpoints lie in different trees.
        parent = self._forest(base)
        if parent is None:
            return self._refuser()
        root = {}
        for u in parent:
            r = u
            while r in parent:
                r = parent[r]
            root[u] = r
        edges = self.edges

        def extends(x):
            self.independence_calls += 1
            if x in base:
                return True
            u, v = edges[x]
            return root.get(u, u) != root.get(v, v)
        return extends

    def _circuit(self, i, x):
        """The path joining x's endpoints in the forest i; empty for a
        loop."""
        u, v = self.edges[x]
        adjacent = {}
        for e in i:
            a, b = self.edges[e]
            adjacent.setdefault(a, []).append((b, e))
            adjacent.setdefault(b, []).append((a, e))
        # i + x is dependent, so v is reachable from u through i.
        via = {u: None}
        stack = [u]
        while v not in via:
            a = stack.pop()
            for b, e in adjacent.get(a, ()):
                if b not in via:
                    via[b] = (a, e)
                    stack.append(b)
        path = set()
        while via[v] is not None:
            v, e = via[v]
            path.add(e)
        return frozenset(path)

    def describe(self):
        return {"type": "graphic", "vertices": self.num_vertices,
                "edges": [list(e) for e in self.edges]}


class LinearMatroid(MatroidOracle):
    """Elements are columns over GF(p); independent iff linearly independent.

    All arithmetic is exact over the prime field; no floating point.
    """

    species = "linear"
    fields = ("prime", "columns")
    element_field = "columns"

    def __init__(self, prime, columns):
        columns = tuple(_integers(col, f"columns[{idx}]")
                        for idx, col in enumerate(_entries(columns, "columns")))
        super().__init__(len(columns))
        if _integer(prime, "prime") > MAX_PRIME:
            raise MatroidSpecError(f"prime {prime} exceeds {MAX_PRIME}")
        if not is_prime(prime):
            raise MatroidSpecError(f"{prime} is not prime")
        dims = {len(c) for c in columns}
        if len(dims) > 1:
            raise MatroidSpecError("columns have mixed dimensions")
        self.dimension = dims.pop() if dims else 0
        for idx, col in enumerate(columns):
            for entry in col:
                if not 0 <= entry < prime:
                    raise MatroidSpecError(
                        f"column {idx} entry {entry} not reduced modulo {prime}"
                    )
        self.prime = prime
        self.columns = columns

    def _independent(self, s):
        return self._basis(s) is not None

    def _rank(self, s):
        return len(self._basis(s, skip_dependent=True))

    def _basis(self, s, skip_dependent=False):
        """s's columns inserted into a basis of rows, each with a 1 at its
        own pivot and a 0 at the pivots of the rows before it; None as soon
        as a column's residue is zero, that is, when it lies in the span of
        the columns before it, or with ``skip_dependent`` the basis of the
        columns whose residue is not."""
        if len(s) > self.dimension and not skip_dependent:
            return None
        p = self.prime
        basis = []
        for x in s:
            v = self._residue(self.columns[x], basis)
            for pivot, a in enumerate(v):
                if a:
                    break
            else:
                if skip_dependent:
                    continue
                return None
            if a != 1:
                inv = pow(a, p - 2, p)
                v = [b * inv % p for b in v]
            basis.append((pivot, v))
        return basis

    def _residue(self, v, basis):
        """Column v reduced by each row of basis in turn: zero exactly
        when v lies in their span."""
        p = self.prime
        for pivot, row in basis:
            f = v[pivot]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return v

    def _extender(self, base):
        # base's basis, built once; x extends it when its residue is not
        # zero.
        basis = self._basis(base)
        if basis is None:
            return self._refuser()
        columns = self.columns

        def extends(x):
            self.independence_calls += 1
            return x in base or any(self._residue(columns[x], basis))
        return extends

    def _circuit(self, i, x):
        """The support of x's coordinates on the columns of i, read off one
        elimination of the matrix [cols(i) | x]."""
        basis = sorted(i)
        rows = [[self.columns[a][r] for a in basis] + [self.columns[x][r]]
                for r in range(self.dimension)]
        gfp_reduce(rows, self.prime)
        # The columns of i are independent, so column k pivots in row k,
        # whose last entry is then x's coordinate on basis[k].
        return frozenset(a for k, a in enumerate(basis) if rows[k][-1])

    def describe(self):
        return {"type": "linear", "prime": self.prime,
                "columns": [list(c) for c in self.columns]}


class ParallelLiftMatroid(MatroidOracle):
    """Lift of a matroid to a larger ground set through a value map.

    A set is independent iff its values are pairwise distinct and the value
    set is independent in the base matroid; elements sharing a value are
    parallel copies of each other.  At most ``MAX_LIFT_DEPTH`` lifts nest,
    this one included.
    """

    species = "lift"
    fields = ("value_of", "base")
    element_field = "value_of"

    def __init__(self, value_of, base):
        value_of = _integers(value_of, "value_of")
        super().__init__(len(value_of))
        if not isinstance(base, MatroidOracle):
            raise MatroidSpecError(f"base: expected an oracle, got {base!r}")
        #: How many lifts nest here, this one included.
        self.depth = base.depth + 1 if isinstance(
            base, ParallelLiftMatroid) else 1
        if self.depth > MAX_LIFT_DEPTH:
            raise MatroidSpecError(
                f"base: lifts nest more than {MAX_LIFT_DEPTH} deep")
        for idx, v in enumerate(value_of):
            if not 0 <= v < base.ground_size:
                raise MatroidSpecError(
                    f"value of element {idx} outside the base ground set"
                )
        self.value_of = value_of
        self.base = base

    def _independent(self, s):
        values = [self.value_of[x] for x in s]
        if len(set(values)) != len(values):
            return False
        return self.base.is_independent(values)

    def _rank(self, s):
        # Parallel copies count once: the rank of s is that of its values.
        return self.base._rank(frozenset(self.value_of[x] for x in s))

    def _circuit(self, i, x):
        """x's parallel copy in i if it has one, else the base circuit of x's
        value mapped back to the elements of i."""
        element_of = {self.value_of[a]: a for a in i}
        value = self.value_of[x]
        if value in element_of:
            return frozenset({element_of[value]})
        return frozenset(element_of[v] for v in
                         self.base._circuit(frozenset(element_of), value))

    def _extender(self, base):
        # base's values must be distinct; then x must bring a new value (a
        # copy of one in base is parallel to it) that extends them in the
        # base oracle, whose tester counts that call.
        value_of = self.value_of
        values = frozenset(value_of[a] for a in base)
        if len(values) != len(base):
            return self._refuser()
        extends_values = self.base.extender(values)

        def extends(x):
            self.independence_calls += 1
            value = value_of[x]
            if value in values and x not in base:
                return False
            return extends_values(value)
        return extends

    def describe(self):
        return {"type": "lift", "value_of": list(self.value_of),
                "base": self.base.describe()}


#: Every species by its ``describe()`` type.
_SPECIES = {cls.species: cls for cls in (
    UniformMatroid, PartitionMatroid, GraphicMatroid, LinearMatroid,
    ParallelLiftMatroid)}

#: The ``describe()`` keys of every species, in constructor order.
SPEC_FIELDS = {kind: cls.fields for kind, cls in _SPECIES.items()}


def build_matroid(spec, ground_size):
    """Build an oracle from its ``describe()`` form, the exact inverse of
    ``describe``.  ``ground_size`` is checked against the per-element field;
    a lift's base is built with None, which takes the form's own size.
    More than ``MAX_LIFT_DEPTH`` nested lifts are refused, before any is
    built, as the lift constructor refuses them."""
    inner, lifts = spec, 0
    while isinstance(inner, dict) and inner.get("type") == "lift":
        lifts += 1
        if lifts > MAX_LIFT_DEPTH:
            raise MatroidSpecError(
                f"base: lifts nest more than {MAX_LIFT_DEPTH} deep")
        inner = inner.get("base")
    if not isinstance(spec, dict) or "type" not in spec:
        raise MatroidSpecError("matroid description missing 'type'")
    t = spec["type"]
    cls = _SPECIES.get(t) if isinstance(t, str) else None
    if cls is None:
        raise MatroidSpecError(f"unknown matroid type {t!r}")
    if ground_size is not None:
        spec = {**spec, "ground_size": ground_size}
    args = []
    for key in cls.fields:
        if key not in spec:
            raise MatroidSpecError(f"{t} matroid: missing '{key}'")
        value = spec[key]
        if key == cls.element_field and ground_size is not None:
            value = _entries(value, key)
            if len(value) != ground_size:
                raise MatroidSpecError(
                    f"{t} matroid: '{key}' has {len(value)} entries, "
                    f"expected {ground_size}")
        if key == "base":
            try:
                value = build_matroid(value, None)
            except MatroidSpecError as exc:
                raise MatroidSpecError(f"base: {exc}") from exc
        args.append(value)
    return cls(*args)
