"""Label partitions on finite rooted trees and the free modules they span.

A partition assigns a finite label set to every branch of a rooted tree,
functorially in the branch and disjointly across incomparable branches.
The main operation, stabilize(), produces an explicit block matching that
absorbs the labels into copies of the vertex partition, together with a
certificate that can be checked independently.
"""

from operator import itemgetter

from .coefficients import _dense, _rmul, _sparse, _transpose

__all__ = [
    "FiniteTree",
    "Partition",
    "FreeTreeModule",
    "TreeModuleMap",
    "validate_partition",
    "standard_partition",
    "shifted_standard_partition",
    "intersect_partitions",
    "stabilize",
    "germ_equal",
]


def _label_key(x):
    # deterministic order for heterogeneous label sets
    return (x.__class__.__name__, str(x))


def _sorted_labels(xs):
    return sorted(xs, key=_label_key)


class FiniteTree:
    """Rooted tree on nodes 0..n-1 given by a parent array.

    Exactly one entry is None (the root).  The branch at a node p is the
    set of descendants of p, p included; the branch at the root is the
    whole tree.  Distinct branches are either nested or disjoint, which
    is what makes the partition axioms meaningful.
    """

    def __init__(self, parent):
        parent = tuple(parent)
        n = len(parent)
        if n == 0:
            raise ValueError("tree must have at least one node")
        roots = [i for i, q in enumerate(parent) if q is None]
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root (parent None)")
        self.root = roots[0]
        for i, q in enumerate(parent):
            if q is not None and (not isinstance(q, int) or not 0 <= q < n or q == i):
                raise ValueError(f"node {i}: invalid parent {q!r}")
        self.parent = parent
        self.n = n

        kids = [[] for _ in range(n)]
        for i, q in enumerate(parent):
            if q is not None:
                kids[q].append(i)
        self.children = tuple(tuple(k) for k in kids)

        # depth by walking up; also detects cycles
        depth = [None] * n
        depth[self.root] = 0
        for i in range(n):
            trail = []
            j = i
            while depth[j] is None:
                trail.append(j)
                j = parent[j]
                if j is None or len(trail) > n:
                    raise ValueError("parent array contains a cycle")
            for k, node in enumerate(reversed(trail)):
                depth[node] = depth[j] + k + 1
        self.depth = tuple(depth)
        self.max_depth = max(depth)

        branches = [None] * n
        for p in sorted(range(n), key=lambda q: -depth[q]):
            acc = {p}
            for c in self.children[p]:
                acc |= branches[c]
            branches[p] = frozenset(acc)
        self._branch = tuple(branches)

    @property
    def nodes(self):
        return range(self.n)

    def branch(self, p):
        return self._branch[p]

    def is_ancestor(self, p, q):
        """True when q lies in the branch at p (p == q counts)."""
        return q in self._branch[p]

    def leaves(self):
        return [p for p in range(self.n) if not self.children[p]]

    def __eq__(self, other):
        return isinstance(other, FiniteTree) and self.parent == other.parent

    def __hash__(self):
        return hash(self.parent)

    def __repr__(self):
        return f"FiniteTree({list(self.parent)})"

    def to_json(self):
        return {"tree": [q for q in self.parent]}

    @classmethod
    def from_json(cls, data):
        return cls(data["tree"])


class Partition:
    """Assignment of a subset of a finite label set S to every branch.

    Stored per node: the set attached to the branch rooted there; the
    root entry is the value on the whole tree.  The constructor only
    checks shape.  Whether the assignment satisfies the partition axioms
    is a verdict, produced by validate_partition().
    """

    def __init__(self, tree, labels, assign):
        if not isinstance(tree, FiniteTree):
            raise ValueError("tree must be a FiniteTree")
        self.tree = tree
        self.labels = frozenset(labels)
        vals = []
        assign = dict(assign)
        for p in tree.nodes:
            v = frozenset(assign.pop(p, ()))
            extra = v - self.labels
            if extra:
                raise ValueError(
                    f"node {p}: labels {_sorted_labels(extra)} not in S"
                )
            vals.append(v)
        if assign:
            raise ValueError(f"assignments for unknown nodes {sorted(assign)}")
        self.assign = tuple(vals)

    def of(self, p):
        """Value on the branch at p (on the whole tree when p is the root)."""
        return self.assign[p]

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.tree == other.tree
            and self.labels == other.labels
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.tree, self.labels, self.assign))

    def to_json(self):
        # S is ordered once; each node's set follows that order
        order = {x: i for i, x in enumerate(_sorted_labels(self.labels))}
        return {
            "tree": self.tree.to_json()["tree"],
            "S": list(order),
            "pi": {
                str(p): sorted(self.assign[p], key=order.__getitem__)
                for p in self.tree.nodes
                if self.assign[p]
            },
        }

    @classmethod
    def from_json(cls, data):
        tree = FiniteTree(data["tree"])
        pi = data.get("pi", {})
        assign = {}
        for key, vals in pi.items():
            assign[int(key)] = [tuple(v) if isinstance(v, list) else v for v in vals]
        labels = [tuple(v) if isinstance(v, list) else v for v in data["S"]]
        return cls(tree, labels, assign)


def validate_partition(p):
    """Check the partition axioms; report the first violation with a witness.

    Returns {"valid": bool, "axiom": None|"functor"|1|2, "witness": ...}.
    The functor condition (values grow along branch inclusions) is checked
    first, on parent edges, since the numbered axioms presuppose it.

    Axiom 2 (incomparable branches carry disjoint sets) is then checked as
    disjointness among the children of each node, in one pass over the
    sum of |p(q)|.  Siblings are incomparable; conversely two incomparable
    branches a and b lie inside distinct children c and c' of their lowest
    common ancestor, and by functoriality p(a) <= p(c) and p(b) <= p(c').
    The witness comes from the first node whose children are not disjoint:
    its first child c (in children order) meeting an earlier sibling,
    paired with the first sibling a it meets, and the labels p(a) & p(c).

    Set tests run first, in C over the node sets: p(q) <= p(parent) on
    every edge, and for each node whether the sizes of its children's sets
    add up to the size of their union.  The loops that choose a witness run
    only where such a test fails, so the witness rules above are unchanged.

    At finite scale every node set is compact, so axioms 3 and 4 as stated
    cannot fail outright.  Axiom 3 (leftover labels at each depth form a
    finite set) holds on any finite data.  The finite shadow of axiom 4,
    that the carriers of each label form a chain, is axiom 2 restricted to
    one label, so it needs no check of its own.
    """
    tree, S, sets = p.tree, p.labels, p.assign

    # functoriality on parent edges suffices: branches compose
    for q in tree.nodes:
        if q == tree.root or sets[q] <= sets[tree.parent[q]]:
            continue
        u = tree.parent[q]
        return {
            "valid": False,
            "axiom": "functor",
            "witness": {
                "node": q,
                "parent": u,
                "labels": _sorted_labels(sets[q] - sets[u]),
            },
        }

    # axiom 1: the whole tree carries all of S
    missing = S - p.of(tree.root)
    if missing:
        return {
            "valid": False,
            "axiom": 1,
            "witness": {"labels": _sorted_labels(missing)},
        }

    # axiom 2, as disjointness among the children of each node
    for u in tree.nodes:
        kids = [sets[c] for c in tree.children[u]]
        if sum(map(len, kids)) == len(frozenset().union(*kids)):
            continue
        owner = {}  # label -> position of the earlier sibling carrying it
        for i, c in enumerate(tree.children[u]):
            met = [owner[s] for s in p.of(c) if s in owner]
            if met:
                a = tree.children[u][min(met)]
                return {
                    "valid": False,
                    "axiom": 2,
                    "witness": {
                        "nodes": [a, c],
                        "labels": _sorted_labels(p.of(a) & p.of(c)),
                    },
                }
            owner.update(dict.fromkeys(p.of(c), i))

    return {"valid": True, "axiom": None, "witness": None}


def standard_partition(tree):
    """Each branch carries its own vertex set; S is the node set."""
    return Partition(
        tree, tree.nodes, {q: tree.branch(q) for q in tree.nodes}
    )


def shifted_standard_partition(tree, k=1):
    """Vertices assigned to the branch of their depth-k ancestor.

    Equivalently each branch carries only its vertices at relative depth
    at least k.  Intersecting with the standard partition returns this
    partition again, which is the point of the example.
    """
    if k < 0:
        raise ValueError("shift must be nonnegative")
    assign = {}
    for q in tree.nodes:
        if q == tree.root:
            assign[q] = set(tree.nodes)
        else:
            d = tree.depth[q] + k
            assign[q] = {v for v in tree.branch(q) if tree.depth[v] >= d}
    return Partition(tree, tree.nodes, assign)


def intersect_partitions(a, b):
    """Branchwise intersection of two partitions on the same tree and S.

    The result is validated before being returned; a failure (possible
    only when an input was already invalid) raises with the witness.
    Axioms 1, 2 and 4 survive intersection unconditionally, and axiom 3
    holds on any finite data.
    """
    if a.tree != b.tree:
        raise ValueError("partitions live on different trees")
    if a.labels != b.labels:
        raise ValueError("partitions have different label sets")
    out = Partition(
        a.tree, a.labels, {q: a.of(q) & b.of(q) for q in a.tree.nodes}
    )
    report = validate_partition(out)
    if not report["valid"]:
        raise ValueError(
            f"intersection fails axiom {report['axiom']}: {report['witness']}"
        )
    return out


# ---------------------------------------------------------------------------
# stabilization: matching labels into padded copies of the vertex partition
# ---------------------------------------------------------------------------


def _exit_blocks(p):
    """Block decomposition of V and S by first exit; p must be valid.

    Block q holds the vertex q itself plus every label whose deepest
    carrying branch is the one at q.  Vertices exit at their own branch
    since v sits in the vertex set of A_v and of nothing deeper.  In a
    valid partition the carriers of a label form a chain, so the first
    carrier met from the deepest node up is its deepest one.
    """
    tree = p.tree
    exit_at = {}
    for q in sorted(tree.nodes, key=lambda q: -tree.depth[q]):
        for s in p.of(q):
            exit_at.setdefault(s, q)
    blocks = {q: [("vertex", q)] for q in tree.nodes}
    for s in _sorted_labels(p.labels):
        blocks[exit_at[s]].append(("label", s))
    return blocks


def required_copies(p):
    """Least number of vertex-partition copies whose capacity suffices.

    Every element assigned within a branch must land in that branch, so
    each branch A needs |A| + |labels on A| slots out of copies * |A|.
    """
    tree = p.tree
    need = 1
    for q in tree.nodes:
        size = len(tree.branch(q))
        total = size + len(p.of(q))
        need = max(need, -(-total // size))
    return need


def stabilize(p, copies=None):
    """Absorb the labels of a valid partition into padded vertex copies.

    Returns (alpha, certificate).  alpha maps every tagged element
    ("vertex", v) or ("label", s) injectively to a slot (w, c) with w a
    vertex and 1 <= c <= copies, preserving first-exit blocks: an element
    exiting at the branch A_q lands on a vertex of A_q.  Slot (q, 1) is
    always taken by the vertex q itself, so every exit block meets its
    base slot.

    The certificate carries the padded count, the induced partitions
    tau = alpha o (pi u rho) and lambda = tau n rho, their validation
    reports, and the branchwise inclusions that exhibit the equivalence
    with the padded standard partition rho, whose branch at q holds the
    slots (w, c) with w in A_q and 1 <= c <= copies.

    Time is linear in the certificate, the sum of |tau(q)|, in set
    operations.  When lambda has the sets of tau, its JSON and report are
    copies of tau's: both read only the tree, the label set and the sets.

    copies below the required minimum is a capacity error naming the
    minimum; the default uses exactly the minimum.  copies other than an
    int (a bool included) is a ValueError.
    """
    report = validate_partition(p)
    if not report["valid"]:
        raise ValueError(
            f"partition fails axiom {report['axiom']}: {report['witness']}"
        )
    tree = p.tree
    need = required_copies(p)
    n = need if copies is None else copies
    # bool is an int subclass; True would pass as one copy
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"copies must be an integer, not {n!r}")
    if n < need:
        raise ValueError(
            f"capacity exhausted at finite depth: {n} copies given, "
            f"{need} required"
        )

    blocks = _exit_blocks(p)
    used = set()
    alpha = {}
    # deepest blocks first: ancestors then fill leftover shallow capacity
    for q in sorted(tree.nodes, key=lambda q: (-tree.depth[q], q)):
        members = blocks[q]
        base = (q, 1)
        assert base not in used
        alpha[("vertex", q)] = base
        used.add(base)
        if len(members) == 1:
            continue
        # drawn lazily: each slot is tested against used when reached
        free = (
            (w, c)
            for w in sorted(tree.branch(q))
            for c in range(1, n + 1)
            if (w, c) not in used
        )
        for m in members[1:]:
            slot = next(free, None)
            if slot is None:  # pragma: no cover
                raise RuntimeError("capacity bound violated internally")
            alpha[m] = slot
            used.add(slot)
    return alpha, _certificate(p, alpha, blocks, n, need)


def _certificate(p, alpha, blocks, n, need):
    """The certificate of stabilize() for alpha on the blocks of valid p.

    tau(q), alpha of the vertices of A_q and of the labels of p(q), is
    alpha of the blocks at the nodes of A_q, since a label exits at its
    deepest carrier: the children's tau and alpha of block q.  lambda(q)
    keeps the slots (w, c) of tau(q) inside rho_n(q), with w in A_q and
    1 <= c <= n.  It is tau exactly when alpha is block preserving and
    every copy lies in 1..n.
    """
    tree, image = p.tree, frozenset(alpha.values())
    beyond = {s for s in image if not 1 <= s[1] <= n}  # copy outside 1..n

    def in_rho(q, slots):  # slots is a subset of image
        return (set(map(itemgetter(0), slots)) <= tree.branch(q)
                and beyond.isdisjoint(slots))

    tau_sets = {}
    for q in sorted(tree.nodes, key=lambda q: -tree.depth[q]):
        tau_sets[q] = frozenset(alpha[m] for m in blocks[q]).union(
            *(tau_sets[c] for c in tree.children[q])
        )
    tau = Partition(tree, image, tau_sets)
    tau_json, tau_report = tau.to_json(), validate_partition(tau)
    preserving = all(
        alpha[m][0] in tree.branch(q)
        for q, members in blocks.items()
        for m in members
    )
    if preserving and not beyond:
        lam, lam_json, lam_report = tau, _copied(tau_json), _copied(tau_report)
    else:
        lam = Partition(tree, image, {
            q: {s for s in t if in_rho(q, (s,))} for q, t in tau_sets.items()
        })
        lam_json, lam_report = lam.to_json(), validate_partition(lam)
    return {
        "copies": n,
        "required_copies": need,
        "block_sizes": {q: len(blocks[q]) for q in tree.nodes},
        "injective": len(image) == len(alpha),
        "hits_every_block": all((q, 1) in tau.of(q) for q in tree.nodes),
        "block_preserving": preserving,
        "tau": tau_json,
        "tau_report": tau_report,
        "lambda": lam_json,
        "lambda_report": lam_report,
        "lambda_in_tau": all(lam.of(q) <= tau.of(q) for q in tree.nodes),
        "lambda_in_rho": all(in_rho(q, lam.of(q)) for q in tree.nodes),
        "padding_surplus": n * tree.n - len(alpha),
    }


def _copied(data):
    """A copy of JSON data whose lists hold only labels, ints and None."""
    if isinstance(data, dict):
        return {k: _copied(v) for k, v in data.items()}
    return list(data) if isinstance(data, list) else data


# ---------------------------------------------------------------------------
# free modules on partitions
# ---------------------------------------------------------------------------


class FreeTreeModule:
    """Free module tower on a partition: basis over each branch.

    The basis attached to the branch at p is the label set the partition
    assigns there; branch inclusions act by the evident injections of
    bases.  The ring is one catalog group ring, constant over the tree.
    side records handedness so that duals land on the opposite side.
    """

    def __init__(self, partition, ring, side="left"):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.partition = partition
        self.tree = partition.tree
        self.ring = ring
        self.side = side

    def rank(self, q):
        return len(self.partition.of(q))

    def basis(self, q):
        return _sorted_labels(self.partition.of(q))

    def dual(self):
        """Opposite-sided dual with the same bases at every node.

        Free modules on a partition carry finitely supported coordinates,
        so dualizing keeps the basis and flips the side; applying it twice
        returns a module equal to the original, the identity on bases
        being the natural comparison.
        """
        other = "right" if self.side == "left" else "left"
        return FreeTreeModule(self.partition, self.ring, other)

    def __eq__(self, other):
        return (
            isinstance(other, FreeTreeModule)
            and self.partition == other.partition
            and self.ring == other.ring
            and self.side == other.side
        )

    def __repr__(self):
        return (
            f"FreeTreeModule(nodes={self.tree.n}, "
            f"ring={self.ring.kind}, side={self.side})"
        )


class TreeModuleMap:
    """Map of free tree modules: one matrix per node, rows over the target
    basis, columns over the source basis, compatible with the basis
    inclusions of both sides.

    Compatibility at a parent edge: the parent matrix, restricted to the
    columns of a child basis, must be supported on rows of the child
    basis and agree there with the child matrix.
    """

    def __init__(self, source, target, mats, check=True):
        if source.tree != target.tree:
            raise ValueError("source and target live on different trees")
        if source.ring != target.ring:
            raise ValueError("source and target have different rings")
        if source.side != target.side:
            raise ValueError("source and target have different sides")
        self.source = source
        self.target = target
        self.ring = source.ring
        mats = dict(mats)
        self.mats = {}
        for q in source.tree.nodes:
            A = mats.pop(q, None)
            r, c = target.rank(q), source.rank(q)
            if A is None:
                A = [[self.ring.zero()] * c for _ in range(r)]
            A = [list(row) for row in A]
            if len(A) != r or any(len(row) != c for row in A):
                raise ValueError(f"node {q}: matrix shape must be {r}x{c}")
            self.mats[q] = A
        if mats:
            raise ValueError(f"matrices for unknown nodes {sorted(mats)}")
        if check:
            self._check_compatibility()

    def _check_compatibility(self):
        tree = self.source.tree
        for q in tree.nodes:
            if q == tree.root:
                continue
            u = tree.parent[q]
            sb_q, sb_u = self.source.basis(q), self.source.basis(u)
            tb_q, tb_u = self.target.basis(q), self.target.basis(u)
            tq_pos = {y: i for i, y in enumerate(tb_q)}
            su_pos = {x: j for j, x in enumerate(sb_u)}
            tu_pos = {y: i for i, y in enumerate(tb_u)}
            if not (su_pos.keys() >= set(sb_q) and tu_pos.keys() >= set(tb_q)):
                raise ValueError(f"edge {u}->{q}: bases not nested")
            for j, x in enumerate(sb_q):
                ju = su_pos[x]
                for i, y in enumerate(tb_u):
                    val = self.mats[u][i][ju]
                    if y in tq_pos:
                        if val != self.mats[q][tq_pos[y]][j]:
                            raise ValueError(
                                f"edge {u}->{q}: matrices disagree on "
                                f"basis element {x!r}"
                            )
                    elif not val.is_zero:
                        raise ValueError(
                            f"edge {u}->{q}: image of {x!r} leaves the "
                            f"child basis at row {y!r}"
                        )

    @classmethod
    def identity(cls, module):
        mats = {}
        for q in module.tree.nodes:
            r = module.rank(q)
            mats[q] = [
                [module.ring.one() if i == j else module.ring.zero() for j in range(r)]
                for i in range(r)
            ]
        return cls(module, module, mats, check=False)

    def compose(self, other):
        """self o other, requiring other.target == self.source."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        zero = self.ring.zero()
        mats = {
            q: _dense(_rmul(_sparse(self.mats[q]), _sparse(other.mats[q])), other.source.rank(q), zero)
            for q in self.source.tree.nodes
        }
        return TreeModuleMap(other.source, self.target, mats, check=False)

    def dual(self):
        """Contravariant dual: transposed, involuted matrices on the duals."""
        zero = self.ring.zero()
        mats = {
            q: _dense(
                [{i: x.involve() for i, x in col.items()}
                 for col in _transpose(_sparse(self.mats[q]), self.source.rank(q))],
                self.target.rank(q),
                zero,
            )
            for q in self.source.tree.nodes
        }
        return TreeModuleMap(self.target.dual(), self.source.dual(), mats)

    def __eq__(self, other):
        return (
            isinstance(other, TreeModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.mats == other.mats
        )


def germ_equal(f, g, k):
    """Equality of maps after discarding the top k levels of the tree.

    Map germs at infinity compare maps on deep branches only; at finite
    scale that is equality of the node matrices at depth k and below.
    """
    if f.source.tree != g.source.tree:
        raise ValueError("maps live on different trees")
    tree = f.source.tree
    for q in tree.nodes:
        if tree.depth[q] >= k and f.mats[q] != g.mats[q]:
            return False
    return True
