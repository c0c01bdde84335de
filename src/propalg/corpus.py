"""Catalog of small spaces, pairs, covers, and equivariant complexes.

Everything here is built constructively (cycles, simplex boundaries, glued
grids, voltage covers) so each space is certified by its homology rather
than by a copied face list.
"""

from __future__ import annotations

import itertools
from math import gcd

from .coefficients import FgAbelian, GroupSpec, _direct_sum, _unit
from .endtowers import OMEGA, EndPeriodicComplex, MultiTower, Tower
from .tree_modules import FiniteTree, Partition
from .simplicial_products import (
    Chain,
    SimplicialCover,
    SimplicialSpace,
    boundary_complex,
    cyclic_cover,
    equivariant_complex,
    find_orientation_character,
    make_space,
    orientation_double_cover,
    product_space,
    simplicial_chain_map,
)


def point() -> SimplicialSpace:
    return make_space(1, [(0,)])


def interval(n: int = 1) -> SimplicialSpace:
    """A path with n edges on vertices 0..n, endpoints as subcomplex."""
    return make_space(n + 1, [(i, i + 1) for i in range(n)], [(0,), (n,)])


def circle(n: int = 3) -> SimplicialSpace:
    if n < 3:
        raise ValueError("a simplicial circle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return make_space(n, edges)


def circle_loop(n: int = 3):
    """Fundamental cycle of circle(n): edges oriented around the loop."""
    from .simplicial_products import Chain
    K = circle(n)
    coeffs = {(i, i + 1): 1 for i in range(n - 1)}
    coeffs[(0, n - 1)] = -1
    return Chain(K, 1, coeffs)


def full_triangle() -> SimplicialSpace:
    return make_space(3, [(0, 1, 2)])


def disk_pair() -> SimplicialSpace:
    """The 2-simplex relative to its boundary circle."""
    return make_space(3, [(0, 1, 2)], [(0, 1), (1, 2), (0, 2)])


def sphere2() -> SimplicialSpace:
    """Boundary of the 3-simplex."""
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return make_space(4, faces)


def torus7() -> SimplicialSpace:
    """Neighborly 7-vertex torus: faces {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return make_space(7, faces)


def rp2_6() -> SimplicialSpace:
    """Six-vertex projective plane (antipodal icosahedron quotient).

    Every one of the 15 edges lies in exactly two of the ten faces.
    """
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
             (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    return make_space(6, faces)


def _square_complex(nx: int, ny: int, glue: str):
    """Triangulated nx-by-ny grid of squares with identified boundary.

    glue: "none" (disk), "cylinder" (left-right), "torus", or "klein"
    (left-right glued, top glued to bottom with an x-flip).  Unglued
    boundary edges become the subcomplex.  Returns the space and its
    vertex map, grid point (i, j) -> vertex.
    """
    parent = {}

    def find(p):
        while parent.get(p, p) != p:
            p = parent[p] = parent.get(parent[p], parent[p])
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)

    pts = [(i, j) for i in range(nx + 1) for j in range(ny + 1)]
    if glue in ("cylinder", "torus", "klein"):
        for j in range(ny + 1):
            union((0, j), (nx, j))
    if glue == "torus":
        for i in range(nx + 1):
            union((i, 0), (i, ny))
    if glue == "klein":
        for i in range(nx + 1):
            union((nx - i, 0), (i, ny))

    reps = sorted({find(p) for p in pts})
    rid = {r: k for k, r in enumerate(reps)}

    def vid(p):
        return rid[find(p)]

    tris = set()
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            for t in ((a, b, c), (b, c, d)):
                tt = tuple(sorted(vid(p) for p in t))
                if len(set(tt)) != 3 or tt in tris:
                    raise ValueError("grid too coarse for a simplicial quotient")
                tris.add(tt)

    sub = set()
    if glue == "none":
        border = [((i, 0), (i + 1, 0)) for i in range(nx)]
        border += [((i, ny), (i + 1, ny)) for i in range(nx)]
        border += [((0, j), (0, j + 1)) for j in range(ny)]
        border += [((nx, j), (nx, j + 1)) for j in range(ny)]
        for e in border:
            sub.add(tuple(sorted(vid(p) for p in e)))
    elif glue == "cylinder":
        for i in range(nx):
            sub.add(tuple(sorted((vid((i, 0)), vid((i + 1, 0))))))
            sub.add(tuple(sorted((vid((i, ny)), vid((i + 1, ny))))))

    return make_space(len(reps), tris, sub), vid


def torus_grid(n: int = 3) -> SimplicialSpace:
    return _square_complex(n, n, "torus")[0]


def klein_grid() -> SimplicialSpace:
    return _square_complex(4, 4, "klein")[0]


def annulus() -> SimplicialSpace:
    """Triangulated cylinder, both boundary circles as the subcomplex."""
    return _square_complex(3, 1, "cylinder")[0]


def moebius5() -> SimplicialSpace:
    """Five-vertex Moebius band {i, i+1, i+2} mod 5, boundary as subcomplex."""
    faces = [tuple(sorted((i % 5, (i + 1) % 5, (i + 2) % 5))) for i in range(5)]
    edge_count = {}
    for f in faces:
        for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2])):
            edge_count[e] = edge_count.get(e, 0) + 1
    border = [e for e, c in edge_count.items() if c == 1]
    return make_space(5, faces, border)


def wedge_s1_s2() -> SimplicialSpace:
    """Circle on {0,1,2} glued to a 2-sphere on {0,3,4,5} at vertex 0."""
    circ = [(0, 1), (1, 2), (0, 2)]
    sph = [(0, 3, 4), (0, 3, 5), (0, 4, 5), (3, 4, 5)]
    return make_space(6, circ + sph)


def _oriented(builder):
    K = builder()
    char = find_orientation_character(K)
    if char is None:
        raise RuntimeError(f"no orientation character found for {builder.__name__}")
    return K.with_character(char)


def rp2_twisted() -> SimplicialSpace:
    """RP^2 with its orientation character attached."""
    return _oriented(rp2_6)


def klein_twisted() -> SimplicialSpace:
    return _oriented(klein_grid)


def moebius_twisted() -> SimplicialSpace:
    return _oriented(moebius5)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def circle_voltage(n: int) -> dict:
    """Edge voltages on circle(n) whose total around the loop is +1."""
    return {(0, n - 1): -1}


def circle_cover(n: int = 3, sheets: int = 2) -> SimplicialCover:
    """Connected cyclic cover of circle(n) by circle(n*sheets)."""
    return cyclic_cover(circle(n), circle_voltage(n), sheets)


def sphere_over_rp2() -> SimplicialCover:
    return orientation_double_cover(rp2_twisted())


def torus_over_klein() -> SimplicialCover:
    return orientation_double_cover(klein_twisted())


def _grid_voltage(K, vid, n, axis):
    # the nonzero voltages on the edges of an n-by-n grid K with vertex map
    # vid: the change of grid coordinate axis along each edge, wrapped to
    # -1 or +1 on an edge across the seam.  vid is one-to-one on the grid
    # points (i, j) with i, j < n, so each vertex has one coordinate
    coord = {vid(p): p[axis] for p in itertools.product(range(n), repeat=2)}
    volt = {}
    for a, b in K.simplices_of(1):
        d = coord[b] - coord[a]
        d = -1 if d == n - 1 else 1 if d == 1 - n else d
        if d:
            volt[a, b] = d
    return volt


def torus_voltage(n: int = 3) -> dict:
    """Horizontal-displacement voltages on torus_grid(n)."""
    return _grid_voltage(*_square_complex(n, n, "torus"), n, 0)


# ---------------------------------------------------------------------------
# equivariant complexes over group rings
# ---------------------------------------------------------------------------


def circle_laurent_complex(n: int = 3):
    """Chain complex of the line as a free Z[t,1/t]-complex over circle(n)."""
    ring = GroupSpec("infinite-cyclic")
    return equivariant_complex(circle(n), circle_voltage(n), ring)


def circle_cyclic_complex(n: int = 3, sheets: int = 5):
    """Chain complex of the n*sheets-cycle as a free Z[C_sheets]-complex."""
    ring = GroupSpec("cyclic", sheets)
    return equivariant_complex(circle(n), circle_voltage(n), ring)


def torus_laurent_complex(n: int = 3):
    """Infinite cyclic cover of the torus, unwrapping one direction."""
    ring = GroupSpec("infinite-cyclic")
    return equivariant_complex(torus_grid(n), torus_voltage(n), ring)


def klein_laurent_complex():
    """Infinite cyclic cover of the Klein bottle along the flip direction.

    Unwraps the y direction: the deck generator reverses orientation, so
    the natural ring for duality here carries the -1 character.
    """
    K, vid = _square_complex(4, 4, "klein")
    ring = GroupSpec("infinite-cyclic", character=-1)
    return equivariant_complex(K, _grid_voltage(K, vid, 4, 1), ring)


# ---------------------------------------------------------------------------
# end-periodic complexes and towers
# ---------------------------------------------------------------------------


def line_complex() -> EndPeriodicComplex:
    """The line: a single edge as core, a point end on each side."""
    core = make_space(2, [(0, 1)])
    return EndPeriodicComplex(core, [[(0,)], [(1,)]])


def ray_complex() -> EndPeriodicComplex:
    """The half line: a single edge as core, one point end."""
    core = make_space(2, [(0, 1)])
    return EndPeriodicComplex(core, [[(1,)]])


def plane_complex() -> EndPeriodicComplex:
    """The plane: solid triangle core with its boundary circle as the end."""
    return EndPeriodicComplex(full_triangle(), [[(0, 1), (1, 2), (0, 2)]])


def cylinder_complex() -> EndPeriodicComplex:
    """Circle times line: a product core with a circle end on each side."""
    P = product_space(circle(3), make_space(2, [(0, 1)]))
    ends = [[s for s in P.simplices if all(v % 2 == b for v in s)] for b in (0, 1)]
    return EndPeriodicComplex(P, ends)


def end_fundamental_cycle(x: EndPeriodicComplex, e: int) -> Chain:
    """Fundamental cycle of the e-th frontier, for point and circle ends."""
    B, _ = x.frontier_space(e)
    if B.dim() == 0:
        return Chain(B, 0, {(0,): 1})
    if B.dim() != 1:
        raise ValueError("fundamental cycles are built for point and circle ends only")
    adj = {}
    for a, b in B.simplices_of(1):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    coeffs = {}
    prev, cur = None, 0
    while True:
        step = next(w for w in adj[cur] if w != prev)
        coeffs[(min(cur, step), max(cur, step))] = 1 if cur < step else -1
        prev, cur = cur, step
        if cur == 0:
            break
    return Chain(B, 1, coeffs)


def circle_telescope(levels: int = 3, base: int = 3):
    """Telescope of degree-2 circle self-maps, at the chain level.

    Level k is a circle on base*2^k vertices; the map down to level k-1
    wraps it around twice, v -> v mod half.  Returns (complexes, maps)
    in the shape tower_homology expects.
    """
    sizes = [base * 2 ** k for k in range(levels)]
    spaces = [circle(n) for n in sizes]
    complexes = [boundary_complex(S) for S in spaces]
    maps = [
        simplicial_chain_map(spaces[k + 1], spaces[k],
                             [v % sizes[k] for v in range(sizes[k + 1])])
        for k in range(levels - 1)
    ]
    return complexes, maps


# group towers with verified periodicity, drawn from a seeded rng; used by
# the property tests, which need many well-formed inputs cheaply


def random_fg_with_orders(rng):
    free = rng.randrange(0, 3)
    torsion = sorted(rng.choice([2, 3, 4, 9]) for _ in range(rng.randrange(0, 3)))
    orders = list(torsion) + [0] * free
    return FgAbelian.from_invariants(free, torsion), orders


def random_hom_matrix(rng, dom_orders, cod_orders):
    """Random well-defined map between from_invariants presentations.

    An entry from a generator of order d into one of order d' must be a
    multiple of d'/gcd(d, d'); torsion cannot hit a free generator.
    """
    out = []
    for dc in cod_orders:
        row = []
        for dd in dom_orders:
            if dd == 0:
                row.append(rng.randrange(-2, 3))
            elif dc == 0:
                row.append(0)
            else:
                row.append((dc // gcd(dd, dc)) * rng.randrange(-1, 2))
        out.append(row)
    return out


def random_periodic_tower(rng, length: int = 4) -> Tower:
    """Tower with declared period 1, sometimes behind a one-stage preperiod."""
    G, orders = random_fg_with_orders(rng)
    E = random_hom_matrix(rng, orders, orders)
    if length >= 3 and rng.random() < 0.4:
        H, horders = random_fg_with_orders(rng)
        f = random_hom_matrix(rng, orders, horders)
        return Tower([H] + [G] * (length - 1), [f] + [E] * (length - 2),
                     period=1, preperiod=1)
    return Tower([G] * length, [E] * (length - 1), period=1)


def random_multitower(rng, length: int = 4) -> MultiTower:
    entries = []
    for _ in range(rng.randrange(1, 3)):
        mult = OMEGA if rng.random() < 0.7 else rng.randrange(1, 4)
        entries.append((random_periodic_tower(rng, length), mult))
    return MultiTower(entries)


def random_split_ses(rng, length: int = 3):
    """Split short exact sequence of single-entry multitowers.

    The middle tower is the levelwise direct sum, with block-diagonal
    connecting maps; inclusions and projections are the constant block
    maps.  Returns (sub, total, quot, inclusions, projections).
    """
    A = random_periodic_tower(rng, length)
    C = random_periodic_tower(rng, length)
    stages = [_direct_sum(a, c) for a, c in zip(A.stages, C.stages)]
    sizes = [(a.ngens, c.ngens) for a, c in zip(A.stages, C.stages)]
    # block-diagonal connecting maps, Ma of stage j + 1 over Mc
    maps = [[row + [0] * sizes[j + 1][1] for row in Ma] + [[0] * sizes[j + 1][0] + row for row in Mc]
            for j, (Ma, Mc) in enumerate(zip(A.maps, C.maps))]
    qa = max(A.preperiod, C.preperiod)
    B = Tower(stages, maps, period=1, preperiod=qa)
    eye = {n: [_unit(n, i) for i in range(n)] for size in sizes for n in size}
    incs = [eye[na] + [[0] * na for _ in range(nc)] for na, nc in sizes]
    projs = [[[0] * na + row for row in eye[nc]] for na, nc in sizes]
    mult = OMEGA if rng.random() < 0.7 else 2
    return (MultiTower([(A, mult)]), MultiTower([(B, mult)]), MultiTower([(C, mult)]),
            [incs], [projs])


# ---------------------------------------------------------------------------
# trees and partitions
# ---------------------------------------------------------------------------


def path_tree(depth: int) -> FiniteTree:
    """Single chain with depth + 1 nodes."""
    return FiniteTree([None] + list(range(depth)))


def binary_tree(depth: int) -> FiniteTree:
    """Complete binary tree; node k has children 2k+1 and 2k+2."""
    n = 2 ** (depth + 1) - 1
    return FiniteTree([None] + [(k - 1) // 2 for k in range(1, n)])


def random_tree(rng, n_nodes=None, max_depth: int = 5) -> FiniteTree:
    if n_nodes is None:
        n_nodes = rng.randrange(1, 12)
    parent = [None]
    depth = [0]
    for _ in range(1, n_nodes):
        q = rng.choice([j for j in range(len(parent)) if depth[j] < max_depth])
        parent.append(q)
        depth.append(depth[q] + 1)
    return FiniteTree(parent)


def random_chain_partition(rng, tree: FiniteTree, n_labels: int = 3) -> Partition:
    """Valid by construction: each label rides one root-to-node chain."""
    assign = {q: set() for q in tree.nodes}
    labels = [f"s{i}" for i in range(n_labels)]
    for s in labels:
        q = rng.randrange(tree.n)
        while q is not None:
            assign[q].add(s)
            q = tree.parent[q]
    return Partition(tree, labels, assign)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SPACES = {
    "point": point,
    "interval": interval,
    "circle3": lambda: circle(3),
    "circle6": lambda: circle(6),
    "triangle": full_triangle,
    "disk-pair": disk_pair,
    "sphere": sphere2,
    "torus7": torus7,
    "torus-grid": torus_grid,
    "rp2": rp2_6,
    "rp2-twisted": rp2_twisted,
    "klein": klein_grid,
    "klein-twisted": klein_twisted,
    "moebius": moebius5,
    "moebius-twisted": moebius_twisted,
    "annulus": annulus,
    "wedge": wedge_s1_s2,
}

COVERS = {
    "circle-double": lambda: circle_cover(3, 2),
    "circle-triple": lambda: circle_cover(3, 3),
    "sphere-over-rp2": sphere_over_rp2,
    "torus-over-klein": torus_over_klein,
}

EQUIVARIANT = {
    "circle-laurent": circle_laurent_complex,
    "circle-c5": lambda: circle_cyclic_complex(3, 5),
    "torus-laurent": torus_laurent_complex,
    "klein-laurent": klein_laurent_complex,
}

END_PERIODIC = {
    "line": line_complex,
    "ray": ray_complex,
    "plane": plane_complex,
    "cylinder": cylinder_complex,
}
