"""Trees, partitions, stabilization, and free tree modules."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from propalg.coefficients import GroupSpec
from propalg.corpus import (
    binary_tree,
    path_tree,
    random_chain_partition,
    random_tree,
)
from propalg.tree_modules import (
    FiniteTree,
    FreeTreeModule,
    Partition,
    TreeModuleMap,
    _certificate,
    _exit_blocks,
    _sorted_labels,
    germ_equal,
    intersect_partitions,
    required_copies,
    shifted_standard_partition,
    stabilize,
    standard_partition,
    validate_partition,
)

C5 = GroupSpec("cyclic", 5)


class TestFiniteTree:
    def test_no_root_rejected(self):
        with pytest.raises(ValueError, match="exactly one root"):
            FiniteTree([0, 0])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError, match="exactly one root"):
            FiniteTree([None, None])

    def test_bad_parent_rejected(self):
        with pytest.raises(ValueError, match="invalid parent"):
            FiniteTree([None, 7])

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="invalid parent"):
            FiniteTree([None, 1])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FiniteTree([None, 2, 1])

    def test_binary_tree_shape(self):
        t = binary_tree(2)
        assert t.n == 7
        assert t.root == 0
        assert t.depth == (0, 1, 1, 2, 2, 2, 2)
        assert t.max_depth == 2
        assert sorted(t.leaves()) == [3, 4, 5, 6]
        assert t.branch(1) == frozenset({1, 3, 4})
        assert t.branch(0) == frozenset(range(7))

    def test_ancestry(self):
        t = binary_tree(2)
        assert t.is_ancestor(1, 3)
        assert t.is_ancestor(3, 3)
        assert not t.is_ancestor(3, 1)
        assert not t.is_ancestor(1, 2)

    def test_json_round_trip(self):
        t = random_tree(random.Random(5))
        assert FiniteTree.from_json(t.to_json()) == t


class TestPartitionType:
    def test_unknown_label_rejected(self):
        t = path_tree(1)
        with pytest.raises(ValueError, match="not in S"):
            Partition(t, ["a"], {0: ["a", "b"]})

    def test_unknown_node_rejected(self):
        t = path_tree(1)
        with pytest.raises(ValueError, match="unknown nodes"):
            Partition(t, ["a"], {5: ["a"]})

    def test_missing_nodes_default_empty(self):
        t = path_tree(2)
        p = Partition(t, ["a"], {0: ["a"]})
        assert p.of(1) == frozenset()

    def test_json_round_trip(self):
        t = binary_tree(2)
        p = standard_partition(t)
        again = Partition.from_json(p.to_json())
        assert again == p

    def test_json_shape(self):
        t = path_tree(1)
        p = Partition(t, ["a"], {0: ["a"], 1: ["a"]})
        data = p.to_json()
        assert data == {"tree": [None, 0], "S": ["a"], "pi": {"0": ["a"], "1": ["a"]}}

    def test_json_sets_follow_the_label_order(self):
        # each node's set is listed as _sorted_labels would list it alone
        t = binary_tree(2)
        labels = [3, 10, "b", "a", (1, 2), (0, 5), ("x", 1), 2]
        rng = random.Random(7)
        assign = {p: rng.sample(labels, rng.randint(0, len(labels))) for p in t.nodes}
        assign[t.root] = labels
        data = Partition(t, labels, assign).to_json()
        assert data["S"] == _sorted_labels(labels)
        assert data["pi"] == {str(p): _sorted_labels(v) for p, v in assign.items() if v}


class TestValidatePartition:
    def test_standard_is_valid(self):
        for t in (path_tree(3), binary_tree(2), FiniteTree([None])):
            report = validate_partition(standard_partition(t))
            assert report == {"valid": True, "axiom": None, "witness": None}

    def test_shifted_is_valid(self):
        t = binary_tree(3)
        assert validate_partition(shifted_standard_partition(t, 1))["valid"]
        assert validate_partition(shifted_standard_partition(t, 2))["valid"]

    def test_axiom_1_missing_at_root(self):
        t = path_tree(1)
        p = Partition(t, ["a", "b"], {0: ["a"], 1: ["a"]})
        report = validate_partition(p)
        assert not report["valid"]
        assert report["axiom"] == 1
        assert report["witness"] == {"labels": ["b"]}

    def test_functor_violation(self):
        t = path_tree(2)
        p = Partition(t, ["a"], {0: ["a"], 2: ["a"]})
        report = validate_partition(p)
        assert report["axiom"] == "functor"
        assert report["witness"]["node"] == 2
        assert report["witness"]["parent"] == 1
        assert report["witness"]["labels"] == ["a"]

    def test_disjointness_violation(self):
        # same label on two incomparable branches
        t = binary_tree(1)
        p = Partition(t, ["a"], {0: ["a"], 1: ["a"], 2: ["a"]})
        report = validate_partition(p)
        assert report["axiom"] == 2
        assert report["witness"] == {"nodes": [1, 2], "labels": ["a"]}

    def test_functor_checked_before_axiom_1(self):
        t = path_tree(2)
        p = Partition(t, ["a", "b"], {0: ["a"], 2: ["b"]})
        assert validate_partition(p)["axiom"] == "functor"

    def test_valid_verdict_not_exception(self):
        t = binary_tree(1)
        p = Partition(t, ["a"], {0: ["a"], 1: ["a"], 2: ["a"]})
        assert validate_partition(p)["valid"] is False


class TestRandomValidation:
    def test_standard_on_hundred_random_trees(self):
        rng = random.Random(20260815)
        for _ in range(100):
            t = random_tree(rng, max_depth=5)
            assert validate_partition(standard_partition(t))["valid"]

    def test_chain_partitions_valid(self):
        rng = random.Random(7)
        for _ in range(40):
            t = random_tree(rng, max_depth=4)
            p = random_chain_partition(rng, t, n_labels=rng.randrange(5))
            assert validate_partition(p)["valid"]


# ---------------------------------------------------------------------------
# The pairwise validator and per-label exit scan that sibling disjointness
# replaced, kept as an oracle.  Both are quadratic: every pair of nodes for
# axiom 2, every pair of carriers per label for axiom 4, and every node per
# label for the first exits.
# ---------------------------------------------------------------------------


def _pairwise_validate(p):
    tree, S = p.tree, p.labels
    for q in tree.nodes:
        if q == tree.root:
            continue
        u = tree.parent[q]
        missing = p.of(q) - p.of(u)
        if missing:
            return {"valid": False, "axiom": "functor",
                    "witness": {"node": q, "parent": u, "labels": _sorted_labels(missing)}}
    missing = S - p.of(tree.root)
    if missing:
        return {"valid": False, "axiom": 1, "witness": {"labels": _sorted_labels(missing)}}
    for a in tree.nodes:
        for b in range(a + 1, tree.n):
            if tree.is_ancestor(a, b) or tree.is_ancestor(b, a):
                continue
            common = p.of(a) & p.of(b)
            if common:
                return {"valid": False, "axiom": 2,
                        "witness": {"nodes": [a, b], "labels": _sorted_labels(common)}}
    for s in _sorted_labels(S):
        carriers = [q for q in tree.nodes if s in p.of(q)]
        for a in carriers:
            for b in carriers:
                if a < b and not (tree.is_ancestor(a, b) or tree.is_ancestor(b, a)):
                    return {"valid": False, "axiom": 4, "witness": {"label": s, "nodes": [a, b]}}
    return {"valid": True, "axiom": None, "witness": None}


def _scan_first_exit(p, s):
    tree = p.tree
    carriers = [q for q in tree.nodes if s in p.of(q)]
    carriers.sort(key=lambda q: (tree.depth[q], q))
    return carriers[-1] if carriers else tree.root


def _scan_exit_blocks(p):
    blocks = {q: [("vertex", q)] for q in p.tree.nodes}
    for s in _sorted_labels(p.labels):
        blocks[_scan_first_exit(p, s)].append(("label", s))
    return blocks


@st.composite
def shuffled_partitions(draw):
    """A random tree with its nodes renumbered at random, and a partition.

    "chain" partitions are valid (each label rides one root-to-node
    chain); "closed" ones close one to three random carriers per label
    upward, so they obey the functor condition and axiom 1 and fail
    axiom 2 whenever two carriers are incomparable; "raw" ones assign
    arbitrary subsets, which mostly fail the functor condition or axiom 1.
    """
    n = draw(st.integers(1, 12))
    grown = [None] + [draw(st.integers(0, k - 1)) for k in range(1, n)]
    perm = draw(st.permutations(range(n)))
    parent = [None] * n
    for k in range(n):
        parent[perm[k]] = None if grown[k] is None else perm[grown[k]]
    tree = FiniteTree(parent)
    labels = [f"s{i}" for i in range(draw(st.integers(0, 6)))]
    kind = draw(st.sampled_from(("chain", "closed", "closed", "raw")))
    assign = {q: set() for q in tree.nodes}
    for s in labels:
        if kind == "raw":
            carriers = draw(st.sets(st.integers(0, n - 1)))
        else:
            size = 1 if kind == "chain" else draw(st.integers(1, 3))
            carriers = [draw(st.integers(0, n - 1)) for _ in range(size)]
        for q in carriers:
            while q is not None:
                assign[q].add(s)
                q = None if kind == "raw" else tree.parent[q]
    return Partition(tree, labels, assign)


class TestSiblingDisjointness:
    @settings(max_examples=400, deadline=None)
    @given(shuffled_partitions())
    def test_matches_pairwise_oracle(self, p):
        new, old = validate_partition(p), _pairwise_validate(p)
        assert (new["valid"], new["axiom"]) == (old["valid"], old["axiom"])
        if new["axiom"] == 2:
            a, c = new["witness"]["nodes"]
            tree = p.tree
            assert not (tree.is_ancestor(a, c) or tree.is_ancestor(c, a))
            common = p.of(a) & p.of(c)
            assert common and new["witness"]["labels"] == _sorted_labels(common)
        else:
            assert new == old
        if new["valid"]:
            assert _exit_blocks(p) == _scan_exit_blocks(p)

    def test_witness_is_first_pair_of_siblings(self):
        # the pairwise scan met (1, 2) first; the sibling pass meets their
        # ancestors 3 and 4, the children of the root
        t = FiniteTree([None, 3, 4, 0, 0])
        p = Partition(t, ["a"], {q: ["a"] for q in t.nodes})
        assert validate_partition(p)["witness"] == {"nodes": [3, 4], "labels": ["a"]}
        assert _pairwise_validate(p)["witness"] == {"nodes": [1, 2], "labels": ["a"]}

    def test_witness_pairs_with_first_sibling_met(self):
        t = FiniteTree([None, 0, 0, 0])
        p = Partition(t, ["x", "y", "z"],
                      {0: ["x", "y", "z"], 1: ["y"], 2: ["x", "z"], 3: ["x", "y", "z"]})
        assert validate_partition(p)["witness"] == {"nodes": [1, 3], "labels": ["y"]}

    def test_report_independent_of_hash_seed(self):
        # set iteration order of str labels follows PYTHONHASHSEED
        script = (
            "import json\n"
            "from propalg.tree_modules import FiniteTree, Partition, _exit_blocks, validate_partition\n"
            "t = FiniteTree([None, 0, 0, 0, 1, 2, 3])\n"
            "S = [f'label{i}' for i in range(40)]\n"
            "out = [validate_partition(Partition(t, S, {0: S, 1: S[:10], 2: S[10:20], 3: S[5:15]}))]\n"
            "p = Partition(t, S, {0: S, 1: S[:20], 4: S[:20:3], 2: S[20:], 5: S[25:]})\n"
            "out.append(validate_partition(p))\n"
            "out.append(sorted(_exit_blocks(p).items()))\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        # node 3 meets both earlier siblings; the first one is named
        assert runs[0][0]["witness"] == {"nodes": [1, 3], "labels": [f"label{i}" for i in range(5, 10)]}
        assert runs[0][1]["valid"]


class TestIntersect:
    def test_self_intersection(self):
        t = binary_tree(2)
        p = standard_partition(t)
        assert intersect_partitions(p, p) == p

    def test_standard_meets_shifted(self):
        t = binary_tree(3)
        rho = standard_partition(t)
        shifted = shifted_standard_partition(t, 1)
        assert intersect_partitions(rho, shifted) == shifted
        assert intersect_partitions(shifted, rho) == shifted

    def test_contained_in_both(self):
        rng = random.Random(31)
        for _ in range(25):
            t = random_tree(rng, max_depth=4)
            a = random_chain_partition(rng, t, n_labels=3)
            b = random_chain_partition(rng, t, n_labels=3)
            lam = intersect_partitions(a, b)
            for q in t.nodes:
                assert lam.of(q) <= a.of(q)
                assert lam.of(q) <= b.of(q)

    def test_tree_mismatch(self):
        a = standard_partition(path_tree(1))
        b = standard_partition(path_tree(2))
        with pytest.raises(ValueError, match="different trees"):
            intersect_partitions(a, b)

    def test_label_mismatch(self):
        t = path_tree(1)
        a = Partition(t, ["a"], {0: ["a"]})
        b = Partition(t, ["b"], {0: ["b"]})
        with pytest.raises(ValueError, match="different label sets"):
            intersect_partitions(a, b)

    def test_invalid_inputs_surface(self):
        # both miss a label at the root, so the intersection fails axiom 1
        t = path_tree(1)
        a = Partition(t, ["a", "b"], {0: ["a"]})
        with pytest.raises(ValueError, match="axiom 1"):
            intersect_partitions(a, a)


class TestRequiredCopies:
    def test_no_labels(self):
        t = binary_tree(2)
        p = Partition(t, [], {})
        assert required_copies(p) == 1

    def test_leaf_label_forces_two(self):
        t = path_tree(3)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        assert required_copies(p) == 2

    def test_many_labels_at_point(self):
        t = FiniteTree([None])
        p = Partition(t, ["a", "b", "c"], {0: ["a", "b", "c"]})
        assert required_copies(p) == 4


class TestStabilize:
    def test_empty_labels_identity(self):
        t = binary_tree(2)
        p = Partition(t, [], {})
        alpha, cert = stabilize(p)
        assert cert["copies"] == 1
        assert alpha == {("vertex", v): (v, 1) for v in t.nodes}

    def test_path_with_leaf_label(self):
        # single label riding the whole chain; worked out by hand
        t = path_tree(3)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        alpha, cert = stabilize(p)
        assert cert["copies"] == 2
        assert alpha == {
            ("vertex", 0): (0, 1),
            ("vertex", 1): (1, 1),
            ("vertex", 2): (2, 1),
            ("vertex", 3): (3, 1),
            ("label", "s"): (3, 2),
        }

    def test_binary_tree_leaf_labels(self):
        t = binary_tree(2)
        assign = {}
        for leaf in t.leaves():
            s = f"s{leaf}"
            q = leaf
            while q is not None:
                assign.setdefault(q, set()).add(s)
                q = t.parent[q]
        p = Partition(t, [f"s{leaf}" for leaf in t.leaves()], assign)
        alpha, cert = stabilize(p)
        assert cert["copies"] == 2
        for leaf in t.leaves():
            assert alpha[("label", f"s{leaf}")] == (leaf, 2)

    def test_certificate_obligations(self):
        rng = random.Random(3)
        t = random_tree(rng, n_nodes=9, max_depth=3)
        p = random_chain_partition(rng, t, n_labels=4)
        alpha, cert = stabilize(p)
        assert cert["injective"]
        assert cert["hits_every_block"]
        assert cert["block_preserving"]
        assert cert["tau_report"]["valid"]
        assert cert["lambda_report"]["valid"]
        assert cert["lambda_in_tau"]
        assert cert["lambda_in_rho"]
        n = cert["copies"]
        assert cert["padding_surplus"] == n * t.n - t.n - len(p.labels)

    def test_alpha_block_preservation_rechecked(self):
        rng = random.Random(8)
        t = random_tree(rng, n_nodes=10, max_depth=4)
        p = random_chain_partition(rng, t, n_labels=3)
        alpha, cert = stabilize(p)
        # independent recomputation: a label lands inside its deepest branch
        for s in p.labels:
            carriers = [q for q in t.nodes if s in p.of(q)]
            deepest = max(carriers, key=lambda q: t.depth[q])
            w, c = alpha[("label", s)]
            assert w in t.branch(deepest)
            assert 1 <= c <= cert["copies"]

    def test_capacity_error_names_minimum(self):
        t = path_tree(3)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        with pytest.raises(ValueError, match="2 required"):
            stabilize(p, copies=1)

    @pytest.mark.parametrize("copies", [True, False, 2.5, 2.0, "2"])
    def test_non_integer_copies_rejected(self, copies):
        t = path_tree(2)
        p = Partition(t, [], {})
        with pytest.raises(ValueError, match="copies must be an integer"):
            stabilize(p, copies=copies)

    def test_extra_copies_accepted(self):
        t = path_tree(2)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        alpha, cert = stabilize(p, copies=5)
        assert cert["copies"] == 5
        assert cert["required_copies"] == 2
        assert cert["injective"]

    def test_invalid_partition_rejected(self):
        t = binary_tree(1)
        p = Partition(t, ["a"], {0: ["a"], 1: ["a"], 2: ["a"]})
        with pytest.raises(ValueError, match="axiom 2"):
            stabilize(p)

    def test_fifty_generated_instances(self):
        rng = random.Random(20260815)
        for _ in range(50):
            t = random_tree(rng, max_depth=4)
            p = random_chain_partition(rng, t, n_labels=rng.randrange(5))
            alpha, cert = stabilize(p)
            assert cert["injective"]
            assert cert["hits_every_block"]
            assert cert["block_preserving"]
            assert cert["lambda_report"]["valid"]
            assert len(alpha) == t.n + len(p.labels)

    def test_brute_force_cross_check(self):
        # imported here: test_reference_oracles imports this module
        from test_reference_oracles import ref_brute_force_stabilize as brute_force_stabilize
        rng = random.Random(99)
        checked = 0
        while checked < 20:
            t = random_tree(rng, n_nodes=rng.randrange(2, 8), max_depth=3)
            p = random_chain_partition(rng, t, n_labels=rng.randrange(1, 5))
            n = required_copies(p)
            assert brute_force_stabilize(p, n) is not None
            if n > 1:
                assert brute_force_stabilize(p, n - 1) is None
            checked += 1

    def test_brute_force_agrees_on_path_example(self):
        from test_reference_oracles import ref_brute_force_stabilize as brute_force_stabilize
        t = path_tree(3)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        found = brute_force_stabilize(p, 2)
        assert found is not None
        assert len(set(found.values())) == len(found)
        assert brute_force_stabilize(p, 1) is None


def _rebuilt(p, alpha, n):
    """tau and lambda straight from their definitions, for checking."""
    tree, image = p.tree, set(alpha.values())
    tau = {
        q: {alpha[("vertex", v)] for v in tree.branch(q)} | {alpha[("label", s)] for s in p.of(q)}
        for q in tree.nodes
    }
    lam = {q: {(w, c) for w, c in tau[q] if w in tree.branch(q) and 1 <= c <= n} for q in tree.nodes}
    return Partition(tree, image, tau), Partition(tree, image, lam)


class TestCertificate:
    """The certificate read back from its JSON text, on good and bad alpha."""

    def _check(self, p, alpha, cert):
        tau, lam = _rebuilt(p, alpha, cert["copies"])
        read = {k: Partition.from_json(json.loads(json.dumps(cert[k]))) for k in ("tau", "lambda")}
        assert (read["tau"], read["lambda"]) == (tau, lam)
        assert cert["tau_report"] == validate_partition(tau)
        assert cert["lambda_report"] == validate_partition(lam)
        assert cert["lambda"] is not cert["tau"]
        return tau, lam

    def test_stabilized_certificates(self):
        rng = random.Random(11)
        for _ in range(30):
            t = random_tree(rng, n_nodes=rng.randrange(1, 20), max_depth=4)
            p = random_chain_partition(rng, t, n_labels=rng.randrange(6))
            for copies in (None, required_copies(p) + 1):
                alpha, cert = stabilize(p, copies)
                tau, lam = self._check(p, alpha, cert)
                assert tau == lam and cert["lambda"] == cert["tau"]

    def test_label_sent_outside_its_exit_block(self):
        # s exits at the leaf 3; (0, 2) lies outside the branch at 3
        t = path_tree(3)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        alpha = {("vertex", v): (v, 1) for v in t.nodes}
        alpha[("label", "s")] = (0, 2)
        cert = _certificate(p, alpha, _exit_blocks(p), 2, 2)
        tau, lam = self._check(p, alpha, cert)
        assert cert["injective"] and not cert["block_preserving"]
        assert tau != lam and lam.of(3) == {(3, 1)}
        assert cert["lambda_in_tau"] and cert["lambda_in_rho"]

    def test_alpha_not_injective(self):
        # a and b exit at the leaves 1 and 2 and share the slot (2, 2), so
        # tau meets itself across siblings while lambda drops a's slot
        t = binary_tree(1)
        p = Partition(t, ["a", "b"], {0: ["a", "b"], 1: ["a"], 2: ["b"]})
        alpha = {("vertex", v): (v, 1) for v in t.nodes}
        alpha[("label", "a")] = alpha[("label", "b")] = (2, 2)
        cert = _certificate(p, alpha, _exit_blocks(p), 2, 2)
        tau, lam = self._check(p, alpha, cert)
        assert not cert["injective"] and not cert["block_preserving"]
        assert tau != lam
        assert cert["tau_report"] == {"valid": False, "axiom": 2,
                                      "witness": {"nodes": [1, 2], "labels": [(2, 2)]}}
        assert cert["lambda_report"]["valid"]

    def test_copy_above_the_padding(self):
        t = path_tree(1)
        p = Partition(t, ["s"], {q: ["s"] for q in t.nodes})
        alpha = {("vertex", 0): (0, 1), ("vertex", 1): (1, 1), ("label", "s"): (1, 3)}
        cert = _certificate(p, alpha, _exit_blocks(p), 2, 2)
        tau, lam = self._check(p, alpha, cert)
        assert cert["block_preserving"] and tau != lam
        assert (1, 3) not in lam.of(0)


def _two_label_chain(depth=1):
    t = path_tree(depth)
    labels = ["a", "b"]
    return Partition(t, labels, {q: labels for q in t.nodes})


class TestFreeModules:
    def test_standard_ranks(self):
        t = binary_tree(2)
        m = FreeTreeModule(standard_partition(t), C5)
        assert m.rank(0) == 7
        assert m.rank(1) == 3
        assert m.rank(3) == 1
        assert m.basis(3) == [3]

    def test_dual_is_same_shaped(self):
        t = binary_tree(2)
        m = FreeTreeModule(standard_partition(t), C5)
        d = m.dual()
        assert d.side == "right"
        assert d.partition == m.partition
        for q in t.nodes:
            assert d.rank(q) == m.rank(q)

    def test_double_dual_identity(self):
        t = path_tree(2)
        m = FreeTreeModule(standard_partition(t), C5)
        assert m.dual().dual() == m

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            FreeTreeModule(standard_partition(path_tree(1)), C5, side="up")


class TestModuleMaps:
    def test_identity(self):
        m = FreeTreeModule(_two_label_chain(), C5)
        i = TreeModuleMap.identity(m)
        assert i.compose(i) == i

    def test_escaping_image_rejected(self):
        # child basis {b}, parent {a, b}: sending b to a at the root
        # is not compatible with the inclusion
        t = path_tree(1)
        p = Partition(t, ["a", "b"], {0: ["a", "b"], 1: ["b"]})
        m = FreeTreeModule(p, C5)
        one, zero = C5.one(), C5.zero()
        mats = {0: [[zero, one], [one, zero]], 1: [[one]]}
        with pytest.raises(ValueError, match="leaves the child basis"):
            TreeModuleMap(m, m, mats)

    def test_disagreement_rejected(self):
        t = path_tree(1)
        p = Partition(t, ["a", "b"], {0: ["a", "b"], 1: ["b"]})
        m = FreeTreeModule(p, C5)
        one, zero = C5.one(), C5.zero()
        mats = {0: [[one, zero], [zero, one]], 1: [[zero]]}
        with pytest.raises(ValueError, match="disagree"):
            TreeModuleMap(m, m, mats)

    def test_unnested_bases_rejected(self):
        # the child carries b, its parent does not: no map can be compatible
        t = path_tree(1)
        p = Partition(t, ["a", "b"], {0: ["a"], 1: ["b"]})
        m = FreeTreeModule(p, C5)
        with pytest.raises(ValueError, match="bases not nested"):
            TreeModuleMap(m, m, {})

    def test_shape_rejected(self):
        m = FreeTreeModule(_two_label_chain(), C5)
        with pytest.raises(ValueError, match="shape"):
            TreeModuleMap(m, m, {0: [[C5.one()]]})

    def test_dual_contravariance(self):
        # (f o g)* = g* o f* for a basis permutation against a unit scale
        m = FreeTreeModule(_two_label_chain(2), C5)
        one, zero, g = C5.one(), C5.zero(), C5.monomial(1)
        swap = {q: [[zero, one], [one, zero]] for q in range(3)}
        diag = {q: [[g, zero], [zero, one]] for q in range(3)}
        f = TreeModuleMap(m, m, swap)
        h = TreeModuleMap(m, m, diag)
        assert f.compose(h).dual() == h.dual().compose(f.dual())

    def test_double_dual_of_map(self):
        m = FreeTreeModule(_two_label_chain(1), C5)
        one, zero, g = C5.one(), C5.zero(), C5.monomial(2)
        f = TreeModuleMap(m, m, {q: [[g, zero], [zero, one]] for q in range(2)})
        assert f.dual().dual() == f

    def test_dual_ranks_and_sides(self):
        m = FreeTreeModule(_two_label_chain(1), C5)
        f = TreeModuleMap.identity(m)
        d = f.dual()
        assert d.source.side == "right"
        assert d.source.rank(0) == 2

    def test_germ_equality(self):
        # label a exits at the root, so root columns over a are the only
        # place two compatible maps can differ
        t = path_tree(2)
        p = Partition(t, ["a", "b"], {0: ["a", "b"], 1: ["b"], 2: ["b"]})
        m = FreeTreeModule(p, C5)
        one, zero = C5.one(), C5.zero()
        eye = [[one, zero], [zero, one]]
        skew = [[one, zero], [one, one]]
        f = TreeModuleMap(m, m, {0: eye, 1: [[one]], 2: [[one]]})
        g = TreeModuleMap(m, m, {0: skew, 1: [[one]], 2: [[one]]})
        assert germ_equal(f, g, 1)
        assert not germ_equal(f, g, 0)

    def test_ring_mismatch(self):
        p = _two_label_chain()
        a = FreeTreeModule(p, C5)
        b = FreeTreeModule(p, GroupSpec("trivial"))
        with pytest.raises(ValueError, match="rings"):
            TreeModuleMap(a, b, {})

    def test_side_mismatch(self):
        p = _two_label_chain()
        a = FreeTreeModule(p, C5)
        with pytest.raises(ValueError, match="sides"):
            TreeModuleMap(a, a.dual(), {})
