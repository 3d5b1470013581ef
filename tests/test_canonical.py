"""Canonicalization: information process, equivalence, digests, and lifts."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from adt import (
    ConfigMismatchError,
    FilteredTree,
    NotMarkovError,
    TreeNode,
    admits_adapted_map,
    atom_level_ranks,
    canonical_tree,
    digest_tree,
    hk_equivalent,
    information_process,
    is_lipschitz_markov,
    is_markov,
    is_self_aware,
    law_on_paths,
    load_tree,
    markov_lift,
    self_aware_lift,
    self_contained_check,
    subtree_process,
)


class TestInformationProcess:
    def test_redundant_labels_collapse(self):
        x = helpers.bernoulli_x()
        redundant = helpers.redundant_lift()
        assert hk_equivalent(x, redundant)
        form = information_process(redundant).form
        assert canonical_tree(form).size() == 3  # the two copies merged

    def test_revealing_labels_separate(self):
        x = helpers.bernoulli_x()
        lift = helpers.sign_lift()
        assert not hk_equivalent(x, lift)
        form = information_process(lift).form
        assert canonical_tree(form).size() == 4  # the two zeros stay apart

    def test_canonical_tree_never_larger(self):
        rng = random.Random(11)
        for _ in range(25):
            tree = helpers.random_tree(rng)
            form = information_process(tree).form
            assert canonical_tree(form).size() <= tree.size()

    def test_canonicalization_idempotent(self):
        rng = random.Random(13)
        for _ in range(15):
            tree = helpers.random_tree(rng)
            form = information_process(tree).form
            ctree = canonical_tree(form)
            again = information_process(ctree).form
            assert form.law == again.law
            assert form.digest() == again.digest()

    def test_canonical_tree_preserves_path_law(self):
        rng = random.Random(17)
        for _ in range(15):
            tree = helpers.random_tree(rng)
            ctree = canonical_tree(information_process(tree).form)
            assert law_on_paths(tree).as_dict() == law_on_paths(ctree).as_dict()

    def test_atom_ranks_are_contiguous(self):
        form = information_process(helpers.random_walk_tree(3)).form
        for level, ranks in zip(form.levels(), atom_level_ranks(form)):
            assert sorted(ranks.values()) == list(range(len(level)))

    def test_order_matches_nested_reference(self):
        # the canonical order, checked against a comparator that walks
        # whole nested structures; half the trees repeat subtrees under
        # distinct labels, exactly or up to one leaf value
        def ascending(atoms):
            return all(helpers.nested_order(a, b) < 0 for a, b in zip(atoms, atoms[1:]))

        rng = random.Random(19)
        for k in range(50):
            tree = helpers.random_tree(rng, n=rng.choice((2, 3, 4)))
            if k % 2:
                tree = helpers.with_copied_subtrees(rng, tree)
            form = information_process(tree).form
            assert ascending([a for a, _ in form.law])
            for level in form.levels():
                assert ascending(level)
                assert all(ascending([x for x, _ in atom.law]) for atom in level)

    def test_subtree_atoms_shared_with_parent_process(self):
        # the conditional future below a node is itself a filtered process;
        # canonicalizing it must yield the very atom objects the full tree
        # assigns those nodes (hash-consing across calls)
        tree = helpers.random_walk_tree(3)
        res = information_process(tree)
        for node in tree.nodes():
            if not node.children:
                continue
            sub_res = information_process(subtree_process(tree, node.node_id))
            for nid, atom in sub_res.node_atom.items():
                assert atom is res.node_atom[nid]


class TestDigest:
    def test_digest_invariant_under_renaming(self):
        tree = helpers.y_eps(F(1, 10))
        doc = tree.to_document()
        renamed = json.loads(
            json.dumps(doc)
            .replace("b++", "Q1")
            .replace("b--", "Q2")
            .replace("b+", "P1")
            .replace("b-", "P2")
        )
        renamed["nodes"].reverse()
        assert digest_tree(load_tree(renamed)) == digest_tree(tree)

    def test_digest_separates_structures(self):
        assert digest_tree(helpers.bernoulli_x()) != digest_tree(helpers.sign_lift())

    def test_digest_includes_shape(self):
        flat = helpers.chain_tree([0])
        assert digest_tree(flat) != digest_tree(helpers.chain_tree([0, 0]))


class TestEquivalence:
    def test_reflexive_on_random_trees(self):
        rng = random.Random(19)
        for _ in range(20):
            tree = helpers.random_tree(rng)
            clone = load_tree(tree.to_document())
            assert hk_equivalent(tree, clone)

    def test_requires_same_shape(self):
        with pytest.raises(ConfigMismatchError):
            hk_equivalent(helpers.bernoulli_x(), helpers.chain_tree([0, 1, 2]))

    def test_distinguishes_filtrations_with_equal_path_laws(self):
        x, lift = helpers.bernoulli_x(), helpers.sign_lift()
        assert law_on_paths(x).as_dict() == law_on_paths(lift).as_dict()
        assert not hk_equivalent(x, lift)


class TestSelfAwareness:
    def test_natural_filtration_is_self_aware(self):
        assert is_self_aware(helpers.bernoulli_x())
        assert is_self_aware(helpers.random_walk_tree(3))

    def test_revealing_lift_is_not(self):
        assert not is_self_aware(helpers.sign_lift())

    def test_self_contained_check_witness(self):
        lift = helpers.sign_lift()
        ok, witness = self_contained_check(
            lift, {n.node_id: n.value for n in lift.nodes()}
        )
        assert not ok
        t, first, second = witness
        assert t == 1
        assert {first, second} == {"l+", "l-"}

    def test_self_aware_lift_restores_awareness(self):
        lift = helpers.sign_lift()
        lifted = self_aware_lift(lift)
        assert lifted.config.dim == 2
        assert is_self_aware(lifted)
        # the first coordinate is untouched
        for node in lift.nodes():
            assert lifted.node(node.node_id).value[:1] == node.value

    def test_self_aware_lift_on_random_trees(self):
        rng = random.Random(23)
        for _ in range(20):
            tree = helpers.random_tree(rng)
            lifted = self_aware_lift(tree)
            assert is_self_aware(lifted)
            assert hk_equivalent(lifted, self_aware_lift(tree))


def _two_chains(n: int) -> FilteredTree:
    """Two n-step chains from value 0 under distinct info labels; they
    agree until the last value (1 against 2)."""
    nodes = {}
    for side, last in (("a", 1), ("b", 2)):
        for t in range(1, n + 1):
            value = 0 if t == 1 else (last if t == n else 1)
            kids = ((f"{side}{t + 1}", F(1)),) if t < n else ()
            nodes[f"{side}{t}"] = TreeNode(f"{side}{t}", t, (F(value),), side if t == 1 else "", kids)
    return FilteredTree(helpers.cfg(n=n), nodes, (("a1", F(1, 2)), ("b1", F(1, 2))))


def test_self_awareness_on_long_chains_reads_no_node_paths(monkeypatch):
    calls = []
    node_path = FilteredTree.node_path
    monkeypatch.setattr(FilteredTree, "node_path", lambda tree, n: calls.append(n) or node_path(tree, n))
    assert is_self_aware(helpers.chain_tree(range(3000)))
    two = _two_chains(3000)
    assert not is_self_aware(two)
    values = {node.node_id: node.value for node in two.nodes()}
    assert self_contained_check(two, values) == (False, (1, "a1", "b1"))
    sides = {node.node_id: node.node_id[0] for node in two.nodes()}
    assert self_contained_check(two, sides) == (True, None)
    assert calls == []


def _path_tuple_check(tree, state, label):
    """The conditional-determination check on whole label tuples, with
    each prefix read off ``node_path``: the definition, uninterned."""
    laws = {}
    for t in range(tree.config.num_steps, 0, -1):
        for node_id in tree.level(t):
            node = tree.node(node_id)
            law = {} if node.children else {(): F(1)}
            for cid, p in node.children:
                for path, w in laws[cid].items():
                    key = (label(tree.node(cid)),) + path
                    law[key] = law.get(key, F(0)) + p * w
            laws[node_id] = law
    for t in range(1, tree.config.num_steps + 1):
        groups = {}
        for node_id in tree.level(t):
            prefix = tuple(state(tree.node(n)) for n in tree.node_path(node_id))
            groups.setdefault(prefix, []).append(node_id)
        for members in groups.values():
            for other in members[1:]:
                if laws[other] != laws[members[0]]:
                    return False, (t, members[0], other)
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_self_awareness_matches_the_path_tuple_definition(seed):
    rng = random.Random(seed)
    for tree in (*helpers.random_pair(rng), helpers.sign_lift()):
        by_value = _path_tuple_check(tree, lambda n: n.value, lambda n: n.value)
        assert is_self_aware(tree) == by_value[0]
        assert self_contained_check(tree, {n.node_id: n.value for n in tree.nodes()}) == by_value
        coarse = {n.node_id: rng.randint(0, 1) for n in tree.nodes()}
        expected = _path_tuple_check(tree, lambda n: coarse[n.node_id], lambda n: coarse[n.node_id])
        assert self_contained_check(tree, coarse) == expected


class TestMarkov:
    def test_random_walk_is_markov(self):
        assert is_markov(helpers.random_walk_tree(3))

    def test_path_dependent_process_is_not_markov(self):
        # X3 depends on X1 although X2 coincides across branches
        nodes = {
            "u": TreeNode("u", 1, (F(1),), "", (("um", F(1)),)),
            "d": TreeNode("d", 1, (F(-1),), "", (("dm", F(1)),)),
            "um": TreeNode("um", 2, (F(0),), "", (("ue", F(1)),)),
            "dm": TreeNode("dm", 2, (F(0),), "", (("de", F(1)),)),
            "ue": TreeNode("ue", 3, (F(1),), "", ()),
            "de": TreeNode("de", 3, (F(-1),), "", ()),
        }
        tree = FilteredTree(helpers.cfg(n=3), nodes, (("u", F(1, 2)), ("d", F(1, 2))))
        assert not is_markov(tree)
        lifted = markov_lift(tree)
        assert is_markov(lifted)
        assert lifted.config.dim == 1 + 3 * 1 + 3  # value + padded history + ranks

    def test_markov_lift_identifies_equivalence_via_path_laws(self):
        # path laws of the lifts agree exactly when the processes are equivalent
        cases = [
            (helpers.bernoulli_x(), helpers.redundant_lift(), True),
            (helpers.bernoulli_x(), helpers.sign_lift(), False),
            (helpers.y_eps(F(1, 10)), helpers.y_eps(F(1, 10)), True),
            (helpers.y_eps(F(1, 10)), helpers.y_eps(F(1, 100)), False),
        ]
        rng = random.Random(29)
        for _ in range(10):
            a, b = helpers.random_pair(rng)
            cases.append((a, b, hk_equivalent(a, b)))
        for a, b, expected in cases:
            same_lift_law = (
                law_on_paths(markov_lift(a)).as_dict()
                == law_on_paths(markov_lift(b)).as_dict()
            )
            assert same_lift_law == expected

    def test_lipschitz_markov_on_random_walk(self):
        report = is_lipschitz_markov(helpers.random_walk_tree(3), F(1))
        assert report.ok
        assert report.max_ratio <= 1

    def test_lipschitz_markov_detects_violation(self):
        # kernel jumps while states nearly coincide: enormous ratio
        nodes = {
            "u": TreeNode("u", 1, (F(0),), "", (("uu", F(1)),)),
            "d": TreeNode("d", 1, (F(1, 4),), "", (("dd", F(1)),)),
            "uu": TreeNode("uu", 2, (F(0),), "", ()),
            "dd": TreeNode("dd", 2, (F(100),), "", ()),
        }
        tree = FilteredTree(helpers.cfg(), nodes, (("u", F(1, 2)), ("d", F(1, 2))))
        report = is_lipschitz_markov(tree, F(1))
        assert not report.ok
        assert report.witness is not None

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, F(3, 2), 0])
    def test_lipschitz_markov_matches_the_definition(self, p, d):
        # markov lifts of random trees, the raw trees (mostly not Markov)
        # and, at d = 1, random walks; against kernels read from the children
        rng = random.Random(f"lipschitz-{p}-{d}")
        trees = []
        for _ in range(3):
            tree = helpers.random_tree(rng, d=d, p=p)
            trees += [tree, markov_lift(tree)]
        if d == 1:
            trees += [helpers.random_walk_tree(3, p), helpers.random_walk_tree(4, p, step=F(1, 2))]
        for tree in trees:
            try:
                expected = max(helpers.kernel_ratios(tree), default=F(0))
            except NotMarkovError:
                with pytest.raises(NotMarkovError):
                    is_lipschitz_markov(tree, F(1))
                continue
            for bound in (F(0), F(1, 2), F(1), F(3)):
                report = is_lipschitz_markov(tree, bound)
                assert type(report.max_ratio) is type(expected) and report.max_ratio == expected
                assert report.ok == (expected <= bound)
                if report.witness is None:
                    assert expected == 0
                else:
                    ratio = helpers.kernel_ratio(tree, *report.witness)
                    assert type(ratio) is type(expected) and ratio == expected

    def test_lipschitz_markov_rejects_non_markov(self):
        nodes = {
            "u": TreeNode("u", 1, (F(1),), "", (("um", F(1)),)),
            "d": TreeNode("d", 1, (F(-1),), "", (("dm", F(1)),)),
            "um": TreeNode("um", 2, (F(0),), "", (("ue", F(1)),)),
            "dm": TreeNode("dm", 2, (F(0),), "", (("de", F(1)),)),
            "ue": TreeNode("ue", 3, (F(1),), "", ()),
            "de": TreeNode("de", 3, (F(-1),), "", ()),
        }
        tree = FilteredTree(helpers.cfg(n=3), nodes, (("u", F(1, 2)), ("d", F(1, 2))))
        with pytest.raises(NotMarkovError):
            is_lipschitz_markov(tree, F(1))


class TestAdaptedMap:
    def test_value_prefix_determines_decorations(self):
        tree = helpers.sign_lift()
        lifted = self_aware_lift(tree)
        assert admits_adapted_map(lifted, tree)  # forgetting the label is adapted

    def test_rejects_anticipating_assignment(self):
        # same tree structure; the target time-1 value reveals the future
        # branch while both source histories read 0 — no adapted map exists
        def decorated(v_plus, v_minus):
            nodes = {
                "l+": TreeNode("l+", 1, (v_plus,), "up", (("e+", F(1)),)),
                "l-": TreeNode("l-", 1, (v_minus,), "down", (("e-", F(1)),)),
                "e+": TreeNode("e+", 2, (F(1),), "", ()),
                "e-": TreeNode("e-", 2, (F(-1),), "", ()),
            }
            return FilteredTree(
                helpers.cfg(), nodes, (("l+", F(1, 2)), ("l-", F(1, 2)))
            )

        source = decorated(F(0), F(0))
        target = decorated(F(1), F(-1))
        assert not admits_adapted_map(source, target)
        assert admits_adapted_map(target, source)  # coarsening is fine

    def test_requires_shared_structure(self):
        with pytest.raises(ConfigMismatchError):
            admits_adapted_map(helpers.sign_lift(), helpers.bernoulli_x())
