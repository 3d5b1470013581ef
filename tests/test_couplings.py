"""Couplings: causality checks, products, geodesics, extensions, transfer."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    ConfigMismatchError,
    FilteredTree,
    GridResolutionError,
    NotBicausalError,
    PathCoupling,
    RandomizedExtension,
    SolverError,
    StaleTableError,
    TreeValidationError,
    assemble_optimal_coupling,
    augmented_self_aware_lift,
    aw_distance,
    check_bicausal,
    check_causal,
    digest_tree,
    extend_with_randomization,
    geodesic,
    hk_equivalent,
    is_self_aware,
    load_coupling,
    pair_path_cost,
    path_cost,
    product_process,
    project_product,
    transfer,
    verify_extension,
    verify_randomization_independence,
)


def product_coupling(a, b):
    return PathCoupling(
        a,
        b,
        {
            (l, r): a.prob(l) * b.prob(r)
            for l in a.leaves()
            for r in b.leaves()
        },
    )


def anticipating_coupling():
    """Monotone leaf matching of the split chain with the already-split one.

    The right time-1 atom reveals the left time-2 value, so the coupling
    anticipates in one direction only.
    """
    x = helpers.bernoulli_x()
    y = helpers.y_eps(F(1, 10))
    return PathCoupling(x, y, {("a+", "b++"): F(1, 2), ("a-", "b--"): F(1, 2)})


def optimal_product(a, b):
    value, table = aw_distance(a, b)
    pi = assemble_optimal_coupling(table, a, b)
    return value, product_process(pi)


def transport_vertex(rng, a, b):
    """A vertex of the transport polytope between the leaf laws: the
    north-west corner rule on shuffled leaves.  Rarely causal."""
    rows, cols = list(a.leaves()), list(b.leaves())
    rng.shuffle(rows)
    rng.shuffle(cols)
    left = {l: a.prob(l) for l in rows}
    right = {r: b.prob(r) for r in cols}
    weights, i, j = {}, 0, 0
    while i < len(rows) and j < len(cols):
        q = min(left[rows[i]], right[cols[j]])
        weights[(rows[i], cols[j])] = q
        left[rows[i]] -= q
        right[cols[j]] -= q
        if left[rows[i]] == 0:
            i += 1
        else:
            j += 1
    return PathCoupling(a, b, weights)


def causality_oracle(pi, direction):
    """Causality by its definition: at every time t, the law of the other
    side's time-t node given one's own whole path equals its law given
    one's own time-t node.  Conditional probabilities are quotients of
    coupling masses; ancestors come from ``node_path``.  Returns (ok,
    first witness), scanning t, then own leaf, then other node ascending."""
    own, other = (pi.left, pi.right) if direction == "left_to_right" else (pi.right, pi.left)
    pairs = [(lr if direction == "left_to_right" else lr[::-1], w) for lr, w in pi.weights.items()]
    own_path = {l: own.node_path(l) for l in own.leaves()}
    other_path = {r: other.node_path(r) for r in other.leaves()}
    for t in range(1, own.config.num_steps):
        fine, coarse, leaf_mass, atom_mass = {}, {}, {}, {}
        for (l, r), w in pairs:
            a, b = own_path[l][t - 1], other_path[r][t - 1]
            for table, key in ((fine, (l, b)), (coarse, (a, b)), (leaf_mass, l), (atom_mass, a)):
                table[key] = table.get(key, F(0)) + w
        for l in sorted(leaf_mass):
            a = own_path[l][t - 1]
            for b in sorted(other.level(t)):
                if fine.get((l, b), F(0)) / leaf_mass[l] != coarse.get((a, b), F(0)) / atom_mass[a]:
                    return False, (t, l, b)
    return True, None


class TestPathCoupling:
    def test_product_coupling_cost(self):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        pi = product_coupling(x, y)
        assert pi.expected_cost() == F(11, 10)

    def test_zero_weights_dropped(self):
        x = helpers.bernoulli_x()
        pi = PathCoupling(
            x,
            x,
            {
                ("a+", "a+"): F(1, 2),
                ("a-", "a-"): F(1, 2),
                ("a+", "a-"): F(0),
            },
        )
        assert [pair for pair, _ in pi.support_items()] == [
            ("a+", "a+"),
            ("a-", "a-"),
        ]
        assert pi.expected_cost() == 0

    @pytest.mark.parametrize("p", [1, 2, 3, F(3, 2), 0], ids=["1", "2", "3", "3/2", "weak"])
    def test_expected_cost_is_the_sum_of_weighted_path_costs(self, p):
        rng = random.Random(f"expected-{p}")
        couplings = []
        for k in range(8):
            a, b = helpers.random_pair(rng, p=p, d=1 + k % 2)
            couplings += [assemble_optimal_coupling(aw_distance(a, b)[1], a, b), product_coupling(a, b)]
        if p == 0:
            # the crossed pairs cost 21/10 before the clip at 1
            couplings.append(product_coupling(helpers.bernoulli_x(p=0), helpers.y_eps(F(1, 10), p=0)))
        clipped = 0
        for pi in couplings:
            cfg = pi.left.config
            total = F(0)
            for (l, r), w in pi.weights.items():
                x, y = pi.left.value_path(l), pi.right.value_path(r)
                total += w * path_cost(x, y, cfg)
                clipped += cfg.is_weak and sum(map(cfg.step_cost, x, y)) > 1
            cost = pi.expected_cost()
            assert type(cost) is type(total) and cost == total  # floats bit for bit
        assert clipped > 0 or p != 0

    def test_rejects_wrong_marginal(self):
        x = helpers.bernoulli_x()
        with pytest.raises(TreeValidationError, match="marginal"):
            PathCoupling(x, x, {("a+", "a+"): F(1, 2), ("a-", "a-"): F(1, 4)})

    def test_names_the_first_mismatched_leaf(self):
        tree = helpers.random_walk_tree(3)
        first, last = tree.leaves()[0], tree.leaves()[-1]
        weights = {(l, l): tree.prob(l) for l in tree.leaves()}
        weights[(first, last)] = weights.pop((first, first))
        with pytest.raises(TreeValidationError) as caught:
            PathCoupling(tree, tree, weights)
        assert str(caught.value) == f"right marginal mismatch at leaf {first!r}: 0 vs {tree.prob(first)}"

    def test_rejects_unknown_leaf(self):
        x = helpers.bernoulli_x()
        with pytest.raises(TreeValidationError, match="leaf"):
            PathCoupling(x, x, {("a", "a+"): F(1, 2), ("a-", "a-"): F(1, 2)})

    def test_rejects_negative_weight(self):
        x = helpers.bernoulli_x()
        with pytest.raises(TreeValidationError, match="negative"):
            PathCoupling(
                x,
                x,
                {
                    ("a+", "a+"): F(3, 4),
                    ("a+", "a-"): F(-1, 4),
                    ("a-", "a-"): F(1, 2),
                },
            )

    # malformed supports on bernoulli_x x bernoulli_x (leaves a+, a- of mass
    # 1/2) and the message each raises: a negative weight first, then the
    # first pair naming an unknown leaf (its left side before its right),
    # then the first mismatched leaf, left tree before right, in level order
    MALFORMED = {
        "left_mass": (
            [("a+", "a+", "1/4"), ("a-", "a-", "1/2"), ("a-", "a+", "1/4")],
            "left marginal mismatch at leaf 'a+': 1/4 vs 1/2",
        ),
        "right_mass": (
            [("a+", "a+", "1/4"), ("a+", "a-", "1/4"), ("a-", "a-", "1/2")],
            "right marginal mismatch at leaf 'a+': 1/4 vs 1/2",
        ),
        "left_before_right": (
            [("a+", "a+", "1/2"), ("a-", "a-", "1/4")],
            "left marginal mismatch at leaf 'a-': 1/4 vs 1/2",
        ),
        "negative": (
            [("a+", "a+", "3/4"), ("a+", "a-", "-1/4"), ("a-", "a-", "1/2")],
            "coupling weight at ('a+', 'a-') is negative",
        ),
        "negative_before_unknown": (
            [("zz", "a+", "1/2"), ("a-", "a-", "-1/2")],
            "coupling weight at ('a-', 'a-') is negative",
        ),
        "unknown_left": (
            [("a", "a+", "1/2"), ("a-", "a-", "1/2")],
            "'a' is not a leaf of the left tree",
        ),
        "unknown_right": (
            [("a+", "a+", "1/2"), ("a-", "zz", "1/2")],
            "'zz' is not a leaf of the right tree",
        ),
        "unknown_both": (
            [("zz", "a", "1/2"), ("a-", "a-", "1/2")],
            "'zz' is not a leaf of the left tree",
        ),
        "unknown_in_pair_order": (
            [("a+", "zz", "1/2"), ("yy", "a-", "1/2")],
            "'zz' is not a leaf of the right tree",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("source", ["mapping", "document"])
    def test_malformed_support_messages(self, case, source):
        support, message = self.MALFORMED[case]
        with pytest.raises(TreeValidationError) as caught:
            self.coupling(source, support)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "support,message",
        [
            (
                [("a+", "a+", "1/2"), ("a-", "a-", "1/2"), ("a+", "a+", "1/4")],
                "left marginal mismatch at leaf 'a+': 3/4 vs 1/2",
            ),
            (
                [("a+", "a-", "1/4"), ("a+", "a+", "1/2"), ("a-", "a-", "1/2"), ("a+", "a-", "-1/2")],
                "coupling weight at ('a+', 'a-') is negative",
            ),
        ],
        ids=["wrong_sum", "negative_sum"],
    )
    def test_repeated_pairs_are_summed_before_checks(self, support, message):
        with pytest.raises(TreeValidationError) as caught:
            self.coupling("document", support)
        assert str(caught.value) == message

    def test_repeated_pairs_summing_to_zero_drop_out(self):
        support = [("a+", "a-", "1/4"), ("a+", "a+", "1/2"), ("a-", "a-", "1/2"), ("a+", "a-", "-1/4")]
        pi = self.coupling("document", support)
        assert pi.support_items() == [(("a+", "a+"), F(1, 2)), (("a-", "a-"), F(1, 2))]
        assert list(pi.weights) == [("a+", "a+"), ("a-", "a-")]

    @staticmethod
    def coupling(source, support):
        """A coupling of bernoulli_x with itself, built from ``support``
        (left, right, weight string) triples as a ``Fraction`` mapping or
        loaded as a document."""
        x = helpers.bernoulli_x()
        if source == "mapping":
            return PathCoupling(x, x, {(l, r): F(w) for l, r, w in support})
        entries = [{"left": l, "right": r, "weight": w} for l, r, w in support]
        return load_coupling({"left_tree": x.to_document(), "right_tree": x.to_document(), "support": entries})

    def test_document_round_trip(self):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 100))
        pi = product_coupling(x, y)
        back = load_coupling(pi.to_document())
        assert back.support_items() == pi.support_items()
        assert digest_tree(back.left) == digest_tree(x)
        assert digest_tree(back.right) == digest_tree(y)
        assert back.expected_cost() == pi.expected_cost()


class TestCausality:
    def test_product_coupling_is_bicausal(self):
        rng = random.Random(61)
        for _ in range(8):
            a, b = helpers.random_pair(rng)
            assert check_bicausal(product_coupling(a, b)).ok

    def test_anticipating_coupling_fails_one_direction(self):
        pi = anticipating_coupling()
        lr = check_causal(pi, "left_to_right")
        assert not lr.ok
        t, leaf, atom = lr.witness
        assert t == 1
        assert leaf in {"a+", "a-"}
        assert atom in {"b+", "b-"}
        assert check_causal(pi, "right_to_left").ok
        report = check_bicausal(pi)
        assert not report.ok
        assert report.right_to_left.ok

    def test_witness_is_deterministic(self):
        pi = anticipating_coupling()
        first = check_causal(pi, "left_to_right").witness
        for _ in range(5):
            assert check_causal(pi, "left_to_right").witness == first

    def test_matches_the_definition(self):
        rng = random.Random(808)
        verdicts = []
        for _ in range(24):
            a, b = helpers.random_pair(rng)
            _, table = aw_distance(a, b)
            couplings = [assemble_optimal_coupling(table, a, b), product_coupling(a, b)]
            couplings += [transport_vertex(rng, a, b) for _ in range(3)]
            for pi in couplings:
                for direction in ("left_to_right", "right_to_left"):
                    report = check_causal(pi, direction)
                    assert (report.ok, report.witness) == causality_oracle(pi, direction)
                    verdicts.append(report.ok)
        # both verdicts occur often enough for the witnesses to be compared
        assert verdicts.count(False) > 30 and verdicts.count(True) > 100

    def test_unknown_direction_rejected(self):
        with pytest.raises(SolverError):
            check_causal(anticipating_coupling(), "sideways")


class TestAssembly:
    @pytest.mark.parametrize("p", [1, 2])
    def test_cost_matches_distance_and_stays_bicausal(self, p):
        for a, b in helpers.regression_pairs(p, extra_random=8):
            value, table = aw_distance(a, b)
            pi = assemble_optimal_coupling(table, a, b)
            assert pi.expected_cost() == value
            assert check_bicausal(pi).ok

    def test_rejects_foreign_trees(self):
        x = helpers.bernoulli_x()
        _, table = aw_distance(x, x)
        with pytest.raises(StaleTableError, match=helpers.STALE):
            assemble_optimal_coupling(table, x, helpers.y_eps(F(1, 10)))


class TestProductProcess:
    def test_pair_cost_equals_distance(self):
        for p in (1, 2):
            for a, b in helpers.regression_pairs(p, extra_random=6):
                value, product = optimal_product(a, b)
                assert product.tree.config.dim == 2 * a.config.dim
                assert pair_path_cost(product.tree, product.base_dim) == value

    def test_projections_recover_the_inputs(self):
        for a, b in helpers.regression_pairs(1, extra_random=6):
            _, product = optimal_product(a, b)
            assert hk_equivalent(project_product(product, "left"), a)
            assert hk_equivalent(project_product(product, "right"), b)

    def test_rejects_non_bicausal_input(self):
        with pytest.raises(NotBicausalError, match="witness"):
            product_process(anticipating_coupling())

    def test_rejects_unknown_side(self):
        _, product = optimal_product(
            helpers.bernoulli_x(), helpers.y_eps(F(1, 10))
        )
        with pytest.raises(SolverError):
            project_product(product, "top")

    def test_pair_cost_requires_even_split(self):
        _, product = optimal_product(
            helpers.bernoulli_x(), helpers.y_eps(F(1, 10))
        )
        with pytest.raises(ConfigMismatchError):
            pair_path_cost(product.tree, 5)


class TestGeodesic:
    def test_endpoints_are_the_inputs(self):
        for a, b in helpers.regression_pairs(1, extra_random=4):
            _, product = optimal_product(a, b)
            assert hk_equivalent(geodesic(product, 0), a)
            assert hk_equivalent(geodesic(product, 1), b)

    def test_known_midpoint_distance(self):
        x = helpers.bernoulli_x()
        value, product = optimal_product(x, helpers.y_eps(F(1, 10)))
        mid = geodesic(product, F(1, 2))
        assert value == F(11, 10)
        assert aw_distance(x, mid)[0] == F(11, 20)

    def test_distance_scales_linearly_along_the_curve(self):
        grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for a, b in helpers.regression_pairs(1, extra_random=3):
            value, product = optimal_product(a, b)
            points = {lam: geodesic(product, lam) for lam in grid}
            for i, s in enumerate(grid):
                for t in grid[i + 1 :]:
                    d, _ = aw_distance(points[s], points[t])
                    assert d == (t - s) * value

    def test_squared_distance_scales_quadratically(self):
        grid = [F(0), F(1, 2), F(1)]
        for a, b in helpers.regression_pairs(2, extra_random=3):
            value, product = optimal_product(a, b)
            points = {lam: geodesic(product, lam) for lam in grid}
            for i, s in enumerate(grid):
                for t in grid[i + 1 :]:
                    d, _ = aw_distance(points[s], points[t])
                    assert d == (t - s) ** 2 * value

    def test_parameter_validation(self):
        _, product = optimal_product(
            helpers.bernoulli_x(), helpers.y_eps(F(1, 10))
        )
        with pytest.raises(SolverError):
            geodesic(product, F(3, 2))
        with pytest.raises(SolverError):
            geodesic(product, F(-1, 10))
        # rational strings are accepted
        assert hk_equivalent(geodesic(product, "1/2"), geodesic(product, F(1, 2)))


class TestRandomizedExtension:
    @pytest.mark.parametrize("m", [2, 3])
    def test_extension_axioms(self, m):
        rng = random.Random(67)
        trees = [helpers.bernoulli_x(), helpers.random_walk_tree(3)]
        trees.append(helpers.random_tree(rng))
        for base in trees:
            ext = extend_with_randomization(base, m)
            assert ext.m == m
            assert verify_extension(ext)
            assert verify_randomization_independence(ext)
            # adding independent noise to the filtration changes nothing
            assert hk_equivalent(ext.tree, base)

    def test_node_map_tracks_the_base(self):
        base = helpers.bernoulli_x()
        ext = extend_with_randomization(base, 2)
        for node in ext.tree.nodes():
            base_id, chain = ext.node_map[node.node_id]
            assert node.value == base.node(base_id).value
            assert len(chain) == node.time
            assert all(0 <= digit < 2 for digit in chain)
        # each base node splits into m^t extension copies
        per_base: dict = {}
        for base_id, _ in ext.node_map.values():
            per_base[base_id] = per_base.get(base_id, 0) + 1
        for node in base.nodes():
            assert per_base[node.node_id] == 2 ** node.time

    def test_dependent_digit_rejected(self):
        ext = extend_with_randomization(helpers.bernoulli_x(), 2)
        # under the first time-1 copy, the next digit leans toward 0
        node = ext.tree.node(ext.tree.level(1)[0])
        (c0, q0), (c1, q1), *rest = node.children
        nodes = {n.node_id: n for n in ext.tree.nodes()}
        nodes[node.node_id] = replace(node, children=((c0, q0 + q1 / 2), (c1, q1 / 2), *rest))
        tree = FilteredTree(ext.tree.config, nodes, ext.tree.root_children)
        leaning = RandomizedExtension(ext.base, ext.m, tree, ext.node_map)
        assert hk_equivalent(leaning.tree, ext.base)
        assert not verify_randomization_independence(leaning)

    def test_skewed_digit_law_is_no_extension(self):
        # each extension splits one base edge's copies unequally: the base
        # marginal holds, the digit law does not
        rng = random.Random(71)
        for _ in range(12):
            for base in helpers.random_pair(rng):
                ext = extend_with_randomization(base, 3)
                nodes = {n.node_id: n for n in ext.tree.nodes()}
                node = rng.choice([n for n in nodes.values() if n.children])
                k = 3 * rng.randrange(len(node.children) // 3)
                group = node.children[k:k + 3]
                mass = sum(q for _, q in group)
                shares = [1, 2, rng.randint(1, 4)]
                rng.shuffle(shares)
                skewed = tuple((c, mass * s / sum(shares)) for (c, _), s in zip(group, shares))
                children = node.children[:k] + skewed + node.children[k + 3:]
                nodes[node.node_id] = replace(node, children=children)
                tree = FilteredTree(ext.tree.config, nodes, ext.tree.root_children)
                skew = RandomizedExtension(base, 3, tree, ext.node_map)
                assert not verify_randomization_independence(skew)
                assert verify_extension(skew) is False

    def test_grid_too_small_rejected(self):
        with pytest.raises(SolverError):
            extend_with_randomization(helpers.bernoulli_x(), 1)

    def test_augmented_lift_is_self_aware(self):
        base = helpers.sign_lift()  # not self-aware to begin with
        assert not is_self_aware(base)
        ext = extend_with_randomization(base, 2)
        lifted = augmented_self_aware_lift(ext)
        assert lifted.config.dim == base.config.dim + 2
        assert is_self_aware(lifted)
        # the original coordinates are untouched
        d = base.config.dim
        for node in lifted.nodes():
            base_id, _ = ext.node_map[node.node_id]
            assert node.value[:d] == base.node(base_id).value


class TestTransfer:
    def test_realizes_the_pair_on_the_extension(self):
        x = helpers.bernoulli_x()
        y = helpers.y_eps(F(1, 10))
        value, product = optimal_product(x, y)
        ext = extend_with_randomization(x, 2)
        res = transfer(product, ext)
        assert res.required_m == 2
        # same joint shape and the same coupling cost, realized adaptedly
        assert pair_path_cost(res.pair_tree, x.config.dim) == value
        assert hk_equivalent(res.pair_tree, product.tree)
        assert hk_equivalent(res.y_tree, y)
        # the first coordinate is the extension's base process pointwise
        d = x.config.dim
        for node in res.pair_tree.nodes():
            base_id, _ = ext.node_map[node.node_id]
            assert node.value[:d] == x.node(base_id).value

    def test_transfer_on_random_pairs(self):
        # required grid sizes are conditional-probability denominators, which
        # random weights can drive into the hundreds; extensions grow like
        # m^t per level, so only retry the modest ones
        rng = random.Random(71)
        done = 0
        for _ in range(12):
            a, b = helpers.random_pair(rng)
            value, product = optimal_product(a, b)
            try:
                res = transfer(product, extend_with_randomization(a, 2))
            except GridResolutionError as exc:
                if exc.required > 30:
                    continue
                res = transfer(product, extend_with_randomization(a, exc.required))
            assert pair_path_cost(res.pair_tree, a.config.dim) == value
            assert hk_equivalent(res.pair_tree, product.tree)
            assert hk_equivalent(res.y_tree, b)
            done += 1
        assert done >= 5

    def test_coarse_grid_reports_required_size(self):
        x = helpers.bernoulli_x()
        _, product = optimal_product(x, helpers.y_eps(F(1, 10)))
        ext = extend_with_randomization(x, 3)
        with pytest.raises(GridResolutionError) as err:
            transfer(product, ext)
        assert err.value.required == 2

    def test_rejects_mismatched_base(self):
        x = helpers.bernoulli_x()
        _, product = optimal_product(x, helpers.y_eps(F(1, 10)))
        ext = extend_with_randomization(helpers.sign_lift(), 2)
        with pytest.raises(ConfigMismatchError):
            transfer(product, ext)


def test_coupling_layer_on_long_chains_reads_no_node_paths(monkeypatch):
    a = helpers.chain_tree(range(3000))
    b = helpers.chain_tree([k % 3 for k in range(3000)])
    _, table = aw_distance(a, b)
    ext = extend_with_randomization(helpers.bernoulli_x(), 2)
    calls = []
    node_path = FilteredTree.node_path
    monkeypatch.setattr(FilteredTree, "node_path", lambda tree, n: calls.append(n) or node_path(tree, n))
    pi = assemble_optimal_coupling(table, a, b)
    assert check_bicausal(pi).ok
    assert product_process(pi).tree.size() == 3000
    assert verify_randomization_independence(ext)
    assert calls == []
