"""Tree model: parsing, validation, exact arithmetic, and path costs."""

import json
import random
from fractions import Fraction as F

import pytest

import helpers
from adt import (
    ConfigMismatchError,
    DiscreteMeasure,
    DocumentError,
    FilteredTree,
    MetricConfig,
    TreeNode,
    TreeValidationError,
    format_fraction,
    law_on_paths,
    load_tree,
    load_tree_file,
    parse_probability,
    parse_value_entry,
    path_cost,
    path_distance,
)


class TestParsing:
    def test_probability_forms(self):
        assert parse_probability("1/2") == F(1, 2)
        assert parse_probability("0.25") == F(1, 4)
        assert parse_probability(1) == F(1)

    def test_probability_rejects_garbage(self):
        with pytest.raises(DocumentError):
            parse_probability("half")
        with pytest.raises(DocumentError):
            parse_probability("1/0")
        with pytest.raises(DocumentError):
            parse_probability([1, 2])

    def test_value_decimal_is_exact(self):
        assert parse_value_entry("0.1", 12) == F(1, 10)
        assert parse_value_entry("-2.5", 12) == F(-5, 2)

    def test_value_rational_bypasses_quantization(self):
        assert parse_value_entry("1/3", 12) == F(1, 3)
        assert parse_value_entry("-7/2", 2) == F(-7, 2)

    def test_value_quantizes_half_even(self):
        # 0.15 at one decimal: banker's rounding goes to the even digit
        assert parse_value_entry("0.15", 1) == F(2, 10)
        assert parse_value_entry("0.25", 1) == F(2, 10)

    def test_value_rejects_garbage(self):
        with pytest.raises(DocumentError):
            parse_value_entry("three", 12)
        with pytest.raises(DocumentError):
            parse_value_entry(None, 12)

    def test_format_fraction_roundtrip(self):
        assert format_fraction(F(1, 10), 12) == "0.1"
        assert format_fraction(F(-5, 2), 12) == "-2.5"
        assert format_fraction(F(1, 3), 12) == "1/3"
        assert format_fraction(F(0), 12) == "0"
        for value in (F(3, 8), F(-11, 7), F(4), F(123456, 1000)):
            assert parse_value_entry(format_fraction(value, 12), 12) == value

    def test_env_override_controls_default_decimals(self, monkeypatch):
        monkeypatch.setenv("ADT_VALUE_DECIMALS", "2")
        doc = helpers.bernoulli_x().to_document()
        del doc["config"]["value_decimals"]
        doc["nodes"][1]["value"] = ["0.125"]  # quantizes to 0.12 at 2 decimals
        tree = load_tree(doc)
        assert tree.config.value_decimals == 2
        assert tree.node("a+").value == (F(12, 100),)

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("ADT_VALUE_DECIMALS", "lots")
        doc = helpers.bernoulli_x().to_document()
        del doc["config"]["value_decimals"]
        with pytest.raises(DocumentError):
            load_tree(doc)


class TestMetricConfig:
    def test_weak_flag(self):
        assert helpers.cfg(p=0).is_weak
        assert not helpers.cfg(p=1).is_weak

    def test_rejects_bad_orders(self):
        with pytest.raises(TreeValidationError):
            MetricConfig(num_steps=2, dim=1, order=F(-1))
        with pytest.raises(TreeValidationError):
            MetricConfig(num_steps=2, dim=1, order=F(1, 2))  # between 0 and 1

    def test_exact_costs(self):
        assert helpers.cfg(p=1).exact_costs
        assert helpers.cfg(p=2).exact_costs
        assert helpers.cfg(p=0).exact_costs
        assert not MetricConfig(num_steps=2, dim=1, order=F(3, 2)).exact_costs

    def test_step_cost_orders(self):
        c1, c2 = helpers.cfg(p=1), helpers.cfg(p=2, d=2)
        assert c1.step_cost((F(1),), (F(-2),)) == F(3)
        assert c2.step_cost((F(1), F(0)), (F(0), F(2))) == F(5)  # 1^2 + 2^2

    def test_root_cost(self):
        assert helpers.cfg(p=1).root_cost(F(9)) == F(9)
        assert helpers.cfg(p=2).root_cost(F(9)) == pytest.approx(3.0)

    def test_shape_guard_names_context(self):
        with pytest.raises(ConfigMismatchError, match="during-test"):
            helpers.cfg(n=2).require_same_shape(helpers.cfg(n=3), "during-test")


class TestDiscreteMeasure:
    def test_validates_total(self):
        with pytest.raises(TreeValidationError):
            DiscreteMeasure(atoms=("a",), weights=(F(1, 2),))

    def test_validates_sign(self):
        with pytest.raises(TreeValidationError):
            DiscreteMeasure(atoms=("a", "b"), weights=(F(3, 2), F(-1, 2)))

    def test_from_pairs_merges_and_drops_zero(self):
        m = DiscreteMeasure.from_pairs(
            [("x", F(1, 2)), ("x", F(1, 4)), ("y", F(1, 4)), ("z", F(0))]
        )
        assert m.as_dict() == {"x": F(3, 4), "y": F(1, 4)}


class TestValidation:
    def _nodes(self):
        tree = helpers.bernoulli_x()
        return {n.node_id: n for n in tree.nodes()}, tree.config

    def test_unknown_child(self):
        nodes, config = self._nodes()
        nodes["a"] = TreeNode("a", 1, (F(0),), "", (("ghost", F(1)),))
        with pytest.raises(TreeValidationError, match="ghost"):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_child_time_must_increment(self):
        nodes, config = self._nodes()
        nodes["a+"] = TreeNode("a+", 1, (F(1),), "", ())
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_nonpositive_probability(self):
        nodes, config = self._nodes()
        nodes["a"] = TreeNode("a", 1, (F(0),), "", (("a+", F(0)), ("a-", F(1))))
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_children_must_sum_to_one(self):
        nodes, config = self._nodes()
        nodes["a"] = TreeNode("a", 1, (F(0),), "", (("a+", F(1, 2)), ("a-", F(1, 3))))
        with pytest.raises(TreeValidationError, match="sum to"):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_duplicate_sibling_labels(self):
        nodes, config = self._nodes()
        nodes["a-"] = TreeNode("a-", 2, (F(1),), "", ())  # same (value, info) as a+
        with pytest.raises(TreeValidationError, match="value"):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_interior_node_must_branch(self):
        config = helpers.cfg(n=3)
        nodes = {
            "a": TreeNode("a", 1, (F(0),), "", (("b", F(1)),)),
            "b": TreeNode("b", 2, (F(0),), "", ()),  # dead end above the leaf level
        }
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_leaf_depth_uniform(self):
        nodes, config = self._nodes()
        nodes["a+"] = TreeNode("a+", 2, (F(1),), "", (("deep", F(1)),))
        nodes["deep"] = TreeNode("deep", 3, (F(2),), "", ())
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_value_dimension(self):
        nodes, config = self._nodes()
        nodes["a+"] = TreeNode("a+", 2, (F(1), F(2)), "", ())
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_unreachable_node(self):
        nodes, config = self._nodes()
        nodes["orphan"] = TreeNode("orphan", 2, (F(5),), "", ())
        with pytest.raises(TreeValidationError, match="orphan"):
            FilteredTree(config, nodes, (("a", F(1)),))

    def test_two_parents_rejected(self):
        config = helpers.cfg()
        nodes = {
            "a": TreeNode("a", 1, (F(0),), "", (("c", F(1)),)),
            "b": TreeNode("b", 1, (F(1),), "", (("c", F(1)),)),
            "c": TreeNode("c", 2, (F(2),), "", ()),
        }
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1, 2)), ("b", F(1, 2))))

    def test_key_table_agreement(self):
        nodes, config = self._nodes()
        nodes["mislabeled"] = nodes.pop("a+")
        with pytest.raises(TreeValidationError):
            FilteredTree(config, nodes, (("a", F(1)),))


class TestAccessors:
    def test_basic_accessors(self):
        tree = helpers.bernoulli_x()
        assert tree.size() == 3
        assert tree.level(1) == ("a",)
        assert set(tree.leaves()) == {"a+", "a-"}
        assert tree.parent("a+") == "a"
        assert tree.parent("a") is None
        assert tree.children(None) == (("a", F(1)),)
        assert tree.prob("a+") == F(1, 2)
        assert tree.value_path("a-") == ((F(0),), (F(-1),))
        assert tree.node_path("a-") == ("a", "a-")

    def test_nodes_preorder(self):
        tree = helpers.random_walk_tree(3)
        seen = set()
        for node in tree.nodes():
            parent = tree.parent(node.node_id)
            assert parent is None or parent in seen
            seen.add(node.node_id)

    def test_with_config_guards_shape(self):
        tree = helpers.bernoulli_x()
        with pytest.raises(ConfigMismatchError):
            tree.with_config(helpers.cfg(n=3))
        rebound = tree.with_config(helpers.cfg(p=2))
        assert rebound.config.order == 2
        assert rebound.node("a+").value == (F(1),)

    def test_with_values_keeps_the_tree(self):
        tree = helpers.random_tree(random.Random(7), n=3)
        lifted = tree.with_values(2, lambda node: node.value + (F(node.time),))
        assert lifted.config == helpers.cfg(n=3, d=2)
        assert lifted.root_children == tree.root_children
        assert [n.node_id for n in lifted.nodes()] == [n.node_id for n in tree.nodes()]
        for node in tree.nodes():
            new = lifted.node(node.node_id)
            assert (new.time, new.info, new.children) == (node.time, node.info, node.children)
            assert new.value == node.value + (F(node.time),)
            assert lifted.prob(node.node_id) == tree.prob(node.node_id)
            assert lifted.parent(node.node_id) == tree.parent(node.node_id)
        # a map that makes two siblings agree in (value, info) is refused
        with pytest.raises(TreeValidationError, match="has two children"):
            helpers.bernoulli_x().with_values(1, lambda node: (F(0),))


class TestDocuments:
    def test_roundtrip_identity(self):
        for tree in (
            helpers.bernoulli_x(),
            helpers.y_eps(F(1, 10)),
            helpers.sign_lift(),
            helpers.random_walk_tree(3),
        ):
            doc = tree.to_document()
            again = load_tree(doc).to_document()
            assert doc == again

    def test_json_string_accepted(self):
        doc = json.dumps(helpers.bernoulli_x().to_document())
        tree = load_tree(doc)
        assert tree.size() == 3

    def test_rational_values_survive(self):
        tree = helpers.chain_tree([F(1, 3), F(2, 3)])
        doc = tree.to_document()
        assert doc["nodes"][0]["value"] == ["1/3"]
        assert load_tree(doc).node("n1").value == (F(1, 3),)

    def test_malformed_documents(self):
        with pytest.raises(DocumentError):
            load_tree("not json at all {")
        with pytest.raises(DocumentError):
            load_tree({"config": {"N": 2, "d": 1, "p": "1"}})  # no nodes
        doc = helpers.bernoulli_x().to_document()
        doc["nodes"][0].pop("time")
        with pytest.raises(DocumentError):
            load_tree(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_tree_file(tmp_path / "absent.json")

    def test_file_roundtrip(self, tmp_path):
        tree = helpers.y_eps(F(1, 10))
        path = tmp_path / "y.json"
        path.write_text(json.dumps(tree.to_document()), encoding="utf-8")
        loaded = load_tree_file(path)
        assert loaded.to_document() == tree.to_document()


class TestPathCosts:
    def test_order_one(self):
        config = helpers.cfg()
        assert path_cost(((F(0),), (F(1),)), ((F(1),), (F(-1),)), config) == F(3)
        assert path_distance(((F(0),), (F(1),)), ((F(1),), (F(-1),)), config) == F(3)

    def test_order_two(self):
        config = helpers.cfg(p=2)
        cost = path_cost(((F(0),), (F(1),)), ((F(1),), (F(-1),)), config)
        assert cost == F(5)
        assert path_distance(((F(0),), (F(1),)), ((F(1),), (F(-1),)), config) == pytest.approx(
            5**0.5
        )

    def test_weak_truncates_total_only(self):
        config = helpers.cfg(p=0)
        assert path_cost(((F(0),), (F(0),)), ((F(1, 4),), (F(1, 4),)), config) == F(1, 2)
        assert path_cost(((F(0),), (F(0),)), ((F(3, 4),), (F(3, 4),)), config) == F(1)

    def test_length_guard(self):
        with pytest.raises(ConfigMismatchError):
            path_cost(((F(0),),), ((F(0),), (F(1),)), helpers.cfg())

    def test_law_on_paths_merges_redundant_labels(self):
        law = law_on_paths(helpers.redundant_lift())
        assert law.as_dict() == {
            ((F(0),), (F(1),)): F(1, 2),
            ((F(0),), (F(-1),)): F(1, 2),
        }


class TestRandomTrees:
    def test_random_trees_validate_and_measure_one(self):
        rng = random.Random(7)
        for _ in range(40):
            tree = helpers.random_tree(rng)
            total = sum(tree.prob(leaf) for leaf in tree.leaves())
            assert total == 1
            for t in range(1, tree.config.num_steps + 1):
                level_total = sum(tree.prob(nid) for nid in tree.level(t))
                assert level_total == 1
