"""Model ingestion and wealth evaluation."""

import json
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robusthedge import cli
from robusthedge.market import Market
from robusthedge.model import (
    MAX_NODES,
    MalformedDocument,
    ScenarioTree,
    Strategy,
    dot,
    load_model,
    save_model,
    wealth,
)
from robusthedge.polar import compute_support
from robusthedge.rational import RationalParseError, integer_row, over_cap, to_rational

from conftest import (
    NAME_FIELDS,
    NUMBER_FIELDS,
    count_calls,
    example_b_with,
    random_instance,
)

F = Fraction


def test_smallest_legal_tree_infers_dimension():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1", "2"],
             "generators": [{"c": "1"}]},
            {"id": "c", "level": 1, "parent": "r", "price": ["1", "2"]},
        ],
    }
    model = load_model(json.dumps(doc))
    assert model.tree.dimension == 2
    assert model.tree.leaves == ("c",)


def test_unnormalized_generator_rejected():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"a": 0.5, "b": 0.6}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["2"]},
        ],
    }
    problem = "^node 'r' generator 0: weights sum to 11/10, not 1$"
    with pytest.raises(MalformedDocument, match=problem):
        load_model(json.dumps(doc))


def test_decimal_weights_parse_exactly():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": [1.5],
             "generators": [{"a": 0.1, "b": 0.9}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["2"]},
        ],
    }
    model = load_model(json.dumps(doc))
    gen = model.tree.nodes["r"].generators[0]
    assert gen.weights == {"a": F(1, 10), "b": F(9, 10)}
    assert model.tree.nodes["r"].price == (F(3, 2),)


def test_dangling_child_reference():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"ghost": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
        ],
    }
    with pytest.raises(MalformedDocument, match="^node 'r': reference to unknown child 'ghost'$"):
        load_model(json.dumps(doc))


def _rows_document(*rows):
    """One period: a root over children a and b with the given generator rows."""
    return json.dumps({
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"], "generators": list(rows)},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["2"]},
        ],
    })


def test_a_validated_row_does_not_admit_a_bool():
    # True == 1 and hash(True) == hash(1), so a row that passed as (1,)
    # must not let (True,) through
    with pytest.raises(MalformedDocument, match="^node 'r' generator 1: .*boolean True"):
        load_model(_rows_document({"a": 1}, {"a": True}))


def test_each_child_is_checked_before_its_weight():
    with pytest.raises(MalformedDocument, match="^node 'r': reference to unknown child 'zz'$"):
        load_model(_rows_document({"zz": "1", "a": "bad"}))
    with pytest.raises(MalformedDocument, match="^node 'r' generator 0: cannot parse"):
        load_model(_rows_document({"a": "bad", "zz": "1"}))


@pytest.mark.parametrize(
    "row, problem",
    [(["2", "-1"], "negative weight -1 on 'd'"), (["1/2", "1/3"], "weights sum to 5/6, not 1")],
)
def test_a_bad_row_repeated_fails_at_its_first_node(row, problem):
    # two periods; the bad row sits on x and again on y, after a good row
    nodes = [
        {"id": "r", "level": 0, "parent": None, "price": ["1"],
         "generators": [{"x": "1/2", "y": "1/2"}]},
        {"id": "x", "level": 1, "parent": "r", "price": ["1"],
         "generators": [{"c": "1/2", "d": "1/2"}, dict(zip("cd", row))]},
        {"id": "y", "level": 1, "parent": "r", "price": ["1"],
         "generators": [dict(zip("ef", row))]},
    ]
    nodes += [{"id": k, "level": 2, "parent": "x" if k in "cd" else "y", "price": ["1"]}
              for k in "cdef"]
    with pytest.raises(MalformedDocument) as err:
        load_model(json.dumps({"horizon": 2, "nodes": nodes}))
    assert str(err.value) == f"node 'x' generator 1: {problem}"


def test_repeated_rows_give_equal_generators():
    model = load_model(_rows_document({"a": "1/3", "b": "2/3"}, {"b": "1/3", "a": "2/3"},
                                      {"a": "1/3", "b": "2/3"}))
    weights = [g.weights for g in model.tree.nodes["r"].generators]
    assert weights == [{"a": F(1, 3), "b": F(2, 3)}, {"a": F(2, 3), "b": F(1, 3)},
                       {"a": F(1, 3), "b": F(2, 3)}]


def test_dimension_mismatch():
    doc = {
        "horizon": 1,
        "dimension": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1", "1"],
             "generators": [{"a": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
        ],
    }
    with pytest.raises(
        MalformedDocument, match="^node 'a': price vector has 1 coordinates, expected 2$"
    ):
        load_model(json.dumps(doc))


def test_structural_errors():
    base = {
        "horizon": 2,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"a": "1"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
        ],
    }
    with pytest.raises(MalformedDocument):
        load_model(json.dumps(base))  # leaf above the horizon
    with pytest.raises(MalformedDocument):
        load_model("not json [")
    with pytest.raises(MalformedDocument):
        load_model(json.dumps({"horizon": 0, "nodes": []}))


def _star(leaves):
    """A valid one-period tree: a root with `leaves` children."""
    nodes = [{"id": "r", "level": 0, "parent": None, "price": ["1"],
              "generators": [{"0": "1"}]}]
    nodes += [{"id": str(k), "level": 1, "parent": "r", "price": ["1"]} for k in range(leaves)]
    return {"horizon": 1, "nodes": nodes}


def test_node_count_is_capped():
    load_model(json.dumps(_star(2)))
    with pytest.raises(MalformedDocument, match=f"^'nodes' holds {MAX_NODES + 1} nodes"):
        load_model(json.dumps(_star(MAX_NODES)))


def test_repeated_option_name_rejected(example_b_text):
    # strategies key option positions by name, so a second "call" would
    # hide one position
    doc = json.loads(example_b_text)
    doc["options"].append(
        {"name": "call", "quote": "3/5", "payoff": {"8": "1", "10": "0", "13": "0"}}
    )
    with pytest.raises(MalformedDocument, match="^duplicate option name 'call'$"):
        load_model(json.dumps(doc))
    doc["options"][1]["name"] = "put8"
    assert [opt.name for opt in load_model(json.dumps(doc)).options] == ["call", "put8"]


# null is a parent's one legal non-string: it makes node '8' a second root
_NOT_STRINGS = [
    (field, literal)
    for field in sorted(NAME_FIELDS)
    for literal in ("null", "[]", "true", "1e5000", "7", '{"a": "b"}')
    if (field, literal) != ("parent", "null")
]


@pytest.mark.parametrize("field, literal", _NOT_STRINGS)
def test_a_name_that_is_not_a_string_is_rejected(field, literal):
    message = NAME_FIELDS[field][1]
    with pytest.raises(MalformedDocument, match=f"^{re.escape(message)}$"):
        load_model(example_b_with(field, literal))


def test_a_string_that_spells_a_rejected_value_is_a_name(example_b_text):
    # the check is on the JSON type, not on what the string says
    model = load_model(example_b_text.replace('"root"', '"[]"'))
    assert model.tree.root == "[]"
    assert {model.tree.nodes[leaf].parent for leaf in model.tree.leaves} == {"[]"}
    model = load_model(example_b_text.replace('"call"', '"1e5000"'))
    assert [opt.name for opt in model.options] == ["1e5000"]


def test_option_without_quote_rejected(example_b_text):
    doc = json.loads(example_b_text)
    del doc["options"][0]["quote"]
    with pytest.raises(MalformedDocument, match="^option 'call': needs a 'quote'$"):
        load_model(json.dumps(doc))


def test_infinite_claim_rejected():
    doc = """{
      "horizon": 1,
      "nodes": [
        {"id": "r", "level": 0, "parent": null, "price": ["1"],
         "generators": [{"a": "1"}]},
        {"id": "a", "level": 1, "parent": "r", "price": ["1"]}
      ],
      "claims": {"bad": {"a": Infinity}}
    }"""
    with pytest.raises(MalformedDocument):
        load_model(doc)


@pytest.mark.parametrize(
    "section, value",
    [
        ("options", 5),
        ("options", "ab"),
        ("options", {"name": "call"}),
        ("claims", "call"),
        ("claims", ["call"]),
        ("processes", "surface"),
        ("processes", [1]),
        ("measures", "uniform"),
        ("measures", []),
    ],
)
def test_wrong_typed_section_is_named(example_b_text, section, value):
    doc = json.loads(example_b_text)
    doc[section] = value
    shape = "an array" if section == "options" else "an object"
    with pytest.raises(MalformedDocument, match=f"^'{section}' must be {shape} or null$"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("section", ["options", "claims", "processes", "measures"])
def test_absent_or_null_section_is_empty(example_b_text, section):
    doc = json.loads(example_b_text)
    doc[section] = None
    with_null = load_model(json.dumps(doc))
    del doc[section]
    assert load_model(json.dumps(doc)) == with_null
    assert not getattr(with_null, section)


def test_round_trip_is_identity(example_b, example_b_text):
    text = save_model(example_b)
    again = load_model(text)
    assert again == example_b
    assert save_model(again) == text


def test_increments_are_computed_once_per_tree(example_b_text):
    model = load_model(example_b_text)
    tree = model.tree
    for node in tree.nodes.values():
        for child in node.children:
            step = tree.increment(node.id, child)
            prices = zip(tree.nodes[child].price, node.price)
            assert step == tuple(c - p for c, p in prices)
            assert tree.increment(node.id, child) is step
    # the kept increments change neither equality nor the saved text
    fresh = load_model(example_b_text)
    assert model == fresh
    assert save_model(model) == save_model(fresh)
    assert load_model(save_model(model)) == model


def test_validate_computes_no_increment(monkeypatch, tmp_path, example_b_text):
    path = tmp_path / "b.json"
    path.write_text(example_b_text)
    calls = count_calls(monkeypatch, ScenarioTree, "increment")
    assert cli.main(["validate", "--model", str(path)]) == 0
    assert calls == []


def test_wealth_zero_strategy(example_b):
    strat = Strategy(F(0), ())
    for leaf in example_b.tree.leaves:
        assert wealth(example_b.tree, strat, (), leaf) == 0


def test_wealth_static_only(example_b):
    # one call bought at quote 6/5: payoff 3 at leaf "13" nets 3 - 6/5
    strat = Strategy(F(0), (F(1),))
    assert wealth(example_b.tree, strat, example_b.options, "13") == F(9, 5)
    assert wealth(example_b.tree, strat, example_b.options, "10") == F(-6, 5)


def test_wealth_quote_normalization_example():
    doc = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "level": 0, "parent": None, "price": ["1"],
             "generators": [{"a": "1/2", "b": "1/2"}]},
            {"id": "a", "level": 1, "parent": "r", "price": ["1"]},
            {"id": "b", "level": 1, "parent": "r", "price": ["1"]},
        ],
        "options": [{"name": "g", "quote": 1.2, "payoff": {"a": "3", "b": "0"}}],
    }
    model = load_model(json.dumps(doc))
    strat = Strategy(F(0), (F(1),))
    assert wealth(model.tree, strat, model.options, "a") == F(9, 5)


def test_wealth_dynamic_example_b(example_b):
    # x = 1.2, H = 0.6: 1.2 + 0.6 * dS with dS in {-2, 0, 3}
    strat = Strategy(F(6, 5), (), {"root": (F(3, 5),)})
    values = [wealth(example_b.tree, strat, (), leaf) for leaf in ("8", "10", "13")]
    assert values == [F(0), F(6, 5), F(3)]


def test_leaf_wealths_match_wealth_on_random_strategies():
    """`Market.wealths` equals `wealth` at every relevant leaf, in
    relevant-leaf order, for exact and float positions alike (the float
    additions are done in the same order)."""
    rng = random.Random(11)
    for _ in range(40):
        model = random_instance(rng)
        tree = model.tree
        mask = compute_support(tree)
        nodes = [n for level in tree.levels[:-1] for n in level]
        position = (lambda: F(rng.randint(-4, 4), rng.randint(1, 3)),
                    lambda: rng.uniform(-4, 4))[rng.randrange(2)]
        dynamic = {
            n: tuple(position() for _ in range(tree.dimension))
            for n in nodes
            if rng.random() < 0.7
        }
        # fewer static positions than options is allowed: the rest hold 0
        static = tuple(position() for _ in range(rng.randint(0, len(model.options))))
        strategy = Strategy(F(rng.randint(-3, 3)), static, dynamic)
        got = Market(tree, mask, model.options).wealths(strategy)
        assert list(got) == list(mask.relevant_leaves)
        for leaf, value in got.items():
            assert value == wealth(tree, strategy, model.options, leaf)


def test_random_models_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        model = random_instance(rng)
        assert load_model(save_model(model)) == model


@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
@pytest.mark.parametrize(
    "literal", ["1e5000", '"1e5000"', "1e100000000", '"1e100000000"', "9" * 5000]
)
def test_oversize_number_is_rejected_at_load(field, literal):
    # checked on the text: 1e100000000 never becomes a 100-million-digit int
    where = NUMBER_FIELDS[field][1]
    with pytest.raises(MalformedDocument, match=re.escape(where) + ": .*4000 digits"):
        load_model(example_b_with(field, literal))


@pytest.mark.parametrize(
    "literal",
    ["1e3999", "-1e-3999", '"-.1e-3998"', '"' + "9" * 4000 + "/" + "7" * 4000 + '"'],
)
def test_largest_numbers_round_trip(literal):
    model = load_model(example_b_with("claim", literal))
    assert load_model(save_model(model)) == model


@pytest.mark.parametrize("literal", ['".1e-3999"', '"1/' + "7" * 4001 + '"', "1" + "0" * 4000])
def test_just_over_the_cap_is_rejected(literal):
    with pytest.raises(MalformedDocument, match="4000 digits"):
        load_model(example_b_with("claim", literal))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(text=st.text(alphabet="0123456789-+/._ eE\u0661\u0662", max_size=7))
@example(text="+1")
@example(text="--1")
@example(text=" 12 ")
@example(text="")
@example(text="1_000")
@example(text="_1")
@example(text="007/0010")
@example(text="-0")
@example(text="1/0")
@example(text="1/00")
@example(text="1/-2")
@example(text="1/2/3")
@example(text="\u0661/\u0662")
@example(text="-3.25")
@example(text=".5")
@example(text="2.5E-2")
@example(text="1e3")
def test_to_rational_reads_what_fraction_reads(text):
    assume(not over_cap(text))
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(RationalParseError):
            to_rational(text)
    else:
        assert to_rational(text) == expected


_ROW = st.lists(st.builds(F, st.integers(-10**60, 10**60), st.integers(1, 30)), max_size=6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(row=_ROW)
@example(row=[])
@example(row=[F(-10**60, 7), F(0), F(10**60 + 1, 30)])
def test_integer_row_is_the_least_integral_scaling(row):
    scale, ints = integer_row(row)
    assert ints == [x * scale for x in row] and all(type(n) is int for n in ints)
    # least: scale divides an integral scaling, and no scale / p is integral
    assert scale > 0 and prod(x.denominator for x in row) % scale == 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        assert scale % p or any((x * (scale // p)).denominator > 1 for x in row)
    assert integer_row(tuple(row)) == integer_row(dict(enumerate(row)).values()) == (scale, ints)


_BIG = st.builds(F, st.integers(-10**60, 10**60), st.integers(1, 10**60))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs=st.lists(st.tuples(_BIG, _BIG), max_size=4))
@example(pairs=[])
def test_dot_is_the_sum_of_products(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    result = dot(a, b)
    assert type(result) is F
    assert result == sum((x * y for x, y in pairs), F(0))
    if not pairs:
        assert result == F(0)


_VALUES = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _numeral(draw, value: Fraction) -> object:
    """value written as a JSON integer, a "p/q" string or a decimal string."""
    forms = ["p/q"]
    if value.denominator == 1:
        forms.append("integer")
    if 1000 % value.denominator == 0:
        forms.append("decimal")
    form = draw(st.sampled_from(forms))
    if form == "integer":
        return int(value)
    if form == "decimal":
        return str(Decimal(value.numerator) / value.denominator)
    return str(value)


def _weights(draw, keys: list[str]) -> dict[str, object]:
    """Probability weights over keys, zeros included, summing to 1."""
    raw = draw(st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys)))
    raw[draw(st.integers(0, len(keys) - 1))] += 1
    return {k: _numeral(draw, F(w, sum(raw))) for k, w in zip(keys, raw)}


@st.composite
def _documents(draw):
    """A valid model document: one or two periods, one or two stocks, up to
    three children per node, with options, claims, processes and measures."""
    horizon = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 2))
    nodes = []
    frontier = [None]
    for level in range(horizon + 1):
        grown = []
        for parent in frontier:
            count = 1 if parent is None else draw(st.integers(1, 3))
            kids = []
            for _ in range(count):
                node = {
                    "id": f"n{len(nodes)}",
                    "level": level,
                    "parent": parent and parent["id"],
                    "price": [_numeral(draw, draw(_VALUES)) for _ in range(dim)],
                }
                nodes.append(node)
                kids.append(node["id"])
                grown.append(node)
            if parent is not None:
                parent["generators"] = [
                    _weights(draw, kids) for _ in range(draw(st.integers(1, 2)))
                ]
        frontier = grown
    leaves = [node["id"] for node in frontier]

    def leaf_values():
        return {leaf: _numeral(draw, draw(_VALUES)) for leaf in leaves}

    return {
        "horizon": horizon,
        "dimension": dim,
        "nodes": nodes,
        "options": [
            {"name": f"g{k}", "quote": _numeral(draw, draw(_VALUES)), "payoff": leaf_values()}
            for k in range(draw(st.integers(0, 2)))
        ],
        "claims": {f"f{k}": leaf_values() for k in range(draw(st.integers(0, 2)))},
        "processes": {
            "v": {node["id"]: _numeral(draw, draw(_VALUES)) for node in nodes}
        },
        "measures": {"p": _weights(draw, leaves)},
    }


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=_documents())
def test_generated_documents_round_trip(doc):
    model = load_model(json.dumps(doc))
    text = save_model(model)
    assert load_model(text) == model
    assert save_model(load_model(text)) == text
