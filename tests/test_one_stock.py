"""Exact closed forms of the one-period problems: the one-stock price and
no-arbitrage test, the two-stock no-arbitrage test, and the price of a
complete node.

With one stock, `node_na` answers without an LP, and so does `node_price`
at every node with local NA except where a zero-increment child lies above
the best chord and the node has more than three children; with two
stocks, `node_na` passes a node without an LP; with d stocks and d + 1
children, `node_price` prices a complete node without an LP.
These tests compare them with the LPs they replace, called directly on
generated one-step sets, and pin the number of LPs each route solves.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robusthedge.lp as lp
import robusthedge.superhedge as sh
from robusthedge import oracle
from robusthedge.arbitrage import (
    _one_stock_separator,
    _two_stock_inside,
    global_na,
    node_na,
)
from robusthedge.model import Claim, load_model
from robusthedge.polar import compute_support

from conftest import count_calls

F = Fraction

ROOT_PRICE = 10


def one_step_model(increments):
    """One period, one stock, a Dirac generator on every child, so every
    child is supported and child k moves the price by increments[k]."""
    return vector_step_model([(inc,) for inc in increments])


def vector_step_model(moves):
    """One period, as many stocks as each move has coordinates, a Dirac
    generator on every child, so child k moves the prices by moves[k]."""
    kids = [f"c{k}" for k in range(len(moves))]
    nodes = [
        {
            "id": "root",
            "level": 0,
            "parent": None,
            "price": [str(ROOT_PRICE)] * len(moves[0]),
            "generators": [{kid: "1"} for kid in kids],
        }
    ]
    nodes += [
        {
            "id": kid,
            "level": 1,
            "parent": "root",
            "price": [str(ROOT_PRICE + m) for m in move],
        }
        for kid, move in zip(kids, moves)
    ]
    return load_model(json.dumps({"horizon": 1, "nodes": nodes})).tree, kids


def lp_separator(increments):
    """The scaled separator of the max-min-weight LP, None when 0 is in the
    relative interior of the hull."""
    return lp_vector_separator([(F(v),) for v in increments])


def lp_vector_separator(vectors):
    y = lp.zero_in_relative_interior(vectors)
    if y is None:
        return None
    peak = max(abs(v) for v in y)
    return tuple(v / peak for v in y)


LOCAL_ARBITRAGE = "no one-step martingale weights at node 'root'"


def lp_price(increments, values):
    try:
        return sh._one_step_lp("root", [(F(v),) for v in increments], values)
    except ValueError as exc:
        return str(exc)


def closed_form_price(tree, mask, kids, values):
    try:
        return sh.node_price(tree, mask, "root", dict(zip(kids, values)))
    except ValueError as exc:
        return str(exc)


def assert_matches_lp(increments, values):
    """The closed forms (and their LP fallbacks) give the LP's verdict,
    separator, price and hedge."""
    tree, kids = one_step_model(increments)
    mask = compute_support(tree)
    report = node_na(tree, mask, "root")
    expected = lp_separator(increments)
    assert report.passed == (expected is None)
    assert report.certificate == expected
    assert _one_stock_separator([(F(v),) for v in increments]) == expected
    assert closed_form_price(tree, mask, kids, values) == lp_price(increments, values)


steps = st.fractions(min_value=-3, max_value=3, max_denominator=2)
one_step_sets = st.lists(st.tuples(steps, steps), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(points=one_step_sets)
def test_closed_forms_match_lp_on_generated_sets(points):
    increments = [inc for inc, _ in points]
    values = [v for _, v in points]
    assert_matches_lp(increments, values)


CASES = {
    "single child, zero increment": ([0], [F(5)]),
    "single child, up move": ([2], [F(5)]),
    "all increments zero": ([0, 0, 0], [F(1), F(4), F(-2)]),
    "zero child on the envelope": ([-1, 0, 1], [F(0), F(1), F(0)]),
    "zero child on the best chord": ([-1, 0, 1], [F(0), F(1), F(2)]),
    "zero child strictly below": ([-1, 0, 1], [F(0), F(1, 2), F(2)]),
    "repeated increments": ([-1, -1, 2, 2], [F(3), F(1), F(0), F(4)]),
    "collinear chord endpoints": ([-2, -1, 1, 2], [F(-4), F(-2), F(2), F(4)]),
    "ties between chords": ([-2, -1, 1, 3], [F(0), F(1), F(1), F(-1)]),
    "all up moves": ([1, 2, 3], [F(1), F(0), F(2)]),
    "all down moves": ([-1, -1, -3], [F(1), F(0), F(2)]),
    "down moves and a zero": ([-1, 0], [F(1), F(0)]),
}


# the cases node_price answers without its LP: a pair across 0 with no
# zero-increment child strictly above the best chord, a flat node (every
# increment 0), and a tie node (one down, one zero and one up child, the
# zero child above the chord)
CLOSED_FORM_PRICES = {
    "all increments zero",
    "single child, zero increment",
    "zero child on the envelope",
    "zero child on the best chord",
    "zero child strictly below",
    "repeated increments",
    "collinear chord endpoints",
    "ties between chords",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_forms_match_lp_on_explicit_sets(name):
    increments, values = CASES[name]
    assert_matches_lp(increments, values)
    out = sh._one_stock_price([(F(v),) for v in increments], values)
    assert (out is not None) == (name in CLOSED_FORM_PRICES)


magnitudes = st.one_of(
    st.fractions(F(1, 1000), 1, max_denominator=1000),
    st.fractions(1, 1000, max_denominator=10),
)
child_values = st.fractions(-20, 20, max_denominator=7)


@st.composite
def tie_children(draw):
    """One down, one zero and one up child by name, as (dS, value): |dS|
    on both sides of 1, and the zero child strictly above the chord of the
    other two."""
    down, up = -draw(magnitudes), draw(magnitudes)
    v_down, v_up = draw(child_values), draw(child_values)
    chord = (v_down * up - v_up * down) / (up - down)
    gap = draw(st.fractions(F(1, 7), 20, max_denominator=7))
    return {"down": (down, v_down), "zero": (F(0), chord + gap), "up": (up, v_up)}


def assert_closed_form_is_lp(increments, values):
    """node_price answers without its LP, with the LP's price and hedge."""
    tree, kids = one_step_model(increments)
    mask = compute_support(tree)
    moves = [(F(v),) for v in increments]
    expected = sh._one_step_lp("root", moves, values)
    assert sh._one_stock_price(moves, values) == expected
    assert sh.node_price(tree, mask, "root", dict(zip(kids, values))) == expected
    return expected


@pytest.mark.parametrize("order", list(itertools.permutations(["down", "zero", "up"])))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(kids=tie_children())
@example(kids={"down": (-1, F(0)), "zero": (0, F(1)), "up": (1, F(0))})  # D's phase-1 cost 0
@example(kids={"down": (F(-1, 1000), F(20)), "zero": (0, F(20)), "up": (1000, F(-20))})
@example(kids={"down": (F(-999, 1000), F(-3)), "zero": (0, F(7)), "up": (1000, F(3))})
def test_tie_node_closed_form_matches_lp(order, kids):
    """The LP's pick is tight on the down child for (up, down, zero) and on
    the up child in the five other orders, whatever the magnitudes."""
    moves, values = [kids[k][0] for k in order], [kids[k][1] for k in order]
    price, hedge = assert_closed_form_is_lp(moves, values)
    tight = "down" if order == ("up", "down", "zero") else "up"
    (move, value), zero = kids[tight], kids["zero"][1]
    assert (price, hedge) == (zero, ((value - zero) / move,))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(values=st.lists(child_values, min_size=1, max_size=5))
def test_flat_node_closed_form_matches_lp(values):
    assert_closed_form_is_lp([0] * len(values), values)


def test_one_signed_sets_fail_na_and_price_raises():
    for increments, separator in (([1, 2], (F(1),)), ([-1, -3, -1], (F(-1),))):
        tree, kids = one_step_model(increments)
        mask = compute_support(tree)
        report = node_na(tree, mask, "root")
        assert not report.passed and report.certificate == separator
        with pytest.raises(ValueError, match=f"^{LOCAL_ARBITRAGE}$"):
            sh.node_price(tree, mask, "root", {kid: F(0) for kid in kids})


def assert_two_stock_matches_lp(moves):
    """The two-stock test gives the LP's verdict, and node_na its verdict
    and separator."""
    vectors = [(F(x), F(y)) for x, y in moves]
    expected = lp_vector_separator(vectors)
    assert _two_stock_inside(vectors) == (expected is None)
    tree, _ = vector_step_model(moves)
    report = node_na(tree, compute_support(tree), "root")
    assert report.passed == (expected is None)
    assert report.certificate == expected


TWO_STOCK_CASES = {
    "all zero": [(0, 0), (0, 0)],
    "one zero": [(0, 0)],
    "duplicates around 0": [(1, 0), (1, 0), (-1, 1), (-1, -1), (-1, -1)],
    "duplicates on one side": [(1, 1), (1, 1), (2, 1)],
    "collinear, both signs": [(2, -1), (-4, 2), (0, 0)],
    "collinear, one sign": [(2, -1), (4, -2), (0, 0)],
    "opposite pair and one on one side": [(1, 0), (-1, 0), (0, 1)],
    "opposite pair and one on each side": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "quadrant": [(1, 0), (0, 1), (1, 1)],
    "triangle around 0": [(-1, -1), (2, -1), (0, 2)],
    "fractional triangle around 0": [(F(-1, 3), F(-1, 2)), (F(2, 7), F(-1, 5)), (0, F(5, 3))],
    "zero and an open half-plane": [(0, 0), (1, 1), (-1, 2)],
}


@pytest.mark.parametrize("name", sorted(TWO_STOCK_CASES))
def test_two_stock_test_matches_lp_on_explicit_sets(name):
    assert_two_stock_matches_lp(TWO_STOCK_CASES[name])


small = st.integers(-3, 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(moves=st.lists(st.tuples(small, small), min_size=1, max_size=6))
@example(moves=[(0, 0), (0, 0), (0, 0)])
@example(moves=[(1, 2), (-2, -4)])
@example(moves=[(1, 2), (2, 4)])
@example(moves=[(0, 1), (0, -1), (1, 0)])
def test_two_stock_test_matches_lp_on_generated_sets(moves):
    assert_two_stock_matches_lp(moves)


def test_failing_two_stock_node_solves_one_lp(monkeypatch):
    tree, _ = vector_step_model([(1, 0), (-1, 0), (0, 1)])
    solves = count_calls(monkeypatch, lp, "solve")
    report = node_na(tree, compute_support(tree), "root")
    assert not report.passed and report.certificate == (F(0), F(1))
    assert len(solves) == 1


coordinates = st.one_of(
    st.integers(-2, 2).map(F), st.fractions(-2, 2, max_denominator=3)
)


@st.composite
def square_nodes(draw):
    """d = 1, 2 or 3 stocks, d + 1 moves and d + 1 child values."""
    d = draw(st.integers(1, 3))
    width = st.lists(coordinates, min_size=d, max_size=d).map(tuple)
    moves = draw(st.lists(width, min_size=d + 1, max_size=d + 1))
    values = draw(st.lists(coordinates, min_size=d + 1, max_size=d + 1))
    return moves, values


def is_complete(moves):
    """By the vertex oracle: the node has one martingale measure, and it
    charges every child."""
    tree, _ = vector_step_model(moves)
    vertices = oracle.one_step_vertices(tree, compute_support(tree), "root")
    return len(vertices) == 1 and len(vertices[0].weights) == len(moves)


def square_node(moves, values):
    return [tuple(map(F, move)) for move in moves], [F(v) for v in values]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(node=square_nodes())
@example(node=square_node([(-1,), (2,)], [1, 3]))  # complete, d = 1
@example(node=square_node([(0,), (1,)], [1, 3]))  # 0 at a vertex
@example(node=square_node([(1,), (2,)], [1, 3]))  # local arbitrage
@example(node=square_node([(-1, -1), (2, -1), (0, 2)], [1, 0, 2]))  # complete
@example(node=square_node([(1, 0), (-1, 0), (0, 1)], [1, 0, 2]))  # 0 on a facet
@example(node=square_node([(-1, -1), (1, 1), (2, 2)], [1, 0, 2]))  # collinear
@example(node=square_node([(1, 0), (1, 0), (-1, 0)], [1, 0, 2]))  # repeated
@example(node=square_node([(1, 0), (0, 1), (1, 1)], [1, 0, 2]))  # local arbitrage
@example(  # complete, d = 3
    node=square_node([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [1, -1, 2, 0])
)
@example(  # 0 on an edge, d = 3
    node=square_node(
        [(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 1), (0, 0, -1)], [1, -1, 2, 0]
    )
)
def test_complete_price_matches_lp_on_generated_nodes(node):
    """`_complete_price` answers exactly at the complete nodes, and there
    gives the LP's price and hedge; it never answers where the LP finds
    local arbitrage."""
    moves, values = node
    out = sh._complete_price(moves, values)
    try:
        expected = sh._one_step_lp("root", moves, values)
    except ValueError as exc:
        assert str(exc) == LOCAL_ARBITRAGE
        assert out is None
        return
    assert (out is not None) == is_complete(moves)
    if out is not None:
        assert out == expected


@pytest.mark.parametrize(
    "moves, closed_form",
    [
        ([(-1,), (1,), (2,)], "_one_stock_price"),
        ([(-1, -1), (2, -1), (0, 2)], "_complete_price"),
    ],
    ids=["one-stock", "two-stocks"],
)
def test_shifted_closed_form_hedge_fails_reverification(
    monkeypatch, moves, closed_form
):
    """node_price re-verifies the closed form's hedge on every child."""
    tree, kids = vector_step_model(moves)
    inner = getattr(sh, closed_form)

    def shifted(increments, values):
        value, hedge = inner(increments, values)
        return value, (hedge[0] + 1, *hedge[1:])

    monkeypatch.setattr(sh, closed_form, shifted)
    values = {kid: F(k) for k, kid in enumerate(kids)}
    with pytest.raises(RuntimeError, match="one-step hedge failed re-verification"):
        sh.node_price(tree, compute_support(tree), "root", values)


def trinomial_model(moves):
    """Two-period non-recombining tree with one child per move at every
    node; `moves` are the price increments, one vector each. Dirac
    generators make every child supported."""
    dim = len(moves[0])
    start = [10] * dim
    nodes = [{"id": "r", "level": 0, "parent": None, "price": [str(p) for p in start]}]
    frontier = [("r", start, nodes[0])]
    for level in (1, 2):
        grown = []
        for parent, price, entry in frontier:
            kids = []
            for k, move in enumerate(moves):
                kid = f"{parent}{k}"
                kid_price = [p + m for p, m in zip(price, move)]
                kid_entry = {
                    "id": kid,
                    "level": level,
                    "parent": parent,
                    "price": [str(p) for p in kid_price],
                }
                nodes.append(kid_entry)
                kids.append(kid)
                grown.append((kid, kid_price, kid_entry))
            entry["generators"] = [{kid: "1"} for kid in kids]
        frontier = grown
    doc = {"horizon": 2, "dimension": dim, "nodes": nodes}
    return load_model(json.dumps(doc)).tree


ONE_STOCK = [(-1,), (1,), (2,)]
# (up, down, zero): with the claim below, three of the four nodes are ties
ONE_STOCK_TIES = [(1,), (-1,), (0,)]
TWO_STOCKS = [(-1, -1), (2, -1), (0, 2)]  # complete: no price LP
TWO_STOCKS_COLLINEAR = [(-1, -1), (1, 1), (2, 2)]  # rank short: the LP prices


@pytest.mark.parametrize(
    "moves, na_per_node, price_per_node",
    [
        (ONE_STOCK, 0, 0),
        (ONE_STOCK_TIES, 0, 0),
        (TWO_STOCKS, 0, 0),
        (TWO_STOCKS_COLLINEAR, 0, 1),
    ],
    ids=[
        "one-stock-exact",
        "one-stock-ties-exact",
        "two-stocks-exact",
        "two-stocks-collinear-exact",
    ],
)
def test_one_step_lps_per_node(monkeypatch, moves, na_per_node, price_per_node):
    tree = trinomial_model(moves)
    mask = compute_support(tree)
    nodes = len(mask.relevant_nonleaf(tree))
    assert nodes == 4
    claim = Claim({leaf: F(k % 5) for k, leaf in enumerate(tree.leaves)})
    solves = count_calls(monkeypatch, lp, "solve")
    assert global_na(tree, mask) is None
    assert len(solves) == na_per_node * nodes
    solves.clear()
    sh.superhedge_dynamic(tree, mask, claim)
    # the NA scan and the backward recursion each visit every node once,
    # and both solve exactly
    assert [args[1] for args in solves] == [lp.EXACT] * (
        (na_per_node + price_per_node) * nodes
    )
