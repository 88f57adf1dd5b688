"""Parser, normalisation, and printing of the formula language."""

import os
import pickle
import random
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from atlir.errors import (
    FormulaSyntaxError,
    UnknownAgent,
    UnknownProposition,
    UnsupportedOperator,
)
from atlir.formula import (
    TRUE,
    And,
    Atom,
    CanEventually,
    CanGlobally,
    CanNext,
    CanUntil,
    CanWeakUntil,
    Iff,
    Implies,
    MustEventually,
    MustGlobally,
    MustNext,
    MustUntil,
    MustWeakUntil,
    Not,
    Or,
    TrueConst,
    atoms,
    coalitions,
    is_normalized,
    normalize,
    parse,
    to_text,
)

from corpus import random_formula, random_model


# -- parsing ----------------------------------------------------------------

def test_parse_eventually(cardgame):
    f = parse("<<player>> F win", cardgame)
    assert f == CanEventually(("player",), Atom("win"))


def test_parse_until(castles112):
    f = parse("<<c1w1,c2w1>> (true U all_defeated)", castles112)
    assert f == CanUntil(("c1w1", "c2w1"), TRUE, Atom("all_defeated"))


def test_parse_globally_is_rejected_by_normalize(cardgame):
    f = parse("<<player>> G win", cardgame)
    with pytest.raises(UnsupportedOperator):
        normalize(f)


def test_parse_boolean_precedence(cardgame):
    f = parse("!win & win | win -> win <-> win", cardgame)
    w = Atom("win")
    assert f == Iff(Implies(Or(And(Not(w), w), w), w), w)


def test_implies_right_associative(cardgame):
    f = parse("win -> win -> win", cardgame)
    w = Atom("win")
    assert f == Implies(w, Implies(w, w))


def test_parse_coalition_canonical_order(cardgame):
    f = parse("<<player,dealer>> X true", cardgame)
    assert f.coalition == ("dealer", "player")  # model agent order


def test_parse_rejects_empty_coalition(cardgame):
    with pytest.raises(FormulaSyntaxError):
        parse("<<>> X true", cardgame)


def test_parse_rejects_unknown_agent(cardgame):
    with pytest.raises(UnknownAgent):
        parse("<<croupier>> X true", cardgame)


def test_parse_rejects_unknown_proposition(cardgame):
    with pytest.raises(UnknownProposition):
        parse("<<player>> F jackpot", cardgame)


def test_syntax_error_carries_position(cardgame):
    with pytest.raises(FormulaSyntaxError) as err:
        parse("win | | win", cardgame)
    assert err.value.position == 6


def test_parse_macro_expansion(castles112):
    f = parse("<<all12>> F castle3_defeated", castles112,
              coalition_macros={"all12": ["c1w1", "c2w1"]})
    assert f.coalition == ("c1w1", "c2w1")


def test_parse_until_requires_coalition_context(cardgame):
    with pytest.raises(FormulaSyntaxError):
        parse("(win U win)", cardgame)


def test_parse_rejects_malformed_input(cardgame):
    for text in ("", "(win", "win)", "<<player>> win", "<<player>>",
                 "<<player,>> X win", "win win", "<<player>> (win U)",
                 "[[player]] (win W win) extra", "@", "<<player>> Y win"):
        with pytest.raises(FormulaSyntaxError):
            parse(text, cardgame)


# -- normalisation ----------------------------------------------------------

def test_normalize_eventually(cardgame):
    f = normalize(parse("<<player>> F win", cardgame))
    assert f == CanUntil(("player",), TRUE, Atom("win"))


def test_normalize_must_globally():
    g = MustGlobally(("a",), Atom("p"))
    assert normalize(g) == Not(CanUntil(("a",), TRUE, Not(Atom("p"))))


def test_normalize_must_next():
    g = MustNext(("a",), Atom("p"))
    assert normalize(g) == Not(CanNext(("a",), Not(Atom("p"))))


def test_normalize_must_weak_until():
    g = MustWeakUntil(("a",), Atom("p"), Atom("q"))
    expected = Not(CanUntil(("a",), Not(Atom("q")), Not(Or(Atom("p"), Atom("q")))))
    assert normalize(g) == expected


def test_normalize_rejects_unsupported():
    for bad in (CanGlobally(("a",), Atom("p")),
                CanWeakUntil(("a",), Atom("p"), Atom("q")),
                MustUntil(("a",), Atom("p"), Atom("q")),
                MustEventually(("a",), Atom("p"))):
        with pytest.raises(UnsupportedOperator):
            normalize(bad)


def test_normalize_boolean_expansion():
    f = And(Atom("p"), Implies(Atom("q"), Atom("r")))
    nf = normalize(f)
    assert is_normalized(nf)
    assert atoms(nf) == {"p", "q", "r"}


def test_normalize_idempotent_and_preserving():
    rng = random.Random(29)
    for _ in range(200):
        model = random_model(rng)
        f = random_formula(rng, model, depth=3)
        nf = normalize(f)
        assert is_normalized(nf)
        assert normalize(nf) == nf
        assert atoms(nf) == atoms(f)
        assert coalitions(nf) == coalitions(f)


# -- printing ---------------------------------------------------------------

def test_print_parse_round_trip_examples(cardgame):
    for text in ("<<player>> X win", "<<player>> (true U win)",
                 "!(win | !win)", "true"):
        f = parse(text, cardgame)
        assert parse(to_text(f), cardgame) == f


def test_round_trip_on_normalized_random_formulas():
    rng = random.Random(31)
    for _ in range(300):
        model = random_model(rng)
        nf = normalize(random_formula(rng, model, depth=3))
        assert parse(to_text(nf), model) == nf


STRATEGIC_UNARY = (CanNext, CanEventually, CanGlobally,
                   MustNext, MustEventually, MustGlobally)
STRATEGIC_BINARY = (CanUntil, CanWeakUntil, MustUntil, MustWeakUntil)


def random_syntax_tree(rng, model, depth):
    """A random formula over every operator of the concrete syntax."""
    if depth == 0 or rng.random() < 0.2:
        return TRUE if rng.random() < 0.2 else Atom(rng.choice(sorted(model.atoms)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_syntax_tree(rng, model, depth - 1))
    if kind == 1:
        cls = rng.choice((And, Or, Implies, Iff))
        return cls(random_syntax_tree(rng, model, depth - 1),
                   random_syntax_tree(rng, model, depth - 1))
    coalition = model.coalition(rng.sample(model.agents, rng.randint(1, len(model.agents))))
    if kind == 2:
        return rng.choice(STRATEGIC_UNARY)(coalition, random_syntax_tree(rng, model, depth - 1))
    return rng.choice(STRATEGIC_BINARY)(coalition, random_syntax_tree(rng, model, depth - 1),
                                        random_syntax_tree(rng, model, depth - 1))


def test_round_trip_over_every_operator():
    rng = random.Random(37)
    seen = set()
    for _ in range(400):
        model = random_model(rng)
        f = random_syntax_tree(rng, model, depth=4)
        assert parse(to_text(f), model) == f, to_text(f)
        stack = [f]
        while stack:
            g = stack.pop()
            seen.add(type(g))
            stack.extend(getattr(g, name) for name in ("sub", "left", "right", "lhs", "rhs")
                         if hasattr(g, name))
    assert seen >= {And, Implies, Iff, *STRATEGIC_UNARY, *STRATEGIC_BINARY}


def test_print_preserves_associativity_shape(cardgame):
    w = Atom("win")
    left = Or(Or(w, w), w)
    right = Or(w, Or(w, w))
    assert parse(to_text(left), cardgame) == left
    assert parse(to_text(right), cardgame) == right
    assert to_text(left) != to_text(right)


# -- nesting bounds ------------------------------------------------------------

def _descent_shapes(levels):
    """Formulas the parser reads by ``levels`` nested descents, one per shape."""
    return {
        "not": "!" * levels + "win",
        "parens": "(" * levels + "win" + ")" * levels,
        "implies": " -> ".join(["win"] * (levels + 1)),
        "next": "<<player>> X " * levels + "win",
        "until": "<<player>> (" * levels + "win" + " U win)" * levels,
        "must-weak-until": "[[player]] (" * levels + "win" + " W win)" * levels,
    }


def _chain(op, levels):
    return (" %s " % op).join(["win"] * (levels + 1))


def _assert_evaluates(model, text):
    from atlir.checker import check
    from atlir.oracle import oracle_eval, perfect_info_eval
    f = parse(text, model)
    assert parse(to_text(f), model) == f, text[:40]
    assert check(model, f).sat == oracle_eval(model, f), text[:40]
    perfect_info_eval(model, f)


def test_formulas_at_the_nesting_bounds_evaluate(cardgame):
    from atlir.formula import MAX_HEIGHT, MAX_NESTING
    for text in _descent_shapes(MAX_NESTING).values():
        _assert_evaluates(cardgame, text)
    for op in ("|", "&", "<->"):
        _assert_evaluates(cardgame, _chain(op, MAX_HEIGHT))
    # the costliest operator at the descent bound over a chain that takes
    # the rest of the height bound
    chain = _chain("|", MAX_HEIGHT - MAX_NESTING)
    _assert_evaluates(cardgame, "[[player]] (" * MAX_NESTING + chain
                      + " W win)" * MAX_NESTING)


def test_formulas_past_the_nesting_bounds_are_syntax_errors(cardgame):
    from atlir.formula import MAX_HEIGHT, MAX_NESTING
    for text in _descent_shapes(MAX_NESTING + 1).values():
        with pytest.raises(FormulaSyntaxError, match="deeper than 64 levels"):
            parse(text, cardgame)
    with pytest.raises(FormulaSyntaxError, match="deeper than 64 levels"):
        parse("!" * 3000 + "win", cardgame)
    with pytest.raises(FormulaSyntaxError, match="deeper than 64 levels"):
        parse("(" * 3000 + "win" + ")" * 3000, cardgame)
    for op in ("|", "&", "<->"):
        with pytest.raises(FormulaSyntaxError, match="128 operator levels"):
            parse(_chain(op, MAX_HEIGHT + 1), cardgame)
    with pytest.raises(FormulaSyntaxError, match="128 operator levels"):
        parse("<<player>> X " * MAX_NESTING + _chain("|", MAX_HEIGHT - 63),
              cardgame)


# -- shared sub-formulas --------------------------------------------------------

def _nested_iff(levels):
    text = "win"
    for _ in range(levels):
        text = "(%s <-> <<player>> X win)" % text
    return text


@contextmanager
def _alarm(seconds):
    """Fail a walk that does not return instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("no result within %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# normalize shares both operands of every '<->', so a hash, a walker or an
# evaluator that follows the DAG as a tree takes time exponential in the depth.

def test_nested_iff_evaluates_in_time_linear_in_its_depth(cardgame):
    f = parse(_nested_iff(40), cardgame)
    with _alarm(10):
        assert isinstance(hash(normalize(f)), int)
        _assert_evaluates(cardgame, _nested_iff(40))


def test_separately_normalized_formulas_compare_in_time_linear_in_depth(cardgame):
    text = _nested_iff(40)
    first, second = (normalize(parse(text, cardgame)) for _ in range(2))
    deeper = normalize(parse(text.replace("win", "!win", 1), cardgame))
    with _alarm(10):
        assert first is not second
        assert first == second and not first != second
        assert {first: "found"}[second] == "found"
        assert first != deeper and deeper != second


def test_normalizing_a_normalized_nested_iff_is_linear_in_its_depth(cardgame):
    from atlir.checker import check
    f = parse(_nested_iff(40), cardgame)
    nf = normalize(f)
    with _alarm(10):
        assert normalize(nf) == nf
        assert check(cardgame, nf).sat == check(cardgame, f).sat


def test_formula_equality_is_structural():
    a, b = Atom("a"), Atom("b")
    assert Or(a, b) == Or(Atom("a"), Atom("b")) != Or(b, a)
    assert Or(a, b) != And(a, b)  # same fields, other operator
    assert CanNext(("x",), a) != CanNext(("y",), a)
    assert Not(a) != a and Not(a) != "a"
    assert TRUE == TrueConst()
    # hash(-1) == hash(-2), so only the field comparison tells these apart
    assert hash(Atom(-1)) == hash(Atom(-2)) and Atom(-1) != Atom(-2)
    shared = Or(a, a)
    assert Or(shared, shared) == Or(Or(a, Atom("a")), Or(Atom("a"), a))


def test_node_walkers_visit_each_shared_node_once(cardgame):
    nf = normalize(parse(_nested_iff(40), cardgame))
    with _alarm(10):
        assert is_normalized(nf)
        assert atoms(nf) == {"win"}
        assert coalitions(nf) == {("player",)}


def test_pickled_formula_rehashes_in_another_process(cardgame):
    # String hashes are salted per process, so a cached hash must not travel.
    text = _nested_iff(3)
    nf = normalize(parse(text, cardgame))
    hash(nf)
    script = ("import pickle, sys\n"
              "from atlir import gen_cardgame, normalize, parse\n"
              "f = pickle.loads(sys.stdin.buffer.read())\n"
              "print({f: 'found'}.get(normalize(parse(%r, gen_cardgame()))))"
              % text)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(nf),
                         capture_output=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
    assert out.stdout.strip() == b"found"
