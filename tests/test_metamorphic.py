"""Metamorphic properties: the satisfying set, compared by state name, does
not depend on how a model is presented.

Each property rebuilds random corpus models in a way that cannot change the
semantics (another state order, other observation tokens, an unrelated
component beside the model) and holds the checker, the strategy-enumeration
oracle and the perfect-information evaluator to their answers on the
original.  Unlike oracle agreement, these properties need no enumeration cap
on the checker's side and hold at any size.
"""

import random

import pytest

from atlir.checker import check
from atlir.formula import parse, to_text
from atlir.icgs import Icgs, validate
from atlir.modelio import dumps, gen_cardgame, gen_castles, loads
from atlir.oracle import count_uniform, oracle_eval, perfect_info_eval

from corpus import random_formula, random_model

SEED = 4242
MODELS = 25
FORMULAS_PER_MODEL = 4


def _parts(model):
    """Copies of the constructor arguments of ``model``."""
    return {"agents": model.agents, "states": list(model.states),
            "initial": model.initial, "actions": dict(model.actions),
            "protocol": {ag: dict(per) for ag, per in model.protocol.items()},
            "transition": dict(model.transition),
            "observation": {ag: dict(per)
                            for ag, per in model.observation.items()},
            "labels": dict(model.labels)}


def _build(parts):
    model = Icgs(**parts)
    assert validate(model) == []
    return model


def permuted_states(rng, model):
    parts = _parts(model)
    rng.shuffle(parts["states"])
    return _build(parts)


def renamed_tokens(rng, model):
    parts = _parts(model)
    for ag, per_state in parts["observation"].items():
        tokens = sorted(set(per_state.values()))
        fresh = ["%s_t%d" % (ag, i) for i in range(len(tokens))]
        rng.shuffle(fresh)
        rename = dict(zip(tokens, fresh))
        parts["observation"][ag] = {q: rename[tok] for q, tok in per_state.items()}
    return _build(parts)


def with_component(rng, model):
    """The disjoint union with a small random model over the same agents,
    with its own states and observation tokens and no transition between
    the two parts."""
    while True:
        other = random_model(rng, max_states=3, max_agents=len(model.agents),
                             max_actions=2)
        if other.agents == model.agents:
            break

    def fresh(name):
        return "u_" + name

    parts = _parts(model)
    parts["states"] += [fresh(q) for q in other.states]
    for ag in model.agents:
        parts["actions"][ag] = sorted(set(model.actions[ag]) | set(other.actions[ag]))
        for q in other.states:
            parts["protocol"][ag][fresh(q)] = other.protocol[ag][q]
            parts["observation"][ag][fresh(q)] = fresh(other.observation[ag][q])
    for (q, joint), target in other.transition.items():
        parts["transition"][(fresh(q), joint)] = fresh(target)
    for q in other.states:
        parts["labels"][fresh(q)] = other.labels[q]
    return _build(parts)


EVALUATORS = {
    "check": lambda model, f: check(model, f).sat,
    "oracle_eval": oracle_eval,
    "perfect_info_eval": perfect_info_eval,
}


@pytest.fixture(scope="module")
def cases():
    """Corpus models whose coalitions of up to two agents have at most 400
    uniform strategies, so the oracle stays fast on the union too."""
    rng = random.Random(SEED)
    out = []
    while len(out) < MODELS:
        model = random_model(rng, max_agents=3)
        agents = model.agents
        pairs = [(a,) for a in agents] + [
            model.coalition([a, b]) for i, a in enumerate(agents)
            for b in agents[i + 1:]]
        if max(count_uniform(model, c) for c in pairs) > 400:
            continue
        formulas = [random_formula(rng, model, depth=3)
                    for _ in range(FORMULAS_PER_MODEL)]
        out.append((model, formulas))
    return out


@pytest.mark.parametrize("transform", [permuted_states, renamed_tokens,
                                       with_component])
@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_satisfying_set_is_invariant(transform, evaluator, cases):
    rng = random.Random(SEED + 1)
    evaluate = EVALUATORS[evaluator]
    for model, formulas in cases:
        other = transform(rng, model)
        for f in formulas:
            expected = evaluate(model, f).ids()
            got = evaluate(other, f).ids() & set(model.states)
            assert got == expected, (evaluator, f)


def permuted_agents(rng, model):
    """The model with its agents listed in another order, each joint action
    tuple permuted to match."""
    order = list(range(len(model.agents)))
    while order == sorted(order):
        rng.shuffle(order)
    parts = _parts(model)
    parts["agents"] = [model.agents[j] for j in order]
    parts["transition"] = {(q, tuple(joint[j] for j in order)): target
                           for (q, joint), target in model.transition.items()}
    return _build(parts)


def test_agent_order_is_invisible(cases):
    """Documents list agents sorted, so a model whose agents come in another
    order writes the same text and loads back as the sorted one; the checker
    gives the same satisfying sets.  Castles are checked on the initial
    states only: on all states the search takes minutes."""
    castles = gen_castles(1, 1, 1)
    subjects = [(gen_cardgame(), ["<<player>> F win", "<<dealer,player>> F win"],
                 None),
                (castles, ["<<c1w1,c2w1>> F castle3_defeated",
                           "<<c1w1,c2w1>> F all_defeated"], castles.initial)]
    subjects += [(model, [to_text(f) for f in formulas], None)
                 for model, formulas in cases if len(model.agents) > 1][:10]
    assert len(subjects) == 12
    rng = random.Random(SEED + 2)
    for model, formulas, query in subjects:
        assert list(model.agents) == sorted(model.agents)
        other = permuted_agents(rng, model)
        text = dumps(other)
        assert text == dumps(model)
        assert loads(text) == model
        for f in formulas:
            sats = [check(m, parse(f, m), query=m.state_set(query or m.states))
                    .sat.ids() for m in (model, other)]
            assert sats[0] == sats[1], f
