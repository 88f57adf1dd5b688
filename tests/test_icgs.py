"""Structure queries: validation, moves, successors, indistinguishability."""

import itertools
import random
import tracemalloc
from array import array

import pytest

from atlir import icgs, modelio
from atlir.checker import check, eval_ceu, evaluate
from atlir.errors import (
    CoalitionMismatch,
    DisabledJointAction,
    ModelError,
    UnknownAgent,
    UnknownState,
)
from atlir.formula import TRUE
from atlir.icgs import (
    DUPLICATE_ACTION,
    EMPTY_PROTOCOL,
    OBSERVATION_PROTOCOL_MISMATCH,
    GroupAction,
    Move,
    MoveSet,
    StateSet,
    all_moves,
    enabled_group,
    gamma_closure,
    moves_of,
    post_states,
    step,
    validate,
    with_perfect_information,
)
from atlir.moveops import (
    compatible,
    filter_ceu,
    is_conflicting,
    pre_ce,
    pre_move,
    split_all,
)
from atlir.oracle import enumerate_uniform, strategy_sat_u

from corpus import make_model, random_model


def two_state_model(obs_tokens=("o", "o"), protocols=(("a", "b"), ("a", "b"))):
    states = ["s0", "s1"]
    protocol = {"ag": {"s0": list(protocols[0]), "s1": list(protocols[1])}}
    transition = {}
    for q in states:
        for act in protocol["ag"][q]:
            transition[(q, (act,))] = "s0"
    observation = {"ag": {"s0": obs_tokens[0], "s1": obs_tokens[1]}}
    return make_model(["ag"], states, protocol, transition, observation)


# -- validate ---------------------------------------------------------------

def test_cardgame_validates(cardgame):
    assert validate(cardgame) == []


def test_empty_protocol_reported():
    model = two_state_model()
    broken = icgs.Icgs(model.agents, model.states, model.initial, model.actions,
                       {"ag": {"s0": ["a", "b"], "s1": []}}, model.transition,
                       model.observation, {})
    kinds = {issue.kind for issue in validate(broken)}
    assert EMPTY_PROTOCOL in kinds


def test_observation_protocol_mismatch_reported():
    # same token but different enabled actions
    model = two_state_model(protocols=(("a", "b"), ("a",)))
    kinds = {issue.kind for issue in validate(model)}
    assert OBSERVATION_PROTOCOL_MISMATCH in kinds


def test_missing_transition_reported():
    model = two_state_model()
    incomplete = dict(model.transition)
    del incomplete[("s1", ("b",))]
    broken = icgs.Icgs(model.agents, model.states, model.initial, model.actions,
                       model.protocol, incomplete, model.observation, {})
    kinds = {issue.kind for issue in validate(broken)}
    assert "MissingTransition" in kinds


def test_dangling_initial_reported():
    model = two_state_model()
    broken = icgs.Icgs(model.agents, model.states, ["nope"], model.actions,
                       model.protocol, model.transition, model.observation, {})
    kinds = {issue.kind for issue in validate(broken)}
    assert "DanglingReference" in kinds


def test_labels_on_undeclared_states_are_reported():
    model = two_state_model()
    labeled = icgs.Icgs(model.agents, model.states, model.initial, model.actions,
                        model.protocol, model.transition, model.observation,
                        {"s0": ["p"], "ghost": ["q"]})
    assert issues_of(labeled) == [
        ("DanglingReference", "labels mention unknown state 'ghost'")]
    assert labeled.atoms == {"p"}


def test_require_valid_raises_with_issues():
    model = two_state_model(protocols=(("a", "b"), ("a",)))
    with pytest.raises(ModelError) as err:
        model.require_valid()
    assert err.value.issues


def test_duplicate_protocol_action_reported():
    model = make_model(["g"], ["u"], {"g": {"u": ["a", "a"]}},
                       {("u", ("a",)): "u"}, {"g": {"u": "o"}})
    assert [(issue.kind, issue.message) for issue in validate(model)] == [
        (DUPLICATE_ACTION,
         "protocol of 'g' in 'u' lists an action more than once: ['a', 'a']")]
    with pytest.raises(ModelError):
        model.require_valid()
    # the action still has one move id
    assert model.index(("g",)).move_action == [("a",)]


# Each entry: a transition key, the target it gets (None: deleted from an
# otherwise complete relation) and the one issue that causes.
TRANSITION_FAULTS = [
    (("u", ("b",)), None,
     ("MissingTransition", "no transition from 'u' under joint action ('b',)")),
    (("u", ("a",)), "x",
     ("DanglingReference", "transition from 'u' leads to unknown state 'x'")),
    (("v", ("b",)), "u",
     ("DanglingReference", "transition from 'v' under disabled joint action ('b',)")),
    (("z", ("a",)), "u",
     ("DanglingReference", "transition from unknown state 'z'")),
]


def faulty_model(faults):
    transition = {("u", ("a",)): "v", ("u", ("b",)): "u", ("v", ("a",)): "u"}
    for key, target, _ in faults:
        if target is None:
            del transition[key]
        else:
            transition[key] = target
    return make_model(["g"], ["u", "v"], {"g": {"u": ["a", "b"], "v": ["a"]}},
                      transition, {"g": {"u": "u", "v": "v"}})


@pytest.mark.parametrize("faults", [TRANSITION_FAULTS]
                         + [[fault] for fault in TRANSITION_FAULTS])
def test_transition_faults_are_reported_verbatim(faults):
    issues = {(issue.kind, issue.message)
              for issue in validate(faulty_model(faults))}
    assert issues == {issue for _, _, issue in faults}


def test_perfect_information_copy_keeps_the_issues():
    noted = icgs.Icgs(
        ["g"], ["u"], ["u", "w"], {"g": ["a"]}, {"g": {"u": ["a"]}},
        [(("u", ("a",)), "v"), (("u", ("a",)), "u")], {"g": {"u": "o"}}, {})
    for model in (faulty_model(TRANSITION_FAULTS), noted):
        pi = with_perfect_information(model)
        assert len(validate(model)) >= 2
        assert validate(pi) == validate(model)
        assert pi.rows is model.rows
        assert pi.index(("g",)) is not model.index(("g",))


def from_pairs(pairs):
    """The two-state model of ``faulty_model`` with transitions ``pairs``."""
    return icgs.Icgs(["g"], ["u", "v"], ["u"], {"g": ["a", "b"]},
                     {"g": {"u": ["a", "b"], "v": ["a"]}}, pairs,
                     {"g": {"u": "u", "v": "v"}}, {})


def issues_of(model):
    return [(issue.kind, issue.message) for issue in validate(model)]


def test_pairs_fill_the_rows_as_their_last_wins_mapping():
    rng = random.Random(5)
    keys = [("u", ("a",)), ("u", ("b",)), ("v", ("a",)), ("v", ("b",)),
            ("z", ("a",)), ("u", ("a", "a"))]
    for _ in range(200):
        pairs = [(rng.choice(keys), rng.choice(["u", "v", "x"]))
                 for _ in range(rng.randint(0, 8))]
        mapped, paired = from_pairs(dict(pairs)), from_pairs(pairs)
        assert paired.rows == mapped.rows
        assert paired.n_transitions == mapped.n_transitions
        # the pairs add one issue per changed successor, in their order;
        # dangling keys come in the order they first turned so, which can
        # differ from the mapping's key order where a key repeats
        changes = []
        last = {}
        for key, succ in pairs:
            if last.setdefault(key, succ) != succ:
                changes.append(("NondeterministicTransition",
                                "two transitions from %r under %r lead to %r and %r"
                                % (*key, last[key], succ)))
                last[key] = succ
        issues = issues_of(paired)
        assert issues[:len(changes)] == changes
        assert sorted(issues[len(changes):]) == sorted(issues_of(mapped))


def test_a_chain_through_an_undeclared_state_names_every_successor():
    key = ("u", ("a",))
    model = from_pairs([(key, succ) for succ in ("v", "ghost", "u", "ghost")]
                       + [(("u", ("b",)), "u"), (("v", ("a",)), "u")])
    assert model.rows == [array("i", [-2, 0]), array("i", [0])]
    assert model.n_transitions == len(model.transition) == 2
    assert issues_of(model) == [
        ("NondeterministicTransition",
         "two transitions from 'u' under ('a',) lead to %r and %r" % change)
        for change in [("v", "ghost"), ("ghost", "u"), ("u", "ghost")]] + [
        ("DanglingReference", "transition from 'u' leads to unknown state 'ghost'")]


def test_a_one_shot_iterator_is_read_once(cardgame):
    items = iter(cardgame.transition.items())
    model = icgs.Icgs(cardgame.agents, cardgame.states, cardgame.initial,
                      cardgame.actions, cardgame.protocol, items,
                      cardgame.observation, cardgame.labels)
    assert model == cardgame and validate(model) == []
    assert next(items, None) is None


def test_repr_counts_transitions_without_building_them(castles111):
    tracemalloc.start()
    try:
        text = repr(castles111)
        repr_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        count = len(castles111.transition)
        dict_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "Icgs(%d agents, %d states, %d transitions)" % (
        len(castles111.agents), len(castles111.states), count)
    assert repr_peak * 50 < dict_peak
    assert count == castles111.n_transitions == 11144


def test_rows_in_place_of_the_transition_mapping():
    model = faulty_model([TRANSITION_FAULTS[0]])  # u under b is missing

    def with_rows(rows, transition=None):
        return icgs.Icgs(model.agents, model.states, model.initial,
                         model.actions, model.protocol, transition,
                         model.observation, {}, rows=rows)

    assert model.rows == [array("i", [1, -1]), array("i", [0])]
    same = with_rows([array("i", [1, -1]), array("i", [0])])
    assert same == model and same.n_transitions == model.n_transitions == 2
    assert validate(same) == validate(model)
    misfits = ([array("i", [1, -1])],                 # one row for two states
               [array("i", [1]), array("i", [0])],    # one entry for two joints
               [array("i", [1, -1]), None],           # None for an enabled state
               [array("i", [1, -2]), array("i", [0])],  # below -1
               [array("i", [1, 2]), array("i", [0])])   # past the last state
    for rows in misfits:
        with pytest.raises(ModelError):
            with_rows(rows)
    with pytest.raises(ModelError):
        with_rows(model.rows, model.transition)
    with pytest.raises(ModelError):
        with_rows(None)
    # a state where an agent has no action has no row
    idle = make_model(["g"], ["u"], {"g": {"u": []}}, {}, {"g": {"u": "o"}})
    assert idle.rows == [None]
    with pytest.raises(ModelError):
        icgs.Icgs(idle.agents, idle.states, idle.initial, idle.actions,
                  idle.protocol, None, idle.observation, {}, rows=[array("i")])


def test_step_on_a_missing_transition_is_disabled():
    model = faulty_model(TRANSITION_FAULTS)
    assert step(model, "v", ("a",)) == "u"
    with pytest.raises(DisabledJointAction):
        step(model, "u", ("b",))
    with pytest.raises(DisabledJointAction):
        step(model, "u", {"g": "b"})


def test_step_without_a_protocol_map_is_disabled():
    # h has no protocol map at all: no joint action is enabled
    model = make_model(["g", "h"], ["u"], {"g": {"u": ["a"]}}, {},
                       {"g": {"u": "o"}}, actions={"g": ["a"], "h": ["c"]})
    with pytest.raises(DisabledJointAction):
        step(model, "u", ("a", "c"))
    with pytest.raises(DisabledJointAction):
        step(model, "u", {"g": "a", "h": "c"})
    assert model.index(("g",)).stuck_moves == 1


def generated(monkeypatch, gen, *params):
    """A generated model, and the transition dict the generator passed: its
    mapping, or its rows read through the product of its sorted protocols."""
    passed = {}

    def capture(*args, **kwargs):
        passed["args"] = args, kwargs
        return icgs.Icgs(*args, **kwargs)

    monkeypatch.setattr(modelio, "Icgs", capture)
    model = gen(*params)
    (agents, states, _, _, protocol, transition, *_), kwargs = passed["args"]
    if transition is not None:
        return model, dict(transition)
    transition = {}
    for q, row in zip(states, kwargs["rows"]):
        menus = [sorted(protocol[ag][q]) for ag in agents]
        for joint, t in zip(itertools.product(*menus), row):
            transition[(q, joint)] = states[t]
    return model, transition


@pytest.mark.parametrize("gen, params", [(modelio.gen_cardgame, ()),
                                         (modelio.gen_castles, (1, 1, 1))])
def test_transition_reads_back_what_the_generator_passed(monkeypatch, gen, params):
    model, passed = generated(monkeypatch, gen, *params)
    transition = model.transition
    assert transition == passed
    assert all(step(model, q, joint) == target
               for (q, joint), target in passed.items())
    def rebuilt(transition):
        return icgs.Icgs(model.agents, model.states, model.initial,
                         model.actions, model.protocol, transition,
                         model.observation, model.labels)

    assert rebuilt(transition) == model
    key, target = next(iter(passed.items()))
    passed[key] = next(q for q in model.states if q != target)
    assert rebuilt(passed) != model


# -- enabled_group ----------------------------------------------------------

def test_player_can_keep_or_swap_in_deal_states(cardgame):
    acts = enabled_group(cardgame, ["player"], "deal_AK")
    assert {ga.picks for ga in acts} == {("keep",), ("swap",)}


def test_empty_coalition_has_one_empty_action(cardgame):
    acts = enabled_group(cardgame, [], "start")
    assert acts == frozenset({GroupAction((), ())})


def test_worker_cannot_defend_twice_in_a_row(castles111):
    tired = [q for q in castles111.states
             if q.startswith("hp") and "_cd0" in q and not q.startswith("hp0")]
    assert tired, "some reachable state has worker c1w1 unready"
    state = tired[0]
    acts = {ga.picks[0] for ga in enabled_group(castles111, ["c1w1"], state)}
    assert "defend" not in acts
    assert {"attack2", "attack3", "noop"} == acts


def test_enabled_group_is_empty_where_a_member_has_no_action():
    # h has no enabled action in v: the product of protocols is empty
    model = make_model(["g", "h"], ["u", "v"],
                       {"g": {"u": ["a"], "v": ["a"]}, "h": {"u": ["c"]}},
                       {("u", ("a", "c")): "v"},
                       {"g": {"u": "o", "v": "o"}, "h": {"u": "u", "v": "v"}})
    assert enabled_group(model, ["h"], "v") == frozenset()
    assert enabled_group(model, ["g", "h"], "v") == frozenset()
    assert enabled_group(model, ["g"], "v") == {GroupAction(("g",), ("a",))}


def test_enabled_group_unknown_inputs(cardgame):
    with pytest.raises(UnknownState):
        enabled_group(cardgame, ["player"], "nope")
    with pytest.raises(UnknownAgent):
        enabled_group(cardgame, ["ghost"], "start")


def test_state_sets_reject_unknown_states(cardgame):
    with pytest.raises(UnknownState):
        cardgame.state_set(["start", "nope"])
    with pytest.raises(UnknownAgent):
        gamma_closure(cardgame, ["ghost"], cardgame.all_states())


# -- all_moves / moves_of ---------------------------------------------------

def test_all_moves_count_matches_protocol_sum(cardgame):
    expected = sum(len(cardgame.protocol["player"][q]) for q in cardgame.states)
    ms = all_moves(cardgame, ["player"])
    assert len(ms) == expected
    assert ms.covered_states() == cardgame.all_states()


def test_all_moves_empty_coalition_one_per_state(cardgame):
    ms = all_moves(cardgame, [])
    assert len(ms) == len(cardgame.states)


def test_all_moves_restricted_to_state_is_enabled_group(cardgame):
    ms = all_moves(cardgame, ["player"])
    for q in cardgame.states:
        at_q = {mv.action for mv in ms if mv.state == q}
        assert at_q == set(enabled_group(cardgame, ["player"], q))


def test_moves_of_edges(cardgame):
    empty = cardgame.state_set([])
    assert len(moves_of(cardgame, ["player"], empty)) == 0
    assert (moves_of(cardgame, ["player"], cardgame.all_states())
            == all_moves(cardgame, ["player"]))


def test_moves_of_initial_state_counts(cardgame):
    init = cardgame.state_set(["start"])
    assert len(moves_of(cardgame, ["dealer"], init)) == 6
    assert len(moves_of(cardgame, ["player"], init)) == 1


def test_moves_of_covers_exactly_the_states():
    rng = random.Random(7)
    for _ in range(25):
        model = random_model(rng)
        qs = model.state_set(q for q in model.states if rng.random() < 0.5)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        ms = moves_of(model, gamma, qs)
        assert ms.covered_states() == qs


# -- post_states ------------------------------------------------------------

def test_post_states_examples(cardgame):
    assert len(post_states(cardgame, cardgame.state_set([]))) == 0
    successors = post_states(cardgame, cardgame.state_set(["start"]))
    assert successors.ids() == {"deal_%s%s" % (p, d)
                                for p in "AKQ" for d in "AKQ" if p != d}
    assert post_states(cardgame, cardgame.all_states()) <= cardgame.all_states()


def test_post_states_monotone():
    rng = random.Random(11)
    for _ in range(25):
        model = random_model(rng)
        small = model.state_set(q for q in model.states if rng.random() < 0.4)
        big = small | model.state_set(q for q in model.states if rng.random() < 0.4)
        assert post_states(model, small) <= post_states(model, big)


# -- gamma_closure ----------------------------------------------------------

def test_player_confuses_deals_with_same_card(cardgame):
    qs = cardgame.state_set(["deal_AK"])
    assert gamma_closure(cardgame, ["player"], qs).ids() == {"deal_AK", "deal_AQ"}


def test_closure_edges(cardgame):
    qs = cardgame.state_set(["deal_AK"])
    assert len(gamma_closure(cardgame, [], qs)) == 0
    assert gamma_closure(cardgame, ["player"], cardgame.all_states()) \
        == cardgame.all_states()


def test_closure_monotone_and_extensive():
    rng = random.Random(13)
    for _ in range(25):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        small = model.state_set(q for q in model.states if rng.random() < 0.4)
        big = small | model.state_set(q for q in model.states if rng.random() < 0.4)
        assert small <= gamma_closure(model, gamma, small)
        assert gamma_closure(model, gamma, small) <= gamma_closure(model, gamma, big)


def test_singleton_closure_idempotent():
    rng = random.Random(17)
    for _ in range(25):
        model = random_model(rng)
        ag = rng.choice(model.agents)
        qs = model.state_set(q for q in model.states if rng.random() < 0.4)
        once = gamma_closure(model, [ag], qs)
        assert gamma_closure(model, [ag], once) == once


def test_multi_agent_closure_need_not_be_idempotent():
    # a1 confuses s0/s1, a2 confuses s1/s2: closing {s0} twice reaches s2
    states = ["s0", "s1", "s2"]
    protocol = {"a1": {q: ["x"] for q in states},
                "a2": {q: ["x"] for q in states}}
    transition = {(q, ("x", "x")): q for q in states}
    observation = {"a1": {"s0": "m", "s1": "m", "s2": "z"},
                   "a2": {"s0": "w", "s1": "n", "s2": "n"}}
    model = make_model(["a1", "a2"], states, protocol, transition, observation)
    once = gamma_closure(model, ["a1", "a2"], model.state_set(["s0"]))
    twice = gamma_closure(model, ["a1", "a2"], once)
    assert once.ids() == {"s0", "s1"}
    assert twice.ids() == {"s0", "s1", "s2"}


def test_tokens_induce_equivalence():
    rng = random.Random(19)
    model = random_model(rng)
    for ag in model.agents:
        for q1 in model.states:
            c1 = gamma_closure(model, [ag], model.state_set([q1]))
            assert q1 in c1  # reflexive
            for q2 in c1:
                c2 = gamma_closure(model, [ag], model.state_set([q2]))
                assert q1 in c2  # symmetric
                assert c2 == c1  # transitive (same class)


# -- step -------------------------------------------------------------------

def test_step_swap_reveals_table_card(cardgame):
    # holding A against Q leaves K on the table; K beats Q
    target = step(cardgame, "deal_AQ", {"player": "swap", "dealer": "noop"})
    assert target == "show_KQ"
    assert "win" in cardgame.labels[target]


def test_step_keep_winning_card(cardgame):
    target = step(cardgame, "deal_AK", {"player": "keep", "dealer": "noop"})
    assert target == "show_AK"
    assert "win" in cardgame.labels[target]


def test_step_rejects_disabled_actions(cardgame):
    with pytest.raises(DisabledJointAction):
        step(cardgame, "start", {"player": "keep", "dealer": "noop"})
    with pytest.raises(DisabledJointAction):
        step(cardgame, "start", {"player": "wait"})


def test_step_rejects_a_mapping_with_an_unknown_agent(cardgame):
    with pytest.raises(UnknownAgent, match="'zzz'"):
        step(cardgame, "start", {"dealer": "deal_AK", "player": "wait", "zzz": "x"})
    assert step(cardgame, "start", {"dealer": "deal_AK", "player": "wait"}) == "deal_AK"


def test_step_total_on_enabled_joints():
    rng = random.Random(23)
    model = random_model(rng)
    import itertools
    for q in model.states:
        for joint in itertools.product(*(model.protocol[ag][q]
                                         for ag in model.agents)):
            assert step(model, q, joint) in model.states


# -- set types --------------------------------------------------------------

def test_state_set_iterates_in_model_order(cardgame):
    qs = cardgame.state_set(["start", "deal_AK", "show_QA"])
    listed = list(qs)
    assert listed == [q for q in cardgame.states if q in qs.ids()]


def test_state_set_algebra(cardgame):
    every = cardgame.all_states()
    deals = cardgame.state_set(q for q in cardgame.states if q.startswith("deal"))
    shows = cardgame.state_set(q for q in cardgame.states if q.startswith("show"))
    assert (deals | shows) <= every
    assert len(deals & shows) == 0
    assert (every - deals - shows).ids() == {"start"}


def test_move_set_canonical_order_and_ops(cardgame):
    ms = all_moves(cardgame, ["player"])
    listed = list(ms)
    keyed = [(cardgame.state_position(mv.state), mv.action.picks) for mv in listed]
    assert keyed == sorted(keyed)
    singleton = MoveSet.of(cardgame, ["player"], [listed[0]])
    assert singleton <= ms
    assert (ms - singleton) | singleton == ms


def test_move_set_coalition_mismatch(cardgame):
    player = all_moves(cardgame, ["player"])
    dealer = all_moves(cardgame, ["dealer"])
    with pytest.raises(CoalitionMismatch):
        player | dealer


def test_any_order_of_a_coalition_shares_its_index():
    model = modelio.gen_castles(1, 1, 1)  # fresh: its index cache is inspected
    canonical = model.index(("c1w1", "c2w1"))
    assert model.index(("c2w1", "c1w1")) is canonical
    assert model.index(["c2w1", "c1w1"]) is canonical
    assert sorted(model._indexes) == [("c1w1", "c2w1")]


def test_index_of_an_unknown_agent_is_rejected(cardgame):
    with pytest.raises(UnknownAgent):
        cardgame.index(("ghost",))


def test_coalition_reports_the_first_unknown_agent_given(cardgame):
    # not whichever a set yields first, which varies with the hash seed
    ghosts = ["ghost%d" % i for i in range(20)]
    with pytest.raises(UnknownAgent, match="'ghost0'"):
        cardgame.coalition(ghosts)
    with pytest.raises(UnknownAgent, match="'ghost0'"):
        cardgame.index(["player"] + ghosts)
    # a bare string would be split into one-letter agent names
    with pytest.raises(TypeError, match="'player'"):
        cardgame.coalition("player")
    with pytest.raises(TypeError, match="'player'"):
        cardgame.index("player")


def test_move_set_coalition_is_in_model_order(castles111):
    with pytest.raises(CoalitionMismatch):
        MoveSet(castles111, ("c2w1", "c1w1"), 0)


def test_move_requires_enabled_action(cardgame):
    bad = Move("start", GroupAction(("player",), ("swap",)))
    with pytest.raises(DisabledJointAction):
        MoveSet.of(cardgame, ["player"], [bad])


def test_group_action_completion(cardgame):
    deal = GroupAction(("dealer",), ("deal_AK",))
    assert deal.completes(cardgame, ("deal_AK", "wait"))
    assert not deal.completes(cardgame, ("deal_AQ", "wait"))
    assert GroupAction((), ()).completes(cardgame, ("deal_AQ", "wait"))


@pytest.mark.parametrize("joint", [("keep",), ("deal_AK", "keep", "keep")])
def test_group_action_completion_rejects_a_joint_of_the_wrong_length(cardgame, joint):
    with pytest.raises(DisabledJointAction):
        GroupAction(("player",), ("keep",)).completes(cardgame, joint)


def test_group_action_completion_rejects_an_unknown_agent(cardgame):
    with pytest.raises(UnknownAgent, match="'ghost'"):
        GroupAction(("ghost",), ("keep",)).completes(cardgame, ("deal_AK", "keep"))


def test_perfect_information_transform(cardgame):
    pi = with_perfect_information(cardgame)
    assert validate(pi) == []
    for ag in pi.agents:
        for q in pi.states:
            closure = gamma_closure(pi, [ag], pi.state_set([q]))
            assert closure.ids() == {q}


# Every public entry that takes a state or move set, called on the card game
# with one argument taken from castles 1,1,1 (``states``, ``moves``).
def _fragment(m):
    return MoveSet(m, ("player",), 0)


FOREIGN_CALLS = {
    "check": lambda m, states, moves: check(m, "true", query=states),
    "evaluate": lambda m, states, moves: evaluate(m, states, TRUE),
    "eval_ceu-interest": lambda m, states, moves: eval_ceu(
        m, states, _fragment(m), m.all_states(), m.labeled("win"), _fragment(m)),
    "eval_ceu-q1": lambda m, states, moves: eval_ceu(
        m, m.all_states(), _fragment(m), states, m.labeled("win"), _fragment(m)),
    "pre_ce": lambda m, states, moves: pre_ce(m, ["player"], states),
    "filter_ceu": lambda m, states, moves: filter_ceu(
        m, ["player"], states, m.labeled("win")),
    "moves_of": lambda m, states, moves: moves_of(m, ["player"], states),
    "post_states": lambda m, states, moves: post_states(m, states),
    "gamma_closure": lambda m, states, moves: gamma_closure(m, ["player"], states),
    "strategy_sat_u": lambda m, states, moves: strategy_sat_u(
        m, next(enumerate_uniform(m, ["player"])), states, m.labeled("win")),
    "compatible": lambda m, states, moves: compatible(
        m, moves, all_moves(m, ["player"])),
    "is_conflicting": lambda m, states, moves: is_conflicting(m, moves),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_CALLS))
def test_sets_of_another_model_are_rejected(entry, cardgame, castles111):
    with pytest.raises(ModelError):
        FOREIGN_CALLS[entry](cardgame, castles111.all_states(),
                             all_moves(castles111, ["c1w1"]))


# Every public entry that takes a move set, called with the int 5 in its
# place: the type is checked before anything is read off the argument.
NON_SET_CALLS = {
    "is_conflicting": lambda m: is_conflicting(m, 5),
    "compatible-candidates": lambda m: compatible(m, 5, _fragment(m)),
    "compatible-base": lambda m: compatible(m, _fragment(m), 5),
    "eval_ceu-strategy": lambda m: eval_ceu(
        m, m.all_states(), 5, m.all_states(), m.labeled("win"), _fragment(m)),
    "eval_ceu-exclude": lambda m: eval_ceu(
        m, m.all_states(), _fragment(m), m.all_states(), m.labeled("win"), 5),
    "pre_move": lambda m: pre_move(m, ["player"], 5),
    "split_all": lambda m: next(split_all(m, ["player"], 5, True)),
    "union": lambda m: _fragment(m) | 5,
}


@pytest.mark.parametrize("entry", sorted(NON_SET_CALLS))
def test_a_non_set_is_rejected_with_a_type_error(entry, cardgame):
    with pytest.raises(TypeError, match="expected a MoveSet"):
        NON_SET_CALLS[entry](cardgame)
