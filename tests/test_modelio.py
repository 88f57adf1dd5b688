"""Document round-trips and the two benchmark generators."""

import itertools
import json
import random
import signal
import tracemalloc
from collections import Counter

import pytest

from atlir.errors import AtlirError, CapExceeded, DocumentError, ModelError
from atlir.icgs import (
    NONDETERMINISTIC_TRANSITION,
    Icgs,
    ValidationIssue,
    gamma_closure,
    step,
    validate,
)
from atlir.modelio import (
    _REQUIRED_KEYS,
    _object,
    _string,
    _string_list,
    castle_workers,
    dumps,
    from_document,
    gen_cardgame,
    gen_castles,
    load,
    loads,
    model_depth,
    save,
    to_document,
)

from corpus import make_model, random_model


# -- documents -------------------------------------------------------------------

def test_save_load_identity_on_documents(cardgame, tmp_path):
    path = tmp_path / "card.icgs.json"
    save(cardgame, path)
    reloaded = load(path)
    assert dumps(reloaded) == dumps(cardgame)


def test_load_save_identity_on_generated_models(cardgame):
    assert loads(dumps(cardgame)) == cardgame


def test_castles_round_trip(castles111):
    assert loads(dumps(castles111)) == castles111


def test_dumps_joins_the_indented_text_in_slices(castles111):
    tracemalloc.start()
    try:
        sliced = dumps(castles111)
        sliced_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        whole = json.dumps(to_document(castles111), indent=2, sort_keys=True) + "\n"
        whole_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sliced == whole
    assert sliced_peak * 2 < whole_peak


def _indented(model):
    return json.dumps(to_document(model), indent=2, sort_keys=True) + "\n"


def _writer_cases():
    rng = random.Random(11)
    corpus = [random_model(rng) for _ in range(30)]
    # agents and states out of sorted order, so each state's entries are
    # read from the row in another order than the product of its protocols
    unsorted = make_model(
        ["zed", "amy", "kim"], ["t", "s", "u"],
        {"zed": {q: ["b", "a"] for q in "tsu"},
         "amy": {q: ["y", "x", "z"] for q in "tsu"},
         "kim": {"t": ["m", "n"], "s": ["n"], "u": ["m", "n"]}},
        {(q, joint): "tsu"[sum(map(ord, "".join(joint))) % 3] for q in "tsu"
         for joint in itertools.product(*(sorted(acts) for acts in (
             "ab", "xyz", "n" if q == "s" else "mn")))},
        {ag: {q: q for q in "tsu"} for ag in ("zed", "amy", "kim")})
    odd = ['a"q', "b\\s", "\u00e9t\u00e9", "tab\there", "\u2603"]
    escaped = make_model(
        odd[:2], odd[2:],
        {odd[0]: {q: ['"go"', "\u00fc"] for q in odd[2:]},
         odd[1]: {q: ["\\", "x"] for q in odd[2:]}},
        {(q, (a, b)): odd[2 + (len(q) + len(a) + len(b)) % 3]
         for q in odd[2:] for a in ('"go"', "\u00fc") for b in ("\\", "x")},
        {ag: {q: "o" + q for q in odd[2:]} for ag in odd[:2]},
        labels={odd[3]: ["p"]})
    base = make_model(["g"], ["u", "v"], {"g": {"u": ["a", "b"], "v": ["a"]}},
                      {("u", ("a",)): "v", ("u", ("b",)): "u", ("v", ("a",)): "u"},
                      {"g": {"u": "u", "v": "v"}})
    missing = make_model(base.agents, base.states, base.protocol,
                         {("u", ("a",)): "v", ("v", ("a",)): "u"}, base.observation)
    undeclared = make_model(base.agents, base.states, base.protocol,
                            {**base.transition, ("u", ("b",)): "x"},
                            base.observation)
    no_row = make_model(base.agents, base.states, {"g": {"u": ["a", "b"], "v": []}},
                        {("u", ("a",)): "v", ("u", ("b",)): "u"}, base.observation)
    named = [("unsorted", unsorted), ("escaped", escaped), ("missing", missing),
             ("undeclared", undeclared), ("no_row", no_row)]
    return [pytest.param(m, id="corpus%d" % i) for i, m in enumerate(corpus)] + [
        pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("model", _writer_cases())
def test_dumps_is_the_indented_json_of_the_document(model):
    assert dumps(model) == _indented(model)


def test_writer_cases_cover_what_they_are_named_for():
    cases = {p.id: p.values[0] for p in _writer_cases()}
    unsorted, escaped = cases["unsorted"], cases["escaped"]
    assert list(unsorted.agents) != sorted(unsorted.agents)
    assert list(unsorted.states) != sorted(unsorted.states)
    assert all(json.dumps(name) != '"%s"' % name for name in escaped.agents)
    assert [i.kind for i in validate(cases["missing"])] == ["MissingTransition"]
    assert -2 in cases["undeclared"].rows[0]
    assert cases["no_row"].rows[1] is None


def test_save_writes_the_text_as_it_is_produced(castles112, tmp_path):
    path = tmp_path / "castles112.json"
    tracemalloc.start()
    try:
        save(castles112, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == dumps(castles112)
    assert peak < len(text)


def test_loader_builds_no_transition_dictionary(castles112):
    doc = json.loads(dumps(castles112))
    tracemalloc.start()
    try:
        model = from_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model == castles112
    # the rows take 4 bytes per transition; a (state, joint) dict of its
    # 76,088 transitions took about 14 MB
    assert peak < 5_000_000


def test_dumps_is_canonical(cardgame):
    text = dumps(cardgame)
    assert text == dumps(loads(text))
    doc = json.loads(text)
    assert doc["states"] == sorted(doc["states"])
    assert doc["agents"] == sorted(doc["agents"])


def test_load_rejects_bad_json():
    with pytest.raises(DocumentError) as err:
        loads("{not json")
    assert "line" in str(err.value)


def test_load_rejects_missing_key(cardgame):
    doc = to_document(cardgame)
    del doc["protocol"]
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


def test_load_rejects_duplicate_state(cardgame):
    doc = to_document(cardgame)
    doc["states"].append(doc["states"][0])
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


def test_load_reports_missing_transition(cardgame):
    doc = to_document(cardgame)
    doc["transitions"] = doc["transitions"][:-1]
    with pytest.raises(ModelError) as err:
        loads(json.dumps(doc))
    assert any(issue.kind == "MissingTransition" for issue in err.value.issues)


def test_load_reports_nondeterministic_transition(cardgame):
    doc = to_document(cardgame)
    entry = doc["transitions"][0]
    other_target = next(q for q in doc["states"] if q != entry[2])
    doc["transitions"].append([entry[0], dict(entry[1]), other_target])
    with pytest.raises(ModelError) as err:
        loads(json.dumps(doc))
    assert any(issue.kind == "NondeterministicTransition"
               for issue in err.value.issues)


def test_load_rejects_incomplete_joint_action(cardgame):
    doc = to_document(cardgame)
    del doc["transitions"][0][1]["player"]
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


# -- card game -------------------------------------------------------------------

def test_cardgame_shape(cardgame):
    assert validate(cardgame) == []
    assert len(cardgame.states) == 1 + 6 + 6  # start, deals, outcomes
    assert cardgame.initial == ("start",)
    assert cardgame.labeled("win").ids() == {"show_AK", "show_KQ", "show_QA"}


def test_player_sees_only_his_own_card(cardgame):
    holding_a = gamma_closure(cardgame, ["player"], cardgame.state_set(["deal_AK"]))
    assert holding_a.ids() == {"deal_AK", "deal_AQ"}
    assert "deal_KA" not in holding_a


def test_swapping_the_king_yields_the_queen(cardgame):
    # holding K against A leaves Q on the table; Q beats A
    target = step(cardgame, "deal_KA", {"player": "swap", "dealer": "noop"})
    assert target == "show_QA"
    assert "win" in cardgame.labels[target]


def test_outcome_states_are_absorbing(cardgame):
    for q in cardgame.states:
        if q.startswith("show"):
            assert step(cardgame, q, {"player": "noop", "dealer": "noop"}) == q


def test_generators_are_deterministic(cardgame, castles111):
    assert gen_cardgame() == cardgame
    assert gen_castles(1, 1, 1) == castles111


# -- castles ---------------------------------------------------------------------

def test_castles_validate():
    for counts in ((1, 1, 1), (1, 1, 2), (2, 1, 1)):
        assert validate(gen_castles(*counts)) == []


def ref_gen_castles(n1, n2, n3):
    """The castles model built joint action by joint action, the direct
    reading of the rules that ``gen_castles`` computes from packed effects."""
    teams = castle_workers(n1, n2, n3)
    agents = [w for team in teams for w in team]
    own = {w: castle for castle, team in enumerate(teams) for w in team}
    attack_of = {w: tuple("attack%d" % (c + 1) for c in range(3) if c != own[w])
                 for w in agents}
    all_actions = ("attack1", "attack2", "attack3", "defend", "noop")
    actions = {w: [a for a in all_actions if a == "noop" or a == "defend"
                   or a in attack_of[w]] for w in agents}

    def menu(worker, hp, ready):
        if hp[own[worker]] == 0:
            return ("noop",)
        acts = attack_of[worker] + (("defend",) if ready else ()) + ("noop",)
        return tuple(sorted(acts))

    def state_id(hp, ready, init):
        return "hp%d%d%d_cd%s%s" % (hp[0], hp[1], hp[2],
                                    "".join("1" if r else "0" for r in ready),
                                    "_init" if init else "")

    initial = ((3, 3, 3), (True,) * len(agents), True)
    ids = {initial: state_id(*initial)}
    protocol = {w: {} for w in agents}
    observation = {w: {} for w in agents}
    transition = {}
    frontier = [initial]
    explored = set()
    while frontier:
        state = frontier.pop()
        if state in explored:
            continue
        explored.add(state)
        hp, ready, init = state
        sid = ids[state]
        menus = []
        for i, w in enumerate(agents):
            m = menu(w, hp, ready[i])
            protocol[w][sid] = list(m)
            observation[w][sid] = "cd%d_df%d%d%d%s" % (
                int(ready[i]), int(hp[0] == 0), int(hp[1] == 0),
                int(hp[2] == 0), "_init" if init else "")
            menus.append(m)
        for joint in itertools.product(*menus):
            attackers = [0, 0, 0]
            defenders = [0, 0, 0]
            for i, act in enumerate(joint):
                if act == "defend":
                    defenders[own[agents[i]]] += 1
                elif act != "noop":
                    attackers[int(act[-1]) - 1] += 1
            new_hp = tuple(max(0, hp[c] - max(0, attackers[c] - defenders[c]))
                           for c in range(3))
            new_ready = tuple(act != "defend" for act in joint)
            succ = (new_hp, new_ready, False)
            tid = ids.get(succ)
            if tid is None:
                tid = ids[succ] = state_id(*succ)
                frontier.append(succ)
            transition[(sid, joint)] = tid

    states = sorted(ids.values())
    labels = {}
    for (hp, _, _), sid in ids.items():
        props = []
        if hp[2] == 0:
            props.append("castle3_defeated")
        if hp == (0, 0, 0):
            props.append("all_defeated")
        if props:
            labels[sid] = props

    return Icgs(agents, states, [ids[initial]], actions, protocol, transition,
                observation, labels)


# (1, 1, 3): castle 1 can face four attackers, the widest count an effect
# field of the packed generator must hold at four workers
@pytest.mark.parametrize("counts", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1),
                                    (1, 1, 3)])
def test_castles_generator_matches_the_per_joint_reference(counts):
    model = gen_castles(*counts)
    ref = ref_gen_castles(*counts)
    assert model == ref
    # the same exploration order too: transitions, states and menus
    assert list(model.transition.items()) == list(ref.transition.items())
    for ag in model.agents:
        assert list(model.protocol[ag].items()) == list(ref.protocol[ag].items())
        assert list(model.observation[ag].items()) == list(
            ref.observation[ag].items())


def test_castles_hit_points_stay_in_range(castles111):
    for q in castles111.states:
        digits = q[2:5]
        assert all(d in "0123" for d in digits)


def test_castles_labels_follow_hit_points(castles112):
    for q in castles112.states:
        hp = q[2:5]
        assert ("castle3_defeated" in castles112.labels[q]) == (hp[2] == "0")
        assert ("all_defeated" in castles112.labels[q]) == (hp == "000")


def test_hidden_hit_points_are_indistinguishable(castles111):
    # same readiness, same defeated flags, same phase, different hit points
    groups = {}
    for q in castles111.states:
        hp, ready = q[2:5], q.split("_cd")[1]
        key = (ready, tuple(d == "0" for d in hp))
        groups.setdefault(key, []).append(q)
    pair = next(qs for qs in groups.values()
                if len({q[2:5] for q in qs}) > 1)
    first, second = pair[0], pair[1]
    for ag in castles111.agents:
        closure = gamma_closure(castles111, [ag], castles111.state_set([first]))
        assert second in closure


def test_workers_of_fallen_castle_can_only_wait(castles112):
    fallen = [q for q in castles112.states if q.startswith("hp0")]
    assert fallen
    for q in fallen:
        assert castles112.protocol["c1w1"][q] == ("noop",)


def test_castles_depth_larger_with_one_worker_each(castles111, castles112):
    assert model_depth(castles111) > model_depth(castles112)
    assert model_depth(gen_castles(2, 1, 1)) == model_depth(castles112)


def test_castles_depth_constant_at_larger_sizes(castles112):
    bigger = gen_castles(1, 2, 2)
    assert validate(bigger) == []
    assert model_depth(bigger) == model_depth(castles112)


def test_load_rejects_transition_for_disabled_joint(cardgame):
    doc = to_document(cardgame)
    doc["transitions"].append(["start", {"dealer": "noop", "player": "wait"},
                               "start"])
    with pytest.raises(ModelError) as err:
        loads(json.dumps(doc))
    assert any(issue.kind == "DanglingReference" for issue in err.value.issues)


def test_load_rejects_unknown_observation_state(cardgame):
    doc = to_document(cardgame)
    doc["obs"]["player"]["ghost_state"] = "tok"
    with pytest.raises(ModelError) as err:
        loads(json.dumps(doc))
    assert any(issue.kind == "DanglingReference" for issue in err.value.issues)


def test_large_document_with_every_state_initial_and_labelled_loads():
    # Membership in the declared and the initial states is one set lookup per
    # state; a set rebuilt per state made this load quadratic (21 s for
    # 20,000 states on a 2-core machine, against 0.16 s).
    states = ["s%d" % i for i in range(20000)]
    doc = {"agents": ["a"], "actions": {"a": ["go"]}, "states": states,
           "initial": states, "labels": {q: ["p"] for q in states},
           "obs": {"a": {q: "o" for q in states}},
           "protocol": {"a": {q: ["go"] for q in states}},
           "transitions": [[q, {"a": "go"}, "s0"] for q in states]}
    text = json.dumps(doc)

    def expire(signum, frame):
        raise TimeoutError("the document did not load within 3 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(3)
    try:
        model = loads(text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert model.initial == model.states == tuple(states)
    assert model.labeled("p").mask == model.all_states().mask


# JSON values of every type a document can hold
_VALUES = (None, True, 0, -1, 2.5, "", "x", [], ["x"], {}, {"x": "y"})


def _mutate(rng, doc):
    """Delete one key or list entry of ``doc`` in place, or replace its value
    with a JSON value of another type; the entry sits at a random depth."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node:
        parent, key = node, rng.choice(list(node) if isinstance(node, dict)
                                       else range(len(node)))
        node = node[key]
        if rng.random() < 0.3:
            break
    if rng.random() < 0.5:
        del parent[key]
    else:
        parent[key] = rng.choice([v for v in _VALUES if type(v) is not type(node)])


def test_loader_raises_only_atlir_errors_on_mutated_documents(cardgame):
    text = dumps(cardgame)
    rng = random.Random(7)
    for _ in range(2000):
        doc = json.loads(text)
        _mutate(rng, doc)
        try:
            loads(json.dumps(doc))
        except AtlirError:
            pass


def ref_from_document(doc):
    """The loader that built the transition mapping with one helper call per
    check, the reference for the inline checks of ``from_document``."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError("missing top-level key %r" % key)

    agents = _string_list(doc["agents"], "agents")
    states = _string_list(doc["states"], "states")
    declared = set(states)
    if len(declared) != len(states):
        raise DocumentError("duplicate state identifier in 'states'")
    if len(set(agents)) != len(agents):
        raise DocumentError("duplicate agent identifier in 'agents'")
    initial = _string_list(doc["initial"], "initial")
    actions = {ag: _string_list(acts, "actions[%r]" % ag)
               for ag, acts in _object(doc["actions"], "actions").items()}
    labels = {q: _string_list(props, "labels[%r]" % q)
              for q, props in _object(doc["labels"], "labels").items()}
    for q in labels:
        if q not in declared:
            raise DocumentError("labels mention unknown state %r" % q)
    obs = {}
    for ag, per_state in _object(doc["obs"], "obs").items():
        obs[ag] = {q: _string(tok, "obs[%r][%r]" % (ag, q))
                   for q, tok in _object(per_state, "obs[%r]" % ag).items()}
    protocol = {}
    for ag, per_state in _object(doc["protocol"], "protocol").items():
        protocol[ag] = {q: _string_list(acts, "protocol[%r][%r]" % (ag, q))
                        for q, acts in _object(per_state, "protocol[%r]" % ag).items()}

    if not isinstance(doc["transitions"], list):
        raise DocumentError("'transitions' must be a list of triples")
    transition = {}
    issues = []
    for k, entry in enumerate(doc["transitions"]):
        where = "transitions[%d]" % k
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError("expected a [from, {agent: action}, to] triple", where)
        source, joint_map, target = entry
        source = _string(source, where + ".from")
        target = _string(target, where + ".to")
        joint_map = _object(joint_map, where + ".action")
        extra = set(joint_map) - set(agents)
        missing = set(agents) - set(joint_map)
        if extra:
            raise DocumentError("action for unknown agent %r" % sorted(extra)[0], where)
        if missing:
            raise DocumentError("no action for agent %r" % sorted(missing)[0], where)
        joint = tuple(_string(joint_map[ag], where) for ag in agents)
        prev = transition.get((source, joint))
        if prev is not None and prev != target:
            issues.append(ValidationIssue(
                NONDETERMINISTIC_TRANSITION,
                "two transitions from %r under %r lead to %r and %r"
                % (source, joint, prev, target)))
        transition[(source, joint)] = target

    model = Icgs(agents, states, initial, actions, protocol, transition, obs,
                 labels)
    model._issues[:0] = issues
    return model.require_valid()


def _load_outcome(load, doc):
    """The model ``load`` returns, or what its error says."""
    try:
        return load(doc)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "issues", None),
                getattr(exc, "where", None))


def test_loader_agrees_with_the_reference_loader(cardgame, castles111):
    text = dumps(cardgame)
    rng = random.Random(7)
    texts = []
    for _ in range(2000):
        doc = json.loads(text)
        _mutate(rng, doc)
        texts.append(json.dumps(doc))
    # subclasses of list, dict and str pass the exact-type checks only
    # through the error helper
    doc = json.loads(text)
    doc["transitions"][0] = type("Triple", (list,), {})(doc["transitions"][0])
    doc["transitions"][1][1] = type("Joint", (dict,), {})(doc["transitions"][1][1])
    doc["transitions"][2][1]["player"] = type("Name", (str,), {})("keep")
    texts.append(doc)
    # duplicates: the last target of a (state, joint) pair stays
    doc = json.loads(text)
    source, joint, target = doc["transitions"][0]
    for other in ("ghost", "start", target, "ghost"):
        doc["transitions"].append([source, dict(joint), other])
    texts.append(doc)
    texts.append(dumps(castles111))
    outcomes = Counter()
    for case in texts:
        if isinstance(case, str):
            got = _load_outcome(loads, case)
            expected = _load_outcome(ref_from_document, json.loads(case))
        else:
            got = _load_outcome(from_document, case)
            expected = _load_outcome(ref_from_document, case)
        assert got == expected
        outcomes[got[0] if isinstance(got, tuple) else Icgs] += 1
    # every outcome is hit: models, document errors and model errors
    assert set(outcomes) == {Icgs, DocumentError, ModelError}


def test_castles_caps():
    with pytest.raises(CapExceeded):
        gen_castles(9, 9, 9)
    with pytest.raises(ValueError):
        gen_castles(0, 1, 1)
