"""Model documents (JSON), loading/saving, and the benchmark generators.

Document layout (all eight keys required)::

    {
      "agents":      ["a", "b"],
      "actions":     {"a": ["go", "wait"], ...},
      "states":      ["s0", "s1", ...],
      "initial":     ["s0"],
      "labels":      {"s1": ["goal"], ...},          # omitted states: no labels
      "obs":         {"a": {"s0": "tok", ...}, ...},
      "protocol":    {"a": {"s0": ["go"], ...}, ...},
      "transitions": [["s0", {"a": "go", "b": "wait"}, "s1"], ...]
    }

Serialisation is canonical: keys and lists are sorted, so documents diff
cleanly and ``save . load`` is the identity on documents.  Loading validates
the structure and raises with every violated well-formedness condition.  The
loader checks each transition entry as it hands it to :class:`Icgs`, as a
((state, joint action), successor) pair that goes straight into the rows.
"""

from __future__ import annotations

import functools
import itertools
import json
from array import array
from json.encoder import encode_basestring_ascii as esc

from .errors import CapExceeded, DocumentError
from .icgs import Icgs

CASTLES_WORKER_CAP = 7

_REQUIRED_KEYS = ("agents", "actions", "states", "initial", "labels", "obs",
                  "protocol", "transitions")


def loads(text: str) -> Icgs:
    """Parse a model document and return the validated structure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("not valid JSON: %s" % exc.msg,
                            "line %d column %d" % (exc.lineno, exc.colno)) from None
    return from_document(doc)


def load(path) -> Icgs:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads(text)


def from_document(doc) -> Icgs:
    """Build and validate a model from an already-decoded document."""
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

    triples = doc["transitions"]
    if not isinstance(triples, list):
        raise DocumentError("'transitions' must be a list of triples")
    agent_set = set(agents)

    def pairs():
        for k, entry in enumerate(triples):
            if not (type(entry) is list and len(entry) == 3
                    and type(entry[0]) is str and type(entry[2]) is str
                    and type(entry[1]) is dict and entry[1].keys() == agent_set):
                _check_entry(k, entry, agents)
            source, joint_map, target = entry
            joint = tuple(map(joint_map.__getitem__, agents))
            try:
                "".join(joint)  # raises TypeError iff an action is no string
            except TypeError:
                _check_entry(k, entry, agents)
            yield (source, joint), target

    model = Icgs(agents, states, initial, actions, protocol, pairs(), obs, labels)
    return model.require_valid()


def to_document(model: Icgs) -> dict:
    """The canonical document of a model (sorted keys and lists)."""
    doc = _header(model)
    doc["transitions"] = sorted(
        ([q, dict(zip(model.agents, joint)), target]
         for (q, joint), target in model.transition.items()),
        key=lambda entry: (entry[0], tuple(sorted(entry[1].items())), entry[2]))
    return doc


def _header(model: Icgs) -> dict:
    """Every part of the canonical document but the transitions."""
    return {
        "agents": sorted(model.agents),
        "actions": {ag: sorted(acts) for ag, acts in model.actions.items()},
        "states": sorted(model.states),
        "initial": sorted(model.initial),
        "labels": {q: sorted(props)
                   for q, props in sorted(model.labels.items()) if props},
        "obs": {ag: dict(sorted(per.items()))
                for ag, per in model.observation.items()},
        "protocol": {ag: {q: sorted(acts) for q, acts in sorted(per.items())}
                     for ag, per in model.protocol.items()},
    }


def dumps(model: Icgs) -> str:
    """The canonical text of a model: ``json.dumps(to_document(model),
    indent=2, sort_keys=True)`` and a final newline."""
    return "".join(_text_chunks(model))


def save(model: Icgs, path):
    """Write the canonical text of a model as it is produced."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_text_chunks(model))


def _text_chunks(model: Icgs):
    """The canonical text in pieces, one per state for the transitions.

    The header goes through ``json.dumps``; the transitions are written
    straight from :attr:`Icgs.rows` with the indentation that call would
    give them, every name escaped once as it would escape it.  The canonical
    order of a state's transitions is the product of its sorted protocols
    taken in sorted agent order, so each entry reads the row slot of its
    joint action and no entry is sorted.
    """
    header = json.dumps({**_header(model), "transitions": []},
                        indent=2, sort_keys=True)
    # "transitions" sorts last, so the header ends with its empty list.
    yield header[:-3]
    agents = model.agents
    order = sorted(range(len(agents)), key=agents.__getitem__)
    protocols = [model.protocol.get(ag, {}) for ag in agents]
    targets = [esc(q) + "\n    ]" for q in model.states]
    joints = {}  # menus -> (joint texts in canonical order, their row slots)
    sep = ""
    for q in sorted(model.states):
        row = model.rows[model._state_pos[q]]
        if row is None:
            continue
        menus = tuple(per_state[q] for per_state in protocols)
        known = joints.get(menus)
        if known is None:
            known = joints[menus] = _joint_texts(agents, menus, order)
        texts, slots = known
        if slots is not None:
            row = map(row.__getitem__, slots)
        head = "\n    [\n      " + esc(q) + ",\n      "
        entries = [head + text + targets[t] for text, t in zip(texts, row)
                   if t >= 0]
        if entries:
            yield sep + ",".join(entries)
            sep = ","
    yield "\n  ]\n}\n" if sep else "]\n}\n"


def _joint_texts(agents, menus, order):
    """The indented text of each joint action over ``menus`` (one sorted
    protocol per agent, in model order), in the product order of sorted
    agents, and the row slot of each (None when that is the row order)."""
    pieces = [["\n        %s: %s" % (esc(agents[j]), esc(a)) for a in menus[j]]
              for j in order]
    texts = ["{%s\n      },\n      " % ",".join(combo) if combo
             else "{},\n      " for combo in itertools.product(*pieces)]
    if order == sorted(order):
        return texts, None
    weights = [1] * len(menus)  # a slot is a mixed-radix number in model order
    for j in range(len(menus) - 2, -1, -1):
        weights[j] = weights[j + 1] * len(menus[j + 1])
    slots = list(map(sum, itertools.product(
        *[range(0, weights[j] * len(menus[j]), weights[j]) for j in order])))
    return texts, slots


def _check_entry(k, entry, agents):
    """Raise the error of the first condition transition ``k`` violates.

    The loader's inline checks ask for exact types; an entry they turn away
    comes here, and one that only uses subclasses of list, dict or str
    passes."""
    where = "transitions[%d]" % k
    if not (isinstance(entry, list) and len(entry) == 3):
        raise DocumentError("expected a [from, {agent: action}, to] triple", where)
    source, joint_map, target = entry
    _string(source, where + ".from")
    _string(target, where + ".to")
    _object(joint_map, where + ".action")
    extra = set(joint_map) - set(agents)
    missing = set(agents) - set(joint_map)
    if extra:
        raise DocumentError("action for unknown agent %r" % sorted(extra)[0], where)
    if missing:
        raise DocumentError("no action for agent %r" % sorted(missing)[0], where)
    for ag in agents:
        _string(joint_map[ag], where)


def _string(value, where):
    if not isinstance(value, str):
        raise DocumentError("expected a string, found %r" % (value,), where)
    return value


def _string_list(value, where):
    if not isinstance(value, list):
        raise DocumentError("expected a list of strings", where)
    return [_string(v, where) for v in value]


def _object(value, where):
    if not isinstance(value, dict):
        raise DocumentError("expected an object", where)
    return value


# ---------------------------------------------------------------------------
# Card game
# ---------------------------------------------------------------------------

CARDS = ("A", "K", "Q")
_BEATS = {("A", "K"), ("K", "Q"), ("Q", "A")}


def gen_cardgame() -> Icgs:
    """The three-card guessing game between a player and a dealer.

    The dealer hands one of A/K/Q to the player, keeps one, and leaves the
    third face down on the table; the player then keeps or swaps with the
    table card and wins when his card beats the dealer's (A beats K, K beats
    Q, Q beats A).  The player observes only his own card while playing, and
    the revealed outcome afterwards; deal states with the same player card
    are therefore indistinguishable.  Outcome states loop on themselves so
    that every path is infinite.
    """
    agents = ["dealer", "player"]
    deals = [(p, d) for p in CARDS for d in CARDS if p != d]
    deal_id = {pair: "deal_%s%s" % pair for pair in deals}
    show_id = {pair: "show_%s%s" % pair for pair in deals}
    start = "start"

    states = sorted([start] + list(deal_id.values()) + list(show_id.values()))
    labels = {show_id[pair]: ["win"] for pair in deals if pair in _BEATS}

    deal_actions = sorted("deal_%s%s" % pair for pair in deals)
    actions = {"dealer": deal_actions + ["noop"],
               "player": ["keep", "noop", "swap", "wait"]}

    protocol = {"dealer": {start: deal_actions},
                "player": {start: ["wait"]}}
    for pair in deals:
        protocol["dealer"][deal_id[pair]] = ["noop"]
        protocol["player"][deal_id[pair]] = ["keep", "swap"]
        protocol["dealer"][show_id[pair]] = ["noop"]
        protocol["player"][show_id[pair]] = ["noop"]

    transition = {}
    for pair in deals:
        transition[(start, ("deal_%s%s" % pair, "wait"))] = deal_id[pair]
        player, dealer = pair
        table = next(c for c in CARDS if c not in pair)
        transition[(deal_id[pair], ("noop", "keep"))] = show_id[pair]
        transition[(deal_id[pair], ("noop", "swap"))] = show_id[(table, dealer)]
        transition[(show_id[pair], ("noop", "noop"))] = show_id[pair]

    observation = {
        "dealer": {q: q for q in states},
        "player": {start: "start"},
    }
    for pair in deals:
        player, _ = pair
        observation["player"][deal_id[pair]] = "holding_%s" % player
        outcome = "win" if pair in _BEATS else "lose"
        observation["player"][show_id[pair]] = "show_%s_%s" % (player, outcome)

    return Icgs(agents, states, [start], actions, protocol, transition,
                observation, labels)


# ---------------------------------------------------------------------------
# Castles
# ---------------------------------------------------------------------------

def castle_workers(n1: int, n2: int, n3: int):
    """Worker names per castle, in model agent order."""
    return [["c%dw%d" % (castle, j + 1) for j in range(count)]
            for castle, count in ((1, n1), (2, n2), (3, n3))]


def gen_castles(n1: int, n2: int, n3: int) -> Icgs:
    """Three castles with hit points 3..0, each defended by a team of workers.

    Every turn each worker simultaneously attacks another castle, defends
    its own (never twice in a row), or does nothing; workers whose castle
    has fallen can only do nothing.  A castle loses as many hit points as it
    has attackers in excess of defenders, floored at zero.  Workers observe
    only their own readiness to defend, which castles have fallen, and
    whether the game just started; hit points stay hidden.  States are the
    reachable (hit points, per-worker readiness, start flag) combinations.
    """
    if min(n1, n2, n3) < 1:
        raise ValueError("each castle needs at least one worker")
    if n1 + n2 + n3 > CASTLES_WORKER_CAP:
        raise CapExceeded("%d workers exceed the cap of %d"
                          % (n1 + n2 + n3, CASTLES_WORKER_CAP))

    teams = castle_workers(n1, n2, n3)
    agents = [w for team in teams for w in team]
    own = [castle for castle, team in enumerate(teams) for _ in team]
    attack_of = [tuple("attack%d" % (c + 1) for c in range(3) if c != own[i])
                 for i in range(len(agents))]
    all_actions = ("attack1", "attack2", "attack3", "defend", "noop")
    actions = {w: [a for a in all_actions if a == "noop" or a == "defend"
                   or a in attack_of[i]] for i, w in enumerate(agents)}

    # An action's effect is one int: in fields of ``width`` bits, the
    # attackers it adds to each castle, then the defenders; above them one
    # "defended" bit per worker.  No field can overflow, so the effect of a
    # joint action is the sum of its actions' effects, and its successor
    # depends only on the hit points and that sum.
    width = len(agents).bit_length()
    field = (1 << width) - 1
    ready_shift = 6 * width

    def effect(i, act):
        if act == "defend":
            return 1 << width * (3 + own[i]) | 1 << ready_shift + i
        if act == "noop":
            return 0
        return 1 << width * (int(act[-1]) - 1)

    @functools.cache
    def menu(i, fallen, ready):
        """Worker i's enabled actions, sorted, and their effects."""
        acts = (("noop",) if fallen else tuple(sorted(
            attack_of[i] + (("defend",) if ready else ()) + ("noop",))))
        return acts, tuple(effect(i, a) for a in acts)

    def state_id(hp, ready, init):
        return "hp%d%d%d_cd%s%s" % (hp[0], hp[1], hp[2],
                                    "".join("1" if r else "0" for r in ready),
                                    "_init" if init else "")

    def successor(hp, code):
        new_hp = tuple(max(0, hp[c] - max(0, (code >> width * c & field)
                                          - (code >> width * (c + 3) & field)))
                       for c in range(3))
        new_ready = tuple(not code >> ready_shift + i & 1
                          for i in range(len(agents)))
        succ = (new_hp, new_ready, False)
        d = found.get(succ)
        if d is None:
            d = found[succ] = len(found)
            frontier.append(succ)
        return d

    initial = ((3, 3, 3), (True,) * len(agents), True)
    found = {initial: 0}  # state -> discovery index
    rows = {}  # discovery index -> row of successor discovery indices
    protocol = {w: {} for w in agents}
    observation = {w: {} for w in agents}
    after = {}  # hit points -> {joint effect: successor discovery index}
    frontier = [initial]
    while frontier:
        hp, ready, init = state = frontier.pop()
        sid = state_id(*state)
        status = "_df%d%d%d%s" % (hp[0] == 0, hp[1] == 0, hp[2] == 0,
                                  "_init" if init else "")
        effects = []
        for i, w in enumerate(agents):
            acts, eff = menu(i, hp[own[i]] == 0, ready[i])
            protocol[w][sid] = list(acts)
            observation[w][sid] = ("cd1" if ready[i] else "cd0") + status
            effects.append(eff)
        # One effect per joint action, in the order of the product of the
        # menus; a successor is computed once per new (hit points, effect)
        # pair, in the order the joint actions first reach it.
        codes = list(map(sum, itertools.product(*effects)))
        known = after.setdefault(hp, {})
        for code in dict.fromkeys(codes):
            if code not in known:
                known[code] = successor(hp, code)
        rows[found[state]] = array("i", map(known.__getitem__, codes))

    names = [state_id(*state) for state in found]
    states = sorted(names)
    position = {q: i for i, q in enumerate(states)}
    remap = [position[q] for q in names]  # discovery index -> position
    by_position = [None] * len(states)
    for d, i in enumerate(remap):
        by_position[i] = array("i", map(remap.__getitem__, rows.pop(d)))
    labels = {}
    for (hp, _, _), sid in zip(found, names):
        props = []
        if hp[2] == 0:
            props.append("castle3_defeated")
        if hp == (0, 0, 0):
            props.append("all_defeated")
        if props:
            labels[sid] = props

    return Icgs(agents, states, [names[0]], actions, protocol, None,
                observation, labels, rows=by_position)


def model_depth(model: Icgs) -> int:
    """Steps needed to reach every reachable state from the initial ones."""
    idx = model.index(())
    seen = model.state_set(model.initial).mask
    depth = 0
    frontier = seen
    while True:
        new = idx.post(frontier) & ~seen
        if new == 0:
            return depth
        seen |= new
        frontier = new
        depth += 1
