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
the structure and raises with every violated well-formedness condition.

The loader builds no tree of the document: it reads the top-level object
one member at a time with the standard library's C scanner and streams the
transitions, one scanner call per block of entries, checking each entry as
it hands it to :class:`Icgs` as a ((state, joint action), successor) pair
that goes straight into the rows.  A block that does not decode whole is
read again one entry at a time, so errors keep json's message and place.
See :func:`loads` for the two rules this brings: no duplicate top-level
key, and errors in text order.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from array import array
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as esc

from .errors import CapExceeded, DocumentError
from .icgs import Icgs

CASTLES_WORKER_CAP = 7

_REQUIRED_KEYS = ("agents", "actions", "states", "initial", "labels", "obs",
                  "protocol", "transitions")
_HEADER_KEYS = frozenset(_REQUIRED_KEYS[:-1])
_chain = itertools.chain.from_iterable


def loads(text) -> Icgs:
    """Parse a model document and return the validated structure.

    ``text`` is a ``str``, or ``bytes`` in an encoding ``json.loads`` would
    detect.  The top-level object is read one member at a time with the
    standard library's C scanner, each value decoded whole, except a
    ``transitions`` array that comes after every other required key (it is
    the last key of every canonical document): that array is streamed a
    block of entries at a time (see :func:`_entries`; a block that does not
    decode whole is read again one entry at a time), each entry checked as
    :func:`from_document` checks it and handed to :class:`Icgs` as it is
    read, so no tree of the document is built.  A ``transitions`` that
    comes earlier is decoded whole and takes the path of
    :func:`from_document`.

    Two rules follow from streaming.  A top-level key given twice raises
    :class:`DocumentError` (``json.loads`` would keep the last value, which
    a streamed array cannot do for a key that comes after it).  Errors are
    raised in text order: a structurally bad entry, or a bad header member
    before the array, is reported before a JSON syntax error that comes
    after it.  The rest of the object and the trailing text are checked
    before the model is validated, so a syntax error after the array still
    reads "not valid JSON" and never comes out as a :class:`ModelError`.
    """
    if not isinstance(text, str):
        text = _decoded(text)
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        pos = _WS(text).end()
        if not text.startswith("{", pos):  # decoded whole; not a document
            doc, pos = _value(text, pos)
            _end(text, pos)
            return from_document(doc)
        doc = {}
        pos = _members(text, pos + 1, doc, _FIRST)
        if pos is None:
            return from_document(doc)
        return _model(doc, _entries(text, pos, doc))
    except json.JSONDecodeError as exc:
        raise DocumentError("not valid JSON: %s" % exc.msg,
                            "line %d column %d" % (exc.lineno, exc.colno)) from None


def load(path) -> Icgs:
    """Read a UTF-8 model document from ``path``; see :func:`loads`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DocumentError("not UTF-8 text", "byte %d" % exc.start) from None
    return loads(text)


def _decoded(data):
    """The text of a ``bytes`` document, decoded as ``json.loads`` would."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("the JSON object must be str, bytes or bytearray, "
                        "not %s" % type(data).__name__)
    encoding = json.detect_encoding(data)
    try:
        return data.decode(encoding, "surrogatepass")
    except UnicodeDecodeError as exc:
        raise DocumentError("not %s text" % encoding.upper(),
                            "byte %d" % exc.start) from None


# JSON whitespace; a top-level key without escapes and the colon after it,
# first or after a comma; the comma between two entries; a ``]`` and the
# comma after it, where a block of entries may end.  Where the key
# patterns do not match, `_member` takes the steps of ``json.loads``.
_WS = re.compile(r"[ \t\n\r]*").match
_FIRST = re.compile(r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*').match
_NEXT = re.compile(r'[ \t\n\r]*,[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*').match
_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match
_CUT = re.compile(r"\][ \t\n\r]*,").search
_scan = json.JSONDecoder().scan_once  # one JSON value at a position
# The characters of the transitions array decoded per scanner call.  On a
# 2-core x86 machine 64 KiB loaded the castles 1,1,1 and 1,1,2 documents as
# fast as 16 KiB and the 104.8 MB castles 1,2,2 file faster; 256 KiB was
# slower on both.
_BLOCK = 1 << 16


def _member(text, pos, fast):
    """The key of the next top-level member and the position of its value,
    or None and the position after the closing brace, read with the steps
    and error positions of ``json.loads`` where ``fast`` does not match.
    ``pos`` follows the opening brace (``fast`` is _FIRST) or the previous
    value (_NEXT)."""
    pos = _WS(text, pos).end()
    if text.startswith("}", pos):
        return None, pos + 1
    if fast is _NEXT:
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _WS(text, pos + 1).end()
    if not text.startswith('"', pos):
        raise json.JSONDecodeError(
            "Expecting property name enclosed in double quotes", text, pos)
    key, pos = scanstring(text, pos + 1)
    pos = _WS(text, pos).end()
    if not text.startswith(":", pos):
        raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
    return key, _WS(text, pos + 1).end()


def _members(text, pos, doc, fast):
    """Read the top-level members from ``pos`` into ``doc``.  Returns None
    after the closing brace and the trailing text are checked, or the
    position inside a ``transitions`` array that comes after every other
    required key, where its stream starts."""
    while True:
        m = fast(text, pos)
        if m is not None:
            key, pos = m[1], m.end()
        else:
            key, pos = _member(text, pos, fast)
            if key is None:
                break
        fast = _NEXT
        if key in doc:
            raise DocumentError("duplicate top-level key %r" % key,
                                _position(text, pos))
        if (key == "transitions" and text.startswith("[", pos)
                and doc.keys() >= _HEADER_KEYS):
            return pos + 1
        try:
            doc[key], pos = _scan(text, pos)
        except (StopIteration, RecursionError):
            _value(text, pos)  # raises the error of the value at pos
    _end(text, pos)
    return None


def _entries(text, pos, doc):
    """The entries of the transitions array from ``pos``, a block at a time;
    then the rest of the top-level object and the trailing text.

    A block is the text from an entry's start to the first ``]`` and comma
    that lie between one and two blocks (``_BLOCK`` characters) on, decoded
    as ``"[" + block + "]"`` with one scanner call.  Where no such cut
    exists, the rest of the text, when at most two blocks long, is decoded
    as ``"[" + rest``.  A decode that yields entries is kept when it reads
    the whole string, and when it ends inside the text: there the array
    closed.  JSON's grammar is deterministic, so such a decode holds exactly
    the entries :func:`_each` would read.  Anything else (a syntax error, a
    cut inside a string or an entry, a ``]`` where an entry must come,
    nesting one level too deep in the wrapper, two blocks with no cut) is
    read one entry at a time, which yields the good entries first and
    raises json's own error at its place.  So memory is bounded by two
    blocks' text and their entries."""
    pos = _WS(text, pos).end()
    more = not text.startswith("]", pos)
    if not more:
        pos += 1
    while more:
        cut = _CUT(text, pos + _BLOCK, pos + 2 * _BLOCK)
        if cut is not None:
            stop = _WS(text, cut.end()).end()
            block = "[" + text[pos:cut.start() + 1] + "]"
        else:  # the rest, or two blocks with no cut read one entry at a time
            stop = min(pos + 2 * _BLOCK, len(text))
            block = "[" + text[pos:] if stop == len(text) else ""
        try:
            entries, end = _scan(block, 0)
        except (StopIteration, RecursionError, json.JSONDecodeError):
            entries = None
        if not entries:  # an error, or a ``]`` where an entry must come
            pos, more = yield from _each(text, pos, stop)
            continue
        yield from entries
        if cut is not None and end == len(block):
            pos = stop
        else:  # the array's own closing bracket ended the decode
            pos, more = pos + end - 1, False
    doc["transitions"] = None  # a second one is a duplicate key
    _members(text, pos, doc, _NEXT)


def _each(text, pos, stop):
    """The entries from ``pos`` one at a time, up to the first that starts
    at ``stop`` or later.  Returns its position and True, or the position
    after the array's closing bracket and False."""
    while True:
        try:
            entry, pos = _scan(text, pos)
        except (StopIteration, RecursionError):
            _value(text, pos)
        yield entry
        m = _COMMA(text, pos)
        if m is None:
            break
        pos = m.end()
        if pos >= stop:
            return pos, True
    pos = _WS(text, pos).end()
    if not text.startswith("]", pos):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    return pos + 1, False


def _value(text, pos):
    """The JSON value at ``pos`` and the position after it, or the error of
    ``json.loads`` there."""
    try:
        return _scan(text, pos)
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None
    except RecursionError:
        raise DocumentError("nested too deeply", _position(text, pos)) from None


def _end(text, pos):
    """Only whitespace may follow the value that ends before ``pos``."""
    pos = _WS(text, pos).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)


def _position(text, pos):
    return "line %d column %d" % (text.count("\n", 0, pos) + 1,
                                  pos - text.rfind("\n", 0, pos))


def from_document(doc) -> Icgs:
    """Build and validate a model from an already-decoded document."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise DocumentError("missing top-level key %r" % key)
    return _model(doc, None)


def _model(doc, entries):
    """The validated model of a document whose required keys are all there;
    its transitions are ``entries``, or the document's own when None.

    Each nested member is first checked whole, in one C-level pass over its
    strings; the loops that name the first violation run only when that
    check fails, so the errors are theirs."""
    agents = _string_list(doc["agents"], "agents")
    states = _string_list(doc["states"], "states")
    declared = set(states)
    if len(declared) != len(states):
        raise DocumentError("duplicate state identifier in 'states'")
    if len(set(agents)) != len(agents):
        raise DocumentError("duplicate agent identifier in 'agents'")
    initial = _string_list(doc["initial"], "initial")
    actions = _object(doc["actions"], "actions")
    if not _strings(_chain(map(list.__iter__, actions.values()))):
        actions = {ag: _string_list(acts, "actions[%r]" % ag)
                   for ag, acts in actions.items()}
    labels = _object(doc["labels"], "labels")
    if not _strings(_chain(map(list.__iter__, labels.values()))):
        labels = {q: _string_list(props, "labels[%r]" % q)
                  for q, props in labels.items()}
    if not declared.issuperset(labels):
        for q in labels:
            if q not in declared:
                raise DocumentError("labels mention unknown state %r" % q)
    obs = _object(doc["obs"], "obs")
    if not _strings(_chain(map(dict.values, obs.values()))):
        obs = {ag: {q: _string(tok, "obs[%r][%r]" % (ag, q))
                    for q, tok in _object(per_state, "obs[%r]" % ag).items()}
               for ag, per_state in obs.items()}
    protocol = _object(doc["protocol"], "protocol")
    if not _strings(_chain(map(list.__iter__, _chain(
            map(dict.values, protocol.values()))))):
        protocol = {
            ag: {q: _string_list(acts, "protocol[%r][%r]" % (ag, q))
                 for q, acts in _object(per_state, "protocol[%r]" % ag).items()}
            for ag, per_state in protocol.items()}
    if entries is None:
        entries = doc["transitions"]
        if not isinstance(entries, list):
            raise DocumentError("'transitions' must be a list of triples")
    model = Icgs(agents, states, initial, actions, protocol,
                 _pairs(entries, agents), obs, labels)
    return model.require_valid()


def _pairs(entries, agents):
    """Each transition entry checked, as a ((state, joint action), successor)
    pair."""
    width = len(agents)  # the agents are distinct
    if width > 1:
        joint_of = operator.itemgetter(*agents)
    else:  # itemgetter of one key returns no tuple
        def joint_of(joint_map):
            return tuple(map(joint_map.__getitem__, agents))
    for k, entry in enumerate(entries):
        if not (type(entry) is list and len(entry) == 3
                and type(entry[0]) is str and type(entry[2]) is str
                and type(entry[1]) is dict and len(entry[1]) == width):
            _check_entry(k, entry, agents)
        source, joint_map, target = entry
        try:
            joint = joint_of(joint_map)
            "".join(joint)  # raises TypeError iff an action is no string
        except (KeyError, TypeError):
            _check_entry(k, entry, agents)
        yield (source, joint), target


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
    targets = [esc(q) + "\n    ]" for q in model.states]
    joints = {}  # menus -> (joint texts in canonical order, their row slots)
    sep = ""
    for q in sorted(model.states):
        i = model._state_pos[q]
        row = model.rows[i]
        if row is None:
            continue
        menus = model.menus[i]
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
    """``value`` itself when it is a list of strings."""
    if not isinstance(value, list):
        raise DocumentError("expected a list of strings", where)
    if not _strings(value):
        for v in value:
            _string(v, where)  # raises at the first entry that is no string
    return value


def _strings(pieces):
    """Whether ``pieces``, an iterable read once, yields only strings.  A
    ``map`` of ``list.__iter__`` or ``dict.values`` inside it raises
    TypeError at a value of another type, which answers False too."""
    try:
        "".join(pieces)
    except TypeError:
        return False
    return True


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

    def table(fallen, ready):
        """The menus of a state whose fallen castles and readiness are these
        (each worker's enabled actions, sorted), the distinct joint effects
        in the order of the product of the menus, and per joint action the
        slot of its effect among them."""
        menus = []
        effects = []
        for i in range(len(agents)):
            acts = (("noop",) if fallen[own[i]] else tuple(sorted(
                attack_of[i] + (("defend",) if ready[i] else ()) + ("noop",))))
            menus.append(acts)
            effects.append([effect(i, a) for a in acts])
        codes = list(map(sum, itertools.product(*effects)))
        slot_of = dict(zip(dict.fromkeys(codes), itertools.count()))
        return menus, tuple(slot_of), array("i", map(slot_of.__getitem__, codes))

    def split(code):
        """The damage a joint effect deals each castle and the readiness it
        leaves the workers."""
        return (tuple(max(0, (code >> width * c & field)
                          - (code >> width * (c + 3) & field)) for c in range(3)),
                tuple(not code >> ready_shift + i & 1 for i in range(len(agents))))

    def state_id(hp, ready, init):
        return "hp%d%d%d_cd%s%s" % (hp[0], hp[1], hp[2],
                                    "".join("1" if r else "0" for r in ready),
                                    "_init" if init else "")

    initial = ((3, 3, 3), (True,) * len(agents), True)
    found = {initial: 0}  # state -> discovery index
    # discovery index -> (its table's slots, the successor discovery index
    # of each of its distinct effects)
    pending = {}
    protocol = {w: {} for w in agents}
    observation = {w: {} for w in agents}
    tables = {}  # (fallen castles, readiness) -> table
    splits = {}  # joint effect -> split
    after = {}  # hit points -> {joint effect: successor discovery index}
    frontier = [initial]
    while frontier:
        hp, ready, init = state = frontier.pop()
        sid = state_id(*state)
        fallen = (hp[0] == 0, hp[1] == 0, hp[2] == 0)
        key = fallen, ready
        entry = tables.get(key)
        if entry is None:
            entry = tables[key] = table(*key)
        menus, uniq, slots = entry
        status = "_df%d%d%d%s" % (*fallen, "_init" if init else "")
        for w, acts, r in zip(agents, menus, ready):
            protocol[w][sid] = acts
            observation[w][sid] = ("cd1" if r else "cd0") + status
        # A successor is computed once per new (hit points, effect) pair, in
        # the order the joint actions first reach it.
        known = after.setdefault(hp, {})
        succ = list(map(known.get, uniq))
        if None in succ:
            for j, d in enumerate(succ):
                if d is None:
                    code = uniq[j]
                    parts = splits.get(code)
                    if parts is None:
                        parts = splits[code] = split(code)
                    damage, new_ready = parts
                    target = ((max(0, hp[0] - damage[0]), max(0, hp[1] - damage[1]),
                               max(0, hp[2] - damage[2])), new_ready, False)
                    d = found.get(target)
                    if d is None:
                        d = found[target] = len(found)
                        frontier.append(target)
                    succ[j] = known[code] = d
        pending[found[state]] = slots, array("i", succ)

    names = [state_id(*state) for state in found]
    states = sorted(names)
    position = {q: i for i, q in enumerate(states)}
    remap = [position[q] for q in names]  # discovery index -> position
    by_position = [None] * len(states)
    for d, i in enumerate(remap):
        slots, succ = pending.pop(d)
        positions = list(map(remap.__getitem__, succ))
        by_position[i] = array("i", map(positions.__getitem__, slots))
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
    seen = model.state_set(model.initial).mask
    depth = 0
    frontier = seen
    while True:
        new = model.post_mask(frontier) & ~seen
        if new == 0:
            return depth
        seen |= new
        frontier = new
        depth += 1
