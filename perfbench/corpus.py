"""Seeded random model documents and formulas for the oracle-corpus workload.

The structures follow the acceptance corpus: at most 6 states, 3 agents and
3 actions per agent, observation partitions drawn at random, protocols fixed
per observation class (so every document is observation-consistent), total
transitions and random labels.  A model is kept only when its worst
coalition of at most two agents has at most ``MAX_STRATEGIES`` uniform
strategies, so the exhaustive oracle always finishes, and when the oracle
enumerates at most ``MAX_ENUMERATED`` strategies over its three formulas.
The second limit drops about 0.4% of the models.  They would carry a third
of the oracle's work, and the interquartile range of that work across seeds
would be a sixth of its median instead of a twelfth.  Everything is built
here as JSON text; the program under test only reads the documents and the
formula strings.
"""

from __future__ import annotations

import itertools
import json
import random

ATOMS = ("p", "q", "r")
MAX_STRATEGIES = 30000
MAX_ENUMERATED = 3000
FORMULAS_PER_MODEL = 3
MODELS = 6000


def _random_document(rng: random.Random):
    """One model document and the uniform-strategy count of each agent."""
    n_states = rng.randint(2, 6)
    states = ["s%d" % i for i in range(n_states)]
    agents = ["a%d" % i for i in range(rng.randint(1, 3))]
    actions, protocol, obs, counts = {}, {}, {}, {}
    for ag in agents:
        size = 3 if rng.random() < 0.6 else rng.randint(1, 3)
        alphabet = ["x%d" % j for j in range(size)]
        n_classes = rng.randint(1, n_states)
        assign = [rng.randrange(n_classes) for _ in states]
        class_proto = {
            c: (list(alphabet) if rng.random() < 0.5
                else sorted(rng.sample(alphabet, rng.randint(1, size))))
            for c in sorted(set(assign))}
        count = 1
        for acts in class_proto.values():
            count *= len(acts)
        counts[ag] = count
        actions[ag] = alphabet
        obs[ag] = {q: "%s_o%d" % (ag, assign[i]) for i, q in enumerate(states)}
        protocol[ag] = {q: class_proto[assign[i]] for i, q in enumerate(states)}
    transitions = []
    for q in states:
        for joint in itertools.product(*(protocol[ag][q] for ag in agents)):
            transitions.append([q, dict(zip(agents, joint)),
                                states[rng.randrange(n_states)]])
    labels = {q: [a for a in ATOMS if rng.random() < 0.4] for q in states}
    if not any(labels.values()):
        labels[states[0]] = [ATOMS[0]]
    doc = {"agents": agents, "actions": actions, "states": states,
           "initial": [states[0]], "labels": labels, "obs": obs,
           "protocol": protocol, "transitions": transitions}
    return doc, counts


class _Formula:
    """One random formula over atoms, negation, disjunction and coalition
    X / F / U, in the concrete syntax, with coalitions of one or two agents;
    records what the references need to know about it."""

    def __init__(self, rng: random.Random, counts, atoms, depth):
        self.rng = rng
        self.counts = counts  # agent -> uniform strategies of that agent
        self.atoms = atoms
        self.polarities = set()  # per strategic operator: under odd negations?
        self.enumerated = 0  # strategies the oracle enumerates for it
        self.text = self._draw(depth, False)

    def _draw(self, depth, negated):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return "true" if rng.random() < 0.15 else rng.choice(self.atoms)
        kind = rng.choice(("not", "or", "cex", "ceu", "cef"))
        if kind == "not":
            return "!(%s)" % self._draw(depth - 1, not negated)
        if kind == "or":
            return "(%s | %s)" % (self._draw(depth - 1, negated),
                                  self._draw(depth - 1, negated))
        self.polarities.add(negated)
        agents = list(self.counts)
        coalition = rng.sample(agents, rng.randint(1, min(2, len(agents))))
        strategies = 1
        for ag in coalition:
            strategies *= self.counts[ag]
        self.enumerated += strategies
        head = "<<%s>>" % ",".join(coalition)
        if kind == "cex":
            return "%s X (%s)" % (head, self._draw(depth - 1, negated))
        if kind == "cef":
            return "%s F (%s)" % (head, self._draw(depth - 1, negated))
        lhs = self._draw(depth - 1, negated)
        return "%s ((%s) U (%s))" % (head, lhs, self._draw(depth - 1, negated))


def _perfect_relation(polarities):
    """How the uniform satisfying set relates to the perfect-information one.

    Uniform strategies are perfect-information strategies too, so every
    strategic operator's uniform set is contained in its perfect-information
    set, and the operators are monotone in their operands.  With all strategic
    operators in positive position the inclusion carries to the formula; with
    all of them negated it flips; with none the sets are equal; with both
    polarities nothing follows.
    """
    if not polarities:
        return "=="
    if polarities == {False}:
        return "<="
    if polarities == {True}:
        return ">="
    return None


def make_corpus(seed: int, n_models: int = MODELS):
    """``n_models`` pairs (document text, [(formula text, relation)]) drawn
    from ``seed``; ``relation`` is checker-vs-perfect-information, one of
    ``"=="``, ``"<="``, ``">="`` or None (no relation follows)."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < n_models:
        doc, counts = _random_document(rng)
        top = sorted(counts.values())[-2:]
        worst = top[0] * top[1] if len(top) == 2 else top[0]
        if worst > MAX_STRATEGIES:
            continue
        atoms = sorted({a for props in doc["labels"].values() for a in props})
        formulas = [_Formula(rng, counts, atoms, 2) for _ in range(FORMULAS_PER_MODEL)]
        if sum(f.enumerated for f in formulas) > MAX_ENUMERATED:
            continue
        corpus.append((json.dumps(doc, sort_keys=True),
                       [(f.text, _perfect_relation(f.polarities)) for f in formulas]))
    return corpus
