"""Test-only reference: sensitivity's full strategy composition, which the
library's cascade replaced, kept verbatim in behaviour.

Every (point, radius) pair runs through every strategy: breadth-first arc
images with no early stop, repeller steering over every repeller, and the
two greedy chains, each chain running all of its steps, capped or not.
`searched_table` then picks each pair's winner as `sensitivity_estimate`
does, with `_best_from` over the columns in order.  `strategy_table` adds the
isometry certificate: a system of rotations and flips is not searched.
"""

import numpy as np

from ifs_lab.circle import normalize_array
from ifs_lab.detectors import (_best_from, _bfs_best, _first_within, _greedy_derivative_rule,
                               _merge_cell, _radius_ladder, _repeller_steering_data,
                               _rule_paths, constant_rule, greedy_diameter_rule, system_net)
from ifs_lab.generators import Flip, Rotation, map_arcs


def sensitivity_pairs(ifs, res):
    """The (x, r) pairs of `sensitivity_estimate`, one per net point at the
    smallest rung, and its per-pair BFS budget, split over every rung."""
    net = system_net(ifs, res.net_size)
    rungs = _radius_ladder(res.r)
    xs = np.asarray(net, dtype=float)
    return xs, np.full(xs.size, rungs[-1]), max(64, res.budget // max(1, len(net) * len(rungs)))


def greedy_chains(ifs, x, r, depth, by_derivative):
    rule = _greedy_derivative_rule if by_derivative else greedy_diameter_rule()
    letters, diams = _rule_paths(ifs, normalize_array(x - r), 2.0 * r,
                                 x if by_derivative else None, depth, rule)
    best, size = _best_from(diams, 0)
    return best, lambda i: tuple(letters[i, :size[i]].tolist())


def steered_candidates(ifs, steering, x, r, depth):
    best, which = np.full(x.size, -1.0), np.full(x.size, -1)
    pulled, reps = np.zeros(x.size, dtype=np.int64), np.zeros(x.size, dtype=np.int64)
    for e, (q, letter, cloud) in enumerate(steering):
        first = _first_within(cloud.values, x, r)
        rows = np.flatnonzero(first >= 0)
        first = first[rows]
        s, ln = normalize_array(x[rows] - r[rows]), 2.0 * r[rows]
        node, steps = first.copy(), np.full(rows.size, depth)
        while (live := np.flatnonzero(node > 0)).size:
            lets = cloud.letters[node[live]]
            for let, g in enumerate(ifs.generators, start=1):
                m = live[lets == let]
                s[m], ln[m] = map_arcs(g, s[m], ln[m])
            steps[live] -= 1
            node[live] = cloud.parents[node[live]]
        horizon = int(steps.max(initial=0))
        if horizon < 1:
            continue
        diams = _rule_paths(ifs, s, ln, None, horizon, constant_rule(letter))[1]
        diams[np.arange(horizon + 1) > steps[:, None]] = -1.0
        local, local_n = _best_from(diams, 1)
        up = (steps > 0) & (local > best[rows] + 1e-15)
        best[rows[up]], which[rows[up]] = local[up], e
        pulled[rows[up]], reps[rows[up]] = first[up], local_n[up]
    words = [None] * x.size
    for e, (_, letter, cloud) in enumerate(steering):
        mine = np.flatnonzero(which == e).tolist()
        for i, w in zip(mine, cloud.words_for(pulled[mine])):
            words[i] = w[::-1] + (letter,) * int(reps[i])
    return best, [steering[e][0] if e >= 0 else None for e in which.tolist()], words.__getitem__


def cheap_candidates(ifs, res, x, r):
    best, q, word = steered_candidates(ifs, _repeller_steering_data(ifs, res), x, r, res.depth)
    return [(best, word, lambda i: f"repeller_steered(q={q[i]:.6f})")] + [
        (*greedy_chains(ifs, x, r, res.depth, flag), lambda i, label=label: label)
        for flag, label in ((False, "greedy_diameter"), (True, "greedy_derivative"))]


def strategy_table(ifs, res):
    """Per pair of `sensitivity_pairs`, the (column, diameter, word, strategy
    label) that `sensitivity_estimate` reports: on a system of rotations and
    flips, the empty word at the ball's own diameter, in no column (-1);
    on any other system, the winner of `searched_table`."""
    if all(isinstance(g, (Rotation, Flip)) for g in ifs.generators):
        return [(-1, d, (), "isometry") for d in (2.0 * sensitivity_pairs(ifs, res)[1]).tolist()]
    return searched_table(ifs, res)


def searched_table(ifs, res):
    """Per pair of `sensitivity_pairs`, the winning (column, diameter, word,
    strategy label) of the full composition."""
    xs, rs, budget = sensitivity_pairs(ifs, res)
    bfs, bfs_words = _bfs_best(ifs, normalize_array(xs - rs), 2.0 * rs, res.depth, budget,
                               _merge_cell(res))[:2]
    strategies = ([(bfs, bfs_words.__getitem__, lambda i: "bfs")]
                  + cheap_candidates(ifs, res, xs, rs))
    best, at = _best_from(np.column_stack([diams for diams, _, _ in strategies]), 0)
    return [(k, d, strategies[k][1](i), strategies[k][2](i))
            for i, (k, d) in enumerate(zip(at.tolist(), best.tolist()))]
