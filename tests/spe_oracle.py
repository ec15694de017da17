"""Independent brute-force references for the subgame-perfect solver.

Two oracles, deliberately free of the production engine's memoization
and state abstraction, compare the *sets* of plays:

* ``tree_spe_plays`` recurses over the raw history tree (every pick
  sequence prefix is its own node) applying the one-deviation rule with
  adversarial tie-breaking in unreached subtrees.

* ``all_profile_spe_plays`` literally enumerates every pure strategy
  profile of a single-pixep game, keeps the profiles that pass the
  one-deviation check at every history, and collects their root plays.
  Only feasible for small games (the profile count is the product over
  positions of choices**histories).

The engine's *order* matters too: ``execute_to_ce`` returns the first
play that verifies.  ``reference_spe_plays`` keeps the engine's earlier,
plainer enumeration (memoized on the tuple of bundles held, rebuilding
the free-item list and every option's final bundles at each state) and
lists the plays in the order it produced them.
"""

from __future__ import annotations

from itertools import product

from cefai.pixep import GameNode, Pixep


def _final_bundle(pix: Pixep, play: tuple[int, ...], agent: int, base: int = 0) -> int:
    bundle = base
    for pos, item in enumerate(play):
        if pix.agents[pos] == agent:
            bundle |= 1 << item
    return bundle


def _leaf_tree_plays(pix: Pixep, profile, m: int, history: tuple[int, ...]):
    pos = len(history)
    if pos == m:
        return [()]
    taken = 0
    for item in history:
        taken |= 1 << item
    mover = pix.agents[pos]
    rank = profile[mover].rank
    prefix = _final_bundle(pix, history, mover)

    def value(x, play):
        bundle = prefix | (1 << x)
        for k, item in enumerate(play):
            if pix.agents[pos + 1 + k] == mover:
                bundle |= 1 << item
        return rank[bundle]

    options = []
    for x in range(m):
        if taken & (1 << x):
            continue
        subplays = _leaf_tree_plays(pix, profile, m, history + (x,))
        values = [value(x, play) for play in subplays]
        options.append((x, subplays, values, min(values)))

    plays = []
    for idx, (x, subplays, values, _) in enumerate(options):
        others = [options[k][3] for k in range(len(options)) if k != idx]
        threshold = max(others) if others else None
        for play, v in zip(subplays, values):
            if threshold is None or v >= threshold:
                plays.append((x,) + play)
    return plays


def tree_spe_plays(game: GameNode, profile) -> set[tuple[tuple[str, ...], tuple[int, ...]]]:
    """All subgame-perfect plays as (choice path, pick sequence) pairs."""
    m = profile[0].m
    if isinstance(game, Pixep):
        return {((), tuple(play)) for play in _leaf_tree_plays(game, profile, m, ())}
    chooser = game.agent
    rank = profile[chooser].rank
    outs = [tree_spe_plays(child, profile) for _, child in game.options]

    def chooser_value(entry, option_index):
        # the play determines the leaf through the remaining path
        path, picks = entry
        node = game.options[option_index][1]
        for label in path:
            node = dict(node.options)[label]
        return rank[_final_bundle(node, picks, chooser)]

    mins = [
        min(chooser_value(entry, k) for entry in out) for k, out in enumerate(outs)
    ]
    default = len(game.options) - 1
    results = set()
    for k, (label, _) in enumerate(game.options[:-1]):
        for entry in outs[k]:
            v = chooser_value(entry, k)
            if v <= mins[default]:
                continue
            if any(v < mins[k2] for k2 in range(default) if k2 != k):
                continue
            results.add(((label,) + entry[0], entry[1]))
    default_label = game.options[default][0]
    for entry in outs[default]:
        v = chooser_value(entry, default)
        if all(mins[k] <= v for k in range(default)):
            results.add(((default_label,) + entry[0], entry[1]))
    return results


def _histories(m: int):
    """All pick-sequence prefixes, grouped by length."""
    levels = [[()]]
    for _ in range(m):
        nxt = []
        for h in levels[-1]:
            taken = set(h)
            for x in range(m):
                if x not in taken:
                    nxt.append(h + (x,))
        levels.append(nxt)
    return levels


def count_profiles(pix: Pixep, m: int) -> int:
    total = 1
    levels = _histories(m)
    for pos in range(m):
        choices = m - pos
        total *= choices ** len(levels[pos])
    return total


def all_profile_spe_plays(pix: Pixep, profile) -> set[tuple[int, ...]]:
    """Root plays of every strategy profile passing one-deviation checks
    at every history node."""
    m = profile[0].m
    levels = _histories(m)

    # a strategy assigns, for every history, the mover's choice there;
    # enumerate jointly as one table per position level
    position_tables = []
    for pos in range(m):
        histories = levels[pos]
        options_per_history = []
        for h in histories:
            taken = set(h)
            options_per_history.append([x for x in range(m) if x not in taken])
        position_tables.append((histories, options_per_history))

    def plays_from(table, history):
        play = []
        h = history
        while len(h) < m:
            choice = table[len(h)][h]
            play.append(choice)
            h = h + (choice,)
        return tuple(play)

    results = set()
    level_choices = [
        list(product(*options)) for _, options in position_tables
    ]
    for combo in product(*level_choices):
        table = []
        for pos, (histories, _) in enumerate(position_tables):
            table.append(dict(zip(histories, combo[pos])))
        # one-deviation check at every history
        ok = True
        for pos in range(m):
            if not ok:
                break
            mover_positions = None
            for h in levels[pos]:
                mover = pix.agents[pos]
                rank = profile[mover].rank
                own_play = plays_from(table, h)
                base = _final_bundle(pix, h, mover)
                own_value = rank[
                    _final_bundle_from(pix, own_play, pos, mover, base)
                ]
                taken = set(h)
                for x in range(m):
                    if x in taken or x == table[pos][h]:
                        continue
                    dev_play = (x,) + plays_from(table, h + (x,))
                    dev_value = rank[
                        _final_bundle_from(pix, dev_play, pos, mover, base)
                    ]
                    if dev_value > own_value:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            results.add(plays_from(table, ()))
    return results


def _final_bundle_from(pix: Pixep, play, start_pos: int, agent: int, base: int) -> int:
    bundle = base
    for k, item in enumerate(play):
        if pix.agents[start_pos + k] == agent:
            bundle |= 1 << item
    return bundle


def _reference_leaf_plays(pix: Pixep, profile, m: int, memo: dict, picked: tuple[int, ...]):
    """All SPE continuations from the state where ``picked[i]`` is the
    bundle agent i holds so far, in the engine's order."""
    cached = memo.get(picked)
    if cached is not None:
        return cached
    taken = 0
    for b in picked:
        taken |= b
    pos = taken.bit_count()
    if pos == m:
        memo[picked] = ((),)
        return ((),)
    mover = pix.agents[pos]
    mover_later = [k for k in range(pos + 1, m) if pix.agents[k] == mover]
    rank = profile[mover].rank

    remaining = [j for j in range(m) if not taken & (1 << j)]
    options = []
    worst = []
    for x in remaining:
        next_picked = list(picked)
        next_picked[mover] |= 1 << x
        subplays = _reference_leaf_plays(pix, profile, m, memo, tuple(next_picked))
        base = next_picked[mover]
        finals = []
        for play in subplays:
            bundle = base
            for k in mover_later:
                bundle |= 1 << play[k - pos - 1]
            finals.append(rank[bundle])
        options.append((x, subplays, finals))
        worst.append(min(finals))

    plays = []
    for idx, (x, subplays, finals) in enumerate(options):
        threshold = max(
            (worst[k] for k in range(len(options)) if k != idx), default=None
        )
        for play, value in zip(subplays, finals):
            if threshold is None or value >= threshold:
                plays.append((x,) + play)
    result = tuple(plays)
    memo[picked] = result
    return result


def reference_spe_plays(game: GameNode, profile) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every subgame-perfect play as a (choice path, pick sequence) pair,
    in the order ``spe_outcomes`` must list them: per choice node, the
    options in order; per leaf, the plays in the order above."""
    m = profile[0].m
    if isinstance(game, Pixep):
        plays = _reference_leaf_plays(game, profile, m, {}, (0,) * len(profile))
        return [((), play) for play in plays]
    rank = profile[game.agent].rank

    def value(entry, option):
        path, play = entry
        node = option
        for label in path:
            node = dict(node.options)[label]
        return rank[_final_bundle(node, play, game.agent)]

    outs = [
        [(entry, value(entry, child)) for entry in reference_spe_plays(child, profile)]
        for _, child in game.options
    ]
    mins = [min(v for _, v in out) for out in outs]
    default = len(game.options) - 1
    results = []
    for k, (label, _) in enumerate(game.options[:-1]):
        for (path, play), v in outs[k]:
            if v > mins[default] and all(v >= mins[k2] for k2 in range(default) if k2 != k):
                results.append(((label,) + path, play))
    default_label = game.options[default][0]
    for (path, play), v in outs[default]:
        if all(mins[k] <= v for k in range(default)):
            results.append(((default_label,) + path, play))
    return results
