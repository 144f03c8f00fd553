"""Orbit counting over an explicitly indexed point set.

The default method is breadth-first closure under a list of generator
actions (callables point -> point); only generators, never whole groups,
are applied, so the cost is one action call per point and generator.  Burnside
averaging over all group elements is the independent cross-check for small
groups.  An action that maps a point outside the set raises InvariantViolated.
"""

from __future__ import annotations

from collections import deque

from ..errors import InvariantViolated


def orbit_partition(points, actions):
    """BFS closure; returns (orbit representatives, point -> orbit index)."""
    labels = dict.fromkeys(points, -1)  # -1: not reached yet
    reps = []
    for start in points:
        if labels[start] >= 0:
            continue
        orbit_id = len(reps)
        reps.append(start)
        labels[start] = orbit_id
        frontier = deque((start,))
        while frontier:
            p = frontier.popleft()
            for act in actions:
                img = act(p)
                seen = labels.get(img)
                if seen is None:
                    raise InvariantViolated(f"image {img!r} left the point set")
                if seen < 0:
                    labels[img] = orbit_id
                    frontier.append(img)
    return reps, labels


def orbit_count(points, actions) -> int:
    return len(orbit_partition(points, actions)[0])


def burnside_count(points, element_actions) -> int:
    """Average number of fixed points over every group element."""
    order = len(element_actions)
    total = 0
    index = set(points)
    for act in element_actions:
        for p in points:
            img = act(p)
            if img not in index:
                raise InvariantViolated(f"image {img!r} left the point set")
            if img == p:
                total += 1
    orbits, rem = divmod(total, order)
    if rem:
        raise InvariantViolated(f"{total} fixed points over {order} group elements")
    return orbits
