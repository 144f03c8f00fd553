"""Orbit counting over numbered points.

The one orbit search is a closure over numbers a*w + b, grown from a list used
as a stack: a generator is a pair of lists (outer, inner) sending a*w + b to
outer[a] + inner[b].  An image that is not a point raises InvariantViolated.
"""

from __future__ import annotations

from ..errors import InvariantViolated

NOT_A_POINT = -2  # the label of a number that no point has; -1 is a point not reached yet


def orbit_partition(numbers, size, actions):
    """Closure over the points `numbers` (distinct, below `size`); returns
    (representatives, labels).  An action (outer, inner) sends a*w + b to
    outer[a] + inner[b], w = len(inner); labels[x] is the orbit index of x, or
    NOT_A_POINT when x is no point.  Orbits are numbered in the order of their least
    point, so the order in which an orbit is closed changes no output."""
    labels = [NOT_A_POINT] * size
    for x in numbers:
        labels[x] = -1
    w = len(actions[0][1]) if actions else 1
    reps = []
    start = 0
    while True:
        try:
            start = labels.index(-1, start)  # the first point not reached yet
        except ValueError:
            return reps, labels
        orbit_id = len(reps)
        reps.append(start)
        labels[start] = orbit_id
        frontier = [start]
        pop, push = frontier.pop, frontier.append
        while frontier:
            a = (x := pop()) // w
            b = x - a * w
            for outer, inner in actions:
                img = outer[a] + inner[b]
                seen = labels[img]
                if seen < 0:
                    if seen == NOT_A_POINT:
                        raise InvariantViolated(f"image {img} of a point is not a point")
                    labels[img] = orbit_id
                    push(img)

