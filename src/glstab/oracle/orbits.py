"""Orbit counting over numbered points.

The one orbit search is a breadth-first closure over numbers a*w + b: a
generator is a pair of lists (outer, inner) sending a*w + b to outer[a] +
inner[b].  `orbit_count` numbers any list of points for it, one part each.
An image that is not a point raises InvariantViolated.
"""

from __future__ import annotations

from collections import deque

from ..errors import InvariantViolated

NOT_A_POINT = -2  # the label of a number that no point has; -1 is a point not reached yet


def orbit_partition(numbers, size, actions):
    """BFS closure over the points `numbers` (distinct, below `size`); returns
    (representatives, labels).  An action (outer, inner) sends a*w + b to
    outer[a] + inner[b], w = len(inner); labels[x] is the orbit index of x, or
    NOT_A_POINT when x is no point."""
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
        frontier = deque((start,))
        while frontier:
            a, b = divmod(frontier.popleft(), w)
            for outer, inner in actions:
                img = outer[a] + inner[b]
                seen = labels[img]
                if seen < 0:
                    if seen == NOT_A_POINT:
                        raise InvariantViolated(f"image {img} of a point is not a point")
                    labels[img] = orbit_id
                    frontier.append(img)


def orbit_count(points, actions) -> int:
    """Orbits of callable actions point -> point on a list of distinct points."""
    index = {p: i for i, p in enumerate(points)}
    perms = []
    for act in actions:
        perm = [index.get(act(p), -1) for p in points]
        if -1 in perm:
            raise InvariantViolated(f"image {act(points[perm.index(-1)])!r} left the point set")
        perms.append((perm, [0]))
    return len(orbit_partition(range(len(points)), len(points), perms)[0])

