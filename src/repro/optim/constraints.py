"""Selection-based constraint handling (Deb 2000).

The paper handles circuit performance constraints with Deb's feasibility
rules rather than penalty functions:

1. a feasible solution beats any infeasible solution,
2. between two feasible solutions, the better objective (higher yield) wins,
3. between two infeasible solutions, the smaller constraint violation wins.

The rules need no penalty weights, which is why they compose well with DE
for analog sizing (paper reference [9]).

The three rules are one lexicographic order, so :func:`deb_key` turns a
member into a sort key: ``a`` beats ``b`` exactly when
``deb_key(a) > deb_key(b)``, and ``max(members, key=deb_key)`` is the
first of the best members.  A NaN violation beats nothing and loses to
nothing among infeasible members, as ``<`` on NaN does.
"""

from __future__ import annotations

__all__ = ["deb_key"]


def deb_key(member) -> tuple[int, float]:
    """Deb's rules as a sort key: larger is better.

    ``member`` carries ``feasible`` (nominal-point feasibility),
    ``violation`` (aggregate normalised constraint violation, 0 when
    feasible) and ``yield_value`` (the maximised objective).  The key is
    ``(1, yield_value)`` for a feasible member and ``(0, -violation)``
    otherwise.
    """
    if member.feasible:
        return 1, member.yield_value
    return 0, -member.violation
