"""Interaction scripts.

A script is the sequence of user actions a tester performs during the
four-minute session (§3.2: open the app/site, log in with the
pre-created account, then use the service for its intended purpose).
The same script instance drives both the app and the web session of a
service, guaranteeing the identical-operations property the paper's
methodology demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

OPEN = "open"
LOGIN = "login"
BROWSE = "browse"
VIEW = "view"
SEARCH = "search"

DEFAULT_DURATION = 240.0

#: The longest session a script may run, in simulated seconds: one hour,
#: 15x the paper's four-minute session.  The runner drives actions until
#: the simulated clock passes the deadline, so an unbounded (or NaN)
#: duration never ends.
MAX_DURATION = 3600.0

# The rotating stream of in-service activities after open/login.
_ACTIVITY_CYCLE = (BROWSE, VIEW, SEARCH, BROWSE, VIEW, BROWSE)


def check_duration(duration) -> float:
    """``duration`` if it lies in ``(0, MAX_DURATION]`` seconds, else
    ``ValueError`` (NaN and the infinities included)."""
    if not 0 < duration <= MAX_DURATION:  # NaN fails every comparison
        raise ValueError(
            f"duration must be in (0, {MAX_DURATION:g}] seconds: {duration!r}"
        )
    return duration


@dataclass(frozen=True)
class InteractionScript:
    """A named action sequence with a time budget.

    ``cycle`` is the rotating in-service activity stream; the default
    is the fixed manual-test rotation, while persona-parameterized
    campaign scripts supply their own per-user ordering.
    """

    name: str
    requires_login: bool
    duration: float = DEFAULT_DURATION
    cycle: tuple = _ACTIVITY_CYCLE

    def __post_init__(self) -> None:
        check_duration(self.duration)
        if not self.cycle:
            raise ValueError("activity cycle must not be empty")
        for action in self.cycle:
            if action not in (BROWSE, VIEW, SEARCH):
                raise ValueError(f"unknown activity {action!r} in cycle")

    def actions(self) -> Iterator:
        """Yield actions indefinitely; the runner stops at the deadline.

        The first yields are always ``open`` (and ``login`` when the
        service requires an account); afterwards activities cycle.
        """
        yield OPEN
        if self.requires_login:
            yield LOGIN
        index = 0
        while True:
            yield self.cycle[index % len(self.cycle)]
            index += 1


def standard_script(spec, duration: float = DEFAULT_DURATION) -> InteractionScript:
    """The default four-minute manual test for a service."""
    return InteractionScript(
        name=f"standard-{spec.slug}",
        requires_login=spec.requires_login,
        duration=duration,
    )


def persona_script(spec, duration: float, rng) -> InteractionScript:
    """A persona-parameterized session script.

    Same action vocabulary as the manual test, but the activity
    rotation is drawn from ``rng`` — deterministic per (user, session)
    in a campaign, so two users exercise a service differently while
    any re-run of the same user replays identically.
    """
    cycle = list(_ACTIVITY_CYCLE)
    rng.shuffle(cycle)
    return InteractionScript(
        name=f"persona-{spec.slug}",
        requires_login=spec.requires_login,
        duration=duration,
        cycle=tuple(cycle),
    )
