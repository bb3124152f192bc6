"""What the command line accepts: suite names, report formats, the
validated ``verify`` configuration record and the named family kinds.

Kept apart from ``suites`` and ``families`` so that the command-line parser
can offer these choices without loading those modules.
"""

from collections import namedtuple

from .algebra import AlgebraContext
from .errors import ConfigError

SUITES = ("algebra", "supermatrix", "gamma", "families", "analysis", "resolvent")
FORMATS = ("text", "json")
FAMILY_KINDS = ("P", "Q", "Y", "E", "T", "A", "Z")


class SuiteConfig(
    namedtuple(
        "SuiteConfig",
        "generators seed suite samples",
        defaults=(4, 0, "all", 200),
    )
):
    __slots__ = ()

    def validate(self):
        AlgebraContext(self.generators)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.suite != "all" and self.suite not in SUITES:
            raise ConfigError(
                f"unknown suite {self.suite!r}; expected one of {('all',) + SUITES}"
            )
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {self.samples!r}")
        return self
