"""What the command line accepts: suite names, report formats, the
validated ``verify`` configuration record and the named family kinds.

Kept apart from ``suites`` and ``families`` so that the command-line parser
can offer these choices without loading those modules.
"""

from collections import namedtuple

from .algebra import AlgebraContext, _int_arg
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
        _int_arg(self.seed, "seed", 0)
        if self.suite != "all" and self.suite not in SUITES:
            raise ConfigError(
                f"unknown suite {self.suite!r}; expected one of {('all',) + SUITES}"
            )
        _int_arg(self.samples, "samples", 1)
        return self
