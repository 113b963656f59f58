"""Attack results: an ``AttackRecord`` holds an attack's successes in its trials and derives the
rate and its 95% Wilson interval. Attacks stay beside what they attack (``auth.acceptance_rate``
in ``auth``), and the package's ``__init__`` does not import this module."""

import math

from .graphs import Record


def wilson95(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval for a binomial proportion (Wilson, JASA 22 (1927))."""
    z = 1.959963984540054
    p, zz = successes / trials, z * z / trials
    centre = (p + zz / 2) / (1 + zz)
    half = z / (1 + zz) * math.sqrt(p * (1 - p) / trials + zz / (4 * trials))
    # the interval contains p exactly; clamp away rounding at 0 of n and n of n
    return max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half))


class AttackRecord(Record):
    __slots__ = ("attack", "parameters", "trials", "successes")  # parameters: (name, value) pairs

    def line(self) -> str:  # auth simulate's line
        low, high = wilson95(self.successes, self.trials)
        named = "".join(f" {name} {value}" for name, value in self.parameters)
        return (f"strategy {self.attack}{named} trials {self.trials} accepted {self.successes}"
                f" wilson95 {low:.6f} {high:.6f} acceptance {self.successes / self.trials:.6f}")
