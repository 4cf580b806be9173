"""The benchmark's workloads: seeded job lists with closed-form expectations.

The seed draws couplings (and the Landau level of dense-oracle) only.
Truncations and job lists are fixed, so the cost of a pass does not
depend on the seed. Each job is one ``landautrace`` CLI call on a
generated ``key = value`` config file.
"""

import math
import random
from dataclasses import dataclass, field

XI_CHOICES = (0.0, 0.5, 1.0)
C_B_RANGE = (0.2, 0.8)
EPS_B = 1.0


@dataclass
class Job:
    """One CLI call: ``landautrace --config <file> --out <dir> <command>``.

    ``expected`` holds, for invariants jobs, the closed-form integer of
    each report in output order (rank and Chern agree for every model).
    """

    id: str
    command: str
    config: dict
    expected: list = field(default_factory=list)

    def config_text(self):
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


@dataclass(frozen=True)
class Couplings:
    xi: float
    c_b: float
    r: tuple

    def params(self, xi=True):
        out = {"params.xi": repr(self.xi)} if xi else {}
        out["params.c_b"] = repr(self.c_b)
        out.update({f"params.r{i}": repr(v) for i, v in enumerate(self.r)})
        return out


def draw(seed):
    """Couplings of a seed: xi from XI_CHOICES, c_b uniform, r uniform on the sphere."""
    rng = random.Random(seed)
    xi = rng.choice(XI_CHOICES)
    c_b = rng.uniform(*C_B_RANGE)
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return Couplings(xi, c_b, tuple(x / norm for x in v)), rng


def quaternionic_expected(energy, eps_b=EPS_B):
    """2 * #{n : eps_B (n + 1/2) < E}: the model is Landau x C^2 up to a gauge."""
    return 2 * sum(1 for n in range(int(energy / eps_b) + 1) if eps_b * (n + 0.5) < energy)


def sector_invariants(seed):
    c, _ = draw(seed)
    p = c.params()
    jobs = [
        Job("landau-300", "invariants",
            {"model": "landau", "nmax": 300, **p, "levels": "0,1,2"}, [1, 1, 1]),
        Job("jc-140", "invariants",
            {"model": "jaynes_cummings", "nmax": 140, **p, "levels": "1+,1-,2+,2-"},
            [1, 1, 1, 1]),
    ]
    for energy in (1.0, 2.0):
        jobs.append(Job(f"quaternionic-140-E{energy:g}", "invariants",
                        {"model": "quaternionic", "nmax": 140, **p, "fermi_energy": energy},
                        [quaternionic_expected(energy)]))
    return jobs


def dense_oracle(seed):
    c, rng = draw(seed)
    p = c.params()
    level = rng.randrange(6)
    jobs = [Job(f"spectrum-{m}", "spectrum", {"model": m, "nmax": 40, **p})
            for m in ("landau", "jaynes_cummings", "quaternionic")]
    jobs.append(Job("landau-60", "invariants",
                    {"model": "landau", "nmax": 60, **p, "levels": level}, [1]))
    return jobs


def verify_suite(seed):
    c, _ = draw(seed)
    return [Job("verify", "verify", c.params(xi=False))]


WORKLOADS = {
    "sector-invariants": sector_invariants,
    "dense-oracle": dense_oracle,
    "verify-suite": verify_suite,
}
