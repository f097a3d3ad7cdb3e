"""The library user's path: series, exact check and coherences per configuration.

Run as a script it reads a JSON list of scenario documents, runs the chain
on the first ``SERIES_WARMUP`` of them untimed, then times the chain on every
configuration and prints one JSON object::

    python perfbench/series_loop.py CONFIGS.json

The chain reaches every ``nkerr`` function through its module attribute at
call time, so wrappers installed on those attributes by a traced run see it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time

from nkerr import model, oracle, perturb, suscept
from nkerr.model import FieldMode, SystemConfig

SERIES_ORDER = 8
COHERENCE_ORDER = 3
SERIES_WARMUP = 20


def system_config(doc: dict) -> SystemConfig:
    """Build a configuration from a scenario document with the public classes."""
    modes = doc["modes"]
    gamma = tuple(doc["gamma"][k] for k in ("g1", "g2", "g3"))
    return SystemConfig(*(FieldMode(k, complex(modes[k]["g_re"], modes[k]["g_im"]),
                                    modes[k]["delta"], modes[k]["n"]) for k in "abc"), gamma)


def chain(cfg: SystemConfig) -> float:
    """Relative error of the order-8 ground energy against the exact eigenvalue."""
    sp = model.split(cfg)
    table = perturb.build_series(sp, 1, SERIES_ORDER)
    approx = perturb.evaluate_energy(table, 1, sp.eps_a, sp.eps_c, SERIES_ORDER)
    exact = oracle.ground_eigenvalue_function(sp)(sp.eps_a, sp.eps_c)
    coh = suscept.coherences(cfg, COHERENCE_ORDER)
    if not all(cmath.isfinite(z) for z in (coh.rho21, coh.rho43)):
        raise ArithmeticError(f"non-finite coherences {coh}")
    return abs(approx - exact) / abs(exact)


def run_loop(configs: list[SystemConfig], warmup: int) -> dict:
    """Time the chain on each configuration after an untimed warm-up.

    An exception fails only its own configuration; its error entry is None.
    """
    for cfg in configs[:warmup]:
        try:
            chain(cfg)
        except Exception:  # counted in the timed pass below
            pass
    times: list[float] = []
    errors: list[float | None] = []
    start = time.perf_counter()
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            err: float | None = chain(cfg)
        except Exception as exc:
            print(f"config {len(errors)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            err = None
        times.append(time.perf_counter() - t0)
        errors.append(err)
    return {"loop_s": time.perf_counter() - start, "times_s": times, "rel_errors": errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", help="JSON file holding a list of scenario documents")
    args = parser.parse_args(argv)
    with open(args.configs, encoding="utf-8") as fh:
        configs = [system_config(doc) for doc in json.load(fh)]
    print(json.dumps(run_loop(configs, SERIES_WARMUP)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
