import numpy as np
import pytest

import extkit as ek


@pytest.fixture(scope="session")
def built():
    """One default build of every catalog entry, shared across tests."""
    return {key: ek.instantiate(key) for key in ek.entry_ids()}


def sample_extended(key, count, seed, u_range=(0.3, 1.2), pu_range=(-1.0, 1.0),
                    margin=0.15, box=None, system=None):
    """Extended-state samples clear of the entry's singular set."""
    b = system if system is not None else ek.instantiate(key)
    box = box if box is not None else ek.get_entry(key).default_box
    sing = b.singular
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        base = np.array([rng.uniform(a, bb) for a, bb in box])
        if sing is not None and sing(base, margin):
            continue
        out.append(np.concatenate([
            [rng.uniform(*u_range), rng.uniform(*pu_range)], base]))
    return out


# The bracket cases of the benchmark's gates workload
# (perfbench/benchlib/cases.py BRACKET_CASES): (entry, constants, (m, n)).
BRACKET_CASES = [
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0), (1, 1)),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0), (3, 2)),
    ("quartic1", dict(c=1.0, c0=1.0, C=1.0, omega=0.3), (2, 1)),
    ("quartic2a", dict(c=1.0, c0=1.0, C=-1.0), (2, 1)),
    ("square_polar", dict(c=1.0, c0=0.0, C=1.0), (1, 1)),
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0), (1, 1)),
    ("vortex_opposite", dict(c=0.0, c0=0.5, C=1.0, omega=0.2), (1, 1)),
]
