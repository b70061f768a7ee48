"""Pinned digests of Monte Carlo and enumeration outputs.

The digests were recorded before tasks were stored as arrays and peeled with
unknown-block counts (the mcc and gc digests before their trials were
computed in closed form, the rcs-1222 and rcs-communication digests before
the release sweeps dropped tasks that can no longer lower a key); a faster construction, decoder or simulator must
reproduce every per-trial array, and every success count, bit for bit.  The
builder digests were recorded before the circular-shift code was built
straight into its task arrays; they pin each seeded draw and the generator
state it leaves behind.  The training digests were recorded while ``train``
still simulated its iterations one at a time; they pin each iteration's
race and the parameters it leaves.
"""

import hashlib

import numpy as np
import pytest

from codedcomp import (
    assignment_source,
    build_rcs,
    concrete_assignment,
    generate_dataset,
    monte_carlo,
    parse_config,
    success_table,
    train,
)

MONTE_CARLO = {
    "rcs": (
        {"scheme": "rcs", "workers": 40, "degrees": [1, 2, 4], "q": 0.15, "trials": 300, "seed": 1729},
        "d86ba2fc8351ff8606d1b0c5e1175d9e4d20de73cbc774548e3fc26ba39eec66",
    ),
    "rcs-general": (
        {
            "scheme": "rcs-general", "workers": 20, "degrees": [1, 2, 3], "groups": 2,
            "z": [1, 1, 2, 1, 2, 2], "q": 0.2, "trials": 200, "seed": 7,
        },
        "e638a97babb44c0aa091132565bc6654fbc9fda731bce403819de9ca8f565e1f",
    ),
    "rcs-1222": (
        {"scheme": "rcs", "workers": 40, "degrees": [1, 2, 2, 2], "q": 0.1, "trials": 300, "seed": 1729},
        "dddb730e5e589c1e5d9e58693843f8e6f2e7be269fffc6be2dcd1c05968078e5",
    ),
    "rcs-communication": (
        {
            "scheme": "rcs", "workers": 40, "degrees": [1, 2, 3], "mode": "communication",
            "q": 0.3, "trials": 300, "seed": 1729,
        },
        "29909dcc7aadd1297b91dba3080aa1f8e16a29ce1e5c581a50f85ef147a031e9",
    ),
    # Drawn once from the construction stream (redraw false), then fixed.
    "rcs-general-fixed": (
        {
            "scheme": "rcs-general", "workers": 20, "degrees": [1, 2, 3], "groups": 2,
            "z": [1, 1, 2, 1, 2, 2], "q": 0.2, "trials": 200, "seed": 7, "redraw": False,
        },
        "979712c5ec7fcaaa1e542e2f709b0b28d88cd00fe3031fbf1db97829cedede37",
    ),
    "rcs-communication-fixed": (
        {
            "scheme": "rcs", "workers": 40, "degrees": [1, 2, 4], "mode": "communication",
            "q": 0.15, "trials": 300, "seed": 1729, "redraw": False,
        },
        "07daa9321ecbc5a0c0282e68913ed99786dda9de6adda4803a4cc5d1cfae6eba",
    ),
    "uc-mmc": (
        {"scheme": "uc-mmc", "workers": 40, "load": 3, "q": 0.15, "trials": 300, "seed": 1729},
        "efe318f960bc51f3d208db58b4074b031e7ed2e4c35d83157a84361b519494fd",
    ),
    "mcc": (
        {"scheme": "mcc", "workers": 40, "kbar": 14, "q": 0.0, "trials": 2500, "seed": 1729},
        "0d14c1f6fd68ca12e994f3a61941656ff9fba3fdd698e3aa91cb8280b1843a3f",
    ),
    "gc": (
        {"scheme": "gc", "workers": 40, "load": 6, "q": 0.0, "trials": 2500, "seed": 1729},
        "a38f1861aecd99d7d9f659430abf807b2a4e27a9deef1c15d02fe09b848a267c",
    ),
}

ENUM_RCS = {"scheme": "rcs", "workers": 9, "degrees": [1, 2], "offsets": [1, 3, 5], "q": 0.0}
ENUM_RCS_DIGEST = "a8bad6918bd1192b71b14e6aec03c823a804bdb57413887d9355302417ecb81a"


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_arrays(name):
    data, digest = MONTE_CARLO[name]
    cfg = parse_config(data)
    result = monte_carlo(assignment_source(cfg), cfg.q, cfg.model(), cfg.trials, cfg.seed)
    h = hashlib.sha256()
    for values in (result.times, result.messages, result.redundant, result.recovered, result.completed):
        h.update(values.dtype.str.encode())
        h.update(np.ascontiguousarray(values).tobytes())
    assert h.hexdigest() == digest


def test_success_table():
    cfg = parse_config(ENUM_RCS)
    rows = [(c.counts, good, total) for c, good, total in success_table(concrete_assignment(cfg), cfg.q)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ENUM_RCS_DIGEST


CRITERION_5_Z = (1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2)

# name: (build_rcs keywords, draws from one generator, generator seed, digest)
BUILDER = {
    "rcs-computation": (
        {"k": 40, "degrees": [1, 2, 4]}, 300, 41,
        "45a6687b94b22b852ec649c8b5dcb582d855abb3598efa84b9fc8b91c4c718ea",
    ),
    "rcs-communication": (
        {"k": 40, "degrees": [1, 2, 4], "mode": "communication"}, 300, 42,
        "993e82ea01d329ace5f470388986b51d0e76f24230691edda70dfacd6190e9e6",
    ),
    "grouped-computation": (
        {"k": 40, "degrees": [1, 1, 4, 8], "groups": 2, "z": CRITERION_5_Z}, 300, 43,
        "6fded21566373f7326ae67abc44a06376b4ba73329ecc7d0dda8cd9f6957df85",
    ),
    "grouped-communication": (
        {"k": 40, "degrees": [1, 1, 4, 8], "groups": 2, "z": CRITERION_5_Z, "mode": "communication"},
        300, 44,
        "1477f14166254bf2aabe8665615e67ff7a3f5cf65ea608e0451e6818f34f9b06",
    ),
    "explicit-offsets": (
        {"k": 20, "degrees": [1, 2, 3], "offsets": [1, 4, 11, 15, 6, 18]}, 3, 45,
        "dc9d6cc2506fd20efbe2431d2a29e20cf3697aa61781ff0f7867f9cfc637c509",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDER))
def test_build_rcs_draws(name):
    kwargs, draws, seed, digest = BUILDER[name]
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(draws):
        asn = build_rcs(rng=rng, **kwargs)
        for ids in asn.support:
            h.update(ids.dtype.str.encode())
            h.update(repr(ids.shape).encode())
            h.update(np.ascontiguousarray(ids).tobytes())
        h.update(repr((asn.messages, asn.k_total, asn.task_cost)).encode())
    h.update(repr(rng.bit_generator.state).encode())
    assert h.hexdigest() == digest


# name: (config, dataset seed, samples, dim, iterations, digest)
TRAIN = {
    "rcs": (
        {"scheme": "rcs", "workers": 40, "degrees": [1, 2, 3], "q": 0.3, "seed": 1729},
        11, 160, 80, 130,
        "07803a3e02b1aabf87f3d90bc2cf47bf3131fb81156593795b8d7c4644514a8e",
    ),
    "uc-mmc": (
        {"scheme": "uc-mmc", "workers": 8, "load": 3, "q": 0.25, "seed": 3},
        12, 120, 40, 40,
        "32bed9bf99a6c95f8878b72cf49273b727968ddafd921f8869036dd6dac2e955",
    ),
    "rcs-general": (
        {
            "scheme": "rcs-general", "workers": 10, "degrees": [1, 2, 3], "groups": 2,
            "z": [1, 1, 2, 1, 2, 2], "q": 0.2, "seed": 7,
        },
        13, 120, 40, 40,
        "df8c0622247da39bf83df4c212479b80d7cd3426171988c7efd2446c2db4af04",
    ),
}


@pytest.mark.parametrize("name", sorted(TRAIN))
def test_train_trajectory(name):
    data, data_seed, samples, dim, iterations, digest = TRAIN[name]
    cfg = parse_config(data)
    ds = generate_dataset(samples, dim, np.random.default_rng(data_seed))
    result = train(ds, assignment_source(cfg), cfg.q, cfg.model(), 0.1, iterations, cfg.seed)
    h = hashlib.sha256()
    for values in (result.times, result.messages, result.recovered_fraction, result.losses, result.theta):
        h.update(values.dtype.str.encode())
        h.update(np.ascontiguousarray(values).tobytes())
    assert h.hexdigest() == digest
