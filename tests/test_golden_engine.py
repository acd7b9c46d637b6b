"""Golden exact-engine values: the orbits must not move.

The values were captured from the engine before its orbits went through
the laws' fused ``pair_step``; every stock model must reproduce them
bit for bit.  A three-type product model whose type 1 has three child
factors (where the telescoped gap's running recurrence reassociates
the sum) must match them to 1e-14 relative.

Floats are stored as ``float.hex`` strings; ``d_sha``/``pmf_sha`` are
the sha256 of ``build_survival_table(spec, 3000)``'s array bytes.
"""

import hashlib

import pytest

from branchlab.families import Bernoulli, Geometric, PointMass, Poisson
from branchlab.model import ProcessSpec, ProductLaw
from branchlab.pgf import (
    build_survival_table,
    censored_transform,
    conditional_transform,
    harmonic_U,
    iterate_point,
    terminal_gap,
)
from branchlab.zoo import STOCK_MODELS


def three_children():
    return ProcessSpec(n_types=3, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.0), 2: Poisson(0.8),
                                       3: Bernoulli(0.5)}),
        ProductLaw(parent=2, children={2: Poisson(1.0), 3: PointMass(1)}),
        ProductLaw(parent=3, children={3: Geometric(1.0)}),
    ), name="three_children")


def engine_values(spec):
    n = spec.n_types
    table = build_survival_table(spec, 3000)
    s = tuple(0.2 + 0.25 * j for j in range(n))
    s1 = tuple(1.0 if j == n - 1 else 0.5 for j in range(n))
    horizons = (1, 10, 100, 1000, 3000)
    harmonic = harmonic_U(spec, 0.6, 2000)
    return {
        "d_sha": hashlib.sha256(table.d.tobytes()).hexdigest(),
        "pmf_sha": hashlib.sha256(table.pmf.tobytes()).hexdigest(),
        "d": [table.d[i, k] for i in range(n) for k in horizons],
        "pmf": [table.pmf[i, k] for i in range(n) for k in horizons],
        "conditional": [conditional_transform(spec, table, p, m, nn)
                        for p in (s, s1)
                        for m, nn in ((10, 50), (700, 3000), (2999, 3000))],
        "censored": [censored_transform(spec, table, s, t, m, nn)
                     for t, m, nn in ((5, 40, 300), (50, 200, None),
                                      (30, 30, 2500), (0, 60, None),
                                      (0, 60, 100))],
        "iterate": list(iterate_point(spec, s, 500)),
        "terminal_gap": [terminal_gap(spec, 0.6, 1000)],
        "harmonic_U": [harmonic.value, harmonic.convergence_estimate],
    }


GOLDEN = {
    "single_geometric": {
        "d_sha": "30791cbd5263cae837b585e29b562efee5cb162f247a0777aae906c4003d3c4c",
        "pmf_sha": "8f5dd6e93e2cdffacce24779a2aa78b48f8ef2e8c4e133383edf58775b3bc286",
        "d": [
            "0x1.0000000000000p-1",
            "0x1.745d1745d1747p-4",
            "0x1.446f86562d9fdp-7",
            "0x1.05e1d27a3ee95p-10",
            "0x1.5d68ab4acff94p-12"
        ],
        "pmf": [
            "0x1.0000000000000p-1",
            "0x1.29e4129e4129ep-7",
            "0x1.9f471259d3ff0p-14",
            "0x1.0c2ad36ed7fa9p-20",
            "0x1.dd0f3fe312658p-24"
        ],
        "conditional": [
            "0x1.f1bbff0240c92p-9",
            "0x1.22214bac943acp-20",
            "0x1.c73ef6d4ed5fap-4",
            "0x1.0000000000000p+0",
            "0x1.0000000000000p+0",
            "0x1.0000000000000p+0"
        ],
        "censored": [
            "0x1.ff8fc7e05e825p-13",
            "0x1.fd74b5e731ed9p-1",
            "0x1.57ad1e86d7e8bp-12",
            "0x1.f7a40c89ed312p-1",
            "0x1.09bc0d0a85532p-11"
        ],
        "iterate": [
            "0x1.fefa827d61ee6p-1"
        ],
        "terminal_gap": [
            "0x1.913f70b52c2ebp-20"
        ],
        "harmonic_U": [
            "0x1.7f543511e9da8p+0",
            "0x1.56a172c487a00p-9"
        ]
    },
    "two_type_cascade": {
        "d_sha": "98227c34152e1159675ef6aa2256a50210e4f092437ed3a0cc4c91ef61ccf834",
        "pmf_sha": "a7a9e8e2e5b9d34f1a422cc770d2f91f978c7389e6850de31b83f3b36378884e",
        "d": [
            "0x1.a1d2a7274c432p-1",
            "0x1.4eb98b95c1d9ep-2",
            "0x1.a2197ffa159adp-4",
            "0x1.04feb34e9fc60p-5",
            "0x1.2c7439dc6a9e2p-6",
            "0x1.0000000000000p-1",
            "0x1.745d1745d1747p-4",
            "0x1.446f86562d9fdp-7",
            "0x1.05e1d27a3ee95p-10",
            "0x1.5d68ab4acff94p-12"
        ],
        "pmf": [
            "0x1.78b56362cef38p-3",
            "0x1.1c7be34f25e50p-6",
            "0x1.11efddb49cf32p-11",
            "0x1.0d56a071e0a9dp-16",
            "0x1.9c1341488c18ap-19",
            "0x1.0000000000000p-1",
            "0x1.29e4129e4129ep-7",
            "0x1.9f471259d3ff0p-14",
            "0x1.0c2ad36ed7fa9p-20",
            "0x1.dd0f3fe312658p-24"
        ],
        "conditional": [
            "0x1.137ad9bd23991p-7",
            "0x1.5097f7a44e294p-19",
            "0x1.2957dd8b63835p-2",
            "0x1.a7603048d961dp-1",
            "0x1.ffffffff4f8e9p-1",
            "0x1.0000000000000p+0"
        ],
        "censored": [
            "0x1.f26ee75360746p-13",
            "0x1.db46add6bfe18p-1",
            "0x1.82d8e3a96251cp-13",
            "0x1.bcb4cd5927730p-1",
            "0x1.e10110ec44c8ep-10"
        ],
        "iterate": [
            "0x1.e8e27f149779cp-1",
            "0x1.feface48b805fp-1"
        ],
        "terminal_gap": [
            "0x1.913f70b52c2ebp-20"
        ],
        "harmonic_U": [
            "0x1.7f543511e9da8p+0",
            "0x1.56a172c487a00p-9"
        ]
    },
    "three_type_chain": {
        "d_sha": "76b87ee7fefa1bbe0953ebc69cafa8caf157927b24c7e62417e7beb368c4e082",
        "pmf_sha": "8ee06d47a1189a797321464f068de138b3be173fe657b222e9023fc7fc45059d",
        "d": [
            "0x1.a1d2a7274c432p-1",
            "0x1.1735bf129833ep-1",
            "0x1.40a13402e9a00p-2",
            "0x1.6af5e837d3fafp-3",
            "0x1.142ae6e808a8ep-3",
            "0x1.a1d2a7274c432p-1",
            "0x1.4eb98b95c1d9ep-2",
            "0x1.a2197ffa159adp-4",
            "0x1.04feb34e9fc60p-5",
            "0x1.2c7439dc6a9e2p-6",
            "0x1.0000000000000p-1",
            "0x1.745d1745d1747p-4",
            "0x1.446f86562d9fdp-7",
            "0x1.05e1d27a3ee95p-10",
            "0x1.5d68ab4acff94p-12"
        ],
        "pmf": [
            "0x1.78b56362cef38p-3",
            "0x1.bac2709f98e1ap-7",
            "0x1.95548bec00760p-11",
            "0x1.718ba26175486p-15",
            "0x1.77b2c07fef9c2p-17",
            "0x1.78b56362cef38p-3",
            "0x1.1c7be34f25e50p-6",
            "0x1.11efddb49cf32p-11",
            "0x1.0d56a071e0a9dp-16",
            "0x1.9c1341488c18ap-19",
            "0x1.0000000000000p-1",
            "0x1.29e4129e4129ep-7",
            "0x1.9f471259d3ff0p-14",
            "0x1.0c2ad36ed7fa9p-20",
            "0x1.dd0f3fe312658p-24"
        ],
        "conditional": [
            "0x1.8129d3df49a97p-6",
            "0x1.2c72bd85bef1bp-17",
            "0x1.13b800d697bfbp-1",
            "0x1.64ba11192ecb0p-1",
            "0x1.ffffffff2d98cp-1",
            "0x1.0000000000000p+0"
        ],
        "censored": [
            "0x1.6b2d6acca5117p-12",
            "0x1.791fd1481c670p-1",
            "0x1.24a9d7a5a1401p-12",
            "0x1.4c04c9b145f7bp-1",
            "0x1.f0b41dd0493c3p-8"
        ],
        "iterate": [
            "0x1.945addcc2b43ep-1",
            "0x1.e8eb82e153a8cp-1",
            "0x1.fefb9790c8bb3p-1"
        ],
        "terminal_gap": [
            "0x1.913f70b52c2ebp-20"
        ],
        "harmonic_U": [
            "0x1.7f543511e9da8p+0",
            "0x1.56a172c487a00p-9"
        ]
    },
    "micro_table": {
        "d_sha": "cae7ea93119d5cc182d10a5312e065de51c490e8684a7d00d2e6fd3dc32bece4",
        "pmf_sha": "bbf32d1464c4ce2cf879e6182333a83158217c1b38313b9fac6534be27908aa2",
        "d": [
            "0x1.3333333333334p-1",
            "0x1.1bb57b3039671p-2",
            "0x1.9248573864cd5p-4",
            "0x1.02f9c6125c8c6p-5",
            "0x1.2b552f1fb6b28p-6",
            "0x1.0000000000000p-1",
            "0x1.1c788a5f758dap-3",
            "0x1.33e183a1e1daep-6",
            "0x1.03e31d4f4ca47p-9",
            "0x1.5c63cf150380cp-11"
        ],
        "pmf": [
            "0x1.999999999999ap-2",
            "0x1.8c41b47655804p-7",
            "0x1.f3201a5c0813dp-12",
            "0x1.08732cf38be62p-16",
            "0x1.988ce429a77a4p-19",
            "0x1.0000000000000p-1",
            "0x1.7184b200afc9ap-7",
            "0x1.7966e549a1296p-13",
            "0x1.085b97741ea98p-19",
            "0x1.da703a8b4f8f0p-23"
        ],
        "conditional": [
            "0x1.a1a1fc57787fep-7",
            "0x1.b3545b377f92fp-18",
            "0x1.36777504dae18p-3",
            "0x1.c2dcd4d3c47dfp-2",
            "0x1.ffd17e1c1ae37p-1",
            "0x1.0000000000000p+0"
        ],
        "censored": [
            "0x1.7e22d22004ba6p-13",
            "0x1.d9a3165f4e582p-1",
            "0x1.9e332023a7635p-12",
            "0x1.c03bce63d2ee4p-1",
            "0x1.dff0a412af323p-9"
        ],
        "iterate": [
            "0x1.e92b94edc3eb9p-1",
            "0x1.fdfcbaebc279cp-1"
        ],
        "terminal_gap": [
            "0x1.cab0955e460aep-19"
        ],
        "harmonic_U": [
            "0x1.b916e991d741cp+0",
            "0x1.d30d2f7d9ec80p-7"
        ]
    },
    "three_children": {
        "d_sha": "86998490d19f1c3f7d50c9b5d8f0c00f553e1adade548f9dfcda908fbfb0c2c0",
        "pmf_sha": "47ee4746b1463f13329c0d89764b7207e9780e4fe0fd66c83b74dbca3c5276e5",
        "d": [
            "0x1.c67c6374fc48fp-1",
            "0x1.2a4f15028eb06p-1",
            "0x1.5556a6f2fa57ap-2",
            "0x1.8221aa9b5a260p-3",
            "0x1.25c5eb4555d50p-3",
            "0x1.0000000000000p+0",
            "0x1.b01a6639876fep-2",
            "0x1.1db38f5d041aap-3",
            "0x1.6ced8ca906ca2p-5",
            "0x1.a619268d68005p-6",
            "0x1.0000000000000p-1",
            "0x1.745d1745d1747p-4",
            "0x1.446f86562d9fdp-7",
            "0x1.05e1d27a3ee95p-10",
            "0x1.5d68ab4acff94p-12"
        ],
        "pmf": [
            "0x1.cc1ce4581db88p-4",
            "0x1.de9257428bed7p-7",
            "0x1.b0ac7519a592ep-11",
            "0x1.894fdc0f55871p-15",
            "0x1.8fbaed0dd6eb0p-17",
            "0x0.0p+0",
            "0x1.54d6c4c3c7992p-6",
            "0x1.6aadd7ab3c5b5p-11",
            "0x1.746f4f2ed85d3p-16",
            "0x1.1f91b3b1d41f9p-18",
            "0x1.0000000000000p-1",
            "0x1.29e4129e4129ep-7",
            "0x1.9f471259d3ff0p-14",
            "0x1.0c2ad36ed7fa9p-20",
            "0x1.dd0f3fe312658p-24"
        ],
        "conditional": [
            "0x1.8c979e64bf0bbp-6",
            "0x1.2c99b02825bdfp-17",
            "0x1.13b80119d2a66p-1",
            "0x1.3f3c5eb4a8f0ep-1",
            "0x1.fffffa8773f67p-1",
            "0x1.0000000000000p+0"
        ],
        "censored": [
            "0x1.4fb84c166c653p-12",
            "0x1.6ffc537ac7226p-1",
            "0x1.26f108c8d0f97p-12",
            "0x1.405283c4b25a2p-1",
            "0x1.f177d3bcfec44p-8"
        ],
        "iterate": [
            "0x1.8d78ba30f1d4dp-1",
            "0x1.dfdfeed3b4ed4p-1",
            "0x1.fefb9790c8bb3p-1"
        ],
        "terminal_gap": [
            "0x1.913f70b52c2ebp-20"
        ],
        "harmonic_U": [
            "0x1.7f543511e9da8p+0",
            "0x1.56a172c487a00p-9"
        ]
    }
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def model_values(request):
    make = STOCK_MODELS.get(request.param, three_children)
    return request.param, engine_values(make())


def test_engine_values_match_the_golden_capture(model_values):
    name, got = model_values
    want = GOLDEN[name]
    assert set(got) == set(want)
    for key, values in want.items():
        if key.endswith("_sha"):
            if name in STOCK_MODELS:
                assert got[key] == values, key
            continue
        assert len(got[key]) == len(values), key
        for x, hexed in zip(got[key], values):
            expected = float.fromhex(hexed)
            if name in STOCK_MODELS:
                assert float(x).hex() == hexed, key
            else:
                assert x == pytest.approx(expected, rel=1e-14, abs=0.0), key

