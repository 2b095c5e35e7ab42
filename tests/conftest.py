"""A session-wide enumeration of ranks 1-9 for the sweeps that read it.

``ranks_1_to_9`` maps (family, n, value), for every pi_n(m) and sigma_{n,k}
at ranks 1-9 in the order n, then pi before sigma, then value, to the
module's ``Enumerated`` tuples, built once per session.  Only sweeps that
read these lists use it: a test that counts calls, patches the library or
checks a freshly built record enumerates for itself.
"""

from typing import NamedTuple

import pytest

from sympacket.membership import enumerate_packets_pi, enumerate_packets_sigma
from sympacket.params import enumerate_params
from sympacket.weights import inf_char_of_weight, pi_nm, sigma_nk


class Enumerated(NamedTuple):
    params: tuple  # enumerate_params of the module's infinitesimal character
    members: tuple  # enumerate_packets_*: (parameter, verdict) of each member


@pytest.fixture(scope="session")
def ranks_1_to_9():
    found = {}
    for n in range(1, 10):
        families = [
            ("pi", range(n + 1), pi_nm, enumerate_packets_pi),
            ("sigma", range(1, n // 2 + 1), sigma_nk, enumerate_packets_sigma),
        ]
        for family, values, weight, enumerate_packets in families:
            for value in values:
                chi = inf_char_of_weight(weight(n, value))
                found[family, n, value] = Enumerated(
                    tuple(enumerate_params(chi, n)), tuple(enumerate_packets(n, value))
                )
    return found
