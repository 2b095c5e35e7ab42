"""Both enumerators build their output in order, with no sort of it
(``params._params_in_order``), so comparing one with the other would miss
an ordering fault they share.  Here each output is compared with its own
sorted copy, under the order restated in ``oracles.parameter_order`` and
under the dataclass ``order=True`` order itself."""

from sympacket.membership import enumerate_packets_pi, enumerate_packets_sigma

from oracles import parameter_order


def _in_order(found):
    return found == sorted(found, key=parameter_order) == sorted(found)


def test_packet_members_come_out_in_order_at_ranks_1_to_12():
    checked = 0
    for n in range(1, 13):
        for m in range(n + 1):
            members = [psi for psi, _ in enumerate_packets_pi(n, m)]
            assert _in_order(members), ("pi", n, m)
            checked += len(members)
        for k in range(1, n // 2 + 1):
            members = [psi for psi, _ in enumerate_packets_sigma(n, k)]
            assert _in_order(members), ("sigma", n, k)
            checked += len(members)
    assert checked == 15_181


def test_parameters_come_out_in_order_at_ranks_1_to_9(ranks_1_to_9):
    checked = 0
    for module, found in ranks_1_to_9.items():
        assert _in_order(list(found.params)), module
        checked += len(found.params)
    assert checked == 18_994
