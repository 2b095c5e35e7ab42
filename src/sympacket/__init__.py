"""Exact combinatorics of Arthur packets of Sp(2n,R) containing unitary
highest weight modules: packet membership deciders, component group sign
characters, quadratic form invariants, theta correspondence K-type data, and
the nilpotent orbit combinatorics of the associated varieties."""

from importlib import import_module as _import_module

from .weights import (
    HighestWeight,
    InfinitesimalCharacter,
    OrthRepLabel,
    HoweSource,
    Unitarity,
    classify_unitary,
    howe_source,
    inf_char_of_weight,
    pi_nm,
    regular_a_max,
    sigma_nk,
)
from .params import (
    CHAR_SGN,
    CHAR_TRIV,
    ArthurParameter,
    DiscreteBlock,
    UnipotentBlock,
    a_psi,
    a_psi_u,
    contains_block,
    enumerate_params,
    hw_shape_check,
    inf_char_of_param,
    remove_discrete_block,
    twist_sgn,
    validate,
)
from .membership import (
    MembershipVerdict,
    decide_pi,
    decide_pi_recursive,
    decide_regular,
    decide_sigma,
    decide_unipotent,
    enumerate_packets_pi,
    enumerate_packets_sigma,
    distinguished_parameter_sigma,
    peel_step,
)
from .characters import (
    ComponentGroup,
    PacketCharacter,
    char_equivalent,
    component_group,
    rho_pi_general,
    rho_sigma_general,
    rho_theta,
    rho_unipotent_table,
)
# The side modules and their public names are imported on first use
# (PEP 562), so the packet commands do not load them, nor ``fractions``.
_SIDE_NAMES = {
    "quadforms": (
        "OrthCharacter",
        "add_hyperbolic",
        "det_class",
        "discriminant",
        "first_occurrence",
        "hasse_from_diagonal",
        "hasse_normalized",
        "hilbert_symbol_real",
        "howe_degree",
        "howe_ktype",
        "o_characters",
        "tensor_det",
    ),
    "cohomology": (
        "AqLambda",
        "HalfIntVector",
        "InductionWeight",
        "aq_lambda_regular",
        "induction_weights",
        "ktype_inequality_general",
        "ktype_inequality_scalar",
        "lambda_of",
        "rho_vectors",
        "weakly_fair",
    ),
    "langlands": (
        "StandardModule",
        "exponent_filter",
        "max_exponent",
        "standard_pi",
        "standard_sigma",
    ),
    "tableaux": (
        "SignedTableau",
        "av_scalar",
        "chain_index",
        "chain_tableau",
        "closure_leq",
        "in_pminus_chain",
        "pminus_orbits",
        "render_tableau",
        "validate_tableau",
    ),
}
_SIDE_MODULE = {name: module for module, names in _SIDE_NAMES.items() for name in names}


def __getattr__(name: str):
    """A side module, or one of its public names, imported on first use."""
    if name in _SIDE_NAMES:
        return _import_module(f"{__name__}.{name}")
    module = _SIDE_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SIDE_NAMES.keys() | _SIDE_MODULE.keys())


# ``from sympacket import *`` imports the side modules and their names too
__all__ = [name for name in __dir__() if not name.startswith("_")]

__version__ = "0.1.0"
