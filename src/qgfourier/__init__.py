"""Exact Fourier analysis on finite quantum groups, the Laurent dual pair
and the p-adic line."""

from .scalars import Cyclotomic, zeta, unify_order, EXACT, FLOAT, Backend
from .core import (
    FiniteQuantumGroup,
    Element,
    Functional,
    DualResult,
    verify_axioms,
    build_dual,
    fourier,
    inverse_fourier,
    convolve,
    convolve_alt,
    plancherel_check,
    find_cointegral,
    classify_type,
    dual_type_check,
    is_group_like_projection,
    fourier_group_like,
    modular_element,
)
from .fixtures import FiniteGroupTable, function_algebra, group_algebra, sweedler_fixture
from .padic import (
    Ball,
    SchwartzFunction,
    parse_padic,
    format_padic,
    character,
    indicator,
    haar_integral,
    schwartz_convolve,
    padic_fourier,
)
from .report import CheckReport

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
