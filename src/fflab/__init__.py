"""Exact-arithmetic workbench over local function fields F_q((pi)).

Lattice counting, spherical Hecke algebras and Satake transforms, orbital
integrals with transfer factors, and the Levi reduction identities, all in
exact truncated-Laurent arithmetic.
"""

from .localfield import DEFAULT_PRECISION, LocalField
from .etale import (RAMIFIED, SPLIT, UNRAMIFIED, build_quadratic, compute_e3,
                    eta, is_regular_semisimple, poly_sqrt, resultant,
                    symmetry_check)
from .lattices import canonicalize, index, relative_position, standard_lattice
from .families import count_chains, stable_lattices, sublattices_of_index
from .pairs import (EmbeddingPair, centralizer, direct_sum, invariant,
                    match_alpha, random_pair, w_element)
from .hecke import (HeckeFunction, SymLaurent, ULaurent, convolve, f_of_m,
                    pi_power, pi_twist, s_k, satake_direct, sym_b, sym_e, t_m,
                    unit)
from .orbital import (OrbitalValue, TransferContext, derivative_at_zero,
                      functional_equation_probe, orbital_alpha, orbital_beta,
                      transfer_factor, value_at_zero)
from .reduction import (HomSystem, PhiMap, SplitScenario, random_chain,
                        verify_reduction)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
