"""Exact-arithmetic library for rank-2 lattice-chain combinatorics.

Computes Pappas-Rapoport style chains of u-stable subspaces in
(K[u]/(u^e))^2, their Hodge and partial-Hasse invariants, strata censuses
over small finite fields, dimension formulas by exact interpolation in q,
and closure relations certified by explicit one-parameter deformation
families.
"""

from .chains import (
    PRChain,
    TruncatedGroupElement,
    act,
    enumerate_chains,
    fiber_chains,
    orbits,
)
from .deform import (
    FamilyChain,
    hodge_raise,
    invert_m1,
    recipe_7_3_1,
    search_witness,
    sigma_collapse,
    sigma_raise,
    transport_family,
)
from .dieudonne import DieudonneModel, ag_witness, f_one, labeled_with_m1, m1_vanishes
from .errors import LatModelError
from .invariants import (
    StratumLabel,
    adm_poset,
    block_partition,
    hodge,
    product_poset,
    stratum_label,
)
from .scalars import prime_field, rational_ctx, small_field, truncated_ctx
from .strata import build_poset, census, degree_fit, emptiness_table, product_census
from .umod import Subspace, UMatrix, UVec

__version__ = "0.1.0"

__all__ = [
    "DieudonneModel",
    "FamilyChain",
    "LatModelError",
    "PRChain",
    "StratumLabel",
    "Subspace",
    "TruncatedGroupElement",
    "UMatrix",
    "UVec",
    "act",
    "adm_poset",
    "ag_witness",
    "block_partition",
    "build_poset",
    "census",
    "degree_fit",
    "emptiness_table",
    "enumerate_chains",
    "f_one",
    "fiber_chains",
    "hodge",
    "hodge_raise",
    "invert_m1",
    "labeled_with_m1",
    "m1_vanishes",
    "orbits",
    "prime_field",
    "product_census",
    "product_poset",
    "rational_ctx",
    "recipe_7_3_1",
    "search_witness",
    "sigma_collapse",
    "sigma_raise",
    "small_field",
    "stratum_label",
    "transport_family",
    "truncated_ctx",
]
