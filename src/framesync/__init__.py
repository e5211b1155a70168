"""Phase-reference synchronization toolkit.

Exact numerics and seeded simulation for the problem of estimating an unknown
phase offset between two parties' level references: optimal joint costs from
bipartite resource states, a one-way protocol that attains them, brute-force
cross-checks, and demonstrations of why classical messages alone cannot do
the job.
"""
from .core import (ATOL, ContractViolation, DensityMatrix, Generator, Ket,
                   RandomSource, fidelity, measure)
from .estimation import (CostFunction, EstimateDensity, brute_force_min_cost,
                         likelihood_cost, min_joint_cost, sample_estimate,
                         variance_cost)
from .protocols import (SyncProtocol, WitnessReport, alice_measure,
                        sector_form_residual, fidelity_after_relay,
                        finite_group_align, monte_carlo_cost, no_go_witness,
                        si_teleport, teleport_with_mismatch)
from .states import (BipartiteFrameState, NotInvariantState,
                     expand, family_profile, flat_state, optimal_frameness_state,
                     sector_magnitudes, sine_state, single_sector_state)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
