"""Key-exchange trust evaluation for hybrid wired/wireless sensor networks.

The package models networks where some sensor pairs share a wired,
unconditionally-secure key exchange and the rest only a wireless,
conditionally-secure one; scores every ordered pair with a geometric
tiered trust function; and simulates the wired exchange protocol itself,
including its public-comparison defense against active attacks.
"""

from .kljn import (
    AttackVerdict,
    BudgetExhaustedError,
    ChannelLevels,
    CurrentInjectionAttacker,
    KeyExchangeResult,
    KljnSessionConfig,
    LevelClass,
    PeriodOutcome,
    ResistorChoice,
    WireSubstitutionAttacker,
    auth_bit_cost,
    classify_level,
    detect_active_attack,
    run_key_exchange,
    simulate_bit_period,
    theoretical_levels,
)
from .orchestrator import (
    KillSwitchState,
    NetworkKeyState,
    apply_kill_event,
    establish_network_keys,
    load_state,
    save_state,
    trust_report,
)
from .topology import (
    Topology,
    TopologyFormatError,
    UnknownSensorError,
    ValidationReport,
    bundled_topology,
    bundled_topology_path,
    derive_wireless_sets,
    load_topology,
    parse_topology,
    serialize_topology,
    validate,
)
from .trust import (
    TrustCoefficients,
    TrustCounts,
    TrustMatrix,
    coefficients_closed_form,
    coefficients_fixed_point,
    counts,
    geometric_partial_sum,
    rank_peers,
    trust,
    trust_matrix,
)

__version__ = "0.1.0"
