"""Dynamic instruction steering: metrics, Baseline/Modified/VPB, ablations."""

from .base import SourceView, Steerer
from .baseline import (BaselineSteerer, ModifiedSteerer, RMBSSteerer,
                       VPBSteerer, default_balance_threshold,
                       default_vpb_threshold)
from .metrics import DCountTracker, NReadyMeter
from .simple import BalanceOnlySteerer, DependenceOnlySteerer, RoundRobinSteerer
from .static import StaticSteerer, profile_static_assignment

__all__ = ["SourceView", "Steerer",
           "BaselineSteerer", "ModifiedSteerer", "RMBSSteerer", "VPBSteerer",
           "default_balance_threshold", "default_vpb_threshold",
           "DCountTracker", "NReadyMeter",
           "BalanceOnlySteerer", "DependenceOnlySteerer", "RoundRobinSteerer",
           "StaticSteerer", "profile_static_assignment", "STEERERS"]

#: Each ``ProcessorConfig.steering`` name and the constructor that builds
#: its steerer from the config, in the order the CLI offers them
#: (``static`` needs a profiled assignment, so the CLI leaves it out).
STEERERS = {
    "baseline": lambda config: BaselineSteerer(
        config.n_clusters, config.balance_threshold),
    "modified": lambda config: ModifiedSteerer(
        config.n_clusters, config.balance_threshold),
    "vpb": lambda config: VPBSteerer(
        config.n_clusters, config.balance_threshold, config.vpb_threshold),
    "round-robin": lambda config: RoundRobinSteerer(config.n_clusters),
    "balance-only": lambda config: BalanceOnlySteerer(config.n_clusters),
    "dependence-only": lambda config: DependenceOnlySteerer(
        config.n_clusters),
    "static": lambda config: StaticSteerer(
        config.n_clusters, config.static_assignment),
}
