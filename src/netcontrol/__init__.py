"""Structural-controllability toolkit for directed networks.

Compute minimum input-node sets via maximum matching, build the
control-adjacency graph, classify nodes and control components
(IC / UMC / SMC), and plan edge additions that flip control types.
"""

from .alteration import (AlterationPlan, EdgeAddition, alteration_report,
                         apply_plan, ic_to_smc, plan_attains_goal,
                         smc_to_ic_full, smc_to_ic_single, umc_to_smc)
from .components import (COMPONENT_KINDS, ComponentKind, ComponentReport,
                         ControlComponent, component_report, find_components,
                         largest_component)
from .errors import (AlterationError, EdgeListParseError, ExchangeError,
                     GenerationError, InsufficientInputNodesError,
                     InternalInvariantError, NetcontrolError,
                     NotMaximumMatchingError, OracleInfeasibleError)
from .generators import GenSpec, er_directed, generate, scale_free_directed
from .input_graph import (NODE_CLASSES, InputGraph, NodeClass,
                          build_input_graph, classify_nodes,
                          control_reachable_from, is_maximum)
from .matching import (ExchangeResult, Matching, exchange, input_nodes,
                       maximum_matching, unsaturated_nodes)
from .network import DirectedNetwork, load_edge_list, write_edge_list
from .oracle import (EnumerationResult, OracleGuard, classify_exhaustive,
                     enumerate_maximum_matchings, exhaustive_classes)
from .pipeline import NetworkAnalysis, analyze

__version__ = "0.1.0"
