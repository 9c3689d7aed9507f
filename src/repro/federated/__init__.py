"""Federated-learning substrate: FedAvg server, local SGD clients, and
the synchronous round simulator that couples learning with the
device-level virtual clock."""

from ..engine import (
    ConvergenceHistory,
    LocalTrainingResult,
    RoundRecord,
    evaluate_accuracy,
    train_local,
)
from .asynchronous import AsyncConfig, AsyncFederatedSimulation, AsyncUpdate
from .decentralized import (
    DecentralizedConfig,
    DecentralizedSimulation,
    make_topology,
    metropolis_weights,
)
from .dropout import DropoutPolicy, apply_deadline
from .server import ParameterServer, fedavg_aggregate
from .simulation import FederatedSimulation, SimulationConfig

__all__ = [
    "AsyncConfig",
    "AsyncFederatedSimulation",
    "AsyncUpdate",
    "DecentralizedConfig",
    "DecentralizedSimulation",
    "make_topology",
    "metropolis_weights",
    "DropoutPolicy",
    "apply_deadline",
    "LocalTrainingResult",
    "train_local",
    "ConvergenceHistory",
    "RoundRecord",
    "evaluate_accuracy",
    "ParameterServer",
    "fedavg_aggregate",
    "FederatedSimulation",
    "SimulationConfig",
]
