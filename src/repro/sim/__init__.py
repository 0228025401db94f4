"""Discrete-event simulation substrate (clock, network, processes)."""

from .costs import CostModel
from .network import Network
from .process import Process
from .simulator import Simulator, Timer

__all__ = ["CostModel", "Network", "Process", "Simulator", "Timer"]
