"""Defense agents: tabular Q-learning, Dueling Double DQN, and a
parameter-sharing multi-agent pool."""

from .checkpoint import load_agent, save_agent
from .dqn import DqnAgent
from .marl import MarlPool
from .nn import AgentHyperparams
from .tabular import TabularAgent

AGENT_KINDS = ("rl", "drl", "marl")


def make_agent(kind: str, hp: AgentHyperparams, rng, episodes_total: int, n_nodes: int):
    if kind == "rl":
        return TabularAgent(hp, rng, episodes_total)
    if kind == "drl":
        return DqnAgent(hp, rng, episodes_total)
    if kind == "marl":
        return MarlPool(hp, rng, n_agents=n_nodes, episodes_total=episodes_total)
    raise ValueError(f"unknown agent kind {kind!r}; expected one of {AGENT_KINDS}")
