"""Sharded account-state chain: content-addressed storage, a persistent
Merkle Patricia Trie, a version-linked account DAG, consistent-hash
sharding, blocks with rollback, and a throughput simulator.
"""

from .chain import Block, BlockHeader, Chain, Transaction
from .encoding import hash256, hex_encode, hp_decode, hp_encode, rlp_decode, rlp_encode
from .errors import CorruptError, NotFoundError, SSChainError
from .merkle_dag import (
    AccountState,
    Cid,
    DagNode,
    Link,
    NameRegistry,
    account_history,
    dag_build_directory,
    dag_get,
    dag_put,
    name_publish,
    name_resolve,
)
from .mpt import EMPTY_ROOT, Trie
from .shard_dht import (
    NodeIdentity,
    ShardId,
    ShardTable,
    assign_key,
    pipeline_key,
    ring_position,
    shard_of,
)
from .simulator import SimConfig, SimReport, effective_throughput, run_experiment
from .store import FileKvStore, KvStore, MemoryKvStore, StoreEntry

__version__ = "0.1.0"

__all__ = [
    "AccountState",
    "Block",
    "BlockHeader",
    "Chain",
    "Cid",
    "CorruptError",
    "DagNode",
    "EMPTY_ROOT",
    "FileKvStore",
    "KvStore",
    "Link",
    "MemoryKvStore",
    "NameRegistry",
    "NodeIdentity",
    "NotFoundError",
    "SSChainError",
    "ShardId",
    "ShardTable",
    "SimConfig",
    "SimReport",
    "StoreEntry",
    "Transaction",
    "Trie",
    "account_history",
    "assign_key",
    "dag_build_directory",
    "dag_get",
    "dag_put",
    "effective_throughput",
    "hash256",
    "hex_encode",
    "hp_decode",
    "hp_encode",
    "name_publish",
    "name_resolve",
    "pipeline_key",
    "ring_position",
    "rlp_decode",
    "rlp_encode",
    "run_experiment",
    "shard_of",
]
