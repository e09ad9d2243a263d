"""Sharded account-state chain: content-addressed storage, a persistent
Merkle Patricia Trie, a version-linked account DAG, consistent-hash
sharding, blocks with rollback, and a throughput simulator.

Import each name from its module (``from sschain.chain import Chain``);
``import sschain`` alone loads no submodule.
"""

__version__ = "0.1.0"
