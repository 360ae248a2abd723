"""Synchronized-action detection and the combined synchronization index.

Quantifies co-timed user behavior in social media event data: detects
users posting the same hashtag, URL, or mention inside a shared time window,
scores pairs, users, and whole networks, builds synchronization graphs,
and partitions the result by externally supplied bot likelihoods.
"""

from .csi import (
    CsiConfig,
    CsiTables,
    UndefinedNetworkError,
    compute_tables,
    csi_network,
)
from .events import (
    ActionRecord,
    ArtifactError,
    CorpusRejectedError,
    EventDataset,
    InteractionRecord,
    PostEvent,
    canonicalize_artifact,
    extract_actions,
    filter_language,
    filter_originals,
    parse_events,
)
from .synchrony import (
    PairCounts,
    action_type_participation,
    detect,
)

__version__ = "0.1.0"

__all__ = [
    "ActionRecord",
    "ArtifactError",
    "CorpusRejectedError",
    "CsiConfig",
    "CsiTables",
    "EventDataset",
    "InteractionRecord",
    "PairCounts",
    "PostEvent",
    "UndefinedNetworkError",
    "action_type_participation",
    "canonicalize_artifact",
    "compute_tables",
    "csi_network",
    "detect",
    "extract_actions",
    "filter_language",
    "filter_originals",
    "parse_events",
]
