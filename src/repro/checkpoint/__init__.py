"""Fork-style checkpointing, delta shipping, and copy-on-write page accounting."""

from repro.checkpoint.delta import (
    CheckpointDelta,
    CheckpointImage,
    assemble_state,
    state_segments,
)
from repro.checkpoint.manager import (
    CheckpointManager,
    CloneRecord,
    MemoryReport,
    snapshot_pages,
)
from repro.checkpoint.snapshot import Checkpoint, Checkpointable, default_segments

__all__ = [
    "Checkpoint",
    "CheckpointDelta",
    "CheckpointImage",
    "CheckpointManager",
    "Checkpointable",
    "CloneRecord",
    "MemoryReport",
    "assemble_state",
    "default_segments",
    "snapshot_pages",
    "state_segments",
]
