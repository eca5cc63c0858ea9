"""Fork-style checkpointing, incremental shipping, and copy-on-write page accounting."""

from repro.checkpoint.delta import (
    CheckpointDelta,
    CheckpointImage,
    TemplatePatch,
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
    "TemplatePatch",
    "assemble_state",
    "default_segments",
    "snapshot_pages",
    "state_segments",
]
