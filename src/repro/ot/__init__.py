"""Operational-transformation reconciliation engine (the So6 substitute).

Line-based text operations, inclusion transformation functions, patches,
diffing and merge helpers.  P2P-LTR itself is agnostic to the reconciliation
engine; this package provides the one the paper's XWiki integration uses
(So6, built on the transformational approach) so that the end-to-end
collaborative-editing scenarios can be reproduced.
"""

from .diff import diff_lines, make_patch
from .document import Document, all_converged
from .merge import (
    MergeResult,
    converge_check,
    install_snapshot_into_staged,
    integrate_remote_into_staged,
    integrate_remote_patches,
    rebase_chain,
)
from .operations import DeleteLine, InsertLine, NoOp, TextOperation, is_noop
from .patch import Patch
from .transform import (
    transform,
    transform_operation_against_sequence,
    transform_pair,
    transform_sequences,
)

__all__ = [
    "DeleteLine",
    "Document",
    "InsertLine",
    "MergeResult",
    "NoOp",
    "Patch",
    "TextOperation",
    "all_converged",
    "converge_check",
    "diff_lines",
    "install_snapshot_into_staged",
    "integrate_remote_into_staged",
    "integrate_remote_patches",
    "is_noop",
    "make_patch",
    "rebase_chain",
    "transform",
    "transform_operation_against_sequence",
    "transform_pair",
    "transform_sequences",
]
