"""Register renaming state: the map table and the free pools."""

from .renamer import FP_BANK, INT_BANK, RenameUnit

__all__ = ["FP_BANK", "INT_BANK", "RenameUnit"]
