"""Software layer: memcpy variants, the Fig. 8 wrapper, the allocator."""

from repro.sw.allocator import FreeListAllocator
from repro.sw.memcpy import (memcpy_lazy_ops, memcpy_ops, stream_read_ops,
                             touch_ops)

__all__ = ["FreeListAllocator", "memcpy_ops", "memcpy_lazy_ops",
           "touch_ops", "stream_read_ops"]
