"""Heap bounds of the scans over the planar m = 4 set (65536 points).

The artifact reader, the Bohnenblust-Hille scan and max_denominator each
work one block of rows at a time, so beyond their input and result they
hold one block of temporaries. tracemalloc counts numpy's array buffers,
and with numpy pinned its counts are deterministic, unlike RSS. A scan
over the whole set at once peaks at several times each bound.
"""

import tracemalloc

from extremeforms.constants import bh_constant
from extremeforms.storage import read_extreme_set, write_extreme_set

MB = 1 << 20


def heap_peak(call) -> int:
    """The most bytes traced at once while call runs, its result included."""

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_holds_one_block_beyond_its_result(tmp_path, planar4):
    # the result itself is 8.5 MB: int64 dens and nums of 65536 x 16
    path = tmp_path / "planar4.json"
    write_extreme_set(path, planar4)
    data = path.read_bytes()
    assert heap_peak(lambda: read_extreme_set(path, data)) <= 12 * MB


def test_bh_scan_holds_one_block(planar4):
    assert heap_peak(lambda: bh_constant(4, 2, planar4)) <= 4 * MB


def test_max_denominator_holds_one_block(planar4):
    assert heap_peak(planar4.max_denominator) <= 2 * MB
