"""Heap bounds of the scans over the planar m = 4 set (65536 points).

The cache entry's reader, the Bohnenblust-Hille scan and max_denominator
each work one block of rows at a time, so beyond their input and result
they hold one block of temporaries, and the CSV reader streams its rows;
the cache copies a file to a file, so it holds neither the 11 MB artifact
nor the set.
tracemalloc counts numpy's array buffers, and with numpy pinned its counts
are deterministic, unlike RSS. A scan over the whole set at once peaks at
several times each bound.
"""

import tracemalloc

from extremeforms.cli import main
from extremeforms.constants import bh_constant
from extremeforms.storage import (
    FilePayload,
    cache_key,
    cache_load,
    cache_store,
    read_entry,
    read_extreme_set,
    write_entry,
    write_extreme_set,
)

MB = 1 << 20


def heap_peak(call) -> int:
    """The most bytes traced at once while call runs, its result included."""

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_planar_set_holds_nums_in_int8(planar4):
    assert planar4.nums.nbytes == 65536 * 16


def test_reader_holds_one_block_beyond_its_result(tmp_path, planar4):
    # the result itself is 1.5 MB: int64 dens and int8 nums of 65536 x 16,
    # read from the cache entry into arrays of their own
    path = tmp_path / "planar4.entry"
    write_entry(path, planar4)
    assert heap_peak(lambda: read_entry(path, 4, 2)) <= 4 * MB


def test_csv_reader_holds_one_block_beyond_its_result(tmp_path, planar4):
    path = tmp_path / "planar4.csv"
    write_extreme_set(path, planar4, fmt="csv")
    assert heap_peak(lambda: read_extreme_set(path)) <= 12 * MB


def test_cache_streams_the_artifact(tmp_path, planar4):
    artifact = tmp_path / "planar4.json"
    write_extreme_set(artifact, planar4)
    key = cache_key("planar", 4, 2)
    cache = tmp_path / "cache"
    assert heap_peak(lambda: cache_store(cache, key,
                                         FilePayload(artifact))) <= 2 * MB
    copy = tmp_path / "copy.json"
    assert heap_peak(lambda: cache_load(cache, key, copy)) <= 2 * MB
    assert copy.read_bytes() == artifact.read_bytes()


def test_cli_hit_holds_one_block_beyond_its_set(tmp_path, monkeypatch,
                                                capsys):
    # copy, check and read the entry, write the artifact and summarize: the
    # 1.5 MB set and one block of the entry check or of the writer, which
    # frees each block's cells before it forms the next
    monkeypatch.setenv("EXTREMEFORMS_CACHE", str(tmp_path / "cache"))
    argv = ["planar", "--m", "4", "--out", str(tmp_path / "planar4.json")]
    assert main(argv) == 0
    assert heap_peak(lambda: main(argv)) <= 2.5 * MB
    assert capsys.readouterr().out.endswith("cache: hit\n")


def test_bh_scan_holds_one_block(planar4):
    assert heap_peak(lambda: bh_constant(4, 2, planar4)) <= 4 * MB


def test_max_denominator_holds_one_block(planar4):
    assert heap_peak(planar4.max_denominator) <= 2 * MB
