"""Edge-list IO tests: formats, round-trips, and error handling."""

import gzip

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.io import iter_edgelist_lines, read_edgelist, write_edgelist


def test_read_simple_edgelist(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    g = read_edgelist(path)
    assert g.num_vertices == 3
    assert g.num_edges == 3


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# SNAP header\n% KONECT header\n// misc\n\n0 1\n")
    g = read_edgelist(path)
    assert g.num_edges == 1


def test_extra_columns_ignored(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 3.5 1992\n1 2 0.1 1993\n")
    g = read_edgelist(path)
    assert g.num_edges == 2


def test_tabs_and_spaces(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0\t1\n1  2\n")
    assert read_edgelist(path).num_edges == 2


def test_gzip_input(tmp_path):
    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as f:
        f.write("0 1\n1 2\n")
    assert read_edgelist(path).num_edges == 2


def test_directed_input_made_undirected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0\n")  # both directions of one edge
    g = read_edgelist(path)
    assert g.num_edges == 1


def test_sparse_ids_recoded(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1000000 2000000\n")
    g = read_edgelist(path)
    assert g.num_vertices == 2


def test_recode_false_keeps_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 5\n")
    g = read_edgelist(path, recode=False)
    assert g.num_vertices == 6


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\nnot numbers\n")
    with pytest.raises(GraphFormatError):
        read_edgelist(path)


def test_single_column_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("42\n")
    with pytest.raises(GraphFormatError):
        list(iter_edgelist_lines(path))


def test_vertex_id_beyond_int64_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n1 {2 ** 63}\n")
    with pytest.raises(GraphFormatError, match="64-bit"):
        read_edgelist(path)


def test_binary_file_raises(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n\x89PNG\r\n\x1a\n\xff\xfe\x00")
    with pytest.raises(GraphFormatError, match="UTF-8"):
        read_edgelist(path)


@pytest.mark.parametrize("damage", ["not-gzip", "truncated", "bad-crc"])
def test_corrupt_gzip_raises(tmp_path, damage):
    path = tmp_path / "g.txt.gz"
    good = gzip.compress(b"0 1\n1 2\n" * 200)
    if damage == "not-gzip":
        path.write_bytes(b"0 1\n1 2\n")
    elif damage == "truncated":
        path.write_bytes(good[: len(good) // 2])
    else:  # the CRC-32 trailer no longer matches the content
        path.write_bytes(good[:-8] + bytes(4) + good[-4:])
    with pytest.raises(GraphFormatError, match="gzip"):
        read_edgelist(path)


def test_roundtrip(tmp_path):
    g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    path = tmp_path / "out.txt"
    write_edgelist(g, path, header="test graph")
    g2 = read_edgelist(path, recode=False)
    assert g == g2


def test_roundtrip_gzip(tmp_path):
    g = CSRGraph.from_edges([(0, 1), (1, 2)])
    path = tmp_path / "out.txt.gz"
    write_edgelist(g, path)
    assert read_edgelist(path, recode=False) == g


def test_written_header_readable(tmp_path):
    g = CSRGraph.from_edges([(0, 1)])
    path = tmp_path / "out.txt"
    write_edgelist(g, path, header="line one\nline two")
    text = path.read_text()
    assert text.startswith("# line one\n# line two\n")
    assert "# vertices: 2" in text


def test_empty_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nothing\n")
    g = read_edgelist(path)
    assert g.num_vertices == 0


def test_core_numbers_preserved_by_roundtrip(tmp_path):
    from repro.cpu.bz import bz_core_numbers
    from repro.graph.generators import erdos_renyi

    g = erdos_renyi(60, 5.0, seed=9)
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    g2 = read_edgelist(path, recode=False)
    assert np.array_equal(bz_core_numbers(g), bz_core_numbers(g2))
