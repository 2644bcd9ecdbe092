"""Edge-list input/output.

Supports the plain-text formats the paper's datasets ship in:

* SNAP-style edge lists — one ``u<whitespace>v`` pair per line, ``#``
  comment lines, optionally gzip-compressed;
* KONECT-style lists — ``%`` comment lines, optional edge weights
  (ignored);
* our own ``write_edgelist`` output, which round-trips losslessly.

Directed inputs are made undirected by ignoring edge direction, exactly
as the paper does for its directed datasets ("Some graphs are directed
and we make them undirected by ignoring the edge direction").
"""

from __future__ import annotations

import gzip
import io
import zlib
from pathlib import Path
from typing import IO, Iterator, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.recode import recode_edge_array

__all__ = ["read_edgelist", "write_edgelist", "iter_edgelist_lines"]

PathLike = Union[str, Path]
_COMMENT_PREFIXES = ("#", "%", "//")


def _open_text(path: PathLike) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _read_lines(path: PathLike) -> Iterator[str]:
    """The file's text lines; bytes that are not UTF-8 text and a
    corrupt or truncated gzip stream raise :class:`GraphFormatError`."""
    try:
        with _open_text(path) as handle:
            yield from handle
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not a UTF-8 text file") from exc
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise GraphFormatError(f"{path}: corrupt gzip file: {exc}") from exc


def iter_edgelist_lines(path: PathLike) -> Iterator[Tuple[int, int]]:
    """Yield ``(u, v)`` integer pairs from an edge-list file.

    Comment lines and blank lines are skipped; extra columns (weights,
    timestamps) are ignored.  Raises :class:`GraphFormatError` on a line
    that does not start with two integers, and on a file that is not
    text or not a valid gzip stream.
    """
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two columns, got {line!r}"
            )
        try:
            yield int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer vertex ID in {line!r}"
            ) from exc


def read_edgelist(path: PathLike, recode: bool = True) -> CSRGraph:
    """Load an undirected :class:`CSRGraph` from an edge-list file.

    Args:
        path: text or ``.gz`` file in SNAP/KONECT edge-list format.
        recode: densify vertex IDs (recommended; the CSR layout needs
            dense IDs, and real SNAP files often have gaps).  With
            ``recode=False`` the original integer IDs are kept and must
            already be dense and non-negative.

    Raises:
        GraphFormatError: a line without two integer IDs, an ID outside
            the signed 64-bit range, a file that is not UTF-8 text, or
            a corrupt ``.gz`` file.
        OSError: the file cannot be opened or read.
    """
    pairs = list(iter_edgelist_lines(path))
    try:
        edges = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError as exc:
        raise GraphFormatError(
            f"{path}: vertex ID outside the signed 64-bit range"
        ) from exc
    if recode and edges.size:
        edges, _ = recode_edge_array(edges)
    return CSRGraph.from_edges(edges)


def write_edgelist(graph: CSRGraph, path: PathLike, header: str = "") -> None:
    """Write each undirected edge once as ``u\\tv`` lines.

    An optional ``header`` is emitted as ``#``-prefixed comment lines so
    the file stays readable by :func:`read_edgelist`.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as handle:
        for line in header.splitlines():
            handle.write(f"# {line}\n")
        handle.write(f"# vertices: {graph.num_vertices}\n")
        handle.write(f"# edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
