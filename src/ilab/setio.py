"""Set-file formats shared by the circle and sets subcommands.

Two interchangeable on-disk representations of a subset of [1, N]:

* plain: one integer per line (comments with '#'), N supplied by the caller;
* DFSET1: a run-length bitmap with the header line "DFSET1 <N>" followed by
  one "<start> <length>" pair per line for each maximal run of consecutive
  members.

DFSET1 runs are written and read as whole numpy arrays: one sort and one
diff find the runs, one format call writes them, and np.loadtxt reads them
back as decimal int64 pairs.  A run's length must be at least 1, and the
runs of one file may hold at most SET_FILE_LIMIT members in total; the total
is checked before any run is expanded.
"""

from __future__ import annotations

import io
import re
import warnings
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .padic import ResourceLimit

MAGIC = "DFSET1"
SET_FILE_LIMIT = 2**24
# the line breaks of str.splitlines besides "\n" (Path.read_text turns "\r" into "\n")
_OTHER_BREAKS = re.compile("[\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a '#' after a field: not a comment line, so the run is malformed
_INLINE_HASH = re.compile(r"^[^\S\n]*[^#\s][^\n]*#[^\n]*", re.M)


def sorted_distinct(values: Iterable[int]) -> np.ndarray:
    """The distinct values as a new sorted int64 array; an int64 ndarray is sorted in
    place (np.unique takes seconds on the millions of members a set file may hold)."""
    a = values if isinstance(values, np.ndarray) else np.fromiter(values, np.int64)
    a = a.astype(np.int64, copy=False)
    a.sort()
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def runs_of(members: Iterable[int]) -> list[tuple[int, int]]:
    """(start, length) of each maximal run of consecutive members, in order."""
    m = sorted_distinct(members)
    first = np.flatnonzero(np.diff(m, prepend=m[:1] - 2) != 1)
    return list(zip(m[first].tolist(), np.diff(first, append=len(m)).tolist()))


def save_dfset(path: Union[str, Path], members: Iterable[int], N: int) -> None:
    runs = runs_of(members)
    pairs = tuple(chain.from_iterable(runs))
    Path(path).write_text(f"{MAGIC} {N}\n" + "%d %d\n" * len(runs) % pairs)


def _dfset_members(body: str) -> list[int]:
    """Sorted distinct members of the "<start> <length>" lines of a DFSET1 body."""
    bad = _INLINE_HASH.search(body) if "#" in body else None
    if bad:
        raise ValueError(f"malformed DFSET1 run: {bad.group().strip()!r}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            runs = np.loadtxt(io.StringIO(body), dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"malformed DFSET1 run: {exc}") from None
    if not runs.size:
        return []
    if runs.shape[1] != 2:
        raise ValueError(f"malformed DFSET1 run: {runs.shape[1]} fields, expected <start> <length>")
    starts, lengths = runs[:, 0], runs[:, 1]
    # each run needs a length >= 1 and its last member inside int64
    bad = np.flatnonzero((lengths < 1) | (starts > np.iinfo(np.int64).max - lengths + 1))
    if len(bad):
        s, n = runs[bad[0]].tolist()
        why = "length < 1" if n < 1 else "ends past int64"
        raise ValueError(f"malformed DFSET1 run: '{s} {n}' ({why})")
    if lengths.max() > SET_FILE_LIMIT or lengths.sum() > SET_FILE_LIMIT:
        raise ResourceLimit(
            f"DFSET1 runs capped at {SET_FILE_LIMIT} members in total, "
            f"got {sum(lengths.tolist())}"
        )
    # member j of the expansion is j plus its run's start less the members before the run
    members = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    members += np.arange(len(members))
    return sorted_distinct(members).tolist()


def load_set(path: Union[str, Path]) -> tuple[list[int], Optional[int]]:
    """Returns (sorted members, N or None when the plain format carries no N).

    Blank lines and lines starting with '#' are skipped; the first other
    line decides the format.
    """
    text = Path(path).read_text()
    if not text.isascii() or any(c in text for c in "\v\f\x1c\x1d\x1e"):
        text = _OTHER_BREAKS.sub("\n", text)
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        head = text[pos:end].strip()
        if head and not head.startswith("#"):
            break
        pos = end
    else:
        return [], None
    if head.startswith(MAGIC):
        fields = head.split()
        if len(fields) != 2:
            raise ValueError("malformed DFSET1 header")
        N = int(fields[1])
        return _dfset_members(text[end:]), N
    lines = (ln.strip() for ln in text[pos:].splitlines())
    return sorted({int(ln) for ln in lines if ln and not ln.startswith("#")}), None
