"""Struct-of-arrays backing store for cache state.

The object cache model keeps one Python object per line, and every access
walks those objects through property descriptors and allocates result
dataclasses.  :class:`LineArrays` replaces that with parallel vectors -- one
plain Python list per field (tag, MESI/L3 state code, valid, dirty, LRU
stamp, access/refresh timestamps, WB(n, m) count, directory entry) indexed
by the global line number ``set_idx * associativity + way``.  Plain lists
are deliberate: CPython indexes a list roughly 3x faster than a numpy array
for the single-element reads that dominate the access path, while slice
reads (``valid[a:b]``, ``sum``, ``min``) still run at C speed for the
vectorized refresh-group sweeps.

Two thin view classes, :class:`ArrayCacheLine` and
:class:`ArrayDirectoryLine`, expose one line of the arrays through the
exact :class:`~repro.mem.line.CacheLine` / ``DirectoryLine`` interface
(they are subclasses, so ``isinstance`` checks and the inherited
``fill`` / ``touch`` / ``mark_dirty`` state machines keep working).  A
view is materialised the first time its line is asked for
(:class:`LazyViews`) and then lives as long as the cache, so holding one
across mutations always reads live state; the staged fast path never
touches them, and building a cache allocates no per-line object.

Invariants: ``valid[i]`` and ``dirty[i]`` are derived caches of the state
code (MESI for private caches, L3 state for directory caches) and are kept
in sync by every mutator -- the staged methods on :class:`~repro.mem.cache.Cache`
and the property setters below are the only code allowed to write the
state vectors.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.mem.line import (
    CacheLine,
    DirectoryLine,
    L3_CODES,
    L3_DIRTY,
    L3_STATES,
    MESI_CODES,
    MESI_MODIFIED,
    MESI_STATES,
    MESIState,
    L3State,
)

# HAVE_NUMPY says whether ``backing="numpy"`` is available; numpy itself
# loads when the first numpy-backed vectors are built.
from repro.utils.optional import HAVE_NUMPY, import_numpy


def last_occurrence_plan(indices, cycles, counts, tick):
    """Plan a bulk run landing: reduce a touch run to each line's last touch.

    ``(indices, cycles, counts)`` is a coalesced touch run in program order
    (see :meth:`repro.mem.cache.Cache.access_run`).  Sequential landing
    overwrites a line's timestamps on every entry, so only the *last*
    occurrence of each line index is observable; its LRU stamp is the
    cumulative tick after that entry.  Returns ``(idx, cyc, stamp,
    new_tick)`` numpy arrays covering exactly those last occurrences --
    free of duplicate indices, so they can land as plain fancy-indexed
    stores with no ordering assumptions -- plus the advanced tick.

    Requires numpy (the caller gates on :data:`HAVE_NUMPY` by only binding
    the bulk landing on the numpy backend).
    """
    np = import_numpy()
    idx = np.asarray(indices, dtype=np.int64)
    cyc = np.asarray(cycles, dtype=np.int64)
    stamps = tick + np.cumsum(np.asarray(counts, dtype=np.int64))
    new_tick = int(stamps[-1])
    # np.unique on the reversed indices keeps each value's first position
    # there, i.e. its last occurrence in program order.
    _, first_rev = np.unique(idx[::-1], return_index=True)
    keep = idx.size - 1 - first_rev
    return idx[keep], cyc[keep], stamps[keep], new_tick


class LineArrays:
    """Parallel per-field vectors for every line of one cache instance.

    ``tag == -1``, ``refresh_count == -1`` and ``owner == -1`` encode the
    object model's ``None``.  Directory-only vectors (``l3_state``,
    ``sharers``, ``owner``) are ``None`` for private caches.  ``sharers``
    is always a plain list (only the integer vectors have a numpy form)
    whose slots hold a Python set, or ``None`` for an empty sharer set not
    yet asked for -- :attr:`ArrayDirectoryLine.sharers` creates the set on
    first read.

    ``backing`` selects the vector representation: ``"list"`` (the default)
    keeps plain Python lists, whose single-element reads dominate the
    per-access staged path and are ~3x faster than numpy's; ``"numpy"``
    stores the integer fields as int64 ndarrays so the periodic group
    sweeps and the Refrint interrupt scan become masked compares and bulk
    timestamp rewrites -- worthwhile once refresh work on paper-sized
    geometries outweighs the per-access penalty.  Both backings hold
    exactly the same values (int64 covers every cycle count and tag the
    simulator can produce), so simulation results are byte-identical.
    """

    __slots__ = (
        "num_lines", "directory", "backing",
        "tag", "state", "valid", "dirty",
        "last_access_cycle", "last_refresh_cycle",
        "refresh_count", "lru_stamp",
        "l3_state", "sharers", "owner",
    )

    def __init__(
        self, num_lines: int, directory: bool = False, backing: str = "list"
    ) -> None:
        if num_lines < 1:
            raise ValueError("a cache needs at least one line")
        if backing not in ("list", "numpy"):
            raise ValueError(f"unknown array backing {backing!r}")
        if backing == "numpy" and not HAVE_NUMPY:
            raise RuntimeError(
                "backing='numpy' requested but numpy is not installed; "
                "use the default list backing instead"
            )
        n = num_lines
        self.num_lines = n
        self.directory = directory
        self.backing = backing
        if backing == "numpy":
            np = import_numpy()
            self.tag = np.full(n, -1, dtype=np.int64)
            self.state = np.zeros(n, dtype=np.int64)
            self.valid = np.zeros(n, dtype=np.int64)
            self.dirty = np.zeros(n, dtype=np.int64)
            self.last_access_cycle = np.zeros(n, dtype=np.int64)
            self.last_refresh_cycle = np.zeros(n, dtype=np.int64)
            self.refresh_count = np.full(n, -1, dtype=np.int64)
            self.lru_stamp = np.zeros(n, dtype=np.int64)
        else:
            self.tag: List[int] = [-1] * n
            self.state: List[int] = [0] * n
            self.valid: List[int] = [0] * n
            self.dirty: List[int] = [0] * n
            self.last_access_cycle: List[int] = [0] * n
            self.last_refresh_cycle: List[int] = [0] * n
            self.refresh_count: List[int] = [-1] * n
            self.lru_stamp: List[int] = [0] * n
        if directory:
            if backing == "numpy":
                self.l3_state = np.zeros(n, dtype=np.int64)
                self.owner = np.full(n, -1, dtype=np.int64)
            else:
                self.l3_state: Optional[List[int]] = [0] * n
                self.owner: Optional[List[int]] = [-1] * n
            self.sharers: Optional[List[Optional[Set[int]]]] = [None] * n
        else:
            self.l3_state = None
            self.sharers = None
            self.owner = None


class LazyViews(dict):
    """Line index -> persistent view, materialised on first lookup.

    Array-backed caches index their views through this map instead of a
    list built up front, so constructing a cache allocates no per-line
    object.  A view, once built, stays in the map (holders keep seeing the
    same object); readers must index it, never iterate it.
    """

    __slots__ = ("_arrays", "_view_cls")

    def __init__(self, arrays: LineArrays, view_cls: type) -> None:
        super().__init__()
        self._arrays = arrays
        self._view_cls = view_cls

    def __missing__(self, index: int) -> CacheLine:
        if not 0 <= index < self._arrays.num_lines:
            raise IndexError(f"line index {index} out of range")
        view = self[index] = self._view_cls(self._arrays, index)
        return view


class _ArrayLineFields:
    """Array-backed field plumbing shared by both view classes.

    A slot-less mixin so it can sit in front of either :class:`CacheLine`
    or :class:`DirectoryLine` without an instance-layout conflict; the
    concrete view classes declare the ``_arrays`` / ``_index`` slots.
    """

    __slots__ = ()

    def __init__(self, arrays: LineArrays, index: int) -> None:
        # Deliberately does not call super().__init__: the defaults already
        # live in the freshly built arrays.
        self._arrays = arrays
        self._index = index

    @property
    def index(self) -> int:
        """Global line number of this view in its cache."""
        return self._index

    # -- scalar fields -------------------------------------------------------

    @property
    def tag(self) -> Optional[int]:
        # int() keeps numpy scalars from leaking into reconstructed block
        # addresses (a no-op for the list backing).
        value = self._arrays.tag[self._index]
        return None if value < 0 else int(value)

    @tag.setter
    def tag(self, value: Optional[int]) -> None:
        self._arrays.tag[self._index] = -1 if value is None else value

    @property
    def state(self) -> MESIState:
        return MESI_STATES[self._arrays.state[self._index]]

    @state.setter
    def state(self, value: MESIState) -> None:
        arrays = self._arrays
        code = MESI_CODES[value]
        arrays.state[self._index] = code
        arrays.valid[self._index] = 1 if code else 0
        arrays.dirty[self._index] = 1 if code == MESI_MODIFIED else 0

    @property
    def last_access_cycle(self) -> int:
        return self._arrays.last_access_cycle[self._index]

    @last_access_cycle.setter
    def last_access_cycle(self, value: int) -> None:
        self._arrays.last_access_cycle[self._index] = value

    @property
    def last_refresh_cycle(self) -> int:
        return self._arrays.last_refresh_cycle[self._index]

    @last_refresh_cycle.setter
    def last_refresh_cycle(self, value: int) -> None:
        self._arrays.last_refresh_cycle[self._index] = value

    @property
    def refresh_count(self) -> Optional[int]:
        value = self._arrays.refresh_count[self._index]
        return None if value < 0 else int(value)

    @refresh_count.setter
    def refresh_count(self, value: Optional[int]) -> None:
        self._arrays.refresh_count[self._index] = -1 if value is None else value

    @property
    def lru_stamp(self) -> int:
        return self._arrays.lru_stamp[self._index]

    @lru_stamp.setter
    def lru_stamp(self, value: int) -> None:
        self._arrays.lru_stamp[self._index] = value

    # -- predicates read the derived vectors directly ------------------------

    @property
    def valid(self) -> bool:
        return bool(self._arrays.valid[self._index])

    @property
    def dirty(self) -> bool:
        return bool(self._arrays.dirty[self._index])


class ArrayCacheLine(_ArrayLineFields, CacheLine):
    """One private-cache line viewed through :class:`LineArrays`.

    Subclassing :class:`CacheLine` keeps every inherited state-machine
    method (``fill``, ``touch``, ``refresh``, ``invalidate``,
    ``is_expired``) working unchanged: they read and write through the
    mixin's properties, which route to the arrays.  The parent's slot
    storage is shadowed and unused.
    """

    __slots__ = ("_arrays", "_index")


class ArrayDirectoryLine(_ArrayLineFields, DirectoryLine):
    """One L3 directory line viewed through :class:`LineArrays`.

    The MRO picks up the mixin's array-backed fields first and
    :class:`DirectoryLine`'s behaviour (``fill`` / ``invalidate`` /
    ``mark_dirty`` / ``mark_clean``) second; ``valid`` and ``dirty`` come
    from the arrays, which for a directory store are maintained from the L3
    state setter below.
    """

    __slots__ = ("_arrays", "_index")

    # For directory lines the MESI field is bookkeeping only; valid/dirty
    # derive from the L3 state, so this setter must not touch them.
    @property
    def state(self) -> MESIState:
        return MESI_STATES[self._arrays.state[self._index]]

    @state.setter
    def state(self, value: MESIState) -> None:
        self._arrays.state[self._index] = MESI_CODES[value]

    @property
    def l3_state(self) -> L3State:
        return L3_STATES[self._arrays.l3_state[self._index]]

    @l3_state.setter
    def l3_state(self, value: L3State) -> None:
        arrays = self._arrays
        code = L3_CODES[value]
        arrays.l3_state[self._index] = code
        arrays.valid[self._index] = 1 if code else 0
        arrays.dirty[self._index] = 1 if code == L3_DIRTY else 0

    @property
    def sharers(self) -> Set[int]:
        sharers = self._arrays.sharers
        value = sharers[self._index]
        if value is None:
            value = sharers[self._index] = set()
        return value

    @sharers.setter
    def sharers(self, value: Set[int]) -> None:
        self._arrays.sharers[self._index] = value

    @property
    def owner(self) -> Optional[int]:
        value = self._arrays.owner[self._index]
        return None if value < 0 else int(value)

    @owner.setter
    def owner(self, value: Optional[int]) -> None:
        self._arrays.owner[self._index] = -1 if value is None else value
