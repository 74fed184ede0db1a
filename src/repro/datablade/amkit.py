"""The access-method kit: what every blade's purpose functions share.

The paper's conclusion is that one generic set of purpose functions,
extended through operator classes, beats writing each index again.
This module is that generic part for the repo's five blades.  A blade
subclasses :class:`AccessMethodKit`, names its purpose-function prefix,
its blobs and its meta-page magic, and writes only what is specific to
its structure:

* ``_build`` -- build or reopen the structure over the index's buffer
  pools (one pool per blob);
* ``_key`` or its own insert/delete, ``_leaf`` (one simple predicate of
  the qualification) and ``_scan`` (the cursor over the DNF branches);
* its cost function (``bt_scancost`` for prefix ``bt``) and, where they
  differ from the defaults, ``_validate``, stats, ``_verify``,
  ``_save`` and ``_attach_obs``.

The kit owns the rest: the create/open/close/drop lifecycle over one or
more named smart blobs, the metadata row, the shared meta page, the
handle cache, per-index ``WITH`` settings, the exports table and the
generated registration script.  Lifecycle steps are reported through
``_step`` under the paper's Table 5 numbering; only the GR-tree blade
traces them.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datablade import bladesmith
from repro.datablade.blob import BladeBlob
from repro.datablade.qualification import to_dnf
from repro.server.access_method import (
    PURPOSE_SLOTS,
    IndexDescriptor,
    RowReference,
    ScanDescriptor,
)
from repro.server.errors import AccessMethodError
from repro.storage.buffer import BufferPool
from repro.storage.sbspace import LargeObjectHandle, OpenMode, SbspaceError

#: The meta page (page 0 of the first blob): magic, root page, height,
#: entry count.  Each blade keeps its own four-byte magic.
META = struct.Struct("<4sqqq")


class AccessMethodKit:
    """Base class of the blades: the generic purpose functions."""

    #: Purpose-function prefix: ``bt`` exports ``bt_create`` ... ``bt_check``.
    PREFIX = ""
    LIBRARY_PATH = ""
    AM_NAME = ""
    OPCLASS_NAME = ""
    METADATA_TABLE = ""
    #: One smart blob per name; its handle lives in ``<name>handle``.
    BLOBS: Tuple[str, ...] = ("blob",)
    METADATA_COLUMNS: Tuple[Tuple[str, str], ...] = (
        ("indexname", "LVARCHAR"),
        ("blobhandle", "LVARCHAR"),
    )
    #: Magic of the kit-managed meta page; ``None`` when the structure
    #: keeps its own.
    META_MAGIC: Optional[bytes] = None
    #: Keep the structures of a closed index for the next open.
    handle_cache = True

    def __init_subclass__(cls, **kwargs) -> None:
        """Name the generic ``am_*`` purpose functions after the blade's
        prefix wherever the blade does not define its own."""
        super().__init_subclass__(**kwargs)
        if cls.PREFIX:
            for slot in PURPOSE_SLOTS:
                symbol = cls.PREFIX + slot[2:]
                if not hasattr(cls, symbol):
                    setattr(cls, symbol, getattr(cls, slot))

    def __init__(self, server) -> None:
        self.server = server
        self._handles: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Hooks a blade overrides
    # ------------------------------------------------------------------

    def _step(self, slot: str, step: int, text: str) -> None:
        """One traced step of a purpose function (Table 5)."""

    def _validate(self, td: IndexDescriptor) -> None:
        if len(td.columns) != 1:
            raise AccessMethodError(f"{self.AM_NAME} indexes exactly one column")

    def _build(self, td: IndexDescriptor, pools, row) -> Dict[str, Any]:
        """Create (``row is None``) or reopen the structure over *pools*;
        returns the attachment, which must hold the ``tree``."""
        raise NotImplementedError

    def _attach_obs(self, td: IndexDescriptor) -> None:
        """Register the index's collectors; runs on every open."""

    def _save(self, td: IndexDescriptor) -> None:
        """Persist the structure's header before the pools flush."""
        if self.META_MAGIC and td.user_data["blobs"][0].is_writable:
            tree = td.user_data["tree"]
            td.user_data["pools"][0].write(
                0, META.pack(self.META_MAGIC, tree.root_id, tree.height, tree.size)
            )

    def _forget(self, td: IndexDescriptor) -> None:
        """Drop volatile per-index state (create and drop)."""
        self._handles.pop(td.index_name.lower(), None)

    def _key(self, td: IndexDescriptor, value: Any) -> Any:
        return value

    def _leaf(self, td: IndexDescriptor, qual):
        raise NotImplementedError

    def _scan(self, td: IndexDescriptor, branches):
        raise NotImplementedError

    def _verify(self, td: IndexDescriptor) -> None:
        self._tree(td).check()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _purpose(self, slot: str):
        return getattr(self, f"{self.PREFIX}_{slot}")

    def _setting(self, td: IndexDescriptor, name: str, default: Any) -> Any:
        """A ``CREATE INDEX ... WITH (name = ...)`` parameter wins over
        *default*, the server-wide setting."""
        return (td.parameters or {}).get(name, default)

    def _flag(self, td: IndexDescriptor, name: str, default: Any) -> bool:
        value = self._setting(td, name, default)
        if isinstance(value, (bool, int, float)):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "on", "yes", "1"):
                return True
            if lowered in ("false", "off", "no", "0"):
                return False
        raise AccessMethodError(f"{name} expects a boolean, got {value!r}")

    def _metadata_table(self):
        return self.server.catalog.get_table(self.METADATA_TABLE)

    def _metadata_row(self, index_name: str) -> Tuple[int, Dict[str, Any]]:
        for rowid, row in self._metadata_table().scan():
            if row["indexname"] == index_name:
                return rowid, row
        raise AccessMethodError(
            f"no {self.METADATA_TABLE} record for index {index_name}"
        )

    def _meta(self, td: IndexDescriptor, pool: BufferPool, row) -> Dict[str, int]:
        """Allocate the meta page at create; read it back at open."""
        if row is None:
            pool.allocate()
            return {}
        magic, root_id, height, size = META.unpack_from(pool.read(0), 0)
        if magic != self.META_MAGIC:
            raise AccessMethodError(f"index {td.index_name} storage is corrupt")
        return {"root_id": root_id, "height": height, "size": size}

    def _tree(self, td: IndexDescriptor):
        tree = td.user_data.get("tree")
        if tree is None:
            raise AccessMethodError(
                f"index {td.index_name} is not open "
                f"({self.PREFIX}_open was not called)"
            )
        return tree

    def _writable(self, td: IndexDescriptor) -> None:
        """Upgrade every blob to write before the first modification."""
        for blob in td.user_data["blobs"]:
            blob.ensure_writable()

    def _open_blobs(self, td: IndexDescriptor, blobs, mode: OpenMode) -> None:
        opened: List[BladeBlob] = []
        try:
            for blob in blobs:
                blob.open(td.session, mode)
                opened.append(blob)
        except BaseException:
            # Cleanup-then-reraise: BaseException so a SimulatedCrash
            # still releases the half-opened blobs, then propagates.
            for blob in opened:
                blob.close()
            raise

    def _attach(self, td: IndexDescriptor, blobs, row) -> None:
        capacity = int(
            self._setting(td, "buffer_capacity", self.server.buffer_capacity)
        )
        faults = self.server.faults
        pools = [
            BufferPool(blob.page_store(), capacity=capacity, faults=faults)
            for blob in blobs
        ]
        td.user_data.update(self._build(td, pools, row))
        td.user_data.update(
            blobs=blobs, pools=pools, epoch=self.server.storage_epoch
        )
        self._attach_obs(td)

    def _revive(self, td: IndexDescriptor) -> bool:
        """Reattach the structures cached by the last close, if that is
        still safe: every blob must be the same live object in its
        sbspace (recovery and DROP replace it) and storage must not have
        been rewritten underneath the pools (rollback restores pages
        directly, bumping ``server.storage_epoch``)."""
        key = td.index_name.lower()
        entry = self._handles.get(key)
        if entry is None:
            return False
        live = entry["epoch"] == self.server.storage_epoch
        for blob, pool in zip(entry["blobs"], entry["pools"]):
            try:
                live = live and blob.page_store() is pool.store
            except SbspaceError:
                live = False  # BLOB dropped or sbspace re-initialised
            # ``SET FAULT`` may have created the registry since the close.
            pool.faults = self.server.faults
        if not live:
            del self._handles[key]
            return False
        self._step("open", 2, "reuse cached Tree object")
        self._open_blobs(td, entry["blobs"], OpenMode.READ)
        self._step("open", 4, "opened the BLOB")
        td.user_data.update(entry)
        self._attach_obs(td)
        return True

    # ------------------------------------------------------------------
    # Generic purpose functions
    # ------------------------------------------------------------------

    def am_create(self, td: IndexDescriptor, **columns: Any) -> int:
        self._validate(td)
        # A cached handle under the same name (dropped + recreated
        # index) must never shadow the fresh blobs.
        self._forget(td)
        space = self.server.get_sbspace(td.space_name)
        blobs = []
        for name in self.BLOBS:
            blob = BladeBlob.create(space)
            self._step("create", 5, f"created BLOB {blob.handle}")
            columns[f"{name}handle"] = blob.handle.value
            blobs.append(blob)
        self._metadata_table().insert_row({"indexname": td.index_name, **columns})
        self._step("create", 6, f"inserted record into {self.METADATA_TABLE}")
        self._open_blobs(td, blobs, OpenMode.WRITE)
        self._step("create", 7, "opened the BLOB")
        self._attach(td, blobs, None)
        return 0

    def am_open(self, td: IndexDescriptor) -> int:
        if "blobs" in td.user_data:
            if td.user_data["epoch"] == self.server.storage_epoch:
                self._step(
                    "open", 1, f"invoked right after {self.PREFIX}_create; exit"
                )
                return 0
            # The attachment survived an abnormal unwind -- a crash or an
            # error that interrupted the close -- and storage has since
            # been rewritten underneath it (rollback or WAL recovery
            # bumps the epoch).  Reusing it would resurrect rolled-back
            # entries from its dirty pools.
            self._step("open", 1, "discard stale Tree attachment")
            td.user_data.clear()
        if self.handle_cache and self._revive(td):
            return 0
        self._step("open", 2, "create Tree object")
        _, row = self._metadata_row(td.index_name)
        space = self.server.get_sbspace(td.space_name)
        blobs = []
        for name in self.BLOBS:
            handle = row[f"{name}handle"]
            self._step("open", 3, f"got BLOB handle {handle[:20]}...")
            blobs.append(BladeBlob(space, LargeObjectHandle(handle)))
        self._open_blobs(td, blobs, OpenMode.READ)
        self._step("open", 4, "opened the BLOB")
        self._attach(td, blobs, row)
        return 0

    def am_close(self, td: IndexDescriptor) -> int:
        self._step("close", 1, "get Tree object pointer")
        data = td.user_data
        if "blobs" not in data:
            raise AccessMethodError(f"index {td.index_name} has no open BLOB")
        self._save(td)
        for pool in data["pools"]:
            pool.flush()  # write dirty index pages into the blobs
        for blob in data["blobs"]:
            blob.close()
        self._step("close", 2, "closed the BLOB")
        if self.handle_cache:
            self._handles[td.index_name.lower()] = {
                **data, "epoch": self.server.storage_epoch
            }
            self._step("close", 3, "cached Tree object for reuse")
        else:
            self._step("close", 3, "deleted Tree object")
        data.clear()
        return 0

    def am_drop(self, td: IndexDescriptor) -> int:
        self._step("drop", 1, "get Tree object pointer")
        if "blobs" not in td.user_data:
            # Dropping a closed index: open the blobs to drop them.
            self._purpose("open")(td)
        for blob in td.user_data["blobs"]:
            self._step("drop", 2, f"drop BLOB {blob.handle}")
            blob.drop()
        self._step("drop", 3, "delete Tree object")
        td.user_data.clear()
        self._forget(td)
        rowid, _ = self._metadata_row(td.index_name)
        self._metadata_table().delete_row(rowid)
        self._step("drop", 4, f"deleted record from {self.METADATA_TABLE}")
        return 0

    def am_beginscan(self, sd: ScanDescriptor) -> int:
        if sd.qualification is None:
            raise AccessMethodError(f"{self.PREFIX}_beginscan needs a qualification")
        td = sd.index
        sd.user_data["scan"] = self._scan(td, self._branches(td, sd.qualification))
        return 0

    def _branches(self, td: IndexDescriptor, qual) -> List[list]:
        return to_dnf(qual, lambda leaf: self._leaf(td, leaf))

    def am_rescan(self, sd: ScanDescriptor) -> int:
        sd.user_data["scan"].reset()
        return 0

    def am_getnext(self, sd: ScanDescriptor) -> Optional[RowReference]:
        return sd.user_data["scan"].next()

    def am_endscan(self, sd: ScanDescriptor) -> int:
        sd.user_data.pop("scan", None)
        return 0

    def am_insert(self, td: IndexDescriptor, newrow, newrowid: int) -> int:
        self._writable(td)
        self._tree(td).insert(self._key(td, newrow[0]), newrowid)
        return 0

    def am_delete(self, td: IndexDescriptor, oldrow, oldrowid: int) -> int:
        self._writable(td)
        if not self._tree(td).delete(self._key(td, oldrow[0]), oldrowid):
            raise AccessMethodError(
                f"index {td.index_name} has no entry for rowid {oldrowid}"
            )
        return 0

    def am_update(self, td, oldrow, oldrowid: int, newrow, newrowid: int) -> int:
        self._purpose("delete")(td, oldrow, oldrowid)
        self._purpose("insert")(td, newrow, newrowid)
        return 0

    def am_stats(self, td: IndexDescriptor) -> Dict[str, float]:
        return self._tree(td).stats()

    def am_check(self, td: IndexDescriptor) -> int:
        try:
            self._verify(td)
        except AssertionError as exc:
            raise AccessMethodError(f"index {td.index_name} corrupt: {exc}") from exc
        return 0

    # ------------------------------------------------------------------
    # Registration (Steps 2-4 and the metadata table)
    # ------------------------------------------------------------------

    def exports(self) -> Dict[str, Any]:
        """The purpose-function symbols of the blade's shared library."""
        return {
            symbol: getattr(self, symbol)
            for _, symbol in bladesmith.purpose_function_symbols(self.PREFIX)
        }

    def install(
        self,
        udrs: Iterable[Tuple[str, Sequence[str], str, str, Any]],
        opclasses=None,
        commutators: Optional[Dict[str, str]] = None,
    ) -> None:
        """Export the purpose functions and *udrs* -- ``(name, argument
        types, return type, symbol, callable)`` -- from the shared
        library, run the generated registration script, and record the
        commutator hints on the overloads in *udrs*.  Registration DDL
        is node-local (replicas install their own blades), so it is
        never logged for replication."""
        udrs = list(udrs)
        exports = self.exports()
        exports.update((symbol, fn) for _, _, _, symbol, fn in udrs)
        self.server.library.register_module(self.LIBRARY_PATH, exports)
        script = bladesmith.generate_register_script(
            self.LIBRARY_PATH,
            self.AM_NAME,
            self.OPCLASS_NAME,
            metadata_table=self.METADATA_TABLE,
            prefix=self.PREFIX,
            udrs=[udr[:4] for udr in udrs],
            opclasses=opclasses,
            metadata_columns=self.METADATA_COLUMNS,
        )
        with self.server.provisioning():
            self.server.run_script(script)
        commutators = dict(commutators or {})
        for name, arg_types, *_ in udrs:
            if name in commutators:
                self.server.catalog.routines.set_commutator(
                    name, commutators[name], arg_types
                )
        unknown = set(commutators) - {udr[0] for udr in udrs}
        if unknown:
            raise ValueError(
                f"commutator hints for routines {self.AM_NAME} does not "
                f"register: {sorted(unknown)}"
            )
