"""Binary model container shared by every surrogate algorithm.

Layout: magic b"PDMDMODEL1\n", u32 version, length-prefixed algorithm
tag, u32 section count, then named sections.  A section is a
length-prefixed UTF-8 name followed by a length-prefixed payload; array
payloads carry a dtype code, the shape, and raw little-endian bytes, so
a save/load round trip reproduces every coefficient bit for bit.

Format 3 writes each fact once, and a load reads every section it
holds: a missing section, one the load does not read, or a JSON section
with other keys than those listed is a DataError.  The sections:

- ``basis.modes_u``, ``basis.singular_values`` and ``basis.spec``
  (``energy_captured``);
- ``regressor.spec`` (the ``RegressorSpec`` fields) and
  ``regressor.params``, from which a load prepares the model's sites
  once; ``roi`` and ``rkoi`` add ``regressor.values``, the table their
  queries read, stored complex for a complex regressor;
- per DMD, ``reduced_op``, ``eigenvalues``, ``modes``, ``amplitudes``,
  ``proj_basis`` and ``spec`` (``dt``, ``t0``), under the prefix
  ``mono.stacked`` or, for training parameter i, ``part.member{i}``;
- ``roi.op_modes`` and ``roi.spec`` (``dt``, ``t0``); ``rkoi.spec``
  (``t0``, ``notes``);
- ``meta``, the caller's free-form metadata.

History: format 1 also held ``roi.train_residuals`` and each DMD's
``reduced_eigvecs``, which no model keeps; format 2 dropped them.  Both
stored one regressor per quantity, copies of facts the arrays fix
(lattices, ranks, ``mono.block_map``, channel counts) that a load
checked against the model, and sections no load read.  A load reads
format 3 only: an older file is a DataError that asks for a refit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .dmd import DmdModel
from .errors import DataError
from .latent import MonolithicModel, PartitionedModel
from .reduction import GlobalBasis
from .regression import FittedRegressor, RegressorSpec, Sites, prepare
from .rkoi import RkoiModel
from .roi import RoiModel

MAGIC = b"PDMDMODEL1\n"
VERSION = 3

_DTYPES = {0: "<f8", 1: "<c16", 2: "<i8"}
_DTYPE_CODES = {"f": 0, "c": 1, "i": 2}


@dataclass(frozen=True)
class ModelArchive:
    """A loaded container: the model plus its tag and metadata."""

    algorithm: str
    model: object
    metadata: dict


def _encode_array(value: np.ndarray) -> bytes:
    value = np.asarray(value)
    code = _DTYPE_CODES.get(value.dtype.kind)
    if code is None:
        raise DataError(f"cannot archive array of dtype {value.dtype}")
    value = np.ascontiguousarray(value, dtype=_DTYPES[code])
    header = struct.pack("<BB", code, value.ndim)
    dims = struct.pack(f"<{value.ndim}I", *value.shape) if value.ndim else b""
    return b"A" + header + dims + value.tobytes()


def _decode_array(payload: bytes) -> np.ndarray:
    if len(payload) < 2:
        raise DataError("truncated array header")
    code, ndim = struct.unpack_from("<BB", payload, 0)
    if code not in _DTYPES:
        raise DataError(f"unknown array dtype code {code}")
    if len(payload) < 2 + 4 * ndim:
        raise DataError("truncated array shape")
    shape = struct.unpack_from(f"<{ndim}I", payload, 2)
    data = payload[2 + 4 * ndim :]
    dtype = np.dtype(_DTYPES[code])
    if len(data) != math.prod(shape) * dtype.itemsize:
        raise DataError(
            f"array payload of {len(data)} bytes does not match shape {shape}"
        )
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


def _encode_json(value) -> bytes:
    return b"J" + json.dumps(value, sort_keys=True).encode("utf-8")


def _pack_sections(sections: dict) -> dict:
    packed = {}
    for name, value in sections.items():
        if isinstance(value, np.ndarray):
            packed[name] = _encode_array(value)
        else:
            packed[name] = _encode_json(value)
    return packed


def _take(sections: dict, name: str):
    """The named section's value, removed from ``sections`` as it is read."""
    if name not in sections:
        raise DataError(f"archive is missing section {name!r}")
    return sections.pop(name)


def _fields(sections: dict, name: str, *keys: str) -> dict:
    """The named JSON section, which must hold exactly ``keys``."""
    value = _take(sections, name)
    if not isinstance(value, dict) or sorted(value) != sorted(keys):
        held = sorted(value) if isinstance(value, dict) else value
        raise DataError(f"archive section {name!r} holds {held!r}, not the keys {sorted(keys)}")
    return value


def _decode_section(name: str, payload: bytes):
    kind, body = payload[:1], payload[1:]
    if kind == b"A":
        value = _decode_array(body)
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            raise DataError(f"archive section {name!r} holds non-finite entries")
        return value
    if kind == b"J":
        return json.loads(body.decode("utf-8"))
    raise DataError(f"unknown payload kind {kind!r} in section {name!r}")


_SPEC_KEYS = tuple(field.name for field in fields(RegressorSpec))


def _read_sites(sections: dict) -> Sites:
    spec = RegressorSpec(**_fields(sections, "regressor.spec", *_SPEC_KEYS))
    return prepare(spec, _take(sections, "regressor.params"))


def _values(regressor: FittedRegressor) -> np.ndarray:
    """The table a query reads; a complex regressor's real and imaginary
    channels as one complex table, so its dtype is the complex flag."""
    values = regressor.values
    if regressor.complex_output:
        values = values[:, : regressor.output_dim].astype(complex)
        values.imag = regressor.values[:, regressor.output_dim :]
    return values


def _read_regressor(sections: dict, sites: Sites) -> FittedRegressor:
    values = _take(sections, "regressor.values")
    rows = len(sites.powers) if sites.spec.kind == "poly" else len(sites.params)
    if values.ndim != 2 or len(values) != rows:
        raise DataError(f"regressor values of shape {values.shape} do not fit {rows} sites")
    complex_output = values.dtype.kind == "c"
    if complex_output:
        values = np.hstack([values.real, values.imag])
    return FittedRegressor(sites, values, complex_output)


def _read_basis(sections: dict) -> GlobalBasis:
    return GlobalBasis(
        _take(sections, "basis.modes_u"),
        _take(sections, "basis.singular_values"),
        float(_fields(sections, "basis.spec", "energy_captured")["energy_captured"]),
    )


def _dmd_sections(prefix: str, model: DmdModel) -> dict:
    return {
        f"{prefix}.spec": {"dt": model.dt, "t0": model.t0},
        f"{prefix}.reduced_op": model.reduced_op,
        f"{prefix}.eigenvalues": model.eigenvalues,
        f"{prefix}.modes": model.modes,
        f"{prefix}.amplitudes": model.amplitudes,
        f"{prefix}.proj_basis": model.proj_basis,
    }


def _read_dmd(prefix: str, sections: dict) -> DmdModel:
    lattice = _fields(sections, f"{prefix}.spec", "dt", "t0")
    return DmdModel(
        reduced_op=_take(sections, f"{prefix}.reduced_op"),
        eigenvalues=_take(sections, f"{prefix}.eigenvalues"),
        modes=_take(sections, f"{prefix}.modes"),
        amplitudes=_take(sections, f"{prefix}.amplitudes"),
        dt=float(lattice["dt"]),
        t0=float(lattice["t0"]),
        proj_basis=_take(sections, f"{prefix}.proj_basis"),
    )


def _roi_sections(model: RoiModel) -> dict:
    return {
        "roi.spec": {"dt": model.dt, "t0": model.t0},
        "roi.op_modes": model.op_modes,
        "regressor.values": _values(model.regressor),
    }


def _read_roi(sections: dict, basis: GlobalBasis, sites: Sites) -> RoiModel:
    lattice = _fields(sections, "roi.spec", "dt", "t0")
    return RoiModel(
        basis,
        _take(sections, "roi.op_modes"),
        _read_regressor(sections, sites),
        dt=float(lattice["dt"]),
        t0=float(lattice["t0"]),
    )


def _rkoi_sections(model: RkoiModel) -> dict:
    return {
        "rkoi.spec": {"t0": model.t0, "notes": list(model.notes)},
        "regressor.values": _values(model.regressor),
    }


def _read_rkoi(sections: dict, basis: GlobalBasis, sites: Sites) -> RkoiModel:
    meta = _fields(sections, "rkoi.spec", "t0", "notes")
    return RkoiModel(
        basis,
        _read_regressor(sections, sites),
        t0=float(meta["t0"]),
        notes=tuple(meta["notes"]),
    )


def _mono_sections(model: MonolithicModel) -> dict:
    return _dmd_sections("mono.stacked", model.stacked_dmd)


def _read_mono(sections: dict, basis: GlobalBasis, sites: Sites) -> MonolithicModel:
    return MonolithicModel(basis, _read_dmd("mono.stacked", sections), sites)


def _part_sections(model: PartitionedModel) -> dict:
    sections = {}
    for i, member in enumerate(model.members):
        sections.update(_dmd_sections(f"part.member{i}", member))
    return sections


def _read_part(sections: dict, basis: GlobalBasis, sites: Sites) -> PartitionedModel:
    members = tuple(
        _read_dmd(f"part.member{i}", sections) for i in range(len(sites.params))
    )
    return PartitionedModel(basis, members, sites)


# Section layout of each algorithm beyond the basis and the regressor's
# sites, keyed by the tag its model class carries: (model -> named
# sections, (sections, basis, sites) -> model).
_LAYOUTS = {
    RoiModel.tag: (_roi_sections, _read_roi),
    RkoiModel.tag: (_rkoi_sections, _read_rkoi),
    MonolithicModel.tag: (_mono_sections, _read_mono),
    PartitionedModel.tag: (_part_sections, _read_part),
}


def _write_prefixed(handle, data: bytes) -> None:
    handle.write(struct.pack("<I", len(data)))
    handle.write(data)


def _model_sections(tag: str, model) -> dict:
    to_sections, _ = _LAYOUTS[tag]
    basis = model.basis
    return {
        "basis.modes_u": basis.modes_u,
        "basis.singular_values": basis.singular_values,
        "basis.spec": {"energy_captured": basis.energy_captured},
        "regressor.spec": vars(model.sites.spec),
        "regressor.params": model.sites.params,
        **to_sections(model),
    }


def save_model(model, path, metadata: dict | None = None) -> None:
    """Write a model (plus optional string/number metadata) to disk; a
    path that cannot be written is a DataError."""
    tag = getattr(model, "tag", None)
    if tag not in _LAYOUTS:
        raise DataError(f"cannot archive object of type {type(model).__name__}")
    sections = _pack_sections(_model_sections(tag, model))
    sections["meta"] = _encode_json(dict(metadata or {}))
    try:
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", VERSION))
            _write_prefixed(handle, tag.encode("utf-8"))
            handle.write(struct.pack("<I", len(sections)))
            for name in sorted(sections):
                _write_prefixed(handle, name.encode("utf-8"))
                _write_prefixed(handle, sections[name])
    except OSError as exc:
        raise DataError(f"cannot write model to {path}: {exc}") from exc


class _Cursor:
    """Sequential reads from the bytes of an archive file."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.offset = 0

    def take(self, length: int, what: str) -> bytes:
        if length > len(self.raw) - self.offset:
            raise DataError(f"truncated archive while reading {what}")
        self.offset += length
        return self.raw[self.offset - length : self.offset]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def prefixed(self, what: str) -> bytes:
        return self.take(self.u32(what), what)


def load_model(path) -> ModelArchive:
    """Read a model container; inverse of save_model.  A file that is
    not a well-formed archive is a DataError."""
    try:
        with open(path, "rb") as handle:
            cursor = _Cursor(handle.read())
    except OSError as exc:
        raise DataError(f"cannot read model from {path}: {exc}") from exc
    if cursor.raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a model archive")
    cursor.offset = len(MAGIC)
    version = cursor.u32("version")
    if version != VERSION:
        raise DataError(
            f"{path}: archive format {version} is not read by this pdmd version, "
            f"which reads format {VERSION} only; refit the model with pdmd fit"
        )
    try:
        tag = cursor.prefixed("algorithm tag").decode("utf-8")
        sections = {}
        for _ in range(cursor.u32("section count")):
            name = cursor.prefixed("section name").decode("utf-8")
            if name in sections:
                raise DataError(f"duplicate archive section {name!r}")
            sections[name] = _decode_section(name, cursor.prefixed(f"section {name!r}"))
        if cursor.offset != len(cursor.raw):
            raise DataError("trailing bytes after the last archive section")
        if tag not in _LAYOUTS:
            raise DataError(f"unknown algorithm tag {tag!r}")
        _, from_sections = _LAYOUTS[tag]
        model = from_sections(sections, _read_basis(sections), _read_sites(sections))
        metadata = _take(sections, "meta")
        if sections:
            raise DataError(
                f"archive section {min(sections)!r} is not read by a format-{VERSION} "
                f"{tag} model"
            )
    except (LookupError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        # undecodable UTF-8 or JSON, mistyped values, JSON where an array belongs
        raise DataError(f"malformed archive {path}: {exc!r}") from exc
    return ModelArchive(tag, model, metadata)
