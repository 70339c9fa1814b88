"""Binary model container shared by every surrogate algorithm.

Layout: magic b"PDMDMODEL1\n", u32 version, length-prefixed algorithm
tag, u32 section count, then named sections.  A section is a
length-prefixed UTF-8 name followed by a length-prefixed payload; array
payloads carry a dtype code, the shape, and raw little-endian bytes, so
a save/load round trip reproduces every coefficient bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dmd import DmdModel
from .errors import DataError
from .latent import MonolithicModel, PartitionedModel
from .reduction import GlobalBasis
from .regression import FittedRegressor, RegressorSpec, prepare
from .rkoi import RkoiModel
from .roi import RoiModel

MAGIC = b"PDMDMODEL1\n"
VERSION = 1

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


def _section_value(sections: dict, name: str):
    if name not in sections:
        raise DataError(f"archive is missing section {name!r}")
    payload = sections[name]
    kind, body = payload[:1], payload[1:]
    if kind == b"A":
        return _decode_array(body)
    if kind == b"J":
        return json.loads(body.decode("utf-8"))
    raise DataError(f"unknown payload kind {kind!r} in section {name!r}")


# the name of the value table each kind's query reads; rbf kinds: "weights"
_VALUE_KEYS = {"linear": "table", "nearest": "table", "poly": "beta"}


def _regressor_sections(prefix: str, reg: FittedRegressor) -> dict:
    # besides the value table, v1 keeps entries written from the sites that
    # a load does not read: linear xs, rbf shape, poly degree
    sites, spec = reg.sites, reg.sites.spec
    coefficients = {_VALUE_KEYS.get(spec.kind, "weights"): reg.values}
    if spec.kind == "linear":
        coefficients["xs"] = sites.xs
    elif spec.kind == "poly":
        coefficients["degree"] = np.array(spec.degree)
    elif spec.kind != "nearest":
        coefficients["shape"] = np.array(sites.shape)
    out = {
        f"{prefix}.spec": {
            "kind": spec.kind,
            "shape": spec.shape,
            "degree": spec.degree,
            "ridge": spec.ridge,
            "extrapolation": spec.extrapolation,
            "output_dim": reg.output_dim,
            "complex_output": reg.complex_output,
            "coeff_keys": sorted(coefficients),
        },
        f"{prefix}.training_params": sites.params,
    }
    for key in sorted(coefficients):
        out[f"{prefix}.coeff.{key}"] = np.asarray(coefficients[key])
    return out


def _read_regressor(prefix: str, sections: dict) -> FittedRegressor:
    """The regressor on sites prepared from the stored spec and training
    parameters; its value table must fit them and the stored width."""
    meta = _section_value(sections, f"{prefix}.spec")
    spec = RegressorSpec(
        kind=meta["kind"],
        shape=meta["shape"],
        degree=int(meta["degree"]),
        ridge=float(meta["ridge"]),
        extrapolation=meta["extrapolation"],
    )
    sites = prepare(spec, _section_value(sections, f"{prefix}.training_params"))
    key = _VALUE_KEYS.get(sites.spec.kind, "weights")
    values = _section_value(sections, f"{prefix}.coeff.{key}")
    complex_output = bool(meta["complex_output"])
    rows = len(sites.powers) if sites.spec.kind == "poly" else sites.params.shape[0]
    width = int(meta["output_dim"]) * (2 if complex_output else 1)
    if values.shape != (rows, width):
        raise DataError(
            f"{prefix} {key} of shape {values.shape} does not fit {rows} sites "
            f"and {width} output channels"
        )
    return FittedRegressor(sites, values, complex_output)


def _basis_sections(basis: GlobalBasis) -> dict:
    return {
        "basis.modes_u": basis.modes_u,
        "basis.singular_values": basis.singular_values,
        "basis.spec": {"energy_captured": basis.energy_captured, "centered": False},
    }


def _read_basis(sections: dict) -> GlobalBasis:
    meta = _section_value(sections, "basis.spec")
    if meta["centered"]:
        raise DataError("centered bases are not supported")
    return GlobalBasis(
        _section_value(sections, "basis.modes_u"),
        _section_value(sections, "basis.singular_values"),
        float(meta["energy_captured"]),
    )


def _dmd_sections(prefix: str, model: DmdModel) -> dict:
    return {
        f"{prefix}.spec": {"rank": model.rank, "dt": model.dt, "t0": model.t0},
        f"{prefix}.reduced_op": model.reduced_op,
        f"{prefix}.eigenvalues": model.eigenvalues,
        f"{prefix}.modes": model.modes,
        f"{prefix}.amplitudes": model.amplitudes,
        f"{prefix}.proj_basis": model.proj_basis,
        f"{prefix}.reduced_eigvecs": model.reduced_eigvecs,
    }


def _read_dmd(prefix: str, sections: dict) -> DmdModel:
    meta = _section_value(sections, f"{prefix}.spec")
    return DmdModel(
        rank=int(meta["rank"]),
        reduced_op=_section_value(sections, f"{prefix}.reduced_op"),
        eigenvalues=_section_value(sections, f"{prefix}.eigenvalues"),
        modes=_section_value(sections, f"{prefix}.modes"),
        amplitudes=_section_value(sections, f"{prefix}.amplitudes"),
        dt=float(meta["dt"]),
        t0=float(meta["t0"]),
        proj_basis=_section_value(sections, f"{prefix}.proj_basis"),
        reduced_eigvecs=_section_value(sections, f"{prefix}.reduced_eigvecs"),
    )


def _roi_sections(model: RoiModel) -> dict:
    return {
        "roi.spec": {"op_rank": model.op_rank, "dt": model.dt, "t0": model.t0},
        "roi.op_modes": model.op_modes,
        "roi.train_residuals": model.train_residuals,
        **_regressor_sections("roi.coeff_reg", model.coeff_regressor),
        **_regressor_sections("roi.init_reg", model.init_regressor),
    }


def _read_roi(sections: dict, basis: GlobalBasis) -> RoiModel:
    meta = _section_value(sections, "roi.spec")
    return RoiModel(
        basis=basis,
        op_modes=_section_value(sections, "roi.op_modes"),
        op_rank=int(meta["op_rank"]),
        coeff_regressor=_read_regressor("roi.coeff_reg", sections),
        init_regressor=_read_regressor("roi.init_reg", sections),
        dt=float(meta["dt"]),
        t0=float(meta["t0"]),
        train_residuals=_section_value(sections, "roi.train_residuals"),
    )


def _rkoi_sections(model: RkoiModel) -> dict:
    return {
        "rkoi.spec": {"t0": model.t0, "notes": list(model.notes)},
        **_regressor_sections("rkoi.mode_reg", model.mode_regressor),
        **_regressor_sections("rkoi.omega_reg", model.omega_regressor),
        **_regressor_sections("rkoi.amp_reg", model.amp_regressor),
    }


def _read_rkoi(sections: dict, basis: GlobalBasis) -> RkoiModel:
    meta = _section_value(sections, "rkoi.spec")
    return RkoiModel(
        basis=basis,
        mode_regressor=_read_regressor("rkoi.mode_reg", sections),
        omega_regressor=_read_regressor("rkoi.omega_reg", sections),
        amp_regressor=_read_regressor("rkoi.amp_reg", sections),
        t0=float(meta["t0"]),
        notes=tuple(meta["notes"]),
    )


def _mono_sections(model: MonolithicModel) -> dict:
    return {
        "mono.spec": {"dt": model.dt, "t0": model.t0},
        "mono.params": model.params,
        "mono.block_map": np.asarray(model.block_map, dtype=np.int64),
        **_dmd_sections("mono.stacked", model.stacked_dmd),
    }


def _read_mono(sections: dict, basis: GlobalBasis) -> MonolithicModel:
    meta = _section_value(sections, "mono.spec")
    block_map = tuple(
        (int(lo), int(hi)) for lo, hi in _section_value(sections, "mono.block_map")
    )
    return MonolithicModel(
        basis=basis,
        stacked_dmd=_read_dmd("mono.stacked", sections),
        params=_section_value(sections, "mono.params"),
        block_map=block_map,
        dt=float(meta["dt"]),
        t0=float(meta["t0"]),
    )


def _part_sections(model: PartitionedModel) -> dict:
    sections = {
        "part.spec": {"dt": model.dt, "t0": model.t0, "n_members": len(model.members)},
        "part.params": model.params,
    }
    for i, member in enumerate(model.members):
        sections.update(_dmd_sections(f"part.member{i}", member))
    return sections


def _read_part(sections: dict, basis: GlobalBasis) -> PartitionedModel:
    meta = _section_value(sections, "part.spec")
    members = tuple(
        _read_dmd(f"part.member{i}", sections) for i in range(int(meta["n_members"]))
    )
    return PartitionedModel(
        basis=basis,
        members=members,
        params=_section_value(sections, "part.params"),
        dt=float(meta["dt"]),
        t0=float(meta["t0"]),
    )


# Section layout of each algorithm, keyed by the tag its model class
# carries: (model -> named sections, (sections, basis) -> model).
_LAYOUTS = {
    RoiModel.tag: (_roi_sections, _read_roi),
    RkoiModel.tag: (_rkoi_sections, _read_rkoi),
    MonolithicModel.tag: (_mono_sections, _read_mono),
    PartitionedModel.tag: (_part_sections, _read_part),
}


def _write_prefixed(handle, data: bytes) -> None:
    handle.write(struct.pack("<I", len(data)))
    handle.write(data)


def save_model(model, path, metadata: dict | None = None) -> None:
    """Write a model (plus optional string/number metadata) to disk; a
    path that cannot be written is a DataError."""
    tag = getattr(model, "tag", None)
    if tag not in _LAYOUTS:
        raise DataError(f"cannot archive object of type {type(model).__name__}")
    to_sections, _ = _LAYOUTS[tag]
    sections = _pack_sections({**_basis_sections(model.basis), **to_sections(model)})
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
        raise DataError(f"unsupported archive version {version}")
    try:
        tag = cursor.prefixed("algorithm tag").decode("utf-8")
        sections = {}
        for _ in range(cursor.u32("section count")):
            name = cursor.prefixed("section name").decode("utf-8")
            if name in sections:
                raise DataError(f"duplicate archive section {name!r}")
            sections[name] = cursor.prefixed(f"section {name!r}")
        if cursor.offset != len(cursor.raw):
            raise DataError("trailing bytes after the last archive section")
        if tag not in _LAYOUTS:
            raise DataError(f"unknown algorithm tag {tag!r}")
        _, from_sections = _LAYOUTS[tag]
        model = from_sections(sections, _read_basis(sections))
        metadata = _section_value(sections, "meta")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        # undecodable UTF-8 or JSON, missing spec keys, mistyped values
        raise DataError(f"malformed archive {path}: {exc!r}") from exc
    return ModelArchive(tag, model, metadata)
