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
    return sections[name]


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


# the name of the value table each kind's query reads; rbf kinds: "weights"
_VALUE_KEYS = {"linear": "table", "nearest": "table", "poly": "beta"}


def _regressor_sections(regressor: FittedRegressor, groups: dict) -> dict:
    """v1 keeps one regressor per column group, under the group's prefix:
    its channels (real, then imaginary) and entries written from the
    sites that a load does not read: linear xs, rbf shape, poly degree."""
    sites, spec = regressor.sites, regressor.sites.spec
    key = _VALUE_KEYS.get(spec.kind, "weights")
    extra = {}
    if spec.kind == "linear":
        extra["xs"] = sites.xs
    elif spec.kind == "poly":
        extra["degree"] = np.array(spec.degree)
    elif spec.kind != "nearest":
        extra["shape"] = np.array(sites.shape)
    out, start = {}, 0
    for prefix, width in groups.items():
        columns = np.arange(start, start + width)
        if regressor.complex_output:
            columns = np.concatenate([columns, regressor.output_dim + columns])
        coefficients = {key: regressor.values[:, columns], **extra}
        out[f"{prefix}.spec"] = {
            "kind": spec.kind,
            "shape": spec.shape,
            "degree": spec.degree,
            "ridge": spec.ridge,
            "extrapolation": spec.extrapolation,
            "output_dim": width,
            "complex_output": regressor.complex_output,
            "coeff_keys": sorted(coefficients),
        }
        out[f"{prefix}.training_params"] = sites.params
        for name in sorted(coefficients):
            out[f"{prefix}.coeff.{name}"] = np.asarray(coefficients[name])
        start += width
    return out


def _read_regressor(sections: dict, *prefixes: str) -> FittedRegressor:
    """The one regressor stored as column groups under the prefixes, on
    the sites prepared from the first group's spec and training
    parameters (``_check_copies`` then holds every group to them); each
    value table must fit the sites and its group's stored channel count."""
    meta = _section_value(sections, f"{prefixes[0]}.spec")
    spec = RegressorSpec(
        kind=meta["kind"],
        shape=meta["shape"],
        degree=int(meta["degree"]),
        ridge=float(meta["ridge"]),
        extrapolation=meta["extrapolation"],
    )
    sites = prepare(spec, _section_value(sections, f"{prefixes[0]}.training_params"))
    complex_output = bool(meta["complex_output"])
    key = _VALUE_KEYS.get(sites.spec.kind, "weights")
    rows = len(sites.powers) if sites.spec.kind == "poly" else sites.params.shape[0]
    tables = []
    for prefix in prefixes:
        values = _section_value(sections, f"{prefix}.coeff.{key}")
        stored = int(_section_value(sections, f"{prefix}.spec")["output_dim"])
        width = stored * (2 if complex_output else 1)
        if values.shape != (rows, width):
            raise DataError(
                f"{prefix} {key} of shape {values.shape} does not fit {rows} sites "
                f"and {width} output channels"
            )
        tables.append(values)
    if complex_output:  # the real channels of every group, then the imaginary ones
        tables = [t[:, : t.shape[1] // 2] for t in tables] + [
            t[:, t.shape[1] // 2 :] for t in tables
        ]
    return FittedRegressor(sites, np.hstack(tables), complex_output)


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
    groups = {"roi.coeff_reg": model.op_rank, "roi.init_reg": model.basis.rank}
    return {
        "roi.spec": {"op_rank": model.op_rank, "dt": model.dt, "t0": model.t0},
        "roi.op_modes": model.op_modes,
        "roi.train_residuals": model.train_residuals,
        **_regressor_sections(model.regressor, groups),
    }


def _read_roi(sections: dict, basis: GlobalBasis) -> RoiModel:
    meta = _section_value(sections, "roi.spec")
    return RoiModel(
        basis,
        _section_value(sections, "roi.op_modes"),
        _read_regressor(sections, "roi.coeff_reg", "roi.init_reg"),
        dt=float(meta["dt"]),
        t0=float(meta["t0"]),
        train_residuals=_section_value(sections, "roi.train_residuals"),
    )


def _rkoi_sections(model: RkoiModel) -> dict:
    rank = model.basis.rank
    groups = {"rkoi.mode_reg": rank * rank, "rkoi.omega_reg": rank, "rkoi.amp_reg": rank}
    return {
        "rkoi.spec": {"t0": model.t0, "notes": list(model.notes)},
        **_regressor_sections(model.regressor, groups),
    }


def _read_rkoi(sections: dict, basis: GlobalBasis) -> RkoiModel:
    meta = _section_value(sections, "rkoi.spec")
    return RkoiModel(
        basis,
        _read_regressor(sections, "rkoi.mode_reg", "rkoi.omega_reg", "rkoi.amp_reg"),
        t0=float(meta["t0"]),
        notes=tuple(meta["notes"]),
    )


def _mono_sections(model: MonolithicModel) -> dict:
    dmd, rank = model.stacked_dmd, model.basis.rank
    return {
        "mono.spec": {"dt": dmd.dt, "t0": dmd.t0},
        "mono.params": model.params,
        "mono.block_map": rank * np.add.outer(np.arange(len(model.params)), [0, 1]),
        **_dmd_sections("mono.stacked", dmd),
    }


def _read_mono(sections: dict, basis: GlobalBasis) -> MonolithicModel:
    return MonolithicModel(
        basis=basis,
        stacked_dmd=_read_dmd("mono.stacked", sections),
        params=_section_value(sections, "mono.params"),
    )


def _part_sections(model: PartitionedModel) -> dict:
    lattice = model.members[0]
    sections = {
        "part.spec": {"dt": lattice.dt, "t0": lattice.t0, "n_members": len(model.members)},
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
        basis=basis, members=members, params=_section_value(sections, "part.params")
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


def _model_sections(tag: str, model) -> dict:
    to_sections, _ = _LAYOUTS[tag]
    return {**_basis_sections(model.basis), **to_sections(model)}


def _check_copies(sections: dict, tag: str, model) -> None:
    """Every section the model would be written as must hold what the
    archive holds: a stored copy of a fact the arrays fix (a lattice, a
    block map, a channel count) that disagrees with them is a DataError."""
    for name, value in _model_sections(tag, model).items():
        stored = _section_value(sections, name)
        if value is stored:  # the model keeps the array as it was read
            continue
        if isinstance(value, np.ndarray):  # written with at least one axis
            agrees = np.array_equal(stored, np.atleast_1d(value))
        else:
            agrees = stored == value
        if not agrees:
            raise DataError(f"archive section {name!r} disagrees with the model's arrays")


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
        raise DataError(f"unsupported archive version {version}")
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
        model = from_sections(sections, _read_basis(sections))
        _check_copies(sections, tag, model)
        metadata = _section_value(sections, "meta")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        # undecodable UTF-8 or JSON, missing spec keys, mistyped values
        raise DataError(f"malformed archive {path}: {exc!r}") from exc
    return ModelArchive(tag, model, metadata)
