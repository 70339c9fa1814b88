"""Tests for the binary model container."""

import hashlib
import json
import re
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdmd.algorithms import ALGORITHMS
from pdmd.archive import (
    MAGIC,
    VERSION,
    ModelArchive,
    _encode_array,
    _encode_json,
    load_model,
    save_model,
)
from pdmd.cli import main
from pdmd.data import read_dataset
from pdmd.dmd import DmdModel
from pdmd.errors import DataError, IllConditionedWarning, PdmdError, PdmdWarning
from pdmd.latent import MonolithicModel, PartitionedModel, fit_partitioned
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate, spec_from_metadata
from pdmd.reduction import GlobalBasis, _gram_factors, fit_global_basis, project
from pdmd.regression import KINDS, RegressorSpec, Sites, fit, prepare
from pdmd.rkoi import RkoiModel
from pdmd.roi import RoiModel, fit_roi
from pdmd.synth import SynthSpec, generate


def make_latent(seed=0, n_params=4, rank=3):
    spec = SynthSpec(
        "linear-operator",
        n_h=6,
        n_params=n_params,
        param_range=(0.2, 1.0),
        n_t=30,
        dt=0.5,
        seed=seed,
    )
    dataset, _ = generate(spec)
    basis = fit_global_basis(dataset, rank=rank)
    return dataset, project(dataset, basis)


FIXED_PARAMS = np.array([[0.25], [0.75]])


def fixed_dmd(scale):
    return DmdModel(
        reduced_op=scale * np.array([[0.5, -0.25], [0.25, 0.5]]),
        eigenvalues=scale * np.array([0.5 + 0.25j, 0.5 - 0.25j]),
        modes=np.array([[1.0, 1.0], [0.5j, -0.5j]]),
        amplitudes=np.array([0.5 - 0.5j, 0.5 + 0.5j]),
        dt=0.5,
        t0=1.0,
        proj_basis=np.eye(2),
    )


def fixed_models(spec=None):
    """One model of each kind built from fixed arrays: no fitting, so no
    LAPACK result reaches the archive bytes.  Every model reads a
    regressor of ``spec`` if given; else ``rkoi`` a nearest one and the
    others a linear one."""
    basis = GlobalBasis(
        np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]]), np.array([3.0, 0.5]), 0.875
    )
    roi_spec = spec or RegressorSpec("linear")
    rkoi_spec = spec or RegressorSpec("nearest", extrapolation="allow")
    sites = prepare(roi_spec, FIXED_PARAMS)
    stacked = DmdModel(
        reduced_op=np.array([[0.5, 0.0], [0.0, 0.25]]),
        eigenvalues=np.array([0.5 + 0j, 0.25 + 0j]),
        modes=np.arange(8.0).reshape(4, 2) + 0j,
        amplitudes=np.array([1.0 + 0j, -1.0 + 0j]),
        dt=0.5,
        t0=1.0,
        proj_basis=np.eye(4)[:, :2],
    )
    return {
        "roi": RoiModel(
            basis=basis,
            op_modes=np.arange(8.0).reshape(4, 2) / 8,
            sites=sites,
            # two operator-mode coefficients, then the initial state
            values=np.array([[1.0, 0.5, 1.0, 0.0], [0.75, 0.25, 0.5, 0.5]]),
            dt=0.5,
            t0=1.0,
        ),
        "rkoi": RkoiModel(
            basis=basis,
            sites=prepare(rkoi_spec, FIXED_PARAMS),
            # vec(modes), then the frequencies, then the amplitudes
            values=np.array(
                [
                    [1, 0.5j, 0.25, -1j, -0.1 + 1j, -0.1 - 1j, 1 + 1j, 1 - 1j],
                    [1, 0.25j, 0.5, -0.5j, -0.2 + 2j, -0.2 - 2j, 0.5j, -0.5j],
                ]
            ),
            t0=1.0,
            notes=("parameter 1: fixed note",),
        ),
        "mono": MonolithicModel(basis=basis, stacked_dmd=stacked, sites=sites),
        "part": PartitionedModel(
            basis=basis,
            members=(fixed_dmd(1.0), fixed_dmd(0.5)),
            sites=sites,
        ),
    }


FIXED_METADATA = {"offline_seconds": 0.25, "rank": 2}

# SHA-256 of save_model(fixed_models()[tag], path, FIXED_METADATA) in
# archive format 3
GOLDEN_SHA256 = {
    "roi": "88531aac13d161c43bfd84f9c16cd37e07c5b55e71fe39d948ce80a083b04ee8",
    "rkoi": "69ace60271df43b4279a8aa67c2fc4c71e94ded6a9c23231ddef325075c2d5b0",
    "mono": "db71dc1c1a4ad5496dcb057196c7d8707671e46a085b5b051be9c14ce6d00091",
    "part": "85fc05ed9bf6c7827dfbd469ab0ce45a025779f9c5915ab69eb0a88c0073d62b",
}

# The same models in format 1, committed as written by the format-1
# save_model (with roi.train_residuals [1e-3, 2e-3] and each DMD's
# reduced_eigvecs), and the SHA-256 the format-1 tests held them to;
# a load no longer reads them.
V1_ARCHIVES = Path(__file__).parent / "data" / "archive_v1"
GOLDEN_V1_SHA256 = {
    "roi": "172019a6066ba60b4bb0300c91d59e93d49cbad30632113384cccc65a5365bc5",
    "rkoi": "c1181850852089623aac1cbebd7b8cdbda2cae1900dbbcc8aa928628ba915246",
    "mono": "c0f154941894dab89085b59f1b02397ad1f1debafdaf23dfd4fbfc4820155b39",
    "part": "2ccf4babd01c85c962f9a84db4d6215d005d9ff572f75c7860d3776d57c64658",
}

# regressors whose archive entries the hashes above do not reach: the rbf
# shape (None, for the median site distance, or given), the poly degree,
# and the value tables each kind solves to
KIND_SPECS = {
    "rbf-gauss": RegressorSpec("rbf-gauss"),
    "rbf-tps": RegressorSpec("rbf-tps", shape=0.75),
    "poly": RegressorSpec("poly", degree=1),
}
# SHA-256 of save_model(fixed_models(KIND_SPECS[kind])[tag], path,
# FIXED_METADATA) in archive format 3
GOLDEN_KIND_SHA256 = {
    ("roi", "rbf-gauss"): "97de9275e8018d71469e78a28aa4df854b6150a4b015f1704f23a71090b51625",
    ("rkoi", "rbf-gauss"): "8d4b4569529814ed3bcb6fb2150c3153b23a648316cd97d9f27fb01df8c80729",
    ("roi", "rbf-tps"): "743f39607e2bca9bf9aee3d9e12cf610bb11bd8b95812960f46dbf9961f8782a",
    ("rkoi", "rbf-tps"): "27b09fa3da64ea0f695c64ab26b7f42084868d6f9edfb65f670acc0e2d1b615a",
    ("roi", "poly"): "dfda2648e7ded58283efa6ac2f7c611168380ff2e0eb26a99e4914171b55173c",
    ("rkoi", "poly"): "6bd9a6b79fe07bbf1fbda64b191cdbf2cf3e0ce148a661cc81bab61e0a6e25fd",
}


# a change that removes the named section
DROP = object()


def split_sections(raw: bytes) -> tuple:
    """(head, [(name, payload)]) of the archive bytes, the head being the
    magic, the version and the algorithm tag."""
    offset = len(MAGIC) + 4  # magic, version
    offset += 4 + struct.unpack_from("<I", raw, offset)[0]  # algorithm tag
    head = raw[:offset]
    (count,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    sections = []
    for _ in range(count):
        fields = []
        for _ in range(2):  # name, payload
            length = struct.unpack_from("<I", raw, offset)[0]
            fields.append(raw[offset + 4 : offset + 4 + length])
            offset += 4 + length
        sections.append((fields[0].decode(), fields[1]))
    assert offset == len(raw)
    return head, sections


def edit_sections(raw: bytes, changes: dict) -> bytes:
    """The archive bytes with named sections rewritten: an array replaces
    the stored one, a dict updates the keys of the stored JSON object and
    ``DROP`` removes the section.  A change that names no stored section
    is appended as a new section."""
    head, stored = split_sections(raw)
    added = dict(changes)
    sections = []
    for name, payload in stored:
        change = added.pop(name, None)
        if change is DROP:
            continue
        if isinstance(change, dict):
            value = json.loads(payload[1:])
            payload = b"J" + json.dumps({**value, **change}, sort_keys=True).encode()
        elif change is not None:
            payload = _encode_array(change)
        sections.append((name, payload))
    for name, value in added.items():
        encode = _encode_array if isinstance(value, np.ndarray) else _encode_json
        sections.append((name, encode(value)))
    pieces = [head, struct.pack("<I", len(sections))]
    for name, payload in sections:
        for field in (name.encode(), payload):
            pieces += [struct.pack("<I", len(field)), field]
    return b"".join(pieces)


def assert_refit_asked(path, version, tmp_path, capsys):
    """A file of an older format fails to load, naming its format and
    asking for a refit, and ``pdmd predict`` on it exits 3."""
    message = (
        f"archive format {version} is not read by this pdmd version, which reads "
        f"format {VERSION} only; refit the model with pdmd fit"
    )
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(path)
    assert main(["predict", "--model", str(path), "--mu", "0.5",
                 "--out", str(tmp_path / "pred.pdmd1")]) == 3
    assert message in capsys.readouterr().err


def assert_tamper_rejected(raw, changes, message, tmp_path, capsys):
    """The edited archive fails to load with the message, and ``pdmd
    predict`` on it exits 3 with the message."""
    path = tmp_path / "tampered.pdmdm"
    path.write_bytes(edit_sections(raw, changes))
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(path)
    assert main(["predict", "--model", str(path), "--mu", "0.5",
                 "--out", str(tmp_path / "pred.pdmd1")]) == 3
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def fixed_archives(tmp_path_factory):
    """Archive bytes of each fixed model, keyed by tag."""
    folder = tmp_path_factory.mktemp("fixed")
    archives = {}
    for tag, model in fixed_models().items():
        path = folder / f"{tag}.pdmdm"
        save_model(model, path, metadata=FIXED_METADATA)
        archives[tag] = path.read_bytes()
    return archives


class TestFormat:
    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_bytes_match_golden_hash(self, tag, fixed_archives):
        assert hashlib.sha256(fixed_archives[tag]).hexdigest() == GOLDEN_SHA256[tag]

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_resaving_a_loaded_archive_reproduces_it(self, tag, fixed_archives, tmp_path):
        path = tmp_path / "model.pdmdm"
        path.write_bytes(fixed_archives[tag])
        loaded = load_model(path)
        assert loaded.algorithm == tag
        again = tmp_path / "again.pdmdm"
        save_model(loaded.model, again, metadata=loaded.metadata)
        assert again.read_bytes() == fixed_archives[tag]

    @pytest.mark.parametrize("tag, kind", list(GOLDEN_KIND_SHA256))
    def test_regressor_kind_bytes_match_golden_hash(self, tag, kind, tmp_path):
        path = tmp_path / "model.pdmdm"
        save_model(fixed_models(KIND_SPECS[kind])[tag], path, metadata=FIXED_METADATA)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_KIND_SHA256[(tag, kind)]
        again = tmp_path / "again.pdmdm"
        save_model(load_model(path).model, again, metadata=FIXED_METADATA)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_every_section_is_read(self, tag, fixed_archives, tmp_path, capsys):
        # the load reads every section a format-3 file holds: without any
        # one of them the file fails to load, naming it
        raw = fixed_archives[tag]
        names = [name for name, _ in split_sections(raw)[1]]
        assert "meta" in names and len(names) == len(set(names))
        for name in names:
            message = f"archive is missing section {name!r}"
            assert_tamper_rejected(raw, {name: DROP}, message, tmp_path, capsys)

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_version_1_file_asks_for_a_refit(self, tag, tmp_path, capsys):
        path = V1_ARCHIVES / f"{tag}.pdmdm"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_V1_SHA256[tag]
        assert_refit_asked(path, 1, tmp_path, capsys)

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_version_2_file_asks_for_a_refit(self, tag, fixed_archives, tmp_path, capsys):
        raw = bytearray(fixed_archives[tag])
        assert raw[len(MAGIC)] == VERSION
        raw[len(MAGIC)] = 2
        path = tmp_path / "v2.pdmdm"
        path.write_bytes(bytes(raw))
        assert_refit_asked(path, 2, tmp_path, capsys)

    @pytest.mark.parametrize(
        "tag, section",
        [("roi", "roi.train_residuals"), ("mono", "mono.stacked.reduced_eigvecs"),
         ("part", "part.member1.reduced_eigvecs")],
    )
    def test_non_finite_version_1_section_rejected(
        self, tag, section, fixed_archives, tmp_path, capsys
    ):
        # a format-1 section in a format-3 file is decoded, and so checked,
        # before the load finds that it reads nothing from it
        message = f"archive section {section!r} holds non-finite entries"
        raw = fixed_archives[tag]
        assert_tamper_rejected(raw, {section: np.full(2, np.nan)}, message, tmp_path, capsys)
        message = f"archive section {section!r} is not read by a format-3 {tag} model"
        assert_tamper_rejected(raw, {section: np.ones(2)}, message, tmp_path, capsys)

    def test_centered_basis_rejected(self, fixed_archives, tmp_path, capsys):
        # format 2 wrote a "centered" flag that no load read; a file that
        # claims a centered basis is rejected
        message = (
            "archive section 'basis.spec' holds ['centered', 'energy_captured'], "
            "not the keys ['energy_captured']"
        )
        changes = {"basis.spec": {"centered": True}}
        assert_tamper_rejected(fixed_archives["roi"], changes, message, tmp_path, capsys)


def tall_dataset():
    """N_h = 300 rows against ~100 kept factor columns, so the basis takes
    blocked_truncated_svd's QR-first path for tall matrices."""
    spec = SynthSpec("exp-modes", n_h=300, n_params=5, param_range=(0.2, 0.8),
                     n_t=30, dt=0.08, seed=23)
    dataset, _ = generate(spec)
    rows, columns = _gram_factors(dataset.states(), 1).shape
    assert rows > 2 * columns
    return dataset


# (dataset, basis rank): None takes the energy rule, as the benchmark does
ROUND_TRIP_DATASETS = {
    "desk": (lambda: make_latent(seed=1)[0], 3),
    "tall": (tall_dataset, None),
}
# every algorithm with every regressor kind on the desk case, and with the
# linear regressor on the tall case; the plain tag names the linear
# regressor, the default for a scalar mu.  roi also runs every kind with
# a one-channel column group: at basis rank 1 (one initial-state entry)
# and at op_rank 1 (one operator-mode coefficient)
ROUND_TRIP_CASES = (
    [
        pytest.param(tag, kind, "desk", {}, id=tag if kind == "linear" else f"{tag}-{kind}")
        for tag in ALGORITHMS
        for kind in KINDS
    ]
    + [pytest.param(tag, "linear", "tall", {}, id=f"{tag}-tall") for tag in ALGORITHMS]
    + [
        pytest.param("roi", kind, "desk", extra, id=f"roi-{kind}-{name}")
        for kind in KINDS
        for name, extra in (("rank-1", {"rank": 1}), ("op-rank-1", {"op_rank": 1}))
    ]
)


class TestRoundTrips:
    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("tag, kind, data, extra", ROUND_TRIP_CASES)
    def test_predictions_bit_identical(self, tag, kind, data, extra, tmp_path):
        build, rank = ROUND_TRIP_DATASETS[data]
        dataset = build()
        options = FitOptions(
            tag, **{"rank": rank, **extra}, regressor=RegressorSpec(kind)
        )
        fitted = fit_surrogate(dataset, options)
        path = tmp_path / "model.pdmdm"
        save_model(fitted.model, path, metadata=fitted.metadata)
        loaded = load_model(path)
        assert loaded.algorithm == tag
        assert loaded.metadata == fitted.metadata
        mu, instants = [0.45], dataset.grid.instants[:7]
        expected = predict_surrogate(fitted.model, mu, instants)
        assert np.array_equal(predict_surrogate(loaded.model, mu, instants), expected)
        # the transitional spec argument: the metadata's spec is the model's
        spec = spec_from_metadata(loaded.metadata)
        assert np.array_equal(predict_surrogate(loaded.model, mu, instants, spec), expected)
        again = tmp_path / "again.pdmdm"
        save_model(loaded.model, again, metadata=loaded.metadata)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_regressor_keys_of_meta_do_not_reach_the_model(self, tag, tmp_path):
        # the model holds its regressor: the metadata's copy of its spec,
        # edited in every key, moves no bit of a loaded model's answer
        dataset, _ = make_latent(seed=1)
        fitted = fit_surrogate(dataset, FitOptions(tag, rank=3))
        other = {"regressor": "nearest", "rbf_shape": 2.0, "poly_degree": 3,
                 "ridge": 0.5, "extrapolation": "error"}
        assert all(fitted.metadata[key] != value for key, value in other.items())
        path = tmp_path / "edited.pdmdm"
        save_model(fitted.model, path, {**fitted.metadata, **other})
        out = tmp_path / "pred.pdmd1"
        assert main(["predict", "--model", str(path), "--mu", "0.45", "--out", str(out)]) == 0
        written = read_dataset(out).trajectories[0]
        expected = predict_surrogate(fitted.model, [0.45], written.grid.instants)
        assert np.array_equal(written.state, expected)
        loaded = load_model(path).model
        assert np.array_equal(predict_surrogate(loaded, [0.45], written.grid.instants), expected)

    def test_signed_zeros_of_a_complex_table_survive(self, tmp_path):
        # fit stores the real and imaginary channels in their own parts,
        # and the archive stores the complex table as it is
        table = np.array(
            [[1, 0.5j, -0.0, -1j, -0.1 + 1j, -0.1 - 1j, 1 + 1j, 1 - 1j],
             [1, complex(0.25, -0.0), 0.5, -0.5j, -0.2 + 2j, -0.2 - 2j, 0.5j, -0.5j]]
        )
        sites = prepare(RegressorSpec("nearest"), FIXED_PARAMS)
        model = replace(fixed_models()["rkoi"], sites=sites, values=fit(sites, table))
        path = tmp_path / "zeros.pdmdm"
        save_model(model, path)
        for values in (model.values, load_model(path).model.values):
            assert np.array_equal(np.signbit(values.real), np.signbit(table.real))
            assert np.array_equal(np.signbit(values.imag), np.signbit(table.imag))

    def test_saved_file_is_deterministic(self, tmp_path):
        _, latent = make_latent(seed=4)
        model = fit_roi(latent, op_rank=2, sites=prepare(RegressorSpec("nearest"), latent.params))
        first, second = tmp_path / "a.pdmdm", tmp_path / "b.pdmdm"
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()

    def test_regressor_state_preserved(self, tmp_path):
        _, latent = make_latent(seed=5)
        spec = RegressorSpec("rbf-gauss", shape=1.5, extrapolation="allow")
        model = fit_roi(latent, op_rank=2, sites=prepare(spec, latent.params))
        path = tmp_path / "model.pdmdm"
        save_model(model, path)
        loaded = load_model(path).model
        assert loaded.sites.spec == spec
        assert_allclose(loaded.values, model.values, atol=0, rtol=0)


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.pdmdm"
        path.write_bytes(b"NOTAMODEL!!" + b"\x00" * 20)
        with pytest.raises(DataError, match="not a model archive"):
            load_model(path)

    def test_truncated_archive_rejected(self, tmp_path):
        _, latent = make_latent(seed=6)
        model = fit_partitioned(latent, prepare(RegressorSpec("linear"), latent.params))
        path = tmp_path / "model.pdmdm"
        save_model(model, path)
        clipped = tmp_path / "clipped.pdmdm"
        clipped.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(DataError, match="truncated"):
            load_model(clipped)

    def test_wrong_version_rejected(self, tmp_path):
        _, latent = make_latent(seed=7)
        model = fit_partitioned(latent, prepare(RegressorSpec("linear"), latent.params))
        path = tmp_path / "model.pdmdm"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = 99
        bad = tmp_path / "bad.pdmdm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_model(bad)

    def test_unarchivable_object_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot archive"):
            save_model(object(), tmp_path / "nope.pdmdm")

    def test_repeated_section_rejected(self, fixed_archives, tmp_path):
        raw = fixed_archives["roi"]
        offset = len(MAGIC) + 4  # magic, version
        offset += 4 + struct.unpack_from("<I", raw, offset)[0]  # algorithm tag
        (count,) = struct.unpack_from("<I", raw, offset)
        first = end = offset + 4
        for _ in range(2):  # the first section's name and payload
            end += 4 + struct.unpack_from("<I", raw, end)[0]
        name = raw[first + 4 : first + 4 + struct.unpack_from("<I", raw, first)[0]].decode()
        path = tmp_path / "repeated.pdmdm"
        path.write_bytes(raw[:offset] + struct.pack("<I", count + 1) + raw[first:end] + raw[first:])
        with pytest.raises(DataError, match=f"duplicate archive section '{re.escape(name)}'"):
            load_model(path)

    def test_trailing_bytes_rejected(self, fixed_archives, tmp_path):
        path = tmp_path / "trailing.pdmdm"
        path.write_bytes(fixed_archives["roi"] + b"\x00")
        with pytest.raises(DataError, match="trailing bytes after the last archive section"):
            load_model(path)

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_every_truncation_rejected(self, tag, fixed_archives, tmp_path):
        raw = fixed_archives[tag]
        path = tmp_path / "cut.pdmdm"
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(DataError):
                load_model(path)

    def test_altered_array_shape_rejected(self, fixed_archives, tmp_path):
        raw = bytearray(fixed_archives["roi"])
        # basis.modes_u is the first array: kind, dtype code, ndim, dims
        start = raw.index(b"A\x00\x02\x03\x00\x00\x00\x02\x00\x00\x00")
        raw[start + 3] = 4
        path = tmp_path / "reshaped.pdmdm"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="does not match shape"):
            load_model(path)

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_non_finite_basis_rejected(self, tag, fixed_archives, tmp_path, capsys):
        raw = bytearray(fixed_archives[tag])
        # basis.modes_u is the first array: its first entry follows the
        # kind, dtype code, ndim and dims
        start = raw.index(b"A\x00\x02\x03\x00\x00\x00\x02\x00\x00\x00")
        raw[start + 11 : start + 19] = np.array(np.nan).tobytes()
        path = tmp_path / "nan.pdmdm"
        path.write_bytes(bytes(raw))
        message = "archive section 'basis.modes_u' holds non-finite entries"
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)
        assert main(["predict", "--model", str(path), "--mu", "0.5",
                     "--out", str(tmp_path / "pred.pdmd1")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tag, n_groups", [("roi", 2), ("rkoi", 3)])
    def test_regressors_load_on_one_set_of_sites(self, tag, n_groups, tmp_path):
        # sites a millionth of the rbf shape apart: condition number ~8e12
        spec = RegressorSpec("rbf-gauss", shape=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            model = fixed_models(spec)[tag]
        path = tmp_path / "ill.pdmdm"
        save_model(model, path, metadata=FIXED_METADATA)
        # format 2 kept one regressor per quantity (n_groups of them);
        # format 3 keeps the one regressor the model holds
        assert path.read_bytes().count(b"regressor.spec") == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_model(path).model
        assert [w.category for w in caught] == [IllConditionedWarning]
        sites = [value for value in vars(loaded).values() if isinstance(value, Sites)]
        assert len(sites) == 1
        assert np.array_equal(loaded.values, model.values)

    @pytest.mark.parametrize(
        "tag, changes, message",
        [
            (
                "roi",
                {"regressor.values": np.array([[1.0, 0.5, 1.0, 0.0]])},
                "regressor values of shape (1, 4) do not fit 2 sites",
            ),
            (
                "roi",
                {"regressor.params": np.array([[0.25], [0.5], [0.75]])},
                "regressor values of shape (2, 4) do not fit 3 sites",
            ),
            (
                "rkoi",
                {"regressor.spec": {"kind": "poly", "degree": 3, "ridge": 0.5}},
                "regressor values of shape (2, 8) do not fit 4 sites",
            ),
            (
                "rkoi",
                {"regressor.values": np.ones((2, 16))},
                "triplet regressor has 16 output channels, basis rank 2 needs 8",
            ),
        ],
        ids=["short-table", "other-params", "other-spec", "other-complex-flag"],
    )
    def test_regressors_off_their_sites_rejected(
        self, fixed_archives, tmp_path, capsys, tag, changes, message
    ):
        assert_tamper_rejected(fixed_archives[tag], changes, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "changes",
        [{"regressor.values": np.array([[1.0, 0.5, 1.0, 0.0], [0.75, 0.25, 0.5, 0.5j]])},
         {"roi.op_modes": np.arange(8.0).reshape(4, 2) / 8 + 0j}],
        ids=["values", "op-modes"],
    )
    def test_complex_roi_arrays_rejected(self, fixed_archives, tmp_path, capsys, changes):
        # a roi query steps real latent states; a complex table or operator
        # mode is refused at load, not at the query
        message = "roi op_modes and regressor values must be real"
        assert_tamper_rejected(fixed_archives["roi"], changes, message, tmp_path, capsys)

    def test_stored_output_dim_off_the_table_rejected(
        self, fixed_archives, tmp_path, capsys
    ):
        # the channel count is the value table's width: format 2's stored
        # copy of it is a key no load reads
        message = (
            "archive section 'regressor.spec' holds ['degree', 'extrapolation', 'kind', "
            "'output_dim', 'ridge', 'shape'], not the keys"
        )
        changes = {"regressor.spec": {"output_dim": 2}}
        assert_tamper_rejected(fixed_archives["roi"], changes, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "tag, changes, message",
        [
            ("roi", {"roi.op_modes": np.ones((4, 3))}, "op_modes of shape (4, 3)"),
            ("roi", {"roi.op_modes": np.ones((9, 2))}, "op_modes of shape (9, 2)"),
            ("roi", {"roi.spec": {"op_rank": 3}},
             "archive section 'roi.spec' holds ['dt', 'op_rank', 't0'], not the keys"),
            ("roi", {"regressor.values": np.ones((2, 5))},
             "op_modes of shape (4, 2) and 5 regressor channels"),
            ("rkoi", {"regressor.values": np.ones((2, 6)) + 1j},
             "triplet regressor has 6 output channels, basis rank 2 needs 8"),
            ("rkoi", {"regressor.values": np.ones((2, 7)) + 1j},
             "triplet regressor has 7 output channels"),
            ("rkoi", {"regressor.values": np.ones((2, 9)) + 1j},
             "triplet regressor has 9 output channels"),
            ("mono", {"regressor.params": np.array([[0.25], [0.5], [0.75]])},
             "stacked DMD has 4 state rows, not 3 parameters times basis rank 2"),
            # one member per training parameter
            ("part", {"regressor.params": np.array([[0.25], [0.5], [0.75]])},
             "archive is missing section 'part.member2.spec'"),
        ],
        ids=[
            "roi-op-modes-columns",
            "roi-op-modes-rows",
            "roi-op-rank",
            "roi-init-width",
            "rkoi-mode-width",
            "rkoi-omega-width",
            "rkoi-amp-width",
            "mono-params",
            "part-params",
        ],
    )
    def test_widths_off_the_basis_rank_rejected(
        self, fixed_archives, tmp_path, capsys, tag, changes, message
    ):
        assert_tamper_rejected(fixed_archives[tag], changes, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "tag, changes, message",
        [
            ("mono", {"mono.spec": {"dt": 0.25, "t0": 1.0}},
             "archive section 'mono.spec' is not read by a format-3 mono model"),
            ("mono", {"mono.spec": {"dt": 0.5, "t0": 0.0}},
             "archive section 'mono.spec' is not read by a format-3 mono model"),
            ("mono", {"mono.block_map": np.array([[0, 1], [1, 4]])},
             "archive section 'mono.block_map' is not read by a format-3 mono model"),
            ("part", {"part.spec": {"dt": 0.25, "t0": 1.0, "n_members": 2}},
             "archive section 'part.spec' is not read by a format-3 part model"),
            ("part", {"part.spec": {"dt": 0.5, "t0": 0.0, "n_members": 2}},
             "archive section 'part.spec' is not read by a format-3 part model"),
            ("mono", {"mono.stacked.spec": {"rank": 7}},
             "archive section 'mono.stacked.spec' holds ['dt', 'rank', 't0'], not the keys"),
            ("part", {"part.member0.spec": {"rank": 7}, "part.member1.spec": {"rank": 7}},
             "archive section 'part.member0.spec' holds ['dt', 'rank', 't0'], not the keys"),
            ("roi", {"roi.coeff_reg.spec": {"output_dim": 1},
                     "roi.init_reg.spec": {"output_dim": 3},
                     "roi.coeff_reg.coeff.table": np.array([[1.0], [0.75]]),
                     "roi.init_reg.coeff.table": np.array([[0.5, 1.0, 0.0], [0.25, 0.5, 0.5]])},
             "archive section 'roi.coeff_reg.coeff.table' is not read by a format-3 roi model"),
            ("roi", {"roi.init_reg.coeff.xs": np.array([0.25, 0.75])},
             "archive section 'roi.init_reg.coeff.xs' is not read by a format-3 roi model"),
        ],
        ids=["mono-dt", "mono-t0", "mono-block-map", "part-dt", "part-t0",
             "mono-dmd-rank", "part-member-ranks", "roi-groups-shifted", "roi-xs"],
    )
    def test_stored_copies_off_the_arrays_rejected(
        self, fixed_archives, tmp_path, capsys, tag, changes, message
    ):
        # format 2 stored copies of facts the arrays fix and checked them
        # against the model; format 3 stores none, and a load rejects a
        # stored copy, agreeing or not, as a section or key it does not read
        assert_tamper_rejected(fixed_archives[tag], changes, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "tag, changes, message",
        [
            ("roi", {"roi.spec": {"dt": 0.0}},
             "lattice step dt must be finite and positive, got 0.0"),
            ("part", {f"part.member{i}.spec": {"dt": 0.0} for i in range(2)},
             "lattice step dt must be finite and positive, got 0.0"),
            ("mono", {"mono.stacked.spec": {"dt": -0.05}},
             "lattice step dt must be finite and positive, got -0.05"),
            ("rkoi", {"rkoi.spec": {"t0": float("nan")}},
             "initial instant t0 must be finite, got nan"),
        ],
        ids=["roi-dt-zero", "part-dt-zero", "mono-dt-negative", "rkoi-t0-nan"],
    )
    def test_lattice_that_cannot_step_rejected(
        self, fixed_archives, tmp_path, capsys, tag, changes, message
    ):
        assert_tamper_rejected(fixed_archives[tag], changes, message, tmp_path, capsys)

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(list(ALGORITHMS)),
        flips=st.lists(st.integers(min_value=0), min_size=1, max_size=8),
    )
    # an exponent bit of a basis entry: 1.0786e308 overflows the Gram check
    @example(tag="roi", flips=[718])
    def test_flipped_bits_load_or_raise_data_error(
        self, fixed_archives, tmp_path_factory, tag, flips
    ):
        raw = bytearray(fixed_archives[tag])
        for bit in flips:
            bit %= 8 * len(raw)
            raw[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path_factory.mktemp("flipped") / "model.pdmdm"
        path.write_bytes(bytes(raw))
        try:
            archive = load_model(path)
        except DataError:
            return
        assert isinstance(archive, ModelArchive)
        # a loaded archive answers a query on the fixed lattice or says why
        # not; a flipped exponent bit may overflow the answer to inf
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", PdmdWarning)
            try:
                predict_surrogate(archive.model, [0.5], [1.0, 1.5, 2.0])
            except PdmdError:
                pass
