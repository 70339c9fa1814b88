"""Tests for the binary model container."""

import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdmd.algorithms import ALGORITHMS
from pdmd.archive import MAGIC, ModelArchive, _encode_array, load_model, save_model
from pdmd.cli import main
from pdmd.dmd import DmdModel
from pdmd.errors import DataError, IllConditionedWarning, PdmdError, PdmdWarning
from pdmd.latent import MonolithicModel, PartitionedModel, fit_partitioned
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate, spec_from_metadata
from pdmd.reduction import GlobalBasis, _gram_factors, fit_global_basis, project
from pdmd.regression import KINDS, FittedRegressor, RegressorSpec, prepare
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


def fixed_regressor(table, spec=RegressorSpec("linear")):
    return FittedRegressor(prepare(spec, FIXED_PARAMS), np.asarray(table, dtype=float))


def fixed_complex_regressor(table, spec=RegressorSpec("nearest", extrapolation="allow")):
    table = np.asarray(table)
    return FittedRegressor(
        prepare(spec, FIXED_PARAMS), np.hstack([table.real, table.imag]), True
    )


def fixed_dmd(scale):
    return DmdModel(
        reduced_op=scale * np.array([[0.5, -0.25], [0.25, 0.5]]),
        eigenvalues=scale * np.array([0.5 + 0.25j, 0.5 - 0.25j]),
        modes=np.array([[1.0, 1.0], [0.5j, -0.5j]]),
        amplitudes=np.array([0.5 - 0.5j, 0.5 + 0.5j]),
        dt=0.5,
        t0=1.0,
        proj_basis=np.eye(2),
        reduced_eigvecs=np.array([[1.0, 1.0], [1j, -1j]]),
    )


def fixed_models(spec=None):
    """One model of each kind built from fixed arrays: no fitting, so no
    LAPACK result reaches the archive bytes.  ``roi`` and ``rkoi`` read a
    regressor of ``spec`` if given, else a linear and a nearest one."""
    basis = GlobalBasis(
        np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]]), np.array([3.0, 0.5]), 0.875
    )
    roi_spec = spec or RegressorSpec("linear")
    rkoi_spec = spec or RegressorSpec("nearest", extrapolation="allow")
    stacked = DmdModel(
        reduced_op=np.array([[0.5, 0.0], [0.0, 0.25]]),
        eigenvalues=np.array([0.5 + 0j, 0.25 + 0j]),
        modes=np.arange(8.0).reshape(4, 2) + 0j,
        amplitudes=np.array([1.0 + 0j, -1.0 + 0j]),
        dt=0.5,
        t0=1.0,
        proj_basis=np.eye(4)[:, :2],
        reduced_eigvecs=np.eye(2) + 0j,
    )
    return {
        "roi": RoiModel(
            basis=basis,
            op_modes=np.arange(8.0).reshape(4, 2) / 8,
            # two operator-mode coefficients, then the initial state
            regressor=fixed_regressor(
                [[1.0, 0.5, 1.0, 0.0], [0.75, 0.25, 0.5, 0.5]], roi_spec
            ),
            dt=0.5,
            t0=1.0,
            train_residuals=np.array([1e-3, 2e-3]),
        ),
        "rkoi": RkoiModel(
            basis=basis,
            # vec(modes), then the frequencies, then the amplitudes
            regressor=fixed_complex_regressor(
                [
                    [1, 0.5j, 0.25, -1j, -0.1 + 1j, -0.1 - 1j, 1 + 1j, 1 - 1j],
                    [1, 0.25j, 0.5, -0.5j, -0.2 + 2j, -0.2 - 2j, 0.5j, -0.5j],
                ],
                rkoi_spec,
            ),
            t0=1.0,
            notes=("parameter 1: fixed note",),
        ),
        "mono": MonolithicModel(
            basis=basis,
            stacked_dmd=stacked,
            params=FIXED_PARAMS,
        ),
        "part": PartitionedModel(
            basis=basis,
            members=(fixed_dmd(1.0), fixed_dmd(0.5)),
            params=FIXED_PARAMS,
        ),
    }


FIXED_METADATA = {"offline_seconds": 0.25, "rank": 2}

# SHA-256 of save_model(fixed_models()[tag], path, FIXED_METADATA), taken
# before the per-algorithm dispatch moved into the algorithm table.
GOLDEN_SHA256 = {
    "roi": "172019a6066ba60b4bb0300c91d59e93d49cbad30632113384cccc65a5365bc5",
    "rkoi": "c1181850852089623aac1cbebd7b8cdbda2cae1900dbbcc8aa928628ba915246",
    "mono": "c0f154941894dab89085b59f1b02397ad1f1debafdaf23dfd4fbfc4820155b39",
    "part": "2ccf4babd01c85c962f9a84db4d6215d005d9ff572f75c7860d3776d57c64658",
}

# regressors whose archive entries the hashes above do not reach: the rbf
# shape, taken from the median site distance or given, and the poly degree
KIND_SPECS = {
    "rbf-gauss": RegressorSpec("rbf-gauss"),
    "rbf-tps": RegressorSpec("rbf-tps", shape=0.75),
    "poly": RegressorSpec("poly", degree=1),
}
# SHA-256 of save_model(fixed_models(KIND_SPECS[kind])[tag], path,
# FIXED_METADATA), taken while a fitted regressor still kept these entries
# in its own coefficients
GOLDEN_KIND_SHA256 = {
    ("roi", "rbf-gauss"): "4595386cb74250e364dd875f24639e022c4648a00f1aca48fbc77aa4a183af8e",
    ("rkoi", "rbf-gauss"): "9016ffdae346736960cb868b30b9d0390ba6b181a946c31d5155450115614770",
    ("roi", "rbf-tps"): "28a63e3749a329f6232fa36d4a04de68fb6cd9ffe7b6d06e178014634f2ca2d4",
    ("rkoi", "rbf-tps"): "dbde0d5b398cfbfdd4b7131edbea67fdddc1f83546faaedaa1f385428f819c63",
    ("roi", "poly"): "e92255ecdacceab024838ab1fba3fce9d09f7046d7011e0f7809dcc432c86566",
    ("rkoi", "poly"): "3f9c2de81b7e4a84162c13821b01e74fce91efdff092a6f98f15196fa1efbaec",
}


def edit_sections(raw: bytes, changes: dict) -> bytes:
    """The archive bytes with named sections rewritten: an array replaces
    the stored one, a dict updates the keys of the stored JSON object."""
    offset = len(MAGIC) + 4  # magic, version
    offset += 4 + struct.unpack_from("<I", raw, offset)[0]  # algorithm tag
    (count,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    pieces = [raw[:offset]]
    for _ in range(count):
        fields = []
        for _ in range(2):  # name, payload
            length = struct.unpack_from("<I", raw, offset)[0]
            fields.append(raw[offset + 4 : offset + 4 + length])
            offset += 4 + length
        name, payload = fields
        change = changes.get(name.decode())
        if isinstance(change, dict):
            stored = json.loads(payload[1:])
            payload = b"J" + json.dumps({**stored, **change}, sort_keys=True).encode()
        elif change is not None:
            payload = _encode_array(change)
        for field in (name, payload):
            pieces += [struct.pack("<I", len(field)), field]
    assert offset == len(raw)
    return b"".join(pieces)


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

    def test_centered_basis_rejected(self, fixed_archives, tmp_path):
        raw = fixed_archives["roi"]
        flag = b'"centered": false'
        assert raw.count(flag) == 1
        path = tmp_path / "centered.pdmdm"
        path.write_bytes(raw.replace(flag, b'"centered":  true'))
        with pytest.raises(DataError, match="centered"):
            load_model(path)


def tall_dataset():
    """N_h = 300 rows against ~100 kept factor columns, so the basis takes
    truncated_svd's QR-first path for tall matrices."""
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
        assert np.array_equal(
            predict_surrogate(fitted.model, mu, instants, fitted.regressor),
            predict_surrogate(
                loaded.model, mu, instants, spec_from_metadata(loaded.metadata)
            ),
        )
        again = tmp_path / "again.pdmdm"
        save_model(loaded.model, again, metadata=loaded.metadata)
        assert again.read_bytes() == path.read_bytes()

    def test_saved_file_is_deterministic(self, tmp_path):
        _, latent = make_latent(seed=4)
        model = fit_roi(latent, op_rank=2, spec=RegressorSpec("nearest"))
        first, second = tmp_path / "a.pdmdm", tmp_path / "b.pdmdm"
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()

    def test_regressor_state_preserved(self, tmp_path):
        _, latent = make_latent(seed=5)
        spec = RegressorSpec("rbf-gauss", shape=1.5, extrapolation="allow")
        model = fit_roi(latent, op_rank=2, spec=spec)
        path = tmp_path / "model.pdmdm"
        save_model(model, path)
        loaded = load_model(path).model
        assert loaded.regressor.sites.spec == spec
        assert_allclose(
            loaded.regressor.values,
            model.regressor.values,
            atol=0,
            rtol=0,
        )


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.pdmdm"
        path.write_bytes(b"NOTAMODEL!!" + b"\x00" * 20)
        with pytest.raises(DataError, match="not a model archive"):
            load_model(path)

    def test_truncated_archive_rejected(self, tmp_path):
        _, latent = make_latent(seed=6)
        model = fit_partitioned(latent)
        path = tmp_path / "model.pdmdm"
        save_model(model, path)
        clipped = tmp_path / "clipped.pdmdm"
        clipped.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(DataError, match="truncated"):
            load_model(clipped)

    def test_wrong_version_rejected(self, tmp_path):
        _, latent = make_latent(seed=7)
        model = fit_partitioned(latent)
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
        # the file keeps one regressor section group per quantity
        assert path.read_bytes().count(b'"coeff_keys"') == n_groups
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_model(path).model
        assert [w.category for w in caught] == [IllConditionedWarning]
        regressors = [
            value for value in vars(loaded).values() if isinstance(value, FittedRegressor)
        ]
        assert len(regressors) == 1
        assert np.array_equal(regressors[0].values, model.regressor.values)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"roi.init_reg.coeff.table": np.array([[1.0, 0.0]])},
                "roi.init_reg table of shape (1, 2) does not fit 2 sites",
            ),
            (
                {"roi.init_reg.training_params": np.array([[0.25], [0.5]])},
                "archive section 'roi.init_reg.training_params' disagrees",
            ),
            (
                {"rkoi.amp_reg.spec": {"ridge": 0.5}},
                "archive section 'rkoi.amp_reg.spec' disagrees",
            ),
            (
                {"rkoi.omega_reg.spec": {"complex_output": False}},
                "archive section 'rkoi.omega_reg.spec' disagrees",
            ),
        ],
        ids=["short-table", "other-params", "other-spec", "other-complex-flag"],
    )
    def test_regressors_off_their_sites_rejected(
        self, fixed_archives, tmp_path, capsys, changes, message
    ):
        tag = next(iter(changes)).split(".")[0]
        assert_tamper_rejected(fixed_archives[tag], changes, message, tmp_path, capsys)

    def test_stored_output_dim_off_the_table_rejected(
        self, fixed_archives, tmp_path, capsys
    ):
        raw = fixed_archives["roi"]
        stored = b'"output_dim": 2'
        assert raw.count(stored) == 2
        path = tmp_path / "tampered.pdmdm"
        path.write_bytes(raw.replace(stored, b'"output_dim": 3', 1))
        message = "table of shape (2, 2) does not fit 2 sites and 3 output channels"
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)
        assert main(["predict", "--model", str(path), "--mu", "0.5",
                     "--out", str(tmp_path / "pred.pdmd1")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tag, changes, message",
        [
            ("roi", {"roi.op_modes": np.ones((4, 3))}, "op_modes of shape (4, 3)"),
            ("roi", {"roi.op_modes": np.ones((9, 2))}, "op_modes of shape (9, 2)"),
            ("roi", {"roi.spec": {"op_rank": 3}}, "section 'roi.spec' disagrees"),
            (
                "roi",
                {
                    "roi.init_reg.spec": {"output_dim": 3},
                    "roi.init_reg.coeff.table": np.array([[1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]),
                },
                "op_modes of shape (4, 2) and 5 regressor channels",
            ),
            (
                "rkoi",
                {
                    "rkoi.mode_reg.spec": {"output_dim": 2},
                    "rkoi.mode_reg.coeff.table": np.array([[1.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.25]]),
                },
                "triplet regressor has 6 output channels, basis rank 2 needs 8",
            ),
            (
                "rkoi",
                {
                    "rkoi.omega_reg.spec": {"output_dim": 1},
                    "rkoi.omega_reg.coeff.table": np.array([[-0.1, 1.0], [-0.2, 2.0]]),
                },
                "triplet regressor has 7 output channels",
            ),
            (
                "rkoi",
                {
                    "rkoi.amp_reg.spec": {"output_dim": 3},
                    "rkoi.amp_reg.coeff.table": np.ones((2, 6)),
                },
                "triplet regressor has 9 output channels",
            ),
            (
                "mono",
                {"mono.params": np.array([[0.25], [0.5], [0.75]])},
                "stacked DMD has 4 state rows, not 3 parameters times basis rank 2",
            ),
            (
                "part",
                {"part.params": np.array([[0.25], [0.5], [0.75]])},
                "2 members of state rows [2] do not fit 3 parameters at basis rank 2",
            ),
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
        "tag, changes, section",
        [
            ("mono", {"mono.spec": {"dt": 0.25}}, "mono.spec"),
            ("mono", {"mono.spec": {"t0": 0.0}}, "mono.spec"),
            ("mono", {"mono.block_map": np.array([[0, 1], [1, 4]])}, "mono.block_map"),
            ("part", {"part.spec": {"dt": 0.25}}, "part.spec"),
            ("part", {"part.spec": {"t0": 0.0}}, "part.spec"),
            ("mono", {"mono.stacked.spec": {"rank": 7}}, "mono.stacked.spec"),
            ("part", {"part.member0.spec": {"rank": 7}, "part.member1.spec": {"rank": 7}},
             "part.member0.spec"),
            ("roi", {"roi.coeff_reg.spec": {"output_dim": 1},
                     "roi.init_reg.spec": {"output_dim": 3},
                     "roi.coeff_reg.coeff.table": np.array([[1.0], [0.75]]),
                     "roi.init_reg.coeff.table": np.array([[0.5, 1.0, 0.0], [0.25, 0.5, 0.5]])},
             "roi.coeff_reg.spec"),
            ("roi", {"roi.init_reg.coeff.xs": np.array([0.25, 0.5])}, "roi.init_reg.coeff.xs"),
        ],
        ids=["mono-dt", "mono-t0", "mono-block-map", "part-dt", "part-t0",
             "mono-dmd-rank", "part-member-ranks", "roi-groups-shifted", "roi-xs"],
    )
    def test_stored_copies_off_the_arrays_rejected(
        self, fixed_archives, tmp_path, capsys, tag, changes, section
    ):
        message = f"archive section {section!r} disagrees with the model's arrays"
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
                predict_surrogate(archive.model, [0.5], [1.0, 1.5, 2.0], RegressorSpec())
            except PdmdError:
                pass
