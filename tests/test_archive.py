"""Tests for the binary model container."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdmd.algorithms import ALGORITHMS
from pdmd.archive import MAGIC, ModelArchive, load_model, save_model
from pdmd.cli import main
from pdmd.dmd import DmdModel
from pdmd.errors import DataError
from pdmd.latent import MonolithicModel, PartitionedModel, fit_partitioned
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate, spec_from_metadata
from pdmd.reduction import GlobalBasis, _gram_factors, fit_global_basis, project
from pdmd.regression import KINDS, FittedRegressor, RegressorSpec
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


def fixed_regressor(table):
    table = np.asarray(table, dtype=float)
    return FittedRegressor(
        RegressorSpec("linear"),
        np.array([[0.25], [0.75]]),
        {"xs": np.array([0.25, 0.75]), "table": table},
        table.shape[1],
        False,
    )


def fixed_complex_regressor(table):
    table = np.asarray(table)
    return FittedRegressor(
        RegressorSpec("nearest", extrapolation="allow"),
        np.array([[0.25], [0.75]]),
        {"table": np.hstack([table.real, table.imag])},
        table.shape[1],
        True,
    )


def fixed_dmd(scale):
    return DmdModel(
        rank=2,
        reduced_op=scale * np.array([[0.5, -0.25], [0.25, 0.5]]),
        eigenvalues=scale * np.array([0.5 + 0.25j, 0.5 - 0.25j]),
        modes=np.array([[1.0, 1.0], [0.5j, -0.5j]]),
        amplitudes=np.array([0.5 - 0.5j, 0.5 + 0.5j]),
        dt=0.5,
        t0=1.0,
        proj_basis=np.eye(2),
        reduced_eigvecs=np.array([[1.0, 1.0], [1j, -1j]]),
    )


def fixed_models():
    """One model of each kind built from fixed arrays: no fitting, so no
    LAPACK result reaches the archive bytes."""
    basis = GlobalBasis(
        np.array([[1.0, 0.0], [0.0, 0.6], [0.0, 0.8]]), np.array([3.0, 0.5]), 0.875
    )
    params = np.array([[0.25], [0.75]])
    stacked = DmdModel(
        rank=2,
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
            op_rank=2,
            coeff_regressor=fixed_regressor([[1.0, 0.5], [0.75, 0.25]]),
            init_regressor=fixed_regressor([[1.0, 0.0], [0.5, 0.5]]),
            dt=0.5,
            t0=1.0,
            train_residuals=np.array([1e-3, 2e-3]),
        ),
        "rkoi": RkoiModel(
            basis=basis,
            mode_regressor=fixed_complex_regressor(
                [[1, 0.5j, 0.25, -1j], [1, 0.25j, 0.5, -0.5j]]
            ),
            omega_regressor=fixed_complex_regressor(
                [[-0.1 + 1j, -0.1 - 1j], [-0.2 + 2j, -0.2 - 2j]]
            ),
            amp_regressor=fixed_complex_regressor([[1 + 1j, 1 - 1j], [0.5j, -0.5j]]),
            t0=1.0,
            notes=("parameter 1: fixed note",),
        ),
        "mono": MonolithicModel(
            basis=basis,
            stacked_dmd=stacked,
            params=params,
            block_map=((0, 2), (2, 4)),
            dt=0.5,
            t0=1.0,
        ),
        "part": PartitionedModel(
            basis=basis,
            members=(fixed_dmd(1.0), fixed_dmd(0.5)),
            params=params,
            dt=0.5,
            t0=1.0,
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
# regressor, the default for a scalar mu
ROUND_TRIP_CASES = [
    pytest.param(tag, kind, "desk", id=tag if kind == "linear" else f"{tag}-{kind}")
    for tag in ALGORITHMS
    for kind in KINDS
] + [pytest.param(tag, "linear", "tall", id=f"{tag}-tall") for tag in ALGORITHMS]


class TestRoundTrips:
    @pytest.mark.parametrize("tag, kind, data", ROUND_TRIP_CASES)
    def test_predictions_bit_identical(self, tag, kind, data, tmp_path):
        build, rank = ROUND_TRIP_DATASETS[data]
        dataset = build()
        options = FitOptions(tag, rank=rank, regressor=RegressorSpec(kind))
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
        assert loaded.coeff_regressor.spec == spec
        assert_allclose(
            loaded.coeff_regressor.coefficients["weights"],
            model.coeff_regressor.coefficients["weights"],
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

    @pytest.mark.parametrize(
        "init_regressor, message",
        [
            (fixed_regressor([[1.0, 0.0]]), "does not fit 2 sites"),
            (
                FittedRegressor(
                    RegressorSpec("linear"),
                    np.array([[0.25], [0.5]]),
                    {"xs": np.array([0.25, 0.5]), "table": np.eye(2)},
                    2,
                    False,
                ),
                "differ in spec or training parameters",
            ),
        ],
        ids=["short-table", "other-params"],
    )
    def test_regressors_off_their_sites_rejected(
        self, tmp_path, capsys, init_regressor, message
    ):
        model = fixed_models()["roi"]
        # swap the regressor in after the model checked its sites, as an
        # edited file would
        object.__setattr__(model, "init_regressor", init_regressor)
        path = tmp_path / "tampered.pdmdm"
        save_model(model, path, metadata=FIXED_METADATA)
        with pytest.raises(DataError, match=message):
            load_model(path)
        assert main(["predict", "--model", str(path), "--mu", "0.5",
                     "--out", str(tmp_path / "pred.pdmd1")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tag, name, value, message",
        [
            ("roi", "op_modes", np.ones((4, 3)), "op_modes of shape (4, 3)"),
            ("roi", "op_modes", np.ones((9, 2)), "op_modes of shape (9, 2)"),
            ("roi", "op_rank", 3, "(op_rank 3)"),
            (
                "roi",
                "init_regressor",
                fixed_regressor([[1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]),
                "initial-state regressor has 3 output channels",
            ),
            (
                "rkoi",
                "mode_regressor",
                fixed_complex_regressor([[1, 0.5j], [1, 0.25j]]),
                "mode regressor has 2 output channels, basis rank 2 needs 4",
            ),
            (
                "rkoi",
                "omega_regressor",
                fixed_complex_regressor([[-0.1 + 1j], [-0.2 + 2j]]),
                "frequency regressor has 1 output channels",
            ),
            (
                "rkoi",
                "amp_regressor",
                fixed_complex_regressor([[1, 1j, 0.5], [0.5j, -0.5j, 1]]),
                "amplitude regressor has 3 output channels",
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
        ],
    )
    def test_widths_off_the_basis_rank_rejected(
        self, tmp_path, capsys, tag, name, value, message
    ):
        model = fixed_models()[tag]
        # swap the field in after the model checked it, as an edited file would
        object.__setattr__(model, name, value)
        path = tmp_path / "tampered.pdmdm"
        save_model(model, path, metadata=FIXED_METADATA)
        with pytest.raises(DataError, match=re.escape(message)):
            load_model(path)
        assert main(["predict", "--model", str(path), "--mu", "0.5",
                     "--out", str(tmp_path / "pred.pdmd1")]) == 3
        assert message in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(
        tag=st.sampled_from(list(ALGORITHMS)),
        flips=st.lists(st.integers(min_value=0), min_size=1, max_size=8),
    )
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
