"""Source geometry, corruption map, augmentation views, stream mixing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_augment_views
from stamp_tta import datagen
from stamp_tta.datagen import StreamConfig
from stamp_tta.errors import ConfigError


class TestGeometry:
    def test_centroids_on_circle(self):
        c = datagen.class_centroids(4, 2)
        assert c.shape == (4, 2)
        assert np.allclose(np.linalg.norm(c, axis=1), 4.0, atol=1e-12)
        # equally spaced: consecutive angular gaps are all 90 degrees
        angles = np.arctan2(c[:, 1], c[:, 0])
        gaps = np.diff(np.unwrap(angles))
        assert np.allclose(gaps, math.pi / 2, atol=1e-12)

    def test_outlier_centroids_at_midpoint_angles(self):
        c = datagen.class_centroids(4, 2)
        o = datagen.outlier_centroids(4, 2)
        assert np.allclose(np.linalg.norm(o, axis=1), 4.0, atol=1e-12)
        # each held-out centroid is equidistant from its two neighbors
        d = np.linalg.norm(o[:, None, :] - c[None, :, :], axis=2)
        two_smallest = np.sort(d, axis=1)[:, :2]
        assert np.allclose(two_smallest[:, 0], two_smallest[:, 1], atol=1e-9)

    def test_extra_dims_are_zero(self):
        c = datagen.class_centroids(3, 5)
        assert np.allclose(c[:, 2:], 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            datagen.class_centroids(1, 2)
        with pytest.raises(ConfigError):
            datagen.class_centroids(4, 1)


class TestGenSource:
    def test_balanced_counts_exact(self):
        x, y = datagen.gen_source(4, 2, 4000, seed=0)
        assert x.shape == (4000, 2)
        assert np.array_equal(np.bincount(y), [1000, 1000, 1000, 1000])

    def test_uneven_split_balanced_within_one(self):
        _, y = datagen.gen_source(3, 2, 10, seed=0)
        counts = np.bincount(y, minlength=3)
        assert sorted(counts) == [3, 3, 4]

    def test_deterministic(self):
        a = datagen.gen_source(4, 2, 100, seed=7)
        b = datagen.gen_source(4, 2, 100, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = datagen.gen_source(4, 2, 100, seed=8)
        assert not np.array_equal(a[0], c[0])

    def test_nearest_centroid_oracle(self):
        # the clusters are tight (sigma 0.5) against spacing ~5.66, so the
        # true-centroid classifier must be nearly perfect
        x, y = datagen.gen_source(4, 2, 4000, seed=1)
        centers = datagen.class_centroids(4, 2)
        d = np.linalg.norm(x[:, None, :] - centers[None], axis=2)
        preds = np.argmin(d, axis=1)
        assert np.mean(preds == y) > 0.95

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            datagen.gen_source(4, 2, 3, seed=0)


def corrupt_noise(shape, severity, seed):
    """The seeded normal draw that corrupt adds last: sigma 0.08 per severity unit."""
    return np.random.default_rng(seed).normal(0.0, 0.08 * severity, size=shape)


def reference_corrupt(x, severity, seed):
    """corrupt's composed map written out: rotate by 9 degrees per severity unit
    in the first two coordinates, scale by 1 + 0.04 * severity, then add
    corrupt_noise."""
    theta = math.radians(9.0 * severity)
    rot = np.eye(x.shape[1])
    rot[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    return (x @ rot.T) * (1.0 + 0.04 * severity) + corrupt_noise(x.shape, severity, seed)


class TestCorrupt:
    def test_severity_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        out = datagen.corrupt(x, 0.0, seed=0)
        assert np.allclose(out, x, atol=1e-15)

    def test_deterministic(self):
        x = np.random.default_rng(1).normal(size=(10, 2))
        a = datagen.corrupt(x, 5.0, seed=3)
        b = datagen.corrupt(x, 5.0, seed=3)
        assert np.array_equal(a, b)
        c = datagen.corrupt(x, 5.0, seed=4)
        assert not np.array_equal(a, c)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 5):
            x = rng.normal(scale=3.0, size=(25, d))
            for severity, seed in ((0.0, 1), (0.5, 2), (5.0, 3), (9.0, 4)):
                want = reference_corrupt(x, severity, seed)
                assert np.allclose(datagen.corrupt(x, severity, seed), want, atol=1e-12)

    def test_rotation_only_is_isometry(self):
        # without the noise and the scale, what is left is a pure rotation
        x = np.random.default_rng(2).normal(size=(40, 2))
        out = datagen.corrupt(x, 5.0, seed=0)
        rotated = (out - corrupt_noise(x.shape, 5.0, 0)) / 1.2
        d_in = np.linalg.norm(x[:, None] - x[None], axis=2)
        d_out = np.linalg.norm(rotated[:, None] - rotated[None], axis=2)
        assert np.allclose(d_in, d_out, atol=1e-9)

    def test_rotation_angle_is_severity_scaled(self):
        x = np.array([[1.0, 0.0]])
        out = datagen.corrupt(x, 5.0, seed=0) - corrupt_noise(x.shape, 5.0, 0)
        angle = math.degrees(math.atan2(out[0, 1], out[0, 0]))
        assert angle == pytest.approx(45.0, abs=1e-9)

    def test_scale_factor(self):
        x = np.array([[1.0, 1.0]])
        out = datagen.corrupt(x, 5.0, seed=0) - corrupt_noise(x.shape, 5.0, 0)
        assert np.linalg.norm(out) == pytest.approx(1.2 * np.linalg.norm(x), abs=1e-12)

    def test_noise_magnitude(self):
        # rotation and scaling leave the origin in place
        x = np.zeros((20000, 2))
        out = datagen.corrupt(x, 5.0, seed=9)
        assert out.std() == pytest.approx(0.4, rel=0.03)

    def test_negative_severity_rejected(self):
        with pytest.raises(ConfigError):
            datagen.corrupt(np.zeros((1, 2)), -1.0, seed=0)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            datagen.corrupt(np.zeros(2), 1.0, seed=0)


class TestAugmentViews:
    def test_shape_and_determinism(self):
        x = np.array([[4.0, 0.0]])
        a = datagen.augment_views(x, 16, 1.0, seed=0, sample_id=5)
        b = datagen.augment_views(x, 16, 1.0, seed=0, sample_id=5)
        assert a.shape == (16, 2)
        assert np.array_equal(a, b)
        c = datagen.augment_views(x, 16, 1.0, seed=0, sample_id=6)
        assert not np.array_equal(a, c)
        d = datagen.augment_views(x, 16, 1.0, seed=1, sample_id=5)
        assert not np.array_equal(a, d)

    def test_strength_zero_returns_copies(self):
        x = np.array([[1.0, 2.0, 3.0]])
        views = datagen.augment_views(x, 4, 0.0, seed=0, sample_id=0)
        assert views.shape == (4, 3)
        assert np.array_equal(views, np.tile(x, (4, 1)))

    def test_views_concentrate_around_input(self):
        # rotations are symmetric around 0 and the noise is zero-mean, so the
        # view average stays near the input (radial shrink factor sin(b)/b)
        x = np.array([[4.0, 0.0]])
        views = datagen.augment_views(x, 6000, 1.0, seed=2, sample_id=0)
        b = math.radians(10.0)
        expect = np.array([4.0 * math.sin(b) / b, 0.0])
        assert np.allclose(views.mean(axis=0), expect, atol=0.02)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("input_dim", [2, 3])
    @pytest.mark.parametrize("strength", [0.0, 1.0])
    def test_batch_rows_equal_per_sample_calls(self, batch, input_dim, strength):
        x = np.random.default_rng(batch + input_dim).normal(size=(batch, input_dim)) * 3
        stack = datagen.augment_views(x, 6, strength, seed=3, sample_id=17)
        assert stack.shape == (batch * 6, input_dim)
        for i in range(batch):
            one = datagen.augment_views(x[i : i + 1], 6, strength, seed=3, sample_id=17 + i)
            assert np.array_equal(stack[i * 6 : (i + 1) * 6], one)
            ref = reference_augment_views(x[i], 6, strength, seed=3, sample_id=17 + i)
            assert np.array_equal(one, ref)

    def test_view_count_validation(self):
        with pytest.raises(ConfigError):
            datagen.augment_views(np.array([[1.0, 0.0]]), 0, 1.0, seed=0, sample_id=0)
        with pytest.raises(ValueError):  # a bare feature vector is not a batch
            datagen.augment_views(np.array([1.0, 0.0]), 4, 1.0, seed=0, sample_id=0)

    @pytest.mark.parametrize("strength", [math.inf, math.nan, 1e308])
    def test_non_finite_angle_range_rejected(self, strength):
        # numpy's uniform raises a bare OverflowError for such a range
        with pytest.raises(ConfigError, match="strength"):
            datagen.augment_views(np.array([[1.0, 0.0]]), 4, strength, seed=0, sample_id=0)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_one_word_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            datagen.augment_views(np.array([[1.0, 0.0]]), 4, 1.0, seed=seed, sample_id=0)

    @pytest.mark.parametrize("sample_id", [-1, 2**64 - 1])
    def test_sample_ids_outside_64_bits_rejected(self, sample_id):
        x = np.zeros((2, 2))  # from 2**64 - 1 the second row would be id 2**64
        with pytest.raises(ValueError, match="sample ids"):
            datagen.augment_views(x, 4, 1.0, seed=0, sample_id=sample_id)


class TestBatchSeeding:
    """The batch hash must reproduce numpy's own SeedSequence -> PCG64 seeding.

    A numpy release that changes either algorithm fails here instead of
    silently shifting every augmented view.
    """

    WINDOWS = (0, 2**31 - 4, 2**32 - 4, 2**64 - 8)  # 8 ids from each start

    @staticmethod
    def numpy_states(seed, first_id, b):
        return [
            np.random.PCG64(np.random.SeedSequence((seed, datagen._TAG_AUG, first_id + i))).state
            for i in range(b)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 13, 2**31, 2**32 - 1])
    @pytest.mark.parametrize("first_id", WINDOWS)
    def test_states_match_numpy_around_word_boundaries(self, seed, first_id):
        got = datagen._pcg64_states(seed, first_id, 8)
        assert got == self.numpy_states(seed, first_id, 8)

    def test_states_match_numpy_for_random_seeds_and_ids(self):
        rng = np.random.default_rng(20261018)
        for seed in rng.integers(0, 2**32, size=24).tolist():
            first_id = int(rng.integers(0, 2**63))
            assert datagen._pcg64_states(seed, first_id, 4) == self.numpy_states(
                seed, first_id, 4
            )
            for start in self.WINDOWS:
                assert datagen._pcg64_states(seed, start, 8) == self.numpy_states(
                    seed, start, 8
                )


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 70),
    num_views=st.integers(1, 16),
    input_dim=st.integers(2, 5),
    strength=st.sampled_from([0.0, 1e-3, 0.3, 3.5, 7.25, 90.0]),  # 90: angle range > pi
    seed=st.integers(0, 2**32 - 1),
    first_id=st.one_of(
        st.integers(0, 1000),
        st.integers(2**32 - 70, 2**32 + 70),  # batches straddling 2**32
        st.integers(0, 2**64 - 70),
    ),
    data_seed=st.integers(0, 2**31 - 1),
)
def test_augment_views_matches_reference(
    b, num_views, input_dim, strength, seed, first_id, data_seed
):
    """Every sample's views equal the per-sample SeedSequence oracle, bit for bit."""
    x = np.random.default_rng(data_seed).normal(size=(b, input_dim)) * 3
    stack = datagen.augment_views(x, num_views, strength, seed, first_id)
    assert stack.shape == (b * num_views, input_dim)
    for i in range(b):
        ref = reference_augment_views(x[i], num_views, strength, seed, first_id + i)
        assert np.array_equal(stack[i * num_views : (i + 1) * num_views], ref)


class TestGenStream:
    def _cfg(self, **kw):
        base = dict(
            num_classes=4,
            input_dim=2,
            num_samples=2000,
            batch_size=64,
            severity=5.0,
            outlier_ratio=0.2,
            outlier_mode="background-uniform",
            seed=0,
        )
        base.update(kw)
        return StreamConfig(**base)

    def test_outlier_fraction_binomial_bound(self):
        s = datagen.gen_stream(self._cfg(num_samples=10000))
        n_out = int(s.outlier.sum())
        # 5 sigma around np = 2000, sigma = sqrt(10000 * 0.2 * 0.8) = 40
        assert abs(n_out - 2000) < 200

    def test_ratio_extremes(self):
        assert datagen.gen_stream(self._cfg(outlier_ratio=0.0)).outlier.sum() == 0
        s = datagen.gen_stream(self._cfg(outlier_ratio=1.0))
        assert s.outlier.all()

    def test_labels_match_flags(self):
        s = datagen.gen_stream(self._cfg())
        assert np.all((s.labels == -1) == s.outlier)
        assert np.all(s.labels[~s.outlier] >= 0)
        assert np.all(s.labels[~s.outlier] < 4)

    def test_batching_covers_stream_in_order(self):
        s = datagen.gen_stream(self._cfg(num_samples=150, batch_size=64))
        batches = list(s.batches())
        assert len(batches) == 3
        assert [len(b) for _, b in batches] == [64, 64, 22]
        assert [start for start, _ in batches] == [0, 64, 128]
        assert np.array_equal(np.concatenate([b for _, b in batches]), s.features)

    def test_deterministic(self):
        a = datagen.gen_stream(self._cfg())
        b = datagen.gen_stream(self._cfg())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = datagen.gen_stream(self._cfg(seed=1))
        assert not np.array_equal(a.features, c.features)

    def test_held_out_outliers_sit_between_classes(self):
        s = datagen.gen_stream(
            self._cfg(outlier_mode="held-out-class", severity=0.0, num_samples=4000)
        )
        oc = datagen.outlier_centroids(4, 2)
        cc = datagen.class_centroids(4, 2)
        pts = s.features[s.outlier]
        d_out = np.linalg.norm(pts[:, None] - oc[None], axis=2).min(axis=1)
        d_cls = np.linalg.norm(pts[:, None] - cc[None], axis=2).min(axis=1)
        assert np.mean(d_out < d_cls) > 0.99

    def test_background_outliers_inside_box(self):
        s = datagen.gen_stream(self._cfg(severity=0.0, num_samples=4000))
        lo, hi = datagen._source_box(4, 2)
        pts = s.features[s.outlier]
        assert np.all(pts >= lo) and np.all(pts <= hi)

    def test_normals_follow_source_geometry_at_severity_zero(self):
        s = datagen.gen_stream(self._cfg(severity=0.0, num_samples=4000))
        cc = datagen.class_centroids(4, 2)
        pts = s.features[~s.outlier]
        labs = s.labels[~s.outlier]
        d = np.linalg.norm(pts - cc[labs], axis=1)
        # 3-sigma radial bound for 2-d isotropic sigma=0.5 holds for ~99% of draws
        assert np.mean(d < 1.5) > 0.98

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            datagen.gen_stream(self._cfg(outlier_ratio=1.5))
        with pytest.raises(ConfigError):
            datagen.gen_stream(self._cfg(outlier_mode="nope"))
        with pytest.raises(ConfigError):
            datagen.gen_stream(self._cfg(num_samples=0))
