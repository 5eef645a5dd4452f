"""Dataset loading: IDX files, synthetic blobs, and the id registry."""

import struct

import numpy as np
import pytest

from tscnc.data import load_dataset, load_idx, synth_blobs
from tscnc.errors import FormatError, ValidationError


def write_idx_images(path, arrays):
    """Big-endian IDX image file from a list of uint8 (rows, cols) arrays."""
    rows, cols = arrays[0].shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, len(arrays), rows, cols))
        for a in arrays:
            f.write(a.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(bytes(int(v) for v in labels))


class TestLoadIdx:
    def test_round_trip_values(self, tmp_path):
        # endpoints 0 and 255 must map exactly to 0.0 and 1.0
        img = np.array([[0, 255, 128], [17, 64, 200]], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, [img])
        write_idx_labels(lp, [3])
        ds = load_idx(ip, lp)
        assert ds.images.shape == (1, 1, 2, 3)
        assert ds.images.dtype == np.float64
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 0, 1] == 1.0
        assert ds.images[0, 0, 0, 2] == 128.0 / 255.0
        assert ds.labels.tolist() == [3]
        assert ds.classes == 4

    def test_multiple_records(self, tmp_path):
        rng = np.random.default_rng(5)
        frames = [rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
                  for _ in range(7)]
        labels = [0, 1, 2, 1, 0, 2, 1]
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, frames)
        write_idx_labels(lp, labels)
        ds = load_idx(ip, lp)
        assert len(ds) == 7
        for i, frame in enumerate(frames):
            assert np.array_equal(ds.images[i, 0], frame / 255.0)
        assert ds.labels.tolist() == labels

    def test_bad_image_magic(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000804, 1, 2, 2))
            f.write(b"\x00" * 4)
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 0

    def test_bad_label_magic(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, [np.zeros((2, 2), dtype=np.uint8)])
        with open(lp, "wb") as f:
            f.write(struct.pack(">ii", 0x00000803, 1))
            f.write(b"\x00")
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as f:
            f.write(b"\x00\x00\x08")
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 3

    def test_truncated_payload(self, tmp_path):
        # header promises 2 frames of 2x2 but the file carries 6 of 8 bytes
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
            f.write(b"\x01" * 6)
        write_idx_labels(lp, [0, 1])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 16 + 6

    def test_empty_file(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(b"")
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 0

    @pytest.mark.parametrize("n,rows,cols,offset", [
        (0, 2, 2, 4), (-3, 2, 2, 4), (1, 0, 2, 8), (1, 2, -1, 12),
    ])
    def test_image_header_below_one(self, tmp_path, n, rows, cols, offset):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
            f.write(b"\x00" * 64)
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == offset

    def test_huge_header_is_truncation(self, tmp_path):
        # 2^93 bytes promised: rejected before any read or allocation
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as f:
            f.write(struct.pack(">iiii", 0x00000803, *[2 ** 31 - 1] * 3))
            f.write(b"\x00" * 5)
        write_idx_labels(lp, [0])
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 16 + 5

    @pytest.mark.parametrize("count", [0, -1])
    def test_label_count_below_one(self, tmp_path, count):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, [np.zeros((2, 2), dtype=np.uint8)])
        with open(lp, "wb") as f:
            f.write(struct.pack(">ii", 0x00000801, count))
            f.write(b"\x00")
        with pytest.raises(FormatError) as err:
            load_idx(ip, lp)
        assert err.value.offset == 4

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, [np.zeros((2, 2), dtype=np.uint8)] * 3)
        write_idx_labels(lp, [0, 1])
        with pytest.raises(FormatError):
            load_idx(ip, lp)


class TestSynthBlobs:
    def test_zero_spread_hits_centers_exactly(self):
        ds = synth_blobs(classes=3, dim=6, n_per_class=4, spread=0.0, seed=1)
        assert ds.images.shape == (12, 6)
        assert ds.labels.shape == (12,)
        for k in range(3):
            expected = np.where(np.arange(6) % 3 == k, 0.8, 0.2)
            rows = ds.images[ds.labels == k]
            assert rows.shape[0] == 4
            assert np.array_equal(rows, np.tile(expected, (4, 1)))

    def test_values_stay_in_unit_interval(self):
        ds = synth_blobs(classes=4, dim=8, n_per_class=50, spread=0.9, seed=2)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_seed_determinism(self):
        a = synth_blobs(classes=3, dim=9, n_per_class=10, spread=0.1, seed=42)
        b = synth_blobs(classes=3, dim=9, n_per_class=10, spread=0.1, seed=42)
        c = synth_blobs(classes=3, dim=9, n_per_class=10, spread=0.1, seed=43)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_image_shape(self):
        ds = synth_blobs(classes=2, dim=2 * 3 * 3, n_per_class=5, spread=0.05,
                         seed=0, image_shape=(2, 3, 3))
        assert ds.images.shape == (10, 2, 3, 3)
        flat = synth_blobs(classes=2, dim=2 * 3 * 3, n_per_class=5,
                           spread=0.05, seed=0)
        assert np.array_equal(ds.images.reshape(10, -1), flat.images)

    def test_image_shape_size_mismatch(self):
        with pytest.raises(ValidationError):
            synth_blobs(classes=2, dim=10, n_per_class=3, spread=0.0, seed=0,
                        image_shape=(3, 3))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            synth_blobs(classes=1, dim=4, n_per_class=3, spread=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_blobs(classes=3, dim=2, n_per_class=3, spread=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_blobs(classes=2, dim=4, n_per_class=0, spread=0.1, seed=0)
        with pytest.raises(ValidationError):
            synth_blobs(classes=2, dim=4, n_per_class=3, spread=-0.1, seed=0)

    def test_linearly_separable_at_small_spread(self):
        # a softmax regression fit by plain gradient descent should nail the
        # class structure; this guards the center layout end to end
        ds = synth_blobs(classes=3, dim=9, n_per_class=40, spread=0.05, seed=9)
        x, y = ds.images, ds.labels
        n = len(ds)
        w = np.zeros((9, 3))
        b = np.zeros(3)
        onehot = np.eye(3)[y]
        for _ in range(100):
            z = x @ w + b
            z = z - z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot) / n
            w -= 2.0 * (x.T @ g)
            b -= 2.0 * g.sum(axis=0)
        acc = float((np.argmax(x @ w + b, axis=1) == y).mean())
        assert acc >= 0.99


class TestLoadDataset:
    def test_blobs_id_parses(self):
        ds = load_dataset("blobs-c3-d12-n20-s0.05", seed=4)
        assert ds.images.shape == (60, 12)
        assert ds.classes == 3
        same = load_dataset("blobs-c3-d12-n20-s0.05", seed=4)
        assert np.array_equal(ds.images, same.images)

    def test_blobs_id_with_image_shape(self):
        ds = load_dataset("blobs-c2-d18-n10-s0.1-i2x3x3", seed=0)
        assert ds.images.shape == (20, 2, 3, 3)

    def test_idx_id(self, tmp_path):
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        write_idx_images(ip, [np.full((3, 3), 255, dtype=np.uint8)])
        write_idx_labels(lp, [1])
        ds = load_dataset(f"idx:{ip}:{lp}")
        assert ds.images.shape == (1, 1, 3, 3)
        assert np.all(ds.images == 1.0)

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            load_dataset("mnist")
        with pytest.raises(ValidationError):
            load_dataset("blobs-c3")

    @pytest.mark.parametrize("spread", ["0.0.5", ".", "1..2", "0.5."])
    def test_malformed_spread_is_unknown(self, spread):
        with pytest.raises(ValidationError, match="unknown dataset id"):
            load_dataset(f"blobs-c3-d16-n20-s{spread}")

    def test_spread_spellings(self):
        for spread in ("5", "0.5", ".5", "5."):
            ds = load_dataset(f"blobs-c2-d4-n3-s{spread}")
            assert ds.images.shape == (6, 4)
