"""Checkpoint format: binary round trips, corruption detection, masks."""

import json
import struct
import zlib

import numpy as np
import pytest

from tscnc.checkpoint import load_checkpoint, save_checkpoint
from tscnc.cli import main
from tscnc.errors import FormatError
from tscnc.network import build_cnn, build_mlp, forward


def nets_equal(a, b):
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.kind != lb.kind:
            return False
        if la.parameterized:
            if not (np.array_equal(la.W, lb.W) and np.array_equal(la.b, lb.b)
                    and np.array_equal(la.Z, lb.Z)):
                return False
    return True


class TestRoundTrip:
    def test_mlp_bitwise(self, tmp_path):
        net = build_mlp(6, [5, 4], 3, seed=2)
        net.layers[0].Z[1, 2] = 0.0
        net.layers[2].Z[:, 0] = 0.0
        path = tmp_path / "m.tscn"
        save_checkpoint(path, net)
        back = load_checkpoint(path).net
        assert nets_equal(net, back)
        x = np.random.default_rng(0).uniform(size=(4, 6))
        ya, _ = forward(net, x)
        yb, _ = forward(back, x)
        assert np.array_equal(ya, yb)

    def test_cnn_bitwise(self, tmp_path):
        net = build_cnn((1, 6, 6), [4], 10, 3, seed=5)
        net.layers[0].Z[2, 3] = 0.0
        path = tmp_path / "c.tscn"
        save_checkpoint(path, net)
        back = load_checkpoint(path).net
        assert nets_equal(net, back)
        assert back.input_shape == (1, 6, 6)
        x = np.random.default_rng(1).uniform(size=(2, 1, 6, 6))
        ya, _ = forward(net, x)
        yb, _ = forward(back, x)
        assert np.array_equal(ya, yb)

    def test_state_round_trip(self, tmp_path):
        net = build_mlp(4, [3], 2, seed=0)
        momentum = {
            li: {"W": np.full_like(net.layers[li].W, 0.25),
                 "b": np.full_like(net.layers[li].b, -0.5)}
            for li in net.parameterized_indices()
        }
        state = {"epoch": 12, "architecture": "mlp-3",
                 "config": {"dataset": "blobs-c2-d4-n5-s0.1", "seed": 9},
                 "momentum": momentum}
        path = tmp_path / "s.tscn"
        save_checkpoint(path, net, state=state)
        ck = load_checkpoint(path)
        assert ck.state["epoch"] == 12
        assert ck.state["architecture"] == "mlp-3"
        assert ck.state["config"]["seed"] == 9
        for li, blob in momentum.items():
            assert np.array_equal(ck.state["momentum"][li]["W"], blob["W"])
            assert np.array_equal(ck.state["momentum"][li]["b"], blob["b"])

    def test_no_state_loads_clean(self, tmp_path):
        net = build_mlp(3, [], 2, seed=1)
        path = tmp_path / "n.tscn"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert "momentum" not in ck.state
        assert nets_equal(net, ck.net)


class TestMaskEncoding:
    def test_pack_order_is_lsb_first(self, tmp_path):
        # mask flat pattern 1,0,1,1 must land in one byte as 0b00001101
        net = build_mlp(2, [], 2, seed=0)
        net.layers[0].Z = np.array([[1.0, 0.0], [1.0, 1.0]])
        net.layers[0].W = np.zeros((2, 2))
        net.layers[0].b = np.zeros(2)
        path = tmp_path / "p.tscn"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[8:12])[0]
        payload = raw[12 + hlen + 4 : -4]
        # payload: 4 weights then 2 biases as little-endian f8, then the mask
        mask_byte = payload[6 * 8]
        assert mask_byte == 0b00001101
        back = load_checkpoint(path).net
        assert np.array_equal(back.layers[0].Z, net.layers[0].Z)

    def test_all_masks_survive(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(5):
            net = build_mlp(7, [6, 5], 4, seed=trial)
            for li in net.prunable_indices():
                z = (rng.uniform(size=net.layers[li].Z.shape) > 0.5)
                net.layers[li].Z = z.astype(np.float64)
            path = tmp_path / f"t{trial}.tscn"
            save_checkpoint(path, net)
            back = load_checkpoint(path).net
            for li in net.prunable_indices():
                assert np.array_equal(back.layers[li].Z, net.layers[li].Z)


class TestCorruption:
    def _saved(self, tmp_path):
        net = build_mlp(5, [4], 3, seed=7)
        path = tmp_path / "x.tscn"
        save_checkpoint(path, net)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupted_header_byte(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[14] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupted_payload_byte(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        hlen = struct.unpack("<I", raw[8:12])[0]
        raw[12 + hlen + 4 + 3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "y.tscn"
        path.write_bytes(b"hello world, definitely not a model")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_crc_actually_guards_header(self, tmp_path):
        # flipping a header byte and fixing the length back must still fail
        # because the stored checksum no longer matches
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        hlen = struct.unpack("<I", raw[8:12])[0]
        header = raw[12 : 12 + hlen]
        stored = struct.unpack("<I", raw[12 + hlen : 12 + hlen + 4])[0]
        assert stored == zlib.crc32(bytes(header))
        raw[13] ^= 0x02
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)


_DROP = object()


def _with(*keys, value=_DROP):
    """Header edit that sets (or, by default, deletes) the value at keys."""
    def edit(header):
        *parents, last = keys
        for key in parents:
            header = header[key]
        if value is _DROP:
            del header[last]
        else:
            header[last] = value
    return edit


class TestHeaderSchema:
    """Headers with a valid checksum but a bad schema are format errors."""

    @pytest.mark.parametrize("edit", [
        lambda h: [h],
        lambda h: b"{not json",
        _with("momentum"),
        _with("momentum", value=0),
        _with("layers", value={"0": {"kind": "conv2d"}}),
        _with("layers", value=[{"kind": "relu"}]),
        _with("layers", 0, "w_shape"),
        _with("layers", 0, "w_shape", value=[-1, 2]),
        _with("layers", 0, "w_shape", value=[4.0, 9]),
        _with("layers", 0, "b_len", value=3),
        _with("layers", 1, "kind", value="pool"),
        _with("layers", 0, "kernel_size", value=2),
        _with("layers", 0, "stride", value=0),
        _with("layers", 3, "prunable"),
        _with("input_shape", value=[36]),
        _with("input_shape", value=[2, 6, 6]),
        _with("input_shape", value=[1, 0, 6]),
        _with("class_count", value=4),
    ], ids=[
        "not-an-object", "not-json", "no-momentum", "momentum-not-bool",
        "layers-not-a-list", "no-parameterized-layer", "no-w_shape",
        "negative-w_shape", "float-w_shape", "b_len-mismatch", "unknown-kind",
        "kernel-mismatch", "zero-stride", "no-prunable", "flat-input-shape",
        "channel-misfit", "zero-input-shape", "class-count-misfit",
    ])
    def test_rejected_with_fresh_crc(self, tmp_path, edit):
        path = tmp_path / "c.tscn"
        save_checkpoint(path, build_cnn((1, 6, 6), [4], 10, 3, seed=5))
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12 : 12 + hlen])
        replaced = edit(header)
        header = header if replaced is None else replaced
        hbytes = header if isinstance(header, bytes) else json.dumps(header).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                         + struct.pack("<I", zlib.crc32(hbytes))
                         + raw[12 + hlen + 4 :])
        with pytest.raises(FormatError):
            load_checkpoint(path)
        assert main(["--quiet", "inspect", "--checkpoint", str(path)]) == 3
