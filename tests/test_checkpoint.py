"""Checkpoint format: binary round trips, corruption detection, masks."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import edited_bytes

from tscnc.checkpoint import load_checkpoint, save_checkpoint
from tscnc.cli import main
from tscnc.errors import DimensionError, FormatError, ValidationError
from tscnc.network import MaskedLayer, build_network, forward
from tscnc.pruning import PruneSpec, apply_masks, magnitude_scores, select_mask


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
        net = build_network("mlp-5x4", (6,), 3, seed=2)
        masks = {li: net.layers[li].Z.copy() for li in (0, 2)}
        masks[0][1, 2] = False
        masks[2][:, 0] = False
        apply_masks(net, masks)
        path = tmp_path / "m.tscn"
        save_checkpoint(path, net)
        back = load_checkpoint(path).net
        assert nets_equal(net, back)
        x = np.random.default_rng(0).uniform(size=(4, 6))
        ya, _ = forward(net, x)
        yb, _ = forward(back, x)
        assert np.array_equal(ya, yb)

    def test_cnn_bitwise(self, tmp_path):
        net = build_network("cnn-4-10", (1, 6, 6), 3, seed=5)
        mask = net.layers[0].Z.copy()
        mask[2, 3] = False
        apply_masks(net, {0: mask})
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
        net = build_network("mlp-3", (4,), 2, seed=0)
        state = {"epoch": 12, "architecture": "mlp-3",
                 "config": {"dataset": "blobs-c2-d4-n5-s0.1", "seed": 9}}
        path = tmp_path / "s.tscn"
        save_checkpoint(path, net, state=state)
        ck = load_checkpoint(path)
        assert ck.state["epoch"] == 12
        assert ck.state["architecture"] == "mlp-3"
        assert ck.state["config"]["seed"] == 9

    def test_no_state_loads_clean(self, tmp_path):
        net = build_network("mlp", (3,), 2, seed=1)
        path = tmp_path / "n.tscn"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert "momentum" not in ck.state
        assert nets_equal(net, ck.net)


class TestMaskEncoding:
    def test_pack_order_is_lsb_first(self, tmp_path):
        # mask flat pattern 1,0,1,1 must land in one byte as 0b00001101
        net = build_network("mlp", (2,), 2, seed=0)
        net.layers[0].W = np.zeros((2, 2))
        net.layers[0].b = np.zeros(2)
        apply_masks(net, {0: np.array([[True, False], [True, True]])})
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
            net = build_network("mlp-6x5", (7,), 4, seed=trial)
            apply_masks(net, {li: rng.uniform(size=net.layers[li].Z.shape) > 0.5
                              for li in net.parameterized_indices()})
            path = tmp_path / f"t{trial}.tscn"
            save_checkpoint(path, net)
            back = load_checkpoint(path).net
            for li in net.parameterized_indices():
                assert np.array_equal(back.layers[li].Z, net.layers[li].Z)


class TestCorruption:
    def _saved(self, tmp_path):
        net = build_network("mlp-4", (5,), 3, seed=7)
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


def payload_start(path):
    """File offset of the first payload byte: past the header and its CRC."""
    return 12 + struct.unpack("<I", path.read_bytes()[8:12])[0] + 4


def rewrite_payload(path, offset, data):
    """Write data at offset, inserting it when offset is the payload CRC's,
    and store a fresh payload CRC."""
    raw = path.read_bytes()
    end = len(raw) - 4
    tail = raw[offset + len(data) : end] if offset < end else b""
    payload = raw[payload_start(path) : offset] + data + tail
    path.write_bytes(raw[: payload_start(path)] + payload
                     + struct.pack("<I", zlib.crc32(payload)))


class TestFreshPayloadCrc:
    """Payload edits under a recomputed CRC are caught by the payload reads."""

    def test_trailing_payload_bytes(self, tmp_path):
        path = tmp_path / "m.tscn"
        save_checkpoint(path, build_network("mlp-4", (5,), 3, seed=7))
        end = len(path.read_bytes()) - 4
        rewrite_payload(path, end, b"\x00" * 8)
        with pytest.raises(FormatError, match="8 unexpected trailing bytes") as err:
            load_checkpoint(path)
        assert err.value.offset == end

    # file offsets, from the payload start, of the blobs of "mlp-4" on (5,)
    # with 3 classes: layer 0's W (5x4), b (4), 3-byte mask, then layer 2's
    # W (4x3)
    @pytest.mark.parametrize("start, index", [
        (0, 7), (160, 2), (195, 11),
    ], ids=["W", "b", "second-layer-W"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_at_its_blob_offset(self, tmp_path, capsys, start,
                                                 index, value):
        path = tmp_path / "m.tscn"
        save_checkpoint(path, build_network("mlp-4", (5,), 3, seed=7))
        blob = payload_start(path) + start
        rewrite_payload(path, blob + 8 * index, struct.pack("<d", value))
        with pytest.raises(FormatError, match="non-finite") as err:
            load_checkpoint(path)
        assert err.value.offset == blob
        for argv in (["inspect"], ["evaluate", "--data", "blobs-c3-d5-n4-s0.1",
                                   "--attacks", "fgsm:0.1"]):
            assert main(["--quiet", *argv, "--checkpoint", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"data format error at offset {blob}: ")
            assert err.count("\n") == 1


def _refuse_to_open(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("save_checkpoint opened the file")
    monkeypatch.setattr("tscnc.checkpoint.atomic_open", refuse)


class TestNonFiniteSave:
    """save_checkpoint refuses what load_checkpoint would refuse, before it
    opens anything at the path."""

    @pytest.mark.parametrize("li, key, name", [
        (0, "W", "layer 0 weights"), (0, "b", "layer 0 bias"),
        (2, "W", "layer 2 weights"),
    ], ids=["W", "b", "second-layer-W"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_and_leaves_existing_file(self, tmp_path, monkeypatch, li,
                                             key, name, value):
        net = build_network("mlp-4", (5,), 3, seed=7)
        path = tmp_path / "m.tscn"
        save_checkpoint(path, net)
        before = path.read_bytes()
        vars(net.layers[li])[key].flat[1] = value
        _refuse_to_open(monkeypatch)
        with pytest.raises(ValidationError, match=f"non-finite value in {name}$"):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tscn"]


def _misfit_layers(net):
    # layer 2 takes 3 inputs; layer 0 gives 4
    net.layers[2] = MaskedLayer(kind="linear", W=np.ones((3, 3)), b=np.zeros(3))


def _misfit_class_count(net):
    net.class_count = 4


def _no_parameterized_layer(net):
    net.layers = [l for l in net.layers if not l.parameterized]


def _zero_kernel(net):
    net.layers = [MaskedLayer(kind="conv2d", W=np.ones((2, 9)), b=np.zeros(2),
                              kernel_size=0), MaskedLayer(kind="flatten")]


def _momentum_state(net):
    # optimizer velocity is not a checkpoint state key
    return {"epoch": 1, "momentum": {
        li: {"W": np.zeros_like(net.layers[li].W),
             "b": np.zeros_like(net.layers[li].b)}
        for li in net.parameterized_indices()}}


class TestSaveRefusesWhatLoadRefuses:
    """A network whose file would not load, or a state key the file does not
    hold, is refused before the file is opened, so a file already at path is
    left as it was.  Each edit changes the net in place or returns the state
    to save."""

    @pytest.mark.parametrize("edit, error, message", [
        (_misfit_layers, DimensionError, r"linear layer expects \(3,\), got \(4,\)"),
        (_misfit_class_count, DimensionError, r"output shape \(3,\), expected \(4,\)"),
        (_no_parameterized_layer, ValidationError, "no parameterized layer"),
        (_zero_kernel, DimensionError, "kernel_size must be >= 1, got 0"),
        (_momentum_state, ValidationError,
         r"unknown checkpoint state keys: \['momentum'\]"),
    ], ids=["layers-misfit", "class-count-misfit", "no-parameterized-layer",
            "zero-kernel", "momentum-state"])
    def test_raises_and_leaves_existing_file(self, tmp_path, monkeypatch, edit,
                                             error, message):
        net = build_network("mlp-4", (5,), 3, seed=7)
        path = tmp_path / "m.tscn"
        save_checkpoint(path, net)
        before = path.read_bytes()
        state = edit(net)
        _refuse_to_open(monkeypatch)
        with pytest.raises(error, match=message):
            save_checkpoint(path, net, state=state)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tscn"]


_DROP = object()


def rewrite_header(path, edit):
    """Apply edit to the header of the checkpoint at path; fix length and CRC.

    edit changes the header dict in place or returns a replacement: any
    JSON value, or raw bytes written as the header as they are.
    """
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + hlen])
    replaced = edit(header)
    header = header if replaced is None else replaced
    hbytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes
                     + struct.pack("<I", zlib.crc32(hbytes))
                     + raw[12 + hlen + 4 :])


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


def _unparameterized(path):
    """Rewrite path, by hand from the documented layout, as a checkpoint of
    its relu and flatten layers only: magic, version, header length, header,
    header CRC, an empty payload and its CRC.  save_checkpoint refuses to
    write such a network."""
    raw = path.read_bytes()
    header = json.loads(raw[12 : 12 + struct.unpack("<I", raw[8:12])[0]])
    header["layers"] = [d for d in header["layers"] if not d["prunable"]]
    hbytes = json.dumps(header).encode()
    path.write_bytes(b"TSCN" + struct.pack("<II", 1, len(hbytes)) + hbytes
                     + struct.pack("<II", zlib.crc32(hbytes), zlib.crc32(b"")))


class TestHeaderSchema:
    """Headers with a valid checksum but a bad schema are format errors at
    the header's offset, 12.  The loader checks the declared input by shape
    arithmetic alone, so no input size allocates anything."""

    @pytest.mark.parametrize("edit", [
        lambda h: [h],
        lambda h: b"{not json",
        lambda h: b"[" * 100000 + b"]" * 100000,
        _with("momentum"),
        _with("momentum", value=0),
        _with("momentum", value=True),
        _with("layers", value={"0": {"kind": "conv2d"}}),
        _unparameterized,
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
        _with("input_shape", value=[10 ** 12]),
        _with("input_shape", value=[1, 10 ** 6, 10 ** 6]),
        _with("input_shape", value=[1, 600, 600]),
    ], ids=[
        "not-an-object", "not-json", "deeply-nested", "no-momentum",
        "momentum-not-bool", "momentum-true", "layers-not-a-list", "no-parameterized-layer",
        "no-w_shape", "negative-w_shape", "float-w_shape", "b_len-mismatch",
        "unknown-kind", "kernel-mismatch", "zero-stride", "no-prunable",
        "flat-input-shape", "channel-misfit", "zero-input-shape",
        "class-count-misfit", "huge-flat-input", "huge-image-input",
        "large-image-input",
    ])
    def test_rejected_with_fresh_crc(self, tmp_path, capsys, edit):
        path = tmp_path / "c.tscn"
        save_checkpoint(path, build_network("cnn-4-10", (1, 6, 6), 3, seed=5))
        if edit is _unparameterized:
            # the header lists no blob and the payload is empty
            _unparameterized(path)
        else:
            rewrite_header(path, edit)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 12
        if edit is _unparameterized:
            assert str(err.value).endswith("no parameterized layer")
        assert main(["--quiet", "inspect", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data format error at offset 12: ")
        assert err.count("\n") == 1

    def test_loading_builds_no_gather_plan(self, tmp_path):
        # composition is checked by shapes; the first forward builds the plan
        path = tmp_path / "c.tscn"
        save_checkpoint(path, build_network("cnn-2x3-10", (1, 6, 6), 3, seed=5))
        net = load_checkpoint(path).net
        convs = [l for l in net.layers if l.kind == "conv2d"]
        assert len(convs) == 2 and all(not l._plan for l in convs)
        forward(net, np.zeros((1, 1, 6, 6)))
        assert all(list(l._plan) == [(6, 6)] for l in convs)


class TestPrunableFlag:
    """Every linear and conv layer is prunable: the loader checks that the
    header's "prunable" is a bool and reads nothing more from it."""

    def test_false_flag_loads_prunable(self, tmp_path):
        path = tmp_path / "m.tscn"
        save_checkpoint(path, build_network("mlp-3", (4,), 2, seed=0))
        rewrite_header(path, _with("layers", 2, "prunable", value=False))
        net = load_checkpoint(path).net
        masks = select_mask(net, magnitude_scores(net),
                            PruneSpec(0.5, scope="per_layer"))
        assert sorted(masks) == [0, 2]
        assert int((~masks[2]).sum()) == 3
        # written again, the flag is true exactly for linear and conv layers
        save_checkpoint(path, net)
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[8:12])[0]
        layers = json.loads(raw[12 : 12 + hlen])["layers"]
        assert [l["prunable"] for l in layers] == [True, False, True]


class TestOffsets:
    """FormatError.offset is a file position: the field at fault, or the byte
    where a short file ends."""

    def test_payload_shorter_than_the_header_claims(self, tmp_path):
        # the payload starts after the header; the read runs out where the
        # payload CRC begins
        path = tmp_path / "m.tscn"
        save_checkpoint(path, build_network("mlp-4", (5,), 3, seed=7))

        def widen(header):
            header["layers"][0].update(w_shape=[5, 400], b_len=400)

        rewrite_header(path, widen)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == len(path.read_bytes()) - 4

    def test_file_ending_inside_the_header(self, tmp_path):
        path = tmp_path / "m.tscn"
        save_checkpoint(path, build_network("mlp-4", (5,), 3, seed=7))
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 40


# Hypothesis: every edit of a saved checkpoint is a FormatError inside the
# file, and nothing else escapes.  Shape-like integers are 0-8 or at least
# 10**12, never sizes that would really be allocated.
_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=150,
                     suppress_health_check=[HealthCheck.too_slow])
_INT = st.integers(-2, 8) | st.integers(min_value=10 ** 12)
_JSON = st.lists(_INT, min_size=1, max_size=3) | st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | _INT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="module", params=["mlp", "cnn"])
def saved(request, tmp_path_factory):
    """A saved checkpoint: its path and its bytes."""
    net = (build_network("mlp-4", (5,), 3, seed=7) if request.param == "mlp"
           else build_network("cnn-2-4", (1, 6, 6), 3, seed=5))
    path = tmp_path_factory.mktemp(request.param) / "base.tscn"
    save_checkpoint(path, net, state={"epoch": 3, "architecture": "x"})
    return path, path.read_bytes()


class TestProperties:
    @_SETTINGS
    @given(data=st.data())
    def test_any_byte_edit_is_a_format_error(self, saved, data):
        path, raw = saved
        edited = data.draw(edited_bytes(raw))
        target = path.with_name("edited.tscn")
        target.write_bytes(edited)
        with pytest.raises(FormatError) as err:
            load_checkpoint(target)
        assert 0 <= err.value.offset <= len(edited)

    @_SETTINGS
    @given(data=st.data(), value=_JSON)
    def test_any_header_field_loads_or_is_a_format_error(self, saved, data,
                                                          value):
        path, raw = saved
        hlen = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12 : 12 + hlen])
        fields = [(key,) for key in header]
        fields += [("layers", li, key)
                   for li, desc in enumerate(header["layers"]) for key in desc]
        keys = data.draw(st.sampled_from(fields))
        target = path.with_name("edited.tscn")
        target.write_bytes(raw)
        rewrite_header(target, _with(*keys, value=value))
        try:
            load_checkpoint(target)
        except FormatError as exc:
            assert 0 <= exc.offset <= len(target.read_bytes())
