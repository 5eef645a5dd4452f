"""Checkpoint persistence for masked networks and optimizer state.

Layout: 4-byte magic, u32 format version, u32 header length, JSON header,
u32 CRC32 of the header, then one blob per parameterized layer (weights and
bias as little-endian float64, the mask as a bitmap packed
least-significant-bit first), optional momentum blobs, and a final u32
CRC32 over all payload bytes.  A reloaded network reproduces forward
outputs bitwise; weights stored under a 0 mask bit load as +0.0.  The
derived "prunable" flag and conv channel counts are written and checked.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import read_array
from .errors import DimensionError, FormatError, ValidationError
from .metrics_io import atomic_open
from .network import MaskedLayer, Network

MAGIC = b"TSCN"
VERSION = 1
# a conv layer's geometry, in its descriptor; pad alone may be 0
_CONV_KEYS = ("kernel_size", "stride", "pad", "in_channels", "out_channels")


@dataclass
class Checkpoint:
    net: Network
    state: dict


def _weight_bytes(arr, what: str) -> bytes:
    """arr as little-endian float64 bytes; a NaN or infinity, which
    load_checkpoint would refuse, is a ValidationError naming what."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if not np.isfinite(arr).all():
        raise ValidationError(f"cannot save a non-finite value in {what}")
    return arr.tobytes()


def _mask_bytes(mask) -> bytes:
    return np.packbits(mask, axis=None, bitorder="little").tobytes()


def _layer_descriptor(layer: MaskedLayer) -> dict:
    d = {"kind": layer.kind, "prunable": layer.parameterized}
    if layer.parameterized:
        d["w_shape"] = list(layer.W.shape)
        d["b_len"] = int(layer.b.size)
    if layer.kind == "conv2d":
        d.update({key: getattr(layer, key) for key in _CONV_KEYS})
    return d


def save_checkpoint(path, net: Network, state: dict | None = None) -> None:
    """Write the network and optional trainer state to one binary file.

    state may carry "epoch", "architecture", "config", and "momentum" (a
    dict of per-layer {"W": array, "b": array} velocity tensors).  A NaN or
    infinite value, or a momentum entry missing, shaped unlike its layer or
    keyed by no parameterized layer, is a ValidationError naming it, raised
    before the file is opened, so a file already at path is left as it was.
    """
    state = state or {}
    momentum = state.get("momentum")
    header = {
        "format": "tscnc-checkpoint",
        "architecture": state.get("architecture"),
        "input_shape": list(net.input_shape),
        "class_count": net.class_count,
        "epoch": state.get("epoch"),
        "config": state.get("config"),
        "layers": [_layer_descriptor(l) for l in net.layers],
        "momentum": momentum is not None,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    for key in momentum or ():
        if key not in net.parameterized_indices():
            raise ValidationError(f"momentum key {key!r} is not a parameterized layer")
    payload = bytearray()
    for li, layer in enumerate(net.layers):
        if not layer.parameterized:
            continue
        payload += _weight_bytes(layer.W, f"layer {li} weights")
        payload += _weight_bytes(layer.b, f"layer {li} bias")
        payload += _mask_bytes(layer.Z)
        if momentum is not None:
            entry = momentum.get(li) or {}
            for key, what in (("W", "weight"), ("b", "bias")):
                want, got = getattr(layer, key).shape, np.shape(entry.get(key))
                if got != want:
                    raise ValidationError(
                        f"layer {li} {what} momentum has shape {got}, not {want}"
                        if key in entry else f"layer {li} has no {what} momentum")
                payload += _weight_bytes(entry[key], f"layer {li} {what} momentum")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        f.write(struct.pack("<I", zlib.crc32(hbytes)))
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def _floats(buf, pos, shape, path):
    """A writable, finite float64 array of shape read at pos, and the offset
    past it; a NaN or infinity is a FormatError at pos."""
    arr, end = read_array(buf, pos, "<f8", math.prod(shape), path)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite value in a float blob", offset=pos)
    return arr.reshape(shape).copy(), end


def _field(d, key, kind, path, low=None):
    """d[key] if it has JSON type kind (and is at least low); else FormatError."""
    value = d.get(key) if isinstance(d, dict) else None
    ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok or (low is not None and value < low):
        need = kind.__name__ + ("" if low is None else f" >= {low}")
        raise FormatError(f"{path}: header field {key!r} must be {need}", offset=12)
    return value


def _shape(d, key, path, ndim=None):
    shape = _field(d, key, list, path)
    positive = all(isinstance(s, int) and not isinstance(s, bool) and s >= 1
                   for s in shape)
    if not shape or not positive or ndim not in (None, len(shape)):
        raise FormatError(f"{path}: header field {key!r} must list "
                          f"{ndim or 'some'} positive integers", offset=12)
    return tuple(shape)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; validates both CRCs.

    Every FormatError offset is a file position: the field at fault, or the
    byte where a short file ends.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file", offset=0)
    (version, hlen), off = read_array(raw, 4, "<u4", 2, path)
    if version != VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint version {version}", offset=4
        )
    hbytes, off = read_array(raw, off, np.uint8, int(hlen), path)
    (hcrc,), off = read_array(raw, off, "<u4", 1, path)
    if hcrc != zlib.crc32(hbytes):
        raise FormatError(f"{path}: header checksum mismatch", offset=12)
    try:
        header = json.loads(hbytes.tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: header is not JSON: {exc}", offset=12) from exc
    # the payload ends where its CRC, the file's last 4 bytes, begins
    (pcrc,), _ = read_array(raw, max(off, len(raw) - 4), "<u4", 1, path)
    payload = memoryview(raw)[: len(raw) - 4]
    if pcrc != zlib.crc32(payload[off:]):
        raise FormatError(f"{path}: payload checksum mismatch", offset=off)

    layers = []
    momentum = {} if _field(header, "momentum", bool, path) else None
    pos = off
    for li, desc in enumerate(_field(header, "layers", list, path)):
        kind = _field(desc, "kind", str, path)
        if kind in ("relu", "flatten"):
            layers.append(MaskedLayer(kind=kind))
            continue
        if kind not in ("linear", "conv2d"):
            raise FormatError(f"{path}: unknown layer kind {kind!r}", offset=12)
        shape = _shape(desc, "w_shape", path, ndim=2)
        b_len = _field(desc, "b_len", int, path)
        if b_len != shape[1 if kind == "linear" else 0]:
            raise FormatError(f"{path}: layer {li} bias length {b_len} does not "
                              f"match its weight shape {shape}", offset=12)
        W, pos = _floats(payload, pos, shape, path)
        b, pos = _floats(payload, pos, (b_len,), path)
        wn = math.prod(shape)
        bits, pos = read_array(payload, pos, np.uint8, (wn + 7) // 8, path)
        bits = np.unpackbits(bits, bitorder="little")[:wn]
        _field(desc, "prunable", bool, path)
        layer = MaskedLayer(kind=kind, W=W, Z=bits.reshape(shape), b=b)
        if kind == "conv2d":
            k, stride, pad, c_in, c_out = (
                _field(desc, key, int, path, low=0 if key == "pad" else 1)
                for key in _CONV_KEYS)
            if shape != (c_out, c_in * k ** 2):
                raise FormatError(f"{path}: conv layer {li} weight shape {shape} "
                                  "does not match its channels and kernel", offset=12)
            layer.kernel_size, layer.stride, layer.pad = k, stride, pad
        layers.append(layer)
        if momentum is not None:
            vW, pos = _floats(payload, pos, shape, path)
            vb, pos = _floats(payload, pos, (b_len,), path)
            momentum[li] = {"W": vW, "b": vb}
    if pos != len(payload):
        raise FormatError(
            f"{path}: {len(payload) - pos} unexpected trailing bytes", offset=pos
        )
    net = Network(
        layers=layers,
        input_shape=_shape(header, "input_shape", path),
        class_count=_field(header, "class_count", int, path, low=1),
    )
    if not net.parameterized_indices():
        raise FormatError(f"{path}: no parameterized layer", offset=12)
    # shape arithmetic only: nothing is allocated by the header's sizes
    try:
        shape = net.output_shape()
        if shape != (net.class_count,):
            raise DimensionError(f"output shape {shape}, expected "
                                 f"({net.class_count},)")
    except DimensionError as exc:
        raise FormatError(f"{path}: layers do not compose: {exc}", offset=12) from exc
    state = {
        key: header.get(key)
        for key in ("epoch", "architecture", "config")
        if header.get(key) is not None
    }
    if momentum is not None:
        state["momentum"] = momentum
    return Checkpoint(net=net, state=state)
