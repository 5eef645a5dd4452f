"""Checkpoint persistence for masked networks and optimizer state.

Layout: 4-byte magic, u32 format version, u32 header length, JSON header,
u32 CRC32 of the header, then one blob per parameterized layer (weights and
bias as little-endian float64, the mask as a bitmap packed
least-significant-bit first), optional momentum blobs, and a final u32
CRC32 over all payload bytes.  A reloaded network reproduces forward
outputs bitwise; weights stored under a 0 mask bit load as +0.0.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .metrics_io import atomic_open
from .network import MaskedLayer, Network, forward

MAGIC = b"TSCN"
VERSION = 1


@dataclass
class Checkpoint:
    header: dict
    net: Network
    state: dict


def _weight_bytes(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _mask_bytes(mask) -> bytes:
    return np.packbits(mask, axis=None, bitorder="little").tobytes()


def _layer_descriptor(layer: MaskedLayer) -> dict:
    d = {"kind": layer.kind, "prunable": layer.prunable}
    if layer.parameterized:
        d["w_shape"] = list(layer.W.shape)
        d["b_len"] = int(layer.b.size)
    if layer.kind == "conv2d":
        d.update(
            kernel_size=layer.kernel_size, stride=layer.stride, pad=layer.pad,
            in_channels=layer.in_channels, out_channels=layer.out_channels,
        )
    return d


def save_checkpoint(path, net: Network, state: dict | None = None) -> None:
    """Write the network and optional trainer state to one binary file.

    state may carry "epoch", "architecture", "config", and "momentum" (a
    dict of per-layer {"W": array, "b": array} velocity tensors).
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
    payload = bytearray()
    for li, layer in enumerate(net.layers):
        if not layer.parameterized:
            continue
        payload += _weight_bytes(layer.W)
        payload += _weight_bytes(layer.b)
        payload += _mask_bytes(layer.Z)
        if momentum is not None:
            payload += _weight_bytes(momentum[li]["W"])
            payload += _weight_bytes(momentum[li]["b"])
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        f.write(struct.pack("<I", zlib.crc32(hbytes)))
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def _take(buf, offset, count, path):
    if offset + count > len(buf):
        raise FormatError(f"{path}: truncated payload", offset=offset)
    return buf[offset : offset + count], offset + count


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
    """Read a checkpoint written by save_checkpoint; validates both CRCs."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file", offset=0)
    version = struct.unpack("<I", raw[4:8])[0]
    if version != VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint version {version}", offset=4
        )
    hlen = struct.unpack("<I", raw[8:12])[0]
    hbytes, off = _take(raw, 12, hlen, path)
    crc_bytes, off = _take(raw, off, 4, path)
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(hbytes):
        raise FormatError(f"{path}: header checksum mismatch", offset=12)
    try:
        header = json.loads(hbytes.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: header is not JSON: {exc}", offset=12) from exc
    payload = raw[off:-4]
    if len(raw) < off + 4:
        raise FormatError(f"{path}: truncated payload", offset=off)
    if struct.unpack("<I", raw[-4:])[0] != zlib.crc32(payload):
        raise FormatError(f"{path}: payload checksum mismatch", offset=off)

    layers = []
    momentum = {} if _field(header, "momentum", bool, path) else None
    pos = 0
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
        wn = math.prod(shape)
        blob, pos = _take(payload, pos, wn * 8, path)
        W = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        blob, pos = _take(payload, pos, b_len * 8, path)
        b = np.frombuffer(blob, dtype="<f8").copy()
        nbytes = (wn + 7) // 8
        blob, pos = _take(payload, pos, nbytes, path)
        bits = np.unpackbits(
            np.frombuffer(blob, dtype=np.uint8), bitorder="little"
        )[:wn]
        layer = MaskedLayer(kind=kind, W=W, Z=bits.reshape(shape), b=b,
                            prunable=_field(desc, "prunable", bool, path))
        if kind == "conv2d":
            for key in ("kernel_size", "stride", "in_channels", "out_channels"):
                setattr(layer, key, _field(desc, key, int, path, low=1))
            layer.pad = _field(desc, "pad", int, path, low=0)
            if shape != (layer.out_channels,
                         layer.in_channels * layer.kernel_size ** 2):
                raise FormatError(f"{path}: conv layer {li} weight shape {shape} "
                                  f"does not match its channels and kernel",
                                  offset=12)
        layers.append(layer)
        if momentum is not None:
            blob, pos = _take(payload, pos, wn * 8, path)
            vW = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
            blob, pos = _take(payload, pos, b_len * 8, path)
            vb = np.frombuffer(blob, dtype="<f8").copy()
            momentum[li] = {"W": vW, "b": vb}
    if pos != len(payload):
        raise FormatError(
            f"{path}: {len(payload) - pos} unexpected trailing bytes",
            offset=off + pos,
        )
    net = Network(
        layers=layers,
        input_shape=_shape(header, "input_shape", path),
        class_count=_field(header, "class_count", int, path, low=1),
    )
    if not net.parameterized_indices():
        raise FormatError(f"{path}: no parameterized layer", offset=12)
    try:
        forward(net, np.zeros((1,) + net.input_shape))
    except DimensionError as exc:
        raise FormatError(f"{path}: layers do not compose: {exc}", offset=12) from exc
    state = {
        key: header.get(key)
        for key in ("epoch", "architecture", "config")
        if header.get(key) is not None
    }
    if momentum is not None:
        state["momentum"] = momentum
    return Checkpoint(header=header, net=net, state=state)
