"""Checkpoint container: named float32 tensors plus config and metadata.

File layout (all integers little-endian):

    bytes  0-7   magic ``b"TOYCKPT1"``
    u32          length of the header JSON
    ...          header JSON: {"config": {...}, "meta": {...}}
    u32          tensor count
    per tensor:  u16 name length, name (utf-8), u8 ndim, ndim * u32 dims,
                 raw float32 data in C order

Tensors are written sorted by name, so serialization is canonical and the
round trip is bit-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError, ParameterError, ShapeError
from .config import ModelConfig
from .network import init_params

MAGIC = b"TOYCKPT1"

# Parameter-path suffixes of the projection weights every quantization plan
# covers; a plan may also cover the embedding paths.
LINEAR_WEIGHT_SUFFIXES = (
    ".attn.q.weight", ".attn.k.weight", ".attn.v.weight", ".attn.o.weight",
    ".mlp.fc_in.weight", ".mlp.fc_out.weight",
)
EMBEDDING_PATHS = ("embed.tok", "head.weight")


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    params: dict
    meta: dict = field(default_factory=dict)

    def copy(self) -> "ModelCheckpoint":
        return ModelCheckpoint(self.config, {k: v.copy() for k, v in self.params.items()}, dict(self.meta))

    def quantizable_paths(self) -> list:
        """The attention and feed-forward projection weights, in forward order.

        Norm gains/biases and the positional table never quantize; the token
        embedding and output head only through a hand-written plan.
        """
        paths = sorted((p for p in self.params if p.endswith(LINEAR_WEIGHT_SUFFIXES)),
                       key=_forward_order_key)
        for p in paths:
            if self.params[p].ndim != 2:
                raise ShapeError(f"quantizable path {p} is not a 2-D weight")
        return paths

    def n_params(self, path: str) -> int:
        return int(self.params[path].size)

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    def to_bytes(self) -> bytes:
        header = json.dumps({"config": asdict(self.config), "meta": self.meta},
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
        out = [MAGIC, struct.pack("<I", len(header)), header,
               struct.pack("<I", len(self.params))]
        for name in sorted(self.params):
            arr = np.ascontiguousarray(self.params[name], dtype=np.float32)
            raw = name.encode("utf-8")
            out.append(struct.pack("<H", len(raw)))
            out.append(raw)
            out.append(struct.pack("<B", arr.ndim))
            out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            out.append(arr.tobytes(order="C"))
        return b"".join(out)

    @classmethod
    def load(cls, path) -> "ModelCheckpoint":
        return cls.from_bytes(Path(path).read_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ModelCheckpoint":
        """Inverse of :meth:`to_bytes`; a truncated or malformed blob is a ContractError."""
        if blob[:8] != MAGIC:
            raise ContractError("not a checkpoint file (bad magic)")
        off = 8

        def take(n: int) -> bytes:
            nonlocal off
            if off + n > len(blob):
                raise ContractError(f"checkpoint truncated: {len(blob)} bytes, "
                                    f"the layout needs at least {off + n}")
            off += n
            return blob[off - n:off]

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        (hlen,) = unpack("<I")
        try:
            header = json.loads(take(hlen).decode("utf-8"))
            config = ModelConfig(**header["config"])
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError, AttributeError, ParameterError) as exc:
            raise ContractError(f"malformed checkpoint header: {exc}") from exc
        (count,) = unpack("<I")
        params = {}
        for _ in range(count):
            (nlen,) = unpack("<H")
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContractError(f"malformed checkpoint tensor name: {exc}") from exc
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            params[name] = np.frombuffer(take(4 * math.prod(shape)),
                                         dtype="<f4").reshape(shape).copy()
        if off != len(blob):
            raise ContractError(f"checkpoint has {len(blob) - off} bytes after its last tensor")
        return cls(config, params, meta)


def _forward_order_key(path: str):
    parts = path.split(".")
    block = int(parts[1]) if parts[0] == "blocks" else -1
    stage = {"q": 0, "k": 1, "v": 2, "o": 3, "fc_in": 4, "fc_out": 5}.get(parts[-2], 0)
    return (block, stage)


def new_checkpoint(config: ModelConfig, seed: int, meta: dict | None = None) -> ModelCheckpoint:
    meta = dict(meta or {})
    meta.setdefault("seed", int(seed))
    return ModelCheckpoint(config, init_params(config, seed), meta)
