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
from ..files import write_atomic
from .config import ModelConfig
from .network import PROJECTION_SUFFIXES, init_params, projection_key

MAGIC = b"TOYCKPT1"

# Every quantization plan covers the projection weights; a plan may also
# cover the embedding paths.
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
        paths = sorted((p for p in self.params if p.endswith(PROJECTION_SUFFIXES)),
                       key=projection_key)
        for p in paths:
            if self.params[p].ndim != 2:
                raise ShapeError(f"quantizable path {p} is not a 2-D weight")
        return paths

    def n_params(self, path: str) -> int:
        return int(self.params[path].size)

    def save(self, path) -> None:
        write_atomic(path, self.to_bytes())

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
        view = memoryview(blob)
        off = 8

        def take(n: int) -> int:
            """Offset of the next ``n`` bytes, which the cursor then skips."""
            nonlocal off
            if off + n > len(view):
                raise ContractError(f"checkpoint truncated: {len(view)} bytes, "
                                    f"the layout needs at least {off + n}")
            off += n
            return off - n

        def unpack(fmt: str) -> tuple:
            return struct.unpack_from(fmt, view, take(struct.calcsize(fmt)))

        def text(n: int) -> str:
            start = take(n)
            return str(view[start:off], "utf-8")

        (hlen,) = unpack("<I")
        try:
            header = json.loads(text(hlen))
            config = ModelConfig(**header["config"])
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError, AttributeError, ParameterError) as exc:
            raise ContractError(f"malformed checkpoint header: {exc}") from exc
        (count,) = unpack("<I")
        params = {}
        for _ in range(count):
            (nlen,) = unpack("<H")
            try:
                name = text(nlen)
            except UnicodeDecodeError as exc:
                raise ContractError(f"malformed checkpoint tensor name: {exc}") from exc
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            size = math.prod(shape)
            # one copy, out of the blob and into a tensor of its own
            params[name] = np.frombuffer(view, "<f4", size, take(4 * size)).reshape(shape).copy()
        if off != len(view):
            raise ContractError(f"checkpoint has {len(view) - off} bytes after its last tensor")
        return cls(config, params, meta)


def new_checkpoint(config: ModelConfig, seed: int) -> ModelCheckpoint:
    return ModelCheckpoint(config, init_params(config, seed), {"seed": int(seed)})
