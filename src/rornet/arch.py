"""Elaborate an architecture description into a computation graph.

The pipeline is: :class:`ArchConfig` -> :func:`resolve_config` ->
:class:`ResolvedPlan` -> :func:`build` -> :class:`~rornet.graph.Graph`.
A plan fully enumerates per-block channels/strides/shortcuts and the list
of upper-level shortcut segments; the builder then emits the stem, each
residual block from one conv table together with its per-block
(final-level) shortcut, and the pooling/classifier head. Each upper-level
projection is emitted at its destination: just before the addition of the
block that ends its segment, which is created with every term it sums.

Shortcut levels: level 1 is the root shortcut spanning all blocks, level 2
spans one block group, deeper levels (4 or more total levels) split each
group into equal halves recursively, and the final level is the ordinary
per-block shortcut. With a single level the graph is a plain residual chain.
"""

from __future__ import annotations

import functools
import itertools
import math
import typing
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .exceptions import ConfigError
from .graph import Graph

CIFAR_STEM_WIDTH = 16
IMAGENET_STEM_WIDTH = 64
IMAGENET_DEPTHS = {
    18: ((2, 2, 2, 2), "b33"),
    34: ((3, 4, 6, 3), "b33"),
    101: ((3, 4, 23, 3), "bottleneck"),
    152: ((3, 8, 36, 3), "bottleneck"),
}
BOTTLENECK_EXPANSION = 4


@dataclass
class ArchConfig:
    """User-facing architecture description.

    Exactly one of ``depth`` or ``blocks_per_group`` must be given. For the
    cifar family, ``depth`` follows the 6n+2 convention (9n+2 for b333),
    except that wide variants (width_k > 1) are named by the 6n+4 convention.
    ``final_shortcut``/``upper_shortcut`` accept "A" (zero-padding,
    parameter-free) or "B" (1x1 convolution); final defaults to B below 100
    classes and A at 100 or more, upper defaults to B.
    """

    family: str = "cifar"
    depth: Optional[int] = None
    blocks_per_group: Optional[tuple[int, ...]] = None
    width_k: int = 1
    levels_m: int = 3
    block_order: str = "post_act"
    block_size: str = "b33"
    final_shortcut: Optional[str] = None
    upper_shortcut: str = "B"
    num_classes: int = 10
    sd_p_l: Optional[float] = None


_CONFIG_KEYS = tuple(f.name for f in fields(ArchConfig))
_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)  # from_csv reads each cell


@dataclass(frozen=True)
class ProjectionSpec:
    """A dimension-matching shortcut mapping: zero-pad (A) or 1x1 conv (B)."""

    kind: str
    in_channels: int
    out_channels: int
    stride: int

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ConfigError(f"projection kind must be 'A' or 'B', got {self.kind!r}")
        if self.kind == "A" and self.out_channels < self.in_channels:
            raise ConfigError(
                f"type A projection cannot reduce channels ({self.in_channels} -> {self.out_channels})")


@dataclass(frozen=True)
class GroupPlan:
    width: int          # base width; bottleneck blocks output width * expansion
    blocks: int
    stride: int


@dataclass(frozen=True)
class BlockPlan:
    group: int          # 1-based group number
    index: int          # 1-based position across the whole network
    in_channels: int
    out_channels: int
    mid_channels: int   # bottleneck inner width; equals out_channels otherwise
    stride: int
    shortcut: Optional[ProjectionSpec]  # None means identity


@dataclass(frozen=True)
class LevelShortcut:
    level: int
    src_block: int      # 0 = stem output, k = output of block k
    dst_block: int      # the block whose addition receives the projected term
    spec: ProjectionSpec


@dataclass
class ResolvedPlan:
    family: str
    stem_width: int
    input_shape: tuple[int, int, int]
    block_size: str     # resolved: imagenet depth presets may override the config
    groups: list[GroupPlan]
    blocks: list[BlockPlan]
    level_shortcuts: list[LevelShortcut]
    config: Optional[ArchConfig] = field(repr=False, default=None)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def _validate_enum(value: str, allowed: Sequence[str], what: str) -> None:
    if value not in allowed:
        raise ConfigError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")


def resolve_config(config: ArchConfig) -> ResolvedPlan:
    """Check a config against the family rules and expand it block by block."""
    _validate_enum(config.family, ("cifar", "imagenet"), "family")
    _validate_enum(config.block_order, ("post_act", "pre_act"), "block_order")
    _validate_enum(config.block_size, ("b33", "b333", "bottleneck"), "block_size")
    _validate_enum(config.upper_shortcut, ("A", "B"), "upper_shortcut")
    if config.final_shortcut is not None:
        _validate_enum(config.final_shortcut, ("A", "B"), "final_shortcut")
    if config.num_classes < 2:
        raise ConfigError(f"num_classes must be at least 2, got {config.num_classes}")
    if config.width_k < 1:
        raise ConfigError(f"width_k must be a positive integer, got {config.width_k}")
    if config.levels_m < 1:
        raise ConfigError(f"levels_m must be at least 1, got {config.levels_m}")
    if (config.depth is None) == (config.blocks_per_group is None):
        raise ConfigError("specify exactly one of depth or blocks_per_group")
    if config.sd_p_l is not None:
        if not 0.0 < config.sd_p_l <= 1.0:
            raise ConfigError(f"sd_p_l must lie in (0, 1], got {config.sd_p_l}")
        if config.family == "imagenet":
            raise ConfigError("stochastic depth is disabled for the imagenet family "
                              "(it prevents convergence there)")
    if config.block_size == "bottleneck" and config.family != "imagenet":
        raise ConfigError("bottleneck blocks are only supported for the imagenet family")

    if config.family == "cifar":
        stem_width, input_shape = CIFAR_STEM_WIDTH, (3, 32, 32)
    else:
        stem_width, input_shape = IMAGENET_STEM_WIDTH, (3, 224, 224)
    block_size, d = config.block_size, config.depth
    if config.blocks_per_group is not None:
        counts = tuple(int(b) for b in config.blocks_per_group)
        if not counts or any(b < 1 for b in counts):
            raise ConfigError("blocks_per_group needs at least one positive entry")
    elif config.family == "imagenet":
        if d not in IMAGENET_DEPTHS:
            raise ConfigError(f"imagenet depth must be one of {sorted(IMAGENET_DEPTHS)}, got {d}")
        counts, block_size = IMAGENET_DEPTHS[d]
    else:
        if block_size == "b333":
            if d < 11 or (d - 2) % 9 != 0:
                raise ConfigError(f"depth {d} invalid for b333: depth must be 9n+2")
            n = (d - 2) // 9
        elif config.width_k > 1:
            # wide variants are named by their 6n+4 layer count
            if d < 10 or (d - 4) % 6 != 0:
                raise ConfigError(f"depth {d} invalid for a wide (k>1) network: depth must be 6n+4")
            n = (d - 4) // 6
        else:
            if d < 8 or (d - 2) % 6 != 0:
                raise ConfigError(f"depth {d} invalid for b33: depth must be 6n+2")
            n = (d - 2) // 6
        counts = (n, n, n)
    widths = tuple(stem_width * config.width_k * (2 ** i) for i in range(len(counts)))
    strides = (1,) + (2,) * (len(counts) - 1)
    expansion = BOTTLENECK_EXPANSION if block_size == "bottleneck" else 1

    final_kind = config.final_shortcut
    if final_kind is None:
        final_kind = "A" if config.num_classes >= 100 else "B"

    groups = [GroupPlan(w, b, s) for w, b, s in zip(widths, counts, strides)]
    blocks: list[BlockPlan] = []
    in_ch = stem_width
    index = 0
    for gi, grp in enumerate(groups, start=1):
        out_ch = grp.width * expansion
        for bi in range(grp.blocks):
            index += 1
            stride = grp.stride if bi == 0 else 1
            shortcut = None
            if stride != 1 or in_ch != out_ch:
                shortcut = ProjectionSpec(final_kind, in_ch, out_ch, stride)
            blocks.append(BlockPlan(gi, index, in_ch, out_ch, grp.width, stride, shortcut))
            in_ch = out_ch

    level_shortcuts = _plan_level_shortcuts(config.levels_m, groups, blocks, config.upper_shortcut)
    return ResolvedPlan(config.family, stem_width, input_shape, block_size,
                        groups, blocks, level_shortcuts, config=config)


def _segment_shortcut(level: int, blocks: list[BlockPlan], start: int, end: int,
                      kind: str) -> LevelShortcut:
    """Shortcut spanning blocks start+1 .. end (0 = stem output)."""
    seg = blocks[start:end]
    stride = math.prod(b.stride for b in seg)
    return LevelShortcut(level, start, end,
                         ProjectionSpec(kind, seg[0].in_channels, seg[-1].out_channels, stride))


def _plan_level_shortcuts(m: int, groups: list[GroupPlan], blocks: list[BlockPlan],
                          kind: str) -> list[LevelShortcut]:
    out = [_segment_shortcut(1, blocks, 0, len(blocks), kind)] if m >= 2 else []
    # level 2 spans each group; deeper levels split each group into 2, 4, ... equal parts
    for level in range(2, m):
        pieces = 2 ** (level - 2)
        start = 0
        for gi, grp in enumerate(groups, start=1):
            if grp.blocks % pieces != 0:
                raise ConfigError(
                    f"levels_m={m} needs group {gi} ({grp.blocks} blocks) divisible into "
                    f"{pieces} equal parts")
            step = grp.blocks // pieces
            for p in range(pieces):
                out.append(_segment_shortcut(level, blocks,
                                             start + p * step, start + (p + 1) * step, kind))
            start += grp.blocks
    return out


# ---------------------------------------------------------------------------
# graph emission
# ---------------------------------------------------------------------------

def _spatial(g: Graph, src: str, k: int, stride: int, padding: int) -> tuple[int, ...]:
    """Height and width of the output of a k x k window sliding over ``src``."""
    return tuple(T._out_extent(n, k, stride, padding) for n in g.by_id[src].shape[1:])


def _conv(g: Graph, name: str, src: str, out_ch: int, k: int, stride: int, padding: int,
          he_param: Callable) -> str:
    pname, in_ch = name + ".weight", g.by_id[src].shape[0]
    he_param(pname, (out_ch, in_ch, k, k), in_ch * k * k)
    return g.add_node(name, "conv", [src], {"param": pname, "stride": stride, "padding": padding},
                      (out_ch, *_spatial(g, src, k, stride, padding))).id


def _bn(g: Graph, name: str, src: str, dtype) -> str:
    g.add_bn_state(name, g.by_id[src].shape[0], dtype)
    return g.add_node(name, "bn", [src], {"state": name}, g.by_id[src].shape).id


def _relu(g: Graph, name: str, src: str) -> str:
    return g.add_node(name, "relu", [src], {}, g.by_id[src].shape).id


def _project(g: Graph, spec: ProjectionSpec, src: str, name: str, he_param: Callable) -> str:
    """Emit a shortcut projection: a 1x1 conv (B) or a zero-padding subsample (A)."""
    if spec.kind == "B":
        return _conv(g, name, src, spec.out_channels, 1, spec.stride, 0, he_param)
    return g.add_node(name, "pad_project", [src],
                      {"stride": spec.stride, "out_channels": spec.out_channels},
                      (spec.out_channels, *_spatial(g, src, 1, spec.stride, 0))).id


def _branch_convs(block: BlockPlan, block_size: str) -> list[tuple[int, int, int, int]]:
    """``(out, kernel, stride, padding)`` of each residual-branch conv, in order."""
    cout, mid, stride = block.out_channels, block.mid_channels, block.stride
    if block_size == "bottleneck":
        return [(mid, 1, 1, 0), (mid, 3, stride, 1), (cout, 1, 1, 0)]
    return [(cout, 3, stride if i == 0 else 1, 1) for i in range(3 if block_size == "b333" else 2)]


def _level_projections(plan: ResolvedPlan) -> dict[int, list[tuple[str, LevelShortcut]]]:
    """Name each level shortcut and group them by destination block, in plan order."""
    by_dst: dict[int, list[tuple[str, LevelShortcut]]] = {}
    counters: dict[int, int] = {}
    for ls in plan.level_shortcuts:
        counters[ls.level] = counters.get(ls.level, 0) + 1
        if ls.level == 1:
            name = "level1.root.proj"
        elif ls.level == 2:
            name = f"level2.group{plan.blocks[ls.dst_block - 1].group}.proj"
        else:
            name = f"level{ls.level}.seg{counters[ls.level]:02d}.proj"
        by_dst.setdefault(ls.dst_block, []).append((name, ls))
    return by_dst


def build(config: ArchConfig, seed: int = 0, dtype=np.float32) -> Graph:
    """Construct the full graph: stem, residual blocks, head.

    Every block comes from one conv table (:func:`_branch_convs`): conv-bn-relu
    per conv for ``post_act`` (the last ReLU moves after the addition),
    bn-relu-conv for ``pre_act`` (the addition is the block output). Each
    level projection is emitted at its destination block, just before that
    block's addition, whose inputs are the identity (or its projection), the
    branch and then the level terms in plan order. Each emitter reads its
    input width and spatial size from its source node: the graph under
    construction is the one record of every shape.

    Emission records each He-initialised weight as a draw: the unfilled parameter
    array, sqrt(2/fan_in) and a Generator; once the graph is emitted,
    :func:`tensor.run_draws` fills them on the worker pool. Deterministic given
    (config, seed): every parameter draws from its own named stream, opened here
    as it is recorded, so identical names receive identical initial values across
    different level counts, whichever thread draws them. A model whose weights
    together exceed this machine's memory raises :class:`ConfigError` before any
    is drawn.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    plan = resolve_config(config)
    order = config.block_order

    g = Graph(plan.family, plan.input_shape,
              meta={"dtype": dtype, "num_blocks": plan.num_blocks, "plan": plan})
    g.add_node("input", "input", [], {}, plan.input_shape)
    g.input_id = "input"
    draws, nbytes = [], 0

    def he_param(name: str, shape: tuple[int, ...], fan_in: int) -> None:
        # one independent stream per parameter so unrelated config changes
        # (extra shortcuts, different m) never shift the shared initializations
        nonlocal nbytes
        nbytes += math.prod(shape) * np.dtype(dtype).itemsize
        T.check_memory(nbytes, f"the model's weights through {name}")
        draws.append((g.add_param(name, np.empty(shape, dtype)).data, math.sqrt(2.0 / fan_in),
                      np.random.default_rng([seed, zlib.crc32(name.encode())])))

    k, stride, pad = (3, 1, 1) if plan.family == "cifar" else (7, 2, 3)
    out = _conv(g, "stem.conv", "input", plan.stem_width, k, stride, pad, he_param)
    if order == "post_act":
        out = _relu(g, "stem.relu", _bn(g, "stem.bn", out, dtype))
    if plan.family == "imagenet":
        out = g.add_node("stem.pool", "maxpool", [out], {"kernel": 3, "stride": 2, "padding": 1},
                         (g.by_id[out].shape[0], *_spatial(g, out, 3, 2, 1))).id

    levels = _level_projections(plan)
    xs = [out]  # xs[k] is the output of block k; xs[0] is the stem output
    for _, group in itertools.groupby(plan.blocks, key=lambda b: b.group):
        for pos, block in enumerate(group, start=1):
            name, h = f"group{block.group}.block{pos:03d}", xs[-1]
            convs = _branch_convs(block, plan.block_size)
            for i, (cout, k, stride, pad) in enumerate(convs, start=1):
                if order == "pre_act":
                    h = _relu(g, f"{name}.relu{i}", _bn(g, f"{name}.bn{i}", h, dtype))
                h = _conv(g, f"{name}.conv{i}", h, cout, k, stride, pad, he_param)
                if order == "post_act":
                    h = _bn(g, f"{name}.bn{i}", h, dtype)
                    if i < len(convs):
                        h = _relu(g, f"{name}.relu{i}", h)
            identity = xs[-1] if block.shortcut is None else \
                _project(g, block.shortcut, xs[-1], f"{name}.shortcut", he_param)
            terms = [identity, h] + [_project(g, ls.spec, xs[ls.src_block], lname, he_param)
                                     for lname, ls in levels.get(block.index, [])]
            add = g.add_node(f"{name}.add", "add", terms, {"block": block.index, "branch": h},
                             g.by_id[h].shape)
            xs.append(_relu(g, f"{name}.relu_out", add.id) if order == "post_act" else add.id)

    out = xs[-1]
    if order == "pre_act":
        out = _relu(g, "epilogue.relu", _bn(g, "epilogue.bn", out, dtype))

    feat = g.by_id[out].shape[0]
    g.add_node("head.gap", "gap", [out], {}, (feat,))
    wname, bname = "head.fc.weight", "head.fc.bias"
    he_param(wname, (config.num_classes, feat), feat)
    g.add_param(bname, np.zeros(config.num_classes, dtype=dtype))
    g.add_node("head.fc", "linear", ["head.gap"], {"weight": wname, "bias": bname},
               (config.num_classes,))
    g.output_id = "head.fc"
    T.run_draws(draws)
    return g


# ---------------------------------------------------------------------------
# flat text config format
# ---------------------------------------------------------------------------

def config_to_text(config: ArchConfig) -> str:
    """Serialize as flat key=value lines (omitting unset optionals)."""
    lines = []
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        if value is None:
            continue
        if key == "blocks_per_group":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ArchConfig:
    """Parse the flat key=value format produced by :func:`config_to_text`."""
    return ArchConfig(**read_config(text, ArchConfig)[0])


def read_config(text: str, *schemas) -> list[dict]:
    """Split flat ``key=value`` lines (``#`` comments allowed) among config
    dataclasses: each key goes to the first of ``schemas`` with that field,
    read by :func:`parse_field`. Returns one keyword dict per schema."""
    found = {schema: {} for schema in schemas}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"config line {lineno}: not key=value: {raw!r}")
        owner = next((s for s in schemas if key in {f.name for f in fields(s)}), None)
        if owner is None:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        found[owner][key] = parse_field(owner, key, value, f"config line {lineno}")
    return list(found.values())


def parse_field(schema, key: str, text: str, where: str):
    """Read ``text`` as the type of ``schema``'s field ``key``: int, float,
    ``true``/``false``, comma-separated ints (empty parts skipped) or str;
    ``Optional[X]`` reads as X. A bad value raises :class:`ConfigError`
    ``"{where}: bad value for {key}: '{text}'"``."""
    kind = _type_hints(schema)[key]
    if typing.get_origin(kind) is typing.Union:
        kind = typing.get_args(kind)[0]
    try:
        if kind is bool:
            return {"true": True, "false": False}[text.lower()]
        if typing.get_origin(kind) is tuple:
            return tuple(int(v) for v in text.split(",") if v.strip())
        return kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: bad value for {key}: {text!r}") from None
