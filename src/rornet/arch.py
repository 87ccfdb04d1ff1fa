"""Elaborate an architecture description into a computation graph.

The pipeline is: :class:`ArchConfig` -> :func:`resolve_config` ->
:class:`ResolvedPlan` -> :func:`build` -> :class:`~rornet.graph.Graph`.
A plan fully enumerates per-block channels/strides/shortcuts and the list
of upper-level shortcut segments; the builder then emits the stem, the
residual block groups with their per-block (final-level) shortcuts, the
upper-level projections, and the pooling/classifier head.

Shortcut levels: level 1 is the root shortcut spanning all blocks, level 2
spans one block group, deeper levels (4 or more total levels) split each
group into equal halves recursively, and the final level is the ordinary
per-block shortcut. With a single level the graph is a plain residual chain.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

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

_CONFIG_KEYS = ("family", "depth", "blocks_per_group", "width_k", "levels_m",
                "block_order", "block_size", "final_shortcut", "upper_shortcut",
                "num_classes", "sd_p_l")


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

    @property
    def param_count(self) -> int:
        return self.in_channels * self.out_channels if self.kind == "B" else 0


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

    @property
    def feature_width(self) -> int:
        return self.blocks[-1].out_channels


def _validate_enum(value: str, allowed: Sequence[str], what: str) -> str:
    if value not in allowed:
        raise ConfigError(f"{what} must be one of {', '.join(allowed)}; got {value!r}")
    return value


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

    block_size = config.block_size
    if config.family == "cifar":
        stem_width = CIFAR_STEM_WIDTH
        input_shape = (3, 32, 32)
        if config.blocks_per_group is not None:
            counts = tuple(int(b) for b in config.blocks_per_group)
            if not counts or any(b < 1 for b in counts):
                raise ConfigError("blocks_per_group needs at least one positive entry")
        else:
            d = config.depth
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
        expansion = 1
    else:
        stem_width = IMAGENET_STEM_WIDTH
        input_shape = (3, 224, 224)
        if config.blocks_per_group is not None:
            counts = tuple(int(b) for b in config.blocks_per_group)
            if not counts or any(b < 1 for b in counts):
                raise ConfigError("blocks_per_group needs at least one positive entry")
        else:
            if config.depth not in IMAGENET_DEPTHS:
                raise ConfigError(f"imagenet depth must be one of {sorted(IMAGENET_DEPTHS)}, "
                                  f"got {config.depth}")
            counts, block_size = IMAGENET_DEPTHS[config.depth]
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

    level_shortcuts = _plan_level_shortcuts(config, groups, blocks, stem_width,
                                            expansion, config.upper_shortcut)
    plan = ResolvedPlan(config.family, stem_width, input_shape, block_size,
                        groups, blocks, level_shortcuts, config=config)
    return plan


def _segment_shortcut(level: int, blocks: list[BlockPlan], start: int, end: int,
                      kind: str) -> LevelShortcut:
    """Shortcut spanning blocks start+1 .. end (0 = stem output)."""
    seg = blocks[start:end]
    stride = 1
    for b in seg:
        stride *= b.stride
    spec = ProjectionSpec(kind, seg[0].in_channels, seg[-1].out_channels, stride)
    return LevelShortcut(level, start, end, spec)


def _plan_level_shortcuts(config: ArchConfig, groups: list[GroupPlan],
                          blocks: list[BlockPlan], stem_width: int,
                          expansion: int, kind: str) -> list[LevelShortcut]:
    m = config.levels_m
    out: list[LevelShortcut] = []
    if m >= 2:
        out.append(_segment_shortcut(1, blocks, 0, len(blocks), kind))
    if m >= 3:
        start = 0
        for grp in groups:
            out.append(_segment_shortcut(2, blocks, start, start + grp.blocks, kind))
            start += grp.blocks
    # deeper levels split each group into 2, 4, ... equal parts
    for level in range(3, m):
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

def _param_rng(seed: int, name: str) -> np.random.Generator:
    # one independent stream per parameter so unrelated config changes
    # (extra shortcuts, different m) never shift the shared initializations
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _conv(g: Graph, name: str, src: str, in_ch: int, out_ch: int, k: int,
          stride: int, padding: int, seed: int, dtype) -> str:
    pname = name + ".weight"
    rng = _param_rng(seed, pname)
    g.add_param(pname, T.he_init((out_ch, in_ch, k, k), in_ch * k * k, rng, dtype))
    src_shape = g.by_id[src].shape
    if src_shape[0] != in_ch:
        raise ConfigError(f"channel mismatch at {name!r}: upstream has {src_shape[0]}, expected {in_ch}")
    oh = (src_shape[1] + 2 * padding - k) // stride + 1
    ow = (src_shape[2] + 2 * padding - k) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"empty spatial output at {name!r}")
    g.add_node(name, "conv", [src], {"param": pname, "stride": stride, "padding": padding},
               (out_ch, oh, ow))
    return name


def _bn(g: Graph, name: str, src: str, channels: int, dtype) -> str:
    g.add_bn_state(name, channels, dtype)
    g.add_node(name, "bn", [src], {"state": name}, g.by_id[src].shape)
    return name


def _relu(g: Graph, name: str, src: str) -> str:
    g.add_node(name, "relu", [src], {}, g.by_id[src].shape)
    return name


def make_projection(g: Graph, spec: ProjectionSpec, src: str, name: str,
                    seed: int, dtype, before: Optional[str] = None) -> str:
    """Emit a shortcut projection fragment and return its output node id."""
    src_shape = g.by_id[src].shape
    oh = -(-src_shape[1] // spec.stride)  # ceil division matches 1x1 conv arithmetic
    ow = -(-src_shape[2] // spec.stride)
    if spec.kind == "B":
        pname = name + ".weight"
        rng = _param_rng(seed, pname)
        g.add_param(pname, T.he_init((spec.out_channels, spec.in_channels, 1, 1),
                                     spec.in_channels, rng, dtype))
        node = g.add_node(name, "conv", [src],
                          {"param": pname, "stride": spec.stride, "padding": 0},
                          (spec.out_channels, oh, ow))
    else:
        node = g.add_node(name, "pad_project", [src],
                          {"stride": spec.stride, "out_channels": spec.out_channels},
                          (spec.out_channels, oh, ow))
    if before is not None:
        g.nodes.remove(node)
        g.nodes.insert(g.nodes.index(g.by_id[before]), node)
    return name


def build_residual_block(g: Graph, block: BlockPlan, order: str, block_size: str,
                         src: str, name: str, seed: int, dtype) -> str:
    """Emit one residual block; returns the block's output node id.

    Post-activation blocks end with a ReLU after the addition; pre-activation
    blocks end at the (un-activated) addition. The addition node records the
    residual-branch input and the global block index for drop-path gating.
    """
    in_ch, out_ch, mid, stride = block.in_channels, block.out_channels, block.mid_channels, block.stride

    if order == "post_act":
        if block_size == "bottleneck":
            h = _conv(g, f"{name}.conv1", src, in_ch, mid, 1, 1, 0, seed, dtype)
            h = _bn(g, f"{name}.bn1", h, mid, dtype)
            h = _relu(g, f"{name}.relu1", h)
            h = _conv(g, f"{name}.conv2", h, mid, mid, 3, stride, 1, seed, dtype)
            h = _bn(g, f"{name}.bn2", h, mid, dtype)
            h = _relu(g, f"{name}.relu2", h)
            h = _conv(g, f"{name}.conv3", h, mid, out_ch, 1, 1, 0, seed, dtype)
            branch = _bn(g, f"{name}.bn3", h, out_ch, dtype)
        else:
            convs = 3 if block_size == "b333" else 2
            h = src
            for ci in range(1, convs + 1):
                cin = in_ch if ci == 1 else out_ch
                h = _conv(g, f"{name}.conv{ci}", h, cin, out_ch, 3,
                          stride if ci == 1 else 1, 1, seed, dtype)
                h = _bn(g, f"{name}.bn{ci}", h, out_ch, dtype)
                if ci < convs:
                    h = _relu(g, f"{name}.relu{ci}", h)
            branch = h
    else:
        if block_size == "bottleneck":
            h = _bn(g, f"{name}.bn1", src, in_ch, dtype)
            h = _relu(g, f"{name}.relu1", h)
            h = _conv(g, f"{name}.conv1", h, in_ch, mid, 1, 1, 0, seed, dtype)
            h = _bn(g, f"{name}.bn2", h, mid, dtype)
            h = _relu(g, f"{name}.relu2", h)
            h = _conv(g, f"{name}.conv2", h, mid, mid, 3, stride, 1, seed, dtype)
            h = _bn(g, f"{name}.bn3", h, mid, dtype)
            h = _relu(g, f"{name}.relu3", h)
            branch = _conv(g, f"{name}.conv3", h, mid, out_ch, 1, 1, 0, seed, dtype)
        else:
            convs = 3 if block_size == "b333" else 2
            h = src
            for ci in range(1, convs + 1):
                cin = in_ch if ci == 1 else out_ch
                h = _bn(g, f"{name}.bn{ci}", h, cin, dtype)
                h = _relu(g, f"{name}.relu{ci}", h)
                h = _conv(g, f"{name}.conv{ci}", h, cin, out_ch, 3,
                          stride if ci == 1 else 1, 1, seed, dtype)
            branch = h

    if block.shortcut is None:
        identity = src
    else:
        identity = make_projection(g, block.shortcut, src, f"{name}.shortcut", seed, dtype)

    if g.by_id[identity].shape != g.by_id[branch].shape:
        raise ConfigError(f"shortcut/branch shape mismatch at {name!r}: "
                          f"{g.by_id[identity].shape} vs {g.by_id[branch].shape}")
    add = g.add_node(f"{name}.add", "add", [identity, branch],
                     {"block": block.index, "branch": branch}, g.by_id[branch].shape)
    if order == "post_act":
        return _relu(g, f"{name}.relu_out", add.id)
    return add.id


def attach_level_shortcuts(g: Graph, plan: ResolvedPlan, block_outputs: list[str],
                           block_adds: list[str], seed: int, dtype) -> None:
    """Add the upper-level projected terms onto their destination additions.

    The base graph must already exist with single-level semantics;
    ``block_outputs[k]`` is the output of block k (0 = stem) and
    ``block_adds[k - 1]`` its addition. Projection nodes are inserted
    immediately before their destination addition so the node list stays
    topologically ordered.
    """
    counters: dict[int, int] = {}
    for ls in plan.level_shortcuts:
        counters[ls.level] = counters.get(ls.level, 0) + 1
        if ls.level == 1:
            name = "level1.root.proj"
        elif ls.level == 2:
            name = f"level2.group{plan.blocks[ls.dst_block - 1].group}.proj"
        else:
            name = f"level{ls.level}.seg{counters[ls.level]:02d}.proj"
        src = block_outputs[ls.src_block]
        dst_add = block_adds[ls.dst_block - 1]
        out_id = make_projection(g, ls.spec, src, name, seed, dtype, before=dst_add)
        add_node = g.by_id[dst_add]
        if g.by_id[out_id].shape != add_node.shape:
            raise ConfigError(f"level shortcut {name!r} shape {g.by_id[out_id].shape} "
                              f"does not match destination {add_node.shape}")
        add_node.inputs.append(out_id)


def build(config: ArchConfig, seed: int = 0, dtype=np.float32) -> Graph:
    """Construct the full graph: stem, block groups, level shortcuts, head.

    Deterministic given (config, seed): every parameter draws from its own
    named stream, so identical names receive identical initial values across
    different level counts.
    """
    plan = resolve_config(config)
    order, block_size = config.block_order, plan.block_size

    g = Graph(plan.family, plan.input_shape,
              meta={"dtype": dtype, "num_blocks": plan.num_blocks, "plan": plan})
    g.add_node("input", "input", [], {}, plan.input_shape)
    g.input_id = "input"

    # stem
    if plan.family == "cifar":
        out = _conv(g, "stem.conv", "input", 3, plan.stem_width, 3, 1, 1, seed, dtype)
        if order == "post_act":
            out = _bn(g, "stem.bn", out, plan.stem_width, dtype)
            out = _relu(g, "stem.relu", out)
    else:
        out = _conv(g, "stem.conv", "input", 3, plan.stem_width, 7, 2, 3, seed, dtype)
        if order == "post_act":
            out = _bn(g, "stem.bn", out, plan.stem_width, dtype)
            out = _relu(g, "stem.relu", out)
        shape = g.by_id[out].shape
        pooled = ((shape[1] + 2 - 3) // 2 + 1, (shape[2] + 2 - 3) // 2 + 1)
        g.add_node("stem.pool", "maxpool", [out],
                   {"kernel": 3, "stride": 2, "padding": 1},
                   (shape[0],) + pooled)
        out = "stem.pool"

    block_outputs = [out]  # x_1 is the stem output, the input of block 1
    block_adds: list[str] = []
    for block in plan.blocks:
        name = f"group{block.group}.block{_block_pos(plan, block):03d}"
        out = build_residual_block(g, block, order, block_size, out, name, seed, dtype)
        block_outputs.append(out)
        block_adds.append(f"{name}.add")

    attach_level_shortcuts(g, plan, block_outputs, block_adds, seed, dtype)

    if order == "pre_act":
        out = _bn(g, "epilogue.bn", out, plan.feature_width, dtype)
        out = _relu(g, "epilogue.relu", out)

    g.add_node("head.gap", "gap", [out], {}, (plan.feature_width,))
    feat = plan.feature_width
    wname, bname = "head.fc.weight", "head.fc.bias"
    g.add_param(wname, T.he_init((config.num_classes, feat), feat, _param_rng(seed, wname), dtype))
    g.add_param(bname, np.zeros(config.num_classes, dtype=dtype))
    g.add_node("head.fc", "linear", ["head.gap"], {"weight": wname, "bias": bname},
               (config.num_classes,))
    g.output_id = "head.fc"
    return g


def _block_pos(plan: ResolvedPlan, block: BlockPlan) -> int:
    """Position of the block within its own group, 1-based."""
    offset = sum(grp.blocks for grp in plan.groups[:block.group - 1])
    return block.index - offset


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
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        try:
            if key in ("depth", "width_k", "levels_m", "num_classes"):
                kwargs[key] = int(value)
            elif key == "sd_p_l":
                kwargs[key] = float(value)
            elif key == "blocks_per_group":
                kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip())
            else:
                kwargs[key] = value
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {value!r}") from None
    return ArchConfig(**kwargs)
