"""Run configuration: dotted-key `key = value` text files with `#` comments.

Sections map onto the component configs: `preprocess.*`, `model.*`,
`train.*`, `schedule.*`, plus `data.fs`. Unknown keys are rejected. Layer
lists use colon syntax: `model.cnn1d_layers = 32:7,64:5` (channels:kernel)
and `model.cnn2d_layers = 16:3:2,...` (channels:kernel:stride).
"""

from dataclasses import dataclass, field, fields, make_dataclass
from typing import Optional

from .dsp import PreprocessConfig
from .model import ModelConfig
from .optim import ScheduleConfig, TrainConfig


# ModelConfig's data-independent fields, with its defaults: num_classes comes
# from the dataset and the variant from the command line
_MODEL_SETTINGS = [f for f in fields(ModelConfig) if f.name not in ("num_classes", "variant")]


def _to_model_config(self, num_classes: int, variant: str = "full") -> ModelConfig:
    return ModelConfig(num_classes=num_classes, variant=variant,
                       **{f.name: getattr(self, f.name) for f in _MODEL_SETTINGS})


ModelSettings = make_dataclass(
    "ModelSettings",
    [(f.name, f.type, field(default=f.default)) for f in _MODEL_SETTINGS],
    namespace={"__module__": __name__, "__doc__": "The `model.*` keys of a run config.",
               "to_model_config": _to_model_config},
)


@dataclass
class RunConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    fs: float = 1.0  # sampling frequency assumed for UCR series


def _format_value(name: str, value) -> str:
    if name == "cnn1d_layers":
        return ",".join(f"{c}:{k}" for c, k in value)
    if name == "cnn2d_layers":
        return ",".join(f"{c}:{k}:{s}" for c, k, s in value)
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(name: str, raw: str, current):
    raw = raw.strip()
    if name == "cnn1d_layers":
        return tuple(tuple(int(p) for p in item.split(":")) for item in raw.split(",") if item)
    if name == "cnn2d_layers":
        layers = tuple(tuple(int(p) for p in item.split(":")) for item in raw.split(",") if item)
        if any(len(l) != 3 for l in layers):
            raise ValueError(f"{name}: expected channels:kernel:stride items")
        return layers
    if raw.lower() == "none":
        return None
    if isinstance(current, bool):
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"{name}: expected true/false, got {raw!r}")
        return raw.lower() == "true"
    if isinstance(current, int) and not isinstance(current, bool):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if current is None:  # optional int (preprocess.window)
        return int(raw)
    return raw


def _sections(cfg: RunConfig):
    return {
        "preprocess": cfg.preprocess,
        "model": cfg.model,
        "train": cfg.train,
        "schedule": cfg.train.schedule,
        "data": cfg,
    }


_DATA_KEYS = ("fs",)
_SKIP_FIELDS = {("train", "schedule")}


def _section_fields(section_name: str, obj):
    if section_name == "data":
        return list(_DATA_KEYS)
    return [f.name for f in fields(obj) if (section_name, f.name) not in _SKIP_FIELDS]


def parse_config_text(text: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Apply `key = value` lines on top of defaults; unknown keys are errors."""
    cfg = base or RunConfig()
    sections = _sections(cfg)
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ValueError(f"config line {line_no}: key must be dotted, got {key!r}")
        section_name, field_name = key.split(".", 1)
        obj = sections.get(section_name)
        if obj is None or field_name not in _section_fields(section_name, obj):
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        current = getattr(obj, field_name)
        setattr(obj, field_name, _parse_value(field_name, raw, current))
    # re-run invariant checks
    cfg.preprocess.__post_init__()
    cfg.train.__post_init__()
    cfg.train.schedule.__post_init__()
    return cfg


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for section_name, obj in _sections(cfg).items():
        for name in _section_fields(section_name, obj):
            lines.append(f"{section_name}.{name} = {_format_value(name, getattr(obj, name))}")
    return "\n".join(lines) + "\n"


def load_config_file(path, base: Optional[RunConfig] = None) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read(), base=base)
