"""Run configuration: dotted-key `key = value` text files with `#` comments.

Sections map onto the component configs: `preprocess.*`, `model.*`,
`train.*`, `schedule.*`, plus `data.fs`; their keys are the fields that do not
hold a nested config. Unknown keys are rejected. A value parses as the kind of
its field's default: `none` only where that is None (`preprocess.window`), and
layer lists as colon tuples, `model.cnn1d_layers = 32:7,64:5`.
"""

from dataclasses import dataclass, field, fields, is_dataclass, make_dataclass

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


def _format_value(value) -> str:
    if isinstance(value, tuple):  # a layer list
        return ",".join(":".join(map(str, layer)) for layer in value)
    if value is None or isinstance(value, bool):
        return str(value).lower()  # none, true, false
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(raw: str, default):
    """Parse `raw` as a value of the kind of the field's `default`."""
    if default is None:  # optional int (preprocess.window)
        return None if raw.lower() == "none" else int(raw)
    if isinstance(default, tuple):  # a layer list
        return tuple(tuple(int(p) for p in item.split(":")) for item in raw.split(",") if item)
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return raw.lower() == "true"
    return type(default)(raw)  # int, float or str


def _sections(cfg: RunConfig):
    return {
        "preprocess": cfg.preprocess,
        "model": cfg.model,
        "train": cfg.train,
        "schedule": cfg.train.schedule,
        "data": cfg,
    }


def _keys(obj):
    """A section's keys: the fields of its object that do not hold a nested
    config, by name."""
    return {f.name: f for f in fields(obj) if not is_dataclass(getattr(obj, f.name))}


def parse_config_text(text: str) -> RunConfig:
    """Apply `key = value` lines on top of defaults; unknown keys are errors."""
    cfg = RunConfig()
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
        keys = _keys(obj) if obj is not None else {}
        if field_name not in keys:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            setattr(obj, field_name, _parse_value(raw, keys[field_name].default))
        except ValueError as e:
            raise ValueError(f"config line {line_no}: {key}: {e}") from None
    for obj in sections.values():  # re-run the invariant checks
        if hasattr(obj, "__post_init__"):
            obj.__post_init__()
    return cfg


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{section_name}.{name} = {_format_value(getattr(obj, name))}\n"
                   for section_name, obj in _sections(cfg).items() for name in _keys(obj))


def load_config_file(path) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read())
