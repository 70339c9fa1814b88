"""The ``key=value`` settings shared by the CLI and benchmark suites.

A ``pdmd`` flag, a ``--config`` line and a ``[scenario]`` line of a
suite are the same setting: an ``Option`` with a name, a parser and
the ``SynthSpec``/``FitOptions``/``RegressorSpec`` field it sets.  An
option that sets a field carries no default, so an unset option leaves
that dataclass's default in force; only command-level settings (the
synthetic family, output paths) have defaults here.  Parsers raise
``ValueError``; each front end maps it to its own exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .pipeline import FitOptions
from .regression import EXTRAPOLATION_POLICIES, KINDS, RegressorSpec, default_spec
from .synth import FAMILIES

FAMILY_ALIASES = {
    "linear": "linear-operator",
    "modes": "exp-modes",
    "oscillator": "lifted-oscillator",
}


def parse_uint(text, minimum=0, name="value") -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {text!r}") from exc
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def parse_float(text, name="value") -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number, got {text!r}") from exc


def parse_fraction(text, name="value") -> float:
    value = parse_float(text, name)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def parse_list(text, convert) -> list:
    """Comma-separated items, each converted; an empty item is an error."""
    items = [item.strip() for item in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in comma-separated list {text!r}")
    return [convert(item) for item in items]


def parse_floats(text) -> list:
    return parse_list(text, parse_float)


def parse_indices(text) -> list:
    return parse_list(text, lambda item: parse_uint(item, 0, "index"))


def parse_pair(text) -> tuple:
    values = parse_floats(text)
    if len(values) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return (values[0], values[1])


def parse_bool(text) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_family(text) -> str:
    name = FAMILY_ALIASES.get(text, text)
    if name not in FAMILIES:
        raise ValueError(
            f"unknown family {text!r}; use one of {FAMILIES} "
            f"(aliases: {sorted(FAMILY_ALIASES)})"
        )
    return name


def choice(choices, name):
    choices = tuple(choices)

    def convert(text):
        if text not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {text!r}")
        return text

    return convert


@dataclass(frozen=True)
class Option:
    """One setting: flag ``--name``, config or suite key ``name``.
    ``field`` names the dataclass field it sets; ``default`` is for
    command-level settings only."""

    name: str
    parse: object
    help: str = ""
    field: str | None = None
    default: object = None
    flag: bool = False
    repeat: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def uint_option(name, minimum, help="", field=None) -> Option:
    return Option(name, lambda t: parse_uint(t, minimum, name), help, field)


def float_option(name, help="", field=None) -> Option:
    return Option(name, lambda t: parse_float(t, name), help, field)


SEED = uint_option("seed", 0, "random seed", "seed")
RANK = uint_option("rank", 1, "latent rank (default: from --energy)", "rank")

# SynthSpec fields; the seed is a separate setting
DATASET = [
    Option("family", parse_family,
           "dataset family (linear-operator, exp-modes, lifted-oscillator)",
           "family", default="linear-operator"),
    uint_option("nh", 1, "state dimension", "n_h"),
    uint_option("np", 1, "number of parameter values", "n_params"),
    uint_option("nt", 2, "number of time instants", "n_t"),
    float_option("dt", "time step", "dt"),
    float_option("t0", "first instant", "t0"),
    float_option("noise", "gaussian noise standard deviation", "noise_std"),
    Option("param-range", parse_pair, "lo,hi parameter interval", "param_range"),
]

# FitOptions and RegressorSpec fields that fits and suite scenarios share
MODEL = [
    uint_option("op-rank", 1, "operator-space rank (roi only)", "op_rank"),
    Option("regressor", choice(KINDS, "regressor"),
           "parameter-space regressor kind (default: linear for a scalar "
           "parameter, rbf-gauss otherwise)", "kind"),
    float_option("rbf-shape", "radial basis shape parameter", "shape"),
    uint_option("poly-degree", 1, "polynomial regressor degree", "degree"),
    Option("extrapolation", choice(EXTRAPOLATION_POLICIES, "extrapolation"),
           "out-of-hull query policy", "extrapolation"),
    uint_option("bag-trials", 1, "bagging trials for rkoi members", "bag_trials"),
    Option("bag-fraction", lambda t: parse_fraction(t, "bag-fraction"),
           "time-subset fraction per bagging trial, in (0, 1]", "bag_fraction"),
]


def keywords(cls, options, values) -> dict:
    """The keywords of dataclass ``cls`` that ``values`` (parsed
    settings keyed by option dest) set; an unset option is left out, so
    the class default applies."""
    names = {f.name for f in fields(cls)}
    return {
        opt.field: values[opt.dest]
        for opt in options
        if opt.field in names and values.get(opt.dest) is not None
    }


def fit_keywords(options, values, param_dim: int) -> dict:
    """The ``FitOptions`` keywords the settings set, with ``regressor``
    when they set a ``RegressorSpec`` field; an unset kind then falls
    back to ``default_spec(param_dim)``."""
    kwargs = keywords(FitOptions, options, values)
    given = keywords(RegressorSpec, options, values)
    if given:
        kwargs["regressor"] = replace(default_spec(param_dim), **given)
    return kwargs
