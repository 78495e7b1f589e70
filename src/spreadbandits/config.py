"""Run configuration: a strict, flat key-value format with sections.

Example::

    [instance]
    means = [[2.0, 0.0], [0.9, 1.2]]
    variances = [0.25, 1.0]

    [run]
    mode = simulate
    T = 10000
    replications = 20
    seed = 42
    policies = [wts, ts_unknown, oracle]
    mc_samples = 1024
    thin = 10
    out = results/run1

Unknown sections or keys are errors, never ignored.  ``mode`` selects
``simulate`` (needs ``[instance]``), ``gain`` (needs ``[gain]`` with
``g_coeffs``, ``h_coeffs``, ``K``), or ``verify`` (needs neither).  ``out``
is a path prefix: the runner writes ``<out>.csv`` and ``<out>.json``.

A :class:`RunConfig` is valid by construction: its ``__post_init__`` checks
every run rule, so a config built in Python, or changed with
:meth:`RunConfig.replaced`, meets the same rules as one read from a file.
:func:`parse_config` turns the text into typed fields and checks that
the instance or problem they describe can be built.
"""

import ast
import configparser
import io
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import new_instance
from .errors import BanditError, InvalidParams, ParseError, ValidationError
from .policies import KINDS
from .posterior import _count
from .sysid import grid_from_fir

MODES = ("simulate", "gain", "verify")
# the section each mode reads besides [run]
MODE_SECTION = {"simulate": "instance", "gain": "gain", "verify": None}

# smallest accepted value of each integer field
_MINIMA = {"T": 4, "replications": 1, "seed": 0, "mc_samples": 1, "thin": 1,
           "K": 2}


def _in(section: str):
    """A field of config section ``section``, unset by default."""
    return field(default=None, metadata={"section": section})


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A run description, checked in full when it is built.

    ``means`` and ``variances`` come from the ``[instance]`` section,
    ``g_coeffs``, ``h_coeffs`` and ``K`` from ``[gain]``, the rest from
    ``[run]``.  ``__post_init__`` raises :class:`ValidationError`, naming
    the field, on any rule a config file must meet.
    """

    mode: str
    T: int | None = None
    replications: int = 1
    seed: int = 0
    policies: tuple = ("wts",)
    mc_samples: int = 1024
    thin: int = 1
    out: str = "trace"
    means: np.ndarray | None = _in("instance")
    variances: np.ndarray | None = _in("instance")
    g_coeffs: np.ndarray | None = _in("gain")
    h_coeffs: np.ndarray | None = _in("gain")
    K: int | None = _in("gain")

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode: expected one of {', '.join(MODES)}, "
                                  f"got {self.mode!r}")
        for key, low in _MINIMA.items():
            val = getattr(self, key)
            if val is not None:
                try:  # the one count rule, and the field keeps the int
                    object.__setattr__(self, key, _count(val, key, low))
                except InvalidParams as e:
                    raise ValidationError(str(e)) from None
        if not self.policies:
            raise ValidationError("policies: empty list")
        for name in self.policies:
            if name not in KINDS:
                raise ValidationError(
                    f"policies: unknown policy {name!r} "
                    f"(known: {', '.join(KINDS)})")
        if len(set(self.policies)) != len(self.policies):
            raise ValidationError("policies: duplicate entries")
        if not self.out:
            raise ValidationError("out: empty path")
        used = MODE_SECTION[self.mode]
        if used is not None and self.T is None:
            raise ValidationError(f"T: required in {self.mode} mode")
        for f in fields(self):
            section = f.metadata.get("section")
            if section is None:
                continue
            if section == used and getattr(self, f.name) is None:
                raise ValidationError(f"{f.name}: required in {self.mode} "
                                      f"mode, in the [{section}] section")
            if section != used and getattr(self, f.name) is not None:
                raise ValidationError(f"{f.name}: not used in {self.mode} "
                                      f"mode")

    def replaced(self, **kw) -> "RunConfig":
        """A copy with the fields in ``kw`` changed, checked like any
        other config."""
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """Plain-JSON echo of every configured field."""
        d = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None and "section" in f.metadata:
                continue
            if isinstance(val, np.ndarray):
                val = val.tolist()
            elif isinstance(val, tuple):
                val = list(val)
            d[f.name] = val
        return d


def build_instance(cfg: RunConfig):
    """The bandit instance of a simulate or gain config."""
    if cfg.mode == "gain":
        return grid_from_fir(cfg.g_coeffs, cfg.h_coeffs, cfg.K).instance
    return new_instance(cfg.means, cfg.variances)


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip(), 10)
    except ValueError:
        raise ValidationError(
            f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_array(section: str, key: str, raw: str) -> np.ndarray:
    """A nonempty list of numbers; ``means`` is a list of pairs."""
    ndim = 2 if key == "means" else 1
    try:
        arr = np.asarray(ast.literal_eval(raw.strip()), dtype=np.float64)
    except (ValueError, SyntaxError, TypeError):
        arr = None
    if arr is None or arr.ndim != ndim or arr.size == 0:
        kind = "a nested list" if ndim == 2 else "a nonempty flat list"
        raise ValidationError(
            f"[{section}] {key}: expected {kind} of numbers, got {raw!r}")
    return arr


def parse_config(text: str) -> RunConfig:
    """Parse config text into a :class:`RunConfig`.

    Raises :class:`ParseError` on malformed syntax (the message carries the
    offending line) and :class:`ValidationError` on unknown or out-of-range
    fields, always naming the field.
    """
    cp = configparser.ConfigParser(delimiters=("=",),
                                   comment_prefixes=("#", ";"),
                                   inline_comment_prefixes=("#", ";"),
                                   strict=True, interpolation=None)
    cp.optionxform = str  # keys are case-sensitive ("T")
    try:
        cp.read_file(io.StringIO(text), source="<config>")
    except configparser.Error as e:
        raise ParseError(str(e)) from None

    if cp.defaults():
        key = next(iter(cp.defaults()))
        raise ValidationError(f"key {key!r} appears outside any section")
    known = {}
    for f in fields(RunConfig):
        known.setdefault(f.metadata.get("section", "run"), []).append(f.name)
    for section in cp.sections():
        if section not in known:
            raise ValidationError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in known[section]:
                raise ValidationError(f"[{section}] unknown key {key!r}")

    mode = cp.get("run", "mode", fallback="").strip()
    if mode in MODE_SECTION:
        for section in cp.sections():
            if section not in ("run", MODE_SECTION[mode]):
                raise ValidationError(
                    f"{mode} mode does not use the [{section}] section")

    kw = {"mode": None}  # RunConfig names a missing mode
    for section in cp.sections():
        for key, raw in cp[section].items():
            if key in _MINIMA:
                kw[key] = _parse_int(section, key, raw)
            elif section != "run":
                kw[key] = _parse_array(section, key, raw)
            elif key == "policies":
                names = raw.strip()
                if names.startswith("[") and names.endswith("]"):
                    names = names[1:-1]
                kw[key] = tuple(n.strip() for n in names.split(",")
                                if n.strip())
            else:
                kw[key] = raw.strip()
    cfg = RunConfig(**kw)
    if MODE_SECTION[cfg.mode] is not None:
        try:
            build_instance(cfg)
        except BanditError as e:
            raise ValidationError(
                f"config does not define a valid problem: {e}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
