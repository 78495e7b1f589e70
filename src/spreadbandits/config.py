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
"""

import ast
import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import BanditError, ParseError, ValidationError
from .policies import KINDS

MODES = ("simulate", "gain", "verify")

_INSTANCE_KEYS = {"means", "variances"}
_RUN_KEYS = {"mode", "T", "replications", "seed", "policies", "mc_samples",
             "thin", "out"}
_GAIN_KEYS = {"g_coeffs", "h_coeffs", "K"}

DEFAULT_REPLICATIONS = 1
DEFAULT_MC_SAMPLES = 1024
DEFAULT_THIN = 1
DEFAULT_SEED = 0
DEFAULT_OUT = "trace"
DEFAULT_POLICIES = ("wts",)

# smallest accepted value of each integer run field
_RUN_MINIMA = {"T": 4, "replications": 1, "seed": 0, "mc_samples": 1,
               "thin": 1}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated contents of a config file."""

    mode: str
    T: int | None = None
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    policies: tuple = DEFAULT_POLICIES
    mc_samples: int = DEFAULT_MC_SAMPLES
    thin: int = DEFAULT_THIN
    out: str = DEFAULT_OUT
    means: np.ndarray | None = None
    variances: np.ndarray | None = None
    g_coeffs: np.ndarray | None = None
    h_coeffs: np.ndarray | None = None
    K: int | None = None

    def replaced(self, **kw) -> "RunConfig":
        vals = {f: getattr(self, f) for f in self.__dataclass_fields__}
        vals.update(kw)
        return RunConfig(**vals)

    def to_dict(self) -> dict:
        """Plain-JSON echo of every configured field."""
        d = {
            "mode": self.mode,
            "T": self.T,
            "replications": self.replications,
            "seed": self.seed,
            "policies": list(self.policies),
            "mc_samples": self.mc_samples,
            "thin": self.thin,
            "out": self.out,
        }
        if self.means is not None:
            d["means"] = self.means.tolist()
            d["variances"] = self.variances.tolist()
        if self.g_coeffs is not None:
            d["g_coeffs"] = self.g_coeffs.tolist()
            d["h_coeffs"] = self.h_coeffs.tolist()
            d["K"] = self.K
        return d


def check_run_fields(fields: dict) -> None:
    """Reject run fields that are not integers at or above their minimum.

    ``parse_config`` and ``run`` both call this, so a config built in
    Python meets the same rules as one read from a file;
    ``run_verification`` checks its seed with it too.  Absent (``None``)
    fields are skipped.
    """
    for key, low in _RUN_MINIMA.items():
        val = fields.get(key)
        if val is None:
            continue
        if not isinstance(val, (int, np.integer)):
            raise ValidationError(
                f"[run] {key}: expected an integer, got {val!r}")
        if val < low:
            raise ValidationError(f"[run] {key}: must be >= {low}, got {val}")


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip(), 10)
    except ValueError:
        raise ValidationError(
            f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_floats(section: str, key: str, raw: str) -> np.ndarray:
    try:
        val = ast.literal_eval(raw.strip())
        arr = np.asarray(val, dtype=np.float64)
    except (ValueError, SyntaxError, TypeError):
        raise ValidationError(
            f"[{section}] {key}: expected a list of numbers, got {raw!r}"
        ) from None
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValidationError(
            f"[{section}] {key}: expected a nonempty flat list, got {raw!r}")
    return arr


def _parse_means(raw: str) -> np.ndarray:
    try:
        val = ast.literal_eval(raw.strip())
        arr = np.asarray(val, dtype=np.float64)
    except (ValueError, SyntaxError, TypeError):
        raise ValidationError(
            f"[instance] means: expected a nested list, got {raw!r}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(
            f"[instance] means: expected K x 2 entries, got shape {arr.shape}")
    return arr


def _parse_policies(raw: str) -> tuple:
    s = raw.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    names = tuple(part.strip() for part in s.split(",") if part.strip())
    if not names:
        raise ValidationError("[run] policies: empty list")
    for name in names:
        if name not in KINDS:
            raise ValidationError(
                f"[run] policies: unknown policy {name!r} "
                f"(known: {', '.join(KINDS)})")
    if len(set(names)) != len(names):
        raise ValidationError("[run] policies: duplicate entries")
    return names


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text.

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

    for section in cp.sections():
        if section not in ("instance", "run", "gain"):
            raise ValidationError(f"unknown section [{section}]")
    if cp.defaults():
        key = next(iter(cp.defaults()))
        raise ValidationError(f"key {key!r} appears outside any section")
    known = {"instance": _INSTANCE_KEYS, "run": _RUN_KEYS, "gain": _GAIN_KEYS}
    for section in cp.sections():
        for key in cp[section]:
            if key not in known[section]:
                raise ValidationError(f"[{section}] unknown key {key!r}")

    if not cp.has_section("run") or "mode" not in cp["run"]:
        raise ValidationError("[run] mode is required")
    run = cp["run"]
    mode = run["mode"].strip()
    if mode not in MODES:
        raise ValidationError(
            f"[run] mode: expected one of {', '.join(MODES)}, got {mode!r}")

    kw: dict = {"mode": mode}
    for key in ("T", "replications", "seed", "mc_samples", "thin"):
        if key in run:
            kw[key] = _parse_int("run", key, run[key])
    check_run_fields(kw)
    if "policies" in run:
        kw["policies"] = _parse_policies(run["policies"])
    if "out" in run:
        out = run["out"].strip()
        if not out:
            raise ValidationError("[run] out: empty path")
        kw["out"] = out

    if mode == "simulate":
        if not cp.has_section("instance"):
            raise ValidationError("simulate mode requires an [instance] "
                                  "section")
        if cp.has_section("gain"):
            raise ValidationError("simulate mode does not use a [gain] "
                                  "section")
        if kw.get("T") is None:
            raise ValidationError("[run] T is required in simulate mode")
        inst = cp["instance"]
        for need in ("means", "variances"):
            if need not in inst:
                raise ValidationError(f"[instance] {need} is required")
        kw["means"] = _parse_means(inst["means"])
        kw["variances"] = _parse_floats("instance", "variances",
                                        inst["variances"])
    elif mode == "gain":
        if not cp.has_section("gain"):
            raise ValidationError("gain mode requires a [gain] section")
        if cp.has_section("instance"):
            raise ValidationError("gain mode does not use an [instance] "
                                  "section")
        if kw.get("T") is None:
            raise ValidationError("[run] T is required in gain mode")
        g = cp["gain"]
        for need in ("g_coeffs", "h_coeffs", "K"):
            if need not in g:
                raise ValidationError(f"[gain] {need} is required")
        kw["g_coeffs"] = _parse_floats("gain", "g_coeffs", g["g_coeffs"])
        kw["h_coeffs"] = _parse_floats("gain", "h_coeffs", g["h_coeffs"])
        kw["K"] = _parse_int("gain", "K", g["K"])
        if kw["K"] < 2:
            raise ValidationError(f"[gain] K: must be >= 2, got {kw['K']}")
    else:  # verify
        for sec in ("instance", "gain"):
            if cp.has_section(sec):
                raise ValidationError(
                    f"verify mode does not use an [{sec}] section")

    cfg = RunConfig(**kw)
    _check_buildable(cfg)
    return cfg


def _check_buildable(cfg: RunConfig) -> None:
    """Fail at parse time if the instance or problem cannot be built."""
    # imported here to keep config importable without the heavier modules
    from .core import new_instance
    from .sysid import grid_from_fir
    try:
        if cfg.mode == "simulate":
            new_instance(cfg.means, cfg.variances)
        elif cfg.mode == "gain":
            grid_from_fir(cfg.g_coeffs, cfg.h_coeffs, cfg.K)
    except BanditError as e:
        raise ValidationError(f"config does not define a valid problem: {e}"
                              ) from None


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
