"""Run configuration files and value parsers for the command-line front end.

A run config is flat INI-style text with one section naming the command:

    [simulate]
    qubit = charge
    model = exact2
    t_final = 5e-12

Unknown keys are rejected (fail closed) and every parse error carries the
line number. Qubit parameter files use the same key = value syntax without a
section header; keys mirror QubitParams fields plus the convenience key V_g
(gate voltage, converted to n_g through C_g).
"""

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import scaled_norm
from .errors import ConfigError
from .hamiltonians import DRIVE_KINDS, QUBIT_KINDS, QubitParams, default_params, induced_charge

#: schema default of a key the command cannot run without
REQUIRED = object()

#: the most one run may ask for (README, "Limits"): Fock levels and time steps;
#: each run at these caps stays within about 0.25 GB
MAX_FOCK_LEVELS = 200
MAX_STEPS = 500_000

#: accepted values of each enumerated kind
CHOICES = {
    "kind": QUBIT_KINDS,
    "drive_kind": DRIVE_KINDS,
    "integrator": ("fixed_rk4", "substepped"),
    "format": ("csv", "json"),
    "json_format": ("json",),
}

# command -> key -> (kind, default); kinds are parsed in _convert. A default is
# REQUIRED, None (absent) or config text, parsed like a given value. The CLI
# flags are generated from this table: key "t_final" is option --t-final.
COMMAND_KEYS = {
    "simulate": {
        "qubit": ("kind", REQUIRED),
        "model": ("model", "approx"),
        "psi0": ("state", "1,0;0,0"),
        "t_final": ("positive_float", REQUIRED),
        "dt": ("positive_float", None),  # t_final / 2000, see resolve
        "params": ("path", None),
        "out": ("str", None),
        "format": ("format", "csv"),
    },
    "design": {
        "qubit": ("drive_kind", REQUIRED),
        "psi0": ("state", REQUIRED),
        "psif": ("state", REQUIRED),
        "tf": ("positive_float", REQUIRED),
        "params": ("path", None),
        "out": ("str", None),
        "format": ("json_format", "json"),
    },
    "drive-run": {
        "qubit": ("drive_kind", REQUIRED),
        "psi0": ("state", REQUIRED),
        "psif": ("state", REQUIRED),
        "tf": ("positive_float", REQUIRED),
        "steps": ("steps", "2000"),
        "substeps": ("positive_int", None),  # validated, no effect
        "params": ("path", None),
        "out": ("str", None),
        "format": ("json_format", "json"),
    },
    "lyapunov": {
        "r0": ("bloch", REQUIRED),
        "rf": ("bloch", REQUIRED),
        "alpha": ("positive_float", REQUIRED),
        "beta": ("positive_float", REQUIRED),
        "dt": ("positive_float", REQUIRED),
        "steps": ("steps", "20000"),
        "integrator": ("integrator", "fixed_rk4"),
        "params": ("path", None),
        "out": ("str", None),
        "format": ("format", "csv"),
    },
}

COMMANDS = tuple(COMMAND_KEYS)

_PARAM_KEYS = {f.name for f in fields(QubitParams)} - {"qubit_kind"} | {"V_g"}


@dataclass
class RunConfig:
    """One fully resolved command invocation.

    Fields are named after the schema keys they come from, except ``fmt``
    (key ``format``), ``model`` and ``n_levels`` (both from key ``model``)
    and ``params``, the parameters that key's file (or the kind defaults)
    give.
    """

    command: str
    qubit: Optional[str] = None
    model: Optional[str] = None
    n_levels: Optional[int] = None
    params: Optional[QubitParams] = None
    psi0: Optional[np.ndarray] = None
    psif: Optional[np.ndarray] = None
    r0: Optional[np.ndarray] = None
    rf: Optional[np.ndarray] = None
    t_final: Optional[float] = None
    tf: Optional[float] = None
    dt: Optional[float] = None
    steps: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    integrator: Optional[str] = None
    out: Optional[str] = None
    fmt: Optional[str] = None
    defaults_used: dict = field(default_factory=dict)


def _normalized(vec: np.ndarray, text: str, what: str) -> np.ndarray:
    """``vec`` scaled to unit norm, with a warning when the norm is off by more than 1e-6."""
    scaled, norm, exponent = scaled_norm(vec)
    if not (math.isfinite(norm) and norm > 0):
        raise ConfigError(f"{what} {text!r} needs a finite, non-zero norm")
    full = norm * 2 * 2.0 ** (exponent - 1)  # the norm of vec; inf beyond the float range
    if abs(full - 1.0) > 1e-6:
        warnings.warn(f"{what} norm {full:.9g} differs from 1; normalizing")
    return scaled / norm


def parse_state_spec(text: str) -> np.ndarray:
    """Complex amplitudes from 're,im;re,im;...'; normalized with a warning if off."""
    parts = [p for p in text.strip().split(";") if p != ""]
    if len(parts) < 2:
        raise ConfigError(f"state spec {text!r} needs at least two amplitudes")
    amps = []
    for part in parts:
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError(f"state amplitude {part!r} is not 're,im'")
        try:
            amps.append(complex(float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ConfigError(f"state amplitude {part!r} is not numeric") from None
    return _normalized(np.array(amps), text, "state spec")


def parse_bloch_spec(text: str) -> np.ndarray:
    """Unit Bloch vector from 'x,y,z'; normalized with a warning if off."""
    pieces = text.strip().split(",")
    if len(pieces) != 3:
        raise ConfigError(f"Bloch spec {text!r} is not 'x,y,z'")
    try:
        r = np.array([float(p) for p in pieces])
    except ValueError:
        raise ConfigError(f"Bloch spec {text!r} is not numeric") from None
    return _normalized(r, text, "Bloch spec")


def parse_model_spec(text: str) -> tuple[str, Optional[int]]:
    """'approx' | 'exact2' | 'fock:N' -> (model, n_levels), with the model named
    as hamiltonians.build names it."""
    model = {"approx": "approximate", "exact2": "exact_two_level"}.get(text)
    if model is not None:
        return model, None
    if text.startswith("fock:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad Fock level count in model {text!r}") from None
        if n < 4:
            raise ConfigError("fock model needs at least 4 levels")
        if n > MAX_FOCK_LEVELS:
            raise ConfigError(f"fock model takes at most {MAX_FOCK_LEVELS} levels, not {n}")
        return "fock", n
    raise ConfigError(f"unknown model {text!r} (expected approx, exact2 or fock:N)")


def _read_key_values(path: Path, what: str):
    """Yield (lineno, key, value) from the flat key = value text of a ``what`` file."""
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise ConfigError(f"{what} file {path} does not exist") from None
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from None
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            if section is not None:
                raise ConfigError(f"{path}:{lineno}: second section header")
            section = line[1:-1].strip()
            yield lineno, "[section]", section
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _convert(kind: str, key: str, value: str, where: str):
    """Parse one option value of a schema kind; errors name ``where`` (file:line or flag)."""
    try:
        if kind in CHOICES:
            if value not in CHOICES[kind]:
                raise ConfigError(f"{key} must be {' or '.join(CHOICES[kind])}")
            return value
        if kind == "positive_float":
            x = float(value)
            if not (math.isfinite(x) and x > 0):
                raise ConfigError(f"{key} must be a positive finite number")
            return x
        if kind in ("positive_int", "steps"):
            n = int(value)
            if n < 1:
                raise ConfigError(f"{key} must be a positive integer")
            if kind == "steps" and n > MAX_STEPS:
                raise ConfigError(f"{key} must be at most {MAX_STEPS}, not {n}")
            return n
        if kind == "model":
            return parse_model_spec(value)
        if kind == "state":
            return parse_state_spec(value)
        if kind == "bloch":
            return parse_bloch_spec(value)
        if not value:  # "path", "str"
            raise ConfigError(f"{key} must not be empty")
        return value
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key} value {value!r}") from None


def parse_params_file(path, kind: str) -> QubitParams:
    """Qubit parameters from a key = value file, merged over the kind defaults.

    Each value must be a finite number its parameter accepts (QubitParams
    checks it); every error names the file and line.
    """
    path = Path(path)
    base = default_params(kind)
    seen, lines = {}, {}
    for lineno, key, value in _read_key_values(path, "params"):
        where = f"{path}:{lineno}"
        if key == "[section]":
            raise ConfigError(f"{where}: params files take no section header")
        if key not in _PARAM_KEYS:
            raise ConfigError(f"{where}: unknown parameter key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate parameter key {key!r}")
        if {"V_g", "n_g"} <= {key, *seen}:
            raise ConfigError(f"{where}: give V_g or n_g, not both")
        try:
            x = float(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} value {value!r} is not numeric") from None
        if not math.isfinite(x):
            raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")
        if key != "V_g":
            try:
                replace(base, **{key: x})
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        seen[key] = x
        lines[key] = lineno
    if "V_g" in seen:
        seen["n_g"] = induced_charge(seen.get("C_g", base.C_g), seen.pop("V_g"))
        if not math.isfinite(seen["n_g"]):
            raise ConfigError(f"{path}:{lines['V_g']}: V_g gives a non-finite n_g")
    params = replace(base, **seen)
    # the operator scales: a given one, else E_c and E_LJ0, fix the pair
    given = [k for k in ("n_zpf", "phi_zpf") if k in lines] or \
        [k for k in ("E_c", "E_LJ0") if k in lines]
    if given:
        try:
            scales = params.zpf()
        except ConfigError:  # no scales to derive; models that need them say so
            scales = ()
        if not all(map(math.isfinite, scales)):
            key = max(given, key=lines.get)
            raise ConfigError(f"{path}:{lines[key]}: {key} gives non-finite operator scales "
                              f"(n_zpf, phi_zpf) = {scales}")
    return params


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file (fail-closed)."""
    path = Path(path)
    command = None
    entries = []
    for lineno, key, value in _read_key_values(path, "config"):
        if key == "[section]":
            if value not in COMMANDS:
                raise ConfigError(f"{path}:{lineno}: unknown command section {value!r}")
            command = value
            continue
        entries.append((f"{path}:{lineno}", key, value))
    if command is None:
        raise ConfigError(f"{path}: missing command section header, e.g. [simulate]")
    return resolve(command, entries, str(path), base_dir=path.parent)


def resolve(command: str, entries, where: str, base_dir: Path = Path()) -> RunConfig:
    """Validate (location, key, text) entries against the command's schema.

    Both front ends end here: config files give each entry its file:line and
    the CLI its flag. Keys are checked and converted in order, missing
    required keys reported, and absent keys with a default filled in and
    recorded in ``defaults_used``. A relative params path is taken from
    ``base_dir``.
    """
    schema = COMMAND_KEYS[command]
    seen, locations = {}, {}
    for location, key, value in entries:
        if key not in schema:
            raise ConfigError(f"{location}: unknown key {key!r} for command {command!r}")
        if key in seen:
            raise ConfigError(f"{location}: duplicate key {key!r}")
        seen[key] = _convert(schema[key][0], key, value, location)
        locations[key] = location
    missing = [k for k, (_, default) in schema.items() if default is REQUIRED and k not in seen]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing} for {command!r}")
    defaults = {}
    for key, (kind, default) in schema.items():
        if key not in seen and default is not None:
            seen[key] = _convert(kind, key, default, f"default {key}")
            defaults[key] = default
    seen.pop("substeps", None)  # validated, no effect
    model, n_levels = seen.pop("model", (None, None))
    params_file = seen.pop("params", None)
    cfg = RunConfig(command, model=model, n_levels=n_levels, fmt=seen.pop("format"),
                    defaults_used=defaults, **seen)
    if command == "simulate":
        if cfg.dt is None:
            cfg.dt = cfg.t_final / 2000.0
            defaults["dt"] = "t_final / 2000"
            if cfg.dt == 0.0:
                raise ConfigError(f"{locations['t_final']}: t_final = {cfg.t_final!r} is too "
                                  "short: its default dt = t_final / 2000 underflows to 0")
        if not cfg.t_final / cfg.dt < MAX_STEPS + 0.5:
            raise ConfigError(f"{locations.get('dt', locations['t_final'])}: t_final / dt is "
                              f"{cfg.t_final / cfg.dt:.6g} steps; at most {MAX_STEPS}")
        cfg.steps = max(1, round(cfg.t_final / cfg.dt))
        if abs(cfg.steps * cfg.dt - cfg.t_final) > 1e-9 * cfg.t_final:
            raise ConfigError(f"{where}: t_final = {cfg.t_final!r} is not a whole number "
                              f"of dt = {cfg.dt!r} samples")
    if command == "lyapunov" and not math.isfinite(cfg.dt * cfg.steps):
        raise ConfigError(f"{locations['dt']}: the horizon dt * steps = {cfg.dt!r} * {cfg.steps} "
                          "overflows; it must be finite")
    kind = cfg.qubit if cfg.qubit is not None else "lcjj"
    if params_file is None:
        cfg.params = default_params(kind)
    else:
        cfg.params = parse_params_file(base_dir / params_file, kind)
    return cfg
