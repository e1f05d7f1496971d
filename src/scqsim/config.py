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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import normalize_state
from .errors import ConfigError
from .hamiltonians import QUBIT_KINDS, QubitParams, default_params, induced_charge

COMMANDS = ("simulate", "design", "drive-run", "lyapunov")

# key -> (required, parser-name); parser names resolved in _convert
_COMMAND_KEYS = {
    "simulate": {
        "qubit": (True, "kind"),
        "model": (False, "model"),
        "params": (False, "path"),
        "psi0": (False, "state"),
        "t_final": (True, "positive_float"),
        "dt": (False, "positive_float"),
        "out": (False, "str"),
        "format": (False, "format"),
    },
    "design": {
        "qubit": (True, "kind"),
        "params": (False, "path"),
        "psi0": (True, "state"),
        "psif": (True, "state"),
        "tf": (True, "positive_float"),
        "out": (False, "str"),
        "format": (False, "json_format"),
    },
    "drive-run": {
        "qubit": (True, "kind"),
        "params": (False, "path"),
        "psi0": (True, "state"),
        "psif": (True, "state"),
        "tf": (True, "positive_float"),
        "steps": (False, "positive_int"),
        "substeps": (False, "positive_int"),
        "out": (False, "str"),
        "format": (False, "json_format"),
    },
    "lyapunov": {
        "r0": (True, "bloch"),
        "rf": (True, "bloch"),
        "alpha": (True, "positive_float"),
        "beta": (True, "positive_float"),
        "dt": (True, "positive_float"),
        "steps": (False, "positive_int"),
        "integrator": (False, "integrator"),
        "params": (False, "path"),
        "out": (False, "str"),
        "format": (False, "format"),
    },
}

#: output formats accepted by each format parser
_FORMATS = {"format": ("csv", "json"), "json_format": ("json",)}

_PARAM_KEYS = ("E_c", "E_J", "E_L", "C_g", "n_g", "I_g", "phi_e",
               "E_LJ0", "n_zpf", "phi_zpf", "V_g")


@dataclass
class RunConfig:
    """One fully resolved command invocation."""

    command: str
    qubit_kind: Optional[str] = None
    model: str = "approx"
    n_levels: Optional[int] = None
    params: Optional[QubitParams] = None
    params_path: Optional[str] = None
    psi0: Optional[np.ndarray] = None
    psif: Optional[np.ndarray] = None
    r0: Optional[np.ndarray] = None
    rf: Optional[np.ndarray] = None
    t_final: Optional[float] = None
    dt: Optional[float] = None
    steps: Optional[int] = None
    substeps: int = 1
    alpha: Optional[float] = None
    beta: Optional[float] = None
    integrator: str = "fixed_rk4"
    out: Optional[str] = None
    fmt: str = "csv"
    defaults_used: dict = field(default_factory=dict)


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
    vec = np.array(amps)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"state spec norm {norm:.9g} differs from 1; normalizing")
    return normalize_state(vec)


def parse_bloch_spec(text: str) -> np.ndarray:
    """Unit Bloch vector from 'x,y,z'; normalized with a warning if off."""
    pieces = text.strip().split(",")
    if len(pieces) != 3:
        raise ConfigError(f"Bloch spec {text!r} is not 'x,y,z'")
    try:
        r = np.array([float(p) for p in pieces])
    except ValueError:
        raise ConfigError(f"Bloch spec {text!r} is not numeric") from None
    norm = np.linalg.norm(r)
    if norm == 0:
        raise ConfigError("Bloch spec must be non-zero")
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"Bloch spec norm {norm:.9g} differs from 1; normalizing")
    return r / norm


def parse_model_spec(text: str) -> tuple[str, Optional[int]]:
    """'approx' | 'exact2' | 'fock:N' -> (model, n_levels)."""
    if text == "approx":
        return "approx", None
    if text == "exact2":
        return "exact2", None
    if text.startswith("fock:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad Fock level count in model {text!r}") from None
        if n < 4:
            raise ConfigError("fock model needs at least 4 levels")
        return "fock", n
    raise ConfigError(f"unknown model {text!r} (expected approx, exact2 or fock:N)")


def format_choices(command: str) -> tuple:
    """Output formats the command can write."""
    return _FORMATS[_COMMAND_KEYS[command]["format"][1]]


def _read_key_values(path: Path):
    """Yield (lineno, key, value) from flat key = value text, skipping comments."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
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


def _convert(kind: str, key: str, value: str, lineno, path):
    where = f"{path}:{lineno}"
    try:
        if kind == "positive_float":
            x = float(value)
            if not (math.isfinite(x) and x > 0):
                raise ConfigError(f"{where}: {key} must be a positive finite number")
            return x
        if kind == "positive_int":
            n = int(value)
            if n < 1:
                raise ConfigError(f"{where}: {key} must be a positive integer")
            return n
        if kind == "kind":
            if value not in QUBIT_KINDS:
                raise ConfigError(f"{where}: unknown qubit kind {value!r}")
            return value
        if kind == "model":
            return parse_model_spec(value)
        if kind == "state":
            return parse_state_spec(value)
        if kind == "bloch":
            return parse_bloch_spec(value)
        if kind in _FORMATS:
            if value not in _FORMATS[kind]:
                raise ConfigError(f"{where}: format must be {' or '.join(_FORMATS[kind])}")
            return value
        if kind == "integrator":
            if value not in ("fixed_rk4", "substepped"):
                raise ConfigError(f"{where}: integrator must be fixed_rk4 or substepped")
            return value
        if kind == "path":
            return value
        return value  # "str"
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: cannot parse {key} value {value!r}") from None


def parse_params_file(path, kind: str) -> QubitParams:
    """Qubit parameters from a key = value file, merged over the kind defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"params file {path} does not exist")
    seen = {}
    for lineno, key, value in _read_key_values(path):
        if key == "[section]":
            raise ConfigError(f"{path}:{lineno}: params files take no section header")
        if key not in _PARAM_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown parameter key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate parameter key {key!r}")
        try:
            seen[key] = float(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} value {value!r} is not numeric") from None
    if "V_g" in seen and "n_g" in seen:
        raise ConfigError(f"{path}: give V_g or n_g, not both")
    base = default_params(kind)
    fields = {name: getattr(base, name) for name in
              ("E_c", "E_J", "E_L", "C_g", "n_g", "I_g", "phi_e",
               "E_LJ0", "n_zpf", "phi_zpf")}
    V_g = seen.pop("V_g", None)
    fields.update(seen)
    if V_g is not None:
        fields["n_g"] = induced_charge(fields["C_g"], V_g)
    return QubitParams(qubit_kind=kind, **fields)


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file (fail-closed)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    command = None
    entries = []
    for lineno, key, value in _read_key_values(path):
        if key == "[section]":
            if value not in COMMANDS:
                raise ConfigError(f"{path}:{lineno}: unknown command section {value!r}")
            command = value
            continue
        entries.append((lineno, key, value))
    if command is None:
        raise ConfigError(f"{path}: missing command section header, e.g. [simulate]")
    schema = _COMMAND_KEYS[command]
    seen = {}
    for lineno, key, value in entries:
        if key not in schema:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} for command {command!r}"
            )
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen[key] = _convert(schema[key][1], key, value, lineno, path)
    missing = [k for k, (required, _) in schema.items() if required and k not in seen]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing} for {command!r}")
    return _assemble(command, seen, base_dir=path.parent)


def _assemble(command: str, seen: dict, base_dir: Optional[Path] = None) -> RunConfig:
    cfg = RunConfig(command=command)
    defaults = cfg.defaults_used
    cfg.qubit_kind = seen.get("qubit")
    if "model" in seen:
        cfg.model, cfg.n_levels = seen["model"]
    elif command == "simulate":
        defaults["model"] = "approx"
    cfg.psi0 = seen.get("psi0")
    if command == "simulate" and cfg.psi0 is None:
        cfg.psi0 = np.array([1.0 + 0j, 0.0 + 0j])
        defaults["psi0"] = "1,0;0,0"
    cfg.psif = seen.get("psif")
    cfg.r0 = seen.get("r0")
    cfg.rf = seen.get("rf")
    cfg.t_final = seen.get("t_final") or seen.get("tf")
    if "dt" in seen:
        cfg.dt = seen["dt"]
    elif command == "simulate":
        cfg.dt = cfg.t_final / 2000.0
        defaults["dt"] = "t_final / 2000"
    if "steps" in seen:
        cfg.steps = seen["steps"]
    elif command == "simulate":
        cfg.steps = max(1, round(cfg.t_final / cfg.dt))
        if abs(cfg.steps * cfg.dt - cfg.t_final) > 1e-9 * cfg.t_final:
            raise ConfigError(f"t_final = {cfg.t_final!r} is not a whole number of "
                              f"dt = {cfg.dt!r} samples")
    elif command == "drive-run":
        cfg.steps = 2000
        defaults["steps"] = 2000
    elif command == "lyapunov":
        cfg.steps = 20000
        defaults["steps"] = 20000
    cfg.substeps = seen.get("substeps", 1)
    cfg.alpha = seen.get("alpha")
    cfg.beta = seen.get("beta")
    cfg.integrator = seen.get("integrator", "fixed_rk4")
    cfg.out = seen.get("out")
    cfg.fmt = seen.get("format", "csv")
    if "params" in seen:
        params_path = Path(seen["params"])
        if base_dir is not None and not params_path.is_absolute():
            params_path = base_dir / params_path
        cfg.params_path = str(params_path)
    kind = cfg.qubit_kind if cfg.qubit_kind is not None else "lcjj"
    if cfg.params_path is not None:
        cfg.params = parse_params_file(cfg.params_path, kind)
    else:
        cfg.params = default_params(kind)
    return cfg


def config_from_options(command: str, options: dict) -> RunConfig:
    """Build a RunConfig from already-typed CLI option values (None = absent)."""
    seen = {}
    for key, value in options.items():
        if value is None:
            continue
        spec = _COMMAND_KEYS[command].get(key)
        if spec is None:
            raise ConfigError(f"option {key!r} does not apply to {command!r}")
        kind = spec[1]
        if kind in ("positive_int", "positive_float") and not value > 0:
            raise ConfigError(f"option {key!r} must be positive")
        if kind in ("state", "bloch", "model") and isinstance(value, str):
            value = {"state": parse_state_spec, "bloch": parse_bloch_spec,
                     "model": parse_model_spec}[kind](value)
        seen[key] = value
    missing = [k for k, (required, _) in _COMMAND_KEYS[command].items()
               if required and k not in seen]
    if missing:
        raise ConfigError(f"missing required options {missing} for {command!r}")
    return _assemble(command, seen)
