"""Scenario files: flat INI-style blocks that drive the pipeline.

A scenario is data, not code: every functional coefficient is an expression
string, every numeric knob a plain literal.  Loading validates structure and
values and returns a frozen `Scenario`; anything wrong raises
`ScenarioError` with a message naming the section and key.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass

from . import expr, regularize, symbol

# every key a block may hold; unknown sections or keys are typos, not options
_SECTIONS = {
    "symbol": ("A", "V", "jumps"),
    "initial": ("S0", "S0_prime", "phi0", "rho0"),
    "domain": ("x_min", "x_max", "n_x0", "T", "h_t", "store_every"),
    "tunnel": ("h", "dx", "w_min", "w_max"),
    "regularization": ("epsilon", "beta", "B_profile"),
    "verify": ("bumps", "seed"),
    "output": ("dir",),
}

# two names of one blend curve: (1 + tanh z)/2 = 1/(1 + exp(-2z))
_BLEND_PROFILES = ("logistic", "tanh")

_REQUIRED = (("initial", "S0"), ("domain", "x_min"), ("domain", "x_max"),
             ("domain", "n_x0"), ("domain", "T"), ("domain", "h_t"))


class ScenarioError(ValueError):
    """Scenario file fails validation (structure, keys, or values)."""


@dataclass(frozen=True)
class Scenario:
    m: symbol.SymbolModel
    S0: str
    S0_prime: object          # str or None
    rho0: str
    phi0: str
    x_min: float
    x_max: float
    n_x0: int
    T: float
    h_t: float
    store_every: int
    h_schedule: tuple
    lattice_dx: float
    window: tuple
    eps_schedule: tuple
    betas: object             # tuple or None
    bumps: int
    seed: int
    out_dir: object           # str or None
    sections: dict            # raw key/value echo for the run manifest
    sha256: str


def _fail(section, key, msg):
    raise ScenarioError(f"[{section}] {key}: {msg}")


def _check_expr(section, key, src):
    try:
        expr.parse(src)
    except expr.ExpressionError as ex:
        _fail(section, key, str(ex))
    return src


def _float(section, key, raw):
    try:
        v = float(raw)
    except ValueError:
        _fail(section, key, f"not a number: {raw!r}")
    if not math.isfinite(v):
        _fail(section, key, "must be finite")
    return v


def _int(section, key, raw):
    try:
        return int(raw, 0)
    except ValueError:
        _fail(section, key, f"not an integer: {raw!r}")


def _float_list(section, key, raw):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        _fail(section, key, "empty list")
    return tuple(_float(section, key, s) for s in items)


def _parse_jumps(raw):
    """'nu: lambda_expr; nu: lambda_expr; ...' -> ((nu, src), ...)."""
    terms = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        head, sep, lam = item.partition(":")
        if not sep or not lam.strip():
            _fail("symbol", "jumps",
                  f"expected 'displacement: rate' in {item!r}")
        nu = _float("symbol", "jumps", head.strip())
        lam = _check_expr("symbol", "jumps", lam.strip())
        terms.append((nu, lam))
    return tuple(terms)


def load(path):
    """Read, validate, and freeze a scenario file."""
    with open(path, "rb") as f:
        blob = f.read()
    sha = hashlib.sha256(blob).hexdigest()
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(blob.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as ex:
        raise ScenarioError(f"unreadable scenario file: {ex}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                _fail(section, key, "unknown key")
    for section, key in _REQUIRED:
        if not cp.has_option(section, key):
            _fail(section, key, "required key is missing")

    def get(section, key, default=None):
        return cp.get(section, key, fallback=default)

    # -- symbol -----------------------------------------------------------
    A = _check_expr("symbol", "A", get("symbol", "A", "0"))
    V = _check_expr("symbol", "V", get("symbol", "V", "0"))
    jumps = _parse_jumps(get("symbol", "jumps", ""))
    m = symbol.make_symbol(A=A, V=V, jumps=jumps)

    # -- initial ----------------------------------------------------------
    S0 = _check_expr("initial", "S0", get("initial", "S0"))
    S0_prime = get("initial", "S0_prime")
    if S0_prime is not None:
        _check_expr("initial", "S0_prime", S0_prime)
    phi0 = get("initial", "phi0")
    rho0 = get("initial", "rho0")
    if phi0 is not None and rho0 is not None:
        _fail("initial", "phi0", "give phi0 or rho0, not both")
    if phi0 is not None:
        _check_expr("initial", "phi0", phi0)
        rho0 = f"({phi0})^2"
    elif rho0 is not None:
        _check_expr("initial", "rho0", rho0)
        phi0 = f"({rho0})^0.5"
    else:
        rho0, phi0 = "1", "1"

    # -- domain -----------------------------------------------------------
    x_min = _float("domain", "x_min", get("domain", "x_min"))
    x_max = _float("domain", "x_max", get("domain", "x_max"))
    if not x_min < x_max:
        _fail("domain", "x_max", "box is empty (x_min >= x_max)")
    n_x0 = _int("domain", "n_x0", get("domain", "n_x0"))
    if n_x0 < 2:
        _fail("domain", "n_x0", "need at least two fan labels")
    T = _float("domain", "T", get("domain", "T"))
    if T <= 0:
        _fail("domain", "T", "horizon must be positive")
    h_t = _float("domain", "h_t", get("domain", "h_t"))
    if h_t <= 0:
        _fail("domain", "h_t", "step must be positive")
    n_steps = int(round(T / h_t))
    if n_steps < 1 or abs(n_steps * h_t - T) > 1e-12:
        _fail("domain", "h_t", "h_t must divide T")
    store_every = _int("domain", "store_every",
                       get("domain", "store_every", "1"))
    if store_every < 1 or n_steps % store_every != 0:
        _fail("domain", "store_every", "must divide the step count")

    # -- tunnel -----------------------------------------------------------
    h_schedule = ()
    if cp.has_option("tunnel", "h"):
        h_schedule = _float_list("tunnel", "h", get("tunnel", "h"))
        if any(h <= 0 for h in h_schedule):
            _fail("tunnel", "h", "scale parameters must be positive")
    lattice_dx = _float("tunnel", "dx", get("tunnel", "dx", "5e-3"))
    if lattice_dx <= 0:
        _fail("tunnel", "dx", "cell size must be positive")
    w_min = _float("tunnel", "w_min", get("tunnel", "w_min",
                                          str(0.5 * x_min)))
    w_max = _float("tunnel", "w_max", get("tunnel", "w_max",
                                          str(0.5 * x_max)))
    if not w_min < w_max:
        _fail("tunnel", "w_max", "comparison window is empty")

    # -- regularization ---------------------------------------------------
    eps_schedule = ()
    if cp.has_option("regularization", "epsilon"):
        eps_schedule = _float_list("regularization", "epsilon",
                                   get("regularization", "epsilon"))
        if any(e <= 0 for e in eps_schedule):
            _fail("regularization", "epsilon", "widths must be positive")
        if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
            _fail("regularization", "epsilon", "must decrease strictly")
    betas = None
    if cp.has_option("regularization", "beta"):
        betas = _float_list("regularization", "beta",
                            get("regularization", "beta"))
        if len(betas) != len(eps_schedule):
            _fail("regularization", "beta",
                  "must match the epsilon schedule length")
        for e, b in zip(eps_schedule, betas):
            try:
                regularize.RegularizationParams(e, b)
            except regularize.RegularizeError as ex:
                _fail("regularization", "beta", str(ex))
    B_profile = get("regularization", "B_profile", "tanh")
    if B_profile not in _BLEND_PROFILES:
        _fail("regularization", "B_profile",
              f"unknown blend profile {B_profile!r}; "
              f"choose from {list(_BLEND_PROFILES)}")

    # -- verify / output --------------------------------------------------
    bumps = _int("verify", "bumps", get("verify", "bumps", "12"))
    if bumps < 1:
        _fail("verify", "bumps", "count must be >= 1")
    seed = _int("verify", "seed", get("verify", "seed", "0"))
    if not 0 <= seed < 2 ** 64:
        _fail("verify", "seed", "seed must fit an unsigned 64-bit value")
    out_dir = get("output", "dir")

    sections = {s: dict(cp[s]) for s in cp.sections()}
    return Scenario(
        m=m, S0=S0, S0_prime=S0_prime, rho0=rho0, phi0=phi0,
        x_min=x_min, x_max=x_max, n_x0=n_x0, T=T, h_t=h_t,
        store_every=store_every, h_schedule=h_schedule,
        lattice_dx=lattice_dx, window=(w_min, w_max),
        eps_schedule=eps_schedule, betas=betas, bumps=bumps, seed=seed,
        out_dir=out_dir,
        sections=sections, sha256=sha)
