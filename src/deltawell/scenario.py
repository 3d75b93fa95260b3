"""Scenario runner: turn a configuration into per-method ψ(0,t) datasets,
derived columns and a summary record.

A scenario fixes the well/units, the relative field strength f, a time
grid and a set of methods.  Every method produces the same row schema

    t, re, im, abs2, gamma, delta, proxy, method

(running decay rate and level shift, density proxy 1 − |ψ|²/B), and the
summary carries the plateau estimates, the solver error estimate and the
fitted mixing weight when requested.  Output is deterministic for a fixed
configuration: one row per node, each float in the shortest round-trip
text that ``repr`` writes.  A numpy kernel computes that text (Schubfach
digits in uint64, then one gather of layout templates), and
``tests/test_cli.py`` guards its byte identity with ``repr``.

The fig1a–fig3d presets encode the reference parameter sets (f, mixing
weight c, and the straight-line decay constants) used throughout the test
suite.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .analysis import density_proxy, extract_rate_shift, fit_c, plateau
from .approx import DecayAnsatz, decay_closed_psi0, first_scheme_psi0
from .errors import NumericsError
from .params import PhysParams, derive_params
from .volterra import RULE_ORDER, ComplexSeries, TimeGrid, VolterraSolution, solve_psi0

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario", "PRESETS", "preset_config"]

METHODS = (
    "exact",
    "first_scheme",
    "exp_ansatz",
    "decay_additive",
    "decay_multiplicative",
    "decay_combined",
)

ANSATZ_SOURCES = ("wkb", "fit", "explicit", "auto")

COLUMNS = ("t", "re", "im", "abs2", "gamma", "delta", "proxy", "method")
# rows formatted at a time: a 7 600-row figures job peaks 0.3 MiB above the
# repr formatter at 256 or 512 rows, 1.0 MiB at 1024 and 4.2 MiB at 4096;
# 512 rows take 10% longer than 1024, 256 rows 30%
_CSV_CHUNK = 512
# rows per formatting block, at least: the smallest table at which two blocks
# beat one in 9 of 10 alternating trials (each the best of 5 per side), in
# each of three runs, had 10 000 rows, on 2 vCPUs with Python 3.11 (8 000
# rows won 8 to 10 of 10, 6 000 rows 8 or 9); below about 4 000 rows the
# fork costs more than the second CPU saves
_MIN_BLOCK_ROWS = 5000


@dataclass
class ScenarioConfig:
    f: float = 0.1
    hbar: float = 1.0
    mass: float = 1.0
    v0: float = 1.0
    t_max: float = 20.0
    n_steps: int = 8000
    methods: tuple = ("exact",)
    c: object = None          # float, "fit", or None (→ 1.0)
    ansatz_source: str = "auto"  # one of ANSATZ_SOURCES
    gamma: object = None
    delta: object = None
    rule: str = "linear"

    def validate(self):
        for name in ("f", "hbar", "mass", "v0", "t_max", "c", "gamma", "delta"):
            v = getattr(self, name)
            if isinstance(v, bool):  # JSON true would run as the number 1
                raise ValueError(f"{name} must be a number, got {v!r}")
        if not (self.f >= 0 and math.isfinite(self.f)):
            raise ValueError(f"f must be finite and >= 0, got {self.f}")
        for name in ("hbar", "mass", "v0", "t_max"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 10:
            raise ValueError("n_steps must be >= 10")
        if self.rule not in RULE_ORDER:
            raise ValueError(f"unknown rule {self.rule!r} (choose from {tuple(RULE_ORDER)})")
        if not self.methods:
            raise ValueError("at least one method must be selected")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        if self.ansatz_source not in ANSATZ_SOURCES:
            raise ValueError(f"unknown ansatz_source {self.ansatz_source!r}")
        if self.ansatz_source == "explicit":
            if self.gamma is None or self.delta is None:
                raise ValueError("explicit ansatz requires gamma and delta")
            if not (self.gamma >= 0 and math.isfinite(self.gamma) and math.isfinite(self.delta)):
                raise ValueError("explicit ansatz requires finite gamma >= 0 and finite delta")
        if isinstance(self.c, str):
            if self.c != "fit":
                raise ValueError(f"c must be a number, 'fit' or omitted, got {self.c!r}")
        elif self.c is not None and not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")
        try:
            F = self.params().field  # ValueError when B, E_b or the field leave the float range
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"hbar, mass, v0 and f leave the floating-point range: {exc}") from exc
        # t_max³ and the Volkov phase F²t³/(6mℏ) enter every kernel and forcing sample
        cube = self.t_max * self.t_max * self.t_max
        if not math.isfinite(F * F * cube / (6.0 * self.mass) / self.hbar):
            raise ValueError(f"t_max = {self.t_max}: t_max^3 or the field phase F^2 t_max^3 is not finite")

    def params(self) -> PhysParams:
        B = self.mass * self.v0 / self.hbar**2
        field_strength = self.f * self.hbar**2 * B**3 / self.mass
        return derive_params(self.hbar, self.mass, self.v0, field_strength)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    tables: dict          # method -> structured column dict
    summary: dict
    flags: tuple = field(default_factory=tuple)


def _build_ansatz(config, source, params, exact_sol: VolterraSolution | None) -> DecayAnsatz:
    if source == "explicit":
        return DecayAnsatz.explicit(params, float(config.gamma), float(config.delta))
    if source == "wkb":
        return DecayAnsatz.from_wkb(params)
    try:
        gam, del_ = plateau(extract_rate_shift(exact_sol))
    except ValueError as exc:
        raise NumericsError(f"cannot fit the decay ansatz to the exact series: {exc}") from exc
    return DecayAnsatz.explicit(params, max(gam, 0.0), del_)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    config.validate()
    params = config.params()
    grid = TimeGrid(config.t_max, config.n_steps)
    t = grid.nodes
    summary: dict = {"f": config.f, "rule": config.rule}
    flags: list = []

    # the plan: each product is computed only when an output needs it
    source = config.ansatz_source
    if source == "auto":
        source = "wkb" if config.f <= 0.2 else "fit"
    fit = config.c == "fit"
    needs_ansatz = fit or any(m.startswith("decay") or m == "exp_ansatz" for m in config.methods)

    exact_sol = None
    if "exact" in config.methods or (needs_ansatz and (fit or source == "fit")):
        exact_sol = solve_psi0(params, grid, config.rule)
        flags.extend(exact_sol.flags)
        summary["err_est"] = exact_sol.err_est

    ansatz = None
    if needs_ansatz:
        ansatz = _build_ansatz(config, source, params, exact_sol)
        summary["ansatz_source"] = source
        summary["ansatz_gamma"] = ansatz.gamma
        summary["ansatz_delta"] = ansatz.delta

        c_val = config.c
        if fit:
            fit_result = fit_c(exact_sol, ansatz)
            summary["fitted_c"] = fit_result.c
            if fit_result.multimodal:
                flags.append("fit_c_multimodal")
            if fit_result.undetermined:
                flags.append("fit_c_undetermined")
            c_val = fit_result.c
        elif c_val is None:
            c_val = 1.0
        ansatz = DecayAnsatz(E_f=ansatz.E_f, gamma=ansatz.gamma, delta=ansatz.delta, c=float(c_val))
        summary["c"] = ansatz.c

    tables: dict = {}
    for m in config.methods:
        if m == "exact":
            s = exact_sol
        else:
            if m == "first_scheme":
                values = first_scheme_psi0(params, t)
            else:
                form = {"exp_ansatz": "ansatz_only"}.get(m, m.removeprefix("decay_"))
                values = decay_closed_psi0(params, t, ansatz, form)
            if not np.all(np.isfinite(values)):
                raise NumericsError(f"{m} is not finite on this grid")
            s = ComplexSeries(grid, values, params)
        proxy = density_proxy(s)
        try:
            rss = extract_rate_shift(s)
            gamma, delta = rss.gamma, rss.delta
            gam_bar, del_bar = plateau(rss)
            summary[f"{m}_gamma_plateau"] = gam_bar
            summary[f"{m}_delta_plateau"] = del_bar
        except (ValueError, NumericsError) as exc:
            gamma = np.full(t.shape, math.nan)
            delta = np.full(t.shape, math.nan)
            flags.append(f"{m}_extraction_failed")
            summary[f"{m}_extraction_error"] = str(exc)
        tables[m] = {
            "t": t,
            "re": s.values.real,
            "im": s.values.imag,
            "abs2": np.abs(s.values) ** 2,
            "gamma": gamma,
            "delta": delta,
            "proxy": proxy,
        }

    return ScenarioResult(config=config, tables=tables, summary=summary, flags=tuple(flags))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _config_lines(config: ScenarioConfig):
    d = asdict(config)
    d["methods"] = ",".join(config.methods)
    return [f"# {k} = {d[k]}" for k in sorted(d)]


# Shortest round-trip text of float64 arrays, byte for byte what repr writes
# (tests/oracles.py keeps repr as the oracle).  Digits come from Schubfach
# (R. Giulietti, "The Schubfach way to render doubles", 2020; the JDK's
# DoubleToDecimal): x = c·2^q lies in the rounding interval R = [x − ε, x + ε],
# k = ⌊log10 2^q⌋ (⌊log10(¾·2^q)⌋ where the spacing below x halves), and
# vb, vbl, vbr are 4x, 4(x − ε), 4(x + ε) over 10^k, rounded to odd.  The one
# multiple of 10^(k+1) in R is the answer, else the nearer of s·10^k and
# (s+1)·10^k in R (s = ⌊vb/4⌋), the even one on a tie.  Every digit step is
# uint64: numpy 2 turns an int64–uint64 mix into float64 silently.
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_SRC = 27   # a cell's source bytes: 17 digits, "-.e+0,", 3 exponent digits, NUL
_WIDTH = 25  # a cell's text, padded with NUL: "-1.2345678901234567e-308,"
_MINUS, _DOT, _E, _PLUS, _ZERO, _COMMA, _EXP, _NUL = 17, 18, 19, 20, 21, 22, 23, 26
_NAN, _INF, _NAME = 816, 817, 819  # templates after the 680 positional and 136 exponent ones


def _flog10pow2(e):
    return (e * 661_971_961_083) >> 41  # ⌊e·log10 2⌋, |e| ≤ 5 456 721


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38  # ⌊e·log2 10⌋, |e| ≤ 1 838 394


def _template(sign: int, n: int, point: int) -> list:
    """Source offsets of the text of n significant digits with the decimal
    point after digit ``point`` (0.d₁d₂… × 10^point), as repr lays it out."""
    digits = list(range(n))
    if -4 < point <= 16:
        if point <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < n:
            body = digits[:point] + [_DOT] + digits[point:]
        else:
            body = digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    else:
        e = point - 1
        mantissa = [0] + ([_DOT, *digits[1:]] if n > 1 else [])
        exp = [_EXP, _EXP + 1, _EXP + 2][abs(e) < 100:]
        body = mantissa + [_E, _MINUS if e < 0 else _PLUS] + exp
    return [_MINUS] * sign + body + [_COMMA]


@functools.cache
def _tables():
    """The Schubfach table and the layout templates, built on first use.

    g(k) = ⌊10^−k·2^−r⌋ + 1 with r = ⌊−k·log2 10⌋ − 125, so that
    2^125 < g ≤ 2^126, for k = −324 … 292, as 32-bit quarters of
    g₁ = ⌊g/2^63⌋ and g₀ = g mod 2^63; ``g_row`` (k + 324) and ``h`` are indexed by the
    biased exponent, plus 2048 where the spacing below x halves."""
    g = []
    for k in range(-324, 293):
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        r = _flog2pow10(-k) - 125
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    q = np.maximum(np.arange(2048), 1) - 1075
    k = np.concatenate([_flog10pow2(q), (q * 661_971_961_083 - 274_743_187_321) >> 41])
    h = np.concatenate([q, q]) + _flog2pow10(-k) + 2
    templates = [_template(sign, n, point) for sign in (0, 1) for n in range(1, 18) for point in range(-3, 17)]
    templates += [_template(sign, n, point) for sign in (0, 1) for n in range(1, 18)
                  for point in (-10, -100, 17, 101)]  # e < 0 then e > 0; two exponent digits, then three
    templates += [[0, 1, 2, _COMMA], [0, 1, 2, _COMMA], [_MINUS, 0, 1, 2, _COMMA]]  # nan, inf, -inf
    templates += [[*range(_WIDTH - 1), _SRC - 1]]  # the method: its bytes, then the row's end
    layout = np.full((len(templates), _WIDTH), _NUL, dtype=np.uint8)
    for row, t in zip(layout, templates):
        row[:len(t)] = t
    i = np.arange(10_000, dtype=np.int16)
    digits = (i[:, None] // np.array([1000, 100, 10, 1])) % 10
    return {
        "g": tuple(np.array(part, dtype=np.uint64) for part in zip(*(
            (x >> 95, (x >> 63) & 0xFFFFFFFF, (x >> 32) & 0x7FFFFFFF, x & 0xFFFFFFFF) for x in g))),
        "g_row": k + 324, "h": h.astype(np.uint64),
        "layout": layout,
        "pow10": np.array([10 ** i for i in range(18)], dtype=np.uint64),
        "digits4": (digits + 48).astype(np.uint8),
        "digits3": (digits[:1000, 1:] + 48).astype(np.uint8),
        "zeros4": np.where(i == 0, 4, np.argmax(digits[:, ::-1] != 0, axis=1)).astype(np.uint8),
    }


def _mul128(a_hi, a_lo, b):
    """(⌊a·b/2^64⌋, a·b mod 2^64) of uint64 a, given as 32-bit halves, and b."""
    b_hi, b_lo = b >> _U(32), b & _M32
    ll = a_lo * b_lo
    mid = a_hi * b_lo + (ll >> _U(32))
    mid2 = a_lo * b_hi + (mid & _M32)
    return a_hi * b_hi + (mid >> _U(32)) + (mid2 >> _U(32)), (mid2 << _U(32)) | (ll & _M32)


def _round_to_odd(g, cp):
    """g·cp/2^127 rounded to odd, from the high 127 bits of the product."""
    g1_hi, g1_lo, g0_hi, g0_lo = g
    x1, _ = _mul128(g0_hi, g0_lo, cp)
    y1, y0 = _mul128(g1_hi, g1_lo, cp)
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest_digits(x):
    """(d, k) with d·10^k the shortest decimal that rounds to x and, of
    those, the nearest: uint64 d < 10^17 and int64 k, for finite nonzero x."""
    tab = _tables()
    bits = x.view(_U)
    bq = (bits >> _U(52)) & _U(0x7FF)
    t = bits & _U((1 << 52) - 1)
    c = t | ((bq != 0).astype(_U) << _U(52))
    irregular = (t == 0) & (bq > 1)
    row = bq + (irregular.astype(_U) << _U(11))
    g_row = tab["g_row"].take(row)  # k + 324
    g = tuple(part.take(g_row) for part in tab["g"])
    h = tab["h"].take(row)
    odd = c & _U(1)  # R is closed when c is even, open when odd
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U(2) + irregular) << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + odd <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + odd <= vbr
    uin = vbl + odd <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + odd <= vbr
    mid = ((s << _U(1)) + _U(1)) << _U(1)
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & _U(1) == _U(0))))
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), s + (~lower).astype(_U))
    return d, g_row - 324


def _rows_text(x, names) -> bytes:
    """The rows "x₀,x₁,…,name", joined by newlines, of float64 x (rows, cols)
    and a bytes array of names: each cell's source bytes (17 digits,
    "-.e+0,", 3 exponent digits, NUL) are laid out by its template, one
    gather per column, and the NUL padding is dropped."""
    tab = _tables()
    rows, cols = x.shape
    bits = x.view(_U)
    sign = (bits >> _U(63)).astype(np.intp)
    finite = np.isfinite(x)
    zero = x == 0.0
    d, k = _shortest_digits(np.where(finite & ~zero, x, 1.0))
    n = tab["pow10"].searchsorted(d, side="right")
    d = np.where(zero, _U(0), d * tab["pow10"].take(17 - n))  # 17 digits, the first nonzero
    point = np.where(zero, 1, k + n)
    lead = d // _U(10 ** 16)
    d -= lead * _U(10 ** 16)
    quads = [d // _U(10 ** 12), d // _U(10 ** 8) % _U(10 ** 4), d // _U(10 ** 4) % _U(10 ** 4), d % _U(10 ** 4)]
    src = np.empty((rows, cols + 1, _SRC), dtype=np.uint8)
    cells = src[:, :cols]
    cells[..., 0] = lead + _U(48)
    for i, quad in enumerate(quads):
        cells[..., 1 + 4 * i:5 + 4 * i] = tab["digits4"].take(quad, axis=0)
    cells[..., 17:23] = np.frombuffer(b"-.e+0,", dtype=np.uint8)
    cells[..., 23:26] = tab["digits3"].take(np.abs(point - 1), axis=0)
    cells[..., 26] = 0
    zeros = np.full(x.shape, 16)
    for i, quad in enumerate(quads):  # trailing zeros of the 16 digits after the first
        zeros = np.where(quad != 0, 4 * (3 - i) + tab["zeros4"].take(quad).astype(np.intp), zeros)
    key = sign * 17 + 16 - zeros  # sign and significant digits
    tid = np.where((point > -4) & (point <= 16), key * 20 + np.clip(point, -3, 16) + 3,
                   680 + key * 4 + 2 * (point > 1) + (np.abs(point - 1) >= 100))
    if not finite.all():
        nan = np.isnan(x)
        cells[nan, :3] = np.frombuffer(b"nan", dtype=np.uint8)
        cells[~finite & ~nan, :3] = np.frombuffer(b"inf", dtype=np.uint8)
        tid = np.where(finite, tid, np.where(nan, _NAN, _INF + sign))
    names = names.view(np.uint8).reshape(rows, -1)
    src[:, cols, :names.shape[1]] = names
    src[:, cols, names.shape[1]:] = 0
    src[:-1, cols, -1] = ord("\n")
    # a gather per column: its index takes 8 bytes per byte of that column
    text = np.empty((cols + 1, rows, _WIDTH), dtype=np.uint8)
    base = np.arange(0, src.size, src.shape[1] * _SRC).reshape(rows, 1)
    for j in range(cols + 1):
        layout = tab["layout"].take(tid[:, j], axis=0) if j < cols else tab["layout"][_NAME]
        src.take(np.add(layout, base + j * _SRC), out=text[j])
    return text.transpose(1, 0, 2).tobytes().translate(None, b"\0")


def _csv_rows(cols: list, lo: int, hi: int) -> bytes:
    """Data rows lo … hi − 1 of the dataset, joined by newlines, from its
    flat columns: the float columns of COLUMNS[:-1], each over the methods
    in order, then the bytes array of every row's method."""
    *floats, names = cols
    parts = []
    for a in range(lo, hi, _CSV_CHUNK):
        b = min(a + _CSV_CHUNK, hi)
        parts.append(_rows_text(np.stack([c[a:b] for c in floats], axis=1), names[a:b]))
    return b"\n".join(parts)


def _block_count(rows: int) -> int:
    # where os.fork or os.sched_getaffinity is missing, one in-process block
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_BLOCK_ROWS))


def _fork_block(cols: list, lo: int, hi: int, inherited) -> tuple[int, int]:
    """Format rows lo … hi − 1 in a forked worker; returns its pid and the
    read end of the pipe that carries its text.  Fork, not spawn: the worker
    inherits the columns instead of importing numpy and receiving a pickled
    copy, and it runs only elementwise uint64/uint8 ufuncs, ``take`` and
    ``bytes.translate``, no BLAS, LAPACK or OpenMP call, so it takes no lock
    that another thread (a BLAS pool) could hold at the fork."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the worker leaves only through os._exit, never into the caller
        code = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            with open(w, "wb") as out:
                out.write(_csv_rows(cols, lo, hi))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _data_rows(tables: dict, methods) -> list:
    """The dataset's data rows as contiguous blocks, one per usable CPU
    when the table is large enough: block 0 is formatted here, each other
    block in a forked worker, all by ``_csv_rows`` over the same flat
    columns, built once here.  Every worker is reaped, also when this
    raises, and one that fails raises ChildProcessError."""
    cols = [np.concatenate([tables[m][c] for m in methods]) for c in COLUMNS[:-1]]
    names = np.repeat(np.array(methods, dtype="S"), [len(tables[m]["t"]) for m in methods])
    cols.append(names)
    _tables()  # built before any fork, so that the workers inherit them
    n = _block_count(len(names))
    edges = [len(names) * k // n for k in range(n + 1)]
    workers = []  # (pid, read end) of blocks 1 … n − 1
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            workers.append(_fork_block(cols, lo, hi, [r for _, r in workers]))
        blocks = [_csv_rows(cols, 0, edges[1]).decode()]
        for _, r in workers:
            with open(r, "rb", closefd=False) as pipe:
                blocks.append(pipe.read().decode())
    finally:
        for _, r in workers:
            os.close(r)
        codes = [(pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])) for pid, _ in workers]
    failed = [f"{pid} (exit {code})" for pid, code in codes if code != 0]
    if failed:
        raise ChildProcessError(f"dataset worker(s) failed: {', '.join(failed)}")
    return blocks


def result_to_csv(result: ScenarioResult) -> str:
    rows = _data_rows(result.tables, result.config.methods)
    # one join, whose last "" ends the text with a newline: no second copy
    return "\n".join(["# deltawell scenario dataset", *_config_lines(result.config), ",".join(COLUMNS), *rows, ""])


def _json(result: ScenarioResult, **extra) -> str:
    doc = {
        "config": {**asdict(result.config), "methods": list(result.config.methods)},
        "summary": result.summary,
        "flags": list(result.flags),
        **extra,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


def summary_to_json(result: ScenarioResult) -> str:
    return _json(result)


def result_to_json(result: ScenarioResult) -> str:
    return _json(result, rows={
        m: {c: tb[c].tolist() for c in COLUMNS[:-1]} for m, tb in result.tables.items()
    })


# ---------------------------------------------------------------------------
# figure presets: reference parameters (f, c) and the straight-line decay
# constants (gamma_d2, delta_d2) for the d2 reference curve
# ---------------------------------------------------------------------------

_PRESET_ROWS = {
    "a": dict(f=0.1, c=1.0, gamma_d2=0.0010, delta_d2=-0.0072, t_max=60.0, n_steps=12000),
    "b": dict(f=0.5, c=0.65, gamma_d2=0.1896, delta_d2=-0.0738, t_max=40.0, n_steps=12000),
    "c": dict(f=1.0, c=0.45, gamma_d2=0.52916, delta_d2=-0.10722, t_max=22.0, n_steps=11000),
    "d": dict(f=2.0, c=0.45, gamma_d2=1.2115, delta_d2=-0.11235, t_max=20.0, n_steps=20000),
}

PRESETS = {
    f"fig{fig}{row}": data
    for fig in (1, 2, 3)
    for row, data in _PRESET_ROWS.items()
}


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    p = PRESETS[name]
    return ScenarioConfig(
        f=p["f"],
        t_max=p["t_max"],
        n_steps=p["n_steps"],
        methods=("exact", "decay_combined", "first_scheme", "exp_ansatz"),
        c=p["c"],
        ansatz_source="explicit",
        gamma=p["gamma_d2"],
        delta=p["delta_d2"],
    )
