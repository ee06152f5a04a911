"""Experiment orchestration and CSV emission.

All outputs are CSV (RFC-4180 commas, 15 significant digits); plotting is
left to external tools.  Runs are deterministic for a fixed seed: each
realization gets a child stream derived from the master seed, and all
realizations of an ensemble, and of the ensembles of a sweep's laws that
can share a pass, advance together in one lockstep kernel whose columns do
not interact, so a realization's numbers are bit-identical however many
run beside it.
"""

from __future__ import annotations

import contextlib
import datetime
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .analysis import aggregate, ensemble_fidelities, final_fidelities
from .chain import ChainSpec, leftmost_excited, w_state, zeno_hamiltonian
from .config import ExperimentConfig
from .protocols import (
    EnsembleFinals,
    ProtocolConfig,
    ProtocolKind,
    Trajectory,
    run_continuous,
    run_exact_subspace,
    run_finals_many,
    run_lockstep,
    run_projective,
    run_pulsed,
)
from .stochastics import (
    IntervalDistribution,
    SeededSampler,
    check_ensemble,
    derive_seed,
    is_integer,
    moments,
)
from .theory import (
    _exponent,
    edge_time_average,
    pstar_weak,
    three_level_hamiltonian,
    three_level_survival,
)
from . import linalg

# rows made text and written together, across the open files: a pass's memory
# grows with this; 6144 keeps simulate's first-call peak RSS within 0.5 MB of 2048
CHUNK_ROWS = 6144
OPEN_FILES = 16  # files one write_csv call keeps open at once
EDGE_SERIES_STEPS_PER_MEAN = 20  # dt = mean(mu) / 20 for the theory integral

# A pass (_pass_cells) makes all its integer cells one uint8 matrix and all
# its float cells another, each cell in a fixed-width slot padded with _PAD,
# a byte UTF-8 never produces, deleted before writing.  A float cell's text
# is read from its 32-byte source row: 16 decimal digits (four 4-digit
# groups, one uint32 each) and then _ALPHABET, through a layout row chosen
# by the cell's sign, exponent and digit count.
_PAD = 0xFF
_ALPHABET = np.frombuffer(b"0123456789.-e+\xff\xff", np.uint32)  # source bytes 16..31
_ZERO, _DOT, _MINUS, _E, _PLUS, _BLANK = 16, 26, 27, 28, 29, 30
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_QUADS = _QUADS.reshape(10000, 4).view(np.uint32)[:, 0]  # "0000".."9999", 4 bytes each
_QUAD_ZEROS = np.zeros(10000, np.int8)  # trailing zeros of each group, 4 for 0000
for _j in range(1, 5):
    _QUAD_ZEROS[:: 10**_j] += 1
_SOURCE = np.concatenate([_QUADS[[0, 0, 0, 0]], _ALPHABET])[None]  # the source row of 0
# a cell's 4-digit groups before its first digit: "0012" as _PAD _PAD "12", and
# 0 as "0" in the cell's last group (_LAST), as nothing in its others (_LEADS)
_LAST = _QUADS.view(np.uint8).reshape(10000, 4).copy()
for _j in range(3):
    _LAST[: 10 ** (3 - _j), _j] = _PAD
_LAST = _LAST.view(np.uint32)[:, 0]
_SIGNS = np.frombuffer(b"\xff\xff\xff\xff\xff\xff\xff-", np.uint32)  # a cell's "" or "-"
_LEADS = np.concatenate([_SIGNS[:1], _LAST[1:]])
# 10**k, exact for k <= 22; 0 at 23 (not exact) and at 24 (zero's slot)
_POW10 = np.array([float(10**k) for k in range(23)] + [0.0, 0.0])
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_EXPONENTS = np.arange(-9, 16, dtype=np.int16)  # of the floats the byte pass writes
_WIDTH = 22  # of the longest cell a number makes: -1.23456789012345e-308
_GATHER = 2048  # float cells gathered at once: 2048 source rows of 32 bytes, a uint16 index
_OFFSETS = 32 * np.arange(_GATHER, dtype=np.uint16)[:, None]  # each source row's first byte


def _float_layout():
    """Source positions of %.15g's characters for (sign, exponent, significant
    digits), digit i at position 1 + i, and the lengths."""
    grid = np.meshgrid(np.arange(2, dtype=np.int16), _EXPONENTS,
                       np.arange(1, 16, dtype=np.int16), indexing="ij")
    neg, e, sig = (g.ravel()[:, None] for g in grid)
    fixed = (e >= -4) & (e < 15)
    lead = np.where(fixed, np.maximum(-e, 0), 0)  # zeros before the digits: "0.000" of 1e-4
    point = np.where(fixed, np.maximum(e, 0) + 1, 1)  # characters before the point
    digits = np.maximum(lead + sig, point)  # zero-led digits, with any zeros up to the point
    body = digits + (digits > point)
    b = np.arange(_WIDTH, dtype=np.int16) - neg  # position after the sign
    i = b - (b > point)  # position among the zero-led digits
    pos = np.where(b == point, _DOT, np.where(i < lead, _ZERO, 1 + i - lead))
    j = b - body  # position in the exponent suffix "e-05"
    suffix = np.select([j == 0, j == 1, j == 2, j == 3],
                       [_E, np.where(e < 0, _MINUS, _PLUS), _ZERO + abs(e) // 10, _ZERO + abs(e) % 10],
                       _BLANK)
    pos = np.where(b < body, pos, np.where(fixed, _BLANK, suffix))
    return np.where(b < 0, _MINUS, pos), (neg + body + 4 * ~fixed).ravel()


_FLOAT_LAYOUT, _FLOAT_LENGTHS = _float_layout()
# one void item per layout row: take copies whole rows, far faster than 2-D fancy indexing
_FLOAT_LAYOUT = np.ascontiguousarray(_FLOAT_LAYOUT, np.uint8).view(f"V{_WIDTH}").ravel()


def _groups(n, top):
    """4-digit groups of non-negative integers up to top, below 1e16, from
    the lowest up to the highest that top needs."""
    groups = []
    while top >= 10**4:
        n, low = np.divmod(n, 10**4)
        groups.append(low)
        top //= 10**4
    return groups + [n]


def _int_cells(values):
    """%d cells of int64 values below 1e15 in magnitude: the sign, where one
    is negative, then each 4-digit group from the highest, the zeros before
    a cell's first digit padded."""
    n, neg = np.abs(values), values < 0
    words = [_SIGNS[neg.view(np.uint8)]] if neg.any() else []
    groups, lead = _groups(n, int(n.max())), True  # lead: no digit yet
    for k, group in enumerate(reversed(groups)):
        led = (_LEADS if k < len(groups) - 1 else _LAST)[group]
        words.append(led if lead is True else np.where(lead, led, _QUADS[group]))
        lead = lead & (group == 0)
    return np.stack(words, 1).view(np.uint8)


def _digits(x):
    """(n, e, ok): |x| rounded to 15 significant digits as n * 10**(e - 14),
    where ok; zero is n = e = 0.

    Each finite |x| from 1e-8 up to 1e15 is scaled by the exact double
    10**(14 - e), e = floor(log10|x|), and Dekker's two-product gives the
    product exactly as hi + lo; rounding it to an integer gives n.  A cell
    is not ok when it is not finite, when its product lies outside [1e14,
    1e15) (log10 guessed the exponent wrong, or x is out of range), or
    when the product lies within 1e-6 of a rounding tie.
    """
    a, zero = np.abs(x), x == 0
    ok = (a >= 1e-8) & (a < 1e15)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 14 - e + 10 * zero  # zero, and a log10 guess of -9, scale by 0
    hi = a * _POW10[k]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi  # the low half
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = a * p_lo - (((hi - a_hi * p_hi) - a * p_hi) - a_hi * p_lo)
    n = np.floor(hi)
    lo += hi - n  # the fraction of the product
    # a product just below 1e14 that rounds to hi = 1e14 has the same 15 digits
    ok &= (hi >= 1e14) & (hi < 1e15) & (abs(lo - 0.5) > 1e-6)
    n = n.astype(np.int64) + (lo > 0.5)
    up = n == 10**15  # rounded up into a 16th digit
    n[up] = 10**14
    e += up
    return n, e, ok | zero


def _float_cells(x):
    """(cells, width) uint8 matrix of %.15g cells of float64 values, _PAD past
    each cell's end: its source row read through its layout row, or %'s text
    where _digits leaves it.  Cells are gathered ``_GATHER`` at a time, each
    by a uint16 index into its sub-block's source bytes, so the intp index
    take widens it to spans one sub-block; the uint8 layout index spans all."""
    n, e, ok = _digits(x)
    rows = np.repeat(_SOURCE, len(n), axis=0)
    g3, g2, g1, g0 = groups = _groups(n, 10**15 - 1)
    for k, group in enumerate(groups):
        rows[:, 3 - k] = _QUADS[group]
    zeros = _QUAD_ZEROS
    trailing = zeros[g3] + (g3 == 0) * (zeros[g2] + (g2 == 0) * (zeros[g1] + (g1 == 0) * zeros[g0]))
    sig = np.maximum(15 - trailing, 1)  # zero has 16 trailing zeros and is written "0"
    combo = (np.signbit(x) * len(_EXPONENTS) + e - _EXPONENTS[0]) * 15 + sig - 1
    texts = {k: ("%.15g" % x[k]).encode() for k in np.flatnonzero(~ok).tolist()}
    width = max([_FLOAT_LENGTHS[combo].max(), *map(len, texts.values())])
    index = _FLOAT_LAYOUT.take(combo).view(np.uint8).reshape(len(combo), _WIDTH)[:, :width]
    source, cells = rows.view(np.uint8), np.empty((len(combo), width), np.uint8)
    for first in range(0, len(combo), _GATHER):
        block = slice(first, first + _GATHER)
        part = index[block]  # mode="clip": a take into out= buffers only under "raise"
        source[block].ravel().take(part + _OFFSETS[: len(part)], out=cells[block], mode="clip")
    for k, text in texts.items():
        cells[k] = _PAD
        cells[k, : len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _quoted(cells: Sequence[str], lone: bool) -> list[str]:
    """Text cells quoted as csv.writer quotes them: where a cell holds a comma,
    a quote or a line break, or is its row's only field and empty."""
    quote = [(lone and not c) or any(ch in c for ch in ',"\r\n') for c in cells]
    return ['"' + c.replace('"', '""') + '"' if q else c for c, q in zip(cells, quote)]


def _text_cells(cells: Sequence[str], lone: bool):
    """UTF-8 cells of strings, quoted as csv.writer quotes them, encoded together."""
    text = "".join(cells)
    if lone or any(ch in text for ch in ',"\r\n'):
        cells = _quoted(cells, lone)
        text = "".join(cells)
    if not text:
        return np.empty((len(cells), 0), np.uint8)
    data = text.encode()
    lengths = np.fromiter(map(len, cells if text.isascii() else map(str.encode, cells)),
                          np.intp, len(cells))
    width = lengths.max()
    data = np.frombuffer(data + bytes([_PAD]) * width, np.uint8)
    at = np.arange(width)
    return np.where(at < lengths[:, None], data[(np.cumsum(lengths) - lengths)[:, None] + at], _PAD)


def _column(column):
    """A column as the byte pass reads it, and the dtype its chunks are cast
    to: a list or tuple of str (None), or an array whose chunks become float64,
    or int64 below 1e15 in magnitude.  Integers of 1e15 or more in magnitude
    are rare enough that a column holding one is made text by %d, cell by cell."""
    if type(column) in (list, tuple) and set(map(type, column)) <= {str}:
        return column, None
    values = np.asarray(column)
    if values.dtype.kind == "f":
        if values.dtype != np.float64:
            with np.errstate(invalid="ignore"):  # a float32 signalling NaN stays NaN
                values = values.astype(np.float64)
        # whole numbers below 1e15, -0.0 aside, read the same by %d
        if not (len(values) and float(values[0]).is_integer()  # cheap screen
                and ((np.abs(values) < 1e15) & (np.trunc(values) == values)
                     & (np.signbit(values) == (values < 0))).all()):
            return values, np.float64
    elif values.dtype.kind in "biu":
        if ((values >= 10**15) | (values <= -(10**15))).any():
            return ["%d" % v for v in values.tolist()], None
    elif values.dtype.kind == "U":
        return list(column), None  # the caller's strings: numpy drops trailing NULs
    else:
        raise TypeError(f"cannot write a column of dtype {values.dtype}")
    return values, np.int64


def _rows(column, files):
    """(rows, dtype) of a column: one row, which every file shares, or, where
    ``files`` is a count, one row per file, numbers in each or text in each."""
    if files is None or not (len(column) and hasattr(column[0], "__len__")
                             and not isinstance(column[0], str)):
        rows, dtype = _column(column)
        return [rows], dtype
    if len(column) != files:
        raise ValueError(f"a column of {len(column)} rows for {files} files")
    rows, dtypes = zip(*map(_column, column))
    if None in dtypes and len(set(dtypes)) > 1:
        raise TypeError("a column holds text in some files and numbers in others")
    return list(rows), np.float64 if np.float64 in dtypes else dtypes[0]


def _pass_cells(prepared: dict, group: slice, start: int, stop: int, lone: bool) -> dict:
    """Cells of rows start..stop of each prepared column (keyed by column id),
    one file of ``group`` after the other where the column has a row per file:
    text column by column, all integer cells in one ``_int_cells`` call and
    all float cells in one ``_float_cells`` call, split back by column."""
    cells, numbers = {}, {np.int64: [], np.float64: []}
    for key, (rows, dtype) in prepared.items():
        parts = [row[start:stop] for row in (rows[group] if len(rows) > 1 else rows)]
        if dtype is None:
            cells[key] = _text_cells([cell for part in parts for cell in part], lone)
        else:
            numbers[dtype].append((key, parts))
    for (dtype, columns), cells_of in zip(numbers.items(), (_int_cells, _float_cells)):
        if columns:
            block = cells_of(np.concatenate([p for _, parts in columns for p in parts],
                                            dtype=dtype, casting="unsafe"))
            at = np.cumsum([0] + [(stop - start) * len(parts) for _, parts in columns])
            cells.update((key, block[a:b]) for (key, _), a, b in zip(columns, at, at[1:]))
    return cells


def write_csv(
    path: str | Path | Sequence[str | Path],
    header: Sequence[str],
    columns: Iterable[Sequence],
    reproducible: bool = False,
) -> None:
    """Write a table given as one sequence of cells per header field, in UTF-8.

    Each column becomes text by its dtype: integers and bools in decimal,
    floats as ``%.15g``, strings as they are, quoted the way ``csv.writer``
    quotes them.  A column passed for two fields is made text once for both.
    Lines end in CRLF.  Unless ``reproducible``, a ``# generated
    <timestamp>`` comment comes first.

    ``path`` is a ``str`` or path-like object, or a list of them: one file
    per path, all with this header and the same number of rows.  Each column
    is then either one sequence shared by every file, made text once for all
    of them, or one row per file, as a 2-D array or a list of sequences.  At
    most ``OPEN_FILES`` files are open at once.

    Each pass takes up to ``CHUNK_ROWS`` rows, in total across the open
    files, and makes all their integer cells text in one numpy byte pass and
    all their float cells in another, text columns one by one: numeric cells
    are written digit by digit from lookup tables, floats gathered
    ``_GATHER`` cells at a time by a uint16 index, so the gather's index does
    not grow with the pass.  Only the floats the pass cannot decide
    (non-finite, out of its range or next to a rounding tie) and the integer
    columns holding a value of 1e15 or more in magnitude go through ``%``,
    one cell at a time.
    """
    many = isinstance(path, (list, tuple))
    paths = [Path(p) for p in path] if many else [Path(path)]
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    prepared = {id(c): _rows(c, len(paths) if many else None) for c in columns}
    lengths = sorted({len(row) for rows, _ in prepared.values() for row in rows})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    steps, lone = lengths[0] if lengths else 0, len(header) == 1
    head = b"" if reproducible else f"# generated {datetime.datetime.now().isoformat()}\r\n".encode()
    head += (",".join(_quoted(header, lone)) + "\r\n").encode()
    for parent in {p.parent for p in paths}:
        parent.mkdir(parents=True, exist_ok=True)
    for first in range(0, len(paths), OPEN_FILES):
        group = slice(first, first + OPEN_FILES)
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(p, "wb")) for p in paths[group]]
            for fh in handles:
                fh.write(head)
            per = max(1, CHUNK_ROWS // len(handles))  # rows of each file in a pass
            for start in range(0, steps, per):
                stop = min(start + per, steps)
                cells = _pass_cells(prepared, group, start, stop, lone)
                fields = [cells[id(c)] for c in columns]
                widths = np.cumsum([f.shape[1] + 1 for f in fields])
                table = np.full((len(handles), stop - start, widths[-1] + 1), ord(","), np.uint8)
                for field, end in zip(fields, widths):  # a shared field fills every file's rows
                    table[..., end - 1 - field.shape[1] : end - 1] = field.reshape(
                        len(field) // (stop - start), stop - start, field.shape[1])
                table[..., -2:] = np.frombuffer(b"\r\n", np.uint8)
                for fh, part in zip(handles, table):
                    fh.write(part.tobytes().translate(None, bytes([_PAD])))


def write_trajectory_csv(trajs: Sequence[Trajectory], paths: Sequence[Path],
                         reproducible: bool = False) -> None:
    """Per-step export of runs of one length, one file each: step, t_us,
    mu_us, q_j, P_cum, pop_subspace.  q_j is blank for a coherent run,
    pop_subspace for a projective one."""
    steps, coherent = len(trajs[0].times), trajs[0].survival_factors is None
    blank, cum = ("",) * steps, [t.cumulative_survival for t in trajs]
    columns = (np.arange(1, steps + 1), [t.times for t in trajs], [t.intervals for t in trajs],
               blank if coherent else [t.survival_factors for t in trajs], cum, cum if coherent else blank)
    header = ("step", "t_us", "mu_us", "q_j", "P_cum", "pop_subspace")
    write_csv(list(paths), header, columns, reproducible)


def _eigenstate_edge_weight(spec: ChainSpec, psi0: np.ndarray) -> float:
    """|c_lambda|^2 of the subspace eigenstate closest to psi0.

    Used by the constant-edge prediction: the confined dynamics relaxes
    toward the dominant eigenstate of the subspace Hamiltonian.
    """
    lam = spec.subspace_size
    dec = linalg.hermitian_eig(zeno_hamiltonian(spec))
    overlaps = np.abs(dec.eigenvectors.conj().T @ np.asarray(psi0[:lam], dtype=complex))
    k = int(np.argmax(overlaps))
    return float(np.abs(dec.eigenvectors[lam - 1, k]) ** 2)


def _edge_grid(d: IntervalDistribution, m):
    """(t_max, dt) of the ideal edge population: the expected span of m intervals,
    one t_max per entry where m is an array."""
    mean = moments(d).mean
    return m * mean, mean / EDGE_SERIES_STEPS_PER_MEAN


def _predicted_staircase(spec: ChainSpec, psi0: np.ndarray, d: IntervalDistribution, m_values):
    """The time-averaged P* after each of m_values intervals, from the closed-form edge average."""
    avg = edge_time_average(spec, psi0, *_edge_grid(d, m_values))
    return np.exp(-_exponent(m_values, moments(d), spec.beta**2 * avg))


def _theory_row(spec: ChainSpec, psi0: np.ndarray, protocol: ProtocolConfig):
    """A sweep point's theory.csv row and prediction."""
    d, m = protocol.distribution, protocol.num_intervals
    mom = moments(d)
    c2_eigen = _eigenstate_edge_weight(spec, psi0)
    c2_avg = edge_time_average(spec, psi0, *_edge_grid(d, m))
    pred_avg = pstar_weak(m, d, spec.beta**2 * c2_avg)  # pstar_time_averaged, from the average
    pstar_const = pstar_weak(m, d, spec.beta**2 * c2_eigen).pstar
    return (
        spec.subspace_size,
        m,
        mom.mean,
        mom.kappa,
        spec.beta,
        c2_eigen,
        c2_avg,
        pstar_const,
        pred_avg.pstar,
    ), pred_avg


THEORY_HEADER = (
    "lambda",
    "m",
    "mu_mean",
    "kappa",
    "beta",
    "c2_eigen",
    "c2_time_avg",
    "pstar_const",
    "pstar_time_avg",
)

SUMMARY_HEADER = (
    "lambda",
    "protocol",
    "F",
    "P_final",
    "pstar_theory",
    "kappa",
    "m",
    "mu_mean",
)


def _samplers(protocol: ProtocolConfig, realizations: int, seed: int) -> list[SeededSampler]:
    """Realization i's sampler, on the child stream derive_seed(seed, i)."""
    runs = realizations if protocol.stochastic else min(realizations, 1)
    return [SeededSampler(s) for s in derive_seed(seed, np.arange(runs, dtype=np.uint64)).tolist()]


def _run_key(index: int, spec: ChainSpec, psi0: np.ndarray, protocol: ProtocolConfig):
    """What a point's runs depend on: the continuous protocol reads the law
    through its mean alone, so points that share its key share one run;
    every other point is its own (its index)."""
    if protocol.kind is not ProtocolKind.CONTINUOUS:
        return index
    return (spec, psi0.tobytes(), moments(protocol.distribution).mean, protocol.num_intervals,
            protocol.effective_coupling())


def run_ensembles(
    points: Sequence[tuple[ChainSpec, np.ndarray, ProtocolConfig]],
    realizations: int,
    seed: int,
) -> list[tuple[EnsembleFinals, list[float]]]:
    """``run_ensemble`` of each (spec, psi0, protocol) point, bit for bit.

    Points that share the chain and psi0 run together (``run_finals_many``):
    projective and pulsed laws in one kernel pass per group of laws with the
    same settings, atom count and word length, the continuous protocol once
    per distinct run (``_run_key``).  Each point is scored apart, since one
    evolution over several points' total times rounds some of them
    differently.
    """
    check_ensemble(realizations, seed)
    keys = [_run_key(i, *point) for i, point in enumerate(points)]
    first: dict = {}  # a key's first point, which runs it
    chains: dict[tuple, list[int]] = {}
    for i, (spec, psi0, _) in enumerate(points):
        if first.setdefault(keys[i], i) == i:
            chains.setdefault((spec, psi0.tobytes()), []).append(i)
    results = {}
    for members in chains.values():
        spec, psi0, _ = points[members[0]]
        configs = [points[i][2] for i in members]
        samplers = [_samplers(c, realizations, seed) for c in configs]
        for i, finals in zip(members, run_finals_many(spec, psi0, configs, samplers)):
            fids = final_fidelities(spec, psi0, finals.final_states, finals.total_times)
            results[i] = finals, fids.tolist()
    return [results[first[key]] for key in keys]


def run_ensemble(
    spec: ChainSpec,
    psi0: np.ndarray,
    protocol: ProtocolConfig,
    realizations: int,
    seed: int,
) -> tuple[EnsembleFinals, list[float]]:
    """All realizations for one chain geometry; returns (finals, fidelities).

    Realization i draws from the child stream derive_seed(seed, i); all
    advance together in one kernel that keeps no per-step series
    (``run_finals``) and are scored against the ideal confined evolution at
    their own total times.  A deterministic ensemble (the continuous
    protocol, or a one-atom post-selected or pulsed one) is one run.  It is
    ``run_ensembles`` of one point.  ``realizations`` is an integer >= 1
    and ``seed`` an integer.
    """
    return run_ensembles([(spec, psi0, protocol)], realizations, seed)[0]


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    reproducible: bool = False,
) -> dict:
    """Run the configured experiment; emit trajectory, summary and theory CSVs.

    Sweeps (lambda_sweep, kappa_sweep) add one summary/theory row per point;
    per-step trajectory files, one per run, are written for the base
    configuration only, and its runs and predicted P* are returned, with the
    names of the files this run wrote (other files in the directory stay).
    The base point runs step by step; the points after it keep end values
    (``run_ensembles``), and a continuous point that shares the base
    point's run reads it.
    """
    out = Path(out_dir if out_dir is not None else config.output_path)
    out.mkdir(parents=True, exist_ok=True)

    points = list(config.sweep_points())
    spec, psi0, protocol = points[0]
    r, seed = config.realizations, config.seed
    trajs = run_lockstep(spec, psi0, protocol, _samplers(protocol, r, seed))
    base = EnsembleFinals.of(trajs), ensemble_fidelities(spec, psi0, trajs)
    paths = [out / f"trajectory_r{i}.csv" for i in range(len(trajs))]
    runs_of = {}  # runs by length: each aborted Bernoulli run is shorter
    for i, traj in enumerate(trajs):
        runs_of.setdefault(len(traj.times), []).append(i)
    for group in runs_of.values():
        write_trajectory_csv([trajs[i] for i in group], [paths[i] for i in group], reproducible)
    shared = _run_key(0, *points[0])
    rest = [k for k in range(1, len(points)) if _run_key(k, *points[k]) != shared]
    runs = dict(zip(rest, run_ensembles([points[k] for k in rest], r, seed)))

    summary_rows, theory_rows = [], []
    for k, (spec, psi0, protocol) in enumerate(points):
        finals, fids = runs.get(k, base)
        trow, pred = _theory_row(spec, psi0, protocol)
        if k == 0:
            base_pred = pred
        theory_rows.append(trow)
        summary_rows.append(
            (
                spec.subspace_size,
                protocol.kind.value,
                float(np.mean(fids)),
                float(np.mean(finals.final_survival)),
                pred.pstar,
                pred.interval_moments.kappa,
                protocol.num_intervals,
                pred.interval_moments.mean,
            )
        )

    write_csv(out / "summary.csv", SUMMARY_HEADER, zip(*summary_rows), reproducible)
    write_csv(out / "theory.csv", THEORY_HEADER, zip(*theory_rows), reproducible)
    return {
        "out_dir": out,
        "trajectories": trajs,
        "prediction": base_pred,
        "files": sorted([p.name for p in paths] + ["summary.csv", "theory.csv"]),
    }


def write_theory_csv(
    config: ExperimentConfig, out_dir: Optional[str] = None, reproducible: bool = False
) -> Path:
    """Theory-only run: the theory.csv rows of ``run_experiment``, same sweep."""
    path = Path(out_dir if out_dir is not None else config.output_path) / "theory.csv"
    rows = [_theory_row(*point)[0] for point in config.sweep_points()]
    write_csv(path, THEORY_HEADER, zip(*rows), reproducible)
    return path


def run_three_level(
    omega: float,
    g_list: Sequence[float],
    t_max: float,
    dt: float,
    out_dir: str,
    reproducible: bool = False,
) -> Path:
    """Closed form vs numerical propagation of the three-level model."""
    if not (0 <= omega < np.inf and 0 < t_max < np.inf and 0 < dt < np.inf):
        raise ValueError("omega must be finite and >= 0, t_max and dt finite and > 0")
    if not len(g_list) or not np.all(np.isfinite(g_list)):
        raise ValueError(f"need one or more couplings g, each finite, got {list(g_list)}")
    t_grid = np.arange(0.0, t_max + 0.5 * dt, dt)
    formula, numeric = [], []
    for g in g_list:
        c1 = linalg.evolve(three_level_hamiltonian(omega, g), [1.0, 0.0, 0.0], t_grid)[:, 0]
        numeric.append(np.abs(c1) ** 2)
        formula.append(three_level_survival(omega, g, t_grid))
    formula, numeric = np.ravel(formula), np.ravel(numeric)
    columns = (
        np.repeat(g_list, len(t_grid)),
        np.tile(t_grid, len(g_list)),
        formula,
        numeric,
        np.abs(formula - numeric),
    )
    path = Path(out_dir) / "three_level.csv"
    write_csv(path, ("g", "t", "P_formula", "P_numeric", "abs_diff"), columns, reproducible)
    return path


# --------------------------------------------------------------------------
# figure presets
# --------------------------------------------------------------------------

N_SITES = 12
BIMODAL_1_5 = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
BIMODAL_3_5 = IntervalDistribution.bimodal(3.0, 5.0, 0.5)


def preset_fig2(
    out_dir: str, seed: int = 2001, m: int = 2000, reproducible: bool = False
) -> Path:
    """W-state survival staircases for subspace sizes 1..9 plus both predictions."""
    d = BIMODAL_1_5
    mom = moments(d)
    m_axis = np.arange(1, m + 1)
    per_lambda = []

    for lam in range(1, 10):
        spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
        psi0 = w_state(N_SITES, lam)
        proto = ProtocolConfig(
            kind=ProtocolKind.PROJECTIVE, num_intervals=m, distribution=d
        )
        traj = run_projective(spec, psi0, proto, SeededSampler(seed + lam))
        curve_avg = _predicted_staircase(spec, psi0, d, m_axis)
        c2_eigen = _eigenstate_edge_weight(spec, psi0)
        curve_const = np.exp(-_exponent(m_axis, mom, spec.beta**2 * c2_eigen))
        per_lambda.append(
            (np.full(m, lam), m_axis, traj.times, traj.cumulative_survival, curve_avg, curve_const)
        )
    path = Path(out_dir) / "fig2_survival.csv"
    write_csv(
        path,
        ("lambda", "m", "t_us", "P_sim", "pstar_time_avg", "pstar_const"),
        [np.concatenate(column) for column in zip(*per_lambda)],
        reproducible,
    )
    return path


def preset_fig3(
    out_dir: str, seed: int = 3001, m: int = 2000, reproducible: bool = False
) -> Path:
    """Leftmost-excited staircase at lambda = 9 with the edge-population trace, the ideal
    |c_lambda|^2 at each step's own time; the inset evaluates lambda = 1..8 at its m only."""
    d = BIMODAL_1_5
    out = Path(out_dir)
    psi0 = leftmost_excited(N_SITES)
    spec = ChainSpec(n_sites=N_SITES, subspace_size=9)
    m_axis, inset_m = np.arange(1, m + 1), np.arange(1, m + 1, 10)

    proto = ProtocolConfig(kind=ProtocolKind.PROJECTIVE, num_intervals=m, distribution=d)
    traj = run_projective(spec, psi0, proto, SeededSampler(seed))
    curve = _predicted_staircase(spec, psi0, d, m_axis)
    edge_at_steps = np.abs(run_exact_subspace(spec, psi0, traj.times).states[:, -1]) ** 2
    columns = (m_axis, traj.times, traj.cumulative_survival, curve, edge_at_steps)
    main = out / "fig3_main.csv"
    write_csv(main, ("m", "t_us", "P_sim", "pstar_time_avg", "edge_pop"), columns, reproducible)

    curves = [_predicted_staircase(ChainSpec(N_SITES, k), psi0, d, inset_m) for k in range(1, 9)]
    curves.append(curve[::10])
    inset = (np.repeat(range(1, 10), len(inset_m)), np.tile(inset_m, 9), np.concatenate(curves))
    write_csv(out / "fig3_inset.csv", ("lambda", "m", "pstar_time_avg"), inset, reproducible)
    return main


def preset_fig4(
    out_dir: str,
    seed: int = 4001,
    m: int = 500,
    realizations: int = 20,
    reproducible: bool = False,
) -> Path:
    """Protocol fidelities versus subspace size, plus the Zeno-limit scaling sweep."""
    d = BIMODAL_3_5
    out = Path(out_dir)
    rows = []
    for lam in range(1, 10):
        spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
        psi0 = w_state(N_SITES, lam)
        for kind in (ProtocolKind.PROJECTIVE, ProtocolKind.PULSED, ProtocolKind.CONTINUOUS):
            proto = ProtocolConfig(kind=kind, num_intervals=m, distribution=d)
            finals, fids = run_ensemble(spec, psi0, proto, realizations, seed + lam)
            survival = float(np.mean(finals.final_survival))
            rows.append((lam, kind.value, float(np.mean(fids)), survival, len(fids)))
    path = out / "fig4_fidelity.csv"
    header = ("lambda", "protocol", "F_mean", "P_final_mean", "R")
    write_csv(path, header, zip(*rows), reproducible)
    write_csv(
        out / "fig4_inset_scaling.csv",
        ("mu_us", "m", "leak_pm", "leak_pc", "leak_cc"),
        zip(*scaling_sweep()),
        reproducible,
    )
    return path


def scaling_sweep(
    lam: int = 5,
    total_time: float = 1500.0,
    mu_min: float = 0.3,
    mu_max: float = 3.0,
    points: int = 8,
) -> list[tuple]:
    """Zeno-limit sweep: deterministic intervals, fixed m * mu.

    Leakage is 1 - P_final for the projective protocol (monotone) and the
    worst case 1 - min_t population for the coherent protocols, whose
    instantaneous population oscillates.
    """
    spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
    psi0 = w_state(N_SITES, lam)
    rows = []
    for mu in np.logspace(np.log10(mu_min), np.log10(mu_max), points):
        m = int(round(total_time / mu))
        d = IntervalDistribution.deterministic(mu)
        sampler = SeededSampler(0)  # deterministic distribution: seed irrelevant
        pm = run_projective(
            spec, psi0, ProtocolConfig(ProtocolKind.PROJECTIVE, m, d), sampler
        )
        pc = run_pulsed(spec, psi0, ProtocolConfig(ProtocolKind.PULSED, m, d), sampler)
        g = np.pi / (2.0 * mu)
        dense = np.arange(0.0, m * mu, min(0.02, mu / 20.0))
        cc = run_continuous(spec, psi0, total_time=m * mu, coupling=g, sample_times=dense)
        rows.append(
            (
                mu,
                m,
                1.0 - pm.final_survival,
                float(np.max(1.0 - pc.cumulative_survival)),
                float(np.max(1.0 - cc.cumulative_survival)),
            )
        )
    return rows


def kappa_family(p1: float = 0.8, mean: float = 3.0, points: int = 7) -> list[tuple]:
    """(p1, mu1, mu2) triples with fixed mean; kappa rises as mu1 drops.

    With mean pinned, mu2 = (mean - p1*mu1)/(1 - p1); at p1 = 0.8, mean = 3
    this spans kappa in [0, 16/9] as mu1 goes from 3 down to 1.  The pin is
    exact up to rounding: at the defaults the last triple's mean is
    3.0000000000000004, so preset_fig5 sees two distinct means.
    """
    if not (0 < p1 < 1 and 1 <= mean < np.inf and is_integer(points) and points >= 1):
        raise ValueError("kappa_family needs 0 < p1 < 1, 1 <= mean < inf (mu1 runs from the mean "
                         f"down to 1) and an integer points >= 1, got {p1=}, {mean=}, {points=}")
    triples = []
    for mu1 in np.linspace(mean, 1.0, points):
        if abs(mu1 - mean) < 1e-12:
            triples.append((1.0, mean, mean))
        else:
            mu2 = (mean - p1 * mu1) / (1.0 - p1)
            triples.append((p1, float(mu1), float(mu2)))
    return triples


def preset_fig5(
    out_dir: str,
    seed: int = 5001,
    m: int = 500,
    realizations: int = 50,
    initial: str = "wstate",
    reproducible: bool = False,
) -> Path:
    """Protocol performance versus interval disorder (1 + kappa) at fixed mean, lambda = 2.

    ``initial`` is ``"wstate"`` (the main panel, fig5_kappa.csv) or
    ``"leftmost"`` (the inset, fig5_inset_kappa.csv).  The ideal edge average
    and the continuous protocol depend on the mean interval alone, so each is
    computed once per distinct mean, not once per point.  The ensembles run
    through ``run_ensembles``: the six disordered laws of each stochastic
    protocol in one kernel pass, the one-atom kappa = 0 law in its own.
    """
    if initial not in ("wstate", "leftmost"):
        raise ValueError(f'initial must be "wstate" or "leftmost", got {initial!r}')
    spec = ChainSpec(n_sites=N_SITES, subspace_size=2)
    psi0 = w_state(N_SITES, 2) if initial == "wstate" else leftmost_excited(N_SITES)

    family = kappa_family()
    laws = [IntervalDistribution.bimodal(mu1, mu2, p1) for p1, mu1, mu2 in family]
    kinds = (ProtocolKind.PROJECTIVE, ProtocolKind.PULSED, ProtocolKind.CONTINUOUS)
    runs = run_ensembles([(spec, psi0, ProtocolConfig(kind, m, d)) for kind in kinds for d in laws],
                         realizations, seed)
    per_mean = {}  # exact mean -> ideal edge time average
    rows = []
    for i, ((p1, mu1, mu2), d) in enumerate(zip(family, laws)):
        mom = moments(d)
        if mom.mean not in per_mean:
            per_mean[mom.mean] = edge_time_average(spec, psi0, *_edge_grid(d, m))
        (finals, f_pm), (_, f_pc), (_, f_cc) = runs[i :: len(laws)]
        pred = pstar_weak(m, d, spec.beta**2 * per_mean[mom.mean])
        rows.append(
            (mom.kappa, 1.0 + mom.kappa, mu1, mu2, aggregate(finals).log_mean, pred.log_pstar,
             *(float(np.mean(f)) for f in (f_pm, f_pc, f_cc)))
        )
    path = Path(out_dir) / ("fig5_kappa.csv" if initial == "wstate" else "fig5_inset_kappa.csv")
    header = ("kappa", "one_plus_kappa", "mu1_us", "mu2_us", "ln_P_sim_mean", "ln_pstar_theory",
              "F_pm", "F_pc", "F_cc")
    write_csv(path, header, zip(*rows), reproducible)
    return path
