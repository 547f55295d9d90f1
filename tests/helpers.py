"""Shared test helpers: per-bit references for the mask codec and support
positions, random circuits over the full gate basis, the dense gate oracle,
the reference SVM kernel, the reference record writer, and planted-feature
data."""

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from qfselect.errors import OracleLimitError, RecordError
from qfselect.simulator import Circuit, Gate, GateKind, SINGLE_QUBIT_KINDS

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {
    GateKind.RX: _X,
    GateKind.RY: _Y,
    GateKind.RZ: _Z,
    GateKind.RXX: np.kron(_X, _X),
    GateKind.RYY: np.kron(_Y, _Y),
    GateKind.RZZ: np.kron(_Z, _Z),
}


# Strings that int(..., 2) takes but that are not masks.
NOT_BITSTRINGS = ("1_0", " 10", "10\n", "\u06610", "+1")


def reference_mask(index: int, n: int) -> str:
    """Bit i of `index` as character i, one bit at a time."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(n))


def reference_index(basis: tuple[int, ...], position: int) -> int:
    """XOR of basis[i] over the set bits i of `position`, one bit at a time."""
    index = 0
    for i, vector in enumerate(basis):
        if position >> i & 1:
            index ^= vector
    return index


def random_gate(rng: np.random.Generator, n: int) -> Gate:
    kinds = list(GateKind) if n >= 2 else list(SINGLE_QUBIT_KINDS)
    kind = kinds[rng.integers(len(kinds))]
    if kind.n_qubits == 1:
        qubits = (int(rng.integers(n)),)
    else:
        qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
    return Gate(kind, qubits, float(rng.uniform(0.0, 2.0 * np.pi)))


def random_circuit(rng: np.random.Generator, n: int, n_gates: int) -> Circuit:
    return Circuit(n, tuple(random_gate(rng, n) for _ in range(n_gates)))


def gate_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 or 4x4 unitary exp(-i*angle*P/2) of one gate."""
    pauli = _PAULI[gate.kind]
    half = 0.5 * gate.angle
    return math.cos(half) * np.eye(len(pauli)) - 1j * math.sin(half) * pauli


def dense_unitary(gate: Gate, n: int) -> np.ndarray:
    """Full 2**n x 2**n matrix of one gate; the simulator's oracle (n <= 6)."""
    if n > 6:
        raise OracleLimitError(f"dense oracle capped at 6 qubits, got n={n}")
    Circuit(n, (gate,))  # refuses operands outside the register
    m = gate_matrix(gate)
    if gate.kind.n_qubits == 1:
        q = gate.qubits[0]
        return np.kron(np.kron(np.eye(1 << (n - 1 - q)), m), np.eye(1 << q))
    # Two-qubit case: expand the Kronecker embedding entry by entry so
    # non-adjacent operand positions need no permutation matrices.
    qa, qb = gate.qubits
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    clear = ~((1 << qa) | (1 << qb))
    for j in range(dim):
        k_in = 2 * ((j >> qb) & 1) + ((j >> qa) & 1)
        base = j & clear
        for k_out in range(4):
            i = base | ((k_out & 1) << qa) | (((k_out >> 1) & 1) << qb)
            full[i, j] = m[k_out, k_in]
    return full


def reference_train_ovr(features, labels, C, epochs, keep):
    """The one-vs-rest SVM kernel in its plain form, the bit-level reference
    for `classifier._train_ovr`: one allocation per operation, the hinge
    mask taken with np.where, and the bias gradient summed with .sum()."""
    classes = np.unique(labels)
    n_rows = features.shape[0]
    batch = keep.shape[0]
    targets = np.tile(np.where(labels[:, None] == classes[None, :], 1.0, -1.0), batch)
    keep = np.repeat(keep, classes.size, axis=0)
    weights = np.zeros((batch * classes.size, features.shape[1]))
    biases = np.zeros(batch * classes.size)
    for t in range(1, epochs + 1):
        margins = targets * (features @ weights.T + biases)
        active = np.where(margins < 1.0, targets, 0.0)
        grad_w = C * weights - keep * (active.T @ features) / n_rows
        grad_b = -active.sum(axis=0) / n_rows
        lr = 1.0 / (C * t)
        weights -= lr * grad_w
        biases -= lr * grad_b
    return classes, weights, biases


def _reference_format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise RecordError(f"cannot serialize non-finite float {value!r}")
    text = "%.17g" % value
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _reference_emit(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.append(inner + json.dumps(str(key), ensure_ascii=False) + ": ")
            _reference_emit(val, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(value):
            out.append(inner)
            _reference_emit(val, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_reference_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif value is None:
        out.append("null")
    elif is_dataclass(value) and not isinstance(value, type):
        _reference_emit({f.name: getattr(value, f.name) for f in fields(value)}, out, indent)
    else:
        raise RecordError(f"cannot serialize value of type {type(value).__name__}")


def reference_dumps_canonical(value) -> str:
    """The canonical record writer in its plain form, the byte-level
    reference for `records.dumps_canonical`: one isinstance chain for every
    value and one `json.dumps` call for every string and key."""
    out: list[str] = []
    _reference_emit(value, out, 0)
    return "".join(out) + "\n"


def planted_rows(n, rows, informative, seed):
    """Feature matrix + binary labels from a linear rule on 3 columns.

    Only the `informative` columns carry class signal; every other column
    is independent standard normal noise.
    """
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(rows, n))
    weights = np.linspace(1.0, 1.5, num=len(informative))
    score = features[:, list(informative)] @ weights
    labels = (score > 0.0).astype(np.int64)
    return features, labels


def write_planted_csv(path, n, rows, informative, seed):
    """Write planted_rows as a loadable CSV; returns the informative tuple."""
    features, labels = planted_rows(n, rows, informative, seed)
    lines = ["label," + ",".join(f"f{i}" for i in range(n))]
    for y, row in zip(labels, features):
        lines.append(str(int(y)) + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tuple(informative)

