"""Plain-text and LaTeX rendering of forms and basis generators."""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .forms import PolyForm, Scalar


def _coeff_prefix(c: Scalar, style: str) -> str:
    mag = -c if c < 0 else c
    if mag == 1:
        body = ""
    elif style == "latex" and mag.denominator != 1:
        body = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
    else:
        body = str(mag)
    return body


def format_monomial(alpha: tuple[int, ...], style: str = "plain") -> str:
    """lambda^alpha."""
    parts = []
    for i, e in enumerate(alpha):
        if e == 0:
            continue
        if style == "latex":
            parts.append(f"\\lambda_{{{i}}}" + (f"^{{{e}}}" if e > 1 else ""))
        else:
            parts.append(f"l{i}" + (f"^{e}" if e > 1 else ""))
    if not parts:
        return "" if style == "latex" else "1"
    return "".join(parts) if style == "latex" else "*".join(parts)


def format_dlambda(sigma: tuple[int, ...], style: str = "plain") -> str:
    if not sigma:
        return ""
    if style == "latex":
        return "\\wedge ".join(f"d\\lambda_{{{s}}}" for s in sigma)
    return "^".join(f"dl{s}" for s in sigma)


def format_form(w: PolyForm, style: str = "plain") -> str:
    """Render a canonical form as a signed sum of monomial terms."""
    if w.is_zero:
        return "0"
    chunks: list[str] = []
    for alpha, sigma, c in w.terms():
        mono = format_monomial(alpha, style)
        diff = format_dlambda(sigma, style)
        if style == "latex":
            body = mono + ("\\," + diff if mono and diff else diff)
            if not body:
                body = "1"
        else:
            pieces = [p for p in (mono, diff) if p]
            if mono == "1" and diff:
                pieces = [diff]
            body = " ".join(pieces) if pieces else "1"
        coeff = _coeff_prefix(c, style)
        term = f"{coeff}{body}" if style == "latex" else (f"{coeff}*{body}" if coeff else body)
        if not chunks:
            chunks.append(("-" if c < 0 else "") + term)
        else:
            chunks.append(("- " if c < 0 else "+ ") + term)
    return " ".join(chunks)


def format_generator(
    alpha: tuple[int, ...],
    sigma: tuple[int, ...],
    family: str,
    labels: Sequence[int] | None = None,
) -> str:
    """Render lambda^alpha (d lambda_sigma | phi_sigma) as plain text; vertex p is named labels[p] (default p).

    The text is a cached template per (alpha, sigma, family), such as
    ``"l{0}*l{2}^2 phi_{0}{1}"``, filled with ``str.format(*labels)``.
    """
    if labels is None:
        labels = range(len(alpha))
    return _generator_template(alpha, sigma, family).format(*labels)


@cache
def _generator_template(alpha: tuple[int, ...], sigma: tuple[int, ...], family: str) -> str:
    mono = "*".join(f"l{{{p}}}" + (f"^{e}" if e > 1 else "") for p, e in enumerate(alpha) if e)
    if family == "minus":
        tail = "phi_" + "".join(f"{{{s}}}" for s in sigma)
    else:
        tail = "^".join(f"dl{{{s}}}" for s in sigma)
    return " ".join(p for p in (mono, tail) if p) or "1"
