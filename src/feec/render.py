"""Plain-text and LaTeX rendering of forms and basis generators."""

from __future__ import annotations

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


def format_monomial(
    alpha: tuple[int, ...], style: str = "plain", labels: Sequence[int] | None = None
) -> str:
    """lambda^alpha, with lambda_i named labels[i] (default i)."""
    parts = []
    for p, e in enumerate(alpha):
        if e == 0:
            continue
        i = p if labels is None else labels[p]
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
    """Render lambda^alpha (d lambda_sigma | phi_sigma) as plain text; vertex p is named labels[p] if given."""
    if labels is not None:
        sigma = tuple(labels[s] for s in sigma)
    mono = format_monomial(alpha, labels=labels)
    tail = "phi_" + "".join(str(s) for s in sigma) if family == "minus" else format_dlambda(sigma)
    pieces = [p for p in (mono, tail) if p]
    if mono == "1" and tail:
        pieces = [tail]
    return " ".join(pieces) if pieces else "1"
