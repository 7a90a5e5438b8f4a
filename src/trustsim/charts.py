"""Minimal self-contained SVG line charts for per-episode series.

Hand-rolled rather than pulling in a plotting stack: output bytes are
deterministic, which keeps chart files inside the reproducibility
contract.
"""

from __future__ import annotations

from pathlib import Path

WIDTH = 640
HEIGHT = 360
MARGIN = 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_chart(xs, ys, title: str, x_label: str, y_label: str) -> str:
    if len(xs) != len(ys) or not xs:
        raise ValueError("chart needs equal-length, nonempty series")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(t):.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{py(t):.1f}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{HEIGHT / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {HEIGHT / 2:.0f})">{y_label}</text>'
    )

    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    if len(xs) == 1:
        parts.append(f'<circle cx="{px(xs[0]):.1f}" cy="{py(ys[0]):.1f}" r="3" fill="steelblue"/>')
    else:
        parts.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_charts(records, out_dir) -> list[Path]:
    """Reward and F1 per-episode charts; the plotted series are columns of episodes.csv."""
    if not records:
        raise ValueError("no records to chart")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    episodes = [r.episode for r in records]
    rewards = [r.cumulative_reward for r in records]
    f1s = [r.f1 for r in records]

    written = []
    for name, series, label in (
        ("reward_per_episode", rewards, "cumulative reward"),
        ("f1_per_episode", f1s, "F1 score"),
    ):
        path = out / f"{name}.svg"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_line_chart(episodes, series, name.replace("_", " "), "episode", label))
        written.append(path)
    return written
