"""Minimal SVG rendering of trajectory bundles; no plotting dependency."""

from __future__ import annotations

from typing import NamedTuple

from .scattering import Detected, Geometry, Outcome, TrajectoryRecord

_WIDTH = 900
_MAX_POINTS = 1500


class Sketch(NamedTuple):
    """What the picture keeps of one recorded trajectory."""

    outcome: Outcome
    y_extent: float                         # largest |y| over the full path
    vertices: list[tuple[float, float]]     # the thinned path, both ends kept


def sketch(rec: TrajectoryRecord) -> Sketch:
    """Keep every ((len - 1) // _MAX_POINTS)-th point of a path of 2+ states, and its end."""
    path = rec.path
    stride = max(1, (len(path) - 1) // _MAX_POINTS)
    return Sketch(rec.outcome, max(abs(s.pos[1]) for s in path),
                  [s.pos for s in path[:-1:stride]] + [path[-1].pos])


def render_trajectories(sketches: list[Sketch], g: Geometry) -> str:
    """Draw screens, slit, emitter and one polyline per trajectory.

    Detected paths are drawn in red, everything else in blue.
    """
    xmin = g.x_escape - 0.5
    xmax = g.screen_gap + 0.5
    ymax = max([1.2 * g.slit_half_height] + [sk.y_extent for sk in sketches])
    ymax = min(ymax * 1.05, g.y_bound * 1.05)

    scale = _WIDTH / (xmax - xmin)
    height = 2 * ymax * scale

    def px(x: float) -> float:
        return (x - xmin) * scale

    def py(y: float) -> float:
        return (ymax - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height:.0f}" viewBox="0 0 {_WIDTH} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for sk in sketches:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sk.vertices)
        color = "#c0392b" if isinstance(sk.outcome, Detected) else "#3a6ea5"
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="0.7" '
                     f'stroke-opacity="0.45" points="{coords}"/>')
    R = g.slit_half_height
    for y0, y1 in ((R, ymax), (-ymax, -R)):
        parts.append(f'<line x1="{px(0):.2f}" y1="{py(y0):.2f}" x2="{px(0):.2f}" '
                     f'y2="{py(y1):.2f}" stroke="black" stroke-width="3"/>')
    parts.append(f'<line x1="{px(g.screen_gap):.2f}" y1="{py(-ymax):.2f}" '
                 f'x2="{px(g.screen_gap):.2f}" y2="{py(ymax):.2f}" '
                 f'stroke="black" stroke-width="2"/>')
    parts.append(f'<circle cx="{px(-g.emitter_distance):.2f}" cy="{py(0):.2f}" '
                 f'r="3" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
