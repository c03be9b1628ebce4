"""Plot data bundles and a small static SVG renderer.

SVG is written directly (no plotting library) so rendering identical
bundles yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import integer_times


@dataclass(frozen=True, eq=False)
class PlotBundle:
    """Everything a detection picture needs, as plain data.

    Markers are 1-based integer times in [1, T]; heatmaps are the
    per-segment p x (p*d) coefficient estimates.  Every array is non-empty
    and finite.
    """

    series: np.ndarray                       # T x p
    candidate_markers: tuple[int, ...] = ()
    final_markers: tuple[int, ...] = ()
    heatmaps: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        for a in (self.series, *self.heatmaps):
            if a.ndim != 2 or a.size == 0:
                raise ValueError("series and heatmaps must be non-empty 2-D arrays")
            if not np.isfinite(a).all():
                raise ValueError("series and heatmaps must be finite")
        T = self.series.shape[0]
        for name in ("candidate_markers", "final_markers"):
            marks = integer_times(getattr(self, name), name)
            if any(not (1 <= t <= T) for t in marks):
                raise ValueError(f"{name} outside [1, {T}]")
            object.__setattr__(self, name, marks)


def make_plot_bundle(data: np.ndarray, detection) -> PlotBundle:
    return PlotBundle(
        series=np.asarray(data, dtype=float),
        candidate_markers=detection.stage1.indices,
        final_markers=detection.final_breaks,
        heatmaps=tuple(f.theta for f in detection.stage2.fits),
    )


def bundle_to_dict(bundle: PlotBundle) -> dict:
    return {
        "series": bundle.series.tolist(),
        "candidate_markers": list(bundle.candidate_markers),
        "final_markers": list(bundle.final_markers),
        "heatmaps": [h.tolist() for h in bundle.heatmaps],
    }


def bundle_from_dict(doc: dict) -> PlotBundle:
    return PlotBundle(
        series=np.asarray(doc["series"], dtype=float),
        candidate_markers=tuple(doc.get("candidate_markers", ())),
        final_markers=tuple(doc.get("final_markers", ())),
        heatmaps=tuple(np.asarray(h, dtype=float) for h in doc.get("heatmaps", ())),
    )


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmts(a: np.ndarray) -> list[str]:
    return [_fmt(x) for x in a.tolist()]


def _heat_colors(heat: np.ndarray, vmax: float) -> list[list[str]]:
    """Each cell's fill on a symmetric blue-white-red scale, row by row."""
    if vmax <= 0:
        return [["#ffffff"] * heat.shape[1]] * heat.shape[0]
    u = np.clip(heat / vmax, -1.0, 1.0)
    # 1 + u is 1 - |u| for u < 0; np.round, like round, takes halves to even
    level = np.round(255 * (1 - np.abs(u))).astype(int)
    # 0xRRGGBB: red 255 and green = blue = level for u >= 0, else blue 255
    rgb = np.where(u >= 0, 0xff0000 + level * 0x000101, level * 0x010100 + 0x0000ff)
    return [[f"#{c:06x}" for c in row] for row in rgb.tolist()]


def render_svg(bundle: PlotBundle, path) -> None:
    """Series panel with break markers, plus one heatmap per segment.

    Pixel coordinates are computed for whole arrays, element by element with
    the same IEEE operations in the same order as a scalar formula would
    apply them (e.g. pad + (hi - v) / (hi - lo) * panel_h), so each is the
    same double and prints the same "%.2f" text: the bytes do not depend on
    whether a coordinate was computed alone or in an array.
    """
    X = bundle.series
    T = X.shape[0]
    width, panel_h, pad = 900.0, 280.0, 40.0
    heat_h = 180.0 if bundle.heatmaps else 0.0
    height = panel_h + heat_h + 3 * pad

    lo, hi = float(np.min(X)), float(np.max(X))
    if hi <= lo:
        hi = lo + 1.0
    sx = (width - 2 * pad) / max(T - 1, 1)
    xs = _fmts(pad + np.arange(T) * sx)          # time t at xs[t - 1]
    ys = pad + (hi - X) / (hi - lo) * panel_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    points = " ".join(x + ",%.2f" for x in xs)   # one format for every series
    for col in ys.T.tolist():
        parts.append(f'<polyline points="{points % tuple(col)}" fill="none" '
                     f'stroke="#4878a8" stroke-opacity="0.35" stroke-width="0.8"/>')
    y0, y1 = _fmt(pad), _fmt(pad + panel_h)
    for t in bundle.candidate_markers:
        parts.append(f'<line x1="{xs[t - 1]}" x2="{xs[t - 1]}" y1="{y0}" '
                     f'y2="{y1}" stroke="#999999" stroke-dasharray="4,3"/>')
    for t in bundle.final_markers:
        parts.append(f'<line x1="{xs[t - 1]}" x2="{xs[t - 1]}" y1="{y0}" '
                     f'y2="{y1}" stroke="#c23b22" stroke-width="1.6"/>')

    if bundle.heatmaps:
        n_seg = len(bundle.heatmaps)
        vmax = max(float(np.max(np.abs(h))) for h in bundle.heatmaps)
        top = panel_h + 2 * pad
        slot = (width - 2 * pad) / n_seg
        gap = min(pad, slot / 2)     # keeps cells positive however many slots
        for s, heat in enumerate(bundle.heatmaps):
            rows, cols = heat.shape
            cw = min((slot - gap) / cols, heat_h / rows)
            cx = _fmts(pad + s * slot + np.arange(cols) * cw)
            cy = _fmts(top + np.arange(rows) * cw)
            size = _fmt(cw)
            for y, fills in zip(cy, _heat_colors(heat, vmax)):
                parts.extend(f'<rect x="{x}" y="{y}" width="{size}" height="{size}" '
                             f'fill="{fill}"/>' for x, fill in zip(cx, fills))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
