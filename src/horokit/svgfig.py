"""
Static SVG rendering of a parametric polytope family (rank <= 2 only).

Purely presentational: panel coordinates are floats, every computed
quantity that matters stays exact upstream.
"""

from fractions import Fraction

from .polyhedra import InequalitySystem, vertices


def _panel(fam, eps):
    eps = Fraction(eps)
    rhs = [b + eps * c for b, c in zip(fam.B, fam.C)]
    vs = vertices(InequalitySystem(fam.A, tuple(rhs)))
    pts = [(float(v[0]), float(v[1]) if len(v) > 1 else 0.0) for v in vs]
    label = f"eps = {eps}"
    return pts, rhs, label


def _order_polygon(pts):
    if len(pts) <= 2:
        return pts
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    import math
    return sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def render_family(fam, samples):
    """SVG document with one panel per epsilon sample."""
    if fam.n > 2:
        raise ValueError("figures are only rendered for rank <= 2")
    panels = [_panel(fam, e) for e in samples]
    allpts = [p for pts, _, _ in panels for p in pts] or [(0.0, 0.0)]
    xs = [p[0] for p in allpts]
    ys = [p[1] for p in allpts]
    lo = min(min(xs), min(ys), -0.25)
    hi = max(max(xs), max(ys), 1.25)
    span = hi - lo or 1.0
    size, pad = 150.0, 15.0

    def project(x, y, k):
        px = pad + (x - lo) / span * size + k * (size + 2 * pad)
        py = pad + (hi - y) / span * size
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{(size + 2 * pad) * len(panels):.0f}" '
             f'height="{size + 3 * pad:.0f}">']
    moving = [r for r in range(fam.m) if fam.C[r] != 0]
    for k, (pts, rhs, label) in enumerate(panels):
        poly = _order_polygon(pts)
        if len(poly) >= 2:
            coords = " ".join("%.2f,%.2f" % project(x, y, k) for x, y in poly)
            tag = "polygon" if len(poly) >= 3 else "polyline"
            parts.append(f'<{tag} points="{coords}" fill="#cfe0ff" '
                         'stroke="#234" stroke-width="1.5"/>')
        elif len(poly) == 1:
            px, py = project(*poly[0], k)
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#234"/>')
        for r in moving:
            row = fam.A[r]
            seg = _clip_line(row, rhs[r], lo, hi)
            if seg:
                (x1, y1), (x2, y2) = seg
                p1, p2 = project(x1, y1, k), project(x2, y2, k)
                parts.append(f'<line x1="{p1[0]:.2f}" y1="{p1[1]:.2f}" '
                             f'x2="{p2[0]:.2f}" y2="{p2[1]:.2f}" '
                             'stroke="#a33" stroke-dasharray="4 3"/>')
        tx = pad + k * (size + 2 * pad)
        parts.append(f'<text x="{tx:.0f}" y="{size + 2.4 * pad:.0f}" '
                     f'font-size="11" font-family="monospace">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _clip_line(row, rhs, lo, hi):
    """Segment of {row . x = rhs} inside the [lo, hi]^2 box (2d only)."""
    a = [float(v) for v in row] + [0.0, 0.0]
    a, b = a[0], a[1]
    c = float(rhs)
    pts = []
    if abs(b) > 1e-12:
        for x in (lo, hi):
            y = (c - a * x) / b
            if lo - 1e-9 <= y <= hi + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-12:
        for y in (lo, hi):
            x = (c - b * y) / a
            if lo - 1e-9 <= x <= hi + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-9 for q in uniq):
            uniq.append(p)
    return (uniq[0], uniq[1]) if len(uniq) >= 2 else None
